//! The UDP event loop that the control-plane scheduler and agent, the
//! partition-aggregate leaf and front-end, and the memcached client share.
//!
//! Each sets up one socket the same way — `socket(UDP)`, `fcntl(O_NONBLOCK)`
//! if it [drains](UdpGuest::drains), `bind` if it serves on a port,
//! `epoll_create`, `epoll_ctl(READ)` — and then loops: its
//! [`UdpGuest::pump`] names the next action; a wait that returns events is
//! followed by `recvfrom`, each datagram going to [`UdpGuest::on_datagram`],
//! and a wait that returns none to [`UdpGuest::on_timeout`]. A draining
//! guest reads until `EWOULDBLOCK`, so its last `recvfrom` must not park
//! the thread past a deadline; a guest that reads one datagram per wait
//! keeps a blocking socket. Where the loop stands, with its descriptors, is
//! one [`UdpLoop`] value the guest persists, and [`step`] is the one place
//! that meets a result the sequence does not expect.

use diablo_engine::time::SimDuration;
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use diablo_stack::socket::EventMask;

/// Readiness events one `epoll_wait` returns at most.
const MAX_EVENTS: usize = 64;

/// What a guest does next, as its [`UdpGuest::pump`] names it.
#[derive(Debug)]
pub enum Next {
    /// `sendto` one datagram on the loop's socket.
    Send(SockAddr, AppMessage),
    /// Compute this many instructions.
    Compute(u64),
    /// `nanosleep` this long.
    Sleep(SimDuration),
    /// `futex_wake` this key.
    Wake(u64),
    /// `epoll_wait`, with a timeout or without one.
    Wait(Option<SimDuration>),
    /// `recvfrom` without waiting first.
    ReadOn,
    /// Exit the thread.
    Exit,
}

/// Where the loop goes after a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// `recvfrom` again, until `EWOULDBLOCK`.
    ReadOn,
    /// Back to the pump.
    Pump,
}

/// Where a guest's loop stands: the syscall whose result the next step
/// brings, and the socket (then the epoll instance) set up so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpLoop {
    /// Nothing issued: a new or rebooted guest.
    Start,
    /// `socket` in flight.
    Socket,
    /// `fcntl(O_NONBLOCK)` in flight on the socket.
    Nonblock(Fd),
    /// `bind` in flight.
    Bind(Fd),
    /// `epoll_create` in flight.
    EpollCreate(Fd),
    /// Set up, and nothing to read from the last result (`epoll_ctl`, or
    /// what the pump named): the pump goes next. Socket, then epoll.
    Pump(Fd, Fd),
    /// `epoll_wait` in flight.
    Wait(Fd, Fd),
    /// `recvfrom` in flight.
    Recv(Fd, Fd),
}

/// A guest process run by the loop: it names its next action and says
/// what a datagram or a timeout means; [`step`] issues every syscall.
pub trait UdpGuest: Process {
    /// The port the guest serves on; `None` leaves the socket unbound.
    fn port(&self) -> Option<u16> {
        None
    }

    /// Whether the guest reads on after a datagram ([`Then::ReadOn`]) until
    /// the socket is empty; only then is the socket made nonblocking.
    fn drains(&self) -> bool {
        true
    }

    /// The guest's loop position.
    fn io(&mut self) -> &mut UdpLoop;

    /// The next action, once the socket is set up and after every action
    /// that returns nothing to read.
    fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> Next;

    /// One datagram read from the socket.
    fn on_datagram(&mut self, from: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then;

    /// A timed wait returned no events; the pump goes next.
    fn on_timeout(&mut self, _ctx: &mut ProcessCtx<'_>) {}
}

/// Steps `g` once: consumes the last result and returns its next action.
///
/// # Panics
///
/// On a result the loop's sequence does not expect there (a failed
/// `socket`, `bind` or `epoll_create`, a `recvfrom` error other than
/// `EWOULDBLOCK`): a modeled kernel never returns one to this sequence.
pub fn step<G: UdpGuest>(g: &mut G, ctx: &mut ProcessCtx<'_>) -> Step {
    loop {
        let phase = *g.io();
        let (next, call) = match (phase, std::mem::replace(&mut ctx.result, SysResult::Computed)) {
            (UdpLoop::Start, _) => (UdpLoop::Socket, Syscall::Socket(Proto::Udp)),
            (UdpLoop::Socket, SysResult::NewFd(fd)) if g.drains() => {
                (UdpLoop::Nonblock(fd), Syscall::SetNonblocking { fd, on: true })
            }
            (UdpLoop::Socket, SysResult::NewFd(fd)) | (UdpLoop::Nonblock(fd), SysResult::Done) => {
                match g.port() {
                    Some(port) => (UdpLoop::Bind(fd), Syscall::Bind { fd, port }),
                    None => (UdpLoop::EpollCreate(fd), Syscall::EpollCreate),
                }
            }
            (UdpLoop::Bind(fd), SysResult::Done) => {
                (UdpLoop::EpollCreate(fd), Syscall::EpollCreate)
            }
            (UdpLoop::EpollCreate(fd), SysResult::NewFd(epfd)) => {
                (UdpLoop::Pump(fd, epfd), Syscall::EpollCtl { epfd, fd, interest: EventMask::READ })
            }
            (UdpLoop::Pump(fd, epfd), _) => match g.pump(ctx) {
                Next::Send(to, msg) => (phase, Syscall::SendTo { fd, to, msg }),
                Next::Compute(instructions) => return Step::Compute(instructions),
                Next::Sleep(d) => (phase, Syscall::Nanosleep(d)),
                Next::Wake(key) => (phase, Syscall::FutexWake { key }),
                Next::Wait(timeout) => (
                    UdpLoop::Wait(fd, epfd),
                    Syscall::EpollWait { epfd, max_events: MAX_EVENTS, timeout },
                ),
                Next::ReadOn => (UdpLoop::Recv(fd, epfd), Syscall::RecvFrom { fd }),
                Next::Exit => return Step::Exit,
            },
            (UdpLoop::Wait(fd, epfd), SysResult::Events(evs)) => {
                if evs.is_empty() {
                    g.on_timeout(ctx);
                    *g.io() = UdpLoop::Pump(fd, epfd);
                    continue;
                }
                (UdpLoop::Recv(fd, epfd), Syscall::RecvFrom { fd })
            }
            (UdpLoop::Recv(fd, epfd), SysResult::Datagram { from, msg }) => {
                match g.on_datagram(from, msg, ctx) {
                    Then::ReadOn => (phase, Syscall::RecvFrom { fd }),
                    Then::Pump => {
                        *g.io() = UdpLoop::Pump(fd, epfd);
                        continue;
                    }
                }
            }
            (UdpLoop::Recv(fd, epfd), SysResult::Err(Errno::WouldBlock)) => {
                *g.io() = UdpLoop::Pump(fd, epfd);
                continue;
            }
            (phase, other) => panic!("{}: {other:?} in loop phase {phase:?}", g.label()),
        };
        *g.io() = next;
        return Step::Syscall(call);
    }
}

diablo_engine::impl_snap_enum!(UdpLoop {
    0 => Start,
    1 => Socket,
    2 => Nonblock(fd),
    3 => Bind(fd),
    4 => EpollCreate(fd),
    5 => Pump(fd, epfd),
    6 => Wait(fd, epfd),
    7 => Recv(fd, epfd),
});
