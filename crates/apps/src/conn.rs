//! The TCP connection rules that the echo, incast and memcached guests
//! share: one to dial a server and redial it after a failure, one to open
//! a listening socket, and one to serve its clients one connection at a
//! time.
//!
//! A dial issues `socket(TCP)` and `connect`, then `fcntl(O_NONBLOCK)`
//! if the socket is nonblocking and `epoll_ctl(READ)` if it goes into an
//! epoll instance; a [`Sock`] says which, and each guest fills it in from
//! what it is. When `connect` fails, or when the guest's request on an
//! up connection fails ([`Redial::fail`]), the dial closes the socket,
//! sleeps the jittered backoff of the guest's [`Redial`] state, and dials
//! again from `socket`. A server issues `socket(TCP)`, `bind` and
//! `listen`. A [`Server`] then serves: `accept`, and on the connection
//! `recv`, compute the replies to what it read, `send` them one by one
//! and `recv` again, until an EOF with nothing read or a reset, when it
//! closes the connection and accepts the next. Where a dial, a listen or
//! a serve stands, with the descriptors of its step, is one [`Dial`],
//! [`Listen`] or [`Serve`] value the guest keeps in its own state;
//! [`dial`], [`listen`] and [`serve`] are the one place that meets a
//! result the sequence does not expect.

use crate::failure::{backoff_delay_jittered, FailureStats};
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use diablo_stack::socket::EventMask;

/// What a set-up step asks of its guest.
#[derive(Debug)]
pub enum Setup<P> {
    /// Issue this syscall; the set-up now stands at the phase.
    Call(P, Syscall),
    /// The socket is set up: connected, or listening.
    Up(Fd),
}

/// The socket a guest dials.
#[derive(Debug, Clone, Copy)]
pub struct Sock {
    /// The server.
    pub to: SockAddr,
    /// `fcntl(O_NONBLOCK)` after `connect`.
    pub nonblocking: bool,
    /// `epoll_ctl(READ)` into this instance after that.
    pub epfd: Option<Fd>,
}

/// Where a dial stands: the syscall whose result the next step brings,
/// and the socket it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dial {
    /// `socket` goes next, once the call in flight returns: nothing, the
    /// backoff sleep, or the close of a connection the guest retired.
    Start,
    /// `socket` in flight.
    Socket,
    /// `connect` in flight.
    Connect(Fd),
    /// `fcntl(O_NONBLOCK)` in flight.
    Nonblock(Fd),
    /// `epoll_ctl(READ)` in flight.
    Register(Fd),
    /// `close` of the failed socket in flight.
    Close,
}

/// A guest's failure path: the consecutive failures of its in-flight
/// request, and the stream its backoff jitter comes from.
#[derive(Debug)]
pub struct Redial {
    /// Consecutive failures of the in-flight request (the backoff
    /// exponent).
    pub attempts: u32,
    rng: DetRng,
}

impl Redial {
    /// No failure yet; jitter drawn from `rng`, seeded from the guest's
    /// address so the clients of a mass failure redial de-correlated.
    pub fn new(rng: DetRng) -> Self {
        Redial { attempts: 0, rng }
    }

    /// Counts a failure of the in-flight request at `now` and closes its
    /// socket: the dial's failure path, which goes on at [`Dial::Close`].
    pub fn fail(&mut self, failure: &mut FailureStats, fd: Fd, now: SimTime) -> (Dial, Syscall) {
        failure.on_failure(now);
        self.attempts += 1;
        (Dial::Close, Syscall::Close { fd })
    }

    fn backoff(&mut self) -> SimDuration {
        backoff_delay_jittered(self.attempts.saturating_sub(1), &mut self.rng)
    }
}

/// A guest that dials: what it counts as a dial goes.
pub trait Dialer: Process {
    /// The guest's failure accounting and retry state; `None` for a
    /// guest without a failure path, whose failed `connect` is a panic.
    fn retry(&mut self) -> Option<(&mut FailureStats, &mut Redial)> {
        None
    }

    /// `connect` returned `Done` at `now`; the fcntl and the epoll_ctl,
    /// if the socket takes them, follow.
    fn on_connect(&mut self, _now: SimTime) {}
}

/// Steps `g`'s dial at `phase` to `sock` once: consumes the last result
/// and returns the next call, or the connected socket.
///
/// # Panics
///
/// On a result the sequence does not expect there (a failed `socket`, a
/// failed `connect` of a guest without a failure path): a modeled kernel
/// never returns one to this sequence.
pub fn dial<G: Dialer>(
    g: &mut G,
    phase: Dial,
    sock: Sock,
    ctx: &mut ProcessCtx<'_>,
) -> Setup<Dial> {
    let now = ctx.now;
    let result = std::mem::replace(&mut ctx.result, SysResult::Computed);
    let (next, call) = match (phase, result) {
        (Dial::Start, _) => (Dial::Socket, Syscall::Socket(Proto::Tcp)),
        (Dial::Socket, SysResult::NewFd(fd)) => {
            (Dial::Connect(fd), Syscall::Connect { fd, to: sock.to })
        }
        (Dial::Connect(fd), SysResult::Done) => {
            g.on_connect(now);
            if !sock.nonblocking {
                return register(fd, sock);
            }
            (Dial::Nonblock(fd), Syscall::SetNonblocking { fd, on: true })
        }
        (Dial::Nonblock(fd), _) => return register(fd, sock),
        (Dial::Register(fd), _) => return Setup::Up(fd),
        (phase, result) => match (phase, result, g.retry()) {
            (Dial::Connect(fd), SysResult::Err(_), Some((failure, redial))) => {
                redial.fail(failure, fd, now)
            }
            (Dial::Close, _, Some((_, redial))) => {
                (Dial::Start, Syscall::Nanosleep(redial.backoff()))
            }
            (phase, other, _) => panic!("{}: {other:?} in dial phase {phase:?}", g.label()),
        },
    };
    Setup::Call(next, call)
}

/// The epoll_ctl that registers a connected `fd`, if `sock` goes into an
/// epoll instance.
fn register(fd: Fd, sock: Sock) -> Setup<Dial> {
    match sock.epfd {
        Some(epfd) => Setup::Call(
            Dial::Register(fd),
            Syscall::EpollCtl { epfd, fd, interest: EventMask::READ },
        ),
        None => Setup::Up(fd),
    }
}

/// Where a server's listening socket stands: the syscall whose result
/// the next step brings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listen {
    /// Nothing issued: a new or rebooted server.
    Start,
    /// `socket` in flight.
    Socket,
    /// `bind` in flight.
    Bind(Fd),
    /// `listen` in flight.
    Listen(Fd),
}

/// Steps a server's set-up at `phase` once: `socket(TCP)`, `bind(port)`,
/// `listen(backlog)`, then the listening socket.
///
/// # Panics
///
/// On a failed `socket` or `bind`: a modeled kernel never returns one to
/// a server on its own port.
pub fn listen(phase: Listen, port: u16, backlog: u32, ctx: &mut ProcessCtx<'_>) -> Setup<Listen> {
    let (next, call) = match (phase, std::mem::replace(&mut ctx.result, SysResult::Computed)) {
        (Listen::Start, _) => (Listen::Socket, Syscall::Socket(Proto::Tcp)),
        (Listen::Socket, SysResult::NewFd(fd)) => (Listen::Bind(fd), Syscall::Bind { fd, port }),
        (Listen::Bind(fd), SysResult::Done) => {
            (Listen::Listen(fd), Syscall::Listen { fd, backlog })
        }
        (Listen::Listen(fd), _) => return Setup::Up(fd),
        (phase, other) => panic!("{other:?} in listen phase {phase:?} on port {port}"),
    };
    Setup::Call(next, call)
}

/// Where a [`Server`] stands, with its listening socket, then connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// Setting up the listening socket.
    Listen(Listen),
    /// `accept` goes next, once the close of the last connection returns.
    Accept(Fd),
    /// `accept` in flight.
    Accepting(Fd),
    /// `recv` in flight on the connection.
    Recv(Fd, Fd),
    /// Computing the replies to what `recv` read, then sending them.
    Reply(Fd, Fd),
}

/// A server that takes one connection at a time: what it does with the
/// requests it reads and which replies it sends; [`serve`] issues every
/// syscall.
pub trait Server: Process {
    /// The `listen` backlog.
    const BACKLOG: u32;
    /// Messages one `recv` returns at most.
    const MAX_MSGS: usize;

    /// The port it listens on.
    fn port(&self) -> u16;

    /// The server's position.
    fn io(&mut self) -> &mut Serve;

    /// What one `recv` returned at `now` (not an EOF alone): queues the
    /// replies, and returns the instructions computing them takes.
    fn on_requests(&mut self, msgs: Vec<AppMessage>, now: SimTime) -> u64;

    /// The next reply to send at `now`; `None` once all are sent.
    fn reply(&mut self, now: SimTime) -> Option<AppMessage>;

    /// The client closed or reset the connection, which is closed now.
    fn on_close(&mut self) {}
}

/// Steps server `s` once: consumes the last result, returns the next action.
///
/// # Panics
///
/// On a result the sequence does not expect there (a failed `accept`, a
/// `recv` error other than `ECONNRESET`, or what [`listen`] refuses): a
/// modeled kernel never returns one to this sequence.
pub fn serve<S: Server>(s: &mut S, ctx: &mut ProcessCtx<'_>) -> Step {
    let accept = |lfd| (Serve::Accepting(lfd), Syscall::Accept { fd: lfd, accept4: false });
    let recv = |lfd, fd| (Serve::Recv(lfd, fd), Syscall::Recv { fd, max_msgs: S::MAX_MSGS });
    let phase = *s.io();
    let (next, call) = match (phase, &mut ctx.result) {
        (Serve::Listen(l), _) => match listen(l, s.port(), S::BACKLOG, ctx) {
            Setup::Call(l, call) => (Serve::Listen(l), call),
            Setup::Up(lfd) => accept(lfd),
        },
        (Serve::Accept(lfd), _) => accept(lfd),
        (Serve::Accepting(lfd), SysResult::Accepted { fd, .. }) => recv(lfd, *fd),
        (Serve::Recv(lfd, fd), SysResult::Messages { msgs, eof }) if !msgs.is_empty() || !*eof => {
            *s.io() = Serve::Reply(lfd, fd);
            return Step::Compute(s.on_requests(std::mem::take(msgs), ctx.now));
        }
        (Serve::Recv(lfd, fd), SysResult::Messages { .. } | SysResult::Err(Errno::ConnReset)) => {
            s.on_close();
            (Serve::Accept(lfd), Syscall::Close { fd })
        }
        (Serve::Reply(lfd, fd), _) => match s.reply(ctx.now) {
            Some(msg) => (phase, Syscall::Send { fd, msg }),
            None => recv(lfd, fd),
        },
        (phase, other) => panic!("{}: {other:?} in serve phase {phase:?}", s.label()),
    };
    *s.io() = next;
    Step::Syscall(call)
}

diablo_engine::impl_snap_enum!(Dial {
    0 => Start,
    1 => Socket,
    2 => Connect(fd),
    3 => Nonblock(fd),
    4 => Register(fd),
    5 => Close,
});

diablo_engine::impl_snap_enum!(Listen {
    0 => Start,
    1 => Socket,
    2 => Bind(fd),
    3 => Listen(fd),
});

diablo_engine::impl_snap_enum!(Serve {
    0 => Listen(l),
    1 => Accept(lfd),
    2 => Accepting(lfd),
    3 => Recv(lfd, fd),
    4 => Reply(lfd, fd),
});

diablo_engine::impl_snap_struct!(Redial { attempts, rng });
