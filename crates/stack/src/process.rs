//! Guest processes and the syscall interface.
//!
//! A guest application thread is a [`Process`]: a deterministic state
//! machine that, each time the scheduler runs it, either *computes* for a
//! number of instructions, *issues a syscall*, or *exits*. Blocking
//! syscalls suspend the process until the kernel wakes it; the syscall's
//! result is delivered on the next [`Process::step`] call.
//!
//! This poll-style encoding replaces the real threads of the paper's
//! unmodified guest binaries while preserving exactly the interactions the
//! case studies measure: syscall counts and costs (`accept` vs `accept4`,
//! Figure 15), blocking-socket-per-thread vs `epoll` structure
//! (Figure 6(b)), and scheduler-induced queueing.
//!
//! Memory the threads of one node share (memcached's published epoll fds,
//! the pthread incast client's barrier, a control-plane service gate)
//! belongs to the node's kernel, as a guest's shared memory belongs to
//! its OS: a [`Shared`] block in the kernel's [`Shm`], reached through a
//! typed [`ShmKey`] while a thread steps.

use crate::socket::EventMask;
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::addr::SockAddr;
use diablo_net::payload::AppMessage;
use std::any::Any;
use std::marker::PhantomData;

/// A file descriptor within one simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl core::fmt::Display for Fd {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// A thread id within one simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl core::fmt::Display for Tid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Socket protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Connection-oriented byte stream.
    Tcp,
    /// Datagrams.
    Udp,
}

/// `tcp` or `udp`.
impl std::str::FromStr for Proto {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        match tok {
            "tcp" => Ok(Proto::Tcp),
            "udp" => Ok(Proto::Udp),
            _ => Err(format!("unknown protocol `{tok}` (expected tcp|udp)")),
        }
    }
}

/// The modeled syscall surface (a faithful subset of what memcached and the
/// incast benchmark exercise).
#[derive(Debug, Clone, PartialEq)]
pub enum Syscall {
    /// Create a socket. Result: [`SysResult::NewFd`].
    Socket(Proto),
    /// Bind to a local port. Result: `Done` or `Err`.
    Bind {
        /// Socket to bind.
        fd: Fd,
        /// Local port.
        port: u16,
    },
    /// Mark a TCP socket as accepting; `backlog` bounds the accept queue.
    Listen {
        /// Listening socket.
        fd: Fd,
        /// Maximum queued un-accepted connections.
        backlog: u32,
    },
    /// Accept one connection (blocking unless the socket is nonblocking).
    /// Result: [`SysResult::Accepted`].
    Accept {
        /// Listening socket.
        fd: Fd,
        /// When `true`, behaves like `accept4(..., SOCK_NONBLOCK)`: the new
        /// socket is nonblocking with no extra `fcntl` (memcached 1.4.17).
        /// When `false`, callers needing nonblocking sockets must issue a
        /// separate [`Syscall::SetNonblocking`] (memcached 1.4.15).
        accept4: bool,
    },
    /// Open a TCP connection (blocks until established or refused).
    Connect {
        /// Socket.
        fd: Fd,
        /// Server address.
        to: SockAddr,
    },
    /// Stream-send one application message (blocks while the send buffer is
    /// full unless nonblocking). Result: `Done`.
    Send {
        /// Connected TCP socket.
        fd: Fd,
        /// Message to append to the stream.
        msg: AppMessage,
    },
    /// Receive completed application messages from a stream (blocks until
    /// at least one is available, EOF, or error). Result:
    /// [`SysResult::Messages`].
    Recv {
        /// Connected TCP socket.
        fd: Fd,
        /// Upper bound on messages returned.
        max_msgs: usize,
    },
    /// Send one datagram. Result: `Done`.
    SendTo {
        /// UDP socket.
        fd: Fd,
        /// Destination.
        to: SockAddr,
        /// Payload.
        msg: AppMessage,
    },
    /// Receive one datagram (blocking unless nonblocking). Result:
    /// [`SysResult::Datagram`].
    RecvFrom {
        /// UDP socket.
        fd: Fd,
    },
    /// `fcntl(F_SETFL, O_NONBLOCK)` equivalent.
    SetNonblocking {
        /// Socket.
        fd: Fd,
        /// New nonblocking state.
        on: bool,
    },
    /// Create an epoll instance. Result: [`SysResult::NewFd`].
    EpollCreate,
    /// Register interest in `fd`'s readiness events.
    EpollCtl {
        /// Epoll instance.
        epfd: Fd,
        /// Watched socket.
        fd: Fd,
        /// Interest set.
        interest: EventMask,
    },
    /// Wait for readiness (level-triggered). Result:
    /// [`SysResult::Events`].
    EpollWait {
        /// Epoll instance.
        epfd: Fd,
        /// Maximum events returned.
        max_events: usize,
        /// `None` blocks indefinitely.
        timeout: Option<SimDuration>,
    },
    /// Close a descriptor (half-closes TCP connections).
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// Block until the kernel eventcount at `key` differs from `seen`
    /// (futex-style; pthread condition variables compile to this).
    FutexWait {
        /// Eventcount identifier (app-chosen).
        key: u64,
        /// The counter value the caller last observed; the call returns
        /// immediately if the kernel's counter already differs.
        seen: u64,
    },
    /// Increment the eventcount at `key` and wake all waiters. Result:
    /// [`SysResult::FutexVal`] with the new counter value.
    FutexWake {
        /// Eventcount identifier.
        key: u64,
    },
    /// Sleep for a duration.
    Nanosleep(SimDuration),
    /// Yield the CPU (end of timeslice semantics).
    Yield,
}

impl Syscall {
    /// The syscall's name, for tracing.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Socket(_) => "socket",
            Syscall::Bind { .. } => "bind",
            Syscall::Listen { .. } => "listen",
            Syscall::Accept { accept4: true, .. } => "accept4",
            Syscall::Accept { .. } => "accept",
            Syscall::Connect { .. } => "connect",
            Syscall::Send { .. } => "send",
            Syscall::Recv { .. } => "recv",
            Syscall::SendTo { .. } => "sendto",
            Syscall::RecvFrom { .. } => "recvfrom",
            Syscall::SetNonblocking { .. } => "fcntl",
            Syscall::EpollCreate => "epoll_create",
            Syscall::EpollCtl { .. } => "epoll_ctl",
            Syscall::EpollWait { .. } => "epoll_wait",
            Syscall::Close { .. } => "close",
            Syscall::FutexWait { .. } => "futex_wait",
            Syscall::FutexWake { .. } => "futex_wake",
            Syscall::Nanosleep(_) => "nanosleep",
            Syscall::Yield => "sched_yield",
        }
    }
}

/// Errors returned by syscalls (a compact errno set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// Operation would block on a nonblocking descriptor.
    WouldBlock,
    /// Descriptor is invalid or of the wrong type.
    BadFd,
    /// Address/port already in use.
    AddrInUse,
    /// Connection refused by the peer.
    ConnRefused,
    /// Connection reset.
    ConnReset,
    /// Socket is not connected.
    NotConnected,
    /// Message larger than buffers permit.
    MessageTooBig,
    /// Invalid argument.
    Invalid,
    /// Connection timed out (retransmission gave up).
    TimedOut,
}

impl core::fmt::Display for Errno {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Errno::WouldBlock => "operation would block",
            Errno::BadFd => "bad file descriptor",
            Errno::AddrInUse => "address in use",
            Errno::ConnRefused => "connection refused",
            Errno::ConnReset => "connection reset by peer",
            Errno::NotConnected => "socket not connected",
            Errno::MessageTooBig => "message too long",
            Errno::Invalid => "invalid argument",
            Errno::TimedOut => "connection timed out",
        };
        f.write_str(s)
    }
}

/// Result of the previous step delivered to [`Process::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum SysResult {
    /// First activation: nothing happened yet.
    Started,
    /// A `Compute` burst finished.
    Computed,
    /// The syscall completed with no payload.
    Done,
    /// A descriptor was created.
    NewFd(Fd),
    /// `accept`/`accept4` completed.
    Accepted {
        /// The connected socket.
        fd: Fd,
        /// The peer's address.
        peer: SockAddr,
    },
    /// Stream messages received. `eof` is set when the peer half-closed
    /// (remaining messages, if any, are still delivered first).
    Messages {
        /// Completed in-order application messages.
        msgs: Vec<AppMessage>,
        /// Peer has closed its direction and no further data will arrive.
        eof: bool,
    },
    /// One datagram received.
    Datagram {
        /// Sender address.
        from: SockAddr,
        /// Payload.
        msg: AppMessage,
    },
    /// Epoll readiness events: `(fd, ready-mask)` pairs. Empty on timeout.
    Events(Vec<(Fd, EventMask)>),
    /// Current value of a kernel eventcount.
    FutexVal(u64),
    /// The syscall failed.
    Err(Errno),
}

/// What a process does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute this many instructions of application logic, then step
    /// again. Keep bursts at or below ~100k instructions so interrupts
    /// and preemption keep microsecond-scale latency.
    Compute(u64),
    /// Issue a syscall; the result arrives at the next step.
    Syscall(Syscall),
    /// Terminate the thread.
    Exit,
}

/// Context handed to [`Process::step`].
#[derive(Debug)]
pub struct ProcessCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Result of the previous step.
    pub result: SysResult,
    /// The stepping thread's id.
    pub tid: Tid,
    /// The node's shared memory, lent by the kernel for this step.
    pub shm: &'a mut Shm,
}

/// A guest application thread: a state machine the kernel steps, saves
/// and restores in place (its [`Persist`] impl, usually
/// [`impl_persist_fields!`](diablo_engine::impl_persist_fields)), and
/// downcasts for post-run inspection (its [`Any`] supertrait).
///
/// Implementations must be deterministic: any randomness should come from a
/// [`DetRng`](diablo_engine::rng::DetRng) owned by the process.
pub trait Process: Persist + Any + Send {
    /// Advance the thread: consume the previous step's result and return
    /// the next action.
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step;

    /// Label for diagnostics: the concrete type's name.
    fn label(&self) -> &str {
        std::any::type_name_of_val(self)
    }

    /// Application-level metrics (request latencies, completion counts),
    /// scraped by the kernel under this thread's `proc{tid}.` prefix, with
    /// the node's shared memory to read. Default: no metrics.
    fn visit_metrics(&self, _shm: &Shm, _v: &mut dyn MetricsVisitor) {}

    /// Restart the thread from its initial state after a node crash.
    /// Returns `true` when the process supports being restarted (it will be
    /// scheduled again from scratch on reboot); `false` leaves it dead.
    /// Accumulated metrics should survive the reset — the run's history
    /// happened even if the node forgot it. Shared memory is not the
    /// thread's to reset: each block's [`Shared::reboot`] does that.
    fn reset(&mut self) -> bool {
        false
    }
}

/// A block of memory the threads of one node share. The kernel owns it,
/// persists it once in its own snapshot, and applies its reboot hook.
pub trait Shared: Persist + Any + Send + std::fmt::Debug {
    /// What a reboot of the node does to the block (the crash before it
    /// killed every thread that used it).
    fn reboot(&mut self);
}

/// A typed handle to one block of a node's [`Shm`], returned when the
/// block is created; a process keeps it as configuration.
#[derive(Debug)]
pub struct ShmKey<T> {
    index: usize,
    block: PhantomData<fn() -> T>,
}

impl<T> Clone for ShmKey<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ShmKey<T> {}

/// A node's shared memory: its blocks in creation order.
#[derive(Debug, Default)]
pub struct Shm(Vec<Box<dyn Shared>>);

impl Shm {
    /// Adds `block` and returns its key.
    pub fn share<T: Shared>(&mut self, block: T) -> ShmKey<T> {
        self.0.push(Box::new(block));
        ShmKey { index: self.0.len() - 1, block: PhantomData }
    }

    /// The key of the node's first block of type `T`: how threads meet a
    /// block the node has at most one of, as they meet at a well-known
    /// futex key.
    pub fn find<T: Shared>(&self) -> Option<ShmKey<T>> {
        let index = self.0.iter().position(|b| (&**b as &dyn Any).is::<T>())?;
        Some(ShmKey { index, block: PhantomData })
    }

    /// The block `key` names.
    ///
    /// # Panics
    ///
    /// Panics on a key from another node's memory.
    pub fn get<T: Shared>(&self, key: ShmKey<T>) -> &T {
        let block: &dyn Any = &*self.0[key.index];
        block.downcast_ref().expect("a shm key names a block of its node")
    }

    /// The block `key` names, to write.
    ///
    /// # Panics
    ///
    /// Panics on a key from another node's memory.
    pub fn get_mut<T: Shared>(&mut self, key: ShmKey<T>) -> &mut T {
        let block: &mut dyn Any = &mut *self.0[key.index];
        block.downcast_mut().expect("a shm key names a block of its node")
    }

    /// Applies every block's reboot hook.
    pub(crate) fn reboot(&mut self) {
        self.0.iter_mut().for_each(|b| b.reboot());
    }
}

use diablo_engine::snap::{load_blob, save_blob, Persist, SnapError, SnapReader, SnapWriter};

diablo_engine::impl_snap_struct!(Fd { 0 });
diablo_engine::impl_snap_struct!(Tid { 0 });

diablo_engine::impl_snap_enum!(Proto { 0 => Tcp, 1 => Udp });

diablo_engine::impl_snap_enum!(Errno {
    0 => WouldBlock,
    1 => BadFd,
    2 => AddrInUse,
    3 => ConnRefused,
    4 => ConnReset,
    5 => NotConnected,
    6 => MessageTooBig,
    7 => Invalid,
    8 => TimedOut,
});

diablo_engine::impl_snap_enum!(Syscall {
    0 => Socket(proto),
    1 => Bind { fd, port },
    2 => Listen { fd, backlog },
    3 => Accept { fd, accept4 },
    4 => Connect { fd, to },
    5 => Send { fd, msg },
    6 => Recv { fd, max_msgs },
    7 => SendTo { fd, to, msg },
    8 => RecvFrom { fd },
    9 => SetNonblocking { fd, on },
    10 => EpollCreate,
    11 => EpollCtl { epfd, fd, interest },
    12 => EpollWait { epfd, max_events, timeout },
    13 => Close { fd },
    14 => FutexWait { key, seen },
    15 => FutexWake { key },
    16 => Nanosleep(dur),
    17 => Yield,
});

diablo_engine::impl_snap_enum!(SysResult {
    0 => Started,
    1 => Computed,
    2 => Done,
    3 => NewFd(fd),
    4 => Accepted { fd, peer },
    5 => Messages { msgs, eof },
    6 => Datagram { from, msg },
    7 => Events(events),
    8 => FutexVal(val),
    9 => Err(errno),
});

// A guest process rides its kernel slot as a blob; the rebuilt process
// must consume exactly what it wrote.
impl Persist for Box<dyn Process> {
    fn save_state(&self, w: &mut SnapWriter) {
        save_blob(&**self, w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let label = self.label().to_string();
        load_blob(&mut **self, format_args!("process '{label}'"), r)
    }
}

// The block count is the rebuilt node's; each block is restored in place.
impl Persist for Shm {
    fn save_state(&self, w: &mut SnapWriter) {
        w.put_len(self.0.len());
        self.0.iter().for_each(|b| b.save_state(w));
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len()?;
        if n != self.0.len() {
            return Err(SnapError::Malformed(format!(
                "snapshot has {n} shared blocks, the rebuilt node {}",
                self.0.len()
            )));
        }
        self.0.iter_mut().try_for_each(|b| b.load_state(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls() {
        assert_eq!(Fd(3).to_string(), "fd3");
        assert_eq!(Tid(9).to_string(), "tid9");
        assert_eq!(Errno::WouldBlock.to_string(), "operation would block");
    }

    #[test]
    fn step_equality() {
        assert_eq!(Step::Compute(5), Step::Compute(5));
        assert_ne!(Step::Compute(5), Step::Exit);
    }
}
