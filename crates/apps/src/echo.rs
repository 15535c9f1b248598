//! Simple guest applications: TCP/UDP echo servers and clients, plus a
//! CPU-burning spinner. These exercise every syscall path and serve as the
//! building blocks and smoke tests for the paper workloads.

use crate::conn::{self, Dial, Dialer, Listen, Serve, Server, Setup, Sock};
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use std::collections::VecDeque;

/// Message kind used by the echo applications.
pub const ECHO_KIND: u32 = 1;

/// A single-connection TCP echo server: accepts one client at a time and
/// echoes every message back until EOF, then accepts the next client.
#[derive(Debug)]
pub struct TcpEchoServer {
    /// Listening port.
    pub port: u16,
    /// Instructions of "application logic" charged per echoed message.
    pub work_per_msg: u64,
    /// Total messages echoed.
    pub echoed: u64,
    /// Clients fully served (EOF observed).
    pub clients_served: u64,
    state: Serve,
    pending: VecDeque<AppMessage>,
}

impl TcpEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> Self {
        TcpEchoServer {
            port,
            work_per_msg: 2_000,
            echoed: 0,
            clients_served: 0,
            state: Serve::Listen(Listen::Start),
            pending: VecDeque::new(),
        }
    }
}

/// Echoes each message, stamped when it is sent; it has no `reset`, so a
/// crash leaves it dead.
impl Server for TcpEchoServer {
    const BACKLOG: u32 = 64;
    const MAX_MSGS: usize = 16;

    fn port(&self) -> u16 {
        self.port
    }

    fn io(&mut self) -> &mut Serve {
        &mut self.state
    }

    fn on_requests(&mut self, msgs: Vec<AppMessage>, _now: SimTime) -> u64 {
        let n = msgs.len().max(1) as u64;
        self.pending.extend(msgs);
        self.work_per_msg * n
    }

    fn reply(&mut self, now: SimTime) -> Option<AppMessage> {
        let mut msg = self.pending.pop_front()?;
        msg.created_at = now;
        self.echoed += 1;
        Some(msg)
    }

    fn on_close(&mut self) {
        self.clients_served += 1;
    }
}

impl Process for TcpEchoServer {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        conn::serve(self, ctx)
    }
}

/// A TCP echo client: connects, sends `count` messages of `len` bytes
/// (request `i` waits for echo `i`), records round-trip times, closes.
#[derive(Debug)]
pub struct TcpEchoClient {
    /// Server address.
    pub server: SockAddr,
    /// Messages to exchange.
    pub count: u64,
    /// Message payload bytes.
    pub len: u32,
    /// Instructions of client-side work between requests.
    pub think: u64,
    /// Round-trip time of each completed exchange.
    pub rtts: Vec<SimDuration>,
    /// Set when the client finished cleanly.
    pub done: bool,
    state: CliState,
    sent_at: SimTime,
    next_id: u64,
}

/// Where the client stands, with its connection once it is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliState {
    Dial(Dial),
    Think(Fd),
    SendReq(Fd),
    AwaitEcho(Fd),
    Done,
}

impl TcpEchoClient {
    /// Creates a client for `server`, exchanging `count` messages of `len`
    /// bytes.
    pub fn new(server: SockAddr, count: u64, len: u32) -> Self {
        TcpEchoClient {
            server,
            count,
            len,
            think: 5_000,
            rtts: Vec::new(),
            done: false,
            state: CliState::Dial(Dial::Start),
            sent_at: SimTime::ZERO,
            next_id: 0,
        }
    }
}

/// A blocking socket with no failure path: a refused connect panics.
impl Dialer for TcpEchoClient {}

impl Process for TcpEchoClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                CliState::Dial(d) => {
                    let sock = Sock { to: self.server, nonblocking: false, epfd: None };
                    match conn::dial(self, d, sock, ctx) {
                        Setup::Call(d, call) => {
                            self.state = CliState::Dial(d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => {
                            self.state = CliState::Think(fd);
                            continue;
                        }
                    }
                }
                CliState::Think(fd) => {
                    if self.next_id >= self.count {
                        self.state = CliState::Done;
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    self.state = CliState::SendReq(fd);
                    return Step::Compute(self.think);
                }
                CliState::SendReq(fd) => {
                    let msg = AppMessage::new(ECHO_KIND, self.next_id, self.len, ctx.now);
                    self.sent_at = ctx.now;
                    self.next_id += 1;
                    self.state = CliState::AwaitEcho(fd);
                    return Step::Syscall(Syscall::Send { fd, msg });
                }
                CliState::AwaitEcho(fd) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Done) {
                        SysResult::Done => {
                            // Send completed; now wait for the echo.
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 1 });
                        }
                        SysResult::Messages { msgs, .. } => {
                            assert_eq!(msgs.len(), 1, "expected one echo");
                            assert_eq!(msgs[0].id, self.next_id - 1, "echo id mismatch");
                            self.rtts.push(ctx.now.saturating_duration_since(self.sent_at));
                            self.state = CliState::Think(fd);
                            continue;
                        }
                        other => panic!("echo exchange failed: {other:?}"),
                    }
                }
                CliState::Done => {
                    self.done = true;
                    return Step::Exit;
                }
            }
        }
    }
}

/// A UDP echo server: bounces every datagram back to its sender, forever.
#[derive(Debug)]
pub struct UdpEchoServer {
    /// Listening port.
    pub port: u16,
    /// Datagrams echoed.
    pub echoed: u64,
    state: UdpSrvState,
}

/// The syscall in flight, with the socket once it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UdpSrvState {
    Start,
    Socket,
    Bind(Fd),
    Recv(Fd),
    Reply(Fd),
}

impl UdpEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> Self {
        UdpEchoServer { port, echoed: 0, state: UdpSrvState::Start }
    }
}

impl Process for UdpEchoServer {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        let (next, call) = match (self.state, std::mem::replace(&mut ctx.result, SysResult::Done)) {
            (UdpSrvState::Start, _) => (UdpSrvState::Socket, Syscall::Socket(Proto::Udp)),
            (UdpSrvState::Socket, SysResult::NewFd(fd)) => {
                (UdpSrvState::Bind(fd), Syscall::Bind { fd, port: self.port })
            }
            (UdpSrvState::Bind(fd), SysResult::Done) | (UdpSrvState::Reply(fd), _) => {
                (UdpSrvState::Recv(fd), Syscall::RecvFrom { fd })
            }
            (UdpSrvState::Recv(fd), SysResult::Datagram { from, msg }) => {
                self.echoed += 1;
                (UdpSrvState::Reply(fd), Syscall::SendTo { fd, to: from, msg })
            }
            (state, other) => panic!("udp echo server: {other:?} in {state:?}"),
        };
        self.state = next;
        Step::Syscall(call)
    }
}

/// A UDP ping client: sends `count` datagrams (stop-and-wait) and records
/// round-trip times.
#[derive(Debug)]
pub struct UdpPingClient {
    /// Server address.
    pub server: SockAddr,
    /// Datagrams to exchange.
    pub count: u64,
    /// Payload bytes.
    pub len: u32,
    /// Completed round-trip times.
    pub rtts: Vec<SimDuration>,
    /// Finished cleanly.
    pub done: bool,
    state: UdpCliState,
    sent_at: SimTime,
    next_id: u64,
}

/// Where the client stands, with its socket once it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UdpCliState {
    Start,
    Socket,
    Send(Fd),
    Await(Fd),
    Done,
}

impl UdpPingClient {
    /// Creates a client for `server`.
    pub fn new(server: SockAddr, count: u64, len: u32) -> Self {
        UdpPingClient {
            server,
            count,
            len,
            rtts: Vec::new(),
            done: false,
            state: UdpCliState::Start,
            sent_at: SimTime::ZERO,
            next_id: 0,
        }
    }
}

impl Process for UdpPingClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match (self.state, std::mem::replace(&mut ctx.result, SysResult::Computed)) {
                (UdpCliState::Start, _) => {
                    self.state = UdpCliState::Socket;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                (UdpCliState::Socket, SysResult::NewFd(fd)) | (UdpCliState::Send(fd), _) => {
                    if self.next_id >= self.count {
                        self.state = UdpCliState::Done;
                        continue;
                    }
                    let msg = AppMessage::new(ECHO_KIND, self.next_id, self.len, ctx.now);
                    self.sent_at = ctx.now;
                    self.next_id += 1;
                    self.state = UdpCliState::Await(fd);
                    return Step::Syscall(Syscall::SendTo { fd, to: self.server, msg });
                }
                (UdpCliState::Await(fd), SysResult::Done) => {
                    return Step::Syscall(Syscall::RecvFrom { fd });
                }
                (UdpCliState::Await(fd), SysResult::Datagram { msg, .. }) => {
                    assert_eq!(msg.id, self.next_id - 1);
                    self.rtts.push(ctx.now.saturating_duration_since(self.sent_at));
                    self.state = UdpCliState::Send(fd);
                    continue;
                }
                (UdpCliState::Done, _) => {
                    self.done = true;
                    return Step::Exit;
                }
                (state, other) => panic!("udp exchange failed: {other:?} in {state:?}"),
            }
        }
    }
}

/// Burns CPU in fixed bursts for a given number of iterations (a
/// background-load / scheduler-contention generator).
#[derive(Debug)]
pub struct Spinner {
    /// Instructions per burst.
    pub burst: u64,
    /// Bursts remaining (`u64::MAX` ~ forever).
    pub remaining: u64,
    /// Bursts completed.
    pub completed: u64,
}

impl Spinner {
    /// A spinner running `remaining` bursts of `burst` instructions.
    pub fn new(burst: u64, remaining: u64) -> Self {
        Spinner { burst, remaining, completed: 0 }
    }
}

impl Process for Spinner {
    fn step(&mut self, _ctx: &mut ProcessCtx<'_>) -> Step {
        if self.completed > 0 {
            self.remaining -= 1;
        }
        if self.remaining == 0 {
            return Step::Exit;
        }
        self.completed += 1;
        Step::Compute(self.burst)
    }
}

diablo_engine::impl_snap_enum!(CliState {
    0 => Dial(d),
    1 => Think(fd),
    2 => SendReq(fd),
    3 => AwaitEcho(fd),
    4 => Done,
});

diablo_engine::impl_snap_enum!(UdpSrvState {
    0 => Start,
    1 => Socket,
    2 => Bind(fd),
    3 => Recv(fd),
    4 => Reply(fd),
});

diablo_engine::impl_snap_enum!(UdpCliState {
    0 => Start,
    1 => Socket,
    2 => Send(fd),
    3 => Await(fd),
    4 => Done,
});

diablo_engine::impl_persist_fields!(TcpEchoServer {
    echoed,
    clients_served,
    state,
    pending,
    port: config,
    work_per_msg: config,
});
diablo_engine::impl_persist_fields!(TcpEchoClient {
    rtts,
    done,
    state,
    sent_at,
    next_id,
    server: config,
    count: config,
    len: config,
    think: config,
});
diablo_engine::impl_persist_fields!(UdpEchoServer { echoed, state, port: config });
diablo_engine::impl_persist_fields!(UdpPingClient {
    rtts,
    done,
    state,
    sent_at,
    next_id,
    server: config,
    count: config,
    len: config,
});
diablo_engine::impl_persist_fields!(Spinner { remaining, completed, burst: config });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_sane_defaults() {
        let s = TcpEchoServer::new(80);
        assert_eq!(s.port, 80);
        assert_eq!(s.echoed, 0);
        let c = TcpEchoClient::new(SockAddr::default(), 5, 100);
        assert_eq!(c.count, 5);
        assert!(!c.done);
        let sp = Spinner::new(1000, 3);
        assert_eq!(sp.remaining, 3);
    }
}
