//! Simple guest applications: TCP/UDP echo servers and clients, plus a
//! CPU-burning spinner. These exercise every syscall path and serve as the
//! building blocks and smoke tests for the paper workloads.

use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
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
    state: SrvState,
    pending: VecDeque<AppMessage>,
    listen_fd: Option<Fd>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrvState {
    Start,
    Socketed,
    Bound,
    Listening,
    Accepting,
    Recv(Fd),
    Work(Fd),
    Send(Fd),
    Closing(Fd),
}

impl TcpEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> Self {
        TcpEchoServer {
            port,
            work_per_msg: 2_000,
            echoed: 0,
            clients_served: 0,
            state: SrvState::Start,
            pending: VecDeque::new(),
            listen_fd: None,
        }
    }
}

impl Process for TcpEchoServer {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                SrvState::Start => {
                    self.state = SrvState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                SrvState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else {
                        panic!("socket failed: {:?}", ctx.result)
                    };
                    self.listen_fd = Some(fd);
                    self.state = SrvState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.port });
                }
                SrvState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = SrvState::Listening;
                    return Step::Syscall(Syscall::Listen {
                        fd: self.listen_fd.expect("no listen fd"),
                        backlog: 64,
                    });
                }
                SrvState::Listening => {
                    self.state = SrvState::Accepting;
                    return Step::Syscall(Syscall::Accept {
                        fd: self.listen_fd.expect("no listen fd"),
                        accept4: false,
                    });
                }
                SrvState::Accepting => {
                    let SysResult::Accepted { fd, .. } = ctx.result else {
                        panic!("accept failed: {:?}", ctx.result)
                    };
                    self.state = SrvState::Recv(fd);
                    return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 });
                }
                SrvState::Recv(fd) => match std::mem::replace(&mut ctx.result, SysResult::Done) {
                    SysResult::Messages { msgs, eof } => {
                        self.pending.extend(msgs);
                        if self.pending.is_empty() && eof {
                            self.state = SrvState::Closing(fd);
                            continue;
                        }
                        self.state = SrvState::Work(fd);
                        return Step::Compute(self.work_per_msg * self.pending.len().max(1) as u64);
                    }
                    SysResult::Err(Errno::ConnReset) => {
                        self.state = SrvState::Closing(fd);
                        continue;
                    }
                    other => panic!("recv failed: {other:?}"),
                },
                SrvState::Work(fd) => {
                    self.state = SrvState::Send(fd);
                    continue;
                }
                SrvState::Send(fd) => match self.pending.pop_front() {
                    Some(mut msg) => {
                        msg.created_at = ctx.now;
                        self.echoed += 1;
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    None => {
                        self.state = SrvState::Recv(fd);
                        return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 });
                    }
                },
                SrvState::Closing(fd) => {
                    self.clients_served += 1;
                    self.state = SrvState::Listening;
                    return Step::Syscall(Syscall::Close { fd });
                }
            }
        }
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
    fd: Option<Fd>,
    sent_at: SimTime,
    next_id: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliState {
    Start,
    Socketed,
    Connecting,
    Think,
    SendReq,
    AwaitEcho,
    Close,
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
            state: CliState::Start,
            fd: None,
            sent_at: SimTime::ZERO,
            next_id: 0,
        }
    }
}

impl Process for TcpEchoClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                CliState::Start => {
                    self.state = CliState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                CliState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else {
                        panic!("socket failed: {:?}", ctx.result)
                    };
                    self.fd = Some(fd);
                    self.state = CliState::Connecting;
                    return Step::Syscall(Syscall::Connect { fd, to: self.server });
                }
                CliState::Connecting => {
                    assert_eq!(ctx.result, SysResult::Done, "connect failed: {:?}", ctx.result);
                    self.state = CliState::Think;
                    continue;
                }
                CliState::Think => {
                    if self.next_id >= self.count {
                        self.state = CliState::Close;
                        continue;
                    }
                    self.state = CliState::SendReq;
                    return Step::Compute(self.think);
                }
                CliState::SendReq => {
                    let msg = AppMessage::new(ECHO_KIND, self.next_id, self.len, ctx.now);
                    self.sent_at = ctx.now;
                    self.next_id += 1;
                    self.state = CliState::AwaitEcho;
                    return Step::Syscall(Syscall::Send { fd: self.fd.expect("no fd"), msg });
                }
                CliState::AwaitEcho => {
                    match std::mem::replace(&mut ctx.result, SysResult::Done) {
                        SysResult::Done => {
                            // Send completed; now wait for the echo.
                            return Step::Syscall(Syscall::Recv {
                                fd: self.fd.expect("no fd"),
                                max_msgs: 1,
                            });
                        }
                        SysResult::Messages { msgs, .. } => {
                            assert_eq!(msgs.len(), 1, "expected one echo");
                            assert_eq!(msgs[0].id, self.next_id - 1, "echo id mismatch");
                            self.rtts.push(ctx.now.saturating_duration_since(self.sent_at));
                            self.state = CliState::Think;
                            continue;
                        }
                        other => panic!("echo exchange failed: {other:?}"),
                    }
                }
                CliState::Close => {
                    self.state = CliState::Done;
                    return Step::Syscall(Syscall::Close { fd: self.fd.expect("no fd") });
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
    fd: Option<Fd>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UdpSrvState {
    Start,
    Socketed,
    Bound,
    Recv,
    Reply(SockAddr),
}

impl UdpEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> Self {
        UdpEchoServer { port, echoed: 0, state: UdpSrvState::Start, fd: None }
    }
}

impl Process for UdpEchoServer {
    // The state-machine loop idiom is shared across all guest processes
    // even where this particular machine returns from every arm.
    #[allow(clippy::never_loop)]
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                UdpSrvState::Start => {
                    self.state = UdpSrvState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                UdpSrvState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else {
                        panic!("socket failed: {:?}", ctx.result)
                    };
                    self.fd = Some(fd);
                    self.state = UdpSrvState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.port });
                }
                UdpSrvState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = UdpSrvState::Recv;
                    return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                }
                UdpSrvState::Recv => {
                    let SysResult::Datagram { from, msg } =
                        std::mem::replace(&mut ctx.result, SysResult::Done)
                    else {
                        panic!("recvfrom failed")
                    };
                    self.state = UdpSrvState::Reply(from);
                    self.echoed += 1;
                    return Step::Syscall(Syscall::SendTo {
                        fd: self.fd.expect("no fd"),
                        to: from,
                        msg,
                    });
                }
                UdpSrvState::Reply(_) => {
                    self.state = UdpSrvState::Recv;
                    return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                }
            }
        }
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
    fd: Option<Fd>,
    sent_at: SimTime,
    next_id: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UdpCliState {
    Start,
    Socketed,
    Send,
    Await,
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
            fd: None,
            sent_at: SimTime::ZERO,
            next_id: 0,
        }
    }
}

impl Process for UdpPingClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                UdpCliState::Start => {
                    self.state = UdpCliState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                UdpCliState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else {
                        panic!("socket failed: {:?}", ctx.result)
                    };
                    self.fd = Some(fd);
                    self.state = UdpCliState::Send;
                    continue;
                }
                UdpCliState::Send => {
                    if self.next_id >= self.count {
                        self.state = UdpCliState::Done;
                        continue;
                    }
                    let msg = AppMessage::new(ECHO_KIND, self.next_id, self.len, ctx.now);
                    self.sent_at = ctx.now;
                    self.next_id += 1;
                    self.state = UdpCliState::Await;
                    return Step::Syscall(Syscall::SendTo {
                        fd: self.fd.expect("no fd"),
                        to: self.server,
                        msg,
                    });
                }
                UdpCliState::Await => match std::mem::replace(&mut ctx.result, SysResult::Done) {
                    SysResult::Done => {
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    SysResult::Datagram { msg, .. } => {
                        assert_eq!(msg.id, self.next_id - 1);
                        self.rtts.push(ctx.now.saturating_duration_since(self.sent_at));
                        self.state = UdpCliState::Send;
                        continue;
                    }
                    other => panic!("udp exchange failed: {other:?}"),
                },
                UdpCliState::Done => {
                    self.done = true;
                    return Step::Exit;
                }
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

diablo_engine::impl_snap_enum!(SrvState {
    0 => Start,
    1 => Socketed,
    2 => Bound,
    3 => Listening,
    4 => Accepting,
    5 => Recv(fd),
    6 => Work(fd),
    7 => Send(fd),
    8 => Closing(fd),
});

diablo_engine::impl_snap_enum!(CliState {
    0 => Start,
    1 => Socketed,
    2 => Connecting,
    3 => Think,
    4 => SendReq,
    5 => AwaitEcho,
    6 => Close,
    7 => Done,
});

diablo_engine::impl_snap_enum!(UdpSrvState {
    0 => Start,
    1 => Socketed,
    2 => Bound,
    3 => Recv,
    4 => Reply(from),
});

diablo_engine::impl_snap_enum!(UdpCliState {
    0 => Start,
    1 => Socketed,
    2 => Send,
    3 => Await,
    4 => Done,
});

diablo_engine::impl_persist_fields!(TcpEchoServer {
    echoed,
    clients_served,
    state,
    pending,
    listen_fd,
    port: config,
    work_per_msg: config,
});
diablo_engine::impl_persist_fields!(TcpEchoClient {
    rtts,
    done,
    state,
    fd,
    sent_at,
    next_id,
    server: config,
    count: config,
    len: config,
    think: config,
});
diablo_engine::impl_persist_fields!(UdpEchoServer { echoed, state, fd, port: config });
diablo_engine::impl_persist_fields!(UdpPingClient {
    rtts,
    done,
    state,
    fd,
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
