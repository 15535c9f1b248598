//! The TCP Incast benchmark (§4.1).
//!
//! A client fetches a fixed block (256 KB in the paper) striped over `N`
//! servers: each iteration it requests `block/N` bytes from every server
//! and waits for *all* fragments before starting the next iteration — the
//! synchronized-read pattern of scale-out storage. As `N` grows past the
//! switch's ability to buffer the synchronized responses, application
//! goodput collapses.
//!
//! Two client implementations mirror the paper's comparison (§4.1,
//! Figure 6(b)):
//!
//! * [`IncastMaster`] + [`IncastWorker`] — the original benchmark's
//!   *pthread* structure: one blocking-socket thread per server plus a
//!   coordinator, synchronized through futex eventcounts (what pthread
//!   barriers compile to). Costs: per-thread syscalls, wakeups and context
//!   switches.
//! * [`IncastEpollClient`] — a single thread multiplexing nonblocking
//!   sockets with `epoll`, like modern WSC applications.
//!
//! Both clients connect, and reconnect after a transport failure, through
//! the one dial of [`crate::conn`]: a worker's socket is blocking, the
//! epoll client's nonblocking and, when it redials, registered with its
//! epoll instance. The server listens through [`conn::listen`].
//!
//! Responses are streamed in 32 KB application chunks so socket-buffer
//! backpressure behaves like a real `write()` loop.

use crate::arrival::Admission;
use crate::conn::{self, Dial, Dialer, Listen, Redial, Setup, Sock};
use crate::failure::FailureStats;
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::rng::DetRng;
use diablo_engine::snap::SnapError;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{
    Errno, Fd, Process, ProcessCtx, Shared, Shm, ShmKey, Step, SysResult, Syscall,
};
use diablo_stack::socket::EventMask;
use std::collections::VecDeque;

/// Request message kind.
pub const KIND_REQ: u32 = 10;
/// Response-chunk message kind.
pub const KIND_RESP: u32 = 11;
/// Server port.
pub const INCAST_PORT: u16 = 5001;
/// Application write chunk (bytes per `send`).
pub const CHUNK: u32 = 32 * 1024;
/// Futex key: iteration start signal.
const FUTEX_START: u64 = 0xA;
/// Futex key: iteration completion signal.
const FUTEX_DONE: u64 = 0xB;

/// Per-request instruction cost of server-side application logic.
const SERVER_WORK: u64 = 3_000;

/// The request for iteration `iter`'s `fragment` bytes, sent at `now`.
fn request(iter: u64, fragment: u32, now: SimTime) -> AppMessage {
    AppMessage::new(KIND_REQ, iter, 32, now).with_arg0(fragment as u64)
}

/// The memory the incast client threads on one node share: a barrier
/// over the workers that, like a `pthread_barrier_t`, holds its count.
#[derive(Debug)]
pub struct IncastShared {
    /// Workers in the barrier.
    pub workers: usize,
    /// Workers still owing a fragment this iteration (or still connecting
    /// during setup).
    pub remaining: usize,
    /// Set by the master when all iterations are done.
    pub finished: bool,
}

impl IncastShared {
    /// A barrier over `workers` workers, none connected yet.
    pub fn new(workers: usize) -> Self {
        IncastShared { workers, remaining: workers, finished: false }
    }
}

/// The crash killed the whole thread group: the barrier starts over.
impl Shared for IncastShared {
    fn reboot(&mut self) {
        *self = IncastShared::new(self.workers);
    }
}

// ====================================================================
// Server
// ====================================================================

/// The incast storage server: accepts one connection at a time; for every
/// request of `arg0` bytes it streams back that many bytes in [`CHUNK`]
/// pieces.
#[derive(Debug)]
pub struct IncastServer {
    /// Listening port.
    pub port: u16,
    /// Requests served.
    pub served: u64,
    state: SrvState,
    to_send: VecDeque<AppMessage>,
}

/// Where the server stands, with its listening socket once it has one,
/// then the connection it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrvState {
    Listen(Listen),
    /// `accept` goes next.
    Accept(Fd),
    /// `accept` in flight.
    Accepting(Fd),
    Recv(Fd, Fd),
    Respond(Fd, Fd),
}

impl IncastServer {
    /// Creates a server on [`INCAST_PORT`].
    pub fn new() -> Self {
        IncastServer {
            port: INCAST_PORT,
            served: 0,
            state: SrvState::Listen(Listen::Start),
            to_send: VecDeque::new(),
        }
    }
}

impl Default for IncastServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for IncastServer {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                SrvState::Listen(l) => match conn::listen(l, self.port, 8, ctx) {
                    Setup::Call(l, call) => {
                        self.state = SrvState::Listen(l);
                        return Step::Syscall(call);
                    }
                    Setup::Up(lfd) => {
                        self.state = SrvState::Accept(lfd);
                        continue;
                    }
                },
                SrvState::Accept(lfd) => {
                    self.state = SrvState::Accepting(lfd);
                    return Step::Syscall(Syscall::Accept { fd: lfd, accept4: false });
                }
                SrvState::Accepting(lfd) => {
                    let SysResult::Accepted { fd, .. } = ctx.result else {
                        panic!("accept failed: {:?}", ctx.result)
                    };
                    self.state = SrvState::Recv(lfd, fd);
                    return Step::Syscall(Syscall::Recv { fd, max_msgs: 4 });
                }
                SrvState::Recv(lfd, fd) => {
                    let closed = match std::mem::replace(&mut ctx.result, SysResult::Done) {
                        SysResult::Messages { msgs, eof } => {
                            for req in &msgs {
                                assert_eq!(req.kind, KIND_REQ);
                                let mut left = req.arg0 as u32;
                                let mut chunk_idx = 0u64;
                                while left > 0 {
                                    let this = left.min(CHUNK);
                                    let m = AppMessage::new(KIND_RESP, req.id, this, ctx.now)
                                        .with_arg0(chunk_idx);
                                    self.to_send.push_back(m);
                                    left -= this;
                                    chunk_idx += 1;
                                }
                                self.served += 1;
                            }
                            msgs.is_empty() && eof && self.to_send.is_empty()
                        }
                        SysResult::Err(Errno::ConnReset) => true,
                        other => panic!("server recv failed: {other:?}"),
                    };
                    if closed {
                        self.state = SrvState::Accept(lfd);
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    self.state = SrvState::Respond(lfd, fd);
                    return Step::Compute(SERVER_WORK);
                }
                SrvState::Respond(lfd, fd) => match self.to_send.pop_front() {
                    Some(msg) => {
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    None => {
                        self.state = SrvState::Recv(lfd, fd);
                        return Step::Syscall(Syscall::Recv { fd, max_msgs: 4 });
                    }
                },
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        self.state = SrvState::Listen(Listen::Start);
        self.to_send.clear();
        true
    }
}

// ====================================================================
// pthread-style client: master + one worker thread per server
// ====================================================================

/// One blocking-socket worker thread of the pthread-style incast client.
///
/// Transport failures (connection refused, reset, or a retransmission
/// timeout surfacing `ETIMEDOUT` during a fault) are not fatal: the worker
/// closes the broken socket, backs off exponentially, reconnects, and
/// re-issues the interrupted request, reporting the whole episode in
/// [`IncastWorker::failure`].
#[derive(Debug)]
pub struct IncastWorker {
    /// The server this worker reads from.
    pub server: SockAddr,
    /// Fragment bytes requested per iteration (`block / N`).
    pub fragment: u32,
    /// Failure/recovery accounting.
    pub failure: FailureStats,
    shared: ShmKey<IncastShared>,
    state: WrkState,
    start_seen: u64,
    iter: u64,
    got_bytes: u32,
    /// Reconnect backoff, its jitter seeded from the target server's
    /// address so the per-server workers of a mass failure back off
    /// de-correlated.
    redial: Redial,
    /// A request was interrupted; re-send it once reconnected.
    resend: bool,
}

/// Where the worker stands, with its connection once it is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WrkState {
    Dial(Dial),
    WaitStart(Fd),
    SendReq(Fd),
    RecvResp(Fd),
    Done,
}

impl IncastWorker {
    /// Creates a worker fetching `fragment` bytes per iteration.
    pub fn new(server: SockAddr, fragment: u32, shared: ShmKey<IncastShared>) -> Self {
        IncastWorker {
            fragment,
            failure: FailureStats::default(),
            shared,
            state: WrkState::Dial(Dial::Start),
            start_seen: 0,
            iter: 0,
            got_bytes: 0,
            redial: Redial::new(DetRng::new(u64::from(server.node.0)).derive(0xBACC0FF)),
            resend: false,
            server,
        }
    }

    /// Enters the reconnect path after the request on `fd` failed.
    fn fail(&mut self, fd: Fd, now: SimTime) -> Step {
        self.resend = true;
        let (d, call) = self.redial.fail(&mut self.failure, fd, now);
        self.state = WrkState::Dial(d);
        Step::Syscall(call)
    }

    /// The connection is up, or this iteration's fragment is in: waits
    /// for the next iteration on `fd`; returns `true` for the last worker
    /// to arrive, which wakes the master.
    fn arrive(&mut self, fd: Fd, ctx: &mut ProcessCtx<'_>) -> bool {
        self.failure.on_success(ctx.now);
        self.redial.attempts = 0;
        self.resend = false;
        self.state = WrkState::WaitStart(fd);
        self.finish_one(ctx.shm)
    }

    /// Decrements the shared countdown; returns `true` for the last
    /// finisher.
    fn finish_one(&self, shm: &mut Shm) -> bool {
        let s = shm.get_mut(self.shared);
        s.remaining -= 1;
        s.remaining == 0
    }
}

impl Dialer for IncastWorker {
    fn retry(&mut self) -> Option<(&mut FailureStats, &mut Redial)> {
        Some((&mut self.failure, &mut self.redial))
    }

    fn on_connect(&mut self, _: SimTime) {
        if self.redial.attempts > 0 {
            self.failure.reconnects += 1;
        }
    }
}

impl Process for IncastWorker {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                WrkState::Dial(d) => {
                    let sock = Sock { to: self.server, nonblocking: false, epfd: None };
                    let fd = match conn::dial(self, d, sock, ctx) {
                        Setup::Call(d, call) => {
                            self.state = WrkState::Dial(d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => fd,
                    };
                    if self.resend {
                        // Re-issue the interrupted request on the fresh
                        // connection.
                        self.failure.retried += 1;
                        self.got_bytes = 0;
                        self.state = WrkState::RecvResp(fd);
                        let msg = request(self.iter - 1, self.fragment, ctx.now);
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    if self.arrive(fd, ctx) {
                        return Step::Syscall(Syscall::FutexWake { key: FUTEX_DONE });
                    }
                    continue;
                }
                WrkState::WaitStart(fd) => {
                    if ctx.shm.get(self.shared).finished {
                        self.state = WrkState::Done;
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    self.state = WrkState::SendReq(fd);
                    return Step::Syscall(Syscall::FutexWait {
                        key: FUTEX_START,
                        seen: self.start_seen,
                    });
                }
                WrkState::SendReq(fd) => {
                    if let SysResult::FutexVal(v) = ctx.result {
                        self.start_seen = v;
                    }
                    if ctx.shm.get(self.shared).finished {
                        self.state = WrkState::Done;
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    let msg = request(self.iter, self.fragment, ctx.now);
                    self.iter += 1;
                    self.got_bytes = 0;
                    self.state = WrkState::RecvResp(fd);
                    return Step::Syscall(Syscall::Send { fd, msg });
                }
                WrkState::RecvResp(fd) => {
                    let (msgs, eof) = match std::mem::replace(&mut ctx.result, SysResult::Done) {
                        SysResult::Done => {
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 })
                        }
                        SysResult::Messages { msgs, eof } => (msgs, eof),
                        SysResult::Err(_) => return self.fail(fd, ctx.now),
                        other => panic!("worker recv failed: {other:?}"),
                    };
                    for m in &msgs {
                        assert_eq!(m.kind, KIND_RESP);
                        self.got_bytes += m.len;
                    }
                    if self.got_bytes >= self.fragment {
                        if self.arrive(fd, ctx) {
                            return Step::Syscall(Syscall::FutexWake { key: FUTEX_DONE });
                        }
                        continue;
                    }
                    if eof {
                        if ctx.shm.get(self.shared).finished {
                            self.state = WrkState::Done;
                            return Step::Syscall(Syscall::Close { fd });
                        }
                        // The server vanished mid-response: reconnect and
                        // re-request the fragment.
                        return self.fail(fd, ctx.now);
                    }
                    return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 });
                }
                WrkState::Done => return Step::Exit,
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.failure.visit(v);
    }

    fn reset(&mut self) -> bool {
        // The node crashed mid-retry: the request dies with the node, a
        // distinct fate from exhausting the retry budget.
        if self.failure.failing() {
            self.failure.on_crash_lost();
        }
        self.state = WrkState::Dial(Dial::Start);
        self.start_seen = 0;
        self.iter = 0;
        self.got_bytes = 0;
        self.redial.attempts = 0;
        self.resend = false;
        true
    }
}

/// The pthread-style client coordinator: releases the worker barrier each
/// iteration and records per-iteration block completion times.
#[derive(Debug)]
pub struct IncastMaster {
    /// Iterations to run.
    pub iterations: u64,
    /// Wall-clock duration of each completed iteration.
    pub iteration_times: Vec<SimDuration>,
    /// All iterations completed.
    pub done: bool,
    shared: ShmKey<IncastShared>,
    state: MstState,
    done_seen: u64,
    iter_started: SimTime,
    iter: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MstState {
    AwaitConnects,
    StartIter,
    AwaitDone,
    Finish,
    Exit,
}

impl IncastMaster {
    /// Creates a coordinator running `iterations` over the workers of the
    /// `shared` barrier.
    pub fn new(iterations: u64, shared: ShmKey<IncastShared>) -> Self {
        IncastMaster {
            iterations,
            iteration_times: Vec::new(),
            done: false,
            shared,
            state: MstState::AwaitConnects,
            done_seen: 0,
            iter_started: SimTime::ZERO,
            iter: 0,
        }
    }

    /// Mean goodput in bits per second for a striped block of
    /// `block_bytes` per iteration.
    pub fn goodput_bps(&self, block_bytes: u64) -> f64 {
        let total: f64 = self.iteration_times.iter().map(|d| d.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            (block_bytes * self.iteration_times.len() as u64) as f64 * 8.0 / total
        }
    }
}

impl Process for IncastMaster {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                MstState::AwaitConnects => {
                    self.state = MstState::StartIter;
                    return Step::Syscall(Syscall::FutexWait {
                        key: FUTEX_DONE,
                        seen: self.done_seen,
                    });
                }
                MstState::StartIter => {
                    if let SysResult::FutexVal(v) = ctx.result {
                        self.done_seen = v;
                    }
                    if self.iter > 0 {
                        self.iteration_times
                            .push(ctx.now.saturating_duration_since(self.iter_started));
                    }
                    if self.iter >= self.iterations {
                        self.state = MstState::Finish;
                        continue;
                    }
                    self.iter += 1;
                    let barrier = ctx.shm.get_mut(self.shared);
                    barrier.remaining = barrier.workers;
                    self.iter_started = ctx.now;
                    self.state = MstState::AwaitDone;
                    return Step::Syscall(Syscall::FutexWake { key: FUTEX_START });
                }
                MstState::AwaitDone => {
                    self.state = MstState::StartIter;
                    return Step::Syscall(Syscall::FutexWait {
                        key: FUTEX_DONE,
                        seen: self.done_seen,
                    });
                }
                MstState::Finish => {
                    ctx.shm.get_mut(self.shared).finished = true;
                    self.done = true;
                    self.state = MstState::Exit;
                    return Step::Syscall(Syscall::FutexWake { key: FUTEX_START });
                }
                MstState::Exit => return Step::Exit,
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("iterations_completed", self.iteration_times.len() as u64);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
    }

    fn reset(&mut self) -> bool {
        self.state = MstState::AwaitConnects;
        self.done_seen = 0;
        self.iter = 0;
        self.iter_started = SimTime::ZERO;
        self.done = false;
        true
    }
}

// ====================================================================
// epoll client
// ====================================================================

/// Single-threaded incast client multiplexing all servers with `epoll`,
/// like memcached-era WSC software (Figure 6(b)'s `epoll` curves).
///
/// Like [`IncastWorker`], transport failures are survivable: the broken
/// connection is closed, re-established after an exponential backoff, and
/// the interrupted fragment is re-requested. An optional
/// [`request_deadline`](IncastEpollClient::request_deadline) bounds how
/// long the client waits for readable data before declaring the slowest
/// outstanding connection failed.
#[derive(Debug)]
pub struct IncastEpollClient {
    /// Servers to stripe over.
    pub servers: Vec<SockAddr>,
    /// Fragment bytes per server per iteration.
    pub fragment: u32,
    /// Iterations to run.
    pub iterations: u64,
    /// Wall-clock duration of each completed iteration.
    pub iteration_times: Vec<SimDuration>,
    /// All iterations completed.
    pub done: bool,
    /// Failure/recovery accounting.
    pub failure: FailureStats,
    /// Per-request deadline for `epoll_wait`; `None` waits forever.
    pub request_deadline: Option<SimDuration>,
    state: EpState,
    fds: Vec<Fd>,
    got: Vec<u32>,
    send_idx: usize,
    ready_queue: VecDeque<Fd>,
    completed: usize,
    iter: u64,
    iter_started: SimTime,
    /// Reconnect backoff, its jitter seeded from the server list so
    /// repeated reconnect rounds against a flapping fabric don't stay
    /// phase-locked.
    redial: Redial,
    /// Index of the connection last torn down: the one being
    /// re-established, then the one whose fragment ends the failure.
    reconn_idx: usize,
    /// When iterations start: back to back (closed loop), or on the
    /// arrival schedule with a window of one (open loop: an arrival
    /// landing while an iteration is in flight is shed, `iterations` is
    /// ignored, and the SLO is over iteration times).
    pub admission: Admission,
}

/// Where the client stands, with its epoll instance once it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpState {
    /// Set-up: dial the next server, or create the epoll instance once
    /// every server is connected.
    Start,
    /// Set-up: dialing `servers[fds.len()]`.
    Dial(Dial),
    /// `epoll_create` in flight.
    EpollCreate,
    /// Registering `fds[i..]` with the epoll instance.
    Register(Fd, usize),
    SendNext(Fd),
    Wait(Fd),
    Drain(Fd),
    /// Re-establishing connection `reconn_idx`: the socket goes into the
    /// epoll instance.
    Redial(Fd, Dial),
    /// The interrupted request, re-sent on the new connection, in flight.
    Resent(Fd),
    /// Between iterations: start the next, sleep until it is due (the
    /// sleep may be in flight), or close down.
    Pace(Fd),
    Closing(usize),
    Done,
}

impl IncastEpollClient {
    /// Creates an epoll client striping `fragment` bytes over `servers`.
    pub fn new(servers: Vec<SockAddr>, fragment: u32, iterations: u64) -> Self {
        let seed = servers.first().map_or(0, |s| u64::from(s.node.0));
        IncastEpollClient {
            redial: Redial::new(DetRng::new(seed).derive(0xBACC0FF)),
            servers,
            fragment,
            iterations,
            iteration_times: Vec::new(),
            done: false,
            failure: FailureStats::default(),
            request_deadline: None,
            state: EpState::Start,
            fds: Vec::new(),
            got: Vec::new(),
            send_idx: 0,
            ready_queue: VecDeque::new(),
            completed: 0,
            iter: 0,
            iter_started: SimTime::ZERO,
            reconn_idx: 0,
            admission: Admission::default(),
        }
    }

    /// `true` while an iteration is in flight.
    fn busy(&self) -> bool {
        matches!(
            self.state,
            EpState::SendNext(_)
                | EpState::Wait(_)
                | EpState::Drain(_)
                | EpState::Redial(..)
                | EpState::Resent(_)
        )
    }

    /// Enters the reconnect path for connection `idx`, discarding any
    /// queued readiness for its (now doomed) fd.
    fn fail_conn(&mut self, epfd: Fd, now: SimTime, idx: usize) -> Step {
        let fd = self.fds[idx];
        self.ready_queue.retain(|f| *f != fd);
        self.reconn_idx = idx;
        let (d, call) = self.redial.fail(&mut self.failure, fd, now);
        self.state = EpState::Redial(epfd, d);
        Step::Syscall(call)
    }

    /// Starts the next iteration's sends.
    fn begin_iteration(&mut self, epfd: Fd, now: SimTime) {
        self.iter += 1;
        self.iter_started = now;
        self.send_idx = 0;
        self.state = EpState::SendNext(epfd);
    }

    /// Mean goodput in bits per second for the whole striped block.
    pub fn goodput_bps(&self) -> f64 {
        let block = self.fragment as u64 * self.servers.len() as u64;
        let total: f64 = self.iteration_times.iter().map(|d| d.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            (block * self.iteration_times.len() as u64) as f64 * 8.0 / total
        }
    }

    fn fd_index(&self, fd: Fd) -> usize {
        self.fds.iter().position(|f| *f == fd).expect("unknown fd")
    }

    /// Refuses a restored connection table, index or dial the rebuilt
    /// server list cannot hold: it would decode, then panic at the next
    /// step.
    fn check_indices(&mut self) -> Result<(), SnapError> {
        let (servers, fds) = (self.servers.len(), self.fds.len());
        let (registered, closing) = match self.state {
            EpState::Register(_, i) => (i, 0),
            EpState::Closing(i) => (0, i),
            _ => (0, 0),
        };
        let checks = [
            (self.got.len() == fds && fds <= servers, "connection table"),
            (!matches!(self.state, EpState::Dial(_)) || fds < servers, "set-up dial"),
            (registered <= fds, "register index"),
            (self.send_idx <= fds, "send index"),
            (self.reconn_idx < fds.max(1), "reconnect index"),
            (!matches!(self.state, EpState::Redial(..)) || self.reconn_idx < fds, "redial"),
            (closing <= fds, "close index"),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, what)) => Err(SnapError::Malformed(format!(
                "{what} of an incast client with {servers} servers and {fds} connections"
            ))),
            None => Ok(()),
        }
    }
}

impl Dialer for IncastEpollClient {
    fn retry(&mut self) -> Option<(&mut FailureStats, &mut Redial)> {
        Some((&mut self.failure, &mut self.redial))
    }

    fn on_connect(&mut self, now: SimTime) {
        if self.redial.attempts == 0 {
            return;
        }
        self.failure.reconnects += 1;
        if matches!(self.state, EpState::Dial(_)) {
            // A set-up connect ends its failure here; a redialed one when
            // its re-requested fragment lands.
            self.failure.on_success(now);
            self.redial.attempts = 0;
        }
    }
}

impl Process for IncastEpollClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                EpState::Start => {
                    if self.fds.len() == self.servers.len() {
                        self.state = EpState::EpollCreate;
                        return Step::Syscall(Syscall::EpollCreate);
                    }
                    self.state = EpState::Dial(Dial::Start);
                    continue;
                }
                EpState::Dial(d) => {
                    // Nonblocking, registered once the epoll instance exists.
                    let to = self.servers[self.fds.len()];
                    match conn::dial(self, d, Sock { to, nonblocking: true, epfd: None }, ctx) {
                        Setup::Call(d, call) => {
                            self.state = EpState::Dial(d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => {
                            self.fds.push(fd);
                            self.got.push(0);
                            self.state = EpState::Start;
                            continue;
                        }
                    }
                }
                EpState::EpollCreate => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.state = EpState::Register(ep, 0);
                    continue;
                }
                EpState::Register(ep, i) => {
                    if let Some(&fd) = self.fds.get(i) {
                        self.state = EpState::Register(ep, i + 1);
                        return Step::Syscall(Syscall::EpollCtl {
                            epfd: ep,
                            fd,
                            interest: EventMask::READ,
                        });
                    }
                    self.state = EpState::Pace(ep);
                    continue;
                }
                EpState::Pace(ep) => match self.admission.admit(ctx.now, 1) {
                    // Closed loop: iterations run back to back, then stop.
                    None if self.iter >= self.iterations => self.state = EpState::Closing(0),
                    // Or open loop: the oldest due arrival starts now (late
                    // if the last iteration was still in flight); the rest
                    // were shed.
                    None | Some(1..) => self.begin_iteration(ep, ctx.now),
                    Some(0) => match self.admission.next_arrival() {
                        Some(at) => {
                            return Step::Syscall(Syscall::Nanosleep(at.duration_since(ctx.now)))
                        }
                        // Schedule exhausted: close down.
                        None => self.state = EpState::Closing(0),
                    },
                },
                EpState::SendNext(ep) => {
                    // A send's result lands here on the next step; an error
                    // means the connection we just wrote to has broken.
                    if self.send_idx > 0 {
                        if let SysResult::Err(_) = ctx.result {
                            ctx.result = SysResult::Computed;
                            return self.fail_conn(ep, ctx.now, self.send_idx - 1);
                        }
                    }
                    if self.send_idx < self.fds.len() {
                        let fd = self.fds[self.send_idx];
                        self.send_idx += 1;
                        let msg = request(self.iter - 1, self.fragment, ctx.now);
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    self.state = EpState::Wait(ep);
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: ep,
                        max_events: 64,
                        timeout: self.request_deadline,
                    });
                }
                EpState::Wait(ep) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            if evs.is_empty() {
                                // Deadline expired with a fragment outstanding:
                                // declare the slowest connection failed.
                                let idx = (0..self.fds.len())
                                    .find(|&i| self.got[i] < self.fragment)
                                    .expect("epoll deadline with nothing outstanding");
                                return self.fail_conn(ep, ctx.now, idx);
                            }
                            for (fd, mask) in evs {
                                if mask.readable {
                                    self.ready_queue.push_back(fd);
                                }
                            }
                            self.state = EpState::Drain(ep);
                            continue;
                        }
                        other => panic!("epoll_wait failed: {other:?}"),
                    }
                }
                EpState::Drain(ep) => {
                    // Consume one Recv result if we just issued one.
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Messages { msgs, eof } => {
                            let fd = self
                                .ready_queue
                                .pop_front()
                                .expect("recv result without pending fd");
                            let idx = self.fd_index(fd);
                            let before = self.got[idx];
                            for m in &msgs {
                                self.got[idx] += m.len;
                            }
                            if before < self.fragment && self.got[idx] >= self.fragment {
                                self.completed += 1;
                                if self.failure.failing() && idx == self.reconn_idx {
                                    self.failure.on_success(ctx.now);
                                    self.redial.attempts = 0;
                                }
                            } else if eof && self.got[idx] < self.fragment {
                                // The server half-closed mid-fragment:
                                // reconnect and re-request. (An EOF after a
                                // complete fragment is left for the next
                                // send to trip over.)
                                return self.fail_conn(ep, ctx.now, idx);
                            }
                        }
                        SysResult::Err(Errno::WouldBlock) => {
                            self.ready_queue.pop_front();
                        }
                        SysResult::Err(_) => {
                            // The connection under the ready fd has broken
                            // (reset or retransmission timeout).
                            let fd = self
                                .ready_queue
                                .pop_front()
                                .expect("recv result without pending fd");
                            let idx = self.fd_index(fd);
                            return self.fail_conn(ep, ctx.now, idx);
                        }
                        _ => {}
                    }
                    if self.completed == self.fds.len() {
                        // Iteration complete.
                        let d = ctx.now.saturating_duration_since(self.iter_started);
                        self.iteration_times.push(d);
                        self.completed = 0;
                        self.got.iter_mut().for_each(|g| *g = 0);
                        self.ready_queue.clear();
                        self.admission.on_complete(d);
                        self.state = EpState::Pace(ep);
                        continue;
                    }
                    match self.ready_queue.front() {
                        Some(&fd) => {
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 });
                        }
                        None => {
                            self.state = EpState::Wait(ep);
                            return Step::Syscall(Syscall::EpollWait {
                                epfd: ep,
                                max_events: 64,
                                timeout: self.request_deadline,
                            });
                        }
                    }
                }
                EpState::Redial(ep, d) => {
                    let to = self.servers[self.reconn_idx];
                    match conn::dial(self, d, Sock { to, nonblocking: true, epfd: Some(ep) }, ctx) {
                        Setup::Call(d, call) => {
                            self.state = EpState::Redial(ep, d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => {
                            self.fds[self.reconn_idx] = fd;
                            self.got[self.reconn_idx] = 0;
                            self.failure.retried += 1;
                            self.state = EpState::Resent(ep);
                            let msg = request(self.iter - 1, self.fragment, ctx.now);
                            return Step::Syscall(Syscall::Send { fd, msg });
                        }
                    }
                }
                EpState::Resent(ep) => match ctx.result {
                    SysResult::Done => {
                        // Resume the iteration: any sends still owed go
                        // out, then the normal wait/drain loop runs.
                        ctx.result = SysResult::Computed;
                        self.state = EpState::SendNext(ep);
                        continue;
                    }
                    SysResult::Err(_) => {
                        // The re-sent request failed: close the new socket
                        // and redial, leaving the ready queue as it is.
                        let fd = self.fds[self.reconn_idx];
                        let (d, call) = self.redial.fail(&mut self.failure, fd, ctx.now);
                        self.state = EpState::Redial(ep, d);
                        return Step::Syscall(call);
                    }
                    ref other => panic!("resend failed: {other:?}"),
                },
                EpState::Closing(i) => {
                    if i < self.fds.len() {
                        self.state = EpState::Closing(i + 1);
                        return Step::Syscall(Syscall::Close { fd: self.fds[i] });
                    }
                    self.done = true;
                    self.state = EpState::Done;
                    continue;
                }
                EpState::Done => return Step::Exit,
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("iterations_completed", self.iteration_times.len() as u64);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        self.failure.visit(v);
        self.admission.visit(usize::from(self.busy()), v);
    }

    fn reset(&mut self) -> bool {
        // Crash loss, not retry exhaustion — see `FailureStats::crash_lost`.
        if self.failure.failing() {
            self.failure.on_crash_lost();
        }
        if self.busy() {
            // The in-flight iteration died with the node.
            self.admission.on_unanswered();
        }
        self.state = EpState::Start;
        self.fds.clear();
        self.got.clear();
        self.send_idx = 0;
        self.ready_queue.clear();
        self.completed = 0;
        self.iter = 0;
        self.iter_started = SimTime::ZERO;
        self.redial.attempts = 0;
        self.reconn_idx = 0;
        self.done = false;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(SrvState as "incast SrvState" {
    0 => Listen(l),
    1 => Accept(lfd),
    2 => Accepting(lfd),
    3 => Recv(lfd, fd),
    4 => Respond(lfd, fd),
});

diablo_engine::impl_snap_enum!(WrkState {
    0 => Dial(d),
    1 => WaitStart(fd),
    2 => SendReq(fd),
    3 => RecvResp(fd),
    4 => Done,
});

diablo_engine::impl_snap_enum!(MstState {
    0 => AwaitConnects,
    1 => StartIter,
    2 => AwaitDone,
    3 => Finish,
    4 => Exit,
});

diablo_engine::impl_snap_enum!(EpState {
    0 => Start,
    1 => Dial(d),
    2 => EpollCreate,
    3 => Register(ep, i),
    4 => SendNext(ep),
    5 => Wait(ep),
    6 => Drain(ep),
    7 => Redial(ep, d),
    8 => Resent(ep),
    9 => Pace(ep),
    10 => Closing(i),
    11 => Done,
});

diablo_engine::impl_persist_fields!(IncastServer { served, state, to_send, port: config });
diablo_engine::impl_persist_fields!(IncastWorker {
    failure,
    state,
    start_seen,
    iter,
    got_bytes,
    redial,
    resend,
    server: config,
    fragment: config,
    shared: config,
});

diablo_engine::impl_persist_fields!(IncastShared { remaining, finished, workers: config });

diablo_engine::impl_persist_fields!(IncastMaster {
    iteration_times,
    done,
    state,
    done_seen,
    iter_started,
    iter,
    shared: config,
    iterations: config,
});

diablo_engine::impl_persist_fields!(IncastEpollClient {
    iteration_times,
    done,
    failure,
    state,
    fds,
    got,
    send_idx,
    ready_queue,
    completed,
    iter,
    iter_started,
    redial,
    reconn_idx,
    admission,
    servers: config,
    fragment: config,
    iterations: config,
    request_deadline: config,
} after_load = check_indices);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_state_countdown() {
        let mut shm = Shm::default();
        let s = shm.share(IncastShared::new(3));
        assert_eq!(shm.get(s).remaining, 3);
        let w = IncastWorker::new(SockAddr::default(), 1024, s);
        assert!(!w.finish_one(&mut shm));
        assert!(!w.finish_one(&mut shm));
        assert!(w.finish_one(&mut shm));
        shm.get_mut(s).finished = true;
        shm.get_mut(s).reboot();
        let b = shm.get(s);
        assert_eq!((b.remaining, b.finished), (3, false), "a reboot rewinds the barrier");
    }

    /// A snapshot whose connection table or indices the rebuilt server
    /// list cannot hold is refused at load, not at the client's next step.
    #[test]
    fn a_restored_index_past_the_connection_table_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        use diablo_net::addr::NodeAddr;
        let client = |n: u32| {
            let servers = (0..n).map(|i| SockAddr::new(NodeAddr(i), INCAST_PORT)).collect();
            IncastEpollClient::new(servers, 1024, 1)
        };
        let restore = |mutate: fn(&mut IncastEpollClient)| {
            let mut saved = client(2);
            (saved.fds, saved.got) = (vec![Fd(3), Fd(4)], vec![0, 0]);
            mutate(&mut saved);
            let mut w = SnapWriter::new();
            saved.save_state(&mut w);
            client(2).load_state(&mut SnapReader::new(&w.into_bytes()))
        };
        restore(|_| {}).expect("a table that fits restores");
        restore(|c| c.state = EpState::Closing(2)).expect("closing the last fd is a state");
        for (what, mutate) in [
            (
                "register index",
                (|c| c.state = EpState::Register(Fd(9), 3)) as fn(&mut IncastEpollClient),
            ),
            ("reconnect index", |c| c.reconn_idx = 2),
            ("close index", |c| c.state = EpState::Closing(3)),
            ("connection table", |c| c.got.push(0)),
            ("connection table", |c| (c.fds, c.got) = (vec![Fd(3); 3], vec![0; 3])),
        ] {
            match restore(mutate) {
                Err(SnapError::Malformed(msg)) => assert!(msg.starts_with(what), "{msg}"),
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
        }
    }

    /// A restored dial aimed past the rebuilt servers (a set-up dial with
    /// every server connected) or at a connection slot past the table (a
    /// redial with none) is refused at load, not at the client's next step.
    #[test]
    fn a_restored_dial_past_the_servers_or_connections_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        use diablo_net::addr::NodeAddr;
        let client = || {
            let servers = (0..2).map(|i| SockAddr::new(NodeAddr(i), INCAST_PORT)).collect();
            IncastEpollClient::new(servers, 1024, 1)
        };
        let restore = |saved: IncastEpollClient| {
            let mut w = SnapWriter::new();
            saved.save_state(&mut w);
            client().load_state(&mut SnapReader::new(&w.into_bytes()))
        };
        let mut half = client();
        (half.fds, half.got, half.state) = (vec![Fd(3)], vec![0], EpState::Dial(Dial::Socket));
        restore(half).expect("a set-up dial to the second server restores");
        let mut full = client();
        (full.fds, full.got) = (vec![Fd(3), Fd(4)], vec![0, 0]);
        full.state = EpState::Dial(Dial::Connect(Fd(5)));
        let mut empty = client();
        empty.state = EpState::Redial(Fd(2), Dial::Close);
        for (what, saved) in [("set-up dial", full), ("redial", empty)] {
            match restore(saved) {
                Err(SnapError::Malformed(msg)) => assert!(msg.starts_with(what), "{msg}"),
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn goodput_math() {
        let mut m = IncastMaster::new(2, Shm::default().share(IncastShared::new(1)));
        m.iteration_times = vec![SimDuration::from_millis(2), SimDuration::from_millis(2)];
        let expected = 2.0 * 256.0 * 1024.0 * 8.0 / 0.004;
        assert!((m.goodput_bps(256 * 1024) - expected).abs() < 1.0);
    }
}
