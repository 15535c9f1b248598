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
//! Responses are streamed in 32 KB application chunks so socket-buffer
//! backpressure behaves like a real `write()` loop.

use crate::arrival::{ArrivalProcess, ArrivalSpec, SloStats};
use crate::failure::{backoff_delay_jittered, FailureStats};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::rng::DetRng;
use diablo_engine::snap::SnapError;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{
    Errno, Fd, Process, ProcessCtx, Proto, Shared, Shm, ShmKey, Step, SysResult, Syscall,
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
    listen_fd: Option<Fd>,
    to_send: VecDeque<AppMessage>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrvState {
    Start,
    Socketed,
    Bound,
    Listening,
    Accepting,
    Recv(Fd),
    Respond(Fd),
    Closing(Fd),
}

impl IncastServer {
    /// Creates a server on [`INCAST_PORT`].
    pub fn new() -> Self {
        IncastServer {
            port: INCAST_PORT,
            served: 0,
            state: SrvState::Start,
            listen_fd: None,
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
                SrvState::Start => {
                    self.state = SrvState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                SrvState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.listen_fd = Some(fd);
                    self.state = SrvState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.port });
                }
                SrvState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = SrvState::Listening;
                    return Step::Syscall(Syscall::Listen {
                        fd: self.listen_fd.expect("no listen fd"),
                        backlog: 8,
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
                    return Step::Syscall(Syscall::Recv { fd, max_msgs: 4 });
                }
                SrvState::Recv(fd) => match std::mem::replace(&mut ctx.result, SysResult::Done) {
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
                        if msgs.is_empty() && eof && self.to_send.is_empty() {
                            self.state = SrvState::Closing(fd);
                            continue;
                        }
                        self.state = SrvState::Respond(fd);
                        return Step::Compute(SERVER_WORK);
                    }
                    SysResult::Err(Errno::ConnReset) => {
                        self.state = SrvState::Closing(fd);
                        continue;
                    }
                    other => panic!("server recv failed: {other:?}"),
                },
                SrvState::Respond(fd) => match self.to_send.pop_front() {
                    Some(msg) => {
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    None => {
                        self.state = SrvState::Recv(fd);
                        return Step::Syscall(Syscall::Recv { fd, max_msgs: 4 });
                    }
                },
                SrvState::Closing(fd) => {
                    self.state = SrvState::Listening;
                    return Step::Syscall(Syscall::Close { fd });
                }
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        self.state = SrvState::Start;
        self.listen_fd = None;
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
    fd: Option<Fd>,
    start_seen: u64,
    iter: u64,
    got_bytes: u32,
    /// Consecutive failures of the in-flight operation (backoff exponent).
    attempts: u32,
    /// A request was interrupted; re-send it once reconnected.
    resend: bool,
    /// Reconnect-jitter stream, seeded from the target server's address so
    /// the per-server workers of a mass failure back off de-correlated.
    backoff_rng: DetRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WrkState {
    Start,
    Socketed,
    Connected,
    WaitStart,
    SendReq,
    RecvResp,
    /// Close the broken socket, then back off.
    ConnFailed,
    /// Sleep the backoff delay, then reconnect via `Start`.
    Backoff,
    Closing,
    Done,
}

impl IncastWorker {
    /// Creates a worker fetching `fragment` bytes per iteration.
    pub fn new(server: SockAddr, fragment: u32, shared: ShmKey<IncastShared>) -> Self {
        IncastWorker {
            fragment,
            failure: FailureStats::default(),
            shared,
            state: WrkState::Start,
            fd: None,
            start_seen: 0,
            iter: 0,
            got_bytes: 0,
            attempts: 0,
            resend: false,
            backoff_rng: DetRng::new(u64::from(server.node.0)).derive(0xBACC0FF),
            server,
        }
    }

    /// Enters the reconnect path after a transport failure.
    fn fail(&mut self, now: SimTime, resend: bool) {
        self.failure.on_failure(now);
        self.attempts += 1;
        self.resend = resend;
        self.state = WrkState::ConnFailed;
    }

    /// Decrements the shared countdown; returns `true` for the last
    /// finisher.
    fn finish_one(&self, shm: &mut Shm) -> bool {
        let s = shm.get_mut(self.shared);
        s.remaining -= 1;
        s.remaining == 0
    }
}

impl Process for IncastWorker {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                WrkState::Start => {
                    self.state = WrkState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                WrkState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fd = Some(fd);
                    self.state = WrkState::Connected;
                    return Step::Syscall(Syscall::Connect { fd, to: self.server });
                }
                WrkState::Connected => match std::mem::replace(&mut ctx.result, SysResult::Done) {
                    SysResult::Done => {
                        if self.attempts > 0 {
                            self.failure.reconnects += 1;
                        }
                        if self.resend {
                            // Re-issue the interrupted request on the fresh
                            // connection.
                            self.failure.retried += 1;
                            self.got_bytes = 0;
                            let msg = AppMessage::new(KIND_REQ, self.iter - 1, 32, ctx.now)
                                .with_arg0(self.fragment as u64);
                            self.state = WrkState::RecvResp;
                            return Step::Syscall(Syscall::Send {
                                fd: self.fd.expect("no fd"),
                                msg,
                            });
                        }
                        self.failure.on_success(ctx.now);
                        self.attempts = 0;
                        self.state = WrkState::WaitStart;
                        if self.finish_one(ctx.shm) {
                            return Step::Syscall(Syscall::FutexWake { key: FUTEX_DONE });
                        }
                        continue;
                    }
                    SysResult::Err(_) => {
                        let resend = self.resend;
                        self.fail(ctx.now, resend);
                        continue;
                    }
                    other => panic!("connect failed: {other:?}"),
                },
                WrkState::WaitStart => {
                    if ctx.shm.get(self.shared).finished {
                        self.state = WrkState::Closing;
                        continue;
                    }
                    self.state = WrkState::SendReq;
                    return Step::Syscall(Syscall::FutexWait {
                        key: FUTEX_START,
                        seen: self.start_seen,
                    });
                }
                WrkState::SendReq => {
                    if let SysResult::FutexVal(v) = ctx.result {
                        self.start_seen = v;
                    }
                    if ctx.shm.get(self.shared).finished {
                        self.state = WrkState::Closing;
                        continue;
                    }
                    let msg = AppMessage::new(KIND_REQ, self.iter, 32, ctx.now)
                        .with_arg0(self.fragment as u64);
                    self.iter += 1;
                    self.got_bytes = 0;
                    self.state = WrkState::RecvResp;
                    return Step::Syscall(Syscall::Send { fd: self.fd.expect("no fd"), msg });
                }
                WrkState::RecvResp => match std::mem::replace(&mut ctx.result, SysResult::Done) {
                    SysResult::Done => {
                        return Step::Syscall(Syscall::Recv {
                            fd: self.fd.expect("no fd"),
                            max_msgs: 16,
                        });
                    }
                    SysResult::Messages { msgs, eof } => {
                        for m in &msgs {
                            assert_eq!(m.kind, KIND_RESP);
                            self.got_bytes += m.len;
                        }
                        if self.got_bytes >= self.fragment {
                            self.failure.on_success(ctx.now);
                            self.attempts = 0;
                            self.resend = false;
                            self.state = WrkState::WaitStart;
                            if self.finish_one(ctx.shm) {
                                return Step::Syscall(Syscall::FutexWake { key: FUTEX_DONE });
                            }
                            continue;
                        }
                        if eof {
                            if ctx.shm.get(self.shared).finished {
                                self.state = WrkState::Closing;
                                continue;
                            }
                            // The server vanished mid-response: reconnect
                            // and re-request the fragment.
                            self.fail(ctx.now, true);
                            continue;
                        }
                        return Step::Syscall(Syscall::Recv {
                            fd: self.fd.expect("no fd"),
                            max_msgs: 16,
                        });
                    }
                    SysResult::Err(_) => {
                        self.fail(ctx.now, true);
                        continue;
                    }
                    other => panic!("worker recv failed: {other:?}"),
                },
                WrkState::ConnFailed => {
                    self.state = WrkState::Backoff;
                    match self.fd.take() {
                        Some(fd) => return Step::Syscall(Syscall::Close { fd }),
                        None => continue,
                    }
                }
                WrkState::Backoff => {
                    // Close result (if any) is irrelevant; sleep, then
                    // rebuild the socket through the Start chain.
                    self.state = WrkState::Start;
                    return Step::Syscall(Syscall::Nanosleep(backoff_delay_jittered(
                        self.attempts.saturating_sub(1),
                        &mut self.backoff_rng,
                    )));
                }
                WrkState::Closing => {
                    self.state = WrkState::Done;
                    return Step::Syscall(Syscall::Close { fd: self.fd.expect("no fd") });
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
        self.state = WrkState::Start;
        self.fd = None;
        self.start_seen = 0;
        self.iter = 0;
        self.got_bytes = 0;
        self.attempts = 0;
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
    epfd: Option<Fd>,
    connect_idx: usize,
    send_idx: usize,
    ready_queue: VecDeque<Fd>,
    completed: usize,
    iter: u64,
    iter_started: SimTime,
    /// Consecutive failures of the in-flight operation (backoff exponent).
    attempts: u32,
    /// Index of the connection being re-established.
    reconn_idx: usize,
    /// Open-loop mode: the admission schedule (closed-loop when `None`).
    arrivals: Option<ArrivalProcess>,
    /// Open-loop mode: iterations the schedule offered (started + shed).
    pub offered: u64,
    /// Open-loop mode: SLO accounting over iteration times.
    pub slo: SloStats,
    /// Reconnect-jitter stream (seeded from the server list) so repeated
    /// reconnect rounds against a flapping fabric don't stay phase-locked.
    backoff_rng: DetRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpState {
    Start,
    Socketed,
    Connected,
    NonblockSet,
    EpollCreated,
    CtlAdded,
    SendNext,
    Wait,
    Drain,
    /// Initial connect failed: backoff, then retry from `Start`.
    InitRetry,
    /// Re-establishing connection `reconn_idx` after a failure.
    Reconn(ReconnStage),
    /// Open-loop: decide whether an iteration is due, shed, or slept for.
    Pace,
    /// Open-loop: sleeping until the next scheduled admission.
    Paced,
    Closing(usize),
    Done,
}

/// Stages of the epoll client's reconnect path: close the broken socket,
/// back off, re-socket, re-connect, re-register with epoll, and re-issue
/// the interrupted fragment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReconnStage {
    Close,
    Backoff,
    Socket,
    Connect,
    Nonblock,
    Ctl,
    Resend,
    AfterResend,
}

impl IncastEpollClient {
    /// Creates an epoll client striping `fragment` bytes over `servers`.
    pub fn new(servers: Vec<SockAddr>, fragment: u32, iterations: u64) -> Self {
        let seed = servers.first().map_or(0, |s| u64::from(s.node.0));
        IncastEpollClient {
            backoff_rng: DetRng::new(seed).derive(0xBACC0FF),
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
            epfd: None,
            connect_idx: 0,
            send_idx: 0,
            ready_queue: VecDeque::new(),
            completed: 0,
            iter: 0,
            iter_started: SimTime::ZERO,
            attempts: 0,
            reconn_idx: 0,
            arrivals: None,
            offered: 0,
            slo: SloStats::default(),
        }
    }

    /// Bounds each `epoll_wait` by `deadline`; when it expires with a
    /// fragment outstanding, the slowest connection is torn down and
    /// re-established.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.request_deadline = Some(deadline);
        self
    }

    /// Switches the client open-loop: iterations start at the schedule's
    /// instants instead of back to back, an arrival landing while an
    /// iteration is still in flight is shed (window of one), and
    /// `iterations` is ignored — the profile's horizon bounds the run.
    pub fn with_arrival(mut self, spec: ArrivalSpec, rng: DetRng) -> Self {
        self.arrivals = Some(ArrivalProcess::new(spec, rng));
        self
    }

    /// Sets the iteration-time SLO target (open-loop accounting).
    pub fn with_slo(mut self, target: SimDuration) -> Self {
        self.slo = SloStats::with_target(Some(target));
        self
    }

    /// `true` when admissions come from an arrival schedule.
    pub fn is_open_loop(&self) -> bool {
        self.arrivals.is_some()
    }

    /// Enters the reconnect path for connection `idx`, discarding any
    /// queued readiness for its (now doomed) fd.
    fn fail_conn(&mut self, now: SimTime, idx: usize) {
        let fd = self.fds[idx];
        self.ready_queue.retain(|f| *f != fd);
        self.reconn_idx = idx;
        self.failure.on_failure(now);
        self.attempts += 1;
        self.state = EpState::Reconn(ReconnStage::Close);
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

    /// Refuses a restored connection table or index the rebuilt server
    /// list cannot hold: it would decode, then panic at the next step.
    fn check_indices(&mut self) -> Result<(), SnapError> {
        let (servers, fds) = (self.servers.len(), self.fds.len());
        let closing = if let EpState::Closing(i) = self.state { i } else { 0 };
        let checks = [
            (self.got.len() == fds && fds <= servers, "connection table"),
            (self.connect_idx <= servers, "connect index"),
            (self.send_idx <= fds, "send index"),
            (self.reconn_idx < fds.max(1), "reconnect index"),
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

impl Process for IncastEpollClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                EpState::Start => {
                    if self.connect_idx == self.servers.len() {
                        self.state = EpState::EpollCreated;
                        return Step::Syscall(Syscall::EpollCreate);
                    }
                    self.state = EpState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                EpState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fds.push(fd);
                    self.got.push(0);
                    self.state = EpState::Connected;
                    return Step::Syscall(Syscall::Connect {
                        fd,
                        to: self.servers[self.connect_idx],
                    });
                }
                EpState::Connected => match ctx.result {
                    SysResult::Done => {
                        if self.attempts > 0 {
                            self.failure.reconnects += 1;
                            self.failure.on_success(ctx.now);
                            self.attempts = 0;
                        }
                        self.state = EpState::NonblockSet;
                        return Step::Syscall(Syscall::SetNonblocking {
                            fd: self.fds[self.connect_idx],
                            on: true,
                        });
                    }
                    SysResult::Err(_) => {
                        // Setup-time connect failure: close, back off, retry
                        // the same server.
                        self.failure.on_failure(ctx.now);
                        self.attempts += 1;
                        self.got.pop();
                        let fd = self.fds.pop().expect("no fd to retire");
                        self.state = EpState::InitRetry;
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    ref other => panic!("connect failed: {other:?}"),
                },
                EpState::NonblockSet => {
                    self.connect_idx += 1;
                    self.state = EpState::Start;
                    continue;
                }
                EpState::InitRetry => {
                    self.state = EpState::Start;
                    return Step::Syscall(Syscall::Nanosleep(backoff_delay_jittered(
                        self.attempts.saturating_sub(1),
                        &mut self.backoff_rng,
                    )));
                }
                EpState::EpollCreated => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.connect_idx = 0;
                    self.state = EpState::CtlAdded;
                    continue;
                }
                EpState::CtlAdded => {
                    if self.connect_idx < self.fds.len() {
                        let fd = self.fds[self.connect_idx];
                        self.connect_idx += 1;
                        return Step::Syscall(Syscall::EpollCtl {
                            epfd: self.epfd.expect("no epfd"),
                            fd,
                            interest: EventMask::READ,
                        });
                    }
                    if self.is_open_loop() {
                        // Open loop: the first iteration waits for the
                        // schedule's first admission.
                        self.state = EpState::Pace;
                        continue;
                    }
                    // Begin the first iteration.
                    self.iter += 1;
                    self.iter_started = ctx.now;
                    self.send_idx = 0;
                    self.state = EpState::SendNext;
                    continue;
                }
                EpState::Pace => {
                    let arrivals = self.arrivals.as_mut().expect("pace without schedule");
                    let due = arrivals.take_due(ctx.now);
                    self.offered += due;
                    if due == 0 {
                        let Some(at) = arrivals.peek() else {
                            // Schedule exhausted: close down.
                            self.state = EpState::Closing(0);
                            continue;
                        };
                        self.state = EpState::Paced;
                        return Step::Syscall(Syscall::Nanosleep(at.duration_since(ctx.now)));
                    }
                    // Arrivals that fired while the previous iteration was
                    // still in flight found the window (of one) full: the
                    // oldest starts now (late), the rest are shed.
                    for _ in 1..due {
                        self.slo.on_shed();
                    }
                    self.iter += 1;
                    self.iter_started = ctx.now;
                    self.send_idx = 0;
                    self.state = EpState::SendNext;
                    continue;
                }
                EpState::Paced => {
                    // Sleep finished exactly at the admission instant.
                    self.state = EpState::Pace;
                    continue;
                }
                EpState::SendNext => {
                    // A send's result lands here on the next step; an error
                    // means the connection we just wrote to has broken.
                    if self.send_idx > 0 {
                        if let SysResult::Err(_) = ctx.result {
                            ctx.result = SysResult::Computed;
                            self.fail_conn(ctx.now, self.send_idx - 1);
                            continue;
                        }
                    }
                    if self.send_idx < self.fds.len() {
                        let fd = self.fds[self.send_idx];
                        self.send_idx += 1;
                        let msg = AppMessage::new(KIND_REQ, self.iter - 1, 32, ctx.now)
                            .with_arg0(self.fragment as u64);
                        return Step::Syscall(Syscall::Send { fd, msg });
                    }
                    self.state = EpState::Wait;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 64,
                        timeout: self.request_deadline,
                    });
                }
                EpState::Wait => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Events(evs) => {
                        if evs.is_empty() {
                            // Deadline expired with a fragment outstanding:
                            // declare the slowest connection failed.
                            let idx = (0..self.fds.len())
                                .find(|&i| self.got[i] < self.fragment)
                                .expect("epoll deadline with nothing outstanding");
                            self.fail_conn(ctx.now, idx);
                            continue;
                        }
                        for (fd, mask) in evs {
                            if mask.readable {
                                self.ready_queue.push_back(fd);
                            }
                        }
                        self.state = EpState::Drain;
                        continue;
                    }
                    other => panic!("epoll_wait failed: {other:?}"),
                },
                EpState::Drain => {
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
                                    self.attempts = 0;
                                }
                            } else if eof && self.got[idx] < self.fragment {
                                // The server half-closed mid-fragment:
                                // reconnect and re-request. (An EOF after a
                                // complete fragment is left for the next
                                // send to trip over.)
                                self.fail_conn(ctx.now, idx);
                                continue;
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
                            self.fail_conn(ctx.now, idx);
                            continue;
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
                        if self.is_open_loop() {
                            self.slo.on_complete(d);
                            self.state = EpState::Pace;
                            continue;
                        }
                        if self.iter >= self.iterations {
                            self.state = EpState::Closing(0);
                            continue;
                        }
                        self.iter += 1;
                        self.iter_started = ctx.now;
                        self.send_idx = 0;
                        self.state = EpState::SendNext;
                        continue;
                    }
                    match self.ready_queue.front() {
                        Some(&fd) => {
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 16 });
                        }
                        None => {
                            self.state = EpState::Wait;
                            return Step::Syscall(Syscall::EpollWait {
                                epfd: self.epfd.expect("no epfd"),
                                max_events: 64,
                                timeout: self.request_deadline,
                            });
                        }
                    }
                }
                EpState::Reconn(stage) => match stage {
                    ReconnStage::Close => {
                        self.state = EpState::Reconn(ReconnStage::Backoff);
                        let fd = self.fds[self.reconn_idx];
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    ReconnStage::Backoff => {
                        self.state = EpState::Reconn(ReconnStage::Socket);
                        return Step::Syscall(Syscall::Nanosleep(backoff_delay_jittered(
                            self.attempts.saturating_sub(1),
                            &mut self.backoff_rng,
                        )));
                    }
                    ReconnStage::Socket => {
                        self.state = EpState::Reconn(ReconnStage::Connect);
                        return Step::Syscall(Syscall::Socket(Proto::Tcp));
                    }
                    ReconnStage::Connect => {
                        let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                        self.fds[self.reconn_idx] = fd;
                        self.got[self.reconn_idx] = 0;
                        self.state = EpState::Reconn(ReconnStage::Nonblock);
                        return Step::Syscall(Syscall::Connect {
                            fd,
                            to: self.servers[self.reconn_idx],
                        });
                    }
                    ReconnStage::Nonblock => match ctx.result {
                        SysResult::Done => {
                            self.failure.reconnects += 1;
                            self.state = EpState::Reconn(ReconnStage::Ctl);
                            return Step::Syscall(Syscall::SetNonblocking {
                                fd: self.fds[self.reconn_idx],
                                on: true,
                            });
                        }
                        SysResult::Err(_) => {
                            // Reconnect itself failed: close and try again
                            // with a longer backoff.
                            self.failure.on_failure(ctx.now);
                            self.attempts += 1;
                            self.state = EpState::Reconn(ReconnStage::Close);
                            continue;
                        }
                        ref other => panic!("reconnect failed: {other:?}"),
                    },
                    ReconnStage::Ctl => {
                        self.state = EpState::Reconn(ReconnStage::Resend);
                        return Step::Syscall(Syscall::EpollCtl {
                            epfd: self.epfd.expect("no epfd"),
                            fd: self.fds[self.reconn_idx],
                            interest: EventMask::READ,
                        });
                    }
                    ReconnStage::Resend => {
                        self.failure.retried += 1;
                        self.state = EpState::Reconn(ReconnStage::AfterResend);
                        let msg = AppMessage::new(KIND_REQ, self.iter - 1, 32, ctx.now)
                            .with_arg0(self.fragment as u64);
                        return Step::Syscall(Syscall::Send { fd: self.fds[self.reconn_idx], msg });
                    }
                    ReconnStage::AfterResend => match ctx.result {
                        SysResult::Done => {
                            // Resume the iteration: any sends still owed go
                            // out, then the normal wait/drain loop runs.
                            ctx.result = SysResult::Computed;
                            self.state = EpState::SendNext;
                            continue;
                        }
                        SysResult::Err(_) => {
                            self.failure.on_failure(ctx.now);
                            self.attempts += 1;
                            self.state = EpState::Reconn(ReconnStage::Close);
                            continue;
                        }
                        ref other => panic!("resend failed: {other:?}"),
                    },
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
        if self.is_open_loop() {
            v.counter("open_loop.offered", self.offered);
            let busy = matches!(
                self.state,
                EpState::SendNext | EpState::Wait | EpState::Drain | EpState::Reconn(_)
            );
            v.gauge("open_loop.in_flight", if busy { 1.0 } else { 0.0 });
            self.slo.visit(v);
        }
    }

    fn reset(&mut self) -> bool {
        // Crash loss, not retry exhaustion — see `FailureStats::crash_lost`.
        if self.failure.failing() {
            self.failure.on_crash_lost();
        }
        if self.is_open_loop()
            && matches!(
                self.state,
                EpState::SendNext | EpState::Wait | EpState::Drain | EpState::Reconn(_)
            )
        {
            // The in-flight iteration died with the node.
            self.slo.on_unanswered();
        }
        self.state = EpState::Start;
        self.fds.clear();
        self.got.clear();
        self.epfd = None;
        self.connect_idx = 0;
        self.send_idx = 0;
        self.ready_queue.clear();
        self.completed = 0;
        self.iter = 0;
        self.iter_started = SimTime::ZERO;
        self.attempts = 0;
        self.reconn_idx = 0;
        self.done = false;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(SrvState as "incast SrvState" {
    0 => Start,
    1 => Socketed,
    2 => Bound,
    3 => Listening,
    4 => Accepting,
    5 => Recv(fd),
    6 => Respond(fd),
    7 => Closing(fd),
});

diablo_engine::impl_snap_enum!(WrkState {
    0 => Start,
    1 => Socketed,
    2 => Connected,
    3 => WaitStart,
    4 => SendReq,
    5 => RecvResp,
    6 => ConnFailed,
    7 => Backoff,
    8 => Closing,
    9 => Done,
});

diablo_engine::impl_snap_enum!(MstState {
    0 => AwaitConnects,
    1 => StartIter,
    2 => AwaitDone,
    3 => Finish,
    4 => Exit,
});

diablo_engine::impl_snap_enum!(ReconnStage {
    0 => Close,
    1 => Backoff,
    2 => Socket,
    3 => Connect,
    4 => Nonblock,
    5 => Ctl,
    6 => Resend,
    7 => AfterResend,
});

diablo_engine::impl_snap_enum!(EpState {
    0 => Start,
    1 => Socketed,
    2 => Connected,
    3 => NonblockSet,
    4 => EpollCreated,
    5 => CtlAdded,
    6 => SendNext,
    7 => Wait,
    8 => Drain,
    9 => InitRetry,
    10 => Reconn(stage),
    11 => Pace,
    12 => Paced,
    13 => Closing(i),
    14 => Done,
});

diablo_engine::impl_persist_fields!(IncastServer {
    served,
    state,
    listen_fd,
    to_send,
    port: config,
});
diablo_engine::impl_persist_fields!(IncastWorker {
    failure,
    state,
    fd,
    start_seen,
    iter,
    got_bytes,
    attempts,
    resend,
    backoff_rng,
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
    epfd,
    connect_idx,
    send_idx,
    ready_queue,
    completed,
    iter,
    iter_started,
    attempts,
    reconn_idx,
    arrivals,
    offered,
    slo,
    backoff_rng,
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
            ("connect index", (|c| c.connect_idx = 3) as fn(&mut IncastEpollClient)),
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

    #[test]
    fn goodput_math() {
        let mut m = IncastMaster::new(2, Shm::default().share(IncastShared::new(1)));
        m.iteration_times = vec![SimDuration::from_millis(2), SimDuration::from_millis(2)];
        let expected = 2.0 * 256.0 * 1024.0 * 8.0 / 0.004;
        assert!((m.goodput_bps(256 * 1024) - expected).abs() < 1.0);
    }
}
