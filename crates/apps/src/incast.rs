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
//! Only the waiting differs. The master (for its workers) and the epoll
//! client each keep one [`Block`], which times iterations and gives the
//! goodput, and every fragment is fetched by one rule (`Fetch`: request,
//! count to completion, re-request on a fresh connection), run by a worker
//! on its connection and by the epoll client on each entry of its
//! per-server connection table. Each keeps how it waits: the barrier and
//! blocking `recv`s, or a ready queue of connection indices, a deadline
//! and an admission rule.
//!
//! Both clients connect, and reconnect after a transport failure, through
//! the one dial of [`crate::conn`]: a worker's socket is blocking, the
//! epoll client's nonblocking and, when it redials, registered with its
//! epoll instance. The server listens and serves through [`conn::serve`].
//!
//! Responses are streamed in 32 KB application chunks so socket-buffer
//! backpressure behaves like a real `write()` loop.

use crate::arrival::Admission;
use crate::conn::{self, Dial, Dialer, Listen, Redial, Serve, Server, Setup, Sock};
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

/// The block a client fetches, iteration by iteration: how many
/// iterations to run, what each took, and when the one in flight began.
#[derive(Debug, Default)]
pub struct Block {
    /// Iterations to run (a closed loop's).
    pub iterations: u64,
    /// Wall-clock duration of each completed iteration.
    pub iteration_times: Vec<SimDuration>,
    /// All iterations completed.
    pub done: bool,
    /// Bytes one iteration fetches, which the goodput counts.
    bytes: u64,
    /// Iterations begun since the last reset (the one in flight: `iter − 1`).
    iter: u64,
    /// When the iteration in flight began.
    started: SimTime,
}

impl Block {
    /// A block of `bytes` fetched `iterations` times.
    pub fn new(iterations: u64, bytes: u64) -> Self {
        Block { iterations, bytes, ..Block::default() }
    }

    /// Whether a closed loop has iterations left to begin.
    fn more(&self) -> bool {
        self.iter < self.iterations
    }

    /// Begins the next iteration at `now`.
    fn begin(&mut self, now: SimTime) {
        self.iter += 1;
        self.started = now;
    }

    /// Ends the iteration in flight at `now`; returns how long it took.
    fn end(&mut self, now: SimTime) -> SimDuration {
        let took = now.saturating_duration_since(self.started);
        self.iteration_times.push(took);
        took
    }

    /// Mean goodput in bits per second over the completed iterations.
    pub fn goodput_bps(&self) -> f64 {
        let total: f64 = self.iteration_times.iter().map(|d| d.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            (self.bytes * self.iteration_times.len() as u64) as f64 * 8.0 / total
        }
    }

    fn visit(&self, v: &mut dyn MetricsVisitor) {
        v.counter("iterations_completed", self.iteration_times.len() as u64);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
    }

    /// The client crashed: the iteration in flight died with it, and the
    /// count starts over. Completed iterations stay recorded.
    fn reset(&mut self) {
        self.done = false;
        self.iter = 0;
        self.started = SimTime::ZERO;
    }
}

/// The fetch of one server's fragment: the bytes of the current request
/// landed so far. A worker holds one, the epoll client one per connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fetch {
    got: u32,
}

impl Fetch {
    /// Requests on `fd` the fragment's `bytes` of the iteration in flight
    /// (`iter` counts the iterations begun), counting them from zero.
    fn send(&mut self, fd: Fd, iter: u64, bytes: u32, now: SimTime) -> Step {
        self.got = 0;
        let msg = AppMessage::new(KIND_REQ, iter - 1, 32, now).with_arg0(u64::from(bytes));
        Step::Syscall(Syscall::Send { fd, msg })
    }

    /// Re-requests it on the fresh connection `fd` after a transport
    /// failure cut it short, counting the retry.
    fn resend(&mut self, retried: &mut u64, fd: Fd, iter: u64, bytes: u32, now: SimTime) -> Step {
        *retried += 1;
        self.send(fd, iter, bytes, now)
    }

    /// Counts the chunks a `recv` returned; `true` when they complete the
    /// fragment.
    fn land(&mut self, msgs: &[AppMessage], fragment: u32) -> bool {
        let before = self.got;
        self.got += msgs.iter().map(|m| m.len).sum::<u32>();
        before < fragment && self.got >= fragment
    }

    /// Whether bytes of the fragment are still owed.
    fn outstanding(&self, fragment: u32) -> bool {
        self.got < fragment
    }
}

/// The memory the incast client threads on one node share: a barrier
/// over the workers that, like a `pthread_barrier_t`, holds its count,
/// and the iteration the master last began.
#[derive(Debug)]
pub struct IncastShared {
    /// Workers in the barrier.
    pub workers: usize,
    /// Workers still owing a fragment this iteration (or still connecting
    /// during setup).
    pub remaining: usize,
    /// Set by the master when all iterations are done.
    pub finished: bool,
    /// Iterations the master has begun: the one in flight is `iter − 1`.
    pub iter: u64,
}

impl IncastShared {
    /// A barrier over `workers` workers, none connected yet.
    pub fn new(workers: usize) -> Self {
        IncastShared { workers, remaining: workers, finished: false, iter: 0 }
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
    state: Serve,
    to_send: VecDeque<AppMessage>,
}

impl IncastServer {
    /// Creates a server on [`INCAST_PORT`].
    pub fn new() -> Self {
        IncastServer {
            port: INCAST_PORT,
            served: 0,
            state: Serve::Listen(Listen::Start),
            to_send: VecDeque::new(),
        }
    }
}

impl Default for IncastServer {
    fn default() -> Self {
        Self::new()
    }
}

/// Queues each request's chunks, stamped when the request is read.
impl Server for IncastServer {
    const BACKLOG: u32 = 8;
    const MAX_MSGS: usize = 4;

    fn port(&self) -> u16 {
        self.port
    }

    fn io(&mut self) -> &mut Serve {
        &mut self.state
    }

    fn on_requests(&mut self, msgs: Vec<AppMessage>, now: SimTime) -> u64 {
        for req in &msgs {
            assert_eq!(req.kind, KIND_REQ);
            let bytes = req.arg0 as u32;
            self.to_send.extend((0..bytes).step_by(CHUNK as usize).zip(0..).map(|(at, i)| {
                AppMessage::new(KIND_RESP, req.id, (bytes - at).min(CHUNK), now).with_arg0(i)
            }));
            self.served += 1;
        }
        SERVER_WORK
    }

    fn reply(&mut self, _now: SimTime) -> Option<AppMessage> {
        self.to_send.pop_front()
    }
}

impl Process for IncastServer {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        conn::serve(self, ctx)
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        self.state = Serve::Listen(Listen::Start);
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
    fetch: Fetch,
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
            fetch: Fetch::default(),
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
                        let (iter, bytes) = (ctx.shm.get(self.shared).iter, self.fragment);
                        self.state = WrkState::RecvResp(fd);
                        let retried = &mut self.failure.retried;
                        return self.fetch.resend(retried, fd, iter, bytes, ctx.now);
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
                    let barrier = ctx.shm.get(self.shared);
                    if barrier.finished {
                        self.state = WrkState::Done;
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    self.state = WrkState::RecvResp(fd);
                    return self.fetch.send(fd, barrier.iter, self.fragment, ctx.now);
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
                    if self.fetch.land(&msgs, self.fragment) {
                        if self.arrive(fd, ctx) {
                            return Step::Syscall(Syscall::FutexWake { key: FUTEX_DONE });
                        }
                        continue;
                    }
                    if eof {
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
        self.fetch = Fetch::default();
        self.redial.attempts = 0;
        self.resend = false;
        true
    }
}

/// The pthread-style client coordinator: releases the worker barrier each
/// iteration, publishing the iteration's number to the workers, and
/// records the block.
#[derive(Debug)]
pub struct IncastMaster {
    /// The block the workers fetch.
    pub block: Block,
    shared: ShmKey<IncastShared>,
    state: MstState,
    done_seen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MstState {
    /// Waiting for the workers: connected, then each fragment in.
    AwaitDone,
    StartIter,
    Finish,
    Exit,
}

impl IncastMaster {
    /// Creates a coordinator running `iterations` over the workers of the
    /// `shared` barrier, which fetch `block_bytes` in all per iteration.
    pub fn new(iterations: u64, block_bytes: u64, shared: ShmKey<IncastShared>) -> Self {
        IncastMaster {
            block: Block::new(iterations, block_bytes),
            shared,
            state: MstState::AwaitDone,
            done_seen: 0,
        }
    }
}

impl Process for IncastMaster {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                MstState::AwaitDone => {
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
                    if self.block.iter > 0 {
                        self.block.end(ctx.now);
                    }
                    if !self.block.more() {
                        self.state = MstState::Finish;
                        continue;
                    }
                    self.block.begin(ctx.now);
                    let barrier = ctx.shm.get_mut(self.shared);
                    barrier.remaining = barrier.workers;
                    barrier.iter = self.block.iter;
                    self.state = MstState::AwaitDone;
                    return Step::Syscall(Syscall::FutexWake { key: FUTEX_START });
                }
                MstState::Finish => {
                    ctx.shm.get_mut(self.shared).finished = true;
                    self.block.done = true;
                    self.state = MstState::Exit;
                    return Step::Syscall(Syscall::FutexWake { key: FUTEX_START });
                }
                MstState::Exit => return Step::Exit,
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.block.visit(v);
    }

    fn reset(&mut self) -> bool {
        self.state = MstState::AwaitDone;
        self.done_seen = 0;
        self.block.reset();
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
    /// The block it fetches.
    pub block: Block,
    /// Failure/recovery accounting.
    pub failure: FailureStats,
    /// Per-request deadline for `epoll_wait`; `None` waits forever.
    pub request_deadline: Option<SimDuration>,
    state: EpState,
    /// One connection per server, in server order, as set-up dials them.
    conns: Vec<Conn>,
    send_idx: usize,
    /// Connections `epoll_wait` reported readable and not yet read.
    ready: VecDeque<usize>,
    completed: usize,
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

/// The epoll client's connection to one server and its fragment's fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Conn {
    fd: Fd,
    fetch: Fetch,
}

/// Where the client stands, with its epoll instance once it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpState {
    /// Set-up: dial the next server, or create the epoll instance once
    /// every server is connected.
    Start,
    /// Set-up: dialing `servers[conns.len()]`.
    Dial(Dial),
    /// `epoll_create` in flight.
    EpollCreate,
    /// Registering `conns[i..]` with the epoll instance.
    Register(Fd, usize),
    SendNext(Fd),
    Wait(Fd),
    /// The `recv` on ready connection `i` in flight.
    Drain(Fd, usize),
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
            block: Block::new(iterations, u64::from(fragment) * servers.len() as u64),
            servers,
            fragment,
            failure: FailureStats::default(),
            request_deadline: None,
            state: EpState::Start,
            conns: Vec::new(),
            send_idx: 0,
            ready: VecDeque::new(),
            completed: 0,
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
                | EpState::Drain(..)
                | EpState::Redial(..)
                | EpState::Resent(_)
        )
    }

    /// Enters the reconnect path for connection `idx`, discarding any
    /// queued readiness for it.
    fn fail_conn(&mut self, epfd: Fd, now: SimTime, idx: usize) -> Step {
        self.ready.retain(|&i| i != idx);
        self.reconn_idx = idx;
        let (d, call) = self.redial.fail(&mut self.failure, self.conns[idx].fd, now);
        self.state = EpState::Redial(epfd, d);
        Step::Syscall(call)
    }

    /// Waits in `epfd` for readable connections, up to the deadline.
    fn wait(&mut self, epfd: Fd) -> Step {
        self.state = EpState::Wait(epfd);
        Step::Syscall(Syscall::EpollWait { epfd, max_events: 64, timeout: self.request_deadline })
    }

    /// Reads the next ready connection, or waits once none is left.
    fn drain(&mut self, epfd: Fd) -> Step {
        let Some(idx) = self.ready.pop_front() else { return self.wait(epfd) };
        self.state = EpState::Drain(epfd, idx);
        Step::Syscall(Syscall::Recv { fd: self.conns[idx].fd, max_msgs: 16 })
    }

    /// Refuses a restored connection table, index or dial the rebuilt
    /// server list cannot hold: it would decode, then panic at the next
    /// step.
    fn check_indices(&mut self) -> Result<(), SnapError> {
        let (servers, conns) = (self.servers.len(), self.conns.len());
        let (registered, closing, receiving) = match self.state {
            EpState::Register(_, i) => (i, 0, None),
            EpState::Closing(i) => (0, i, None),
            EpState::Drain(_, i) => (0, 0, Some(i)),
            _ => (0, 0, None),
        };
        let checks = [
            (conns <= servers, "connection table"),
            (!matches!(self.state, EpState::Dial(_)) || conns < servers, "set-up dial"),
            (registered <= conns, "register index"),
            (self.send_idx <= conns, "send index"),
            (self.ready.iter().chain(&receiving).all(|&i| i < conns), "ready queue"),
            (self.reconn_idx < conns.max(1), "reconnect index"),
            (!matches!(self.state, EpState::Redial(..)) || self.reconn_idx < conns, "redial"),
            (closing <= conns, "close index"),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, what)) => Err(SnapError::Malformed(format!(
                "{what} of an incast client with {servers} servers and {conns} connections"
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
                    if self.conns.len() == self.servers.len() {
                        self.state = EpState::EpollCreate;
                        return Step::Syscall(Syscall::EpollCreate);
                    }
                    self.state = EpState::Dial(Dial::Start);
                    continue;
                }
                EpState::Dial(d) => {
                    // Nonblocking, registered once the epoll instance exists.
                    let to = self.servers[self.conns.len()];
                    match conn::dial(self, d, Sock { to, nonblocking: true, epfd: None }, ctx) {
                        Setup::Call(d, call) => {
                            self.state = EpState::Dial(d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => {
                            self.conns.push(Conn { fd, fetch: Fetch::default() });
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
                    if let Some(c) = self.conns.get(i) {
                        self.state = EpState::Register(ep, i + 1);
                        return Step::Syscall(Syscall::EpollCtl {
                            epfd: ep,
                            fd: c.fd,
                            interest: EventMask::READ,
                        });
                    }
                    self.state = EpState::Pace(ep);
                    continue;
                }
                EpState::Pace(ep) => match self.admission.admit(ctx.now, 1) {
                    // Closed loop: iterations run back to back, then stop.
                    None if !self.block.more() => self.state = EpState::Closing(0),
                    // Or open loop: the oldest due arrival starts now (late
                    // if the last iteration was still in flight); the rest
                    // were shed.
                    None | Some(1..) => {
                        self.block.begin(ctx.now);
                        self.send_idx = 0;
                        self.state = EpState::SendNext(ep);
                    }
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
                    let Some(c) = self.conns.get_mut(self.send_idx) else {
                        return self.wait(ep);
                    };
                    self.send_idx += 1;
                    return c.fetch.send(c.fd, self.block.iter, self.fragment, ctx.now);
                }
                EpState::Wait(ep) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            if evs.is_empty() {
                                // Deadline expired with a fragment outstanding:
                                // declare the slowest connection failed.
                                let idx = self
                                    .conns
                                    .iter()
                                    .position(|c| c.fetch.outstanding(self.fragment))
                                    .expect("epoll deadline with nothing outstanding");
                                return self.fail_conn(ep, ctx.now, idx);
                            }
                            for (fd, mask) in evs {
                                let idx = self.conns.iter().position(|c| c.fd == fd);
                                self.ready.extend(idx.filter(|_| mask.readable));
                            }
                            return self.drain(ep);
                        }
                        other => panic!("epoll_wait failed: {other:?}"),
                    }
                }
                EpState::Drain(ep, idx) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Messages { msgs, eof } => {
                            let fetch = &mut self.conns[idx].fetch;
                            if fetch.land(&msgs, self.fragment) {
                                self.completed += 1;
                                if self.failure.failing() && idx == self.reconn_idx {
                                    self.failure.on_success(ctx.now);
                                    self.redial.attempts = 0;
                                }
                            } else if eof && fetch.outstanding(self.fragment) {
                                // The server half-closed mid-fragment:
                                // reconnect and re-request. (An EOF after a
                                // complete fragment is left for the next
                                // send to trip over.)
                                return self.fail_conn(ep, ctx.now, idx);
                            }
                        }
                        // The connection has broken (reset or
                        // retransmission timeout).
                        SysResult::Err(e) if e != Errno::WouldBlock => {
                            return self.fail_conn(ep, ctx.now, idx);
                        }
                        _ => {}
                    }
                    if self.completed < self.conns.len() {
                        return self.drain(ep);
                    }
                    self.completed = 0;
                    self.ready.clear();
                    let took = self.block.end(ctx.now);
                    self.admission.on_complete(took);
                    self.state = EpState::Pace(ep);
                }
                EpState::Redial(ep, d) => {
                    let to = self.servers[self.reconn_idx];
                    match conn::dial(self, d, Sock { to, nonblocking: true, epfd: Some(ep) }, ctx) {
                        Setup::Call(d, call) => {
                            self.state = EpState::Redial(ep, d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => {
                            self.state = EpState::Resent(ep);
                            let c = &mut self.conns[self.reconn_idx];
                            c.fd = fd;
                            let (retried, iter) = (&mut self.failure.retried, self.block.iter);
                            return c.fetch.resend(retried, fd, iter, self.fragment, ctx.now);
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
                        let fd = self.conns[self.reconn_idx].fd;
                        let (d, call) = self.redial.fail(&mut self.failure, fd, ctx.now);
                        self.state = EpState::Redial(ep, d);
                        return Step::Syscall(call);
                    }
                    ref other => panic!("resend failed: {other:?}"),
                },
                EpState::Closing(i) => {
                    if let Some(c) = self.conns.get(i) {
                        self.state = EpState::Closing(i + 1);
                        return Step::Syscall(Syscall::Close { fd: c.fd });
                    }
                    self.block.done = true;
                    self.state = EpState::Done;
                    continue;
                }
                EpState::Done => return Step::Exit,
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.block.visit(v);
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
        self.conns.clear();
        self.send_idx = 0;
        self.ready.clear();
        self.completed = 0;
        self.block.reset();
        self.redial.attempts = 0;
        self.reconn_idx = 0;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(WrkState {
    0 => Dial(d),
    1 => WaitStart(fd),
    2 => SendReq(fd),
    3 => RecvResp(fd),
    4 => Done,
});

diablo_engine::impl_snap_enum!(MstState { 0 => AwaitDone, 1 => StartIter, 2 => Finish, 3 => Exit });

diablo_engine::impl_snap_enum!(EpState {
    0 => Start,
    1 => Dial(d),
    2 => EpollCreate,
    3 => Register(ep, i),
    4 => SendNext(ep),
    5 => Wait(ep),
    6 => Drain(ep, i),
    7 => Redial(ep, d),
    8 => Resent(ep),
    9 => Pace(ep),
    10 => Closing(i),
    11 => Done,
});

diablo_engine::impl_snap_struct!(Fetch { got });
diablo_engine::impl_snap_struct!(Conn { fd, fetch });

diablo_engine::impl_persist_fields!(Block {
    iteration_times,
    done,
    iter,
    started,
    iterations: config,
    bytes: config
});
diablo_engine::impl_persist_fields!(IncastServer { served, state, to_send, port: config });
diablo_engine::impl_persist_fields!(IncastWorker {
    failure,
    state,
    start_seen,
    fetch,
    redial,
    resend,
    server: config,
    fragment: config,
    shared: config,
});
diablo_engine::impl_persist_fields!(IncastShared { remaining, finished, iter, workers: config });
diablo_engine::impl_persist_fields!(IncastMaster {
    block: nested,
    state,
    done_seen,
    shared: config
});
diablo_engine::impl_persist_fields!(IncastEpollClient {
    block: nested, failure, state, conns, send_idx, ready, completed, redial, reconn_idx, admission,
    servers: config, fragment: config, request_deadline: config,
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
        shm.get_mut(s).iter = 2;
        shm.get_mut(s).reboot();
        let b = shm.get(s);
        assert_eq!(
            (b.remaining, b.finished, b.iter),
            (3, false, 0),
            "a reboot rewinds the barrier"
        );
    }

    /// A fragment completes once, on the `recv` that brings its last byte;
    /// a re-request on a fresh connection counts a retry and starts over
    /// for the iteration in flight.
    #[test]
    fn a_fetch_completes_once_and_a_resend_starts_over() {
        let chunk = |len| AppMessage::new(KIND_RESP, 0, len, SimTime::ZERO);
        let mut fetch = Fetch::default();
        fetch.send(Fd(3), 1, 100, SimTime::ZERO);
        assert!(!fetch.land(&[chunk(60)], 100));
        assert!(fetch.outstanding(100));
        assert!(fetch.land(&[chunk(30), chunk(10)], 100));
        assert!(!fetch.land(&[chunk(10)], 100), "a fragment completes once");
        let mut failure = FailureStats::default();
        let Step::Syscall(Syscall::Send { msg, .. }) =
            fetch.resend(&mut failure.retried, Fd(4), 3, 100, SimTime::ZERO)
        else {
            panic!("a resend sends")
        };
        assert_eq!((msg.kind, msg.id, msg.arg0), (KIND_REQ, 2, 100));
        assert_eq!((failure.retried, fetch.got), (1, 0));
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
        fn conns(n: u32) -> Vec<Conn> {
            (3..3 + n).map(|fd| Conn { fd: Fd(fd), fetch: Fetch::default() }).collect()
        }
        let restore = |mutate: fn(&mut IncastEpollClient)| {
            let mut saved = client(2);
            saved.conns = conns(2);
            mutate(&mut saved);
            let mut w = SnapWriter::new();
            saved.save_state(&mut w);
            client(2).load_state(&mut SnapReader::new(&w.into_bytes()))
        };
        restore(|_| {}).expect("a table that fits restores");
        restore(|c| c.state = EpState::Closing(2)).expect("closing the last fd is a state");
        restore(|c| c.state = EpState::Drain(Fd(9), 1)).expect("a recv on the last connection");
        for (what, mutate) in [
            (
                "register index",
                (|c| c.state = EpState::Register(Fd(9), 3)) as fn(&mut IncastEpollClient),
            ),
            ("reconnect index", |c| c.reconn_idx = 2),
            ("close index", |c| c.state = EpState::Closing(3)),
            ("ready queue", |c| c.ready.extend([1, 2])),
            ("ready queue", |c| c.state = EpState::Drain(Fd(9), 2)),
            ("connection table", |c| c.conns = conns(3)),
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
        let conn = |fd| Conn { fd: Fd(fd), fetch: Fetch::default() };
        let mut half = client();
        (half.conns, half.state) = (vec![conn(3)], EpState::Dial(Dial::Socket));
        restore(half).expect("a set-up dial to the second server restores");
        let mut full = client();
        (full.conns, full.state) = (vec![conn(3), conn(4)], EpState::Dial(Dial::Connect(Fd(5))));
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
        let mut block = Block::new(2, 256 * 1024);
        block.iteration_times = vec![SimDuration::from_millis(2), SimDuration::from_millis(2)];
        let expected = 2.0 * 256.0 * 1024.0 * 8.0 / 0.004;
        assert!((block.goodput_bps() - expected).abs() < 1.0);
    }
}
