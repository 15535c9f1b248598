//! The partition-aggregate search tier: the classic WSC fan-out/fan-in
//! pattern (web search, social-graph assembly) that complements incast's
//! single-sink flow.
//!
//! A *front-end* node fans each query out to every *leaf* in its
//! partition as a UDP datagram; each leaf answers after a modeled service
//! time; the front-end aggregates the answers under a per-query deadline.
//! Answers that miss the deadline are dropped from the aggregate — the
//! canonical tail-at-scale behaviour: one slow (or disconnected) leaf
//! degrades answer quality rather than stalling the pipeline, so link
//! faults show up as *deadline misses* instead of retries.
//!
//! Both processes are single-threaded nonblocking `epoll` loops over one
//! UDP socket, like the modern WSC software the paper's §4.2 models.

use crate::arrival::{ArrivalProcess, ArrivalSpec, SloStats};
use crate::control::{DiscoveryConfig, RegistryClient};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use diablo_stack::socket::EventMask;
use std::sync::Arc;

/// Query message kind.
pub const KIND_QUERY: u32 = 30;
/// Answer message kind.
pub const KIND_ANSWER: u32 = 31;
/// Leaf server port.
pub const PA_PORT: u16 = 6001;

// ====================================================================
// Leaf
// ====================================================================

/// Instructions of modeled service work per query.
const SERVICE_WORK: u64 = 20_000;
/// Uniform extra instructions added per query; the service-time spread
/// that makes the slowest leaf the tail.
const SERVICE_JITTER: u64 = 8_000;

/// Leaf configuration.
#[derive(Debug, Clone)]
pub struct PaLeafConfig {
    /// UDP port to serve on.
    pub port: u16,
    /// Answer payload bytes.
    pub answer_bytes: u32,
}

impl Default for PaLeafConfig {
    fn default() -> Self {
        PaLeafConfig { port: PA_PORT, answer_bytes: 2_048 }
    }
}

/// A leaf search node: receives queries on a UDP socket, computes the
/// modeled service work (base + per-query jitter), and sends one answer
/// datagram back, echoing the query's shard tag so the front-end can
/// attribute it.
#[derive(Debug)]
pub struct PaLeaf {
    cfg: PaLeafConfig,
    rng: DetRng,
    state: LeafState,
    fd: Option<Fd>,
    epfd: Option<Fd>,
    reply: Option<(SockAddr, AppMessage)>,
    /// Queries answered.
    pub served: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafState {
    Start,
    Socketed,
    NbSet,
    Bound,
    EpollCreated,
    Registered,
    Wait,
    Drain,
    SendReply,
    AfterReply,
}

impl PaLeaf {
    /// Creates a leaf with a deterministic jitter stream.
    pub fn new(cfg: PaLeafConfig, rng: DetRng) -> Self {
        PaLeaf { cfg, rng, state: LeafState::Start, fd: None, epfd: None, reply: None, served: 0 }
    }
}

impl Process for PaLeaf {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                LeafState::Start => {
                    self.state = LeafState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                LeafState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fd = Some(fd);
                    // The drain loop recvs until empty, so the socket must
                    // be nonblocking or the last recv would park the thread.
                    self.state = LeafState::NbSet;
                    return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                }
                LeafState::NbSet => {
                    assert_eq!(ctx.result, SysResult::Done, "fcntl failed");
                    let fd = self.fd.expect("no fd");
                    self.state = LeafState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.cfg.port });
                }
                LeafState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = LeafState::EpollCreated;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                LeafState::EpollCreated => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = LeafState::Registered;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.fd.expect("no fd"),
                        interest: EventMask::READ,
                    });
                }
                LeafState::Registered => {
                    self.state = LeafState::Wait;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 64,
                        timeout: None,
                    });
                }
                LeafState::Wait => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Events(_) => {
                        self.state = LeafState::Drain;
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    other => panic!("leaf epoll_wait failed: {other:?}"),
                },
                LeafState::Drain => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Datagram { from, msg } => {
                        assert_eq!(msg.kind, KIND_QUERY, "leaf got non-query");
                        self.served += 1;
                        let jitter = self.rng.next_below(SERVICE_JITTER + 1);
                        let answer =
                            AppMessage::new(KIND_ANSWER, msg.id, self.cfg.answer_bytes, ctx.now)
                                .with_arg0(msg.arg0);
                        self.reply = Some((from, answer));
                        self.state = LeafState::SendReply;
                        return Step::Compute(SERVICE_WORK + jitter);
                    }
                    SysResult::Err(Errno::WouldBlock) => {
                        self.state = LeafState::Registered;
                        continue;
                    }
                    other => panic!("leaf recvfrom failed: {other:?}"),
                },
                LeafState::SendReply => {
                    let (to, msg) = self.reply.take().expect("no reply staged");
                    self.state = LeafState::AfterReply;
                    return Step::Syscall(Syscall::SendTo { fd: self.fd.expect("no fd"), to, msg });
                }
                LeafState::AfterReply => {
                    // Drain any further queued queries before re-polling.
                    self.state = LeafState::Drain;
                    return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                }
            }
        }
    }

    fn label(&self) -> &str {
        "pa-leaf"
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        // A crash wipes the socket; answers served so far survive as
        // counters, and the rebooted leaf rebuilds from scratch.
        self.state = LeafState::Start;
        self.fd = None;
        self.epfd = None;
        self.reply = None;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// Front-end
// ====================================================================

/// Front-end configuration.
#[derive(Clone)]
pub struct PaFrontendConfig {
    /// The leaves this front-end fans out to. Shared (`Arc`) across all
    /// front-ends instead of cloned per node.
    pub leaves: Arc<[SockAddr]>,
    /// Queries to issue.
    pub queries: u64,
    /// Per-query aggregation deadline: answers later than this are
    /// dropped from the aggregate and counted as misses.
    pub deadline: SimDuration,
    /// Query payload bytes.
    pub query_bytes: u32,
    /// Instructions of think time between queries.
    pub think: u64,
    /// Delay before the first query (stagger startup).
    pub start_delay: SimDuration,
    /// Open-loop mode: when set, queries are admitted on this schedule
    /// (window of one — an arrival landing while a query is still in
    /// flight is shed) and `queries`/`think` are ignored. Build the
    /// front-end with [`PaFrontend::open_loop`].
    pub arrival: Option<ArrivalSpec>,
    /// Open-loop mode: latency SLO target; a deadline miss always counts
    /// as a violation.
    pub slo: Option<SimDuration>,
    /// Discover live leaves through the control plane's registry: the
    /// fan-out skips pool entries whose liveness bit is clear, so a dead
    /// leaf degrades answer quality only until the registry notices.
    /// `leaves` becomes the fixed pool the mask indexes into.
    pub discovery: Option<DiscoveryConfig>,
}

impl std::fmt::Debug for PaFrontendConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaFrontendConfig")
            .field("leaves", &self.leaves.len())
            .field("queries", &self.queries)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl PaFrontendConfig {
    /// A front-end issuing `queries` queries over `leaves`.
    pub fn new(leaves: impl Into<Arc<[SockAddr]>>, queries: u64) -> Self {
        PaFrontendConfig {
            leaves: leaves.into(),
            queries,
            deadline: SimDuration::from_millis(1),
            query_bytes: 64,
            think: 8_000,
            start_delay: SimDuration::ZERO,
            arrival: None,
            slo: None,
            discovery: None,
        }
    }
}

/// The aggregating front-end: per query, sends one datagram to every
/// leaf, then collects answers through `epoll` until either every leaf
/// has answered (a *full aggregate*, whose latency is recorded) or the
/// deadline expires (a *deadline miss*; the missing answers are counted
/// and the next query starts).
#[derive(Debug)]
pub struct PaFrontend {
    cfg: PaFrontendConfig,
    state: FeState,
    fd: Option<Fd>,
    epfd: Option<Fd>,
    /// Per-leaf answered flag for the in-flight query.
    answered: Vec<bool>,
    /// Leaves still owing an answer for the in-flight query.
    pending: usize,
    issued: u64,
    sent_at: SimTime,
    fanout_idx: usize,
    /// Full-aggregate latencies (nanoseconds).
    pub latency: Histogram,
    /// Queries finished (full or partial).
    pub completed: u64,
    /// Queries where every leaf answered in time.
    pub full_aggregates: u64,
    /// Queries that hit the deadline with answers outstanding.
    pub deadline_misses: u64,
    /// Total leaf answers dropped from aggregates across the run.
    pub missing_answers: u64,
    /// Open-loop mode: the admission schedule (closed-loop when `None`).
    arrivals: Option<ArrivalProcess>,
    /// Open-loop mode: the next unadmitted arrival instant.
    next_arrival: Option<SimTime>,
    /// Open-loop mode: arrivals produced by the schedule (admitted + shed).
    pub offered: u64,
    /// Open-loop mode: SLO accounting (deadline misses always violate).
    pub slo: SloStats,
    /// Registry discovery (discovery mode; queries fan out to the live
    /// leaves of its mask).
    pub registry: RegistryClient,
    /// Finished cleanly.
    pub done: bool,
    /// When the last query completed.
    pub finished_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeState {
    Start,
    Socketed,
    NbSet,
    EpollCreated,
    Registered,
    Think,
    /// Open-loop: sleeping until the next scheduled admission.
    Paced,
    /// A registry lookup is in flight.
    LookupSent,
    Fanout,
    Collect,
    Drain,
    Done,
}

impl PaFrontend {
    /// Creates a closed-loop front-end.
    ///
    /// # Panics
    ///
    /// Panics without leaves, or when `cfg.arrival` is set — arrival
    /// schedules need the RNG passed to [`PaFrontend::open_loop`].
    pub fn new(cfg: PaFrontendConfig) -> Self {
        assert!(cfg.arrival.is_none(), "use PaFrontend::open_loop for arrival-driven front-ends");
        Self::build(cfg, None, None)
    }

    /// Creates an open-loop front-end: one query admitted per
    /// [`ArrivalProcess`] instant, an arrival landing while the previous
    /// query is still aggregating is shed (window of one).
    ///
    /// # Panics
    ///
    /// Panics without leaves or when `cfg.arrival` is `None`.
    pub fn open_loop(cfg: PaFrontendConfig, rng: DetRng) -> Self {
        let spec = cfg.arrival.clone().expect("open-loop front-end requires an arrival spec");
        let mut arrivals = ArrivalProcess::new(spec, rng);
        let next = arrivals.next_arrival();
        Self::build(cfg, Some(arrivals), next)
    }

    fn build(
        cfg: PaFrontendConfig,
        arrivals: Option<ArrivalProcess>,
        next_arrival: Option<SimTime>,
    ) -> Self {
        let n = cfg.leaves.len();
        assert!(n > 0, "a front-end needs at least one leaf");
        let slo = SloStats::with_target(cfg.slo);
        PaFrontend {
            state: FeState::Start,
            fd: None,
            epfd: None,
            answered: vec![false; n],
            pending: 0,
            issued: 0,
            sent_at: SimTime::ZERO,
            fanout_idx: 0,
            latency: Histogram::new(),
            completed: 0,
            full_aggregates: 0,
            deadline_misses: 0,
            missing_answers: 0,
            arrivals,
            next_arrival,
            offered: 0,
            slo,
            registry: RegistryClient::new(cfg.discovery.as_ref()),
            done: false,
            finished_at: SimTime::ZERO,
            cfg,
        }
    }

    /// `true` when admissions come from an arrival schedule.
    pub fn is_open_loop(&self) -> bool {
        self.arrivals.is_some()
    }

    /// Whether pool index `i` should receive queries: every index without
    /// discovery, the registry's liveness bit with it.
    fn is_live(&self, i: usize) -> bool {
        self.cfg.discovery.is_none() || self.registry.live_mask() >> i & 1 == 1
    }

    /// Leaves the current fan-out will target.
    fn live_leaves(&self) -> usize {
        if self.cfg.discovery.is_none() {
            return self.cfg.leaves.len();
        }
        (0..self.cfg.leaves.len()).filter(|&i| self.is_live(i)).count()
    }

    /// Closes out the in-flight query as a deadline miss.
    fn miss(&mut self) {
        self.deadline_misses += 1;
        self.missing_answers += self.pending as u64;
        self.pending = 0;
        self.completed += 1;
        if self.is_open_loop() {
            // A partial aggregate never met the latency target.
            self.slo.on_unanswered();
        }
        self.state = FeState::Think;
    }

    /// Starts the next query's fan-out (shared by both loop modes). With
    /// discovery, the aggregate spans only the registry's live leaves —
    /// a smaller but complete answer, the classic quality/availability
    /// trade.
    fn begin_query(&mut self) {
        self.issued += 1;
        self.answered.iter_mut().for_each(|a| *a = false);
        self.pending = self.live_leaves();
        self.fanout_idx = 0;
        self.state = FeState::Fanout;
    }
}

impl Process for PaFrontend {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                FeState::Start => {
                    self.state = FeState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                FeState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fd = Some(fd);
                    // Answers are drained until empty; keep the socket
                    // nonblocking so the last recv returns instead of
                    // parking past the deadline.
                    self.state = FeState::NbSet;
                    return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                }
                FeState::NbSet => {
                    assert_eq!(ctx.result, SysResult::Done, "fcntl failed");
                    self.state = FeState::EpollCreated;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                FeState::EpollCreated => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = FeState::Registered;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.fd.expect("no fd"),
                        interest: EventMask::READ,
                    });
                }
                FeState::Registered => {
                    self.state = FeState::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Step::Syscall(Syscall::Nanosleep(self.cfg.start_delay));
                    }
                    continue;
                }
                FeState::Think => {
                    // Registry refresh rides the think path: between
                    // queries the front-end reports its SLO deltas and
                    // re-reads the liveness mask.
                    if let Some(d) = &self.cfg.discovery {
                        let (completed, violations) = if self.arrivals.is_some() {
                            (self.slo.completed, self.slo.violations)
                        } else {
                            (self.completed, self.deadline_misses)
                        };
                        if let Some(lookup) =
                            self.registry.lookup_due(d, ctx.now, completed, violations)
                        {
                            self.state = FeState::LookupSent;
                            return Step::Syscall(Syscall::SendTo {
                                fd: self.fd.expect("no fd"),
                                to: d.control,
                                msg: lookup,
                            });
                        }
                    }
                    if let Some(arrivals) = self.arrivals.as_mut() {
                        // Open loop: the schedule, not completion, decides
                        // when the next query starts. Arrivals that fired
                        // while the previous query was aggregating found
                        // the window (of one) full: the oldest is admitted
                        // now (late), the rest are shed.
                        let mut due = 0u64;
                        while let Some(at) = self.next_arrival {
                            if at > ctx.now {
                                break;
                            }
                            due += 1;
                            self.next_arrival = arrivals.next_arrival();
                        }
                        self.offered += due;
                        if due == 0 {
                            let Some(at) = self.next_arrival else {
                                self.state = FeState::Done;
                                continue;
                            };
                            self.state = FeState::Paced;
                            // Wake early for a due registry refresh so a
                            // sparse schedule cannot stall discovery.
                            let wake = match self.registry.next_refresh() {
                                Some(r) => at.min(r),
                                None => at,
                            };
                            return Step::Syscall(Syscall::Nanosleep(wake.duration_since(ctx.now)));
                        }
                        for _ in 1..due {
                            self.slo.on_shed();
                        }
                        self.begin_query();
                        continue;
                    }
                    if self.issued >= self.cfg.queries {
                        self.state = FeState::Done;
                        continue;
                    }
                    self.begin_query();
                    return Step::Compute(self.cfg.think);
                }
                FeState::Paced => {
                    // Sleep finished at the admission instant (or a due
                    // registry refresh); let Think observe and act.
                    self.state = FeState::Think;
                    continue;
                }
                FeState::LookupSent => {
                    // UDP send never blocks; back to Think, which now
                    // sees the refresh armed in the future.
                    self.state = FeState::Think;
                    continue;
                }
                FeState::Fanout => {
                    if self.fanout_idx == 0 {
                        self.sent_at = ctx.now;
                        if self.pending == 0 {
                            // Registry says no leaf is live: the query
                            // cannot produce an answer — an immediate,
                            // total miss.
                            self.miss();
                            continue;
                        }
                    }
                    while self.fanout_idx < self.cfg.leaves.len() && !self.is_live(self.fanout_idx)
                    {
                        self.fanout_idx += 1;
                    }
                    if self.fanout_idx < self.cfg.leaves.len() {
                        let to = self.cfg.leaves[self.fanout_idx];
                        let msg = AppMessage::new(
                            KIND_QUERY,
                            self.issued - 1,
                            self.cfg.query_bytes,
                            ctx.now,
                        )
                        .with_arg0(self.fanout_idx as u64);
                        self.fanout_idx += 1;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.fd.expect("no fd"),
                            to,
                            msg,
                        });
                    }
                    self.state = FeState::Collect;
                    continue;
                }
                FeState::Collect => {
                    let elapsed = ctx.now.saturating_duration_since(self.sent_at);
                    if elapsed >= self.cfg.deadline {
                        self.miss();
                        continue;
                    }
                    self.state = FeState::Drain;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 64,
                        timeout: Some(self.cfg.deadline - elapsed),
                    });
                }
                FeState::Drain => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            if evs.is_empty() {
                                // Deadline expired with answers outstanding.
                                self.miss();
                                continue;
                            }
                            return Step::Syscall(Syscall::RecvFrom {
                                fd: self.fd.expect("no fd"),
                            });
                        }
                        SysResult::Datagram { msg, .. } => {
                            // A registry reply landing mid-collect: its
                            // mask is for the *next* fan-out; the in-flight
                            // aggregate keeps its span.
                            if self.registry.on_reply(&msg) {
                                return Step::Syscall(Syscall::RecvFrom {
                                    fd: self.fd.expect("no fd"),
                                });
                            }
                            if msg.kind == KIND_ANSWER && msg.id == self.issued - 1 {
                                let idx = msg.arg0 as usize;
                                if !self.answered[idx] {
                                    self.answered[idx] = true;
                                    self.pending -= 1;
                                }
                            }
                            // Stale answers from an already-closed query are
                            // ignored — their aggregate has shipped.
                            if self.pending == 0 {
                                let d = ctx.now.saturating_duration_since(self.sent_at);
                                self.latency.record(d.as_nanos());
                                self.full_aggregates += 1;
                                self.completed += 1;
                                if self.is_open_loop() {
                                    self.slo.on_complete(d);
                                }
                                self.state = FeState::Think;
                                continue;
                            }
                            return Step::Syscall(Syscall::RecvFrom {
                                fd: self.fd.expect("no fd"),
                            });
                        }
                        SysResult::Err(Errno::WouldBlock) => {
                            self.state = FeState::Collect;
                            continue;
                        }
                        other => panic!("front-end drain failed: {other:?}"),
                    }
                }
                FeState::Done => {
                    self.done = true;
                    self.finished_at = ctx.now;
                    return Step::Exit;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "pa-frontend"
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("queries_issued", self.issued);
        v.counter("queries_completed", self.completed);
        v.counter("full_aggregates", self.full_aggregates);
        v.counter("deadline_misses", self.deadline_misses);
        v.counter("missing_answers", self.missing_answers);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        v.histogram("latency_ns", &self.latency);
        if self.is_open_loop() {
            v.counter("open_loop.offered", self.offered);
            v.gauge("open_loop.in_flight", if self.pending > 0 { 1.0 } else { 0.0 });
            self.slo.visit(v);
        }
        if self.cfg.discovery.is_some() {
            self.registry.visit_metrics(v);
        }
    }

    fn reset(&mut self) -> bool {
        // A node crash loses the in-flight query: close it out as a miss
        // so completed stays consistent with issued, then rebuild.
        if self.pending > 0 {
            self.miss();
        }
        self.state = FeState::Start;
        self.fd = None;
        self.epfd = None;
        self.answered.iter_mut().for_each(|a| *a = false);
        self.fanout_idx = 0;
        self.registry.reset();
        self.done = false;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(LeafState as "pa LeafState" {
    0 => Start,
    1 => Socketed,
    2 => NbSet,
    3 => Bound,
    4 => EpollCreated,
    5 => Registered,
    6 => Wait,
    7 => Drain,
    8 => SendReply,
    9 => AfterReply,
});

diablo_engine::impl_snap_enum!(FeState as "pa FeState" {
    0 => Start,
    1 => Socketed,
    2 => NbSet,
    3 => EpollCreated,
    4 => Registered,
    5 => Think,
    6 => Paced,
    7 => LookupSent,
    8 => Fanout,
    9 => Collect,
    10 => Drain,
    11 => Done,
});

// The config (port, service work, jitter bounds) is rebuilt; only the
// jitter stream and the serving loop's position evolve.
diablo_engine::impl_persist_fields!(PaLeaf { rng, state, fd, epfd, reply, served, cfg: config });

// `cfg` (leaf pool, deadline, arrival spec) is rebuilt from the scenario;
// everything the run accumulated — including the arrival process, whose
// spec rides its own snapshot — is state.
diablo_engine::impl_persist_fields!(PaFrontend {
    state,
    fd,
    epfd,
    answered,
    pending,
    issued,
    sent_at,
    fanout_idx,
    latency,
    completed,
    full_aggregates,
    deadline_misses,
    missing_answers,
    arrivals,
    next_arrival,
    offered,
    slo,
    registry,
    done,
    finished_at,
    cfg: config,
});

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_net::NodeAddr;

    #[test]
    fn frontend_config_shares_leaves() {
        let leaves: Vec<SockAddr> = (1..4).map(|i| SockAddr::new(NodeAddr(i), PA_PORT)).collect();
        let cfg = PaFrontendConfig::new(leaves, 10);
        let cfg2 = cfg.clone();
        assert_eq!(cfg.leaves.len(), 3);
        assert!(Arc::ptr_eq(&cfg.leaves, &cfg2.leaves), "clones must share the leaf list");
    }

    #[test]
    fn crash_mid_query_counts_as_miss() {
        let leaves: Vec<SockAddr> = (1..3).map(|i| SockAddr::new(NodeAddr(i), PA_PORT)).collect();
        let mut fe = PaFrontend::new(PaFrontendConfig::new(leaves, 5));
        fe.issued = 1;
        fe.pending = 2;
        assert!(fe.reset());
        assert_eq!(fe.deadline_misses, 1);
        assert_eq!(fe.missing_answers, 2);
        assert_eq!(fe.completed, 1);
    }

    #[test]
    fn leaf_defaults_are_sane() {
        let cfg = PaLeafConfig::default();
        assert_eq!(cfg.port, PA_PORT);
        assert!(cfg.answer_bytes > 0);
    }
}
