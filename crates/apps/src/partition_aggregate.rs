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
//! UDP socket ([`UdpGuest`]s), like the modern WSC software the paper's
//! §4.2 models.

use crate::arrival::{Admission, ArrivalSpec};
use crate::control::{DiscoveryConfig, RegistryClient};
use crate::udp_loop::{self, Next, Then, UdpGuest, UdpLoop};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Process, ProcessCtx, Shm, Step};
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
/// attribute it; then it reads on.
#[derive(Debug)]
pub struct PaLeaf {
    cfg: PaLeafConfig,
    rng: DetRng,
    io: UdpLoop,
    state: LeafState,
    /// Queries answered.
    pub served: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafState {
    /// No query in hand: wait for one.
    Idle,
    /// Serving a query: where and what to reply, and the instructions of
    /// service work still to compute before the reply goes out.
    Serving(SockAddr, AppMessage, u64),
    /// The reply is sent: read on before waiting again.
    Replied,
}

impl PaLeaf {
    /// Creates a leaf with a deterministic jitter stream.
    pub fn new(cfg: PaLeafConfig, rng: DetRng) -> Self {
        PaLeaf { cfg, rng, io: UdpLoop::Start, state: LeafState::Idle, served: 0 }
    }
}

impl UdpGuest for PaLeaf {
    fn port(&self) -> Option<u16> {
        Some(self.cfg.port)
    }

    fn io(&mut self) -> &mut UdpLoop {
        &mut self.io
    }

    fn pump(&mut self, _: &mut ProcessCtx<'_>) -> Next {
        match self.state {
            LeafState::Idle => Next::Wait(None),
            LeafState::Serving(to, msg, work) if work > 0 => {
                self.state = LeafState::Serving(to, msg, 0);
                Next::Compute(work)
            }
            LeafState::Serving(to, msg, _) => {
                self.state = LeafState::Replied;
                Next::Send(to, msg)
            }
            LeafState::Replied => {
                self.state = LeafState::Idle;
                Next::ReadOn
            }
        }
    }

    /// A query becomes the reply to serve; any other datagram is dropped.
    fn on_datagram(&mut self, from: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then {
        if msg.kind != KIND_QUERY {
            return Then::ReadOn;
        }
        self.served += 1;
        let work = SERVICE_WORK + self.rng.next_below(SERVICE_JITTER + 1);
        let answer = AppMessage::new(KIND_ANSWER, msg.id, self.cfg.answer_bytes, ctx.now)
            .with_arg0(msg.arg0);
        self.state = LeafState::Serving(from, answer, work);
        Then::Pump
    }
}

impl Process for PaLeaf {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        udp_loop::step(self, ctx)
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        // A crash wipes the socket; answers served so far survive as
        // counters, and the rebooted leaf rebuilds from scratch.
        self.io = UdpLoop::Start;
        self.state = LeafState::Idle;
        true
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
    /// Open loop: admit queries on this schedule, ignoring `queries` and
    /// `think`.
    pub arrival: Option<ArrivalSpec>,
    /// Open loop: latency SLO target.
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
    io: UdpLoop,
    state: FeState,
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
    /// When queries start: after the last one plus think time (closed
    /// loop), or on the arrival schedule with a window of one (open loop:
    /// an arrival landing mid-query is shed, and a deadline miss violates
    /// the SLO).
    pub admission: Admission,
    /// Registry discovery, under `cfg.discovery`.
    pub registry: RegistryClient,
    /// Finished cleanly.
    pub done: bool,
    /// When the last query completed.
    pub finished_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeState {
    /// Sleep the configured start delay, if any.
    StartDelay,
    /// Between queries: refresh the registry, then start, pace or finish.
    Think,
    /// Sending the query to each live leaf.
    Fanout,
    /// Waiting for answers until the deadline.
    Collect,
    Done,
}

impl PaFrontend {
    /// Creates a front-end: open-loop when `cfg.arrival` is set, its
    /// arrival gaps drawn from `rng`, else closed-loop.
    ///
    /// # Panics
    ///
    /// Panics without leaves.
    pub fn new(cfg: PaFrontendConfig, rng: DetRng) -> Self {
        let n = cfg.leaves.len();
        assert!(n > 0, "a front-end needs at least one leaf");
        PaFrontend {
            io: UdpLoop::Start,
            state: FeState::StartDelay,
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
            admission: Admission::new(cfg.arrival.as_ref(), rng, cfg.slo),
            registry: RegistryClient::new(cfg.discovery.as_ref()),
            done: false,
            finished_at: SimTime::ZERO,
            cfg,
        }
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
        // A partial aggregate never met the latency target.
        self.admission.on_unanswered();
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

impl UdpGuest for PaFrontend {
    fn io(&mut self) -> &mut UdpLoop {
        &mut self.io
    }

    fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> Next {
        loop {
            match self.state {
                FeState::StartDelay => {
                    self.state = FeState::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Next::Sleep(self.cfg.start_delay);
                    }
                }
                FeState::Think => {
                    // Registry refresh rides the think path: between
                    // queries the front-end reports its completions and
                    // violations (the SLO's under a schedule, else its
                    // deadline misses) and re-reads the liveness mask.
                    if let Some(d) = &self.cfg.discovery {
                        let violations = match self.cfg.arrival {
                            Some(_) => self.admission.slo.violations,
                            None => self.deadline_misses,
                        };
                        if let Some(lookup) =
                            self.registry.lookup_due(ctx.now, self.completed, violations)
                        {
                            return Next::Send(d.control, lookup);
                        }
                    }
                    match self.admission.admit(ctx.now, 1) {
                        // Closed loop: the next query follows the last one
                        // after the think time, until all are issued.
                        None if self.issued >= self.cfg.queries => self.state = FeState::Done,
                        None => {
                            self.begin_query();
                            return Next::Compute(self.cfg.think);
                        }
                        // Open loop: nothing due yet. Wake early for a due
                        // registry refresh so a sparse schedule cannot
                        // stall discovery.
                        Some(0) => {
                            let Some(at) = self.admission.next_arrival() else {
                                self.state = FeState::Done;
                                continue;
                            };
                            let wake = self.registry.next_refresh().map_or(at, |r| at.min(r));
                            return Next::Sleep(wake.duration_since(ctx.now));
                        }
                        // The oldest arrival starts now (late if the last
                        // query was still aggregating); the rest were shed.
                        Some(_) => self.begin_query(),
                    }
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
                        return Next::Send(to, msg);
                    }
                    self.state = FeState::Collect;
                }
                FeState::Collect => {
                    let elapsed = ctx.now.saturating_duration_since(self.sent_at);
                    if elapsed >= self.cfg.deadline {
                        self.miss();
                        continue;
                    }
                    return Next::Wait(Some(self.cfg.deadline - elapsed));
                }
                FeState::Done => {
                    self.done = true;
                    self.finished_at = ctx.now;
                    return Next::Exit;
                }
            }
        }
    }

    fn on_datagram(&mut self, _: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then {
        // A registry reply landing mid-collect: its mask is for the *next*
        // fan-out; the in-flight aggregate keeps its span.
        if self.registry.on_reply(&msg) {
            return Then::ReadOn;
        }
        // Stale answers from an already-closed query are ignored — their
        // aggregate has shipped.
        if msg.kind == KIND_ANSWER && msg.id == self.issued - 1 {
            if let Some(answered) = self.answered.get_mut(msg.arg0 as usize) {
                if !*answered {
                    *answered = true;
                    self.pending -= 1;
                }
            }
        }
        if self.pending > 0 {
            return Then::ReadOn;
        }
        let d = ctx.now.saturating_duration_since(self.sent_at);
        self.latency.record(d.as_nanos());
        self.full_aggregates += 1;
        self.completed += 1;
        self.admission.on_complete(d);
        self.state = FeState::Think;
        Then::Pump
    }

    /// The deadline expired with answers outstanding.
    fn on_timeout(&mut self, _: &mut ProcessCtx<'_>) {
        self.miss();
    }
}

impl Process for PaFrontend {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        udp_loop::step(self, ctx)
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("queries_issued", self.issued);
        v.counter("queries_completed", self.completed);
        v.counter("full_aggregates", self.full_aggregates);
        v.counter("deadline_misses", self.deadline_misses);
        v.counter("missing_answers", self.missing_answers);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        v.histogram("latency_ns", &self.latency);
        self.admission.visit(usize::from(self.pending > 0), v);
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
        self.io = UdpLoop::Start;
        self.state = FeState::StartDelay;
        self.answered.iter_mut().for_each(|a| *a = false);
        self.fanout_idx = 0;
        self.registry.reset();
        self.done = false;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(LeafState as "pa LeafState" {
    0 => Idle,
    1 => Serving(to, msg, work),
    2 => Replied,
});

diablo_engine::impl_snap_enum!(FeState as "pa FeState" {
    0 => StartDelay,
    1 => Think,
    2 => Fanout,
    3 => Collect,
    4 => Done,
});

// The config (port, service work, jitter bounds) is rebuilt; only the
// jitter stream and the serving loop's position evolve.
diablo_engine::impl_persist_fields!(PaLeaf { rng, io, state, served, cfg: config });

// `cfg` (leaf pool, deadline, arrival spec) is rebuilt from the scenario;
// everything the run accumulated — including the arrival process, whose
// spec rides its own snapshot — is state. One answered flag per leaf of
// the rebuilt pool: a snapshot of another pool is refused.
diablo_engine::impl_persist_fields!(PaFrontend {
    io,
    state,
    answered: fixed_len,
    pending,
    issued,
    sent_at,
    fanout_idx,
    latency,
    completed,
    full_aggregates,
    deadline_misses,
    missing_answers,
    admission,
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
        let mut fe = PaFrontend::new(PaFrontendConfig::new(leaves, 5), DetRng::new(1));
        fe.issued = 1;
        fe.pending = 2;
        assert!(fe.reset());
        assert_eq!(fe.deadline_misses, 1);
        assert_eq!(fe.missing_answers, 2);
        assert_eq!(fe.completed, 1);
    }

    /// A snapshot of a front-end over another leaf pool is refused at
    /// load, not when the next answer indexes past its flags.
    #[test]
    fn a_restored_answer_flag_list_of_another_pool_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        let frontend = |n: u32| {
            let leaves: Vec<SockAddr> =
                (1..=n).map(|i| SockAddr::new(NodeAddr(i), PA_PORT)).collect();
            PaFrontend::new(PaFrontendConfig::new(leaves, 5), DetRng::new(1))
        };
        let mut w = SnapWriter::new();
        frontend(3).save_state(&mut w);
        let bytes = w.into_bytes();
        frontend(3).load_state(&mut SnapReader::new(&bytes)).expect("the same pool restores");
        let err = frontend(2)
            .load_state(&mut SnapReader::new(&bytes))
            .expect_err("3 answer flags for 2 leaves are refused");
        assert!(
            err.to_string().contains("snapshot vector has 3 entries, rebuilt model has 2"),
            "{err}"
        );
    }

    #[test]
    fn leaf_defaults_are_sane() {
        let cfg = PaLeafConfig::default();
        assert_eq!(cfg.port, PA_PORT);
        assert!(cfg.answer_bytes > 0);
    }
}
