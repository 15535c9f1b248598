//! The cluster control plane: health-checked placement, failover and
//! autoscaling, running *inside* the simulation as ordinary processes.
//!
//! Warehouse-scale services survive constant churn because a scheduler
//! (Borg, the paper's §2 motivation for whole-datacenter simulation)
//! continuously reconciles *desired* against *observed* state. This
//! module models that loop with the same fidelity discipline as the rest
//! of the stack — every signal travels over the simulated fabric, so
//! detection latency is a function of simulated network conditions, not
//! an oracle:
//!
//! * [`ControlPlane`] — one scheduler process holding the registry of
//!   its one service (desired replica count, placement spread across racks),
//!   a per-node heartbeat-driven health state machine
//!   (alive → suspect → dead), and a periodic reconciliation tick that
//!   re-places replicas off dead nodes, scales the replica count against
//!   an SLO signal with hysteresis, and drains rebooted nodes back in as
//!   spares.
//! * [`ControlAgent`] — one per pool node: sends heartbeats, executes
//!   activate/deactivate commands by flipping its node's [`GateState`]
//!   (memory the node's threads share) and waking the gated server
//!   through a futex, and acks so the scheduler's retry budget can bound
//!   command loss.
//! * Clients discover live endpoints through a simulated registry lookup
//!   ([`KIND_LOOKUP`] → [`KIND_ENDPOINTS`], a 128-bit liveness mask over
//!   the service's fixed address pool) instead of a static address list;
//!   the same lookup carries the client's SLO deltas, closing the
//!   autoscaling feedback loop.
//!
//! Everything is deterministic: timers are fixed periods with per-agent
//! stagger, all maps iterate in `BTree` order, placement ties break by
//! (rack population, rack, pool index), and the only randomness —
//! a client picking among live replicas — draws exactly one value from
//! the client's own [`DetRng`] stream per request, so runs stay
//! byte-identical serial vs. partition-parallel.

use crate::udp_loop::{self, Next, Then, UdpGuest, UdpLoop};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::snap::SnapError;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Process, ProcessCtx, Shared, Shm, Step};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// UDP port the [`ControlPlane`] scheduler serves on.
pub const CONTROL_PORT: u16 = 7100;
/// UDP port each [`ControlAgent`] serves on.
pub const AGENT_PORT: u16 = 7101;

/// Agent → scheduler liveness beacon (the sender's node identifies it).
pub const KIND_HEARTBEAT: u32 = 40;
/// Client → scheduler registry lookup; `id` = service (0, the one the
/// scheduler holds), `arg0`/`arg1` = completed/violation deltas since the
/// client's last lookup.
pub const KIND_LOOKUP: u32 = 41;
/// Scheduler → client endpoint set; `id` echoes the lookup's, `arg0`|`arg1` = the
/// low/high halves of the 128-bit liveness mask over the service pool.
pub const KIND_ENDPOINTS: u32 = 42;
/// Scheduler → agent placement command; `id` = command sequence number,
/// `arg0` = service (0), `arg1` = 1 to activate / 0 to deactivate.
pub const KIND_ACTIVATE: u32 = 43;
/// Agent → scheduler command acknowledgement echoing the sequence number.
pub const KIND_ACK: u32 = 44;

/// Wire size of a control datagram payload (fits any 1500-byte MTU with
/// room to spare; heartbeats and commands are tiny in real planes too).
const CTRL_BYTES: u32 = 64;

/// Futex key an agent wakes when it flips its node's gate. Far above the
/// incast barrier keys (0xA/0xB) so a pool node can host both.
pub const GATE_FUTEX_KEY: u64 = 0xC0DE_0000;

// ====================================================================
// Gates — how an agent starts/stops a co-located server process
// ====================================================================

/// One service replica's activation flag, in the memory its node's
/// threads share; a node holds at most one. The gated server checks it
/// before binding; the agent flips it on command and wakes the server's
/// futex.
#[derive(Debug, Default)]
pub struct GateState {
    /// Whether this replica should serve.
    pub active: bool,
    /// Bumped on every flip (debugging aid; the futex carries the wake).
    pub generation: u64,
}

/// The gate holds the scheduler's placement, not the node's state: it
/// survives a reboot.
impl Shared for GateState {
    fn reboot(&mut self) {}
}

/// Picks one live pool index from a 128-bit liveness mask: the k-th set
/// bit for a single uniform draw of k. Exactly one RNG value is consumed
/// when at least one bit is set, none otherwise — the property that keeps
/// client request streams replayable as the mask evolves.
pub fn pick_live(mask: u128, pool_len: usize, rng: &mut DetRng) -> Option<usize> {
    let pool_len = pool_len.min(128);
    let live = (0..pool_len).filter(|i| mask >> i & 1 == 1).count();
    if live == 0 {
        return None;
    }
    let mut k = rng.next_below(live as u64) as usize;
    (0..pool_len).find(|i| {
        if mask >> i & 1 == 1 {
            if k == 0 {
                return true;
            }
            k -= 1;
        }
        false
    })
}

/// Folds a set of pool indices into the wire-format liveness mask.
fn mask_of(set: &BTreeSet<usize>) -> u128 {
    set.iter().fold(0u128, |m, &i| m | 1u128 << i)
}

// ====================================================================
// Configuration
// ====================================================================

/// How a client process finds its service through the control plane.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// The scheduler's endpoint.
    pub control: SockAddr,
    /// Liveness mask assumed before the first [`KIND_ENDPOINTS`] reply
    /// arrives (normally the initial placement).
    pub initial_mask: u128,
}

/// The client side of registry discovery, one per client process that
/// finds its service through the control plane: the liveness mask it
/// routes by, when its next lookup is due, and the SLO totals its lookups
/// have already reported. The client supplies the [`DiscoveryConfig`]
/// and sends the lookups this builds.
#[derive(Debug, Clone, Default)]
pub struct RegistryClient {
    /// Liveness mask over the service's pool: the config's initial mask
    /// until a [`KIND_ENDPOINTS`] reply replaces it.
    live_mask: u128,
    /// When the next lookup is due (`None` until the client first asks).
    next_refresh: Option<SimTime>,
    /// Totals already reported (lookups carry deltas).
    reported_completed: u64,
    reported_violations: u64,
    /// Registry lookups sent.
    pub lookups_sent: u64,
    /// Endpoint-mask updates applied.
    pub endpoint_updates: u64,
}

impl RegistryClient {
    /// A client that has heard nothing yet: the initial mask of `d`, if
    /// the process discovers its service at all.
    pub fn new(d: Option<&DiscoveryConfig>) -> Self {
        RegistryClient { live_mask: d.map_or(0, |d| d.initial_mask), ..Self::default() }
    }

    /// The liveness mask over the service's pool.
    pub fn live_mask(&self) -> u128 {
        self.live_mask
    }

    /// When the next lookup is due, once the client has first asked.
    pub fn next_refresh(&self) -> Option<SimTime> {
        self.next_refresh
    }

    /// The lookup to send to the scheduler now, if one is due: it reports
    /// the `completed` and `violations` the client counted since its last
    /// lookup. The first call makes one due at once.
    pub fn lookup_due(
        &mut self,
        now: SimTime,
        completed: u64,
        violations: u64,
    ) -> Option<AppMessage> {
        let due = self.next_refresh.get_or_insert(now);
        if *due > now {
            return None;
        }
        while *due <= now {
            *due += REFRESH_EVERY;
        }
        let lookup = AppMessage::new(KIND_LOOKUP, 0, CTRL_BYTES, now)
            .with_arg0(completed - self.reported_completed)
            .with_arg1(violations - self.reported_violations);
        self.reported_completed = completed;
        self.reported_violations = violations;
        self.lookups_sent += 1;
        Some(lookup)
    }

    /// Takes the mask of a [`KIND_ENDPOINTS`] reply; `false` when `msg`
    /// is not one.
    pub fn on_reply(&mut self, msg: &AppMessage) -> bool {
        if msg.kind != KIND_ENDPOINTS {
            return false;
        }
        self.live_mask = u128::from(msg.arg0) | (u128::from(msg.arg1) << 64);
        self.endpoint_updates += 1;
        true
    }

    /// The client's node crashed: the mask is client memory and survives,
    /// the lookup cadence restarts when the client next asks.
    pub fn reset(&mut self) {
        self.next_refresh = None;
    }

    /// The `discovery.*` metrics.
    pub fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("discovery.lookups", self.lookups_sent);
        v.counter("discovery.endpoint_updates", self.endpoint_updates);
    }
}

/// Client registry-lookup cadence.
pub const REFRESH_EVERY: SimDuration = SimDuration::from_millis(5);
/// Reconciliation tick period.
pub const RECONCILE_EVERY: SimDuration = SimDuration::from_millis(2);
/// Sliding window over client SLO deltas for the autoscaler.
pub const SLO_WINDOW: SimDuration = SimDuration::from_millis(20);
/// Minimum spacing between scaling decisions.
pub const SCALE_COOLDOWN: SimDuration = SimDuration::from_millis(20);
/// Command resend attempts before the scheduler gives up on a placement
/// (the anti-flap retry budget).
pub const RETRY_BUDGET: u32 = 3;
/// Silence before an unacked command is resent.
pub const COMMAND_TIMEOUT: SimDuration = SimDuration::from_millis(4);
/// Replica floor; the ceiling is the whole pool.
pub const MIN_REPLICAS: usize = 1;

/// Control-plane tuning: the settings a run chooses. Defaults, and the
/// fixed periods above, are scaled to the repo's mini-shape experiments
/// (millisecond horizons); the CLI and experiment configs override per
/// run. [`ControlConfig::validate`] rejects contradictory settings instead
/// of letting them produce a plane that can never detect or never
/// converge.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Agent heartbeat period.
    pub heartbeat_every: SimDuration,
    /// Silence before a node turns suspect.
    pub suspect_after: SimDuration,
    /// Silence before a suspect node is declared dead (must exceed
    /// [`ControlConfig::suspect_after`]; the gap is the false-positive
    /// guard band).
    pub dead_after: SimDuration,
    /// Windowed p99-violation fraction above which a replica is added.
    pub scale_up_frac: f64,
    /// Windowed violation fraction below which a replica is removed.
    /// Must be strictly below [`ControlConfig::scale_up_frac`] — the
    /// hysteresis gap that prevents flap storms.
    pub scale_down_frac: f64,
    /// Standby replicas provisioned per rack when an experiment builds
    /// its pool (consumed by the workload wiring, not the scheduler).
    pub spares_per_rack: usize,
    /// Whether the SLO-driven autoscaler runs (failover always does).
    pub autoscale: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            heartbeat_every: SimDuration::from_millis(2),
            suspect_after: SimDuration::from_millis(5),
            dead_after: SimDuration::from_millis(11),
            scale_up_frac: 0.25,
            scale_down_frac: 0.05,
            spares_per_rack: 1,
            autoscale: false,
        }
    }
}

impl ControlConfig {
    /// Rejects configurations that cannot work: a zero heartbeat period,
    /// detection thresholds out of order (suspect must trail at least one
    /// missed heartbeat, dead must trail suspect), and inverted or
    /// out-of-range scaling thresholds.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_every.is_zero() {
            return Err("heartbeat period must be positive".into());
        }
        if self.suspect_after <= self.heartbeat_every {
            return Err(format!(
                "suspect threshold ({}) must exceed the heartbeat period ({})",
                self.suspect_after, self.heartbeat_every
            ));
        }
        if self.dead_after <= self.suspect_after {
            return Err(format!(
                "dead threshold ({}) must exceed the suspect threshold ({})",
                self.dead_after, self.suspect_after
            ));
        }
        if !(0.0..=1.0).contains(&self.scale_up_frac)
            || !(0.0..=1.0).contains(&self.scale_down_frac)
        {
            return Err("scaling thresholds must lie in [0, 1]".into());
        }
        if self.scale_down_frac >= self.scale_up_frac {
            return Err(format!(
                "scale-down threshold ({}) must be strictly below scale-up ({}) \
                 — the hysteresis gap prevents flap storms",
                self.scale_down_frac, self.scale_up_frac
            ));
        }
        Ok(())
    }
}

/// The scheduled service: a fixed address pool (≤ 128 endpoints so
/// liveness fits the wire mask), each endpoint's rack (for placement
/// spread), and the initially active pool indices. The agent of pool
/// entry `i` listens on [`AGENT_PORT`] of `pool[i]`'s node.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Every endpoint that *could* host a replica, active or standby.
    pub pool: Vec<SockAddr>,
    /// Rack of each pool entry (placement spreads across these).
    pub racks: Vec<u32>,
    /// Initially active pool indices.
    pub initial: Vec<usize>,
}

// ====================================================================
// The scheduler
// ====================================================================

/// End-of-run snapshot of the scheduler's counters, carried in each
/// experiment's result alongside the workload's own numbers.
#[derive(Debug, Clone, Default)]
pub struct ControlReport {
    /// Heartbeats received.
    pub heartbeats: u64,
    /// Registry lookups served.
    pub lookups: u64,
    /// Alive → suspect transitions.
    pub suspicions: u64,
    /// Suspect nodes that heartbeat again before being declared dead —
    /// the detector's false-positive count.
    pub false_positive_suspicions: u64,
    /// Nodes declared dead.
    pub detections: u64,
    /// Dead nodes whose heartbeats resumed (reboots re-admitted).
    pub rejoins: u64,
    /// Replicas re-placed onto healthy nodes after a death (counted when
    /// the replacement's activation is acked).
    pub failovers: u64,
    /// Autoscaler replica additions.
    pub scale_ups: u64,
    /// Autoscaler replica removals.
    pub scale_downs: u64,
    /// Placement commands sent (first attempts).
    pub commands_sent: u64,
    /// Command resends after ack timeouts.
    pub commands_retried: u64,
    /// Commands acknowledged.
    pub commands_acked: u64,
    /// Commands abandoned after the retry budget ran out.
    pub commands_dropped: u64,
    /// Reconciliation passes that wanted a replica but found no healthy
    /// unassigned candidate.
    pub placement_stalls: u64,
    /// Dead-declaration → replacement-acked latency, nanoseconds.
    pub replacement_latency: Histogram,
    /// Replica target at report time.
    pub desired: usize,
    /// Replicas ready and serving at report time.
    pub ready: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Alive,
    Suspect,
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct NodeHealth {
    last_hb: SimTime,
    dead_at: SimTime,
    state: Health,
}

#[derive(Debug)]
struct PendingCmd {
    pool_idx: usize,
    activate: bool,
    to: SockAddr,
    sent_at: SimTime,
    tries: u32,
    /// Dead-declaration instant this activation is replacing, if any.
    failover_from: Option<SimTime>,
}

/// The scheduler process: a [`UdpGuest`] serving heartbeats, registry
/// lookups and command acks on [`CONTROL_PORT`], plus a periodic
/// reconciliation tick. See the module docs for the protocol.
#[derive(Debug)]
pub struct ControlPlane {
    cfg: ControlConfig,
    spec: ServiceSpec,
    /// Replica target the reconciler converges toward.
    desired: usize,
    /// Placement intent: indices commanded active (acked or not).
    assigned: BTreeSet<usize>,
    /// Acked and serving — what the liveness mask advertises.
    ready: BTreeSet<usize>,
    /// (arrival, completed delta, violation delta) from client lookups.
    window: VecDeque<(SimTime, u64, u64)>,
    last_scale: SimTime,
    /// Dead-declaration instants of lost replicas awaiting replacement
    /// (FIFO), so replacement latency spans detection → restored ack.
    owed_failovers: VecDeque<SimTime>,
    health: BTreeMap<u32, NodeHealth>,
    pending: BTreeMap<u64, PendingCmd>,
    next_seq: u64,
    sendq: VecDeque<(SockAddr, AppMessage)>,
    io: UdpLoop,
    next_tick: SimTime,
    /// Health baselining runs once, at the scheduler's first pump — boot
    /// counts as one big heartbeat.
    started: bool,
    /// The counters; [`report`](ControlPlane::report) fills in `desired`
    /// and `ready`.
    stats: ControlReport,
}

impl ControlPlane {
    /// Creates the scheduler over `spec`, serving on [`CONTROL_PORT`].
    ///
    /// # Panics
    ///
    /// On an invalid [`ControlConfig`] or a malformed [`ServiceSpec`]
    /// (pool over 128 entries, mismatched rack list, initial indices out
    /// of range) — construction bugs, not runtime faults.
    pub fn new(cfg: ControlConfig, spec: ServiceSpec) -> Self {
        cfg.validate().expect("invalid control-plane config");
        assert!(spec.pool.len() <= 128, "service pool exceeds the 128-bit wire mask");
        assert_eq!(spec.racks.len(), spec.pool.len(), "one rack per pool entry");
        assert!(
            spec.initial.iter().all(|&i| i < spec.pool.len()),
            "initial placement outside the pool"
        );
        let alive =
            NodeHealth { last_hb: SimTime::ZERO, dead_at: SimTime::ZERO, state: Health::Alive };
        let health = spec.pool.iter().map(|ep| (ep.node.0, alive)).collect();
        let initial: BTreeSet<usize> = spec.initial.iter().copied().collect();
        ControlPlane {
            cfg,
            spec,
            desired: initial.len(),
            assigned: initial.clone(),
            ready: initial,
            window: VecDeque::new(),
            last_scale: SimTime::ZERO,
            owed_failovers: VecDeque::new(),
            health,
            pending: BTreeMap::new(),
            next_seq: 0,
            sendq: VecDeque::new(),
            io: UdpLoop::Start,
            next_tick: SimTime::ZERO,
            started: false,
            stats: ControlReport::default(),
        }
    }

    /// Snapshot of the scheduler's counters for experiment results.
    pub fn report(&self) -> ControlReport {
        ControlReport { desired: self.desired, ready: self.ready.len(), ..self.stats.clone() }
    }

    /// The advertised liveness mask (tests/debugging).
    pub fn ready_mask(&self) -> u128 {
        mask_of(&self.ready)
    }

    fn enqueue_command(
        &mut self,
        pool_idx: usize,
        activate: bool,
        now: SimTime,
        failover_from: Option<SimTime>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let to = SockAddr::new(self.spec.pool[pool_idx].node, AGENT_PORT);
        let msg =
            AppMessage::new(KIND_ACTIVATE, seq, CTRL_BYTES, now).with_arg1(u64::from(activate));
        self.sendq.push_back((to, msg));
        self.pending.insert(
            seq,
            PendingCmd { pool_idx, activate, to, sent_at: now, tries: 1, failover_from },
        );
        self.stats.commands_sent += 1;
    }

    /// `true` when an activate/deactivate command for this replica is
    /// already in flight (dedupes rejoin drains against reconciliation).
    fn command_in_flight(&self, pool_idx: usize) -> bool {
        self.pending.values().any(|c| c.pool_idx == pool_idx)
    }

    fn handle_datagram(&mut self, from: SockAddr, msg: AppMessage, now: SimTime) {
        match msg.kind {
            KIND_HEARTBEAT => {
                self.stats.heartbeats += 1;
                let Some(was) = self.health.get(&from.node.0).map(|h| h.state) else { return };
                match was {
                    Health::Suspect => self.stats.false_positive_suspicions += 1,
                    Health::Dead => {
                        self.stats.rejoins += 1;
                        // Drain the rebooted node: any replica it still
                        // thinks it hosts but the scheduler re-placed
                        // elsewhere gets an explicit deactivate, so a
                        // stale gate cannot resurrect a moved replica.
                        let drains: Vec<usize> = (0..self.spec.pool.len())
                            .filter(|pi| {
                                self.spec.pool[*pi].node == from.node && !self.assigned.contains(pi)
                            })
                            .collect();
                        for pi in drains {
                            if !self.command_in_flight(pi) {
                                self.enqueue_command(pi, false, now, None);
                            }
                        }
                    }
                    Health::Alive => {}
                }
                let h = self.health.get_mut(&from.node.0).expect("presence checked above");
                h.state = Health::Alive;
                h.last_hb = now;
            }
            KIND_LOOKUP => {
                self.stats.lookups += 1;
                if msg.arg0 > 0 || msg.arg1 > 0 {
                    self.window.push_back((now, msg.arg0, msg.arg1));
                }
                let mask = mask_of(&self.ready);
                let reply = AppMessage::new(KIND_ENDPOINTS, msg.id, CTRL_BYTES, now)
                    .with_arg0(mask as u64)
                    .with_arg1((mask >> 64) as u64);
                self.sendq.push_back((from, reply));
            }
            KIND_ACK => {
                let Some(cmd) = self.pending.remove(&msg.id) else { return };
                self.stats.commands_acked += 1;
                if cmd.activate {
                    // Only mark ready if the placement still stands (it
                    // may have been scaled away while the ack flew).
                    if self.assigned.contains(&cmd.pool_idx) {
                        self.ready.insert(cmd.pool_idx);
                    }
                    if let Some(dead_at) = cmd.failover_from {
                        self.stats.failovers += 1;
                        self.stats
                            .replacement_latency
                            .record(now.saturating_duration_since(dead_at).as_nanos());
                    }
                }
            }
            _ => {}
        }
    }

    fn tick(&mut self, now: SimTime) {
        // 1. Health transitions from heartbeat silence.
        for h in self.health.values_mut() {
            let silent = now.saturating_duration_since(h.last_hb);
            if silent >= self.cfg.dead_after && h.state != Health::Dead {
                if h.state == Health::Alive {
                    self.stats.suspicions += 1;
                }
                h.state = Health::Dead;
                h.dead_at = now;
                self.stats.detections += 1;
            } else if silent >= self.cfg.suspect_after && h.state == Health::Alive {
                h.state = Health::Suspect;
                self.stats.suspicions += 1;
            }
        }

        // 2. Retry/expire unacked commands (before reconciliation so a
        // dropped activate frees its slot for re-placement this tick).
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, c)| now.saturating_duration_since(c.sent_at) >= COMMAND_TIMEOUT)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let cmd = self.pending.remove(&seq).expect("pending command vanished");
            if cmd.tries >= RETRY_BUDGET {
                self.stats.commands_dropped += 1;
                if cmd.activate {
                    self.assigned.remove(&cmd.pool_idx);
                    self.ready.remove(&cmd.pool_idx);
                    if let Some(dead_at) = cmd.failover_from {
                        self.owed_failovers.push_back(dead_at);
                    }
                }
            } else {
                let resend = AppMessage::new(KIND_ACTIVATE, seq, CTRL_BYTES, now)
                    .with_arg1(u64::from(cmd.activate));
                self.sendq.push_back((cmd.to, resend));
                self.stats.commands_retried += 1;
                self.pending.insert(seq, PendingCmd { sent_at: now, tries: cmd.tries + 1, ..cmd });
            }
        }

        // 3. Evict dead replicas, autoscale, converge.
        self.evict_dead();
        if self.cfg.autoscale {
            self.autoscale(now);
        }
        self.converge(now);
    }

    /// Removes replicas placed on dead nodes from the serving set and
    /// queues each loss for replacement-latency attribution.
    fn evict_dead(&mut self) {
        let dead_at = |i: usize| {
            self.health
                .get(&self.spec.pool[i].node.0)
                .filter(|h| h.state == Health::Dead)
                .map(|h| h.dead_at)
        };
        let dead: Vec<(usize, SimTime)> =
            self.assigned.iter().filter_map(|&i| Some((i, dead_at(i)?))).collect();
        for (i, at) in dead {
            self.assigned.remove(&i);
            self.ready.remove(&i);
            self.owed_failovers.push_back(at);
        }
    }

    /// SLO-driven replica-count adjustment with hysteresis and cooldown.
    fn autoscale(&mut self, now: SimTime) {
        /// Completions required in the window before the violation
        /// fraction is trusted (guards cold-start noise).
        const MIN_SAMPLES: u64 = 20;
        while let Some(&(at, _, _)) = self.window.front() {
            if now.saturating_duration_since(at) > SLO_WINDOW {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let (completed, violations) =
            self.window.iter().fold((0u64, 0u64), |(c, v), &(_, dc, dv)| (c + dc, v + dv));
        if completed < MIN_SAMPLES
            || now.saturating_duration_since(self.last_scale) < SCALE_COOLDOWN
        {
            return;
        }
        let frac = violations as f64 / completed as f64;
        if frac > self.cfg.scale_up_frac && self.desired < self.spec.pool.len() {
            self.desired += 1;
            self.last_scale = now;
            self.stats.scale_ups += 1;
        } else if frac < self.cfg.scale_down_frac && self.desired > MIN_REPLICAS {
            self.desired -= 1;
            self.last_scale = now;
            self.stats.scale_downs += 1;
        }
    }

    /// Converges the assigned set toward the desired count: places onto
    /// healthy unassigned pool nodes (least-populated rack first, ties by
    /// rack then pool index) and retires surplus replicas from the
    /// most-populated racks.
    fn converge(&mut self, now: SimTime) {
        // (rack population, rack, pool index) of pool entry `i`.
        let spread = |cp: &Self, i: usize| {
            let rack = cp.spec.racks[i];
            (cp.assigned.iter().filter(|&&j| cp.spec.racks[j] == rack).count(), rack, i)
        };
        while self.assigned.len() < self.desired {
            let candidate = (0..self.spec.pool.len())
                .filter(|i| !self.assigned.contains(i))
                .filter(|&i| {
                    self.health
                        .get(&self.spec.pool[i].node.0)
                        .is_some_and(|h| h.state == Health::Alive)
                })
                .filter(|&i| !self.command_in_flight(i))
                .min_by_key(|&i| spread(self, i));
            let Some(idx) = candidate else {
                self.stats.placement_stalls += 1;
                break;
            };
            self.assigned.insert(idx);
            let owed = self.owed_failovers.pop_front();
            self.enqueue_command(idx, true, now, owed);
        }
        while self.assigned.len() > self.desired {
            let victim = self
                .assigned
                .iter()
                .copied()
                .max_by_key(|&i| spread(self, i))
                .expect("assigned nonempty");
            self.assigned.remove(&victim);
            self.ready.remove(&victim);
            if !self.command_in_flight(victim) {
                self.enqueue_command(victim, false, now, None);
            }
        }
    }

    /// Refuses a restored pool index the rebuilt pool cannot hold: it
    /// would decode, then panic at the next tick (or shift the liveness
    /// mask past its 128 bits).
    fn check_pool_indices(&mut self) -> Result<(), SnapError> {
        let n = self.spec.pool.len();
        let pending = self.pending.values().map(|c| &c.pool_idx);
        match self.assigned.iter().chain(&self.ready).chain(pending).find(|&&i| i >= n) {
            Some(i) => Err(SnapError::Malformed(format!("pool index {i} of a service with {n}"))),
            None => Ok(()),
        }
    }
}

impl UdpGuest for ControlPlane {
    fn port(&self) -> Option<u16> {
        Some(CONTROL_PORT)
    }

    fn io(&mut self) -> &mut UdpLoop {
        &mut self.io
    }

    fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> Next {
        if !self.started {
            // Boot counts as one heartbeat from everyone: detection
            // windows start when the prober does.
            self.started = true;
            for h in self.health.values_mut() {
                h.last_hb = ctx.now;
            }
            self.next_tick = ctx.now + RECONCILE_EVERY;
        }
        while self.next_tick <= ctx.now {
            self.next_tick += RECONCILE_EVERY;
            self.tick(ctx.now);
        }
        match self.sendq.pop_front() {
            Some((to, msg)) => Next::Send(to, msg),
            None => Next::Wait(Some(self.next_tick.saturating_duration_since(ctx.now))),
        }
    }

    fn on_datagram(&mut self, from: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then {
        self.handle_datagram(from, msg, ctx.now);
        Then::ReadOn
    }
}

impl Process for ControlPlane {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        udp_loop::step(self, ctx)
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        let s = &self.stats;
        v.counter("control.heartbeats", s.heartbeats);
        v.counter("control.lookups", s.lookups);
        v.counter("control.suspicions", s.suspicions);
        v.counter("control.false_positive_suspicions", s.false_positive_suspicions);
        v.counter("control.detections", s.detections);
        v.counter("control.rejoins", s.rejoins);
        v.counter("control.failovers", s.failovers);
        v.counter("control.scale_ups", s.scale_ups);
        v.counter("control.scale_downs", s.scale_downs);
        v.counter("control.commands_sent", s.commands_sent);
        v.counter("control.commands_retried", s.commands_retried);
        v.counter("control.commands_acked", s.commands_acked);
        v.counter("control.commands_dropped", s.commands_dropped);
        v.counter("control.placement_stalls", s.placement_stalls);
        v.histogram("control.replacement_latency_ns", &s.replacement_latency);
        // The one service keeps the id clients look it up by, 0.
        v.gauge("control.service0.desired", self.desired as f64);
        v.gauge("control.service0.ready", self.ready.len() as f64);
    }

    fn reset(&mut self) -> bool {
        // A scheduler crash loses its socket and in-flight commands but
        // not its registry (modeling durable desired-state). Health is
        // re-baselined on reboot so the downtime itself does not declare
        // the whole cluster dead.
        self.io = UdpLoop::Start;
        self.sendq.clear();
        self.pending.clear();
        self.started = false;
        true
    }
}

// ====================================================================
// The per-node agent
// ====================================================================

/// The per-node control agent: heartbeats the scheduler on a staggered
/// period and executes placement commands by flipping its node's
/// [`GateState`] and waking the gated server's futex (on a node without a
/// gate it is a pure health beacon). A [`UdpGuest`] on [`AGENT_PORT`]:
/// it wakes the server, sends an ack or a due heartbeat, else waits for
/// a command until its next heartbeat.
#[derive(Debug)]
pub struct ControlAgent {
    control: SockAddr,
    heartbeat_every: SimDuration,
    /// Offset of this agent's first heartbeat, de-phasing the pool so the
    /// scheduler never sees every beacon in the same microsecond.
    stagger: SimDuration,
    io: UdpLoop,
    sendq: VecDeque<(SockAddr, AppMessage)>,
    wakeq: VecDeque<u64>,
    /// When the next heartbeat is due: `None` until the agent's first
    /// pump, which sets it `stagger` ahead.
    next_hb: Option<SimTime>,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Activate commands executed.
    pub activations: u64,
    /// Deactivate commands executed.
    pub deactivations: u64,
}

impl ControlAgent {
    /// Creates an agent heartbeating `control` every `heartbeat_every`,
    /// first after `stagger`.
    pub fn new(control: SockAddr, heartbeat_every: SimDuration, stagger: SimDuration) -> Self {
        assert!(!heartbeat_every.is_zero(), "heartbeat period must be positive");
        ControlAgent {
            control,
            heartbeat_every,
            stagger,
            io: UdpLoop::Start,
            sendq: VecDeque::new(),
            wakeq: VecDeque::new(),
            next_hb: None,
            heartbeats_sent: 0,
            activations: 0,
            deactivations: 0,
        }
    }
}

impl UdpGuest for ControlAgent {
    fn port(&self) -> Option<u16> {
        Some(AGENT_PORT)
    }

    fn io(&mut self) -> &mut UdpLoop {
        &mut self.io
    }

    fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> Next {
        if let Some(key) = self.wakeq.pop_front() {
            return Next::Wake(key);
        }
        if let Some((to, msg)) = self.sendq.pop_front() {
            return Next::Send(to, msg);
        }
        let due = self.next_hb.get_or_insert(ctx.now + self.stagger);
        if *due > ctx.now {
            return Next::Wait(Some(due.saturating_duration_since(ctx.now)));
        }
        while *due <= ctx.now {
            *due += self.heartbeat_every;
        }
        self.heartbeats_sent += 1;
        Next::Send(self.control, AppMessage::new(KIND_HEARTBEAT, 0, CTRL_BYTES, ctx.now))
    }

    fn on_datagram(&mut self, from: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then {
        if msg.kind == KIND_ACTIVATE {
            let active = msg.arg1 == 1;
            if active {
                self.activations += 1;
            } else {
                self.deactivations += 1;
            }
            if let Some(gate) = ctx.shm.find::<GateState>() {
                let g = ctx.shm.get_mut(gate);
                g.active = active;
                g.generation += 1;
                self.wakeq.push_back(GATE_FUTEX_KEY);
            }
            let ack = AppMessage::new(KIND_ACK, msg.id, CTRL_BYTES, ctx.now);
            self.sendq.push_back((from, ack));
        }
        Then::ReadOn
    }
}

impl Process for ControlAgent {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        udp_loop::step(self, ctx)
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("control.agent.heartbeats_sent", self.heartbeats_sent);
        v.counter("control.agent.activations", self.activations);
        v.counter("control.agent.deactivations", self.deactivations);
    }

    fn reset(&mut self) -> bool {
        // The reboot re-staggers from the configured offset.
        self.io = UdpLoop::Start;
        self.sendq.clear();
        self.wakeq.clear();
        self.next_hb = None;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

diablo_engine::impl_snap_enum!(Health as "control Health" { 0 => Alive, 1 => Suspect, 2 => Dead });

diablo_engine::impl_snap_struct!(NodeHealth { last_hb, dead_at, state });

diablo_engine::impl_snap_struct!(RegistryClient {
    live_mask,
    next_refresh,
    reported_completed,
    reported_violations,
    lookups_sent,
    endpoint_updates,
});

diablo_engine::impl_snap_struct!(PendingCmd {
    pool_idx,
    activate,
    to,
    sent_at,
    tries,
    failover_from
});

// `desired` and `ready` are the scheduler's own state, which `report`
// fills in.
diablo_engine::impl_persist_fields!(ControlReport {
    heartbeats,
    lookups,
    suspicions,
    false_positive_suspicions,
    detections,
    rejoins,
    failovers,
    scale_ups,
    scale_downs,
    commands_sent,
    commands_retried,
    commands_acked,
    commands_dropped,
    placement_stalls,
    replacement_latency,
    desired: derived,
    ready: derived,
});

// The pool is config; a restored index the rebuilt pool cannot hold is
// refused.
diablo_engine::impl_persist_fields!(ControlPlane {
    desired,
    assigned,
    ready,
    window,
    last_scale,
    owed_failovers,
    health,
    pending,
    next_seq,
    sendq,
    io,
    next_tick,
    started,
    stats: nested,
    cfg: config,
    spec: config,
} after_load = check_pool_indices);

diablo_engine::impl_persist_fields!(GateState { active, generation });

diablo_engine::impl_persist_fields!(ControlAgent {
    io,
    sendq,
    wakeq,
    next_hb,
    heartbeats_sent,
    activations,
    deactivations,
    control: config,
    heartbeat_every: config,
    stagger: config,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ControlConfig::default().validate().expect("defaults must be coherent");
    }

    #[test]
    fn validate_rejects_contradictions() {
        type Mutation = Box<dyn Fn(&mut ControlConfig)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("zero heartbeat", Box::new(|c| c.heartbeat_every = SimDuration::ZERO)),
            ("suspect <= heartbeat", Box::new(|c| c.suspect_after = c.heartbeat_every)),
            ("dead <= suspect", Box::new(|c| c.dead_after = c.suspect_after)),
            ("scale-up > 1", Box::new(|c| c.scale_up_frac = 1.5)),
            ("negative scale-down", Box::new(|c| c.scale_down_frac = -0.1)),
            (
                "no hysteresis gap",
                Box::new(|c| {
                    c.scale_up_frac = 0.1;
                    c.scale_down_frac = 0.1;
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut cfg = ControlConfig::default();
            mutate(&mut cfg);
            assert!(cfg.validate().is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn pick_live_selects_only_set_bits_and_is_replayable() {
        let mask: u128 = 0b1010_0110;
        let live = [1usize, 2, 5, 7];
        let mut rng = DetRng::new(42);
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            let i = pick_live(mask, 8, &mut rng).expect("mask has live bits");
            assert!(live.contains(&i), "picked a dead index {i}");
            seen.insert(i);
        }
        assert_eq!(seen.len(), 4, "200 draws must touch every live replica");
        // Replayable: the same stream picks the same sequence.
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..50 {
            assert_eq!(pick_live(mask, 8, &mut a), pick_live(mask, 8, &mut b));
        }
        // Empty mask: no draw, no panic.
        let before = a.next_u64();
        let mut c = DetRng::new(9);
        assert_eq!(pick_live(0, 8, &mut c), None);
        let mut d = DetRng::new(9);
        assert_eq!(c.next_u64(), d.next_u64(), "an empty mask must not consume the stream");
        let _ = before;
    }

    #[test]
    fn gate_flips_and_its_futex_key_clears_the_barrier_keys() {
        let mut g = GateState::default();
        assert!(!g.active);
        g.active = true;
        g.reboot();
        assert!(g.active, "a gate survives its node's reboot");
        // Far from the incast barrier keys (0xA / 0xB).
        const { assert!(GATE_FUTEX_KEY > 0xFF) };
    }

    fn spec_two_racks() -> ServiceSpec {
        ServiceSpec { pool: pool(4), racks: vec![0, 0, 1, 1], initial: vec![0, 2] }
    }

    fn pool(n: u32) -> Vec<SockAddr> {
        (0..n).map(|i| SockAddr::new(diablo_net::addr::NodeAddr(i), 11211)).collect()
    }

    #[test]
    fn scheduler_reconciles_a_dead_replica_onto_a_same_rack_spare() {
        let mut cp = ControlPlane::new(ControlConfig::default(), spec_two_racks());
        // Baseline everyone at t=10ms, then silence node 0 past the dead
        // threshold while the others keep beating.
        let t0 = SimTime::from_millis(10);
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        let late = t0 + SimDuration::from_millis(12);
        for node in [1u32, 2, 3] {
            cp.handle_datagram(
                SockAddr::new(diablo_net::addr::NodeAddr(node), AGENT_PORT),
                AppMessage::new(KIND_HEARTBEAT, 0, 64, late),
                late,
            );
        }
        cp.tick(late);
        assert_eq!(cp.stats.detections, 1, "node 0 must be declared dead");
        // Replacement lands on index 1 — the spare in the depleted rack.
        assert!(cp.assigned.contains(&1), "{:?}", cp.assigned);
        assert!(!cp.assigned.contains(&0));
        // Not ready (and not advertised) until the agent acks.
        assert_eq!(cp.ready_mask(), 0b100);
        let seq = *cp.pending.keys().next().expect("an activate must be pending");
        cp.handle_datagram(
            SockAddr::new(diablo_net::addr::NodeAddr(1), AGENT_PORT),
            AppMessage::new(KIND_ACK, seq, 64, late + SimDuration::from_micros(50)),
            late + SimDuration::from_micros(50),
        );
        assert_eq!(cp.ready_mask(), 0b110);
        assert_eq!(cp.stats.failovers, 1);
        assert_eq!(cp.stats.replacement_latency.count(), 1);
    }

    /// A snapshot naming a pool index the rebuilt pool cannot hold is
    /// refused at load, not at the next tick's `spec.pool[i]`.
    #[test]
    fn a_restored_pool_index_past_the_pool_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        ControlPlane::new(ControlConfig::default(), spec_two_racks()).save_state(&mut w);
        let bytes = w.into_bytes();
        let mut same = ControlPlane::new(ControlConfig::default(), spec_two_racks());
        same.load_state(&mut SnapReader::new(&bytes)).expect("the same pool restores");
        let two = ServiceSpec { pool: pool(2), racks: vec![0, 1], initial: vec![0] };
        let err = ControlPlane::new(ControlConfig::default(), two)
            .load_state(&mut SnapReader::new(&bytes))
            .expect_err("index 2 of a 2-entry pool is refused");
        assert!(err.to_string().contains("pool index 2 of a service with 2"), "{err}");
    }

    #[test]
    fn suspect_recovers_as_false_positive_without_eviction() {
        let mut cp = ControlPlane::new(ControlConfig::default(), spec_two_racks());
        let t0 = SimTime::from_millis(10);
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        // 6 ms of silence: past suspect (5 ms), short of dead (11 ms).
        let mid = t0 + SimDuration::from_millis(6);
        cp.tick(mid);
        assert_eq!(cp.stats.suspicions, 4, "every silent node turns suspect");
        assert_eq!(cp.stats.detections, 0);
        assert_eq!(cp.assigned, [0usize, 2].into_iter().collect());
        // A late heartbeat clears the suspicion.
        cp.handle_datagram(
            SockAddr::new(diablo_net::addr::NodeAddr(0), AGENT_PORT),
            AppMessage::new(KIND_HEARTBEAT, 0, 64, mid),
            mid,
        );
        assert_eq!(cp.stats.false_positive_suspicions, 1);
    }

    #[test]
    fn autoscaler_honors_hysteresis_cooldown_and_bounds() {
        let cfg = ControlConfig { autoscale: true, ..ControlConfig::default() };
        let mut cp = ControlPlane::new(cfg.clone(), spec_two_racks());
        let t0 = SimTime::from_millis(100);
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        let from = SockAddr::new(diablo_net::addr::NodeAddr(3), 9000);
        // A violating window: 100 completions, 40 violations.
        cp.handle_datagram(
            from,
            AppMessage::new(KIND_LOOKUP, 0, 64, t0).with_arg0(100).with_arg1(40),
            t0,
        );
        cp.last_scale = SimTime::ZERO;
        // Keep heartbeats fresh so health never interferes.
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        cp.tick(t0);
        assert_eq!(cp.stats.scale_ups, 1);
        assert_eq!(cp.desired, 3);
        // Cooldown: an equally bad window right after must not scale.
        let t1 = t0 + SimDuration::from_millis(2);
        cp.handle_datagram(
            from,
            AppMessage::new(KIND_LOOKUP, 0, 64, t1).with_arg0(100).with_arg1(40),
            t1,
        );
        for h in cp.health.values_mut() {
            h.last_hb = t1;
        }
        cp.tick(t1);
        assert_eq!(cp.stats.scale_ups, 1, "cooldown must suppress back-to-back scaling");
        // A healthy window after the cooldown scales back down — but the
        // in-between fraction (0.10) sits in the hysteresis gap and
        // leaves the count alone.
        let t2 = t1 + SCALE_COOLDOWN + SLO_WINDOW;
        cp.handle_datagram(
            from,
            AppMessage::new(KIND_LOOKUP, 0, 64, t2).with_arg0(100).with_arg1(10),
            t2,
        );
        for h in cp.health.values_mut() {
            h.last_hb = t2;
        }
        cp.tick(t2);
        assert_eq!(cp.stats.scale_ups, 1);
        assert_eq!(cp.stats.scale_downs, 0, "0.10 lies inside the hysteresis band");
        let t3 = t2 + SCALE_COOLDOWN + SLO_WINDOW;
        cp.handle_datagram(
            from,
            AppMessage::new(KIND_LOOKUP, 0, 64, t3).with_arg0(100).with_arg1(0),
            t3,
        );
        for h in cp.health.values_mut() {
            h.last_hb = t3;
        }
        cp.tick(t3);
        assert_eq!(cp.stats.scale_downs, 1);
        assert_eq!(cp.desired, 2);
    }

    #[test]
    fn unacked_commands_retry_then_drop_within_budget() {
        let mut cp = ControlPlane::new(ControlConfig::default(), spec_two_racks());
        let mut now = SimTime::from_millis(10);
        for h in cp.health.values_mut() {
            h.last_hb = now;
        }
        cp.desired = 3; // forces one activate
        cp.tick(now);
        assert_eq!(cp.stats.commands_sent, 1);
        assert_eq!(cp.pending.len(), 1);
        // Each timeout short of the budget resends. Keep every node's
        // heartbeat fresh so health stays out of the picture.
        for retried in 1..RETRY_BUDGET {
            now += COMMAND_TIMEOUT;
            for h in cp.health.values_mut() {
                h.last_hb = now;
            }
            cp.tick(now);
            assert_eq!(cp.stats.commands_retried, u64::from(retried));
        }
        // The next timeout exhausts the budget: dropped and un-assigned —
        // and the same reconciliation pass re-places it (a fresh
        // command), so the tier converges instead of wedging.
        now += COMMAND_TIMEOUT;
        for h in cp.health.values_mut() {
            h.last_hb = now;
        }
        cp.tick(now);
        assert_eq!(cp.stats.commands_dropped, 1);
        assert_eq!(cp.stats.commands_sent, 2, "the dropped slot must be re-placed");
    }
}
