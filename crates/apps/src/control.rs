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
//! * [`ControlPlane`] — one scheduler process holding the service
//!   registry (desired replica counts, placement spread across racks),
//!   a per-node heartbeat-driven health state machine
//!   (alive → suspect → dead), and a periodic reconciliation tick that
//!   re-places replicas off dead nodes, scales the replica count against
//!   an SLO signal with hysteresis, and drains rebooted nodes back in as
//!   spares.
//! * [`ControlAgent`] — one per pool node: sends heartbeats, executes
//!   activate/deactivate commands by flipping a host-shared
//!   [`ServiceGate`] and waking the gated server through a futex, and
//!   acks so the scheduler's retry budget can bound command loss.
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

use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use diablo_stack::socket::EventMask;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// UDP port the [`ControlPlane`] scheduler serves on.
pub const CONTROL_PORT: u16 = 7100;
/// UDP port each [`ControlAgent`] serves on.
pub const AGENT_PORT: u16 = 7101;

/// Agent → scheduler liveness beacon (the sender's node identifies it).
pub const KIND_HEARTBEAT: u32 = 40;
/// Client → scheduler registry lookup; `id` = service, `arg0`/`arg1` =
/// completed/violation deltas since the client's last lookup.
pub const KIND_LOOKUP: u32 = 41;
/// Scheduler → client endpoint set; `id` = service, `arg0`|`arg1` = the
/// low/high halves of the 128-bit liveness mask over the service pool.
pub const KIND_ENDPOINTS: u32 = 42;
/// Scheduler → agent placement command; `id` = command sequence number,
/// `arg0` = service, `arg1` = 1 to activate / 0 to deactivate.
pub const KIND_ACTIVATE: u32 = 43;
/// Agent → scheduler command acknowledgement echoing the sequence number.
pub const KIND_ACK: u32 = 44;

/// Wire size of a control datagram payload (fits any 1500-byte MTU with
/// room to spare; heartbeats and commands are tiny in real planes too).
const CTRL_BYTES: u32 = 64;

/// Futex key an agent wakes when it flips `service`'s gate. Offset far
/// above the incast barrier keys (0xA/0xB) so a pool node can host both.
pub const fn gate_futex_key(service: u32) -> u64 {
    0xC0DE_0000 | service as u64
}

// ====================================================================
// Gates — how an agent starts/stops a co-located server process
// ====================================================================

/// Host-shared activation flag for one service replica on one node.
/// The gated server checks it before binding; the agent flips it on
/// command and wakes the server's futex.
#[derive(Debug, Default)]
pub struct GateState {
    /// Whether this replica should serve.
    pub active: bool,
    /// Bumped on every flip (debugging aid; the futex carries the wake).
    pub generation: u64,
}

/// Shared handle to one replica's [`GateState`]. Both sides live on the
/// same simulated node, so sharing memory models pthread-style IPC, not
/// a network channel.
pub type ServiceGate = Arc<Mutex<GateState>>;

/// Creates a gate in the given initial state.
pub fn service_gate(active: bool) -> ServiceGate {
    Arc::new(Mutex::new(GateState { active, generation: 0 }))
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
    /// Service id to look up.
    pub service: u32,
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

    /// The lookup to send to `d.control` now, if one is due: it reports
    /// the `completed` and `violations` the client counted since its last
    /// lookup. The first call makes one due at once.
    pub fn lookup_due(
        &mut self,
        d: &DiscoveryConfig,
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
        let lookup = AppMessage::new(KIND_LOOKUP, u64::from(d.service), CTRL_BYTES, now)
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
/// Minimum spacing between scaling decisions for one service.
pub const SCALE_COOLDOWN: SimDuration = SimDuration::from_millis(20);
/// Command resend attempts before the scheduler gives up on a placement
/// (the anti-flap retry budget).
pub const RETRY_BUDGET: u32 = 3;
/// Silence before an unacked command is resent.
pub const COMMAND_TIMEOUT: SimDuration = SimDuration::from_millis(4);
/// Replica floor per service; the ceiling is the whole pool.
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

/// One schedulable service: a fixed address pool (≤ 128 endpoints so
/// liveness fits the wire mask), the co-located agents, each endpoint's
/// rack (for placement spread), and the initially active pool indices.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Service id (what clients put in [`KIND_LOOKUP`]).
    pub id: u32,
    /// Every endpoint that *could* host a replica, active or standby.
    pub pool: Vec<SockAddr>,
    /// The agent endpoint co-located with each pool entry.
    pub agents: Vec<SockAddr>,
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
    /// Per-service (id, desired, ready-and-serving) at scrape time.
    pub replicas: Vec<(u32, usize, usize)>,
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
struct ServiceState {
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
}

#[derive(Debug)]
struct PendingCmd {
    service: usize,
    pool_idx: usize,
    activate: bool,
    to: SockAddr,
    sent_at: SimTime,
    tries: u32,
    /// Dead-declaration instant this activation is replacing, if any.
    failover_from: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpState {
    Start,
    Socketed,
    NbSet,
    Bound,
    EpollCreated,
    Registered,
    Pump,
    SendDone,
    Waiting,
    Drain,
}

/// The scheduler process: one nonblocking `epoll` loop over a UDP socket
/// multiplexing heartbeats, registry lookups and command acks, plus a
/// periodic reconciliation tick. See the module docs for the protocol.
#[derive(Debug)]
pub struct ControlPlane {
    cfg: ControlConfig,
    port: u16,
    services: Vec<ServiceState>,
    health: BTreeMap<u32, NodeHealth>,
    pending: BTreeMap<u64, PendingCmd>,
    next_seq: u64,
    sendq: VecDeque<(SockAddr, AppMessage)>,
    state: CpState,
    fd: Option<Fd>,
    epfd: Option<Fd>,
    next_tick: SimTime,
    /// Health baselining runs once, at the instant the scheduler's event
    /// loop first becomes ready — boot counts as one big heartbeat.
    started: bool,
    // --- counters (see ControlReport) ---
    heartbeats: u64,
    lookups: u64,
    suspicions: u64,
    false_positive_suspicions: u64,
    detections: u64,
    rejoins: u64,
    failovers: u64,
    scale_ups: u64,
    scale_downs: u64,
    commands_sent: u64,
    commands_retried: u64,
    commands_acked: u64,
    commands_dropped: u64,
    placement_stalls: u64,
    replacement_latency: Histogram,
}

impl ControlPlane {
    /// Creates the scheduler over `services`, serving on `port`.
    ///
    /// # Panics
    ///
    /// On an invalid [`ControlConfig`] or a malformed [`ServiceSpec`]
    /// (pool over 128 entries, mismatched agent/rack lists, initial
    /// indices out of range) — construction bugs, not runtime faults.
    pub fn new(cfg: ControlConfig, services: Vec<ServiceSpec>, port: u16) -> Self {
        cfg.validate().expect("invalid control-plane config");
        let mut health = BTreeMap::new();
        let states = services
            .into_iter()
            .map(|spec| {
                assert!(spec.pool.len() <= 128, "service pool exceeds the 128-bit wire mask");
                assert_eq!(spec.agents.len(), spec.pool.len(), "one agent per pool entry");
                assert_eq!(spec.racks.len(), spec.pool.len(), "one rack per pool entry");
                assert!(
                    spec.initial.iter().all(|&i| i < spec.pool.len()),
                    "initial placement outside the pool"
                );
                for agent in &spec.agents {
                    health.entry(agent.node.0).or_insert(NodeHealth {
                        last_hb: SimTime::ZERO,
                        dead_at: SimTime::ZERO,
                        state: Health::Alive,
                    });
                }
                let initial: BTreeSet<usize> = spec.initial.iter().copied().collect();
                ServiceState {
                    desired: initial.len(),
                    assigned: initial.clone(),
                    ready: initial,
                    window: VecDeque::new(),
                    last_scale: SimTime::ZERO,
                    owed_failovers: VecDeque::new(),
                    spec,
                }
            })
            .collect();
        ControlPlane {
            cfg,
            port,
            services: states,
            health,
            pending: BTreeMap::new(),
            next_seq: 0,
            sendq: VecDeque::new(),
            state: CpState::Start,
            fd: None,
            epfd: None,
            next_tick: SimTime::ZERO,
            started: false,
            heartbeats: 0,
            lookups: 0,
            suspicions: 0,
            false_positive_suspicions: 0,
            detections: 0,
            rejoins: 0,
            failovers: 0,
            scale_ups: 0,
            scale_downs: 0,
            commands_sent: 0,
            commands_retried: 0,
            commands_acked: 0,
            commands_dropped: 0,
            placement_stalls: 0,
            replacement_latency: Histogram::new(),
        }
    }

    /// Snapshot of the scheduler's counters for experiment results.
    pub fn report(&self) -> ControlReport {
        ControlReport {
            heartbeats: self.heartbeats,
            lookups: self.lookups,
            suspicions: self.suspicions,
            false_positive_suspicions: self.false_positive_suspicions,
            detections: self.detections,
            rejoins: self.rejoins,
            failovers: self.failovers,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            commands_sent: self.commands_sent,
            commands_retried: self.commands_retried,
            commands_acked: self.commands_acked,
            commands_dropped: self.commands_dropped,
            placement_stalls: self.placement_stalls,
            replacement_latency: self.replacement_latency.clone(),
            replicas: self.services.iter().map(|s| (s.spec.id, s.desired, s.ready.len())).collect(),
        }
    }

    /// The advertised liveness mask for service `idx` (tests/debugging).
    pub fn ready_mask(&self, idx: usize) -> u128 {
        mask_of(&self.services[idx].ready)
    }

    fn enqueue_command(
        &mut self,
        service: usize,
        pool_idx: usize,
        activate: bool,
        now: SimTime,
        failover_from: Option<SimTime>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let to = self.services[service].spec.agents[pool_idx];
        let msg = AppMessage::new(KIND_ACTIVATE, seq, CTRL_BYTES, now)
            .with_arg0(u64::from(self.services[service].spec.id))
            .with_arg1(u64::from(activate));
        self.sendq.push_back((to, msg));
        self.pending.insert(
            seq,
            PendingCmd { service, pool_idx, activate, to, sent_at: now, tries: 1, failover_from },
        );
        self.commands_sent += 1;
    }

    /// `true` when an activate/deactivate command for this replica is
    /// already in flight (dedupes rejoin drains against reconciliation).
    fn command_in_flight(&self, service: usize, pool_idx: usize) -> bool {
        self.pending.values().any(|c| c.service == service && c.pool_idx == pool_idx)
    }

    fn handle_datagram(&mut self, from: SockAddr, msg: AppMessage, now: SimTime) {
        match msg.kind {
            KIND_HEARTBEAT => {
                self.heartbeats += 1;
                let Some(was) = self.health.get(&from.node.0).map(|h| h.state) else { return };
                match was {
                    Health::Suspect => self.false_positive_suspicions += 1,
                    Health::Dead => {
                        self.rejoins += 1;
                        // Drain the rebooted node: any replica it still
                        // thinks it hosts but the scheduler re-placed
                        // elsewhere gets an explicit deactivate, so a
                        // stale gate cannot resurrect a moved replica.
                        let drains: Vec<(usize, usize)> = self
                            .services
                            .iter()
                            .enumerate()
                            .flat_map(|(si, svc)| {
                                svc.spec
                                    .pool
                                    .iter()
                                    .enumerate()
                                    .filter(|(pi, ep)| {
                                        ep.node == from.node && !svc.assigned.contains(pi)
                                    })
                                    .map(move |(pi, _)| (si, pi))
                            })
                            .collect();
                        for (si, pi) in drains {
                            if !self.command_in_flight(si, pi) {
                                self.enqueue_command(si, pi, false, now, None);
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
                self.lookups += 1;
                let Some(svc) = self.services.iter_mut().find(|s| u64::from(s.spec.id) == msg.id)
                else {
                    return;
                };
                if msg.arg0 > 0 || msg.arg1 > 0 {
                    svc.window.push_back((now, msg.arg0, msg.arg1));
                }
                let mask = mask_of(&svc.ready);
                let reply = AppMessage::new(KIND_ENDPOINTS, msg.id, CTRL_BYTES, now)
                    .with_arg0(mask as u64)
                    .with_arg1((mask >> 64) as u64);
                self.sendq.push_back((from, reply));
            }
            KIND_ACK => {
                let Some(cmd) = self.pending.remove(&msg.id) else { return };
                self.commands_acked += 1;
                if cmd.activate {
                    let svc = &mut self.services[cmd.service];
                    // Only mark ready if the placement still stands (it
                    // may have been scaled away while the ack flew).
                    if svc.assigned.contains(&cmd.pool_idx) {
                        svc.ready.insert(cmd.pool_idx);
                    }
                    if let Some(dead_at) = cmd.failover_from {
                        self.failovers += 1;
                        self.replacement_latency
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
                    self.suspicions += 1;
                }
                h.state = Health::Dead;
                h.dead_at = now;
                self.detections += 1;
            } else if silent >= self.cfg.suspect_after && h.state == Health::Alive {
                h.state = Health::Suspect;
                self.suspicions += 1;
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
                self.commands_dropped += 1;
                if cmd.activate {
                    let svc = &mut self.services[cmd.service];
                    svc.assigned.remove(&cmd.pool_idx);
                    svc.ready.remove(&cmd.pool_idx);
                    if let Some(dead_at) = cmd.failover_from {
                        svc.owed_failovers.push_back(dead_at);
                    }
                }
            } else {
                let resend = AppMessage::new(KIND_ACTIVATE, seq, CTRL_BYTES, now)
                    .with_arg0(u64::from(self.services[cmd.service].spec.id))
                    .with_arg1(u64::from(cmd.activate));
                self.sendq.push_back((cmd.to, resend));
                self.commands_retried += 1;
                self.pending.insert(seq, PendingCmd { sent_at: now, tries: cmd.tries + 1, ..cmd });
            }
        }

        // 3. Per-service: evict dead replicas, autoscale, converge.
        for si in 0..self.services.len() {
            self.evict_dead(si);
            if self.cfg.autoscale {
                self.autoscale(si, now);
            }
            self.converge(si, now);
        }
    }

    /// Removes replicas placed on dead nodes from the serving set and
    /// queues each loss for replacement-latency attribution.
    fn evict_dead(&mut self, si: usize) {
        let svc = &mut self.services[si];
        let dead: Vec<usize> = svc
            .assigned
            .iter()
            .copied()
            .filter(|&i| {
                self.health.get(&svc.spec.pool[i].node.0).is_some_and(|h| h.state == Health::Dead)
            })
            .collect();
        for i in dead {
            svc.assigned.remove(&i);
            svc.ready.remove(&i);
            let dead_at = self.health[&svc.spec.pool[i].node.0].dead_at;
            svc.owed_failovers.push_back(dead_at);
        }
    }

    /// SLO-driven replica-count adjustment with hysteresis and cooldown.
    fn autoscale(&mut self, si: usize, now: SimTime) {
        /// Completions required in the window before the violation
        /// fraction is trusted (guards cold-start noise).
        const MIN_SAMPLES: u64 = 20;
        let svc = &mut self.services[si];
        while let Some(&(at, _, _)) = svc.window.front() {
            if now.saturating_duration_since(at) > SLO_WINDOW {
                svc.window.pop_front();
            } else {
                break;
            }
        }
        let (completed, violations) =
            svc.window.iter().fold((0u64, 0u64), |(c, v), &(_, dc, dv)| (c + dc, v + dv));
        if completed < MIN_SAMPLES || now.saturating_duration_since(svc.last_scale) < SCALE_COOLDOWN
        {
            return;
        }
        let frac = violations as f64 / completed as f64;
        if frac > self.cfg.scale_up_frac && svc.desired < svc.spec.pool.len() {
            svc.desired += 1;
            svc.last_scale = now;
            self.scale_ups += 1;
        } else if frac < self.cfg.scale_down_frac && svc.desired > MIN_REPLICAS {
            svc.desired -= 1;
            svc.last_scale = now;
            self.scale_downs += 1;
        }
    }

    /// Converges the assigned set toward the desired count: places onto
    /// healthy unassigned pool nodes (least-populated rack first, ties by
    /// rack then pool index) and retires surplus replicas from the
    /// most-populated racks.
    fn converge(&mut self, si: usize, now: SimTime) {
        while self.services[si].assigned.len() < self.services[si].desired {
            let svc = &self.services[si];
            let rack_pop =
                |rack: u32| svc.assigned.iter().filter(|&&i| svc.spec.racks[i] == rack).count();
            let candidate = (0..svc.spec.pool.len())
                .filter(|i| !svc.assigned.contains(i))
                .filter(|&i| {
                    self.health
                        .get(&svc.spec.pool[i].node.0)
                        .is_some_and(|h| h.state == Health::Alive)
                })
                .filter(|&i| !self.command_in_flight(si, i))
                .min_by_key(|&i| (rack_pop(svc.spec.racks[i]), svc.spec.racks[i], i));
            let Some(idx) = candidate else {
                self.placement_stalls += 1;
                break;
            };
            self.services[si].assigned.insert(idx);
            let owed = self.services[si].owed_failovers.pop_front();
            self.enqueue_command(si, idx, true, now, owed);
        }
        while self.services[si].assigned.len() > self.services[si].desired {
            let svc = &self.services[si];
            let rack_pop =
                |rack: u32| svc.assigned.iter().filter(|&&i| svc.spec.racks[i] == rack).count();
            let victim = svc
                .assigned
                .iter()
                .copied()
                .max_by_key(|&i| (rack_pop(svc.spec.racks[i]), svc.spec.racks[i], i))
                .expect("assigned nonempty");
            let svc = &mut self.services[si];
            svc.assigned.remove(&victim);
            svc.ready.remove(&victim);
            if !self.command_in_flight(si, victim) {
                self.enqueue_command(si, victim, false, now, None);
            }
        }
    }
}

impl Process for ControlPlane {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                CpState::Start => {
                    self.state = CpState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                CpState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fd = Some(fd);
                    self.state = CpState::NbSet;
                    return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                }
                CpState::NbSet => {
                    assert_eq!(ctx.result, SysResult::Done, "fcntl failed");
                    let fd = self.fd.expect("no fd");
                    self.state = CpState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.port });
                }
                CpState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = CpState::EpollCreated;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                CpState::EpollCreated => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = CpState::Registered;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.fd.expect("no fd"),
                        interest: EventMask::READ,
                    });
                }
                CpState::Registered => {
                    if !self.started {
                        // Boot counts as one heartbeat from everyone:
                        // detection windows start when the prober does.
                        self.started = true;
                        for h in self.health.values_mut() {
                            h.last_hb = ctx.now;
                        }
                        self.next_tick = ctx.now + RECONCILE_EVERY;
                    }
                    self.state = CpState::Pump;
                    continue;
                }
                CpState::Pump => {
                    while self.next_tick <= ctx.now {
                        self.next_tick += RECONCILE_EVERY;
                        self.tick(ctx.now);
                    }
                    if let Some((to, msg)) = self.sendq.pop_front() {
                        self.state = CpState::SendDone;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.fd.expect("no fd"),
                            to,
                            msg,
                        });
                    }
                    self.state = CpState::Waiting;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 64,
                        timeout: Some(self.next_tick.saturating_duration_since(ctx.now)),
                    });
                }
                CpState::SendDone => {
                    self.state = CpState::Pump;
                    continue;
                }
                CpState::Waiting => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Events(evs) => {
                        if evs.is_empty() {
                            self.state = CpState::Pump;
                            continue;
                        }
                        self.state = CpState::Drain;
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    other => panic!("control-plane epoll_wait failed: {other:?}"),
                },
                CpState::Drain => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Datagram { from, msg } => {
                        self.handle_datagram(from, msg, ctx.now);
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    SysResult::Err(Errno::WouldBlock) => {
                        self.state = CpState::Pump;
                        continue;
                    }
                    other => panic!("control-plane recvfrom failed: {other:?}"),
                },
            }
        }
    }

    fn label(&self) -> &str {
        "control-plane"
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("control.heartbeats", self.heartbeats);
        v.counter("control.lookups", self.lookups);
        v.counter("control.suspicions", self.suspicions);
        v.counter("control.false_positive_suspicions", self.false_positive_suspicions);
        v.counter("control.detections", self.detections);
        v.counter("control.rejoins", self.rejoins);
        v.counter("control.failovers", self.failovers);
        v.counter("control.scale_ups", self.scale_ups);
        v.counter("control.scale_downs", self.scale_downs);
        v.counter("control.commands_sent", self.commands_sent);
        v.counter("control.commands_retried", self.commands_retried);
        v.counter("control.commands_acked", self.commands_acked);
        v.counter("control.commands_dropped", self.commands_dropped);
        v.counter("control.placement_stalls", self.placement_stalls);
        v.histogram("control.replacement_latency_ns", &self.replacement_latency);
        for svc in &self.services {
            v.gauge(&format!("control.service{}.desired", svc.spec.id), svc.desired as f64);
            v.gauge(&format!("control.service{}.ready", svc.spec.id), svc.ready.len() as f64);
        }
    }

    fn reset(&mut self) -> bool {
        // A scheduler crash loses its socket and in-flight commands but
        // not its registry (modeling durable desired-state). Health is
        // re-baselined on reboot so the downtime itself does not declare
        // the whole cluster dead.
        self.state = CpState::Start;
        self.fd = None;
        self.epfd = None;
        self.sendq.clear();
        self.pending.clear();
        self.started = false;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// The per-node agent
// ====================================================================

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgState {
    Start,
    Socketed,
    NbSet,
    Bound,
    EpollCreated,
    Registered,
    Pump,
    SendDone,
    WakeDone,
    Waiting,
    Drain,
}

/// The per-node control agent: heartbeats the scheduler on a staggered
/// period and executes placement commands by flipping the co-located
/// [`ServiceGate`] and waking the gated server's futex. Runs the same
/// nonblocking `epoll` loop shape as every other server in the repo.
#[derive(Debug)]
pub struct ControlAgent {
    control: SockAddr,
    heartbeat_every: SimDuration,
    /// Offset of this agent's first heartbeat, de-phasing the pool so the
    /// scheduler never sees every beacon in the same microsecond.
    stagger: SimDuration,
    gates: BTreeMap<u32, ServiceGate>,
    state: AgState,
    fd: Option<Fd>,
    epfd: Option<Fd>,
    sendq: VecDeque<(SockAddr, AppMessage)>,
    wakeq: VecDeque<u64>,
    next_hb: SimTime,
    hb_init: bool,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Activate commands executed.
    pub activations: u64,
    /// Deactivate commands executed.
    pub deactivations: u64,
}

impl ControlAgent {
    /// Creates an agent heartbeating `control`, executing commands
    /// against `gates` (service id → gate of the co-located replica; an
    /// empty map makes the agent a pure health beacon).
    pub fn new(
        control: SockAddr,
        heartbeat_every: SimDuration,
        stagger: SimDuration,
        gates: BTreeMap<u32, ServiceGate>,
    ) -> Self {
        assert!(!heartbeat_every.is_zero(), "heartbeat period must be positive");
        ControlAgent {
            control,
            heartbeat_every,
            stagger,
            gates,
            state: AgState::Start,
            fd: None,
            epfd: None,
            sendq: VecDeque::new(),
            wakeq: VecDeque::new(),
            next_hb: SimTime::ZERO,
            hb_init: false,
            heartbeats_sent: 0,
            activations: 0,
            deactivations: 0,
        }
    }
}

impl Process for ControlAgent {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                AgState::Start => {
                    self.state = AgState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                AgState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.fd = Some(fd);
                    self.state = AgState::NbSet;
                    return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                }
                AgState::NbSet => {
                    assert_eq!(ctx.result, SysResult::Done, "fcntl failed");
                    let fd = self.fd.expect("no fd");
                    self.state = AgState::Bound;
                    return Step::Syscall(Syscall::Bind { fd, port: AGENT_PORT });
                }
                AgState::Bound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = AgState::EpollCreated;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                AgState::EpollCreated => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = AgState::Registered;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.fd.expect("no fd"),
                        interest: EventMask::READ,
                    });
                }
                AgState::Registered => {
                    if !self.hb_init {
                        self.hb_init = true;
                        self.next_hb = ctx.now + self.stagger;
                    }
                    self.state = AgState::Pump;
                    continue;
                }
                AgState::Pump => {
                    if let Some(key) = self.wakeq.pop_front() {
                        self.state = AgState::WakeDone;
                        return Step::Syscall(Syscall::FutexWake { key });
                    }
                    if let Some((to, msg)) = self.sendq.pop_front() {
                        self.state = AgState::SendDone;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.fd.expect("no fd"),
                            to,
                            msg,
                        });
                    }
                    if ctx.now >= self.next_hb {
                        while self.next_hb <= ctx.now {
                            self.next_hb += self.heartbeat_every;
                        }
                        self.heartbeats_sent += 1;
                        let hb = AppMessage::new(KIND_HEARTBEAT, 0, CTRL_BYTES, ctx.now);
                        self.state = AgState::SendDone;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.fd.expect("no fd"),
                            to: self.control,
                            msg: hb,
                        });
                    }
                    self.state = AgState::Waiting;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 16,
                        timeout: Some(self.next_hb.saturating_duration_since(ctx.now)),
                    });
                }
                AgState::SendDone | AgState::WakeDone => {
                    self.state = AgState::Pump;
                    continue;
                }
                AgState::Waiting => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Events(evs) => {
                        if evs.is_empty() {
                            self.state = AgState::Pump;
                            continue;
                        }
                        self.state = AgState::Drain;
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    other => panic!("agent epoll_wait failed: {other:?}"),
                },
                AgState::Drain => match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                    SysResult::Datagram { from, msg } => {
                        if msg.kind == KIND_ACTIVATE {
                            let service = msg.arg0 as u32;
                            let active = msg.arg1 == 1;
                            if active {
                                self.activations += 1;
                            } else {
                                self.deactivations += 1;
                            }
                            if let Some(gate) = self.gates.get(&service) {
                                let mut g = gate.lock().expect("gate poisoned");
                                g.active = active;
                                g.generation += 1;
                                self.wakeq.push_back(gate_futex_key(service));
                            }
                            let ack = AppMessage::new(KIND_ACK, msg.id, CTRL_BYTES, ctx.now);
                            self.sendq.push_back((from, ack));
                        }
                        return Step::Syscall(Syscall::RecvFrom { fd: self.fd.expect("no fd") });
                    }
                    SysResult::Err(Errno::WouldBlock) => {
                        self.state = AgState::Pump;
                        continue;
                    }
                    other => panic!("agent recvfrom failed: {other:?}"),
                },
            }
        }
    }

    fn label(&self) -> &str {
        "control-agent"
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("control.agent.heartbeats_sent", self.heartbeats_sent);
        v.counter("control.agent.activations", self.activations);
        v.counter("control.agent.deactivations", self.deactivations);
    }

    fn reset(&mut self) -> bool {
        // Gates are host memory shared with the server — they survive the
        // crash exactly as the server's own reset sees them. The reboot
        // re-staggers from the configured offset.
        self.state = AgState::Start;
        self.fd = None;
        self.epfd = None;
        self.sendq.clear();
        self.wakeq.clear();
        self.hb_init = false;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
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
    service,
    pool_idx,
    activate,
    to,
    sent_at,
    tries,
    failover_from
});

diablo_engine::impl_snap_enum!(CpState as "control CpState" {
    0 => Start,
    1 => Socketed,
    2 => NbSet,
    3 => Bound,
    4 => EpollCreated,
    5 => Registered,
    6 => Pump,
    7 => SendDone,
    8 => Waiting,
    9 => Drain,
});

diablo_engine::impl_snap_enum!(AgState as "control AgState" {
    0 => Start,
    1 => Socketed,
    2 => NbSet,
    3 => Bound,
    4 => EpollCreated,
    5 => Registered,
    6 => Pump,
    7 => SendDone,
    8 => WakeDone,
    9 => Waiting,
    10 => Drain,
});

// Each service's `spec` is config, so the per-service table carries only
// the evolving fields and the load validates the service count against
// the rebuilt registry.
diablo_engine::impl_persist_fields!(ServiceState {
    desired,
    assigned,
    ready,
    window,
    last_scale,
    owed_failovers,
    spec: config,
});

diablo_engine::impl_persist_fields!(ControlPlane {
    services: nested,
    health,
    pending,
    next_seq,
    sendq,
    state,
    fd,
    epfd,
    next_tick,
    started,
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
    cfg: config,
    port: config,
});

diablo_engine::impl_persist_fields!(GateState { active, generation });

// The agent is the single owner of the node's service gates: the
// gated servers share the `Arc` but never persist its contents (the
// dispatcher's Persist documents the same contract from its side).
diablo_engine::impl_persist_fields!(ControlAgent {
    state,
    fd,
    epfd,
    sendq,
    wakeq,
    next_hb,
    hb_init,
    heartbeats_sent,
    activations,
    deactivations,
    gates: nested,
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
    fn gate_flip_and_futex_key_are_per_service() {
        let g = service_gate(false);
        assert!(!g.lock().unwrap().active);
        g.lock().unwrap().active = true;
        assert!(g.lock().unwrap().active);
        assert_ne!(gate_futex_key(0), gate_futex_key(1));
        // Far from the incast barrier keys (0xA / 0xB).
        assert!(gate_futex_key(0) > 0xFF);
    }

    fn spec_two_racks() -> ServiceSpec {
        use diablo_net::addr::NodeAddr;
        let pool: Vec<SockAddr> = (0..4).map(|i| SockAddr::new(NodeAddr(i), 11211)).collect();
        let agents: Vec<SockAddr> =
            (0..4).map(|i| SockAddr::new(NodeAddr(i), AGENT_PORT)).collect();
        ServiceSpec { id: 0, pool, agents, racks: vec![0, 0, 1, 1], initial: vec![0, 2] }
    }

    #[test]
    fn scheduler_reconciles_a_dead_replica_onto_a_same_rack_spare() {
        let mut cp = ControlPlane::new(ControlConfig::default(), vec![spec_two_racks()], 7100);
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
        assert_eq!(cp.detections, 1, "node 0 must be declared dead");
        // Replacement lands on index 1 — the spare in the depleted rack.
        assert!(cp.services[0].assigned.contains(&1), "{:?}", cp.services[0].assigned);
        assert!(!cp.services[0].assigned.contains(&0));
        // Not ready (and not advertised) until the agent acks.
        assert_eq!(cp.ready_mask(0), 0b100);
        let seq = *cp.pending.keys().next().expect("an activate must be pending");
        cp.handle_datagram(
            SockAddr::new(diablo_net::addr::NodeAddr(1), AGENT_PORT),
            AppMessage::new(KIND_ACK, seq, 64, late + SimDuration::from_micros(50)),
            late + SimDuration::from_micros(50),
        );
        assert_eq!(cp.ready_mask(0), 0b110);
        assert_eq!(cp.failovers, 1);
        assert_eq!(cp.replacement_latency.count(), 1);
    }

    #[test]
    fn suspect_recovers_as_false_positive_without_eviction() {
        let mut cp = ControlPlane::new(ControlConfig::default(), vec![spec_two_racks()], 7100);
        let t0 = SimTime::from_millis(10);
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        // 6 ms of silence: past suspect (5 ms), short of dead (11 ms).
        let mid = t0 + SimDuration::from_millis(6);
        cp.tick(mid);
        assert_eq!(cp.suspicions, 4, "every silent node turns suspect");
        assert_eq!(cp.detections, 0);
        assert_eq!(cp.services[0].assigned, [0usize, 2].into_iter().collect());
        // A late heartbeat clears the suspicion.
        cp.handle_datagram(
            SockAddr::new(diablo_net::addr::NodeAddr(0), AGENT_PORT),
            AppMessage::new(KIND_HEARTBEAT, 0, 64, mid),
            mid,
        );
        assert_eq!(cp.false_positive_suspicions, 1);
    }

    #[test]
    fn autoscaler_honors_hysteresis_cooldown_and_bounds() {
        let cfg = ControlConfig { autoscale: true, ..ControlConfig::default() };
        let mut cp = ControlPlane::new(cfg.clone(), vec![spec_two_racks()], 7100);
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
        cp.services[0].last_scale = SimTime::ZERO;
        // Keep heartbeats fresh so health never interferes.
        for h in cp.health.values_mut() {
            h.last_hb = t0;
        }
        cp.tick(t0);
        assert_eq!(cp.scale_ups, 1);
        assert_eq!(cp.services[0].desired, 3);
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
        assert_eq!(cp.scale_ups, 1, "cooldown must suppress back-to-back scaling");
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
        assert_eq!(cp.scale_ups, 1);
        assert_eq!(cp.scale_downs, 0, "0.10 lies inside the hysteresis band");
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
        assert_eq!(cp.scale_downs, 1);
        assert_eq!(cp.services[0].desired, 2);
    }

    #[test]
    fn unacked_commands_retry_then_drop_within_budget() {
        let mut cp = ControlPlane::new(ControlConfig::default(), vec![spec_two_racks()], 7100);
        let mut now = SimTime::from_millis(10);
        for h in cp.health.values_mut() {
            h.last_hb = now;
        }
        cp.services[0].desired = 3; // forces one activate
        cp.tick(now);
        assert_eq!(cp.commands_sent, 1);
        assert_eq!(cp.pending.len(), 1);
        // Each timeout short of the budget resends. Keep every node's
        // heartbeat fresh so health stays out of the picture.
        for retried in 1..RETRY_BUDGET {
            now += COMMAND_TIMEOUT;
            for h in cp.health.values_mut() {
                h.last_hb = now;
            }
            cp.tick(now);
            assert_eq!(cp.commands_retried, u64::from(retried));
        }
        // The next timeout exhausts the budget: dropped and un-assigned —
        // and the same reconciliation pass re-places it (a fresh
        // command), so the tier converges instead of wedging.
        now += COMMAND_TIMEOUT;
        for h in cp.health.values_mut() {
            h.last_hb = now;
        }
        cp.tick(now);
        assert_eq!(cp.commands_dropped, 1);
        assert_eq!(cp.commands_sent, 2, "the dropped slot must be re-placed");
    }
}
