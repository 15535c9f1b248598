//! The abstract packet-switch model.
//!
//! DIABLO uses "a unified abstract virtual-output-queue switch model with a
//! simple round-robin scheduler for all levels of switch. Switch models in
//! different layers of the network hierarchy differ only in their link
//! latency, bandwidth, and buffer configuration parameters" (§3.3). The
//! model here follows that design:
//!
//! * **Functional model**: interpret the frame's source route (or a static
//!   forwarding table), move the frame to the chosen output queue.
//! * **Timing model**: a configurable port-to-port processing latency
//!   (covering the abstracted packet-processor pipeline), per-output FIFO
//!   queues with either *per-port dedicated* buffers (the Cisco
//!   Nexus-5000-style configuration DIABLO models) or a *shared buffer pool*
//!   (the Asante/Nortel-style switches used in the paper's validation
//!   clusters), and store-and-forward or cut-through egress.
//!
//! Buffer occupancy is counted in IP bytes from admission until the frame
//! begins transmission, and frames that do not fit are tail-dropped — the
//! mechanism behind TCP Incast collapse (§4.1).
//!
//! # A timer only for what admission cannot know
//!
//! The port-to-port latency is a constant, so on DIABLO's FPGAs it costs
//! the host nothing: it is a number added to a token's target-clock
//! arrival time (§3.2). Here too. A frame admitted at `t` whose output is
//! provably idle at `t + latency` — nothing for that output queued, in
//! the pipeline or awaiting departure, the wire free by then, every port
//! lossless and no fault directive due first — is put on the wire *now*
//! with start time `t + latency`, and the switch schedules nothing for
//! it. Its buffer bytes stay counted until `t + latency` in a small FIFO
//! of commitments that is retired before every admission decision, so
//! tail drops, ECN marks and the buffer high-water mark are exactly those
//! of a switch that ran a timer through the event queue.
//!
//! A frame that finds its output busy needs no timer either when the
//! output's next departure is already decided: one is pending after the
//! frame's exit, or the output is empty and its wire reserved well past
//! the exit, so the departure the exit would arm is armed at admission.
//! The frame waits in the pipeline FIFO and joins its virtual output
//! queue when a handler next needs the queues. Only a frame whose output
//! might be idle at its exit keeps its timer. DESIGN.md §9.1 has the
//! argument.

use crate::frame::Frame;
use crate::link::{LinkParams, LinkState, PortPeer, TxPort};
use diablo_engine::component::{Component, Ctx};
use diablo_engine::event::{PortNo, TimerKey};
use diablo_engine::metrics::{FlightRecord, FlightRing, Instrumented, MetricsVisitor};
use diablo_engine::prelude::{Counter, DetRng};
use diablo_engine::time::{SimDuration, SimTime};
use std::any::Any;
use std::collections::VecDeque;

/// Packet buffer organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferConfig {
    /// Each output port owns a dedicated buffer (virtual-output-queue style
    /// partitioning; DIABLO's model).
    PerPort {
        /// Buffer bytes per output port.
        bytes_per_port: u32,
    },
    /// All ports share one buffer pool (common in low-cost ToR switches).
    Shared {
        /// Total buffer bytes for the whole switch.
        total_bytes: u32,
    },
}

/// Egress forwarding discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// The frame is fully buffered before transmission begins on the output
    /// link.
    StoreAndForward,
    /// Transmission may begin while the frame is still arriving; an
    /// uncontended hop adds only the port-to-port latency.
    CutThrough,
}

/// Where a switch sits in a fat-tree, for per-hop ECMP port selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosRole {
    /// An edge switch: `edge` is its global edge index.
    Edge {
        /// Global edge-switch index (`pod * k/2 + position`).
        edge: usize,
    },
    /// An aggregation switch of `pod` (any of the pod's `k/2`).
    Aggregation {
        /// Pod index.
        pod: usize,
    },
    /// A core switch (port number = destination pod, no hashing needed).
    Core,
}

/// Parameters for flow-consistent ECMP over a `k`-ary fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcmpConfig {
    /// Fat-tree arity.
    pub k: usize,
    /// Hosts per edge switch (fixes the host → edge mapping).
    pub hosts_per_edge: usize,
    /// This switch's position in the fabric.
    pub role: ClosRole,
}

/// How the functional model picks an output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingMode {
    /// Use the frame's pre-computed source route (paper default).
    Source,
    /// Flow-consistent ECMP on a fat-tree: downward ports are fixed by the
    /// destination address, upward ports are picked by a deterministic
    /// 5-tuple hash seeded per-switch, so a flow always takes the same
    /// path and serial/partition-parallel runs stay bit-identical.
    Ecmp(EcmpConfig),
}

/// SplitMix64 finalizer: the avalanche core of the ECMP flow hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic ECMP flow hash: a pure function of the switch seed and
/// the flow 5-tuple (src, dst, src port, dst port, protocol). Public so
/// tests can assert path choice is history-independent.
pub fn ecmp_hash(seed: u64, src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> u64 {
    let mut x = splitmix(seed ^ ((src as u64) << 32 | dst as u64));
    x = splitmix(x ^ ((src_port as u64) << 24 | (dst_port as u64) << 8 | proto as u64));
    x
}

/// The flow 5-tuple's transport part: `(src_port, dst_port, protocol)`.
fn transport_tuple(packet: &crate::payload::IpPacket) -> (u16, u16, u8) {
    match &packet.transport {
        crate::payload::Transport::Tcp(s) => (s.src_port, s.dst_port, 6),
        crate::payload::Transport::Udp(d) => (d.src_port, d.dst_port, 17),
    }
}

/// Static switch parameters. All are runtime-configurable, enabling
/// design-space exploration without "re-synthesis".
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Human-readable name for diagnostics.
    pub name: String,
    /// Number of ports.
    pub ports: u16,
    /// Port-to-port processing latency (1 µs for commodity GbE in the
    /// paper's experiments, 100 ns for the simulated 10 GbE fabric).
    pub latency: SimDuration,
    /// Buffer organization and size.
    pub buffer: BufferConfig,
    /// Egress discipline.
    pub forwarding: ForwardingMode,
    /// Output-port selection.
    pub routing: RoutingMode,
    /// ECN marking threshold in queued IP bytes per output port: a frame
    /// admitted while its output queue exceeds the threshold gets its
    /// Congestion Experienced bit set (DCTCP's step-function AQM). `None`
    /// disables marking.
    pub ecn_threshold: Option<u32>,
}

impl SwitchConfig {
    /// A shallow-buffer commodity Gigabit Ethernet switch: 1 µs port-to-port
    /// latency and 4 KB of dedicated buffer per port, as configured for the
    /// paper's first Incast experiment (Nortel 5500-like).
    pub fn shallow_gbe(name: impl Into<String>, ports: u16) -> Self {
        SwitchConfig {
            name: name.into(),
            ports,
            latency: SimDuration::from_micros(1),
            buffer: BufferConfig::PerPort { bytes_per_port: 4096 },
            forwarding: ForwardingMode::StoreAndForward,
            routing: RoutingMode::Source,
            ecn_threshold: None,
        }
    }
}

/// Aggregate and per-port switch statistics.
#[derive(Debug, Clone, Default)]
pub struct SwitchStats {
    /// Frames received on any port.
    pub rx_frames: Counter,
    /// Frames fully transmitted.
    pub tx_frames: Counter,
    /// IP bytes received.
    pub rx_bytes: Counter,
    /// IP bytes transmitted.
    pub tx_bytes: Counter,
    /// Frames dropped for lack of buffer space.
    pub drops_buffer: Counter,
    /// Frames dropped by link soft errors.
    pub drops_error: Counter,
    /// Frames dropped because no valid output port existed.
    pub drops_route: Counter,
    /// Frames dropped by an injected fault: flushed from buffers when a
    /// port or the whole switch went down, or offered to a carrier-less
    /// link. Part of the frame-conservation book, so `DropAccounting`
    /// balances under every fault class.
    pub drops_fault: Counter,
    /// Frames whose Congestion Experienced bit this switch set (admitted
    /// while the output queue exceeded [`SwitchConfig::ecn_threshold`]).
    pub ecn_marked: Counter,
    /// High-water mark of total buffered bytes.
    pub max_buffered_bytes: u64,
    /// Per-output-port buffer-drop counts.
    pub port_drops: Vec<u64>,
    /// Frames received per ingress port (out-of-range ingress ports are
    /// not counted here, only in [`SwitchStats::rx_frames`]).
    pub rx_per_port: Vec<u64>,
    /// Frames delivered per egress port (excludes loss-dropped frames,
    /// matching [`SwitchStats::tx_frames`]).
    pub tx_per_port: Vec<u64>,
}

#[derive(Debug, Clone)]
struct QueuedFrame {
    frame: Frame,
    /// Ingress port (selects the virtual output queue).
    in_port: u16,
    /// When the frame's first bit reached the ingress port.
    rx_start: SimTime,
    /// When the frame's last bit reached the ingress port.
    arrival: SimTime,
}

/// A frame crossing the processing pipeline. Its exit is
/// `qf.arrival + latency`.
#[derive(Debug, Clone)]
struct PipelineEntry {
    /// The sequence number its `KIND_FORWARD` timer carries; `None` when
    /// the frame rides its output's pending departure and joins its VOQ
    /// when a handler next needs the VOQs after its exit
    /// ([`PacketSwitch::settle_pipeline`]).
    timer: Option<u64>,
    out: u16,
    qf: QueuedFrame,
}

/// How a frame admitted now crosses the pipeline to its output
/// (DESIGN.md §9.1).
enum Crossing {
    /// The output is idle at the exit: on the wire now, start time `exit`.
    Commit,
    /// A `KIND_DEPART` is pending after the exit: it will find the frame
    /// in its VOQ.
    Ride,
    /// The output is empty but its wire stays reserved past the exit: arm
    /// the `KIND_DEPART` the exit would have armed at this instant, now,
    /// and ride it.
    ArmAndRide(SimTime),
    /// The output might be idle at the exit: a `KIND_FORWARD` timer finds
    /// out.
    Timer,
}

/// A frame already on `out`'s wire whose buffer bytes stay counted until
/// the instant it would have left the pipeline.
#[derive(Debug, Clone, Copy)]
struct Commitment {
    release_at: SimTime,
    out: u16,
    bytes: u32,
}

diablo_engine::impl_snap_struct!(QueuedFrame { frame, in_port, rx_start, arrival });
diablo_engine::impl_snap_struct!(PipelineEntry { timer, out, qf });
diablo_engine::impl_snap_struct!(Commitment { release_at, out, bytes });
diablo_engine::impl_snap_struct!(SwitchStats {
    rx_frames,
    tx_frames,
    rx_bytes,
    tx_bytes,
    drops_buffer,
    drops_error,
    drops_route,
    drops_fault,
    ecn_marked,
    max_buffered_bytes,
    port_drops,
    rx_per_port,
    tx_per_port
});

const KIND_FORWARD: u64 = 0;
const KIND_DEPART: u64 = 1;
const KIND_FAULT: u64 = 2;

/// A fault directive addressed to a switch.
///
/// A switch holds its directives as a schedule
/// ([`PacketSwitch::schedule_fault`]): it knows every one of them from
/// the start, and the timer that applies one at its instant carries no
/// payload, so serial and partition-parallel runs stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchFault {
    /// Take one output port's link down: buffered frames for that output
    /// are flushed to [`SwitchStats::drops_fault`], and frames routed to it
    /// while down are dropped there too.
    PortDown {
        /// The output port losing carrier.
        port: u16,
    },
    /// Restore one output port's link to its base (healthy) parameters.
    PortUp {
        /// The output port regaining carrier.
        port: u16,
    },
    /// Degrade one output port's link: bandwidth scaled and loss replaced,
    /// both fp20 fixed point (see [`crate::link::fp20_encode`]).
    PortDegraded {
        /// The affected output port.
        port: u16,
        /// fp20 bandwidth scale factor in `(0, FP20_ONE]`.
        bandwidth_factor_fp20: u64,
        /// fp20 frame-loss probability in `[0, FP20_ONE]`.
        loss_rate_fp20: u64,
    },
    /// Power the whole switch off: every buffered and in-pipeline frame is
    /// flushed to [`SwitchStats::drops_fault`] and arriving frames drop.
    SwitchDown,
    /// Power the switch back on (per-port link states are preserved).
    SwitchUp,
}

diablo_engine::impl_snap_enum!(SwitchFault {
    0 => PortDown { port },
    1 => PortUp { port },
    2 => PortDegraded { port, bandwidth_factor_fp20, loss_rate_fp20 },
    3 => SwitchDown,
    4 => SwitchUp,
});

impl SwitchFault {
    /// The output port the directive names, if it names one.
    fn port(self) -> Option<u16> {
        match self {
            SwitchFault::PortDown { port }
            | SwitchFault::PortUp { port }
            | SwitchFault::PortDegraded { port, .. } => Some(port),
            SwitchFault::SwitchDown | SwitchFault::SwitchUp => None,
        }
    }

    fn trace_detail(self) -> &'static str {
        match self {
            SwitchFault::PortDown { .. } => "port_down",
            SwitchFault::PortUp { .. } => "port_up",
            SwitchFault::PortDegraded { .. } => "port_degraded",
            SwitchFault::SwitchDown => "switch_down",
            SwitchFault::SwitchUp => "switch_up",
        }
    }
}

/// The virtual-output-queue packet switch component.
///
/// Ports are wired with [`PacketSwitch::connect_port`] before the simulation
/// starts; unwired ports drop frames routed to them.
#[derive(Debug)]
pub struct PacketSwitch {
    cfg: SwitchConfig,
    ports: Vec<Option<TxPort>>,
    /// Virtual output queues: `voqs[out][in]` (prevents head-of-line
    /// blocking between inputs contending for the same output).
    voqs: Vec<Vec<VecDeque<QueuedFrame>>>,
    /// Frames queued per output, across its VOQs.
    queued_frames: Vec<u32>,
    /// Round-robin arbitration pointer per output (the paper's "simple
    /// round-robin scheduler").
    rr_next: Vec<u16>,
    /// IP bytes admitted per output and not yet released: frames in the
    /// pipeline, in VOQs, and committed to the wire ahead of their pipeline
    /// exit. This — not [`PacketSwitch::buffered_bytes`] — is what
    /// admission and ECN marking see.
    queued_bytes: Vec<u64>,
    total_buffered: u64,
    /// A `KIND_DEPART` is pending for the output. Nothing transmits on an
    /// output while one is, so it is due at the output's `next_free`.
    depart_pending: Vec<bool>,
    /// Frames crossing the pipeline, behind a `KIND_FORWARD` timer or
    /// riding a departure. The latency is fixed, so the pipeline is a FIFO
    /// in exit order: timers fire in the order entries were pushed.
    in_flight: VecDeque<PipelineEntry>,
    /// `in_flight` entries per output.
    in_pipeline: Vec<u32>,
    forward_seq: u64,
    /// Frames committed to the wire at admission, oldest first.
    committed: VecDeque<Commitment>,
    /// The fault directives still to apply, in time order; directives due
    /// at one instant keep the order they were scheduled in. Nothing is
    /// committed, ridden or armed at admission past the first.
    faults: VecDeque<(SimTime, SwitchFault)>,
    /// No wired port drops frames at random. Committing early draws the
    /// per-frame loss sample early, and arming a departure at admission
    /// can reorder two outputs' same-instant draws; either is only
    /// unobservable while every draw on this switch's RNG comes out the
    /// same way.
    lossless: bool,
    /// Always `true` outside this module's tests, which build the
    /// timer-per-frame switch as their reference.
    early_commit: bool,
    /// Healthy link parameters per wired port, captured at connect time so
    /// `PortUp` can undo a degradation.
    base_params: Vec<Option<LinkParams>>,
    /// Fault-driven per-port link state (egress direction).
    link_state: Vec<LinkState>,
    /// Whole-switch power state (`SwitchDown`/`SwitchUp` faults).
    switch_down: bool,
    rng: DetRng,
    /// ECMP hash seed, fixed at construction from the identity-derived RNG
    /// (never re-drawn per packet: the per-packet loss draws on `rng` are
    /// arrival-order dependent, which would break flow consistency).
    ecmp_seed: u64,
    trace: Option<FlightRing>,
    stats: SwitchStats,
}

impl PacketSwitch {
    /// Creates a switch with all ports unwired.
    pub fn new(cfg: SwitchConfig, rng: DetRng) -> Self {
        let n = cfg.ports as usize;
        let ecmp_seed = rng.derive(0xEC4B).next_u64();
        PacketSwitch {
            stats: SwitchStats {
                port_drops: vec![0; n],
                rx_per_port: vec![0; n],
                tx_per_port: vec![0; n],
                ..SwitchStats::default()
            },
            ports: vec![None; n],
            voqs: (0..n).map(|_| (0..n).map(|_| VecDeque::new()).collect()).collect(),
            queued_frames: vec![0; n],
            rr_next: vec![0; n],
            queued_bytes: vec![0; n],
            total_buffered: 0,
            depart_pending: vec![false; n],
            in_flight: VecDeque::new(),
            in_pipeline: vec![0; n],
            forward_seq: 0,
            committed: VecDeque::new(),
            faults: VecDeque::new(),
            lossless: true,
            early_commit: true,
            base_params: vec![None; n],
            link_state: vec![LinkState::Up; n],
            switch_down: false,
            rng,
            ecmp_seed,
            trace: None,
            cfg,
        }
    }

    /// The timer-per-frame switch: every admitted frame crosses the
    /// pipeline behind its own `KIND_FORWARD` timer. Tests compare the
    /// shipped switch against it; nothing else can build one.
    #[cfg(test)]
    fn without_early_commit(mut self) -> Self {
        self.early_commit = false;
        self
    }

    /// This switch's fixed ECMP hash seed.
    pub fn ecmp_seed(&self) -> u64 {
        self.ecmp_seed
    }

    /// Resolves the ECMP output port for `packet` — a pure function of the
    /// switch seed, the fabric position and the flow 5-tuple. Downward
    /// ports (toward the destination's pod/edge/host) are deterministic;
    /// upward ports hash the flow over the `k/2` uplinks.
    pub fn ecmp_port(ecmp: &EcmpConfig, seed: u64, packet: &crate::payload::IpPacket) -> u16 {
        let half = ecmp.k / 2;
        let (src_port, dst_port, proto) = transport_tuple(packet);
        let h = ecmp_hash(seed, packet.src.0, packet.dst.0, src_port, dst_port, proto);
        let dst_edge = packet.dst.index() / ecmp.hosts_per_edge;
        match ecmp.role {
            ClosRole::Edge { edge } => {
                if dst_edge == edge {
                    (packet.dst.index() % ecmp.hosts_per_edge) as u16
                } else {
                    (ecmp.hosts_per_edge + h as usize % half) as u16
                }
            }
            ClosRole::Aggregation { pod } => {
                if dst_edge / half == pod {
                    (dst_edge % half) as u16
                } else {
                    (half + h as usize % half) as u16
                }
            }
            ClosRole::Core => (dst_edge / half) as u16,
        }
    }

    /// Wires output `port` to a peer.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range, or if the link's loss rate is not
    /// a probability (unreachable through the public `LinkParams` API,
    /// which validates in `try_with_loss_rate`; kept as defense in depth).
    pub fn connect_port(&mut self, port: u16, peer: PortPeer) {
        assert!(
            peer.params.loss_rate_is_valid(),
            "port {port} loss_rate {} is not a probability",
            peer.params.loss_rate()
        );
        let slot =
            self.ports.get_mut(port as usize).unwrap_or_else(|| panic!("port {port} out of range"));
        *slot = Some(TxPort::new(peer));
        self.base_params[port as usize] = Some(peer.params);
        self.refresh_lossless();
    }

    /// Adds `fault` to this switch's schedule, due at `at` after every
    /// directive already due then, and returns the key of the timer that
    /// applies it: inject that timer at `at`, once per scheduled directive.
    ///
    /// # Panics
    ///
    /// Panics if the directive names a port this switch does not have.
    pub fn schedule_fault(&mut self, at: SimTime, fault: SwitchFault) -> TimerKey {
        if let Some(port) = fault.port() {
            assert!(port < self.cfg.ports, "switch {}: no port {port}", self.cfg.name);
        }
        let slot = self.faults.partition_point(|&(due, _)| due <= at);
        self.faults.insert(slot, (at, fault));
        KIND_FAULT
    }

    /// `true` when no scheduled directive is due before `t`.
    fn no_fault_before(&self, t: SimTime) -> bool {
        self.faults.front().is_none_or(|&(due, _)| due >= t)
    }

    fn refresh_lossless(&mut self) {
        self.lossless = self.ports.iter().flatten().all(|tx| tx.peer.params.loss_rate() == 0.0);
    }

    /// Starts recording enqueue/drop trace events into a bounded ring of
    /// `capacity` records (for the cross-layer flight recorder).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(FlightRing::new(capacity));
    }

    /// A copy of the recorded trace events (empty when tracing is off).
    pub fn trace(&self) -> Vec<FlightRecord> {
        self.trace.as_ref().map(FlightRing::records).unwrap_or_default()
    }

    /// Frames inside the switch right now: buffered in VOQs plus crossing
    /// the port-to-port processing pipeline. Zero once the network has
    /// quiesced — the drop-accounting invariant requires it.
    pub fn frames_in_transit(&self) -> u64 {
        self.in_flight.len() as u64 + self.queued_frames.iter().map(|&q| q as u64).sum::<u64>()
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// The fault-driven link state of one output port.
    pub fn link_state(&self, port: u16) -> LinkState {
        self.link_state[port as usize]
    }

    /// `true` while a `SwitchDown` fault is in effect.
    pub fn is_down(&self) -> bool {
        self.switch_down
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Total IP bytes currently buffered: frames in the pipeline and in
    /// VOQs. A frame committed to the wire at admission has left the
    /// buffer as far as this accessor (and the `buffered_bytes` gauge) can
    /// tell, up to one pipeline latency before admission stops counting it.
    pub fn buffered_bytes(&self) -> u64 {
        self.total_buffered - self.committed.iter().map(|c| u64::from(c.bytes)).sum::<u64>()
    }

    /// Stops counting committed frames whose pipeline exit a
    /// timer-per-frame switch would already have processed when it handles
    /// the event being delivered: every exit before `now`, and an exit at
    /// exactly `now` iff the switch's own timer sorts ahead of the event,
    /// i.e. its id is below the event's source (see [`Ctx::source`]).
    fn retire_commitments(&mut self, ctx: &Ctx<'_, Frame>) {
        let now = ctx.now();
        let own_timers_first = ctx.self_id() < ctx.source();
        while let Some(&Commitment { release_at, out, bytes }) = self.committed.front() {
            if release_at > now || (release_at == now && !own_timers_first) {
                break;
            }
            self.committed.pop_front();
            self.release(out, bytes);
        }
    }

    /// What a `KIND_FORWARD` timer at `exit` for a frame admitted now to
    /// the wired output `out` would find, when that is already decided.
    fn crossing(&self, out: u16, exit: SimTime) -> Crossing {
        let oi = out as usize;
        if !(self.early_commit && self.lossless && self.no_fault_before(exit)) {
            return Crossing::Timer;
        }
        let next_free = self.ports[oi].as_ref().map_or(SimTime::ZERO, TxPort::next_free);
        if self.depart_pending[oi] {
            // The departure is due at `next_free`; at `exit` the handler
            // would only queue the frame behind it.
            return if next_free > exit { Crossing::Ride } else { Crossing::Timer };
        }
        if self.in_pipeline[oi] > 0 || self.queued_frames[oi] > 0 {
            return Crossing::Timer;
        }
        if next_free <= exit {
            return Crossing::Commit;
        }
        // At `exit` the handler would arm a departure at `next_free`.
        // Arming it now moves its issue point, which no same-instant event
        // can observe: no admission between now and `exit` has a timer at
        // `next_free` (the margin), and no directive is due before it, so
        // the switch stays lossless.
        let margin = next_free > exit + self.cfg.latency;
        if margin && self.no_fault_before(next_free) {
            Crossing::ArmAndRide(next_free)
        } else {
            Crossing::Timer
        }
    }

    /// Moves every pipeline entry that rides a departure and whose exit is
    /// not after `now` into its VOQ, as its `KIND_FORWARD` timer would
    /// have. Called first by every handler that reads or flushes VOQs. An
    /// entry whose exit is `now` is one whose timer would already have
    /// run: a directive is external and sorts after it, and a departure or
    /// forwarding timer at `now` either serves another output or was armed
    /// before the entry could ride it (DESIGN.md §9.1).
    fn settle_pipeline(&mut self, now: SimTime) {
        let latency = self.cfg.latency;
        while self
            .in_flight
            .front()
            .is_some_and(|e| e.timer.is_none() && e.qf.arrival + latency <= now)
        {
            let PipelineEntry { out, qf, .. } =
                self.in_flight.pop_front().expect("front entry just seen");
            let exit = qf.arrival + latency;
            self.leave_pipeline(out, qf, exit);
        }
    }

    /// A frame leaves the pipeline at `exit`: into its VOQ, or dropped if
    /// its output lost carrier or the switch went down while it crossed.
    fn leave_pipeline(&mut self, out: u16, qf: QueuedFrame, exit: SimTime) {
        let oi = out as usize;
        self.in_pipeline[oi] -= 1;
        if self.switch_down || !self.link_state[oi].has_carrier() {
            let ip_bytes = qf.frame.packet.ip_bytes();
            self.release(out, ip_bytes);
            self.drop_for_fault(Some(out), exit, ip_bytes);
            return;
        }
        self.voqs[oi][qf.in_port as usize].push_back(qf);
        self.queued_frames[oi] += 1;
    }

    fn arm_depart(&mut self, out: u16, at: SimTime, ctx: &mut Ctx<'_, Frame>) {
        self.depart_pending[out as usize] = true;
        ctx.set_timer_at(at, (out as u64) << 4 | KIND_DEPART);
    }

    /// Puts `qf` on `out`'s wire no earlier than `at` and delivers it to
    /// the peer, or counts the link's soft-error drop. Returns when the
    /// last bit leaves.
    fn transmit(
        &mut self,
        out: u16,
        qf: QueuedFrame,
        at: SimTime,
        ctx: &mut Ctx<'_, Frame>,
    ) -> SimTime {
        let oi = out as usize;
        let wire = qf.frame.wire_bytes();
        let ip_bytes = qf.frame.packet.ip_bytes();
        let tx = self.ports[oi].as_mut().expect("queued frame on unwired port");
        let timing = match self.cfg.forwarding {
            ForwardingMode::StoreAndForward => tx.transmit(at, wire),
            ForwardingMode::CutThrough => {
                // The first bit may start leaving as soon as the header
                // cleared processing (possibly before `at` on an idle
                // wire — TxPort resolves against its busy time), but the
                // last bit cannot leave before it finished arriving plus
                // the processing latency, which keeps delivery causal.
                let earliest = qf.rx_start + self.cfg.latency;
                let min_end = qf.arrival + self.cfg.latency;
                tx.transmit_constrained(earliest, min_end, wire)
            }
        };
        let peer = tx.peer;
        debug_assert!(
            peer.params.loss_rate_is_valid(),
            "port {out} loss_rate {} is not a probability",
            peer.params.loss_rate()
        );
        if self.rng.chance(peer.params.loss_rate()) {
            self.stats.drops_error.incr();
            if let Some(tr) = &mut self.trace {
                tr.push(FlightRecord {
                    at: timing.end,
                    kind: "sw_drop",
                    detail: "error",
                    a: out as u64,
                    b: ip_bytes as u64,
                });
            }
        } else {
            self.stats.tx_frames.incr();
            self.stats.tx_bytes.add(ip_bytes as u64);
            self.stats.tx_per_port[oi] += 1;
            ctx.send_at(peer.component, peer.port, timing.arrival, qf.frame);
        }
        timing.end
    }

    fn admit(&mut self, out: u16, bytes: u32) -> bool {
        let fits = match self.cfg.buffer {
            BufferConfig::PerPort { bytes_per_port } => {
                self.queued_bytes[out as usize] + bytes as u64 <= bytes_per_port as u64
            }
            BufferConfig::Shared { total_bytes } => {
                self.total_buffered + bytes as u64 <= total_bytes as u64
            }
        };
        if fits {
            self.queued_bytes[out as usize] += bytes as u64;
            self.total_buffered += bytes as u64;
            self.stats.max_buffered_bytes = self.stats.max_buffered_bytes.max(self.total_buffered);
        }
        fits
    }

    fn release(&mut self, out: u16, bytes: u32) {
        self.queued_bytes[out as usize] -= bytes as u64;
        self.total_buffered -= bytes as u64;
    }

    /// Starts transmitting the head of `out`'s queue if the port is not
    /// already scheduled. Consults the fault-driven link state: a down port
    /// (or a powered-off switch) never transmits.
    fn kick(&mut self, out: u16, ctx: &mut Ctx<'_, Frame>) {
        let oi = out as usize;
        if self.switch_down || !self.link_state[oi].has_carrier() {
            return;
        }
        if self.depart_pending[oi] {
            return;
        }
        if self.queued_frames[oi] == 0 {
            return;
        }
        let now = ctx.now();
        let next_free = self.ports[oi].as_ref().expect("queued frame on unwired port").next_free();
        if next_free > now {
            // Wire busy and no departure pending: wake when it frees.
            self.arm_depart(out, next_free, ctx);
            return;
        }
        // Round-robin across the output's non-empty VOQs.
        let n = self.cfg.ports as usize;
        let start = self.rr_next[oi] as usize;
        let in_q = (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| !self.voqs[oi][i].is_empty())
            .expect("queued_frames nonzero but all VOQs empty");
        self.rr_next[oi] = ((in_q + 1) % n) as u16;
        let qf = self.voqs[oi][in_q].pop_front().expect("front frame vanished");
        self.queued_frames[oi] -= 1;
        self.release(out, qf.frame.packet.ip_bytes());
        let end = self.transmit(out, qf, now, ctx);
        if self.queued_frames[oi] > 0 {
            self.arm_depart(out, end, ctx);
        }
    }

    fn drop_for_buffer(&mut self, out: u16, now: SimTime, ip_bytes: u32) {
        self.stats.drops_buffer.incr();
        self.stats.port_drops[out as usize] += 1;
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord {
                at: now,
                kind: "sw_drop",
                detail: "buffer",
                a: out as u64,
                b: ip_bytes as u64,
            });
        }
    }

    fn drop_for_route(&mut self, now: SimTime, ip_bytes: u32) {
        self.stats.drops_route.incr();
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord {
                at: now,
                kind: "sw_drop",
                detail: "route",
                a: u64::MAX,
                b: ip_bytes as u64,
            });
        }
    }

    fn drop_for_fault(&mut self, out: Option<u16>, now: SimTime, ip_bytes: u32) {
        self.stats.drops_fault.incr();
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord {
                at: now,
                kind: "sw_drop",
                detail: "fault",
                a: out.map_or(u64::MAX, u64::from),
                b: ip_bytes as u64,
            });
        }
    }

    /// Flushes every frame buffered for output `out` to the fault drop
    /// counter, releasing its buffer reservation.
    fn flush_output(&mut self, out: u16, now: SimTime) {
        let oi = out as usize;
        for in_q in 0..self.cfg.ports as usize {
            while let Some(qf) = self.voqs[oi][in_q].pop_front() {
                let ip_bytes = qf.frame.packet.ip_bytes();
                self.queued_frames[oi] -= 1;
                self.release(out, ip_bytes);
                self.drop_for_fault(Some(out), now, ip_bytes);
            }
        }
    }

    /// Flushes every frame crossing the processing pipeline to the fault
    /// drop counter, oldest first. Their timers still fire and find
    /// nothing.
    fn flush_in_flight(&mut self, now: SimTime) {
        while let Some(PipelineEntry { out, qf, .. }) = self.in_flight.pop_front() {
            let ip_bytes = qf.frame.packet.ip_bytes();
            self.in_pipeline[out as usize] -= 1;
            self.release(out, ip_bytes);
            self.drop_for_fault(Some(out), now, ip_bytes);
        }
    }

    /// Applies the scheduled directive a `KIND_FAULT` timer is due for:
    /// the first in the schedule, if it is due now. A timer that finds
    /// none comes from a damaged or mismatched snapshot and does nothing.
    ///
    /// Frames whose transmission already began keep their delivery: the
    /// last bit was committed to the wire before the fault. Everything
    /// still buffered or in the processing pipeline is flushed to
    /// [`SwitchStats::drops_fault`].
    fn apply_due_fault(&mut self, ctx: &mut Ctx<'_, Frame>) {
        let now = ctx.now();
        if self.faults.front().is_none_or(|&(due, _)| due != now) {
            return;
        }
        let (_, fault) = self.faults.pop_front().expect("front directive just seen");
        self.retire_commitments(ctx);
        self.settle_pipeline(now);
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord {
                at: now,
                kind: "fault",
                detail: fault.trace_detail(),
                a: fault.port().map_or(u64::MAX, u64::from),
                b: 0,
            });
        }
        match fault {
            SwitchFault::PortDown { port } => {
                self.link_state[port as usize] = LinkState::Down;
                self.flush_output(port, now);
            }
            SwitchFault::PortUp { port } => {
                self.link_state[port as usize] = LinkState::Up;
                if let (Some(tx), Some(base)) =
                    (self.ports[port as usize].as_mut(), self.base_params[port as usize])
                {
                    tx.peer.params = base;
                }
                self.refresh_lossless();
                self.kick(port, ctx);
            }
            SwitchFault::PortDegraded { port, bandwidth_factor_fp20, loss_rate_fp20 } => {
                self.link_state[port as usize] =
                    LinkState::Degraded { bandwidth_factor_fp20, loss_rate_fp20 };
                if let (Some(tx), Some(base)) =
                    (self.ports[port as usize].as_mut(), self.base_params[port as usize])
                {
                    tx.peer.params = base.degraded_fp20(bandwidth_factor_fp20, loss_rate_fp20);
                }
                self.refresh_lossless();
                // A degraded link still carries frames: resume if the port
                // was previously down.
                self.kick(port, ctx);
            }
            SwitchFault::SwitchDown => {
                self.switch_down = true;
                for out in 0..self.cfg.ports {
                    self.flush_output(out, now);
                }
                self.flush_in_flight(now);
            }
            SwitchFault::SwitchUp => {
                self.switch_down = false;
                for out in 0..self.cfg.ports {
                    self.kick(out, ctx);
                }
            }
        }
    }
}

impl Component<Frame> for PacketSwitch {
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Ctx<'_, Frame>) {
        let kind = key & 0xF;
        let payload = key >> 4;
        match kind {
            KIND_FORWARD => {
                // Entries ahead of this one that ride a departure left the
                // pipeline first.
                self.settle_pipeline(ctx.now());
                // A SwitchDown fault may have flushed the frame while it
                // crossed the pipeline; its timer still fires.
                if self.in_flight.front().is_none_or(|e| e.timer != Some(payload)) {
                    return;
                }
                let PipelineEntry { out, qf, .. } =
                    self.in_flight.pop_front().expect("front entry just seen");
                self.leave_pipeline(out, qf, ctx.now());
                self.kick(out, ctx);
            }
            KIND_DEPART => {
                self.settle_pipeline(ctx.now());
                let out = payload as u16;
                self.depart_pending[out as usize] = false;
                self.kick(out, ctx);
            }
            KIND_FAULT => self.apply_due_fault(ctx),
            other => panic!("unknown switch timer kind {other}"),
        }
    }

    fn on_message(&mut self, in_port: PortNo, mut frame: Frame, ctx: &mut Ctx<'_, Frame>) {
        self.retire_commitments(ctx);
        let ip_bytes = frame.packet.ip_bytes();
        self.stats.rx_frames.incr();
        self.stats.rx_bytes.add(ip_bytes as u64);
        if let Some(c) = self.stats.rx_per_port.get_mut(in_port.0 as usize) {
            *c += 1;
        }

        let out = match &self.cfg.routing {
            RoutingMode::Source => frame.route.port_at(frame.hop),
            RoutingMode::Ecmp(e) => Some(Self::ecmp_port(e, self.ecmp_seed, &frame.packet)),
        };
        // A powered-off switch receives frames (the sender committed them
        // to the wire and counted them) but forwards nothing: count the rx
        // above, then drop, so both sides of the conservation book move.
        if self.switch_down {
            self.drop_for_fault(None, ctx.now(), ip_bytes);
            return;
        }

        let Some(out) = out else {
            self.drop_for_route(ctx.now(), ip_bytes);
            return;
        };
        // An ingress port this switch does not have selects no virtual
        // output queue: such a frame has no route through the switch.
        if out >= self.cfg.ports
            || self.ports[out as usize].is_none()
            || in_port.0 >= self.cfg.ports
        {
            self.drop_for_route(ctx.now(), ip_bytes);
            return;
        }
        if !self.link_state[out as usize].has_carrier() {
            self.drop_for_fault(Some(out), ctx.now(), ip_bytes);
            return;
        }
        if !self.admit(out, ip_bytes) {
            self.drop_for_buffer(out, ctx.now(), ip_bytes);
            return;
        }
        // DCTCP-style step marking: instantaneous queue occupancy at
        // admission (including this frame) against the threshold.
        if let Some(th) = self.cfg.ecn_threshold {
            if self.queued_bytes[out as usize] > th as u64 {
                frame.packet.ce = true;
                self.stats.ecn_marked.incr();
            }
        }
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord {
                at: ctx.now(),
                kind: "sw_enqueue",
                detail: "",
                a: out as u64,
                b: ip_bytes as u64,
            });
        }
        frame.hop += 1;

        // Reconstruct when the first bit arrived from the ingress link rate
        // (full-duplex ports are symmetric).
        let rx_ser = self.ports[in_port.0 as usize]
            .as_ref()
            .map(|tx| tx.peer.params.bandwidth.transmit_time(frame.wire_bytes() as u64))
            .unwrap_or(SimDuration::ZERO);
        let now = ctx.now();
        let elapsed = now.saturating_duration_since(SimTime::ZERO);
        let rx_start = now - rx_ser.min(elapsed);
        let qf = QueuedFrame { frame, in_port: in_port.0, rx_start, arrival: now };

        let exit = now + self.cfg.latency;
        let timer = match self.crossing(out, exit) {
            Crossing::Commit => {
                // What `kick` would do at `exit` with this frame alone in
                // the output's VOQs.
                self.rr_next[out as usize] = (in_port.0 + 1) % self.cfg.ports;
                self.committed.push_back(Commitment { release_at: exit, out, bytes: ip_bytes });
                self.transmit(out, qf, exit, ctx);
                return;
            }
            Crossing::Ride => None,
            Crossing::ArmAndRide(at) => {
                self.arm_depart(out, at, ctx);
                None
            }
            Crossing::Timer => {
                let seq = self.forward_seq;
                self.forward_seq += 1;
                ctx.set_timer(self.cfg.latency, seq << 4 | KIND_FORWARD);
                Some(seq)
            }
        };
        self.in_pipeline[out as usize] += 1;
        self.in_flight.push_back(PipelineEntry { timer, out, qf });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn instrumented(&self) -> Option<&dyn Instrumented> {
        Some(self)
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }
}

// Snapshot surface: everything that evolves during a run. `ports` rides
// whole (wiring restores to the identical config-derived value; carrying it
// keeps fault-mutated `peer.params` exact — see the note on `TxPort`'s
// `Snap` impl). Rebuilt from config and deliberately NOT serialized:
// `cfg`, `base_params`, `ecmp_seed` (a pure function of the identity RNG
// seed). `trace` holds `&'static str` records and is excluded — checkpoint
// scenarios must not enable flight recording. The per-output totals are
// recomputed from the frames and commitments they summarise, so no damage
// to a snapshot can make a later release underflow.
diablo_engine::impl_persist_fields!(PacketSwitch {
    ports: fixed_len,
    voqs,
    rr_next: fixed_len,
    depart_pending: fixed_len,
    in_flight,
    forward_seq,
    committed,
    faults,
    link_state: fixed_len,
    switch_down,
    rng,
    stats,
    queued_frames: derived,
    queued_bytes: derived,
    total_buffered: derived,
    in_pipeline: derived,
    lossless: derived,
    cfg: config,
    base_params: config,
    ecmp_seed: config,
    trace: config,
    early_commit: config,
} after_load = rebuild_derived);

impl PacketSwitch {
    /// Checks every restored value the model indexes by configuration,
    /// then recomputes the `derived` fields.
    fn rebuild_derived(&mut self) -> Result<(), diablo_engine::snap::SnapError> {
        let n = self.cfg.ports as usize;
        let wired = |out: usize| self.ports.get(out).is_some_and(Option::is_some);
        let mut frames =
            self.voqs.iter().flatten().flatten().chain(self.in_flight.iter().map(|e| &e.qf));
        let mut bound_outs =
            self.in_flight.iter().map(|e| e.out).chain(self.committed.iter().map(|c| c.out));
        let checks = [
            (
                "VOQ table",
                self.voqs.len() == n
                    && self.voqs.iter().enumerate().all(|(out, per_in)| {
                        per_in.len() == n && (wired(out) || per_in.iter().all(VecDeque::is_empty))
                    }),
            ),
            (
                "per-port statistics",
                [&self.stats.port_drops, &self.stats.rx_per_port, &self.stats.tx_per_port]
                    .iter()
                    .all(|v| v.len() == n),
            ),
            (
                "port wiring",
                self.ports
                    .iter()
                    .map(Option::is_some)
                    .eq(self.base_params.iter().map(Option::is_some)),
            ),
            ("frame's ingress port", frames.all(|qf| (qf.in_port as usize) < n)),
            ("frame's output port", bound_outs.all(|out| wired(out as usize))),
            (
                "fault schedule",
                self.faults.iter().all(|(_, f)| f.port().is_none_or(|p| usize::from(p) < n)),
            ),
        ];
        if let Some((what, _)) = checks.iter().find(|(_, ok)| !ok) {
            return Err(diablo_engine::snap::SnapError::Malformed(format!(
                "switch {}: restored {what} does not fit its {n} ports",
                self.cfg.name
            )));
        }

        self.queued_frames = vec![0; n];
        self.queued_bytes = vec![0; n];
        self.in_pipeline = vec![0; n];
        for (o, per_in) in self.voqs.iter().enumerate() {
            for qf in per_in.iter().flatten() {
                self.queued_frames[o] += 1;
                self.queued_bytes[o] += u64::from(qf.frame.packet.ip_bytes());
            }
        }
        for e in &self.in_flight {
            self.in_pipeline[e.out as usize] += 1;
            self.queued_bytes[e.out as usize] += u64::from(e.qf.frame.packet.ip_bytes());
        }
        for c in &self.committed {
            self.queued_bytes[c.out as usize] += u64::from(c.bytes);
        }
        self.total_buffered = self.queued_bytes.iter().sum();
        self.refresh_lossless();
        Ok(())
    }
}

impl Instrumented for PacketSwitch {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("rx_frames", self.stats.rx_frames.get());
        v.counter("tx_frames", self.stats.tx_frames.get());
        v.counter("rx_bytes", self.stats.rx_bytes.get());
        v.counter("tx_bytes", self.stats.tx_bytes.get());
        v.counter("drops_buffer", self.stats.drops_buffer.get());
        v.counter("drops_error", self.stats.drops_error.get());
        v.counter("drops_route", self.stats.drops_route.get());
        v.counter("drops_fault", self.stats.drops_fault.get());
        v.counter("ecn_marked", self.stats.ecn_marked.get());
        v.counter("max_buffered_bytes", self.stats.max_buffered_bytes);
        v.counter("frames_in_transit", self.frames_in_transit());
        v.gauge("buffered_bytes", self.buffered_bytes() as f64);
        for p in 0..self.cfg.ports as usize {
            if self.ports[p].is_none() {
                continue;
            }
            v.counter(&format!("port{p}.rx_frames"), self.stats.rx_per_port[p]);
            v.counter(&format!("port{p}.tx_frames"), self.stats.tx_per_port[p]);
            v.counter(&format!("port{p}.drops_buffer"), self.stats.port_drops[p]);
        }
    }

    fn flight_records(&self) -> Vec<FlightRecord> {
        self.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::frame::Route;
    use crate::link::LinkParams;
    use crate::payload::{AppMessage, IpPacket, UdpDatagram};
    use diablo_engine::event::ComponentId;
    use diablo_engine::prelude::*;

    /// Records every frame it receives with its arrival time.
    #[derive(Default)]
    pub(super) struct Sink {
        pub(super) got: Vec<(SimTime, Frame)>,
    }

    impl Component<Frame> for Sink {
        fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, Frame>) {}
        fn on_message(&mut self, _p: PortNo, f: Frame, ctx: &mut Ctx<'_, Frame>) {
            self.got.push((ctx.now(), f));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
            Some(self)
        }
        fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
            Some(self)
        }
    }

    diablo_engine::impl_persist_fields!(Sink { got });

    fn udp_frame(payload: u32, out_port: u16) -> Frame {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            msg: AppMessage::new(0, 0, payload, SimTime::ZERO),
        };
        Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![out_port]))
    }

    /// Schedules `fault` on the switch and injects the timer that applies it.
    fn inject_fault(sim: &mut Simulation<Frame>, at: SimTime, sw: ComponentId, fault: SwitchFault) {
        let key = sim.component_mut::<PacketSwitch>(sw).unwrap().schedule_fault(at, fault);
        sim.schedule_external_timer(at, sw, key);
    }

    /// Builds sim with one switch (port 1 -> sink) and returns ids.
    fn build(cfg: SwitchConfig) -> (Simulation<Frame>, ComponentId, ComponentId) {
        let mut sim = Simulation::<Frame>::new();
        let mut sw = PacketSwitch::new(cfg, DetRng::new(1));
        let sink_id = ComponentId(1); // assigned below; switch added first
        sw.connect_port(
            1,
            PortPeer { component: sink_id, port: PortNo(0), params: LinkParams::gbe(0) },
        );
        // Wire ingress port 0 back toward a dummy peer so rx serialization
        // can be reconstructed.
        sw.connect_port(
            0,
            PortPeer { component: sink_id, port: PortNo(9), params: LinkParams::gbe(0) },
        );
        let sw_id = sim.add_component(Box::new(sw));
        let s = sim.add_component(Box::new(Sink::default()));
        assert_eq!(s, sink_id);
        (sim, sw_id, sink_id)
    }

    /// Checkpoint taken mid-burst — while a degradation fault is active and
    /// frames sit in VOQs / the forwarding pipeline — restores into a fresh
    /// sim and finishes bit-identically to the uninterrupted run,
    /// including the RNG-driven loss draws and the later `PortUp` that
    /// resets params from `base_params`.
    #[test]
    fn checkpoint_mid_fault_restores_bit_identically() {
        use diablo_engine::snap::{SnapReader, SnapWriter};

        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let degrade = SwitchFault::PortDegraded {
            port: 1,
            bandwidth_factor_fp20: crate::link::fp20_encode(0.5),
            loss_rate_fp20: crate::link::fp20_encode(0.9),
        };
        let setup = |cfg: SwitchConfig| {
            let (mut sim, sw, sink) = build(cfg);
            inject_fault(&mut sim, SimTime::from_micros(5), sw, degrade);
            inject_fault(&mut sim, SimTime::from_micros(40), sw, SwitchFault::PortUp { port: 1 });
            for i in 0..12u64 {
                sim.inject_message(
                    SimTime::from_micros(2 + 4 * i),
                    sw,
                    PortNo(0),
                    udp_frame(1000, 1),
                );
            }
            (sim, sw, sink)
        };

        let (mut reference, rsw, rsink) = setup(cfg.clone());
        reference.run().unwrap();
        let ref_got = reference.component::<Sink>(rsink).unwrap().got.clone();
        let ref_stats = reference.component::<PacketSwitch>(rsw).unwrap().stats().clone();

        // Checkpoint while degraded and mid-burst.
        let (mut warm, _, _) = setup(cfg.clone());
        warm.run_until(SimTime::from_micros(12)).unwrap();
        let mut w = SnapWriter::new();
        warm.save_state(&mut w);
        let bytes = w.into_bytes();

        let (mut restored, sw2, sink2) = setup(cfg);
        restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
        restored.run().unwrap();
        let got = &restored.component::<Sink>(sink2).unwrap().got;
        let stats = restored.component::<PacketSwitch>(sw2).unwrap().stats();

        assert_eq!(*got, ref_got);
        assert_eq!(stats.rx_frames.get(), ref_stats.rx_frames.get());
        assert_eq!(stats.tx_frames.get(), ref_stats.tx_frames.get());
        assert_eq!(stats.drops_error.get(), ref_stats.drops_error.get());
        assert!(ref_stats.drops_error.get() > 0, "loss fault never exercised the RNG");
        assert_eq!(stats.tx_per_port, ref_stats.tx_per_port);
    }

    #[test]
    fn forwards_with_latency_and_serialization() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        let f = udp_frame(1000, 1); // ip 1028, wire 1066 -> 8.528 us at 1 Gbps
        sim.inject_message(SimTime::from_micros(10), sw, PortNo(0), f);
        sim.run().unwrap();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        // 10 us arrival + 1 us latency + 8.528 us egress serialization.
        assert_eq!(got[0].0, SimTime::from_nanos(10_000 + 1_000 + 8_528));
        assert_eq!(got[0].1.hop, 1);
    }

    #[test]
    fn cut_through_is_faster_when_idle() {
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        cfg.forwarding = ForwardingMode::CutThrough;
        let (mut sim, sw, sink) = build(cfg);
        sim.inject_message(SimTime::from_micros(10), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        // Last bit leaves at arrival + latency only.
        assert_eq!(got[0].0, SimTime::from_nanos(10_000 + 1_000));
    }

    #[test]
    fn per_port_buffer_tail_drops() {
        // 4 KB per port; 1028-byte IP packets: 3 fit (3084), 4th would be
        // 4112 > 4096 while the first has not yet departed.
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        for _ in 0..6 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        sim.run().unwrap();
        let delivered = sim.component::<Sink>(sink).unwrap().got.len();
        let stats = sim.component::<PacketSwitch>(sw).unwrap().stats().clone();
        assert_eq!(delivered, 3);
        assert_eq!(stats.drops_buffer.get(), 3);
        assert_eq!(stats.port_drops[1], 3);
        assert_eq!(stats.rx_frames.get(), 6);
        assert_eq!(stats.tx_frames.get(), 3);
        assert_eq!(stats.rx_per_port[0], 6);
        assert_eq!(stats.tx_per_port[1], 3);
        let sw_ref = sim.component::<PacketSwitch>(sw).unwrap();
        assert_eq!(sw_ref.buffered_bytes(), 0);
        assert_eq!(sw_ref.frames_in_transit(), 0, "quiesced switch holds nothing");
        // Conservation on the quiesced switch: rx = tx + drops.
        assert_eq!(
            stats.rx_frames.get(),
            stats.tx_frames.get()
                + stats.drops_buffer.get()
                + stats.drops_error.get()
                + stats.drops_route.get()
        );
    }

    #[test]
    fn trace_records_enqueues_and_drops() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, _sink) = build(cfg);
        sim.component_mut::<PacketSwitch>(sw).unwrap().enable_trace(64);
        for _ in 0..6 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        // And one with no route.
        let mut f = udp_frame(100, 1);
        f.hop = 5;
        sim.inject_message(SimTime::from_micros(2), sw, PortNo(0), f);
        sim.run().unwrap();
        let trace = sim.component::<PacketSwitch>(sw).unwrap().trace();
        assert_eq!(trace.iter().filter(|r| r.kind == "sw_enqueue").count(), 3);
        assert_eq!(trace.iter().filter(|r| r.kind == "sw_drop" && r.detail == "buffer").count(), 3);
        assert_eq!(trace.iter().filter(|r| r.kind == "sw_drop" && r.detail == "route").count(), 1);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at), "trace is time-ordered");
    }

    #[test]
    fn port_down_flushes_buffers_and_drops_arrivals_until_up() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        // Three frames: the first starts transmitting at 2 us (1 us forward
        // latency), two stay buffered behind the 8.528 us serialization.
        for _ in 0..3 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        // Link drops at 3 us: the in-progress frame completes (its bits are
        // committed), the two buffered frames flush to drops_fault.
        inject_fault(&mut sim, SimTime::from_micros(3), sw, SwitchFault::PortDown { port: 1 });
        // Frames routed to the dead port while it is down drop on arrival.
        for _ in 0..2 {
            sim.inject_message(SimTime::from_micros(5), sw, PortNo(0), udp_frame(1000, 1));
        }
        inject_fault(&mut sim, SimTime::from_micros(20), sw, SwitchFault::PortUp { port: 1 });
        sim.inject_message(SimTime::from_micros(21), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();

        let delivered = sim.component::<Sink>(sink).unwrap().got.len();
        let sw_ref = sim.component::<PacketSwitch>(sw).unwrap();
        let stats = sw_ref.stats();
        assert_eq!(delivered, 2, "one pre-fault frame and one post-recovery frame");
        assert_eq!(stats.drops_fault.get(), 4);
        assert_eq!(sw_ref.link_state(1), LinkState::Up);
        assert_eq!(sw_ref.buffered_bytes(), 0);
        assert_eq!(sw_ref.frames_in_transit(), 0);
        // Conservation holds across the flap.
        assert_eq!(
            stats.rx_frames.get(),
            stats.tx_frames.get()
                + stats.drops_buffer.get()
                + stats.drops_error.get()
                + stats.drops_route.get()
                + stats.drops_fault.get()
        );
    }

    #[test]
    fn switch_down_flushes_pipeline_and_rx_drops() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        // Three frames are crossing the 1 us processing pipeline when the
        // switch powers off at 1.5 us: all flushed, their forward timers
        // must then fire harmlessly.
        for _ in 0..3 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        inject_fault(
            &mut sim,
            SimTime::from_micros(1) + SimDuration::from_nanos(500),
            sw,
            SwitchFault::SwitchDown,
        );
        // Arrivals while powered off are received (the sender committed
        // them) but dropped.
        sim.inject_message(SimTime::from_micros(3), sw, PortNo(0), udp_frame(1000, 1));
        inject_fault(&mut sim, SimTime::from_micros(5), sw, SwitchFault::SwitchUp);
        sim.inject_message(SimTime::from_micros(6), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();

        let delivered = sim.component::<Sink>(sink).unwrap().got.len();
        let sw_ref = sim.component::<PacketSwitch>(sw).unwrap();
        let stats = sw_ref.stats();
        assert_eq!(delivered, 1, "only the post-recovery frame");
        assert_eq!(stats.rx_frames.get(), 5);
        assert_eq!(stats.drops_fault.get(), 4);
        assert!(!sw_ref.is_down());
        assert_eq!(sw_ref.buffered_bytes(), 0);
        assert_eq!(sw_ref.frames_in_transit(), 0);
        assert_eq!(
            stats.rx_frames.get(),
            stats.tx_frames.get()
                + stats.drops_buffer.get()
                + stats.drops_error.get()
                + stats.drops_route.get()
                + stats.drops_fault.get()
        );
    }

    #[test]
    fn degraded_port_halves_bandwidth_then_recovers() {
        use crate::link::fp20_encode;
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        inject_fault(
            &mut sim,
            SimTime::ZERO,
            sw,
            SwitchFault::PortDegraded {
                port: 1,
                bandwidth_factor_fp20: fp20_encode(0.5),
                loss_rate_fp20: 0,
            },
        );
        // 1066 B wire at the degraded 500 Mbps: 17.056 us serialization.
        sim.inject_message(SimTime::from_micros(10), sw, PortNo(0), udp_frame(1000, 1));
        inject_fault(&mut sim, SimTime::from_micros(40), sw, SwitchFault::PortUp { port: 1 });
        // Back at 1 Gbps: 8.528 us.
        sim.inject_message(SimTime::from_micros(50), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, SimTime::from_nanos(10_000 + 1_000 + 17_056));
        assert_eq!(got[1].0, SimTime::from_nanos(50_000 + 1_000 + 8_528));
    }

    #[test]
    fn shared_buffer_admits_more_than_per_port() {
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        cfg.buffer = BufferConfig::Shared { total_bytes: 16 * 1024 };
        let (mut sim, sw, sink) = build(cfg);
        for _ in 0..6 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        sim.run().unwrap();
        assert_eq!(sim.component::<Sink>(sink).unwrap().got.len(), 6);
        let stats = sim.component::<PacketSwitch>(sw).unwrap().stats();
        assert_eq!(stats.drops_buffer.get(), 0);
        assert!(stats.max_buffered_bytes >= 6 * 1028);
    }

    #[test]
    fn egress_serializes_back_to_back() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        // Second frame delivered exactly one serialization later.
        assert_eq!(got[1].0 - got[0].0, SimDuration::from_nanos(8_528));
    }

    #[test]
    fn missing_route_is_counted() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, _sink) = build(cfg);
        let mut f = udp_frame(100, 1);
        f.hop = 5; // beyond route
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), f);
        // Unwired port.
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(100, 3));
        // Out-of-range port.
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(100, 9));
        sim.run().unwrap();
        let stats = sim.component::<PacketSwitch>(sw).unwrap().stats();
        assert_eq!(stats.drops_route.get(), 3);
    }

    #[test]
    fn frame_on_an_ingress_port_the_switch_lacks_is_a_route_drop() {
        let cfg = SwitchConfig::shallow_gbe("t", 4);
        let (mut sim, sw, sink) = build(cfg);
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(4), udp_frame(100, 1));
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(u16::MAX), udp_frame(100, 1));
        sim.run().unwrap();
        let sw_ref = sim.component::<PacketSwitch>(sw).unwrap();
        let stats = sw_ref.stats();
        assert_eq!(stats.rx_frames.get(), 2, "received, as the rx_per_port doc promises");
        assert_eq!(stats.rx_per_port.iter().sum::<u64>(), 0);
        assert_eq!(stats.drops_route.get(), 2);
        assert_eq!(sw_ref.buffered_bytes(), 0);
        assert!(sim.component::<Sink>(sink).unwrap().got.is_empty());
    }

    /// A snapshot is outside input: a frame, commitment or scheduled
    /// directive naming a port the rebuilt switch does not have is refused
    /// at load, not indexed with at the next event.
    #[test]
    fn restored_indices_beyond_the_port_count_are_malformed() {
        use diablo_engine::snap::{Persist, SnapError, SnapReader, SnapWriter};

        let wired = || {
            let (mut sim, sw, _) = build(SwitchConfig::shallow_gbe("t", 4));
            std::mem::replace(
                sim.component_mut::<PacketSwitch>(sw).unwrap(),
                PacketSwitch::new(SwitchConfig::shallow_gbe("spare", 1), DetRng::new(0)),
            )
        };
        fn queued(in_port: u16) -> QueuedFrame {
            QueuedFrame {
                frame: udp_frame(100, 1),
                in_port,
                rx_start: SimTime::ZERO,
                arrival: SimTime::ZERO,
            }
        }
        fn committed(out: u16) -> Commitment {
            Commitment { release_at: SimTime::from_micros(1), out, bytes: 128 }
        }
        let restore = |damage: fn(&mut PacketSwitch)| {
            let mut saved = wired();
            damage(&mut saved);
            let mut w = SnapWriter::new();
            saved.save_state(&mut w);
            wired().load_state(&mut SnapReader::new(&w.into_bytes()))
        };
        assert_eq!(restore(|_| ()), Ok(()), "the undamaged switch restores");
        let cases: [fn(&mut PacketSwitch); 6] = [
            |sw| sw.voqs[1][0].push_back(queued(4)),
            |sw| sw.in_flight.push_back(PipelineEntry { timer: Some(0), out: 1, qf: queued(9) }),
            |sw| sw.in_flight.push_back(PipelineEntry { timer: None, out: 4, qf: queued(0) }),
            |sw| sw.committed.push_back(committed(4)),
            // Port 3 exists but is unwired: nothing can be bound for it.
            |sw| sw.committed.push_back(committed(3)),
            |sw| sw.faults.push_back((SimTime::ZERO, SwitchFault::PortUp { port: 4 })),
        ];
        for (i, damage) in cases.into_iter().enumerate() {
            assert!(matches!(restore(damage), Err(SnapError::Malformed(_))), "case {i} restored");
        }
    }

    /// A fault timer that finds no directive due now — a damaged or
    /// mismatched snapshot — does nothing: the scheduled directive still
    /// applies at its own instant, once.
    #[test]
    fn a_fault_timer_with_no_directive_due_is_ignored() {
        let (mut sim, sw, sink) = build(SwitchConfig::shallow_gbe("t", 4));
        let key = sim
            .component_mut::<PacketSwitch>(sw)
            .unwrap()
            .schedule_fault(SimTime::from_micros(30), SwitchFault::PortDown { port: 1 });
        for us in [3, 30, 31] {
            sim.schedule_external_timer(SimTime::from_micros(us), sw, key);
        }
        sim.inject_message(SimTime::from_micros(10), sw, PortNo(0), udp_frame(1000, 1));
        sim.inject_message(SimTime::from_micros(40), sw, PortNo(0), udp_frame(1000, 1));
        sim.run().unwrap();
        assert_eq!(sim.component::<Sink>(sink).unwrap().got.len(), 1);
        let sw = sim.component::<PacketSwitch>(sw).unwrap();
        assert_eq!(sw.link_state(1), LinkState::Down);
        assert_eq!(sw.stats().drops_fault.get(), 1);
    }

    #[test]
    fn ecn_marks_only_above_threshold() {
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        cfg.ecn_threshold = Some(2000);
        let (mut sim, sw, sink) = build(cfg);
        // 1028-byte IP packets: occupancy after admit is 1028, 2056, 3084 —
        // the second and third land above the 2000-byte threshold.
        for _ in 0..3 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(1000, 1));
        }
        sim.run().unwrap();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        let ce: Vec<bool> = got.iter().map(|(_, f)| f.packet.ce).collect();
        assert_eq!(ce, vec![false, true, true]);
        assert_eq!(sim.component::<PacketSwitch>(sw).unwrap().stats().ecn_marked.get(), 2);
    }

    #[test]
    fn ecmp_hash_is_pure_and_seed_sensitive() {
        let h = ecmp_hash(7, 1, 2, 10, 20, 6);
        assert_eq!(h, ecmp_hash(7, 1, 2, 10, 20, 6), "same inputs, same hash");
        assert_ne!(h, ecmp_hash(8, 1, 2, 10, 20, 6), "seed must matter");
        assert_ne!(h, ecmp_hash(7, 1, 2, 11, 20, 6), "source port must matter");
        assert_ne!(h, ecmp_hash(7, 1, 2, 10, 20, 17), "protocol must matter");
    }

    #[test]
    fn ecmp_port_downward_is_deterministic_upward_hashes_uplinks() {
        // k=4, 2 hosts per edge: edge 0 holds hosts 0-1, pod 0 = edges 0-1.
        let pkt = |src: u32, dst: u32| {
            let d = UdpDatagram {
                src_port: 9,
                dst_port: 9,
                msg: AppMessage::new(0, 0, 100, SimTime::ZERO),
            };
            IpPacket::udp(NodeAddr(src), NodeAddr(dst), d)
        };
        let edge = EcmpConfig { k: 4, hosts_per_edge: 2, role: ClosRole::Edge { edge: 0 } };
        // Local host: the host's own port, no hashing.
        assert_eq!(PacketSwitch::ecmp_port(&edge, 42, &pkt(0, 1)), 1);
        // Remote host: one of the uplinks (ports 2-3), same flow same port.
        let up = PacketSwitch::ecmp_port(&edge, 42, &pkt(0, 7));
        assert!((2..4).contains(&up));
        assert_eq!(up, PacketSwitch::ecmp_port(&edge, 42, &pkt(0, 7)));

        let agg = EcmpConfig { k: 4, hosts_per_edge: 2, role: ClosRole::Aggregation { pod: 0 } };
        // Destination in my pod: fixed down port = edge position in pod.
        assert_eq!(PacketSwitch::ecmp_port(&agg, 42, &pkt(8, 3)), 1);
        // Other pod: one of the core uplinks (ports 2-3).
        assert!((2..4).contains(&PacketSwitch::ecmp_port(&agg, 42, &pkt(0, 7))));

        let core = EcmpConfig { k: 4, hosts_per_edge: 2, role: ClosRole::Core };
        // Core port = destination pod, always.
        assert_eq!(PacketSwitch::ecmp_port(&core, 42, &pkt(0, 7)), 1);
        assert_eq!(PacketSwitch::ecmp_port(&core, 42, &pkt(0, 15)), 3);
    }

    #[test]
    fn ecmp_routing_forwards_without_a_source_route() {
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        // Edge 0 of a k=4 tree with 2 hosts: host 1 sits on port 1.
        cfg.routing = RoutingMode::Ecmp(EcmpConfig {
            k: 4,
            hosts_per_edge: 2,
            role: ClosRole::Edge { edge: 0 },
        });
        let (mut sim, sw, sink) = build(cfg);
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            msg: AppMessage::new(0, 0, 100, SimTime::ZERO),
        };
        let f = Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::empty());
        sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), f);
        sim.run().unwrap();
        assert_eq!(sim.component::<Sink>(sink).unwrap().got.len(), 1);
    }

    #[test]
    fn lossy_egress_drops_all_at_rate_one() {
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        cfg.latency = SimDuration::from_nanos(100);
        let (mut sim, sw, sink) = {
            let mut sim = Simulation::<Frame>::new();
            let mut sw = PacketSwitch::new(cfg, DetRng::new(1));
            sw.connect_port(
                1,
                PortPeer {
                    component: ComponentId(1),
                    port: PortNo(0),
                    params: LinkParams::gbe(0).with_loss_rate(1.0),
                },
            );
            sw.connect_port(
                0,
                PortPeer { component: ComponentId(1), port: PortNo(9), params: LinkParams::gbe(0) },
            );
            let sw_id = sim.add_component(Box::new(sw));
            let sink = sim.add_component(Box::new(Sink::default()));
            (sim, sw_id, sink)
        };
        for _ in 0..3 {
            sim.inject_message(SimTime::from_micros(1), sw, PortNo(0), udp_frame(100, 1));
        }
        sim.run().unwrap();
        assert!(sim.component::<Sink>(sink).unwrap().got.is_empty());
        assert_eq!(sim.component::<PacketSwitch>(sw).unwrap().stats().drops_error.get(), 3);
    }
}

#[cfg(test)]
mod voq_tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::frame::Route;
    use crate::link::LinkParams;
    use crate::payload::{AppMessage, IpPacket, UdpDatagram};
    use diablo_engine::event::ComponentId;
    use diablo_engine::prelude::*;

    #[derive(Default)]
    struct OrderSink {
        srcs: Vec<u32>,
    }
    impl Component<Frame> for OrderSink {
        fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, Frame>) {}
        fn on_message(&mut self, _p: PortNo, f: Frame, _ctx: &mut Ctx<'_, Frame>) {
            self.srcs.push(f.packet.src.0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn frame_from(src: u32, payload: u32) -> Frame {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            msg: AppMessage::new(0, 0, payload, SimTime::ZERO),
        };
        Frame::new(IpPacket::udp(NodeAddr(src), NodeAddr(9), d), Route::new(vec![2]))
    }

    #[test]
    fn round_robin_serves_contending_inputs_fairly() {
        // Two inputs flood output 2 with back-to-back frames arriving at
        // identical times; after the first frame, service must alternate.
        let mut sim = Simulation::<Frame>::new();
        let mut cfg = SwitchConfig::shallow_gbe("t", 4);
        cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 20 };
        let mut sw = PacketSwitch::new(cfg, DetRng::new(1));
        let link = LinkParams::gbe(0);
        for p in 0..3 {
            sw.connect_port(
                p,
                PortPeer { component: ComponentId(1), port: PortNo(0), params: link },
            );
        }
        let swid = sim.add_component(Box::new(sw));
        let sink = sim.add_component(Box::new(OrderSink::default()));
        for i in 0..8u64 {
            // Same arrival instants on both ingress ports.
            let t = SimTime::from_micros(1) + SimDuration::from_nanos(i * 100);
            sim.inject_message(t, swid, PortNo(0), frame_from(100, 1000));
            sim.inject_message(t, swid, PortNo(1), frame_from(200, 1000));
        }
        sim.run().unwrap();
        let srcs = &sim.component::<OrderSink>(sink).unwrap().srcs;
        assert_eq!(srcs.len(), 16);
        // Strict alternation across the backlogged region.
        let alternations = srcs.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(alternations >= 13, "round-robin should alternate inputs, got {srcs:?}");
        let a = srcs.iter().filter(|&&s| s == 100).count();
        assert_eq!(a, 8, "both inputs fully served");
    }

    #[test]
    fn voq_prevents_head_of_line_blocking() {
        // Input 0 has a frame for a congested output (2) followed by one
        // for an idle output (3). The second frame must not wait for the
        // first's queueing delay behind input 1's backlog.
        let mut sim = Simulation::<Frame>::new();
        let mut cfg = SwitchConfig::shallow_gbe("t", 5);
        cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 20 };
        let mut sw = PacketSwitch::new(cfg, DetRng::new(1));
        let link = LinkParams::gbe(0);
        for p in 0..4 {
            sw.connect_port(
                p,
                PortPeer { component: ComponentId(1), port: PortNo(p), params: link },
            );
        }
        let swid = sim.add_component(Box::new(sw));
        let sink = sim.add_component(Box::new(OrderSink::default()));
        // Saturate output 2 from input 1.
        for i in 0..20u64 {
            let t = SimTime::from_micros(1) + SimDuration::from_nanos(i);
            let mut f = frame_from(200, 1400);
            f.route = Route::new(vec![2]);
            sim.inject_message(t, swid, PortNo(1), f);
        }
        // Input 0: one frame to the congested output, then one to output 3.
        let mut congested = frame_from(100, 1400);
        congested.route = Route::new(vec![2]);
        sim.inject_message(SimTime::from_micros(2), swid, PortNo(0), congested);
        let mut idle_path = frame_from(101, 1400);
        idle_path.route = Route::new(vec![3]);
        sim.inject_message(
            SimTime::from_micros(2) + SimDuration::from_nanos(1),
            swid,
            PortNo(0),
            idle_path,
        );
        sim.run().unwrap();
        let srcs = &sim.component::<OrderSink>(sink).unwrap().srcs;
        // The idle-path frame (src 101) must be delivered before most of
        // the congested backlog: no HOL blocking.
        let pos_idle = srcs.iter().position(|&s| s == 101).unwrap();
        assert!(pos_idle <= 3, "frame to idle output was HOL-blocked: {srcs:?}");
    }
}

/// Committing an uncontended hop at admission, and letting a contended one
/// ride its output's departure, must be unobservable: every test here
/// runs one scenario on the shipped switch and on the timer-per-frame
/// switch (`without_early_commit`) and compares what the sinks saw and
/// everything the switch carries to the next event.
#[cfg(test)]
mod early_commit_tests {
    use super::tests::Sink;
    use super::*;
    use crate::addr::NodeAddr;
    use crate::frame::Route;
    use crate::link::{fp20_encode, LinkParams};
    use crate::payload::{AppMessage, IpPacket, UdpDatagram};
    use diablo_engine::event::ComponentId;
    use diablo_engine::prelude::*;
    use proptest::prelude::*;

    /// Arrival and directive times sit on this grid, and latencies are
    /// whole multiples of it, so arrivals tie with each other, with a
    /// pipeline exit (`t + latency`) and with fault directives.
    const GRID: SimDuration = SimDuration::from_nanos(250);
    const T0: SimTime = SimTime::from_micros(2);

    /// Sends a scripted list of frames to the switch. One instance is
    /// registered before the switch and one after, so the switch sees
    /// sources on both sides of its own id (the commitment tie rule).
    struct Source {
        switch: ComponentId,
        script: Vec<(SimTime, PortNo, Frame)>,
    }

    impl Component<Frame> for Source {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Frame>) {
            for (at, port, frame) in self.script.drain(..) {
                ctx.send_at(self.switch, port, at, frame);
            }
        }
        fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, Frame>) {}
        fn on_message(&mut self, _p: PortNo, _f: Frame, _c: &mut Ctx<'_, Frame>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One frame offered to the switch.
    #[derive(Debug, Clone, Copy)]
    struct Arrival {
        tick: u64,
        in_port: u16,
        out: u16,
        payload: u32,
        from_high_id: bool,
    }

    #[derive(Debug, Clone)]
    struct Scenario {
        cfg: SwitchConfig,
        link: LinkParams,
        /// Port 1's loss rate, when the scenario has a lossy port.
        lossy: Option<f64>,
        arrivals: Vec<Arrival>,
        faults: Vec<(u64, SwitchFault)>,
    }

    /// Everything that can tell the two switches apart.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        delivered: Vec<Vec<(SimTime, Frame)>>,
        stats: String,
        buffered_bytes: u64,
        frames_in_transit: u64,
        rr_next: Vec<u16>,
        rng: [u64; 4],
        link_state: Vec<LinkState>,
        down: bool,
    }

    fn run(sc: &Scenario, early_commit: bool) -> (Outcome, u64) {
        let ports = sc.cfg.ports;
        let (low, switch, high) = (ComponentId(0), ComponentId(1), ComponentId(2));
        let mut scripts = [Vec::new(), Vec::new()];
        for (id, a) in sc.arrivals.iter().enumerate() {
            let d = UdpDatagram {
                src_port: 1,
                dst_port: 2,
                msg: AppMessage::new(0, id as u64, a.payload, SimTime::ZERO),
            };
            let frame =
                Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![a.out]));
            scripts[usize::from(a.from_high_id)].push((
                T0 + GRID * a.tick,
                PortNo(a.in_port),
                frame,
            ));
        }
        let [low_script, high_script] = scripts;

        let mut sw = PacketSwitch::new(sc.cfg.clone(), DetRng::new(9));
        if !early_commit {
            sw = sw.without_early_commit();
        }
        for p in 0..ports {
            let params = match sc.lossy {
                Some(rate) if p == 1 => sc.link.with_loss_rate(rate),
                _ => sc.link,
            };
            // One sink per port: a switch has one link to each neighbour.
            sw.connect_port(
                p,
                PortPeer { component: ComponentId(3 + u32::from(p)), port: PortNo(0), params },
            );
        }

        let mut sim = Simulation::<Frame>::new();
        assert_eq!(sim.add_component(Box::new(Source { switch, script: low_script })), low);
        assert_eq!(sim.add_component(Box::new(sw)), switch);
        assert_eq!(sim.add_component(Box::new(Source { switch, script: high_script })), high);
        let sinks: Vec<ComponentId> =
            (0..ports).map(|_| sim.add_component(Box::new(Sink::default()))).collect();
        for &(half_tick, fault) in &sc.faults {
            let at = T0 + GRID * half_tick / 2;
            let key = sim.component_mut::<PacketSwitch>(switch).unwrap().schedule_fault(at, fault);
            sim.schedule_external_timer(at, switch, key);
        }
        let events = sim.run().unwrap().events;

        let sw = sim.component::<PacketSwitch>(switch).unwrap();
        let outcome = Outcome {
            delivered: sinks
                .iter()
                .map(|&s| sim.component::<Sink>(s).unwrap().got.clone())
                .collect(),
            stats: format!("{:?}", sw.stats()),
            buffered_bytes: sw.buffered_bytes(),
            frames_in_transit: sw.frames_in_transit(),
            rr_next: sw.rr_next.clone(),
            rng: sw.rng.state(),
            link_state: sw.link_state.clone(),
            down: sw.is_down(),
        };
        (outcome, events)
    }

    /// Raw draws for one scenario; `scenario` folds them into range.
    type Draws = (
        (u16, bool, bool, u32, u32),
        (u64, bool, u64),
        Vec<(u64, u16, u16, u32, bool)>,
        Vec<(u64, u64, u16, u64)>,
    );

    fn draws(max_faults: usize) -> impl Strategy<Value = Draws> {
        (
            // ports, cut-through, shared buffer, buffer bytes, ECN threshold (0 = off)
            (2u16..7, any::<bool>(), any::<bool>(), 1_200u32..6_000, 0u32..3_000),
            // latency in grid steps, 10G links, propagation ns
            (1u64..5, any::<bool>(), 0u64..300),
            proptest::collection::vec(
                (0u64..48, 0u16..6, 0u16..6, 18u32..1_200, any::<bool>()),
                1..60,
            ),
            proptest::collection::vec((0u64..120, 0u64..5, 0u16..6, 0u64..3), 0..max_faults),
        )
    }

    fn scenario(d: Draws, lossy: Option<f64>) -> Scenario {
        let ((ports, cut_through, shared, bytes, ecn), (lat_steps, ten_gig, prop_ns), arr, flt) = d;
        let mut cfg = SwitchConfig::shallow_gbe("prop", ports);
        cfg.latency = GRID * lat_steps;
        cfg.forwarding =
            if cut_through { ForwardingMode::CutThrough } else { ForwardingMode::StoreAndForward };
        // Small enough to tail-drop under the bursts the grid produces.
        cfg.buffer = if shared {
            BufferConfig::Shared { total_bytes: bytes * 2 }
        } else {
            BufferConfig::PerPort { bytes_per_port: bytes }
        };
        cfg.ecn_threshold = (ecn >= 600).then_some(ecn);
        let link = if ten_gig { LinkParams::ten_gbe(prop_ns) } else { LinkParams::gbe(prop_ns) };
        let arrivals = arr
            .into_iter()
            .map(|(tick, in_port, out, payload, from_high_id)| Arrival {
                tick,
                in_port: in_port % ports,
                out: out % ports,
                payload,
                from_high_id,
            })
            .collect();
        let faults = flt
            .into_iter()
            .map(|(half_tick, kind, port, severity)| {
                let port = port % ports;
                let fault = match kind {
                    0 => SwitchFault::PortDown { port },
                    1 => SwitchFault::PortUp { port },
                    2 => SwitchFault::PortDegraded {
                        port,
                        bandwidth_factor_fp20: fp20_encode([1.0, 0.5, 0.25][severity as usize]),
                        loss_rate_fp20: fp20_encode([0.0, 0.3, 1.0][severity as usize]),
                    },
                    3 => SwitchFault::SwitchDown,
                    _ => SwitchFault::SwitchUp,
                };
                (half_tick, fault)
            })
            .collect();
        Scenario { cfg, link, lossy, arrivals, faults }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lossless ports, no faults: the fast path's home ground.
        #[test]
        fn early_commit_is_unobservable(d in draws(1)) {
            let mut sc = scenario(d, None);
            sc.faults.clear();
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            prop_assert!(early_events <= timer_events);
        }

        /// Fault directives landing at the start of, inside and exactly at
        /// the end of pipeline windows (directives sit on the half grid),
        /// including loss turned on and off mid-run.
        #[test]
        fn early_commit_is_unobservable_under_faults(d in draws(8)) {
            let sc = scenario(d, None);
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            prop_assert!(early_events <= timer_events);
        }

        /// One lossy port pins the whole switch to the timer path — the
        /// RNG is per switch — until a `PortUp` heals it.
        #[test]
        fn a_lossy_port_keeps_every_frame_on_the_timer_path(d in draws(8)) {
            let sc = scenario(d, Some(0.25));
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            // Either directive replaces port 1's loss rate.
            let healed = sc.faults.iter().any(|(_, f)| {
                matches!(f, SwitchFault::PortUp { port: 1 } | SwitchFault::PortDegraded { port: 1, .. })
            });
            if !healed {
                prop_assert_eq!(early_events, timer_events, "committed early on a lossy switch");
            }
        }
    }

    /// Raw draws for a contended scenario: `bursts` of 3-6 frames into one
    /// output from rotating inputs and both sides of the switch's id, half
    /// of them sized so every wire time is a whole number of grid steps at
    /// 1 Gbps — departures then tie with pipeline exits and arrivals.
    type BurstDraws = (
        (u16, bool, bool, u32, u32),
        (u64, bool, u64),
        Vec<((u64, u16, u64), (u16, u32, bool, bool))>,
        Vec<(u64, u64, u16, u64)>,
    );

    fn burst_draws(max_faults: usize) -> impl Strategy<Value = BurstDraws> {
        (
            (2u16..7, any::<bool>(), any::<bool>(), 4_000u32..40_000, 0u32..3_000),
            (1u64..5, any::<bool>(), 0u64..300),
            proptest::collection::vec(
                (
                    // tick, output, burst length
                    (0u64..40, 0u16..6, 3u64..7),
                    // first input, size, grid-aligned size, first from high id
                    (0u16..6, any::<u32>(), any::<bool>(), any::<bool>()),
                ),
                1..12,
            ),
            proptest::collection::vec((0u64..120, 0u64..5, 0u16..6, 0u64..3), 0..max_faults),
        )
    }

    fn burst_scenario(d: BurstDraws, lossy: Option<f64>) -> Scenario {
        let (sw, link, bursts, faults) = d;
        let ports = sw.0;
        let mut sc = scenario((sw, link, Vec::new(), faults), lossy);
        for ((tick, out, len), (first_in, size, aligned, high)) in bursts {
            // 66 bytes of headers: an aligned frame is k * 125 bytes on
            // the wire, k us (four grid steps) at 1 Gbps.
            let payload = if aligned { 125 * (1 + size % 9) - 66 } else { 18 + size % 1_400 };
            sc.arrivals.extend((0..len).map(|j| Arrival {
                // Pairs of frames at one instant, one grid step apart.
                tick: tick + j / 2,
                in_port: (first_in + j as u16) % ports,
                out: out % ports,
                payload,
                from_high_id: high ^ (j % 2 == 1),
            }));
        }
        sc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bursts into busy outputs: most frames ride a departure instead
        /// of running a forwarding timer.
        #[test]
        fn contended_hops_ride_unobservably(d in burst_draws(1)) {
            let mut sc = burst_scenario(d, None);
            sc.faults.clear();
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            prop_assert!(early_events <= timer_events);
        }

        /// Directives land on frames that ride a departure: flushed from
        /// the pipeline, dropped for lack of carrier at their exit, or
        /// queued behind a degraded wire.
        #[test]
        fn contended_hops_ride_unobservably_under_faults(d in burst_draws(8)) {
            let sc = burst_scenario(d, None);
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            prop_assert!(early_events <= timer_events);
        }

        /// A lossy port keeps every contended frame on its timer too.
        #[test]
        fn contended_hops_on_a_lossy_switch_keep_their_timers(d in burst_draws(8)) {
            let sc = burst_scenario(d, Some(0.25));
            let (early, early_events) = run(&sc, true);
            let (timer, timer_events) = run(&sc, false);
            prop_assert_eq!(early, timer);
            let healed = sc.faults.iter().any(|(_, f)| {
                matches!(f, SwitchFault::PortUp { port: 1 } | SwitchFault::PortDegraded { port: 1, .. })
            });
            if !healed {
                prop_assert_eq!(early_events, timer_events, "skipped a timer on a lossy switch");
            }
        }
    }

    /// The properties above are vacuous unless every crossing is taken:
    /// one fixed scenario commits frames, arms a departure at admission,
    /// rides it, keeps a forwarding timer, and shows that the drops, marks
    /// and ties it exists to cover do occur.
    #[test]
    fn the_fixed_scenario_takes_both_paths() {
        let mut cfg = SwitchConfig::shallow_gbe("fixed", 4);
        cfg.latency = GRID * 2;
        cfg.ecn_threshold = Some(1_500);
        let arrival = |tick, in_port, out, payload, from_high_id| Arrival {
            tick,
            in_port,
            out,
            payload,
            from_high_id,
        };
        let sc = Scenario {
            cfg,
            link: LinkParams::ten_gbe(100),
            lossy: None,
            // A burst into port 3: the first frame commits, the second
            // finds the wire reserved past its exit and arms the departure
            // the third rides; marks and tail drops behind them. Lone
            // frames to ports 1 and 2, the second of each pair arriving
            // exactly when the first leaves the pipeline, from both sides
            // of the switch's id, commit. Then a 1000-byte frame to port 2
            // commits and the one behind it finds the wire busy just past
            // its exit, by less than the margin: it keeps its timer.
            arrivals: (0..8)
                .map(|i| arrival(0, i % 3, 3, 1_000, i % 2 == 0))
                .chain([
                    arrival(4, 0, 1, 100, false),
                    arrival(6, 2, 1, 100, true),
                    arrival(6, 3, 2, 100, false),
                    arrival(8, 0, 2, 100, true),
                    arrival(10, 0, 2, 1_000, false),
                    arrival(12, 1, 2, 100, true),
                ])
                .collect(),
            faults: Vec::new(),
        };
        let (early, early_events) = run(&sc, true);
        let (timer, timer_events) = run(&sc, false);
        assert_eq!(early, timer);
        assert!(early.stats.contains("drops_buffer: Counter(5)"), "{}", early.stats);
        assert!(early.stats.contains("ecn_marked: Counter(2)"), "{}", early.stats);
        // Every admitted frame but the last saves its forwarding timer:
        // six commits and the burst's two riders.
        assert_eq!(timer_events - early_events, 8);
    }

    /// A burst of same-instant frames into one output: the first commits,
    /// the second arms the departure its wire reservation calls for, and
    /// the ten behind them ride departures. None runs a forwarding timer.
    #[test]
    fn a_same_instant_burst_runs_no_forwarding_timer() {
        let mut cfg = SwitchConfig::shallow_gbe("burst", 4);
        cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 20 };
        let sc = Scenario {
            cfg,
            link: LinkParams::gbe(0),
            lossy: None,
            arrivals: (0..12)
                .map(|i| Arrival {
                    tick: 0,
                    in_port: i % 3,
                    out: 3,
                    payload: 1_000,
                    from_high_id: false,
                })
                .collect(),
            faults: Vec::new(),
        };
        let (early, early_events) = run(&sc, true);
        let (timer, timer_events) = run(&sc, false);
        assert_eq!(early, timer);
        assert_eq!(early.delivered[3].len(), 12);
        assert_eq!(timer_events - early_events, 12);
    }

    /// Frames riding a departure are in their VOQs by the time a directive
    /// lands after their exit: a `PortDown` flushes them, and the
    /// `PortUp` before the departure finds nothing to send.
    #[test]
    fn a_directive_finds_the_riders_in_their_voqs() {
        let mut cfg = SwitchConfig::shallow_gbe("riders", 4);
        cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 20 };
        let frame =
            |tick, in_port| Arrival { tick, in_port, out: 3, payload: 1_000, from_high_id: false };
        let sc = Scenario {
            cfg,
            link: LinkParams::gbe(0),
            lossy: None,
            // The head commits; the second frame's timer at tick 4 arms
            // the departure due when the head leaves, past tick 34 (the
            // directive due before that keeps it from being armed earlier);
            // the four after tick 4 ride it, leaving the pipeline by 12.
            arrivals: [(0, 0), (0, 1), (5, 2), (6, 0), (7, 1), (8, 2)]
                .into_iter()
                .map(|(tick, in_port)| frame(tick, in_port))
                .collect(),
            faults: vec![
                (30, SwitchFault::PortDown { port: 3 }),
                (50, SwitchFault::PortUp { port: 3 }),
            ],
        };
        let (early, early_events) = run(&sc, true);
        let (timer, timer_events) = run(&sc, false);
        assert_eq!(early, timer);
        assert!(early.stats.contains("drops_fault: Counter(5)"), "{}", early.stats);
        assert_eq!(timer_events - early_events, 5);
    }

    /// Arming a departure at admission moves its issue point ahead of a
    /// departure another output arms before this frame's exit, for the
    /// same instant. Harmless while the switch is lossless; here a
    /// directive makes it lossy in between, so the frame must keep its
    /// timer — which the switch's schedule of directives ensures.
    #[test]
    fn a_departure_is_armed_early_only_before_every_scheduled_directive() {
        let mut cfg = SwitchConfig::shallow_gbe("scheduled", 4);
        cfg.latency = GRID;
        cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 20 };
        // 66 bytes of headers: k * 125 bytes on the wire is k us.
        let frame = |tick, in_port, out, us: u32, from_high_id| Arrival {
            tick,
            in_port,
            out,
            payload: 125 * us - 66,
            from_high_id,
        };
        let sc = Scenario {
            cfg,
            link: LinkParams::gbe(0),
            lossy: None,
            arrivals: vec![
                // Output 2: a 1 us head on the wire from tick 1 to 5, then
                // a 2 us frame departing at 5 and ending at 13, with a
                // third behind it, so the departure at 5 arms one for 13.
                frame(0, 0, 2, 1, false),
                frame(0, 0, 2, 2, false),
                frame(0, 0, 2, 1, false),
                // Output 1: its wire is reserved until 13 from tick 1, and
                // a frame admitted at 4 would arm the departure for 13
                // before the one output 2 arms at its exit (5).
                frame(0, 1, 1, 3, true),
                frame(4, 1, 1, 1, true),
            ],
            // Output 1 turns lossy at tick 8, between that exit and 13:
            // which of the two departures at 13 draws first now decides
            // whether output 1's frame is lost.
            faults: vec![(
                16,
                SwitchFault::PortDegraded {
                    port: 1,
                    bandwidth_factor_fp20: fp20_encode(1.0),
                    loss_rate_fp20: fp20_encode(0.8),
                },
            )],
        };
        let (early, _) = run(&sc, true);
        let (timer, _) = run(&sc, false);
        assert_eq!(early, timer);
    }
}
