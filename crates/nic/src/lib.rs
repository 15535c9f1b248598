//! # diablo-nic — the abstracted network interface card model
//!
//! DIABLO's NIC model (§3.3, Figure 4) resembles the Intel 8254x Gigabit
//! Ethernet controller: scatter/gather DMA with ring-based packet buffers in
//! host DRAM, RX/TX descriptor rings, interrupt mitigation and a NAPI-style
//! polling interface. This crate implements that device as a passive model
//! embedded in the server component (`diablo-node`): the server's event
//! handlers drive it and route its timer requests.
//!
//! Timing model:
//!
//! * **TX**: the driver posts frames to a bounded TX descriptor ring. The
//!   DMA engine streams them onto the wire back-to-back; a per-packet DMA
//!   fetch latency applies before the first bit of each frame. A frame
//!   posted to an idle engine goes out at once. One posted behind a busy
//!   engine starts at once too, at the instant the engine frees, when the
//!   host shows that nothing can change the uplink by then; it holds its
//!   descriptor until that instant. Only a frame held back that way asks
//!   for a [`keys::TX_DONE`] timer (DESIGN.md §9.1).
//! * **RX**: arriving frames consume RX descriptors; when the ring is full
//!   frames are dropped (the overload behaviour behind receive livelock).
//!   An interrupt is asserted after `intr_delay`, but no sooner than
//!   `intr_mitigation` after the previous interrupt (ITR-style moderation).
//!   Under NAPI the driver masks interrupts and polls with a budget,
//!   re-enabling them only once the ring drains. The host may assert a
//!   pending interrupt itself at its instant instead of arming
//!   [`keys::RX_INTR`] when it knows nothing else runs before then
//!   (DESIGN.md §9.1); the device behaves the same either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use diablo_engine::metrics::{FlightRecord, FlightRing, Instrumented, MetricsVisitor};
use diablo_engine::prelude::{Counter, DetRng, SimDuration, SimTime};
use diablo_net::link::{LinkParams, LinkState, PortPeer, TxPort};
use diablo_net::Frame;
use std::collections::{vec_deque, VecDeque};

/// Timer sub-keys the NIC asks its hosting component to schedule.
pub mod keys {
    /// The frame on the wire has left and another waits in the TX ring:
    /// call [`Nic::on_tx_done`](super::Nic::on_tx_done) to start it. Armed
    /// only while the ring holds a frame held back past the host's bound.
    pub const TX_DONE: u64 = 1;
    /// RX interrupt assertion: call [`Nic::on_rx_interrupt`](super::Nic::on_rx_interrupt).
    pub const RX_INTR: u64 = 2;
}

/// Static NIC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicConfig {
    /// TX descriptor ring entries.
    pub tx_ring: usize,
    /// RX descriptor ring entries.
    pub rx_ring: usize,
    /// Per-packet DMA descriptor fetch latency before transmission.
    pub dma_latency: SimDuration,
    /// Delay from frame stored to interrupt assertion.
    pub intr_delay: SimDuration,
    /// Minimum spacing between consecutive interrupts (interrupt
    /// throttling / mitigation).
    pub intr_mitigation: SimDuration,
}

impl Default for NicConfig {
    /// Values modeled after a server-class GbE adapter: 256-entry rings,
    /// 1 µs DMA latency, 2 µs interrupt delay, 10 µs mitigation.
    fn default() -> Self {
        NicConfig {
            tx_ring: 256,
            rx_ring: 256,
            dma_latency: SimDuration::from_micros(1),
            intr_delay: SimDuration::from_micros(2),
            intr_mitigation: SimDuration::from_micros(10),
        }
    }
}

/// NIC statistics.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Frames fully transmitted.
    pub tx_frames: Counter,
    /// Frames accepted into the RX ring.
    pub rx_frames: Counter,
    /// Frames dropped because the RX ring was full.
    pub rx_ring_drops: Counter,
    /// Frames rejected because the TX ring was full.
    pub tx_ring_rejects: Counter,
    /// Frames lost on the uplink wire (egress link loss draw).
    pub tx_loss_drops: Counter,
    /// Frames dropped on the TX path because the uplink had no carrier
    /// (link down or node crashed): swallowed at enqueue, drained from the
    /// ring when carrier was lost, or discarded at transmission start.
    pub tx_carrier_drops: Counter,
    /// Frames arriving from the wire while the uplink had no carrier.
    pub rx_carrier_drops: Counter,
    /// Interrupts asserted.
    pub interrupts: Counter,
    /// High-water mark of RX ring occupancy.
    pub rx_ring_highwater: usize,
}

/// Actions the hosting component must perform on the NIC's behalf.
///
/// The NIC is a passive model: it cannot schedule events itself, so its
/// methods return requests that the server component translates into engine
/// timers and frame sends.
#[derive(Debug, Clone, PartialEq)]
pub enum NicAction {
    /// Schedule a timer at the given absolute time with the given sub-key
    /// (see [`keys`]).
    SetTimer(SimTime, u64),
    /// Deliver `frame` to the wired peer at the given absolute time.
    SendFrame(SimTime, Frame),
}

/// Outcome of offering a received frame to the RX path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Stored in the RX ring.
    Stored,
    /// Dropped: the ring was full.
    Dropped,
}

/// The NIC device model. See the crate docs for the timing model.
///
/// # Examples
///
/// ```
/// use diablo_nic::{Nic, NicConfig};
/// use diablo_net::link::{LinkParams, PortPeer};
/// use diablo_engine::prelude::*;
///
/// let peer = PortPeer {
///     component: ComponentId(1),
///     port: PortNo(0),
///     params: LinkParams::gbe(500),
/// };
/// let nic = Nic::new(NicConfig::default(), peer, DetRng::new(42));
/// assert_eq!(nic.rx_queue_len(), 0);
/// ```
#[derive(Debug)]
pub struct Nic {
    cfg: NicConfig,
    tx_port: TxPort,
    tx_ring: VecDeque<Frame>,
    /// When the DMA engine is done with the frame it last put on the wire;
    /// until then a posted frame waits in the ring. A crash reset clears it:
    /// the rebooted engine is idle whatever the wire still carries.
    tx_done_at: SimTime,
    /// The instants frames started ahead of their turn leave the ring, in
    /// start order: until then each holds its descriptor.
    tx_starts: VecDeque<SimTime>,
    /// A [`keys::TX_DONE`] timer is armed for `tx_done_at`.
    tx_done_armed: bool,
    /// Always `false` outside this crate's tests, which build the NIC that
    /// arms a completion for every frame as their reference.
    completion_per_frame: bool,
    rx_ring: VecDeque<Frame>,
    intr_masked: bool,
    intr_pending: bool,
    last_intr: Option<SimTime>,
    /// Healthy uplink parameters, captured at construction so carrier
    /// restoration can undo a degradation.
    base_params: LinkParams,
    /// Fault-driven uplink state.
    link_state: LinkState,
    rng: DetRng,
    trace: Option<FlightRing>,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC wired to `peer` (the ToR switch port).
    ///
    /// `rng` drives the egress loss draw against the uplink's
    /// `loss_rate`; callers must seed it from simulation-stable identity
    /// (the node address) — never from placement — so results are
    /// identical across serial and partitioned execution.
    ///
    /// # Panics
    ///
    /// Panics if either ring size is zero, or if the uplink's loss rate is
    /// not a probability (unreachable through the public `LinkParams` API,
    /// which validates in `try_with_loss_rate`; kept as defense in depth).
    pub fn new(cfg: NicConfig, peer: PortPeer, rng: DetRng) -> Self {
        assert!(cfg.tx_ring > 0 && cfg.rx_ring > 0, "rings must be nonempty");
        assert!(
            peer.params.loss_rate_is_valid(),
            "uplink loss_rate {} is not a probability",
            peer.params.loss_rate()
        );
        Nic {
            cfg,
            tx_port: TxPort::new(peer),
            tx_ring: VecDeque::new(),
            tx_done_at: SimTime::ZERO,
            tx_starts: VecDeque::new(),
            tx_done_armed: false,
            completion_per_frame: false,
            rx_ring: VecDeque::new(),
            intr_masked: false,
            intr_pending: false,
            last_intr: None,
            base_params: peer.params,
            link_state: LinkState::Up,
            rng,
            trace: None,
            stats: NicStats::default(),
        }
    }

    /// The timer-per-frame NIC: every transmission arms a completion, and
    /// the engine stays busy until one fires on an empty ring. Tests
    /// compare the shipped NIC against it; nothing else can build one.
    #[cfg(test)]
    fn with_completion_per_frame(mut self) -> Self {
        self.completion_per_frame = true;
        self
    }

    /// Starts recording DMA/loss trace events into a bounded ring of
    /// `capacity` records (for the cross-layer flight recorder).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(FlightRing::new(capacity));
    }

    /// A copy of the recorded trace events (empty when tracing is off).
    pub fn trace(&self) -> Vec<FlightRecord> {
        self.trace.as_ref().map(FlightRing::records).unwrap_or_default()
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Frames waiting in the RX ring.
    pub fn rx_queue_len(&self) -> usize {
        self.rx_ring.len()
    }

    /// Free TX descriptors at `now`.
    pub fn tx_free(&mut self, now: SimTime) -> usize {
        while self.tx_starts.front().is_some_and(|&at| at <= now) {
            self.tx_starts.pop_front();
        }
        self.cfg.tx_ring - self.tx_ring.len() - self.tx_starts.len()
    }

    /// The instant a pending interrupt is due, unless it is masked.
    pub fn pending_interrupt(&self) -> Option<SimTime> {
        self.last_intr.filter(|_| self.intr_pending && !self.intr_masked)
    }

    /// The wired peer (for route/link introspection).
    pub fn peer(&self) -> PortPeer {
        self.tx_port.peer
    }

    // ------------------------------------------------------------ faults --

    /// The fault-driven uplink state.
    pub fn link_state(&self) -> LinkState {
        self.link_state
    }

    /// `true` when the uplink has carrier (up or degraded).
    pub fn carrier(&self) -> bool {
        self.link_state.has_carrier()
    }

    /// Takes the uplink carrier down. Frames waiting in the TX ring cannot
    /// leave a dead link: they are drained and counted as
    /// [`NicStats::tx_carrier_drops`]. A transmission already on the wire
    /// keeps its committed delivery, and an armed completion timer still
    /// fires (and finds nothing to start).
    pub fn set_carrier_down(&mut self) {
        self.link_state = LinkState::Down;
        self.stats.tx_carrier_drops.add(self.tx_ring.len() as u64);
        self.tx_ring.clear();
    }

    /// Restores the uplink to its base (healthy) parameters, clearing any
    /// degradation.
    pub fn set_carrier_up(&mut self) {
        self.link_state = LinkState::Up;
        self.tx_port.peer.params = self.base_params;
    }

    /// Degrades the uplink: bandwidth scaled by the fp20 factor and loss
    /// rate replaced (see [`LinkParams::degraded_fp20`]). Restores carrier
    /// if the link was down.
    pub fn degrade_link_fp20(&mut self, bandwidth_factor_fp20: u64, loss_rate_fp20: u64) {
        self.link_state = LinkState::Degraded { bandwidth_factor_fp20, loss_rate_fp20 };
        self.tx_port.peer.params =
            self.base_params.degraded_fp20(bandwidth_factor_fp20, loss_rate_fp20);
    }

    /// Resets the device as a node crash would: carrier drops (draining the
    /// TX ring to the carrier-drop counter), the RX ring is lost, and the
    /// interrupt state clears. Cumulative statistics survive — the
    /// conservation book is about the network's history, not the device's
    /// uptime. The host brings carrier back with
    /// [`Nic::set_carrier_up`] on reboot.
    pub fn reset_after_crash(&mut self) {
        self.set_carrier_down();
        self.rx_ring.clear();
        self.tx_done_at = SimTime::ZERO;
        self.tx_starts.clear();
        self.tx_done_armed = false;
        self.intr_masked = false;
        self.intr_pending = false;
        self.last_intr = None;
    }

    // ---------------------------------------------------------------- TX --

    /// Driver posts a frame for transmission: [`Nic::tx_post`] with no
    /// frame started ahead of its turn.
    pub fn tx_enqueue(&mut self, frame: Frame, now: SimTime, actions: &mut Vec<NicAction>) -> bool {
        self.tx_post(frame, now, now, actions)
    }

    /// Driver posts a frame for transmission. It starts at once if the
    /// engine is idle, or busy until an instant no later than `until`
    /// (the host's bound: no fault directive before it, and no observer).
    /// Otherwise it waits in the ring, and the first frame to wait arms
    /// the [`keys::TX_DONE`] timer for the instant the engine frees.
    ///
    /// Returns `false` (and counts a reject) when the TX ring is full. The
    /// frame is gone: nothing retries it (the modeled kernel counts it in
    /// `kernel.tx_drops`), so reliability is the transport's business.
    pub fn tx_post(
        &mut self,
        frame: Frame,
        now: SimTime,
        until: SimTime,
        actions: &mut Vec<NicAction>,
    ) -> bool {
        if !self.carrier() {
            // Carrier-down semantics: the frame is accepted and silently
            // dropped (counted), like an interface in NO-CARRIER — the
            // stack must not spin retrying against a dead link.
            self.stats.tx_carrier_drops.incr();
            drop(frame);
            return true;
        }
        if self.tx_free(now) == 0 {
            self.stats.tx_ring_rejects.incr();
            return false;
        }
        self.tx_ring.push_back(frame);
        self.start_ready(now, until, actions);
        true
    }

    /// Starts ring frames in order, each at the instant the engine frees,
    /// while that is now or no later than `until`; arms the completion
    /// for the first frame past it. With a completion armed, that timer
    /// starts the ring's head. (The reference has one armed whenever its
    /// engine is busy.)
    fn start_ready(&mut self, now: SimTime, until: SimTime, actions: &mut Vec<NicAction>) {
        while !self.tx_done_armed && !self.tx_ring.is_empty() {
            let at = self.tx_done_at.max(now);
            if at > now && at > until {
                self.tx_done_armed = true;
                actions.push(NicAction::SetTimer(at, keys::TX_DONE));
            } else {
                if at > now {
                    self.tx_starts.push_back(at);
                }
                self.start_tx(at, actions);
            }
        }
    }

    /// Puts the ring's head on the wire at `at`, the instant it leaves the
    /// ring.
    fn start_tx(&mut self, at: SimTime, actions: &mut Vec<NicAction>) {
        if !self.carrier() {
            // Carrier lost between completions: nothing can leave.
            self.stats.tx_carrier_drops.add(self.tx_ring.len() as u64);
            self.tx_ring.clear();
            return;
        }
        let Some(frame) = self.tx_ring.pop_front() else {
            return;
        };
        let wire = frame.wire_bytes();
        let timing = self.tx_port.transmit(at + self.cfg.dma_latency, wire);
        if let Some(tr) = &mut self.trace {
            tr.push(FlightRecord::new(timing.start, "nic_dma_tx", wire as u64, 0));
        }
        let loss = self.tx_port.peer.params.loss_rate();
        debug_assert!(
            self.tx_port.peer.params.loss_rate_is_valid(),
            "uplink loss_rate {loss} is not a probability"
        );
        // Egress link loss: the frame occupies the wire (and the engine)
        // either way, but a lost frame is never delivered — the mirror
        // image of the switch's egress loss draw, which previously made
        // lossy links one-sided (switch->node only).
        if self.rng.chance(loss) {
            self.stats.tx_loss_drops.incr();
            if let Some(tr) = &mut self.trace {
                tr.push(FlightRecord {
                    at: timing.end,
                    kind: "nic_tx_loss",
                    detail: "wire",
                    a: wire as u64,
                    b: 0,
                });
            }
        } else {
            self.stats.tx_frames.incr();
            actions.push(NicAction::SendFrame(timing.arrival, frame));
        }
        self.tx_done_at = timing.end;
        if self.completion_per_frame {
            self.tx_done_armed = true;
            actions.push(NicAction::SetTimer(timing.end, keys::TX_DONE));
        }
    }

    /// Handles the [`keys::TX_DONE`] timer: [`Nic::tx_resume`] with no
    /// frame started ahead of its turn.
    pub fn on_tx_done(&mut self, now: SimTime, actions: &mut Vec<NicAction>) {
        self.tx_resume(now, now, actions);
    }

    /// Handles the [`keys::TX_DONE`] timer: the engine is free, so the
    /// frame at the head of the ring goes on the wire, and the frames
    /// behind it start as in [`Nic::tx_post`]. If the carrier went down
    /// meanwhile the ring is already empty and nothing starts.
    pub fn tx_resume(&mut self, now: SimTime, until: SimTime, actions: &mut Vec<NicAction>) {
        self.tx_done_armed = false;
        self.start_ready(now, until, actions);
    }

    // ---------------------------------------------------------------- RX --

    /// A frame arrived from the wire.
    pub fn rx_frame(
        &mut self,
        frame: Frame,
        now: SimTime,
        actions: &mut Vec<NicAction>,
    ) -> RxOutcome {
        if !self.carrier() {
            // No carrier (link down or host crashed): the wire-committed
            // frame arrives at a dead interface and is lost. Counted so
            // the switch-to-node conservation book still balances.
            self.stats.rx_carrier_drops.incr();
            return RxOutcome::Dropped;
        }
        if self.rx_ring.len() >= self.cfg.rx_ring {
            self.stats.rx_ring_drops.incr();
            return RxOutcome::Dropped;
        }
        self.rx_ring.push_back(frame);
        self.stats.rx_frames.incr();
        self.stats.rx_ring_highwater = self.stats.rx_ring_highwater.max(self.rx_ring.len());
        if !self.intr_masked && !self.intr_pending {
            let at = self.next_intr_time(now);
            self.intr_pending = true;
            self.last_intr = Some(at);
            actions.push(NicAction::SetTimer(at, keys::RX_INTR));
        }
        RxOutcome::Stored
    }

    /// Handles the RX interrupt timer.
    ///
    /// Returns `true` if the interrupt is live (the driver should mask and
    /// schedule a NAPI poll); `false` for stale interrupts (already masked
    /// or ring already drained).
    pub fn on_rx_interrupt(&mut self) -> bool {
        self.intr_pending = false;
        if self.intr_masked || self.rx_ring.is_empty() {
            return false;
        }
        self.stats.interrupts.incr();
        self.intr_masked = true;
        true
    }

    /// NAPI poll: removes up to `budget` frames from the RX ring, oldest
    /// first, as the caller drains the iterator into its own buffer (the
    /// whole range leaves the ring even if the iterator is dropped early).
    pub fn rx_poll(&mut self, budget: usize) -> vec_deque::Drain<'_, Frame> {
        let n = budget.min(self.rx_ring.len());
        self.rx_ring.drain(..n)
    }

    /// Re-enables interrupts after a NAPI poll cycle that drained the ring.
    ///
    /// If frames raced in meanwhile, an immediate interrupt is scheduled
    /// (subject to mitigation).
    pub fn unmask_interrupts(&mut self, now: SimTime, actions: &mut Vec<NicAction>) {
        self.intr_masked = false;
        if !self.rx_ring.is_empty() && !self.intr_pending {
            let at = self.next_intr_time(now);
            self.intr_pending = true;
            self.last_intr = Some(at);
            actions.push(NicAction::SetTimer(at, keys::RX_INTR));
        }
    }

    /// The earliest instant a live RX interrupt could fire, as seen at
    /// `now`: `None` while interrupts are masked (a NAPI poll cycle owns
    /// the ring), the armed instant while one is pending, otherwise the
    /// earliest a frame arriving from `now` on could assert one. The
    /// kernel runs a process span without a completion timer only if it
    /// ends strictly before this (DESIGN.md §9.1).
    pub fn rx_quiet_until(&self, now: SimTime) -> Option<SimTime> {
        if self.intr_masked {
            None
        } else if self.intr_pending {
            self.last_intr
        } else {
            Some(self.next_intr_time(now))
        }
    }

    /// Earliest legal assertion time for a new interrupt: after the
    /// assertion delay, and no closer than the mitigation interval to the
    /// previous interrupt.
    fn next_intr_time(&self, now: SimTime) -> SimTime {
        let at = now + self.cfg.intr_delay;
        match self.last_intr {
            Some(prev) => at.max(prev + self.cfg.intr_mitigation),
            None => at,
        }
    }
}

impl Instrumented for Nic {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("tx_frames", self.stats.tx_frames.get());
        v.counter("tx_loss_drops", self.stats.tx_loss_drops.get());
        v.counter("tx_ring_rejects", self.stats.tx_ring_rejects.get());
        v.counter("tx_carrier_drops", self.stats.tx_carrier_drops.get());
        v.counter("rx_frames", self.stats.rx_frames.get());
        v.counter("rx_ring_drops", self.stats.rx_ring_drops.get());
        v.counter("rx_carrier_drops", self.stats.rx_carrier_drops.get());
        v.counter("interrupts", self.stats.interrupts.get());
        v.counter("rx_ring_highwater", self.stats.rx_ring_highwater as u64);
        v.gauge("rx_queue_len", self.rx_ring.len() as f64);
        v.gauge("tx_queue_len", self.tx_ring.len() as f64);
    }

    fn flight_records(&self) -> Vec<FlightRecord> {
        self.trace()
    }
}

diablo_engine::impl_snap_struct!(NicStats {
    tx_frames,
    rx_frames,
    rx_ring_drops,
    tx_ring_rejects,
    tx_loss_drops,
    tx_carrier_drops,
    rx_carrier_drops,
    interrupts,
    rx_ring_highwater
});

// Device state for checkpoint/restore, chained into the hosting server
// component's snapshot. `tx_port` rides whole so fault-degraded uplink
// params restore exactly; `cfg` and `base_params` are rebuilt from
// configuration and `trace` (static-str flight records) is excluded.
diablo_engine::impl_persist_fields!(Nic {
    tx_port,
    tx_ring,
    tx_done_at,
    tx_starts,
    tx_done_armed,
    rx_ring,
    intr_masked,
    intr_pending,
    last_intr,
    link_state,
    rng,
    stats,
    cfg: config,
    base_params: config,
    trace: config,
    completion_per_frame: config,
} after_load = check_tx_starts);

impl Nic {
    /// Refuses start instants out of order, past the engine's free
    /// instant, or more frames than the ring has descriptors.
    fn check_tx_starts(&self) -> Result<(), diablo_engine::snap::SnapError> {
        let starts = &self.tx_starts;
        let sorted = starts.iter().zip(starts.iter().skip(1)).all(|(a, b)| a <= b);
        if !sorted
            || starts.back().is_some_and(|&at| at > self.tx_done_at)
            || starts.len() + self.tx_ring.len() > self.cfg.tx_ring
        {
            return Err(diablo_engine::snap::SnapError::Malformed(format!(
                "NIC start instants {starts:?} with the engine free at {} and {} of {} \
                 descriptors waiting",
                self.tx_done_at,
                self.tx_ring.len(),
                self.cfg.tx_ring
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_engine::event::{ComponentId, PortNo};
    use diablo_net::addr::NodeAddr;
    use diablo_net::frame::Route;
    use diablo_net::link::LinkParams;
    use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};

    fn frame(payload: u32) -> Frame {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            msg: AppMessage::new(0, 0, payload, SimTime::ZERO),
        };
        Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![0]))
    }

    fn nic(cfg: NicConfig) -> Nic {
        nic_with_loss(cfg, 0.0)
    }

    fn nic_with_loss(cfg: NicConfig, loss: f64) -> Nic {
        let peer = PortPeer {
            component: ComponentId(1),
            port: PortNo(0),
            params: LinkParams::gbe(500).with_loss_rate(loss),
        };
        Nic::new(cfg, peer, DetRng::new(7))
    }

    fn send_times(actions: &[NicAction]) -> Vec<SimTime> {
        actions
            .iter()
            .filter_map(|a| match a {
                NicAction::SendFrame(t, _) => Some(*t),
                _ => None,
            })
            .collect()
    }

    /// When the armed completion timer fires, if one was armed.
    fn tx_done(actions: &[NicAction]) -> Option<SimTime> {
        actions.iter().find_map(|a| match a {
            NicAction::SetTimer(t, keys::TX_DONE) => Some(*t),
            _ => None,
        })
    }

    #[test]
    fn tx_serializes_back_to_back_with_dma_prefix() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        let t0 = SimTime::from_micros(100);
        assert!(n.tx_enqueue(frame(1000), t0, &mut actions));
        assert!(n.tx_enqueue(frame(1000), t0, &mut actions));
        // First frame: dma 1 us, then 1066B wire = 8.528 us, prop 500 ns.
        assert_eq!(send_times(&actions), vec![SimTime::from_nanos(100_000 + 1_000 + 8_528 + 500)]);
        // The second frame waits, so a completion is armed for the instant
        // the first leaves; the second goes out after its own DMA.
        let done = tx_done(&actions).expect("a frame waits behind the wire");
        assert_eq!(done, SimTime::from_nanos(100_000 + 1_000 + 8_528));
        actions.clear();
        n.on_tx_done(done, &mut actions);
        let second = send_times(&actions)[0];
        assert_eq!(second, done + SimDuration::from_nanos(1_000 + 8_528 + 500));
        assert_eq!(tx_done(&actions), None, "nothing waits behind the second");
    }

    #[test]
    fn a_lone_frame_arms_no_completion() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        let t0 = SimTime::from_micros(100);
        assert!(n.tx_enqueue(frame(1000), t0, &mut actions));
        assert_eq!(send_times(&actions).len(), 1);
        assert_eq!(tx_done(&actions), None);
        // Posted exactly when the first frame's wire time ends: the engine
        // is free, so it starts at once, after its DMA.
        let end = t0 + SimDuration::from_nanos(1_000 + 8_528);
        actions.clear();
        assert!(n.tx_enqueue(frame(1000), end, &mut actions));
        assert_eq!(send_times(&actions), vec![end + SimDuration::from_nanos(1_000 + 8_528 + 500)]);
        assert_eq!(tx_done(&actions), None);
    }

    #[test]
    fn tx_ring_rejects_when_full() {
        let cfg = NicConfig { tx_ring: 2, ..NicConfig::default() };
        let mut n = nic(cfg);
        let mut actions = Vec::new();
        let t0 = SimTime::ZERO;
        assert!(n.tx_enqueue(frame(100), t0, &mut actions)); // popped into flight
        assert!(n.tx_enqueue(frame(100), t0, &mut actions));
        assert!(n.tx_enqueue(frame(100), t0, &mut actions));
        assert!(!n.tx_enqueue(frame(100), t0, &mut actions));
        assert_eq!(n.stats().tx_ring_rejects.get(), 1);
        assert_eq!(n.tx_free(t0), 0);
    }

    #[test]
    fn egress_loss_drops_frames_but_keeps_wire_timing() {
        let mut n = nic_with_loss(NicConfig::default(), 1.0);
        n.enable_trace(16);
        let mut actions = Vec::new();
        assert!(n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions));
        assert!(n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions));
        // The lost frame is never delivered, but it occupied the wire: the
        // frame behind it waits for its 1 us DMA and 8.528 us on the wire.
        assert!(send_times(&actions).is_empty());
        assert_eq!(tx_done(&actions), Some(SimTime::from_nanos(1_000 + 8_528)));
        assert_eq!(n.stats().tx_loss_drops.get(), 1);
        assert_eq!(n.stats().tx_frames.get(), 0);
        let trace = n.trace();
        assert!(trace.iter().any(|r| r.kind == "nic_dma_tx"));
        assert!(trace.iter().any(|r| r.kind == "nic_tx_loss"));
    }

    #[test]
    fn lossless_uplink_never_draws_a_drop() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        for _ in 0..50 {
            n.tx_enqueue(frame(100), SimTime::ZERO, &mut actions);
        }
        while let Some(done) = tx_done(&actions) {
            actions.clear();
            n.on_tx_done(done, &mut actions);
        }
        assert_eq!(n.stats().tx_loss_drops.get(), 0);
        assert_eq!(n.stats().tx_frames.get(), 50);
    }

    #[test]
    fn invalid_loss_rate_rejected_by_constructor() {
        // The raw-field write path is gone; the fallible constructor is
        // the only way to set a loss rate, and it rejects bad input.
        assert!(LinkParams::gbe(500).try_with_loss_rate(f64::NAN).is_err());
        assert!(LinkParams::gbe(500).try_with_loss_rate(2.0).is_err());
    }

    #[test]
    fn carrier_down_swallows_tx_and_drops_rx_until_up() {
        use diablo_net::link::LinkState;
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        // Queue two frames: one goes into flight, one waits in the ring.
        assert!(n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions));
        assert!(n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions));
        assert_eq!(send_times(&actions).len(), 1);
        actions.clear();
        // Carrier drops: the ring-resident frame is drained and counted.
        n.set_carrier_down();
        assert_eq!(n.link_state(), LinkState::Down);
        assert_eq!(n.stats().tx_carrier_drops.get(), 1);
        // Enqueues while down are accepted-and-dropped, not backpressured.
        assert!(n.tx_enqueue(frame(1000), SimTime::from_micros(1), &mut actions));
        assert_eq!(n.stats().tx_carrier_drops.get(), 2);
        assert!(send_times(&actions).is_empty());
        // RX while down is counted against the carrier-drop book.
        assert_eq!(
            n.rx_frame(frame(100), SimTime::from_micros(1), &mut actions),
            RxOutcome::Dropped
        );
        assert_eq!(n.stats().rx_carrier_drops.get(), 1);
        assert_eq!(n.stats().rx_frames.get(), 0);
        // The in-flight frame's completion timer fires during the outage:
        // nothing further starts, the engine goes idle.
        actions.clear();
        n.on_tx_done(SimTime::from_micros(11), &mut actions);
        assert!(actions.is_empty());
        // Recovery: TX and RX resume.
        n.set_carrier_up();
        assert!(n.tx_enqueue(frame(1000), SimTime::from_micros(50), &mut actions));
        assert_eq!(send_times(&actions).len(), 1);
        assert_eq!(
            n.rx_frame(frame(100), SimTime::from_micros(50), &mut actions),
            RxOutcome::Stored
        );
    }

    #[test]
    fn degraded_uplink_slows_tx_then_recovers() {
        use diablo_net::link::fp20_encode;
        let mut n = nic(NicConfig::default());
        n.degrade_link_fp20(fp20_encode(0.5), 0);
        let mut actions = Vec::new();
        let t0 = SimTime::from_micros(100);
        assert!(n.tx_enqueue(frame(1000), t0, &mut actions));
        // 1066 B wire at the degraded 500 Mbps: 17.056 us, plus 1 us DMA
        // and 500 ns propagation.
        assert_eq!(send_times(&actions), vec![SimTime::from_nanos(100_000 + 1_000 + 17_056 + 500)]);
        // Carrier-up restores the base 1 Gbps.
        n.set_carrier_up();
        let done = t0 + SimDuration::from_nanos(1_000 + 17_056);
        actions.clear();
        assert!(n.tx_enqueue(frame(1000), done, &mut actions));
        assert_eq!(send_times(&actions), vec![done + SimDuration::from_nanos(1_000 + 8_528 + 500)]);
    }

    #[test]
    fn crash_reset_clears_rings_and_interrupt_state() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        for _ in 0..3 {
            n.rx_frame(frame(100), SimTime::ZERO, &mut actions);
        }
        assert!(n.on_rx_interrupt());
        n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions);
        n.tx_enqueue(frame(1000), SimTime::ZERO, &mut actions);
        n.reset_after_crash();
        assert!(!n.carrier());
        assert_eq!(n.rx_queue_len(), 0);
        assert_eq!(n.tx_free(SimTime::ZERO), n.config().tx_ring);
        // One frame was in flight (not in the ring); only the queued one
        // counts as a carrier drop.
        assert_eq!(n.stats().tx_carrier_drops.get(), 1);
        // rx_frames already counted the stored frames, so conservation
        // (switch tx == rx + ring drops + carrier drops) is unaffected by
        // losing the ring contents.
        assert_eq!(n.stats().rx_frames.get(), 3);
        // After reboot the interrupt path starts fresh.
        n.set_carrier_up();
        actions.clear();
        assert_eq!(
            n.rx_frame(frame(100), SimTime::from_micros(5), &mut actions),
            RxOutcome::Stored
        );
        assert!(actions.iter().any(|a| matches!(a, NicAction::SetTimer(_, keys::RX_INTR))));
    }

    #[test]
    fn rx_ring_drops_when_full() {
        let cfg = NicConfig { rx_ring: 3, ..NicConfig::default() };
        let mut n = nic(cfg);
        let mut actions = Vec::new();
        for _ in 0..3 {
            assert_eq!(n.rx_frame(frame(100), SimTime::ZERO, &mut actions), RxOutcome::Stored);
        }
        assert_eq!(n.rx_frame(frame(100), SimTime::ZERO, &mut actions), RxOutcome::Dropped);
        assert_eq!(n.stats().rx_ring_drops.get(), 1);
        assert_eq!(n.stats().rx_ring_highwater, 3);
    }

    #[test]
    fn interrupts_are_mitigated() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        // First frame: interrupt at t+2us.
        n.rx_frame(frame(100), SimTime::from_micros(0), &mut actions);
        assert_eq!(actions, vec![NicAction::SetTimer(SimTime::from_micros(2), keys::RX_INTR)]);
        assert!(n.on_rx_interrupt()); // live; driver masks
                                      // While masked, arrivals are silent.
        actions.clear();
        n.rx_frame(frame(100), SimTime::from_micros(3), &mut actions);
        assert!(actions.is_empty());
        // Poll everything, unmask at t=4us with empty ring: nothing pending.
        assert_eq!(n.rx_poll(64).len(), 2);
        n.unmask_interrupts(SimTime::from_micros(4), &mut actions);
        assert!(actions.is_empty());
        // Next frame at 5us: mitigation forces the interrupt to 2+10=12us.
        n.rx_frame(frame(100), SimTime::from_micros(5), &mut actions);
        assert_eq!(actions, vec![NicAction::SetTimer(SimTime::from_micros(12), keys::RX_INTR)]);
    }

    #[test]
    fn stale_interrupt_after_drain_is_ignored() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        n.rx_frame(frame(100), SimTime::ZERO, &mut actions);
        // Driver polls before the interrupt fires (e.g. from a TX path).
        assert_eq!(n.rx_poll(64).len(), 1);
        assert!(!n.on_rx_interrupt(), "interrupt on drained ring must be stale");
    }

    #[test]
    fn unmask_with_backlog_rearms() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        n.rx_frame(frame(100), SimTime::ZERO, &mut actions);
        assert!(n.on_rx_interrupt());
        n.rx_frame(frame(100), SimTime::from_micros(1), &mut actions);
        // Poll only one of two; unmask must re-arm.
        assert_eq!(n.rx_poll(1).len(), 1);
        actions.clear();
        n.unmask_interrupts(SimTime::from_micros(5), &mut actions);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], NicAction::SetTimer(_, keys::RX_INTR)));
    }

    #[test]
    fn rx_quiet_until_is_the_earliest_live_interrupt() {
        let us = SimTime::from_micros;
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        // Idle, never interrupted: the assertion delay from now.
        assert_eq!(n.rx_quiet_until(us(3)), Some(us(5)));
        // Pending: the armed instant, whenever asked.
        n.rx_frame(frame(100), us(4), &mut actions);
        assert_eq!(actions, vec![NicAction::SetTimer(us(6), keys::RX_INTR)]);
        assert_eq!(n.rx_quiet_until(us(4)), Some(us(6)));
        assert_eq!(n.rx_quiet_until(us(5)), Some(us(6)));
        // Masked: a poll cycle owns the ring, no bound.
        assert!(n.on_rx_interrupt());
        assert_eq!(n.rx_quiet_until(us(6)), None);
        // Unmasked inside the mitigation interval: 6 + 10 us, not now + 2.
        assert_eq!(n.rx_poll(64).len(), 1);
        actions.clear();
        n.unmask_interrupts(us(8), &mut actions);
        assert!(actions.is_empty());
        assert_eq!(n.rx_quiet_until(us(8)), Some(us(16)));
        // A frame arriving then asserts exactly there.
        n.rx_frame(frame(100), us(9), &mut actions);
        assert_eq!(actions, vec![NicAction::SetTimer(us(16), keys::RX_INTR)]);
        // Past the interval the delay from now rules again.
        assert!(n.on_rx_interrupt());
        assert_eq!(n.rx_poll(64).len(), 1);
        n.unmask_interrupts(us(30), &mut actions);
        assert_eq!(n.rx_quiet_until(us(30)), Some(us(32)));
    }

    #[test]
    fn poll_respects_budget() {
        let mut n = nic(NicConfig::default());
        let mut actions = Vec::new();
        for _ in 0..10 {
            n.rx_frame(frame(100), SimTime::ZERO, &mut actions);
        }
        assert_eq!(n.rx_poll(4).len(), 4);
        assert_eq!(n.rx_queue_len(), 6);
        assert_eq!(n.rx_poll(100).len(), 6);
    }
}

/// Arming a completion only for a frame held back must be unobservable:
/// each test drives the shipped NIC and the timer-per-frame NIC
/// (`with_completion_per_frame`) through one script and compares every
/// frame put on the wire, the counters and the ring. The shipped NIC
/// starts a frame behind a busy engine when it is posted, up to the bound
/// its host gives: no scripted directive before the start, and no
/// observation (a run's limit) before it either.
#[cfg(test)]
mod completion_tests {
    use super::*;
    use diablo_engine::event::{ComponentId, PortNo};
    use diablo_engine::snap::{Persist, SnapError, SnapReader, SnapWriter};
    use diablo_net::addr::NodeAddr;
    use diablo_net::frame::Route;
    use diablo_net::link::fp20_encode;
    use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};
    use proptest::prelude::*;

    /// Operations sit on this grid. The DMA latency is one step and an
    /// aligned frame's wire time a whole number of steps, at full and at
    /// degraded bandwidth, so posts tie with completions.
    const GRID: SimDuration = SimDuration::from_micros(1);

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Post { payload: u32 },
        CarrierDown,
        CarrierUp,
        Degrade { severity: usize },
        Crash,
    }

    /// One NIC with the engine around it reduced to a list of pending
    /// completions, and the host's bound: the scripted directives still
    /// to come and a run limit every `limit_every` steps.
    struct Driven {
        nic: Nic,
        actions: Vec<NicAction>,
        pending: Vec<SimTime>,
        sent: Vec<(SimTime, Frame)>,
        armed: u64,
        directives: Vec<SimTime>,
        limit_every: u64,
    }

    impl Driven {
        fn new(nic: Nic, directives: Vec<SimTime>, limit_every: u64) -> Self {
            let (actions, pending, sent) = (Vec::new(), Vec::new(), Vec::new());
            Driven { nic, actions, pending, sent, armed: 0, directives, limit_every }
        }

        /// The first directive still to come and the limit of the run
        /// `now` falls in.
        fn until(&self, now: SimTime) -> SimTime {
            let step = GRID.as_picos() * self.limit_every;
            let limit = SimTime::from_picos(now.as_picos().div_ceil(step) * step);
            self.directives.first().map_or(limit, |&at| at.min(limit))
        }

        fn absorb(&mut self) {
            for a in self.actions.drain(..) {
                match a {
                    NicAction::SetTimer(at, keys::TX_DONE) => {
                        self.pending.push(at);
                        self.armed += 1;
                    }
                    NicAction::SendFrame(at, frame) => self.sent.push((at, frame)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }

        /// Fires every completion due by `now`, earliest first: one due
        /// exactly at `now` sorts ahead of the operation at `now`.
        fn advance(&mut self, now: SimTime) {
            while let Some(i) = (0..self.pending.len())
                .filter(|&i| self.pending[i] <= now)
                .min_by_key(|&i| self.pending[i])
            {
                let at = self.pending.swap_remove(i);
                let until = self.until(at);
                self.nic.tx_resume(at, until, &mut self.actions);
                self.absorb();
            }
        }

        fn apply(&mut self, now: SimTime, id: u64, op: Op) {
            self.advance(now);
            if !matches!(op, Op::Post { .. }) {
                self.directives.remove(0);
            }
            match op {
                Op::Post { payload } => {
                    let d = UdpDatagram {
                        src_port: 1,
                        dst_port: 2,
                        msg: AppMessage::new(0, id, payload, SimTime::ZERO),
                    };
                    let frame =
                        Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![0]));
                    let until = self.until(now);
                    self.nic.tx_post(frame, now, until, &mut self.actions);
                }
                Op::CarrierDown => self.nic.set_carrier_down(),
                Op::CarrierUp => self.nic.set_carrier_up(),
                Op::Degrade { severity } => self.nic.degrade_link_fp20(
                    fp20_encode([1.0, 0.5, 0.25][severity]),
                    fp20_encode([0.0, 0.3, 1.0][severity]),
                ),
                Op::Crash => {
                    self.nic.reset_after_crash();
                    // The rebooted kernel discards timers its crashed
                    // predecessor armed (their epoch no longer matches).
                    self.pending.clear();
                }
            }
            self.absorb();
        }
    }

    /// Everything that can tell the two NICs apart.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        sent: Vec<(SimTime, Frame)>,
        stats: String,
        tx_free: usize,
        rng: [u64; 4],
    }

    fn nic(tx_ring: usize) -> Nic {
        let peer = PortPeer {
            component: ComponentId(1),
            port: PortNo(0),
            params: LinkParams::gbe(500).with_loss_rate(0.2),
        };
        let cfg = NicConfig { tx_ring, dma_latency: GRID, ..NicConfig::default() };
        Nic::new(cfg, peer, DetRng::new(7))
    }

    fn run(
        tx_ring: usize,
        limit_every: u64,
        script: &[(u64, Op)],
        per_frame: bool,
    ) -> (Outcome, u64) {
        let mut nic = nic(tx_ring);
        if per_frame {
            nic = nic.with_completion_per_frame();
        }
        let at = |tick: u64| SimTime::ZERO + GRID * tick;
        let directives = script
            .iter()
            .filter(|(_, op)| !matches!(op, Op::Post { .. }))
            .map(|&(tick, _)| at(tick))
            .collect();
        let mut d = Driven::new(nic, directives, limit_every);
        for (id, &(tick, op)) in script.iter().enumerate() {
            d.apply(at(tick), id as u64, op);
        }
        d.advance(SimTime::MAX);
        let outcome = Outcome {
            sent: d.sent,
            stats: format!("{:?}", d.nic.stats()),
            tx_free: d.nic.tx_free(SimTime::MAX),
            rng: d.nic.rng.state(),
        };
        (outcome, d.armed)
    }

    /// Ticks, sorted so the script runs forward in time; op selector,
    /// frame size, whether the size sits on the grid, fault severity.
    fn script(raw: Vec<(u64, u8, u32, bool, usize)>) -> Vec<(u64, Op)> {
        let mut ops: Vec<(u64, Op)> = raw
            .into_iter()
            .map(|(tick, kind, size, aligned, severity)| {
                // 66 bytes of headers: an aligned frame is k * 125 bytes on
                // the wire, k us at 1 Gbps.
                let payload = if aligned { 125 * (1 + size % 12) - 66 } else { 18 + size % 1_400 };
                let op = match kind {
                    0..=7 => Op::Post { payload },
                    8 => Op::CarrierDown,
                    9 => Op::CarrierUp,
                    10 => Op::Degrade { severity: severity % 3 },
                    _ => Op::Crash,
                };
                (tick, op)
            })
            .collect();
        ops.sort_by_key(|&(tick, _)| tick);
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arming_only_behind_a_busy_wire_is_unobservable(
            tx_ring in 1usize..5,
            limit_every in 1u64..60,
            raw in proptest::collection::vec(
                (0u64..40, 0u8..12, any::<u32>(), any::<bool>(), 0usize..3),
                1..60,
            ),
        ) {
            let script = script(raw);
            let (shipped, shipped_timers) = run(tx_ring, limit_every, &script, false);
            let (reference, reference_timers) = run(tx_ring, limit_every, &script, true);
            prop_assert_eq!(shipped, reference);
            prop_assert!(shipped_timers <= reference_timers);
        }
    }

    /// The property above is vacuous unless posts tie with completions,
    /// frames queue behind the wire and lone frames go out untimed: one
    /// fixed script does all three.
    #[test]
    fn a_fixed_script_saves_one_timer_per_lone_frame() {
        let post = |k: u32| Op::Post { payload: 125 * k - 66 };
        // Three lone frames, the second and third posted exactly when the
        // one before leaves the engine (1 us DMA + k us on the wire); then
        // a burst of three, of which two wait and start when posted.
        let script =
            [(0, post(2)), (3, post(1)), (5, post(4)), (20, post(1)), (20, post(1)), (20, post(1))];
        let (shipped, shipped_timers) = run(4, 1_000, &script, false);
        let (reference, reference_timers) = run(4, 1_000, &script, true);
        assert_eq!(shipped, reference);
        let at: Vec<u64> = shipped.sent.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(at, [3_500, 5_500, 10_500, 22_500, 24_500, 26_500]);
        // The reference arms six completions; the shipped NIC none.
        assert_eq!((shipped_timers, reference_timers), (0, 6));
    }

    /// A backlog that fills a two-descriptor ring, posts that tie with
    /// the instant a frame leaves it, and a directive or a limit in the
    /// middle that holds the rest back behind a completion.
    #[test]
    fn a_directive_or_a_limit_holds_the_backlog_behind_a_completion() {
        let post = Op::Post { payload: 125 * 2 - 66 };
        // Each frame takes 1 us of DMA and 2 us of wire, so the engine
        // frees at 4, 7, 10 ... The ring holds two: the fourth post at 1 is
        // rejected, and at 4, when the second frame leaves the ring, one
        // of two posts is taken.
        let backlog = [(1, post), (1, post), (1, post), (1, post), (4, post), (4, post)];
        // The frame starting past the directive waits; on the degraded
        // link the one behind it starts past the carrier coming back.
        let faults = [(Op::CarrierDown, 1), (Op::Degrade { severity: 2 }, 2), (Op::Crash, 1)];
        for (fault, timers) in faults {
            let mut script = backlog.to_vec();
            script.extend([(4, fault), (4, post), (10, Op::CarrierUp), (10, post)]);
            let (shipped, shipped_timers) = run(2, 1_000, &script, false);
            let (reference, _) = run(2, 1_000, &script, true);
            assert_eq!(shipped, reference, "{fault:?}");
            assert_eq!(shipped_timers, timers, "{fault:?}");
        }
        // Limits at 3, 6, 9 ...: every frame but the first starts past the
        // limit of the run it was posted in, and waits for a completion.
        let (shipped, shipped_timers) = run(2, 3, &backlog, false);
        let (reference, reference_timers) = run(2, 3, &backlog, true);
        assert_eq!(shipped, reference);
        assert_eq!((shipped_timers, reference_timers), (3, 4));
        assert_eq!(shipped.stats, run(2, 1_000, &backlog, false).0.stats);
    }

    /// A NIC whose host asserts its pending interrupt itself, at its
    /// instant and without a timer, polls what the timer NIC polls, also
    /// when it is saved and restored while the interrupt is pending.
    #[test]
    fn a_planned_interrupt_survives_a_snapshot() {
        let frame = |id: u64| {
            let d = UdpDatagram {
                src_port: 1,
                dst_port: 2,
                msg: AppMessage::new(0, id, 100, SimTime::ZERO),
            };
            Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![0]))
        };
        let us = SimTime::from_micros;
        // Arrivals at 0, 1 and 2 us; the interrupt is due at 2 us, the last
        // arrival lands with it and sorts after it.
        let (mut timer, mut planned) = (nic(4), nic(4));
        let mut actions = Vec::new();
        for (id, at) in [(0, us(0)), (1, us(1))] {
            timer.rx_frame(frame(id), at, &mut actions);
        }
        assert_eq!(actions, [NicAction::SetTimer(us(2), keys::RX_INTR)]);
        planned.rx_frame(frame(0), us(0), &mut actions);
        let mut w = SnapWriter::new();
        planned.save_state(&mut w);
        let mut restored = nic(4);
        restored.load_state(&mut SnapReader::new(&w.into_bytes())).expect("restores");
        assert_eq!(restored.pending_interrupt(), Some(us(2)));
        actions.clear();
        restored.rx_frame(frame(1), us(1), &mut actions);
        assert!(actions.is_empty(), "a pending interrupt arms nothing more");
        let polled = |nic: &mut Nic| {
            assert!(nic.on_rx_interrupt());
            nic.rx_frame(frame(2), us(2), &mut Vec::new());
            let got: Vec<Frame> = nic.rx_poll(8).collect();
            (got, format!("{:?}", nic.stats()))
        };
        assert_eq!(polled(&mut restored), polled(&mut timer));
    }

    /// Start instants out of order, past the engine's free instant, or
    /// more than the ring holds, are refused on load, never a panic.
    #[test]
    fn restore_refuses_start_instants_the_engine_could_not_hold() {
        let us = SimTime::from_micros;
        for (starts, done) in
            [(vec![us(5), us(3)], us(9)), (vec![us(3), us(5)], us(4)), (vec![us(1); 3], us(9))]
        {
            let mut damaged = nic(2);
            damaged.tx_starts = starts.into();
            damaged.tx_done_at = done;
            let mut w = SnapWriter::new();
            damaged.save_state(&mut w);
            let loaded = nic(2).load_state(&mut SnapReader::new(&w.into_bytes()));
            assert!(matches!(loaded, Err(SnapError::Malformed(_))), "{loaded:?}");
        }
    }
}
