//! Point-to-point link modeling.
//!
//! Links are modeled sender-side: the transmitting device serializes frames
//! through a [`TxPort`] (one frame at a time, at link bandwidth) and
//! schedules delivery at the peer after the propagation delay. This mirrors
//! DIABLO's approach of carrying target-time-stamped tokens over host
//! serial links.

use diablo_engine::event::{ComponentId, PortNo};
use diablo_engine::time::{Bandwidth, SimDuration, SimTime};
use std::fmt;

/// Fixed-point scale of a degraded link's fault parameters: 20 fractional
/// bits, so `FP20_ONE` encodes exactly 1.0.
///
/// The bandwidth factor is fp20 because the rounding is model behaviour:
/// [`LinkParams::degraded_fp20`] scales the link rate with integer
/// arithmetic, and a float factor would round degraded bandwidths — and
/// every result of a degraded-link run — differently.
pub const FP20_ONE: u64 = 1 << 20;

/// Encodes a fraction in `[0, 1]` as 20-bit fixed point (round to nearest,
/// saturating at [`FP20_ONE`]). Not meaningful for values outside `[0, 1]`.
pub fn fp20_encode(x: f64) -> u64 {
    ((x.max(0.0) * FP20_ONE as f64).round() as u64).min(FP20_ONE)
}

/// Decodes a 20-bit fixed-point fraction back to `f64` (clamped to `[0, 1]`).
pub fn fp20_decode(fp: u64) -> f64 {
    fp.min(FP20_ONE) as f64 / FP20_ONE as f64
}

/// Rejected [`LinkParams`] input: the loss rate was not a finite probability
/// in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParamError {
    /// The rejected loss-rate value.
    pub loss_rate: f64,
}

impl fmt::Display for LinkParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loss rate {} is not a probability (expected a finite value in [0, 1])",
            self.loss_rate
        )
    }
}

impl std::error::Error for LinkParamError {}

/// Operational state of one link direction, driven by the fault schedule.
///
/// Consulted at transmit time by the devices on either end of a link (the
/// switch egress port and the NIC), never by the engine: a link that is
/// `Down` or `Degraded` still exists topologically, so partition lookahead
/// derived from the *base* parameters stays valid (degradation only scales
/// bandwidth down, which lengthens — never shortens — delivery latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// Healthy: frames transmit with the base parameters.
    Up,
    /// No carrier: nothing transmits; frames offered to the link are dropped
    /// and counted against the fault drop counters.
    Down,
    /// Soft-failed: bandwidth scaled by `bandwidth_factor` (in `(0, 1]`) and
    /// the loss rate replaced, both carried as 20-bit fixed point so the
    /// degraded physics are identical across execution modes.
    Degraded {
        /// fp20-encoded bandwidth scale factor, in `(0, FP20_ONE]`.
        bandwidth_factor_fp20: u64,
        /// fp20-encoded frame loss probability, in `[0, FP20_ONE]`.
        loss_rate_fp20: u64,
    },
}

impl LinkState {
    /// `true` when the link carries frames at all (up or degraded).
    pub fn has_carrier(&self) -> bool {
        !matches!(self, LinkState::Down)
    }
}

/// Physical parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Serialization rate.
    pub bandwidth: Bandwidth,
    /// Signal propagation delay (≈5 ns/m of cable).
    pub propagation: SimDuration,
    /// Probability that a transmitted frame is corrupted and dropped by the
    /// receiver. The BEE3 prototype observed such soft errors "a few times
    /// per day" and protected links with checksums and retries (§3.4);
    /// failure-injection experiments set this non-zero. Private so that
    /// every write goes through [`LinkParams::try_with_loss_rate`]'s range
    /// check; read it with [`LinkParams::loss_rate`].
    loss_rate: f64,
}

impl LinkParams {
    /// Creates loss-free link parameters.
    pub fn new(bandwidth: Bandwidth, propagation: SimDuration) -> Self {
        LinkParams { bandwidth, propagation, loss_rate: 0.0 }
    }

    /// A 1 Gbps link with `prop_ns` nanoseconds of propagation delay.
    pub fn gbe(prop_ns: u64) -> Self {
        Self::new(Bandwidth::gbps(1), SimDuration::from_nanos(prop_ns))
    }

    /// A 10 Gbps link with `prop_ns` nanoseconds of propagation delay.
    pub fn ten_gbe(prop_ns: u64) -> Self {
        Self::new(Bandwidth::gbps(10), SimDuration::from_nanos(prop_ns))
    }

    /// Fallible builder-style setter for the frame loss rate: the single
    /// validation choke point for loss rates. Rejects anything that is not
    /// a finite probability in `[0, 1]`.
    pub fn try_with_loss_rate(mut self, rate: f64) -> Result<Self, LinkParamError> {
        if rate.is_finite() && (0.0..=1.0).contains(&rate) {
            self.loss_rate = rate;
            Ok(self)
        } else {
            Err(LinkParamError { loss_rate: rate })
        }
    }

    /// Builder-style setter for the frame loss rate; panicking convenience
    /// wrapper over [`LinkParams::try_with_loss_rate`] for static topology
    /// construction with known-good constants.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite probability in `[0, 1]`.
    #[must_use]
    pub fn with_loss_rate(self, rate: f64) -> Self {
        self.try_with_loss_rate(rate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The frame loss probability. Always a finite value in `[0, 1]`: the
    /// field is private and every write path goes through
    /// [`LinkParams::try_with_loss_rate`].
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// `true` when the loss rate is a finite probability in `[0, 1]`.
    ///
    /// Always true for params built through the public API (the field is
    /// private and [`LinkParams::try_with_loss_rate`] is the only write
    /// path); retained as a defense-in-depth check at drop-decision sites.
    pub fn loss_rate_is_valid(&self) -> bool {
        self.loss_rate.is_finite() && (0.0..=1.0).contains(&self.loss_rate)
    }

    /// Parameters of this link under a [`LinkState::Degraded`] fault:
    /// bandwidth scaled by the fp20 factor (integer arithmetic, floored at
    /// 1 bit/s) and the loss rate replaced by the fp20-decoded probability.
    /// Propagation is unchanged. Both inputs are clamped to [`FP20_ONE`],
    /// so the result can never exceed the base bandwidth — which keeps any
    /// partition lookahead derived from the base parameters conservative.
    pub fn degraded_fp20(&self, bandwidth_factor_fp20: u64, loss_rate_fp20: u64) -> Self {
        let factor = bandwidth_factor_fp20.clamp(1, FP20_ONE);
        let bits = ((self.bandwidth.bits_per_sec() as u128 * factor as u128) >> 20).max(1) as u64;
        LinkParams {
            bandwidth: Bandwidth::from_bps(bits),
            propagation: self.propagation,
            loss_rate: fp20_decode(loss_rate_fp20),
        }
    }

    /// Minimum sender-side delay between deciding to transmit and the frame
    /// arriving at the peer: serializing the smallest legal wire frame
    /// ([`crate::payload::MIN_WIRE_FRAME`]) plus propagation. This is the
    /// conservative per-link lookahead a partition cut can claim when the
    /// sending device serializes on egress (store-and-forward); cut-through
    /// egress may overlap serialization with forwarding and can only claim
    /// the propagation delay.
    pub fn min_delivery_latency(&self) -> SimDuration {
        self.bandwidth.transmit_time(crate::payload::MIN_WIRE_FRAME as u64) + self.propagation
    }
}

/// Where a port is wired to: the peer component and its port, plus the link
/// physics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortPeer {
    /// Receiving component.
    pub component: ComponentId,
    /// Port number on the receiving component.
    pub port: PortNo,
    /// Physical link parameters.
    pub params: LinkParams,
}

/// Transmit side of a full-duplex port: serializes frames one at a time.
///
/// # Examples
///
/// ```
/// use diablo_net::link::{LinkParams, PortPeer, TxPort};
/// use diablo_engine::event::{ComponentId, PortNo};
/// use diablo_engine::time::SimTime;
///
/// let peer = PortPeer {
///     component: ComponentId(1),
///     port: PortNo(0),
///     params: LinkParams::gbe(500),
/// };
/// let mut tx = TxPort::new(peer);
/// // Two back-to-back 1538-byte frames at 1 Gbps: 12.304 us each.
/// let t0 = SimTime::ZERO;
/// let first = tx.transmit(t0, 1538);
/// let second = tx.transmit(t0, 1538);
/// assert_eq!(first.end.as_nanos(), 12_304);
/// assert_eq!(second.start, first.end);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxPort {
    /// Wiring and physics.
    pub peer: PortPeer,
    busy_until: SimTime,
}

/// Timing of one frame transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxTiming {
    /// First bit on the wire.
    pub start: SimTime,
    /// Last bit on the wire.
    pub end: SimTime,
    /// Last bit arrives at the peer.
    pub arrival: SimTime,
}

impl TxPort {
    /// Creates an idle transmit port.
    pub fn new(peer: PortPeer) -> Self {
        TxPort { peer, busy_until: SimTime::ZERO }
    }

    /// Earliest instant a new transmission could start.
    pub fn next_free(&self) -> SimTime {
        self.busy_until
    }

    /// `true` if a transmission started at `now` would begin immediately.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Reserves the wire for a frame of `wire_len` bytes starting no earlier
    /// than `now`, returning the transmission timing.
    pub fn transmit(&mut self, now: SimTime, wire_len: u32) -> TxTiming {
        let start = now.max(self.busy_until);
        let end = start + self.peer.params.bandwidth.transmit_time(wire_len as u64);
        self.busy_until = end;
        TxTiming { start, end, arrival: end + self.peer.params.propagation }
    }

    /// Reserves the wire with an extra constraint on when the last bit may
    /// leave (used by cut-through forwarding, where a frame cannot finish
    /// leaving before it has finished arriving upstream).
    pub fn transmit_constrained(
        &mut self,
        earliest_start: SimTime,
        min_end: SimTime,
        wire_len: u32,
    ) -> TxTiming {
        let start = earliest_start.max(self.busy_until);
        let end = (start + self.peer.params.bandwidth.transmit_time(wire_len as u64)).max(min_end);
        self.busy_until = end;
        TxTiming { start, end, arrival: end + self.peer.params.propagation }
    }
}

use diablo_engine::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for LinkParams {
    fn save(&self, w: &mut SnapWriter) {
        self.bandwidth.save(w);
        self.propagation.save(w);
        self.loss_rate.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bandwidth = Snap::load(r)?;
        let propagation = Snap::load(r)?;
        let loss_rate: f64 = Snap::load(r)?;
        // Re-check the `try_with_loss_rate` invariant rather than trusting
        // the snapshot bytes.
        LinkParams::new(bandwidth, propagation)
            .try_with_loss_rate(loss_rate)
            .map_err(|e| SnapError::Malformed(format!("LinkParams: {e}")))
    }
}

diablo_engine::impl_snap_enum!(LinkState {
    0 => Up,
    1 => Down,
    2 => Degraded { bandwidth_factor_fp20, loss_rate_fp20 },
});

diablo_engine::impl_snap_struct!(PortPeer { component, port, params });

// TxPort rides snapshots whole — wiring included. The wiring half restores
// to the identical config-derived value; persisting it alongside
// `busy_until` keeps fault-mutated `peer.params` (degraded bandwidth/loss)
// exact across a checkpoint, including a degrade-then-down sequence whose
// params are no longer derivable from the current [`LinkState`].
diablo_engine::impl_snap_struct!(TxPort { peer, busy_until });

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_engine::time::Bandwidth;

    fn peer(bw_gbps: u64, prop_ns: u64) -> PortPeer {
        PortPeer {
            component: ComponentId(9),
            port: PortNo(3),
            params: LinkParams::new(Bandwidth::gbps(bw_gbps), SimDuration::from_nanos(prop_ns)),
        }
    }

    #[test]
    fn serialization_and_propagation_add_up() {
        let mut tx = TxPort::new(peer(10, 100));
        let t = tx.transmit(SimTime::from_micros(1), 1250);
        // 1250B at 10 Gbps = 1 us.
        assert_eq!(t.start, SimTime::from_micros(1));
        assert_eq!(t.end, SimTime::from_micros(2));
        assert_eq!(t.arrival, SimTime::from_micros(2) + SimDuration::from_nanos(100));
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let mut tx = TxPort::new(peer(1, 0));
        let a = tx.transmit(SimTime::ZERO, 125); // 1 us at 1 Gbps
        let b = tx.transmit(SimTime::ZERO, 125);
        assert_eq!(a.end, SimTime::from_micros(1));
        assert_eq!(b.start, SimTime::from_micros(1));
        assert_eq!(b.end, SimTime::from_micros(2));
        assert!(!tx.is_idle_at(SimTime::from_micros(1)));
        assert!(tx.is_idle_at(SimTime::from_micros(2)));
    }

    #[test]
    fn constrained_transmit_respects_min_end() {
        let mut tx = TxPort::new(peer(10, 0));
        let t = tx.transmit_constrained(
            SimTime::ZERO,
            SimTime::from_micros(5),
            125, // 100 ns at 10 Gbps
        );
        assert_eq!(t.end, SimTime::from_micros(5));
        assert_eq!(tx.next_free(), SimTime::from_micros(5));
    }

    #[test]
    fn loss_rate_validation() {
        let p = LinkParams::gbe(0).with_loss_rate(0.25);
        assert_eq!(p.loss_rate(), 0.25);
        assert!(p.loss_rate_is_valid());
        // The fallible constructor is the single choke point: everything
        // that is not a finite probability is rejected with the value.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.1] {
            let err = LinkParams::gbe(0).try_with_loss_rate(bad).unwrap_err();
            if bad.is_finite() {
                assert_eq!(err.loss_rate, bad);
            }
            assert!(err.to_string().contains("loss rate"), "{err}");
        }
        // Boundary values are accepted.
        assert!(LinkParams::gbe(0).try_with_loss_rate(0.0).is_ok());
        assert!(LinkParams::gbe(0).try_with_loss_rate(1.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rate_panics() {
        let _ = LinkParams::gbe(0).with_loss_rate(1.5);
    }

    #[test]
    fn fp20_roundtrip_and_degradation() {
        assert_eq!(fp20_encode(1.0), FP20_ONE);
        assert_eq!(fp20_encode(0.0), 0);
        assert_eq!(fp20_decode(FP20_ONE), 1.0);
        assert_eq!(fp20_decode(FP20_ONE * 2), 1.0, "decode clamps");
        let half = fp20_encode(0.5);
        assert_eq!(fp20_decode(half), 0.5);

        let base = LinkParams::gbe(500);
        let deg = base.degraded_fp20(half, fp20_encode(0.125));
        assert_eq!(deg.bandwidth.bits_per_sec(), base.bandwidth.bits_per_sec() / 2);
        assert_eq!(deg.propagation, base.propagation);
        assert_eq!(deg.loss_rate(), 0.125);
        assert!(deg.loss_rate_is_valid());
        // Factor 1.0 leaves bandwidth untouched; factor 0 floors at 1 bps
        // instead of panicking in Bandwidth::from_bps.
        assert_eq!(base.degraded_fp20(FP20_ONE, 0).bandwidth, base.bandwidth);
        // fp20 floor of 1e9 * (1/FP20_ONE): the factor clamps up to 1 ulp.
        assert_eq!(base.degraded_fp20(0, 0).bandwidth.bits_per_sec(), 953);
    }

    #[test]
    fn link_state_carrier() {
        assert!(LinkState::Up.has_carrier());
        assert!(!LinkState::Down.has_carrier());
        assert!(LinkState::Degraded { bandwidth_factor_fp20: FP20_ONE, loss_rate_fp20: 0 }
            .has_carrier());
    }
}
