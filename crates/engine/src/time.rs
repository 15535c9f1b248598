//! Simulation time, durations, bandwidth and frequency arithmetic.
//!
//! DIABLO models warehouse-scale networks at nanosecond precision: a 64-byte
//! packet on a 10 Gbps link serializes in ~51.2 ns, and a 4 GHz CPU cycle is
//! 250 ps. To keep every model on an exact integer grid (and therefore keep
//! the simulator bit-for-bit deterministic), all times are integer
//! **picoseconds**. A `u64` of picoseconds covers ~213 days of target time,
//! far beyond the O(10 s) runs the paper performs.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant of simulated (target) time, in picoseconds since the
/// start of the simulation.
///
/// `SimTime` is a transparent ordered newtype; arithmetic with
/// [`SimDuration`] is exact integer math.
///
/// # Examples
///
/// ```
/// use diablo_engine::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use diablo_engine::time::SimDuration;
/// let d = SimDuration::from_nanos(800) * 2;
/// assert_eq!(d.as_nanos(), 1_600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub(crate) const PS_PER_NS: u64 = 1_000;
pub(crate) const PS_PER_US: u64 = 1_000_000;
pub(crate) const PS_PER_MS: u64 = 1_000_000_000;
pub(crate) const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Creates an instant from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Creates an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / PS_PER_US
    }
    /// Seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since of a later instant");
        SimDuration(self.0.wrapping_sub(earlier.0))
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Rounds this instant *up* to the next multiple of `step`.
    ///
    /// Used by the partition-parallel executor to align cross-partition
    /// deliveries to quantum boundaries.
    pub fn align_up(self, step: SimDuration) -> SimTime {
        assert!(step.0 > 0, "align_up with zero step");
        let rem = self.0 % step.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 + (step.0 - rem))
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / PS_PER_US
    }
    /// Seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked multiplication by an integer count.
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}
impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}
impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&SimDuration(self.0), f)
    }
}

/// The line reader of the fault plan, arrival profile and sweep grammars:
/// each line with `#` comments cut and whitespace trimmed, paired with its
/// 1-based line number, blank lines skipped.
pub fn spec_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.split('#').next().unwrap_or("").trim()))
        .filter(|(_, body)| !body.is_empty())
}

/// Parses `250ms`-style durations — the one token format of the fault
/// plan, arrival profile and sweep grammars and the `--checkpoint-at`
/// flag: a finite, non-negative decimal number with an `ns`, `us`, `ms`
/// or `s` suffix, rounded to the nearest nanosecond, that fits the
/// picosecond clock (about 213 days). The error is a human-readable
/// description of the malformed token.
impl std::str::FromStr for SimDuration {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        // Longest suffixes first: `s` terminates all of them.
        let (num, scale_ns) = [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)]
            .into_iter()
            .find_map(|(suffix, scale)| Some((tok.strip_suffix(suffix)?, scale)))
            .ok_or_else(|| format!("duration `{tok}` needs a ns/us/ms/s suffix"))?;
        let v: f64 = num.parse().map_err(|_| format!("bad duration value `{num}`"))?;
        // "NaN" and "inf" are valid `f64` literals; rounded into a
        // nanosecond count they would become an arbitrary instant.
        if v < 0.0 || !v.is_finite() {
            return Err(format!("duration `{tok}` must be finite and non-negative"));
        }
        // The cast saturates, so a value past `u64` nanoseconds fails the
        // same check as one whose picosecond count does not fit.
        ((v * scale_ns).round() as u64)
            .checked_mul(PS_PER_NS)
            .map(SimDuration)
            .ok_or_else(|| format!("duration `{tok}` is longer than {}", SimDuration::MAX))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < PS_PER_NS {
            write!(f, "{ps}ps")
        } else if ps < PS_PER_US {
            write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
        } else if ps < PS_PER_MS {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps < PS_PER_SEC {
            write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
        } else {
            write!(f, "{:.3}s", ps as f64 / PS_PER_SEC as f64)
        }
    }
}

/// A link or device bandwidth in bits per second.
///
/// Serialization times are computed with exact 128-bit intermediate math so
/// that, e.g., a 1500-byte frame at 1 Gbps is exactly 12 µs.
///
/// # Examples
///
/// ```
/// use diablo_engine::time::Bandwidth;
/// let gig = Bandwidth::gbps(1);
/// assert_eq!(gig.transmit_time(1500).as_nanos(), 12_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn from_bps(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        Bandwidth { bits_per_sec }
    }
    /// Creates a bandwidth from megabits per second.
    pub fn mbps(m: u64) -> Self {
        Self::from_bps(m * 1_000_000)
    }
    /// Creates a bandwidth from gigabits per second.
    pub fn gbps(g: u64) -> Self {
        Self::from_bps(g * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Exact time to transmit `bytes` bytes at this rate (rounded up to the
    /// next picosecond).
    pub fn transmit_time(self, bytes: u64) -> SimDuration {
        SimDuration(mul_div(bytes, 8 * PS_PER_SEC, self.bits_per_sec, true) as u64)
    }

    /// Bytes deliverable in `d` at this rate (truncating).
    pub fn bytes_in(self, d: SimDuration) -> u64 {
        mul_div(d.0, self.bits_per_sec, 8 * PS_PER_SEC, false) as u64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bits_per_sec;
        if b.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", b / 1_000_000_000)
        } else if b.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", b / 1_000_000)
        } else {
            write!(f, "{b}bps")
        }
    }
}

/// A clock frequency in hertz, used by the fixed-CPI server timing model.
///
/// # Examples
///
/// ```
/// use diablo_engine::time::Frequency;
/// let cpu = Frequency::ghz(4);
/// assert_eq!(cpu.cycles_time(4).as_picos(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be positive");
        Frequency { hz }
    }
    /// Creates a frequency from gigahertz.
    pub fn ghz(g: u64) -> Self {
        Self::from_hz(g * 1_000_000_000)
    }

    /// Hertz.
    pub const fn hz(self) -> u64 {
        self.hz
    }

    /// Exact duration of `cycles` clock cycles (rounded up to the next
    /// picosecond).
    pub fn cycles_time(self, cycles: u64) -> SimDuration {
        SimDuration(mul_div(cycles, PS_PER_SEC, self.hz, true) as u64)
    }
}

/// `a * b / c`, rounded up if `ceil`, exactly: in u64 when the product
/// fits (a frame of up to 2.3 MB, a span of up to 18 M cycles), and in
/// u128, a software division, only when it does not.
#[inline]
fn mul_div(a: u64, b: u64, c: u64, ceil: bool) -> u128 {
    match a.checked_mul(b) {
        Some(p) if ceil => p.div_ceil(c) as u128,
        Some(p) => (p / c) as u128,
        None if ceil => (a as u128 * b as u128).div_ceil(c as u128),
        None => a as u128 * b as u128 / c as u128,
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hz = self.hz;
        if hz.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", hz / 1_000_000_000)
        } else if hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", hz / 1_000_000)
        } else {
            write!(f, "{hz}Hz")
        }
    }
}

crate::impl_snap_struct!(SimTime { 0 });
crate::impl_snap_struct!(SimDuration { 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The u64 path agrees with the u128 arithmetic it short-cuts, also
        /// with the product just below, at and just above `u64::MAX`.
        #[test]
        fn mul_div_matches_u128_arithmetic(
            a in any::<u64>(),
            b in 0u64..u64::MAX,
            c in 1u64..u64::MAX,
            boundary in any::<bool>(),
            ceil in any::<bool>(),
        ) {
            let a = if boundary { (u64::MAX / b.max(1) - 1).saturating_add(a % 3) } else { a };
            let wide = a as u128 * b as u128;
            let want = if ceil { wide.div_ceil(c as u128) } else { wide / c as u128 };
            prop_assert_eq!(mul_div(a, b, c, ceil), want);
        }
    }

    #[test]
    fn transmit_time_is_exact_on_both_sides_of_the_u64_product() {
        // 2,305,843 bytes is the most whose bits times 10^12 fit in a u64.
        let gbe = Bandwidth::gbps(1);
        for bytes in [1_500, 2_305_843, 2_305_844, 40_000_000] {
            let ps = (bytes as u128 * 8 * PS_PER_SEC as u128).div_ceil(1_000_000_000);
            assert_eq!(gbe.transmit_time(bytes).as_picos() as u128, ps);
            assert_eq!(gbe.bytes_in(gbe.transmit_time(bytes)), bytes);
        }
    }

    #[test]
    fn time_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_nanos(7).as_picos(), 7_000);
    }

    #[test]
    fn duration_parses_from_suffixed_tokens() {
        for (tok, nanos) in [
            ("800ns", 800),
            ("250us", 250_000),
            ("10ms", 10_000_000),
            ("1.5s", 1_500_000_000),
            ("0.5us", 500),
            ("0.4ns", 0),
            ("1e3ns", 1_000),
            ("0s", 0),
            // The longest whole second the picosecond clock holds.
            ("18446744s", 18_446_744_000_000_000),
        ] {
            assert_eq!(tok.parse(), Ok(SimDuration::from_nanos(nanos)), "{tok:?}");
        }
        for (tok, needle) in [
            // A bare number is ambiguous (ns? ms?).
            ("5", "needs a ns/us/ms/s suffix"),
            ("", "needs a ns/us/ms/s suffix"),
            ("fast", "needs a ns/us/ms/s suffix"),
            ("xyz", "needs a ns/us/ms/s suffix"),
            ("10m", "needs a ns/us/ms/s suffix"),
            ("abcms", "bad duration value `abc`"),
            ("ms", "bad duration value ``"),
            ("1u s", "bad duration value `1u `"),
            // Valid float literals that are not durations.
            ("NaNms", "finite and non-negative"),
            ("nanms", "finite and non-negative"),
            ("infs", "finite and non-negative"),
            ("-infms", "finite and non-negative"),
            ("-5ms", "finite and non-negative"),
            ("-0.5us", "finite and non-negative"),
            // Finite, but past `u64::MAX` picoseconds (about 213 days).
            ("18446745s", "is longer than 18446744.074s"),
            ("20000000s", "is longer than"),
            ("1e30s", "is longer than"),
        ] {
            let err = tok.parse::<SimDuration>().expect_err(tok);
            assert!(err.contains(needle), "{tok:?} -> {err:?} (wanted {needle:?})");
        }
    }

    #[test]
    fn spec_lines_cut_comments_and_keep_line_numbers() {
        let text = "# header\n\n  10ms a  # tail\n\t#\n20ms b\n   \n";
        assert_eq!(spec_lines(text).collect::<Vec<_>>(), [(3, "10ms a"), (5, "20ms b")]);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!(a / b, 2);
        assert_eq!((a % b).as_nanos(), 20);
        assert_eq!(a.saturating_sub(SimDuration::from_micros(1)), SimDuration::ZERO);
    }

    #[test]
    fn instant_duration_interplay() {
        let t0 = SimTime::from_micros(10);
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1 - t0, SimDuration::from_micros(5));
        assert_eq!(t1.duration_since(t0).as_micros(), 5);
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn align_up_behaviour() {
        let q = SimDuration::from_nanos(500);
        assert_eq!(SimTime::from_nanos(0).align_up(q), SimTime::from_nanos(0));
        assert_eq!(SimTime::from_nanos(1).align_up(q), SimTime::from_nanos(500));
        assert_eq!(SimTime::from_nanos(500).align_up(q), SimTime::from_nanos(500));
        assert_eq!(SimTime::from_nanos(501).align_up(q), SimTime::from_nanos(1000));
    }

    #[test]
    fn bandwidth_serialization_times() {
        // 64B at 10 Gbps = 51.2 ns.
        assert_eq!(Bandwidth::gbps(10).transmit_time(64).as_picos(), 51_200);
        // 1500B at 1 Gbps = 12 us exactly.
        assert_eq!(Bandwidth::gbps(1).transmit_time(1500).as_micros(), 12);
        // bytes_in inverts transmit_time on exact boundaries.
        let bw = Bandwidth::gbps(1);
        assert_eq!(bw.bytes_in(bw.transmit_time(4096)), 4096);
    }

    #[test]
    fn frequency_cycle_math() {
        // 4 cycles at 4 GHz = 1 ns.
        assert_eq!(Frequency::ghz(4).cycles_time(4).as_picos(), 1_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(1500).to_string(), "1.500us");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(Bandwidth::gbps(10).to_string(), "10Gbps");
        assert_eq!(Frequency::ghz(4).to_string(), "4GHz");
        assert_eq!(Frequency::from_hz(90_000_000).to_string(), "90MHz");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_bps(0);
    }
}
