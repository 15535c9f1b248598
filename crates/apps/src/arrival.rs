//! When a load generator's requests start: its one admission rule.
//!
//! A closed loop starts each request when the last one is done, so its
//! offered load collapses the instant servers slow down. An open loop
//! decouples load from completion: an [`ArrivalProcess`] draws a
//! deterministic schedule of admission instants from an [`ArrivalSpec`]
//! (constant-rate, Poisson via [`DetRng`], or a piecewise profile parsed
//! from the grammar below), which guests realize as ordinary kernel
//! timers (`nanosleep` or `epoll_wait` timeouts). The memcached client,
//! the partition-aggregate front-end and the epoll incast client each
//! hold one [`Admission`], closed or open. An open-loop admission that
//! finds the guest's in-flight window full is recorded as *load shed*,
//! never silently throttled, and every completion is checked against an
//! optional latency target, in an [`SloStats`] block merged into the
//! experiment's results and scraped as `slo.*`.
//!
//! # Grammar
//!
//! One phase per line, phases run back to back from the start of the run:
//!
//! ```text
//! # morning ramp, midday peak, evening trough
//! 30ms poisson 2000     # duration, kind, rate in requests/second
//! 30ms poisson 6000
//! 40ms const 1000
//! ```
//!
//! `#` starts a comment; blank lines are skipped. Kinds are `const`
//! (evenly spaced admissions) and `poisson` (exponential inter-arrival
//! gaps). Rates must be positive and finite, durations positive; errors
//! carry 1-based line numbers.

use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{spec_lines, SimDuration, SimTime};
use std::fmt;

/// How admission instants are spaced within one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Evenly spaced: one admission every `1/rate` seconds.
    Constant,
    /// Poisson process: exponential inter-arrival gaps with mean `1/rate`.
    Poisson,
}

impl ArrivalKind {
    fn keyword(self) -> &'static str {
        match self {
            ArrivalKind::Constant => "const",
            ArrivalKind::Poisson => "poisson",
        }
    }
}

/// One piecewise segment of an arrival profile: `rate` requests per
/// second, spaced per `kind`, for `duration` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPhase {
    /// How long this phase lasts.
    pub duration: SimDuration,
    /// Spacing discipline.
    pub kind: ArrivalKind,
    /// Offered rate in requests per second (positive, finite).
    pub rate: f64,
}

/// A validated piecewise arrival profile: one or more [`ArrivalPhase`]s
/// covering `[0, horizon)` back to back with no gaps or overlaps (by
/// construction — each phase starts where the previous one ended).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalSpec {
    phases: Vec<ArrivalPhase>,
}

/// Error from [`ArrivalSpec::parse`] or phase validation, carrying the
/// 1-based source line for text input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalError {
    /// A line failed to parse or validate.
    Parse {
        /// 1-based line number in the input text.
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// The spec contains no phases at all.
    Empty,
}

impl fmt::Display for ArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalError::Parse { line, msg } => write!(f, "arrival spec line {line}: {msg}"),
            ArrivalError::Empty => write!(f, "arrival spec has no phases"),
        }
    }
}

impl std::error::Error for ArrivalError {}

impl ArrivalSpec {
    /// Builds a spec from explicit phases, validating each.
    ///
    /// # Errors
    ///
    /// [`ArrivalError::Empty`] on an empty list, [`ArrivalError::Parse`]
    /// (with the 1-based phase index as the line) on a non-positive
    /// duration or a non-positive/non-finite rate.
    pub fn from_phases(phases: Vec<ArrivalPhase>) -> Result<Self, ArrivalError> {
        if phases.is_empty() {
            return Err(ArrivalError::Empty);
        }
        for (i, p) in phases.iter().enumerate() {
            let line = i + 1;
            if p.duration == SimDuration::ZERO {
                return Err(ArrivalError::Parse {
                    line,
                    msg: "phase duration must be positive".to_string(),
                });
            }
            if !(p.rate.is_finite() && p.rate > 0.0) {
                return Err(ArrivalError::Parse {
                    line,
                    msg: format!("rate must be positive (got {})", p.rate),
                });
            }
        }
        Ok(ArrivalSpec { phases })
    }

    /// Parses the text grammar described in the module docs.
    ///
    /// # Errors
    ///
    /// [`ArrivalError::Parse`] with the offending 1-based line on any
    /// malformed or invalid line; [`ArrivalError::Empty`] when no phase
    /// lines remain after stripping comments and blanks.
    pub fn parse(text: &str) -> Result<Self, ArrivalError> {
        let mut phases = Vec::new();
        // Phases run back to back from time zero: where the last one ends.
        let mut end = SimTime::ZERO;
        for (line, body) in spec_lines(text) {
            let err = |msg: String| ArrivalError::Parse { line, msg };
            let toks: Vec<&str> = body.split_whitespace().collect();
            let [dur_tok, kind_tok, rate_tok] = toks.as_slice() else {
                return Err(err(format!(
                    "expected '<duration> <kind> <rate>', got {} token(s)",
                    toks.len()
                )));
            };
            let duration: SimDuration = dur_tok.parse().map_err(err)?;
            if duration == SimDuration::ZERO {
                return Err(err("phase duration must be positive".to_string()));
            }
            end = end
                .checked_add(duration)
                .ok_or_else(|| err(format!("the phase must end before {}", SimTime::MAX)))?;
            let kind = match *kind_tok {
                "const" => ArrivalKind::Constant,
                "poisson" => ArrivalKind::Poisson,
                other => {
                    return Err(err(format!(
                        "unknown arrival profile {other:?} (expected 'const' or 'poisson')"
                    )))
                }
            };
            let rate: f64 = rate_tok
                .parse()
                .map_err(|_| err(format!("invalid rate {rate_tok:?} (requests per second)")))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(err(format!("rate must be positive (got {rate_tok})")));
            }
            phases.push(ArrivalPhase { duration, kind, rate });
        }
        if phases.is_empty() {
            return Err(ArrivalError::Empty);
        }
        Ok(ArrivalSpec { phases })
    }

    /// A single constant-rate phase: `rate` requests/second for `dur`.
    ///
    /// # Errors
    ///
    /// Same validation as [`ArrivalSpec::from_phases`].
    pub fn constant(rate: f64, dur: SimDuration) -> Result<Self, ArrivalError> {
        Self::from_phases(vec![ArrivalPhase { duration: dur, kind: ArrivalKind::Constant, rate }])
    }

    /// A single Poisson phase: mean `rate` requests/second for `dur`.
    ///
    /// # Errors
    ///
    /// Same validation as [`ArrivalSpec::from_phases`].
    pub fn poisson(rate: f64, dur: SimDuration) -> Result<Self, ArrivalError> {
        Self::from_phases(vec![ArrivalPhase { duration: dur, kind: ArrivalKind::Poisson, rate }])
    }

    /// The validated phases, in schedule order.
    pub fn phases(&self) -> &[ArrivalPhase] {
        &self.phases
    }

    /// Absolute `[start, end)` windows of each phase with its rate —
    /// contiguous and monotonically increasing from time zero.
    pub fn segments(&self) -> Vec<(SimTime, SimTime, f64)> {
        let mut out = Vec::with_capacity(self.phases.len());
        let mut cursor = SimTime::ZERO;
        for p in &self.phases {
            let end = cursor + p.duration;
            out.push((cursor, end, p.rate));
            cursor = end;
        }
        out
    }

    /// Total profile length: admissions stop after this much simulated
    /// time, bounding every open-loop run.
    pub fn horizon(&self) -> SimDuration {
        self.phases.iter().fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// Expected number of admissions over the whole profile (exact for
    /// `const` phases, the mean for `poisson` ones).
    pub fn expected_arrivals(&self) -> f64 {
        self.phases.iter().map(|p| p.rate * p.duration.as_secs_f64()).sum()
    }
}

impl fmt::Display for ArrivalSpec {
    /// Canonical round-trippable form: one `<ns>ns <kind> <rate>` line
    /// per phase (`f64` `Display` is shortest-round-trip in Rust, so
    /// `parse(spec.to_string())` reproduces the spec exactly).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.phases {
            writeln!(f, "{}ns {} {}", p.duration.as_nanos(), p.kind.keyword(), p.rate)?;
        }
        Ok(())
    }
}

/// Deterministic generator of one guest's admission instants: it holds
/// the next unadmitted instant, drawn ahead.
///
/// A pure function of `(spec, rng seed)`: identical seeds yield identical
/// sequences regardless of how the rest of the simulation interleaves,
/// which is what keeps open-loop runs byte-identical between the serial
/// and partition-parallel executors. Arrival instants are strictly
/// increasing and confined to `[0, spec.horizon())`.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    rng: DetRng,
    phase: usize,
    cursor: SimTime,
    phase_end: SimTime,
    /// The next unadmitted instant, drawn ahead (`None` once exhausted).
    next: Option<SimTime>,
}

impl ArrivalProcess {
    /// Creates a process over `spec`, drawing Poisson gaps from `rng`; the
    /// first instant is drawn here.
    pub fn new(spec: ArrivalSpec, rng: DetRng) -> Self {
        let phase_end = SimTime::ZERO + spec.phases[0].duration;
        let mut p =
            ArrivalProcess { spec, rng, phase: 0, cursor: SimTime::ZERO, phase_end, next: None };
        p.next = p.draw();
        p
    }

    /// The next unadmitted instant, or `None` once the profile is
    /// exhausted.
    pub fn peek(&self) -> Option<SimTime> {
        self.next
    }

    /// Admits every instant due by `now` and returns how many there were.
    pub fn take_due(&mut self, now: SimTime) -> u64 {
        let mut due = 0;
        while self.next.is_some_and(|at| at <= now) {
            due += 1;
            self.next = self.draw();
        }
        due
    }

    /// Takes the next instant, or `None` once the profile is exhausted.
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        let at = self.next?;
        self.next = self.draw();
        Some(at)
    }

    /// Draws the instant after the last one drawn, or `None` once the
    /// profile is exhausted. A gap that crosses a phase boundary is redrawn
    /// at the boundary under the new phase's rate (memoryless for Poisson;
    /// `const` phases restart their even spacing at the boundary).
    fn draw(&mut self) -> Option<SimTime> {
        loop {
            let p = *self.spec.phases.get(self.phase)?;
            let mean_gap_ps = 1e12 / p.rate;
            let gap_ps = match p.kind {
                ArrivalKind::Constant => mean_gap_ps,
                ArrivalKind::Poisson => self.rng.exponential(mean_gap_ps),
            };
            // At least one picosecond keeps the sequence strictly
            // increasing even at absurd rates.
            let gap_ps = (gap_ps.round() as u64).max(1);
            let cand = SimTime::from_picos(self.cursor.as_picos().saturating_add(gap_ps));
            if cand < self.phase_end {
                self.cursor = cand;
                return Some(cand);
            }
            self.cursor = self.phase_end;
            self.phase += 1;
            if let Some(next) = self.spec.phases.get(self.phase) {
                self.phase_end = self.cursor + next.duration;
            }
        }
    }
}

/// A guest's admission rule and its open-loop books.
///
/// A closed loop has no schedule: the guest starts its next request when
/// the last one is done (plus any think time it models), and the books
/// stay empty. An open loop admits on an [`ArrivalProcess`]: every
/// arrival due counts as offered, as many as the guest's free window
/// holds start, and the rest are shed. Completions and unanswered
/// requests are checked against the SLO target.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    /// The schedule; `None` for a closed loop (boxed, so a closed-loop
    /// guest carries only the pointer).
    arrivals: Option<Box<ArrivalProcess>>,
    /// Arrivals the schedule produced: started plus shed.
    pub offered: u64,
    /// Completions against the target, unanswered requests and the shed.
    pub slo: SloStats,
}

impl Admission {
    /// An open loop on `spec`, its Poisson gaps drawn from `rng`, or a
    /// closed loop without one; completions are checked against `target`.
    pub fn new(spec: Option<&ArrivalSpec>, rng: DetRng, target: Option<SimDuration>) -> Self {
        Admission {
            arrivals: spec.map(|spec| Box::new(ArrivalProcess::new(spec.clone(), rng))),
            offered: 0,
            slo: SloStats::with_target(target),
        }
    }

    /// Takes every arrival due by `now`: each is offered, up to `free` of
    /// them start and the rest are shed. Returns how many start, or `None`
    /// for a closed loop, whose guest starts its next request itself.
    pub fn admit(&mut self, now: SimTime, free: usize) -> Option<u64> {
        let due = self.arrivals.as_mut()?.take_due(now);
        let start = due.min(free as u64);
        self.offered += due;
        self.slo.shed += due - start;
        Some(start)
    }

    /// The next arrival's instant: `None` once the schedule is exhausted,
    /// and for a closed loop.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.arrivals.as_ref()?.peek()
    }

    /// A request answered after `latency` (open loop: a violation if
    /// slower than the target).
    pub fn on_complete(&mut self, latency: SimDuration) {
        self.account(self.slo.target.is_some_and(|t| latency > t));
    }

    /// A request that will never be answered: it expired, missed its
    /// deadline or died with its node (open loop: a violation of any
    /// target).
    pub fn on_unanswered(&mut self) {
        self.account(self.slo.target.is_some());
    }

    fn account(&mut self, violated: bool) {
        if self.arrivals.is_some() {
            self.slo.completed += 1;
            self.slo.violations += u64::from(violated);
        }
    }

    /// The `open_loop.*` and `slo.*` metrics, with `in_flight` requests
    /// outstanding (open loop only).
    pub fn visit(&self, in_flight: usize, v: &mut dyn MetricsVisitor) {
        if self.arrivals.is_some() {
            v.counter("open_loop.offered", self.offered);
            v.gauge("open_loop.in_flight", in_flight as f64);
            self.slo.visit(v);
        }
    }
}

/// Service-level objective accounting for one open-loop client (or the
/// whole experiment after merging): completions checked against a target
/// latency, plus the admissions shed because the in-flight window was
/// full. Merged into `RunEnvelope` and scraped as `slo.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloStats {
    /// The latency target, when one was configured.
    pub target: Option<SimDuration>,
    /// Requests that completed (including ones that missed the target).
    pub completed: u64,
    /// Completions slower than `target`, plus requests that never
    /// completed at all (expired or deadline-missed) while a target was
    /// set — an unanswered request violates any SLO.
    pub violations: u64,
    /// Admissions dropped because the bounded in-flight window was full.
    pub shed: u64,
}

impl SloStats {
    /// Creates an empty block with the given target.
    pub fn with_target(target: Option<SimDuration>) -> Self {
        SloStats { target, ..Default::default() }
    }

    /// Fraction of accounted requests that violated the target
    /// (`0.0` when nothing completed).
    pub fn violation_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.violations as f64 / self.completed as f64
        }
    }

    /// Folds another block into this one. The target is taken from
    /// whichever side has one (they agree within one experiment).
    pub fn merge(&mut self, other: &SloStats) {
        if self.target.is_none() {
            self.target = other.target;
        }
        self.completed = self.completed.saturating_add(other.completed);
        self.violations = self.violations.saturating_add(other.violations);
        self.shed = self.shed.saturating_add(other.shed);
    }

    /// `true` when nothing was recorded (no open-loop client ran).
    pub fn is_empty(&self) -> bool {
        *self == SloStats::default()
    }

    /// Emits the block under `slo.*` metric names.
    pub fn visit(&self, v: &mut dyn MetricsVisitor) {
        v.counter("slo.completed", self.completed);
        v.counter("slo.violations", self.violations);
        v.counter("slo.shed", self.shed);
        if let Some(t) = self.target {
            v.counter("slo.target_ns", t.as_nanos());
        }
    }
}

diablo_engine::impl_snap_enum!(ArrivalKind { 0 => Constant, 1 => Poisson });

diablo_engine::impl_snap_struct!(ArrivalPhase { duration, kind, rate });
diablo_engine::impl_snap_struct!(ArrivalSpec { phases });
// The spec rides the snapshot with the generator's position: a restored
// sweep point cannot re-shape the arrival profile mid-run (the remaining
// schedule is already committed state, like TCP params on live flows).
diablo_engine::impl_snap_struct!(ArrivalProcess { spec, rng, phase, cursor, phase_end, next });
diablo_engine::impl_snap_struct!(SloStats { target, completed, violations, shed });
diablo_engine::impl_snap_struct!(Admission { arrivals, offered, slo });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let spec = ArrivalSpec::parse(
            "# morning ramp, midday peak, evening trough\n\
             30ms poisson 2000     # duration, kind, rate in requests/second\n\
             30ms poisson 6000\n\
             40ms const 1000\n",
        )
        .expect("valid spec");
        assert_eq!(spec.phases().len(), 3);
        assert_eq!(spec.horizon(), SimDuration::from_millis(100));
        assert_eq!(spec.phases()[2].kind, ArrivalKind::Constant);
        let exp = spec.expected_arrivals();
        assert!((exp - (60.0 + 180.0 + 40.0)).abs() < 1e-6, "expected arrivals {exp}");
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, needle) in [
            ("", "no phases"),
            ("# only a comment\n", "no phases"),
            ("10ms const\n", "expected '<duration> <kind> <rate>'"),
            ("10ms const 100 extra\n", "expected '<duration> <kind> <rate>'"),
            ("xyz const 100\n", "needs a ns/us/ms/s suffix"),
            ("0ms const 100\n", "duration must be positive"),
            ("10ms burst 100\n", "unknown arrival profile"),
            ("10ms const 0\n", "rate must be positive"),
            ("10ms poisson -5\n", "rate must be positive"),
            ("10ms const nan\n", "rate must be positive"),
            ("10ms const abc\n", "invalid rate"),
            ("10ms const 100\n10ms const inf\n", "line 2"),
            ("20000000s const 100\n", "is longer than"),
            ("10000000s const 100\n10000000s const 100\n", "line 2: the phase must end before"),
        ] {
            let err = ArrivalSpec::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text:?} -> {err:?} (wanted {needle:?})");
        }
    }

    /// The duration token's own cases are tabled on `SimDuration`'s
    /// `FromStr`; through the grammar, the phase line must fail.
    #[test]
    fn rejects_non_finite_and_negative_durations() {
        for text in ["NaNms const 100\n", "infs const 100\n", "-5ms const 100\n"] {
            let err = ArrivalSpec::parse(text).expect_err(text).to_string();
            assert!(err.contains("finite and non-negative"), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn constant_rate_is_evenly_spaced() {
        let spec = ArrivalSpec::constant(1000.0, SimDuration::from_millis(10)).unwrap();
        let mut p = ArrivalProcess::new(spec, DetRng::new(1));
        let mut prev = SimTime::ZERO;
        let mut n = 0u64;
        while let Some(at) = p.next_arrival() {
            assert_eq!(at.duration_since(prev), SimDuration::from_micros(1000));
            prev = at;
            n += 1;
        }
        // 1000 req/s over 10 ms = one per ms; the admission landing
        // exactly on the horizon is excluded ([0, horizon) is half-open).
        assert_eq!(n, 9);
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_spread() {
        let spec = ArrivalSpec::poisson(50_000.0, SimDuration::from_millis(20)).unwrap();
        let collect = |seed: u64| {
            let mut p = ArrivalProcess::new(spec.clone(), DetRng::new(seed));
            let mut v = Vec::new();
            while let Some(at) = p.next_arrival() {
                v.push(at.as_picos());
            }
            v
        };
        let a = collect(7);
        assert_eq!(a, collect(7), "same seed must replay the same schedule");
        assert_ne!(a, collect(8), "different seeds must differ");
        // Mean count = 1000; allow a generous band.
        assert!((700..1300).contains(&a.len()), "arrival count {}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals must be strictly increasing");
    }

    #[test]
    fn piecewise_segments_are_contiguous() {
        let spec = ArrivalSpec::parse("5ms const 100\n2ms poisson 900\n1ms const 50\n").unwrap();
        let segs = spec.segments();
        assert_eq!(segs[0].0, SimTime::ZERO);
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "phases must tile the timeline");
        }
        assert_eq!(segs.last().unwrap().1, SimTime::ZERO + spec.horizon());
    }

    #[test]
    fn display_round_trips() {
        let spec = ArrivalSpec::parse("30ms poisson 2000.5\n1500us const 333.25\n").unwrap();
        let reparsed = ArrivalSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
    }

    /// Every due arrival is offered; as many as the window holds start and
    /// the rest are shed. A closed loop admits nothing and keeps no books.
    #[test]
    fn admission_starts_what_the_window_holds_and_sheds_the_rest() {
        let spec = ArrivalSpec::constant(1000.0, SimDuration::from_millis(10)).unwrap();
        let target = Some(SimDuration::from_micros(100));
        let mut open = Admission::new(Some(&spec), DetRng::new(1), target);
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        assert_eq!(open.admit(ms(3), 2), Some(2), "arrivals at 1, 2 and 3 ms");
        assert_eq!(open.admit(ms(3), 2), Some(0), "nothing new is due");
        assert_eq!(open.next_arrival(), Some(ms(4)));
        open.on_complete(SimDuration::from_micros(150));
        open.on_unanswered();
        assert_eq!((open.offered, open.slo.shed), (3, 1));
        assert_eq!((open.slo.completed, open.slo.violations), (2, 2));

        let mut closed = Admission::default();
        assert_eq!(closed.admit(ms(3), 1), None);
        assert_eq!(closed.next_arrival(), None);
        closed.on_complete(SimDuration::from_micros(150));
        closed.on_unanswered();
        assert!(closed.offered == 0 && closed.slo.is_empty(), "a closed loop keeps no books");
    }

    #[test]
    fn slo_stats_account_violations_and_shed() {
        let spec = ArrivalSpec::constant(1000.0, SimDuration::from_millis(10)).unwrap();
        let target = Some(SimDuration::from_micros(100));
        let mut a = Admission::new(Some(&spec), DetRng::new(1), target);
        a.on_complete(SimDuration::from_micros(50));
        a.on_complete(SimDuration::from_micros(150));
        a.on_unanswered();
        a.slo.shed += 1;
        let s = a.slo;
        assert_eq!((s.completed, s.violations, s.shed), (3, 2, 1));
        assert!((s.violation_fraction() - 2.0 / 3.0).abs() < 1e-12);

        let mut total = SloStats::default();
        total.merge(&s);
        total.merge(&s);
        assert_eq!(total.target, Some(SimDuration::from_micros(100)));
        assert_eq!((total.completed, total.violations, total.shed), (6, 4, 2));
        assert!(!total.is_empty());
        assert!(SloStats::default().is_empty());
    }
}
