//! Client-side failure accounting and retry pacing.
//!
//! Under injected faults (link flaps, switch outages, node crashes) the
//! guest applications stop treating transport errors as fatal: they close
//! the broken connection, back off exponentially, reconnect, and re-issue
//! the interrupted request. [`FailureStats`] is the shared report of that
//! machinery — how many requests hit a failure, how many retries were
//! spent, how many requests ultimately recovered, and how long recovery
//! took — scraped into the metrics registry under each process's prefix.

use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};

/// First retry delay after a failure.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Retry delay ceiling.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(640);

/// Deterministic exponential backoff: `10ms * 2^attempt`, capped at
/// 640 ms. `attempt` counts completed failures for the current request
/// (0 for the first retry).
pub fn backoff_delay(attempt: u32) -> SimDuration {
    let exp = attempt.min(BACKOFF_CAP.as_picos().ilog2() - BACKOFF_BASE.as_picos().ilog2());
    BACKOFF_CAP.min(SimDuration::from_picos(BACKOFF_BASE.as_picos() << exp))
}

/// [`backoff_delay`] plus a deterministic uniform jitter in
/// `[0, base/2)` drawn from the caller's [`DetRng`].
///
/// A mass failure (rack power-cycle, rolling crash) leaves every client
/// observing the error at nearly the same instant; with the bare
/// exponential delay they would all reconnect in lockstep and re-collide
/// each round. Each client seeds its backoff rng from its own address, so
/// the retry instants de-correlate while staying a pure function of
/// (address, attempt sequence) — byte-identical serial vs. partitioned.
pub fn backoff_delay_jittered(attempt: u32, rng: &mut DetRng) -> SimDuration {
    let base = backoff_delay(attempt);
    base + SimDuration::from_picos(rng.next_below(base.as_picos() / 2))
}

/// Failure/recovery accounting for one client process. Counters only ever
/// grow — they survive node crashes via
/// [`Process::reset`](diablo_stack::process::Process::reset), so the
/// report covers the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Request attempts that ended in a transport error, timeout, or
    /// unexpected EOF.
    pub failed: u64,
    /// Retries issued (re-sends of a request that already failed once).
    pub retried: u64,
    /// Reconnections established after a connection broke.
    pub reconnects: u64,
    /// Requests that completed successfully after at least one failure.
    pub recovered: u64,
    /// Requests abandoned after the retry budget ran out — every one of
    /// these was actually sent and timed out (or hit transport errors)
    /// until the client stopped trying.
    pub gave_up: u64,
    /// Requests lost because the client's own node crashed mid-request —
    /// possibly before the request ever reached the wire. Kept separate
    /// from [`FailureStats::gave_up`]: a crash-lost request says nothing
    /// about the service, a timed-out one does.
    pub crash_lost: u64,
    /// Total time spent between a request's first failure and its
    /// eventual success, summed over recovered requests.
    pub recovery_time: SimDuration,
    /// When the in-flight request first failed (`None` while healthy);
    /// bookkeeping for [`FailureStats::recovery_time`].
    first_failure_at: Option<SimTime>,
}

impl FailureStats {
    /// Records one failed attempt at `now`.
    pub fn on_failure(&mut self, now: SimTime) {
        self.failed += 1;
        self.first_failure_at.get_or_insert(now);
    }

    /// Records a request completing at `now`; counts a recovery when the
    /// request failed at least once before succeeding.
    pub fn on_success(&mut self, now: SimTime) {
        if let Some(t0) = self.first_failure_at.take() {
            self.recovered += 1;
            self.recovery_time += now.saturating_duration_since(t0);
        }
    }

    /// Records abandoning the in-flight request after exhausting its
    /// retry budget (the request was sent and timed out).
    pub fn on_give_up(&mut self) {
        self.gave_up += 1;
        self.first_failure_at = None;
    }

    /// Records the in-flight request being lost to a crash of the
    /// client's own node (it may never have been sent).
    pub fn on_crash_lost(&mut self) {
        self.crash_lost += 1;
        self.first_failure_at = None;
    }

    /// `true` while the in-flight request has failed and not yet
    /// recovered.
    pub fn failing(&self) -> bool {
        self.first_failure_at.is_some()
    }

    /// Merges another process's report into this one (for whole-experiment
    /// aggregation).
    pub fn merge(&mut self, other: &FailureStats) {
        self.failed += other.failed;
        self.retried += other.retried;
        self.reconnects += other.reconnects;
        self.recovered += other.recovered;
        self.gave_up += other.gave_up;
        self.crash_lost += other.crash_lost;
        self.recovery_time += other.recovery_time;
    }

    /// Emits the report under `failure.*` counters.
    pub fn visit(&self, v: &mut dyn MetricsVisitor) {
        v.counter("failure.failed", self.failed);
        v.counter("failure.retried", self.retried);
        v.counter("failure.reconnects", self.reconnects);
        v.counter("failure.recovered", self.recovered);
        v.counter("failure.gave_up", self.gave_up);
        v.counter("failure.crash_lost", self.crash_lost);
        v.counter("failure.recovery_time_ns", self.recovery_time.as_nanos());
    }
}

diablo_engine::impl_snap_struct!(FailureStats {
    failed,
    retried,
    reconnects,
    recovered,
    gave_up,
    crash_lost,
    recovery_time,
    first_failure_at
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_delay(0), SimDuration::from_millis(10));
        assert_eq!(backoff_delay(1), SimDuration::from_millis(20));
        assert_eq!(backoff_delay(2), SimDuration::from_millis(40));
        assert_eq!(backoff_delay(6), SimDuration::from_millis(640));
        assert_eq!(backoff_delay(7), SimDuration::from_millis(640));
        assert_eq!(backoff_delay(u32::MAX), SimDuration::from_millis(640));
    }

    /// Address-seeded jitter must de-correlate a synchronized retry storm:
    /// clients that fail at the same instant reconnect at (mostly)
    /// distinct instants, each within `[base, 1.5*base)`, and each
    /// client's draw is a pure function of its seed.
    #[test]
    fn jittered_backoff_decorrelates_reconnect_instants() {
        let base = backoff_delay(0);
        let cap = base + SimDuration::from_picos(base.as_picos() / 2);
        let delays: Vec<SimDuration> = (0..16u64)
            .map(|addr| {
                let mut rng = DetRng::new(addr).derive(0xBACC0FF);
                backoff_delay_jittered(0, &mut rng)
            })
            .collect();
        for d in &delays {
            assert!(*d >= base && *d < cap, "jitter out of range: {d:?}");
        }
        let mut distinct = delays.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() >= 14,
            "16 address-seeded clients produced only {} distinct reconnect \
             instants — retries are still synchronized",
            distinct.len()
        );
        // Same seed, same attempt sequence => same delays (replayable).
        let mut a = DetRng::new(7).derive(0xBACC0FF);
        let mut b = DetRng::new(7).derive(0xBACC0FF);
        for attempt in 0..8 {
            assert_eq!(
                backoff_delay_jittered(attempt, &mut a),
                backoff_delay_jittered(attempt, &mut b)
            );
        }
        // Jitter never breaches the next power-of-two rung: base*1.5 of
        // attempt N stays below the bare delay of attempt N+1.
        for attempt in 0..6 {
            let mut rng = DetRng::new(99);
            assert!(backoff_delay_jittered(attempt, &mut rng) < backoff_delay(attempt + 1) * 2);
        }
    }

    #[test]
    fn recovery_accounting() {
        let mut s = FailureStats::default();
        let t0 = SimTime::from_millis(100);
        s.on_failure(t0);
        s.on_failure(SimTime::from_millis(120)); // same request fails again
        assert!(s.failing());
        s.on_success(SimTime::from_millis(150));
        assert_eq!(s.failed, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.recovery_time, SimDuration::from_millis(50));
        assert!(!s.failing());
        // A clean success is not a recovery.
        s.on_success(SimTime::from_millis(200));
        assert_eq!(s.recovered, 1);
        // Giving up clears the failure window without a recovery.
        s.on_failure(SimTime::from_millis(300));
        s.on_give_up();
        assert_eq!(s.gave_up, 1);
        assert!(!s.failing());
        let mut agg = FailureStats::default();
        agg.merge(&s);
        assert_eq!(agg.failed, 3);
        assert_eq!(agg.recovery_time, SimDuration::from_millis(50));
    }

    #[test]
    fn crash_loss_is_not_a_give_up() {
        let mut s = FailureStats::default();
        s.on_failure(SimTime::from_millis(10));
        s.on_crash_lost();
        assert_eq!(s.crash_lost, 1);
        assert_eq!(s.gave_up, 0, "a crash-lost request must not count as timed out");
        assert!(!s.failing());
        let mut agg = FailureStats::default();
        agg.merge(&s);
        assert_eq!(agg.crash_lost, 1);
    }
}
