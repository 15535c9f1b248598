//! Instrumentation: counters, high-dynamic-range histograms, series.
//!
//! DIABLO is "fully instrumented" (§1): every model carries performance
//! counters, and the case studies report latency distributions spanning five
//! orders of magnitude (10 µs … 1 s tails). The [`Histogram`] here uses
//! HDR-style log-linear buckets: values are grouped into power-of-two
//! ranges, each split into `2^p` linear sub-buckets, giving a bounded
//! relative error of `2^-p` at any magnitude. Only the buckets that hold a
//! sample are stored, 16 bytes each, so a histogram's size follows the
//! number of distinct buckets it has hit, not its largest sample: a client
//! with a hundred samples, one of them a 250 ms retry, keeps about a
//! hundred buckets rather than an array of 3,000. The snapshot wire form
//! is the dense array (see [`Histogram`]).

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use core::cmp::Ordering;
use core::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use diablo_engine::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }
    /// Adds `n`, saturating at `u64::MAX` — a pegged counter is a better
    /// failure mode than aborting a long debug-build run on overflow.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }
    /// Adds one, saturating at `u64::MAX`.
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }
    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Default precision: 128 linear sub-buckets per octave (≤0.79% error).
const DEFAULT_PRECISION_BITS: u32 = 7;

/// HDR-style log-linear histogram of `u64` samples.
///
/// Records are exact in count and bounded in value error by `2^-p` where
/// `p` is the precision (default 7, ≤0.79%). Suitable for latencies in
/// nanoseconds across the full `u64` range.
///
/// The histogram stores its non-empty buckets only, as `(index, count)`
/// pairs sorted by index: at most `(65 - p) · 2^p` of them (7,424 at the
/// default precision), and in practice a few hundred. Recording into a
/// bucket that already holds samples is a binary search; a new bucket is
/// inserted in place, moving the entries above it. Merging is one linear
/// pass over both lists, and quantiles and distributions walk the stored
/// buckets only.
///
/// A snapshot keeps the dense form, one `u64` count per bucket up to the
/// largest non-empty one: `save` expands to it and `load` compacts from
/// it, so the snapshot format does not depend on the in-memory layout.
/// `load` rejects a precision outside `1..=14` and a bucket array longer
/// than that precision can index.
///
/// # Examples
///
/// ```
/// use diablo_engine::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((495..=505).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    precision_bits: u32,
    /// Non-empty buckets as `(index, count)`, sorted by index; every count
    /// is at least one.
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with the default precision (≤0.79% value error).
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION_BITS)
    }

    /// Creates a histogram with `2^precision_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= precision_bits <= 14`.
    pub fn with_precision(precision_bits: u32) -> Self {
        assert!((1..=14).contains(&precision_bits), "precision_bits out of range");
        Histogram { precision_bits, buckets: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn index_of(&self, value: u64) -> usize {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        if value < sub {
            value as usize
        } else {
            let e = 63 - value.leading_zeros(); // floor(log2(value)) >= p
            let shift = e - p;
            let sub_idx = (value >> shift) - sub; // in [0, 2^p)
            (((e - p + 1) as u64 * sub) + sub_idx) as usize
        }
    }

    /// Upper bound of the bucket at `idx` (the largest value mapping there).
    fn bucket_upper(&self, idx: usize) -> u64 {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        let idx = idx as u64;
        if idx < sub {
            idx
        } else {
            let octave = idx / sub - 1; // shift amount
            let sub_idx = idx % sub;
            let base = (sub + sub_idx) << octave;
            let width = 1u64 << octave;
            base + (width - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples. Count and sum saturate at their
    /// type bounds rather than overflowing.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 = self.buckets[pos].1.saturating_add(n),
            Err(pos) => self.buckets.insert(pos, (idx, n)),
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value as u128 * n as u128);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]` (bucket upper bound).
    ///
    /// Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return self.bucket_upper(idx as usize).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.precision_bits, other.precision_bits, "precision mismatch");
        let (a, b) = (&self.buckets, &other.buckets);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push((a[i].0, a[i].1.saturating_add(b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.buckets = merged;
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Cumulative distribution as `(value_upper_bound, cumulative_fraction)`
    /// points over non-empty buckets. Empty histogram yields an empty vec.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen = seen.saturating_add(c);
            out.push((self.bucket_upper(idx as usize), seen as f64 / self.count as f64));
        }
        out
    }

    /// Probability mass over logarithmic bins: `bins` buckets per decade
    /// between `lo` and `hi`, returning `(bin_upper_bound, fraction)`.
    ///
    /// This is the presentation the paper uses for Figure 10 (log-x PMF of
    /// request latencies).
    ///
    /// # Panics
    ///
    /// Panics if `lo` is zero, `lo >= hi`, or `bins` is zero.
    pub fn log_pmf(&self, lo: u64, hi: u64, bins_per_decade: usize) -> Vec<(u64, f64)> {
        let edges = log_edges(lo, hi, bins_per_decade);
        let mut out: Vec<(u64, f64)> = edges[1..].iter().map(|&e| (e, 0.0)).collect();
        if self.count == 0 {
            return out;
        }
        for &(idx, c) in &self.buckets {
            let v = self.bucket_upper(idx as usize);
            // Find the first edge >= v (values below lo clamp to bin 0;
            // above hi clamp to the last bin).
            let bin = match edges[1..].binary_search(&v) {
                Ok(i) => i,
                Err(i) => i.min(out.len() - 1),
            };
            out[bin].1 += c as f64 / self.count as f64;
        }
        out
    }

    /// Cumulative distribution over the same logarithmic bins as
    /// [`Histogram::log_pmf`]: `(bin_upper_bound, cumulative_fraction)`.
    /// Values below `lo` count toward the first bin and values above `hi`
    /// toward the last, so the final point reaches 1.0 for a non-empty
    /// histogram.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is zero, `lo >= hi`, or `bins_per_decade` is zero.
    pub fn log_cdf(&self, lo: u64, hi: u64, bins_per_decade: usize) -> Vec<(u64, f64)> {
        let mut out = self.log_pmf(lo, hi, bins_per_decade);
        let mut acc = 0.0;
        for p in &mut out {
            acc += p.1;
            p.1 = acc;
        }
        out
    }
}

/// Logarithmic bin upper edges between `lo` and `hi`, `bins_per_decade`
/// per decade, rounded to integers and deduplicated: over a narrow range
/// (1–10 ns, say) adjacent ideal edges round to the same integer, which
/// would otherwise yield zero-width bins, non-monotone output, and an
/// ill-defined binary search.
fn log_edges(lo: u64, hi: u64, bins_per_decade: usize) -> Vec<u64> {
    assert!(lo > 0 && hi > lo && bins_per_decade > 0, "invalid log-bin bounds");
    let decades = (hi as f64 / lo as f64).log10();
    let total_bins = (decades * bins_per_decade as f64).ceil() as usize;
    let mut edges = Vec::with_capacity(total_bins + 1);
    for i in 0..=total_bins {
        let v = (lo as f64 * 10f64.powf(i as f64 / bins_per_decade as f64)).round() as u64;
        if edges.last() != Some(&v) {
            edges.push(v);
        }
    }
    edges
}

/// Per-partition execution counters from a parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionExec {
    /// Partition index.
    pub partition: usize,
    /// Worker thread the partition is multiplexed onto.
    pub worker: usize,
    /// Events dispatched to this partition's components.
    pub events: u64,
    /// Events this partition sent to another partition.
    pub sent_cross: u64,
    /// Events delivered to this partition through another worker's lanes.
    pub recv_cross: u64,
}

/// Per-worker-thread synchronization counters from a parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerExec {
    /// Worker thread index.
    pub worker: usize,
    /// Number of partitions multiplexed onto this worker.
    pub partitions: usize,
    /// Barrier rounds completed.
    pub rounds: u64,
    /// Rounds in which at least one event was dispatched.
    pub busy_rounds: u64,
    /// Wall-clock nanoseconds spent waiting at the barrier.
    pub barrier_wait_ns: u64,
    /// Events received through cross-worker lanes.
    pub lane_events: u64,
    /// Largest number of lane events drained in a single round.
    pub lane_peak: u64,
    /// Same-component dispatch batches executed: the hot loop resolves the
    /// target component once per batch, so `events / dispatch_batches` is
    /// the mean batch length (1.0 means batching never engaged).
    pub dispatch_batches: u64,
}

/// Execution statistics for a parallel run: synchronization cadence, lane
/// traffic, and the per-partition event balance.
///
/// Produced by the parallel executor's `exec_report()`; the bench sweep
/// emits these alongside throughput so the scaling trajectory shows *why*
/// a configuration is fast or slow (few long rounds vs. many empty ones).
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Cross-partition lookahead (the synchronization quantum), picoseconds.
    pub lookahead_ps: u64,
    /// Worker threads *requested* (explicitly, through `with_workers`)
    /// before the clamp to the partition count; compare with
    /// `workers.len()` to spot a silently reduced effective count.
    pub workers_requested: usize,
    /// One entry per worker thread.
    pub workers: Vec<WorkerExec>,
    /// One entry per partition.
    pub partitions: Vec<PartitionExec>,
}

impl ExecReport {
    /// Total events dispatched across all partitions.
    pub fn events(&self) -> u64 {
        self.partitions.iter().map(|p| p.events).sum()
    }
    /// Barrier rounds completed by the busiest worker.
    pub fn rounds(&self) -> u64 {
        self.workers.iter().map(|w| w.rounds).max().unwrap_or(0)
    }
    /// Mean events dispatched per barrier round — the adaptive batching
    /// payoff (high means barriers are amortized over many events).
    pub fn events_per_round(&self) -> f64 {
        let rounds = self.rounds();
        if rounds == 0 {
            self.events() as f64
        } else {
            self.events() as f64 / rounds as f64
        }
    }
    /// Total wall-clock nanoseconds all workers spent waiting at barriers.
    pub fn barrier_wait_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.barrier_wait_ns).sum()
    }
    /// Total events carried by cross-worker lanes.
    pub fn lane_events(&self) -> u64 {
        self.workers.iter().map(|w| w.lane_events).sum()
    }
    /// Total same-component dispatch batches across all workers.
    pub fn dispatch_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.dispatch_batches).sum()
    }
}

impl Snap for Histogram {
    /// Writes the dense form: one `u64` count for every bucket up to the
    /// largest non-empty one, zeros included.
    fn save(&self, w: &mut SnapWriter) {
        self.precision_bits.save(w);
        w.put_len(self.buckets.last().map_or(0, |&(idx, _)| idx as usize + 1));
        let mut next = 0;
        for &(idx, c) in &self.buckets {
            for _ in next..idx {
                0u64.save(w);
            }
            c.save(w);
            next = idx + 1;
        }
        self.count.save(w);
        self.sum.save(w);
        self.min.save(w);
        self.max.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let precision_bits = u32::load(r)?;
        if !(1..=14).contains(&precision_bits) {
            return Err(SnapError::Malformed(format!(
                "histogram precision {precision_bits} is outside 1..=14"
            )));
        }
        let mut h = Histogram::with_precision(precision_bits);
        let len = r.take_len()?;
        let buckets = h.index_of(u64::MAX) + 1;
        if len > buckets {
            return Err(SnapError::Malformed(format!(
                "histogram of precision {precision_bits} has {len} buckets, at most {buckets} exist"
            )));
        }
        for idx in 0..len {
            let c = u64::load(r)?;
            if c != 0 {
                h.buckets.push((idx as u32, c));
            }
        }
        h.count = u64::load(r)?;
        h.sum = u128::load(r)?;
        h.min = u64::load(r)?;
        h.max = u64::load(r)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        c.add(100);
        assert_eq!(c.get(), u64::MAX, "counter pegs at the max");
    }

    #[test]
    fn histogram_record_and_merge_saturate() {
        let mut h = Histogram::new();
        h.record_n(10, u64::MAX);
        h.record_n(10, u64::MAX); // would overflow count and the bucket
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile(0.5), 10);

        let mut a = Histogram::new();
        a.record_n(7, u64::MAX);
        let b = a.clone();
        a.merge(&b); // count + count would overflow
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.max(), 7);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = Histogram::new();
        let values = [1_000u64, 123_456, 9_999_999, 1 << 40, u64::MAX / 2];
        for &v in &values {
            h.record(v);
            let idx = h.index_of(v);
            let upper = h.bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / 128.0 + 1e-12, "relative error {err} too big for {v}");
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantiles must be monotone");
            last = q;
        }
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.5) >= 4_950 && h.quantile(0.5) <= 5_050);
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
            combined.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn cdf_reaches_one() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let last = cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn log_pmf_fractions_sum_to_one() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100); // 100 .. 100_000
        }
        let pmf = h.log_pmf(10, 1_000_000, 5);
        let total: f64 = pmf.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(pmf.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Over 1–10 ns at 10 bins/decade, the ideal edges 1.26, 1.58, 2.0,
    /// 2.51, ... round to 1, 2, 2, 3, ... — the duplicates must collapse
    /// so the bins stay strictly increasing and every sample lands in a
    /// well-defined bin.
    #[test]
    fn narrow_range_log_bins_deduplicate_rounded_edges() {
        let mut h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        let pmf = h.log_pmf(1, 10, 10);
        assert!(
            pmf.windows(2).all(|w| w[0].0 < w[1].0),
            "edges must be strictly increasing: {pmf:?}"
        );
        let total: f64 = pmf.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(pmf.last().expect("non-empty bins").0 >= 10, "last bin must cover hi");

        let cdf = h.log_cdf(1, 10, 10);
        assert_eq!(cdf.len(), pmf.len());
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().expect("non-empty bins").1 - 1.0).abs() < 1e-9);

        // An empty histogram yields the same bin shape, all zero.
        let empty = Histogram::new();
        assert_eq!(empty.log_cdf(1, 10, 10).len(), cdf.len());
        assert!(empty.log_cdf(1, 10, 10).iter().all(|&(_, f)| f == 0.0));
    }

    /// The snapshot form of a histogram with the dense bucket array
    /// `buckets`, min 0 and max 1.
    fn dense_bytes(precision_bits: u32, buckets: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        precision_bits.save(&mut w);
        buckets.to_vec().save(&mut w);
        let count: u64 = buckets.iter().sum();
        count.save(&mut w);
        (count as u128).save(&mut w);
        0u64.save(&mut w);
        1u64.save(&mut w);
        w.into_bytes()
    }

    fn load_bytes(bytes: &[u8]) -> Result<Histogram, SnapError> {
        Histogram::load(&mut SnapReader::new(bytes))
    }

    /// Zeros in a snapshot's dense bucket array, trailing ones included,
    /// are not stored.
    #[test]
    fn snapshot_load_keeps_non_empty_buckets_only() {
        let h = load_bytes(&dense_bytes(7, &[0, 1, 0, 0])).unwrap();
        assert_eq!(h.buckets, vec![(1, 1)]);
        assert_eq!(h.quantile(1.0), 1);
        assert!(load_bytes(&dense_bytes(7, &[])).unwrap().buckets.is_empty());
    }

    /// A precision the constructor refuses would, once loaded, size the
    /// next record's bucket from a shift of up to 64 bits; a bucket array
    /// longer than the precision can index holds counts no value maps to.
    #[test]
    fn snapshot_rejects_a_damaged_histogram() {
        for p in [0, 15, 40, 64, u32::MAX] {
            let err = load_bytes(&dense_bytes(p, &[1])).unwrap_err();
            assert!(matches!(err, SnapError::Malformed(_)), "precision {p}: {err:?}");
        }
        for p in [1, 7, 14] {
            let most = Histogram::with_precision(p).index_of(u64::MAX) + 1;
            let mut buckets = vec![0u64; most];
            buckets[most - 1] = 1;
            assert!(load_bytes(&dense_bytes(p, &buckets)).is_ok(), "precision {p}");
            buckets.push(1);
            let err = load_bytes(&dense_bytes(p, &buckets)).unwrap_err();
            assert!(matches!(err, SnapError::Malformed(_)), "precision {p}: {err:?}");
        }
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cdf().is_empty());
    }
}
