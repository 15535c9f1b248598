//! Property-based tests of the engine's core invariants.

use diablo_engine::metrics::HistogramSummary;
use diablo_engine::prelude::*;
use proptest::prelude::*;
use std::any::Any;

/// Collects every delivery with its timestamp.
struct Recorder {
    got: Vec<(SimTime, u64)>,
}

impl Component<u64> for Recorder {
    fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, u64>) {}
    fn on_message(&mut self, _p: PortNo, m: u64, ctx: &mut Ctx<'_, u64>) {
        self.got.push((ctx.now(), m));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The histogram as it was before it kept only its non-empty buckets: one
/// `u64` count for every bucket up to the largest sample. It is the
/// reference the sparse [`Histogram`] must agree with on every query and
/// on its snapshot bytes. It departs from the original twice, where the
/// original overflowed in a debug build: the running rank in `quantile`
/// and `cdf` saturates like the counts do, and the top bucket's upper
/// bound is `u64::MAX` rather than `2^64` wrapped.
#[derive(Clone)]
struct DenseHistogram {
    precision_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl DenseHistogram {
    fn with_precision(precision_bits: u32) -> Self {
        DenseHistogram {
            precision_bits,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(&self, value: u64) -> usize {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        if value < sub {
            value as usize
        } else {
            let e = 63 - value.leading_zeros();
            let shift = e - p;
            let sub_idx = (value >> shift) - sub;
            (((e - p + 1) as u64 * sub) + sub_idx) as usize
        }
    }

    fn bucket_upper(&self, idx: usize) -> u64 {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        let idx = idx as u64;
        if idx < sub {
            idx
        } else {
            let octave = idx / sub - 1;
            let sub_idx = idx % sub;
            let base = (sub + sub_idx) << octave;
            let width = 1u64 << octave;
            base + (width - 1)
        }
    }

    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value as u128 * n as u128);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return self.bucket_upper(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &DenseHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen = seen.saturating_add(c);
            out.push((self.bucket_upper(idx), seen as f64 / self.count as f64));
        }
        out
    }

    fn log_pmf(&self, lo: u64, hi: u64, bins_per_decade: usize) -> Vec<(u64, f64)> {
        let decades = (hi as f64 / lo as f64).log10();
        let total_bins = (decades * bins_per_decade as f64).ceil() as usize;
        let mut edges: Vec<u64> = Vec::new();
        for i in 0..=total_bins {
            let v = (lo as f64 * 10f64.powf(i as f64 / bins_per_decade as f64)).round() as u64;
            if edges.last() != Some(&v) {
                edges.push(v);
            }
        }
        let mut out: Vec<(u64, f64)> = edges[1..].iter().map(|&e| (e, 0.0)).collect();
        if self.count == 0 {
            return out;
        }
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = self.bucket_upper(idx);
            let bin = match edges[1..].binary_search(&v) {
                Ok(i) => i,
                Err(i) => i.min(out.len() - 1),
            };
            out[bin].1 += c as f64 / self.count as f64;
        }
        out
    }

    fn log_cdf(&self, lo: u64, hi: u64, bins_per_decade: usize) -> Vec<(u64, f64)> {
        let mut out = self.log_pmf(lo, hi, bins_per_decade);
        let mut acc = 0.0;
        for p in &mut out {
            acc += p.1;
            p.1 = acc;
        }
        out
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.precision_bits.save(&mut w);
        self.buckets.save(&mut w);
        self.count.save(&mut w);
        self.sum.save(&mut w);
        self.min.save(&mut w);
        self.max.save(&mut w);
        w.into_bytes()
    }
}

/// A sample value: small and exact, a latency in nanoseconds, the 250 ms
/// retry, any `u64`, or `u64::MAX`.
fn sample_value(kind: u64, raw: u64) -> u64 {
    match kind {
        0 => raw % 300,
        1 => 1_000 + raw % 10_000_000,
        2 => 250_000_000 + raw % 4,
        3 => raw,
        _ => u64::MAX,
    }
}

/// A sample count: one, a few, none (a no-op), or `u64::MAX`, which
/// saturates the bucket and the total.
fn sample_count(kind: u64, raw: u64) -> u64 {
    match kind {
        0 | 1 => 1,
        2 => 1 + raw % 1_000,
        3 => 0,
        _ => u64::MAX,
    }
}

/// Every query of `h` agrees with the same query of `dense`.
fn check_against_dense(
    h: &Histogram,
    dense: &DenseHistogram,
    q: f64,
    bins: (u64, u64, usize),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), dense.count);
    prop_assert_eq!(h.is_empty(), dense.count == 0);
    prop_assert_eq!(h.min(), dense.min());
    prop_assert_eq!(h.max(), dense.max);
    prop_assert_eq!(h.mean().to_bits(), dense.mean().to_bits());
    for q in [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0, q] {
        prop_assert_eq!(h.quantile(q), dense.quantile(q), "q={}", q);
    }
    prop_assert_eq!(h.cdf(), dense.cdf());
    let (lo, hi, per_decade) = bins;
    prop_assert_eq!(h.log_pmf(lo, hi, per_decade), dense.log_pmf(lo, hi, per_decade));
    prop_assert_eq!(h.log_cdf(lo, hi, per_decade), dense.log_cdf(lo, hi, per_decade));
    prop_assert_eq!(HistogramSummary::of(h), dense.summary());
    let mut w = SnapWriter::new();
    h.save(&mut w);
    let bytes = w.into_bytes();
    prop_assert!(bytes == dense.snapshot(), "snapshot bytes differ from the dense form");
    let back = Histogram::load(&mut SnapReader::new(&bytes));
    prop_assert!(back.as_ref() == Ok(h), "snapshot does not load back");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injected events are always delivered in nondecreasing time order,
    /// and ties preserve injection order.
    #[test]
    fn deliveries_are_time_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Simulation::<u64>::new();
        let r = sim.add_component(Box::new(Recorder { got: Vec::new() }));
        for (i, &t) in times.iter().enumerate() {
            sim.inject_message(SimTime::from_nanos(t), r, PortNo(0), i as u64);
        }
        sim.run().unwrap();
        let got = &sim.component::<Recorder>(r).unwrap().got;
        prop_assert_eq!(got.len(), times.len());
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke injection order");
            }
        }
    }

    /// Histogram quantiles are within the structure's relative error of the
    /// exact empirical quantiles.
    #[test]
    fn histogram_quantiles_are_accurate(
        mut values in proptest::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.01f64..0.99
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let approx = h.quantile(q);
        // Bucket upper bounds can exceed the exact value by <=1/128 and
        // can never be below it by more than one bucket width.
        let tolerance = exact / 64 + 2;
        prop_assert!(
            approx + tolerance >= exact && approx <= exact + exact / 64 + 2,
            "q={} exact={} approx={}", q, exact, approx
        );
    }

    /// Histogram counts and extremes are exact.
    #[test]
    fn histogram_count_min_max_exact(values in proptest::collection::vec(0u64..u64::MAX / 2, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
    }

    /// The sparse histogram answers every query, and writes the same
    /// snapshot bytes, as the dense one it replaced: after any sequence of
    /// records (zero and saturating counts included) into two histograms,
    /// and after merging them in either order.
    #[test]
    fn histogram_matches_dense_reference(
        precision_pick in 0u32..28,
        ops in proptest::collection::vec((any::<bool>(), 0u64..5, 0u64..5, any::<u64>()), 0..120),
        q in 0.0f64..1.0,
        bins in (1u64..1_000, 1u32..20, 1usize..12)
    ) {
        // Half the cases at the default precision, the rest anywhere in 1..=14.
        let p = if precision_pick < 14 { 7 } else { precision_pick - 13 };
        let bins = (bins.0, bins.0.saturating_mul(10u64.pow(bins.1)), bins.2);
        let (mut a, mut b) = (Histogram::with_precision(p), Histogram::with_precision(p));
        let (mut ra, mut rb) = (DenseHistogram::with_precision(p), DenseHistogram::with_precision(p));
        for &(into_a, value_kind, count_kind, raw) in &ops {
            let (value, n) = (sample_value(value_kind, raw), sample_count(count_kind, raw >> 7));
            if into_a {
                a.record_n(value, n);
                ra.record_n(value, n);
            } else {
                b.record_n(value, n);
                rb.record_n(value, n);
            }
        }
        check_against_dense(&a, &ra, q, bins)?;
        check_against_dense(&b, &rb, q, bins)?;
        let (mut ab, mut rab) = (a.clone(), ra.clone());
        ab.merge(&b);
        rab.merge(&rb);
        check_against_dense(&ab, &rab, q, bins)?;
        let (mut ba, mut rba) = (b.clone(), rb.clone());
        ba.merge(&a);
        rba.merge(&ra);
        check_against_dense(&ba, &rba, q, bins)?;
        prop_assert_eq!(&ab, &ba);
        // A merge into itself doubles every bucket.
        let (mut aa, mut raa) = (a.clone(), ra.clone());
        aa.merge(&a);
        raa.merge(&ra);
        check_against_dense(&aa, &raa, q, bins)?;
    }

    /// The deterministic RNG's bounded draw is always in range, and the
    /// same seed yields the same sequence.
    #[test]
    fn rng_bounded_and_reproducible(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..100 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// Bandwidth transmit-time then bytes_in round-trips on exact
    /// boundaries.
    #[test]
    fn bandwidth_roundtrip(bytes in 1u64..1_000_000, gbps in 1u64..100) {
        let bw = Bandwidth::gbps(gbps);
        let t = bw.transmit_time(bytes);
        let back = bw.bytes_in(t);
        // Ceil rounding in transmit_time can add at most one byte-time.
        prop_assert!(back >= bytes && back <= bytes + 1, "bytes={} back={}", bytes, back);
    }
}
