//! Property-based tests of the engine's core invariants.

use diablo_engine::metrics::{
    HistogramSummary, Instrumented, MetricValue, MetricsRegistry, MetricsVisitor, PrefixedVisitor,
};
use diablo_engine::prelude::*;
use proptest::prelude::*;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// The metrics registry as it was before it became a name-sorted vector:
/// a `BTreeMap` keyed by full name, every metric an insert, every name a
/// `format!`, and the exporters that went with it. It is the reference the
/// vector-backed [`MetricsRegistry`] must agree with, byte for byte.
#[derive(Default)]
struct MapRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

struct MapVisitor<'a> {
    prefix: &'a str,
    metrics: &'a mut BTreeMap<String, MetricValue>,
}

impl MapVisitor<'_> {
    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }
}

impl MetricsVisitor for MapVisitor<'_> {
    fn counter(&mut self, name: &str, value: u64) {
        self.metrics.insert(self.full(name), MetricValue::Counter(value));
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(self.full(name), MetricValue::Gauge(value));
    }
    fn histogram(&mut self, name: &str, h: &Histogram) {
        self.metrics
            .insert(self.full(name), MetricValue::Histogram(Box::new(HistogramSummary::of(h))));
    }
}

impl MapRegistry {
    fn record(&mut self, prefix: &str, source: &dyn Instrumented) {
        source.visit_metrics(&mut MapVisitor { prefix, metrics: &mut self.metrics });
    }

    fn set_counter(&mut self, name: &str, value: u64) {
        self.metrics.insert(name.to_string(), MetricValue::Counter(value));
    }

    fn set_gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(value));
    }

    fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    fn sum_counters(&self, pattern: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| glob_match(pattern.as_bytes(), k.as_bytes()))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .fold(0u64, u64::saturating_add)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            let _ = write!(out, "  \"{}\": ", json_escape(name));
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => out.push_str(&json_f64(*g)),
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                        h.count,
                        h.min,
                        h.max,
                        json_f64(h.mean),
                        h.p50,
                        h.p90,
                        h.p99,
                        h.p999
                    );
                }
            }
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,value\n");
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name},counter,{c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name},gauge,{g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "{name},hist.count,{}", h.count);
                    let _ = writeln!(out, "{name},hist.min,{}", h.min);
                    let _ = writeln!(out, "{name},hist.max,{}", h.max);
                    let _ = writeln!(out, "{name},hist.mean,{}", h.mean);
                    let _ = writeln!(out, "{name},hist.p50,{}", h.p50);
                    let _ = writeln!(out, "{name},hist.p90,{}", h.p90);
                    let _ = writeln!(out, "{name},hist.p99,{}", h.p99);
                    let _ = writeln!(out, "{name},hist.p999,{}", h.p999);
                }
            }
        }
        out
    }
}

fn glob_match(pattern: &[u8], name: &[u8]) -> bool {
    match pattern.split_first() {
        None => name.is_empty(),
        Some((b'*', rest)) => {
            glob_match(rest, name) || (!name.is_empty() && glob_match(pattern, &name[1..]))
        }
        Some((&c, rest)) => {
            name.split_first().is_some_and(|(&n, nr)| n == c && glob_match(rest, nr))
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Component prefixes: pairs where one is a prefix of the other
/// (`rack1`/`rack10`/`rack1-x`, `rack1`/`rack1.tor`), uppercase, `-`, and
/// the empty prefix.
const PREFIXES: [&str; 12] = [
    "",
    "rack1",
    "rack10",
    "rack1-x",
    "rack1.tor",
    "rack1.server0",
    "rack1.server10",
    "rack2",
    "Rack1",
    "array0",
    "a",
    "a.b",
];

/// Local metric names, some of which nest, sort below `.` or need JSON
/// escaping.
const LOCAL_NAMES: [&str; 12] = [
    "tx_frames",
    "rx_frames",
    "port1.rx_frames",
    "port10.rx_frames",
    "a",
    "B",
    "x-y",
    "latency",
    "kernel.tcp.rtos",
    "z",
    "\"q\\",
    "tab\t",
];

/// Prefixes a component nests some metrics under, as the kernel nests
/// its NIC and processes; the empty one visits directly.
const NESTS: [&str; 5] = ["", "nic.", "proc1.", "proc10.", "kernel."];

/// One drawn metric: local name, nest, kind (counter, gauge,
/// histogram), and the raw draw its value is made from.
type DrawnMetric = (usize, usize, u64, u64);

/// A component whose metrics the test draws.
struct Drawn(Vec<DrawnMetric>);

fn drawn_gauge(raw: u64) -> f64 {
    match raw % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => (raw >> 3) as f64 / 8.0,
    }
}

fn drawn_histogram(raw: u64) -> Histogram {
    let mut h = Histogram::new();
    for i in 0..raw % 5 {
        h.record((raw >> (8 * i)) % 100_000);
    }
    h
}

fn visit_drawn(v: &mut dyn MetricsVisitor, name: &str, kind: u64, raw: u64) {
    match kind {
        0 => v.counter(name, raw),
        1 => v.gauge(name, drawn_gauge(raw)),
        _ => v.histogram(name, &drawn_histogram(raw)),
    }
}

impl Instrumented for Drawn {
    /// Each run of metrics under one nest goes through one
    /// [`PrefixedVisitor`], so its name buffer is reused.
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        for run in self.0.chunk_by(|a, b| a.1 == b.1) {
            let mut nested = PrefixedVisitor::new(v, NESTS[run[0].1]);
            for &(name, _, kind, raw) in run {
                visit_drawn(&mut nested, LOCAL_NAMES[name], kind, raw);
            }
        }
    }
}

/// The same component with every nested name spelled out, for the
/// reference registry.
struct Spelled<'a>(&'a Drawn);

impl Instrumented for Spelled<'_> {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        for &(name, nest, kind, raw) in &self.0 .0 {
            visit_drawn(v, &format!("{}{}", NESTS[nest], LOCAL_NAMES[name]), kind, raw);
        }
    }
}

/// The name `record(prefix, ..)` gives the local metric `local`.
fn full_name(prefix: &str, local: &str) -> String {
    if prefix.is_empty() {
        local.to_string()
    } else {
        format!("{prefix}.{local}")
    }
}

fn check_against_map(reg: &MetricsRegistry, map: &MapRegistry) -> Result<(), TestCaseError> {
    let listed = |it: &mut dyn Iterator<Item = (&str, &MetricValue)>| {
        it.map(|(k, v)| format!("{k} = {v:?}")).collect::<Vec<_>>()
    };
    prop_assert_eq!(
        listed(&mut reg.iter()),
        listed(&mut map.metrics.iter().map(|(k, v)| (k.as_str(), v)))
    );
    prop_assert_eq!(reg.len(), map.metrics.len());
    prop_assert_eq!(reg.is_empty(), map.metrics.is_empty());
    let mut names: Vec<String> = map.metrics.keys().cloned().collect();
    for prefix in PREFIXES {
        for local in LOCAL_NAMES {
            names.push(full_name(prefix, local));
        }
    }
    for name in &names {
        prop_assert_eq!(
            format!("{:?}", reg.get(name)),
            format!("{:?}", map.metrics.get(name)),
            "get({})",
            name
        );
        prop_assert_eq!(reg.counter(name), map.counter(name), "counter({})", name);
    }
    for pattern in ["*", "rack1*", "rack1.*", "*.tx_frames", "rack*.server*.*", "*-*", "a", ""] {
        prop_assert_eq!(reg.sum_counters(pattern), map.sum_counters(pattern), "{}", pattern);
    }
    prop_assert!(reg.to_json() == map.to_json(), "to_json differs");
    prop_assert!(reg.to_csv() == map.to_csv(), "to_csv differs");
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

    /// The vector-backed registry agrees with the `BTreeMap` one it
    /// replaced, on every query and on both exports byte for byte: after
    /// components recorded in any order under any prefixes (empty ones,
    /// ones that sort below `.`, names written twice in one component)
    /// and direct `set_counter`/`set_gauge` writes in between.
    #[test]
    fn registry_matches_map_reference(
        steps in proptest::collection::vec(
            (
                0u64..10,
                0usize..PREFIXES.len(),
                proptest::collection::vec(
                    (0usize..LOCAL_NAMES.len(), 0usize..NESTS.len(), 0u64..3, any::<u64>()),
                    0..10
                )
            ),
            0..14
        )
    ) {
        let (mut reg, mut map) = (MetricsRegistry::new(), MapRegistry::default());
        for (step, prefix, metrics) in steps {
            let prefix = PREFIXES[prefix];
            match (step, metrics.first()) {
                (8, Some(&(name, _, _, raw))) => {
                    let name = full_name(prefix, LOCAL_NAMES[name]);
                    reg.set_counter(&name, raw);
                    map.set_counter(&name, raw);
                }
                (9, Some(&(name, _, _, raw))) => {
                    let name = full_name(prefix, LOCAL_NAMES[name]);
                    reg.set_gauge(&name, drawn_gauge(raw));
                    map.set_gauge(&name, drawn_gauge(raw));
                }
                _ => {
                    let source = Drawn(metrics);
                    reg.record(prefix, &source);
                    map.record(prefix, &Spelled(&source));
                }
            }
            check_against_map(&reg, &map)?;
        }
    }
}
