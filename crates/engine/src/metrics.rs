//! Unified observability: metric scraping, time-series sampling, and the
//! cross-layer flight recorder.
//!
//! DIABLO's models are "fully instrumented" (§1): every simulated NIC,
//! switch and kernel carries performance counters. This module gives those
//! per-component counters one uniform surface:
//!
//! * [`Instrumented`] — implemented by every model that owns counters. A
//!   component exposes its metrics by visiting a [`MetricsVisitor`] with
//!   flat local names (`"tx_frames"`), and optionally contributes trace
//!   events to the flight recorder.
//! * [`MetricsRegistry`] — a scrape target. Recording a component under a
//!   prefix produces hierarchical names (`rack0.server3.nic.tx_frames`);
//!   the registry is one vector of `(name, value)` entries kept sorted by
//!   name, so two scrapes of identical model state serialize
//!   byte-identically — the property the determinism suite asserts across
//!   serial and partition-parallel runs. A scrape that records components
//!   in name order only appends: each component's run of entries is
//!   sorted on its own and lands after everything already stored (see
//!   [`MetricsRegistry`] for why name order is metric order, and for the
//!   merge that handles any other order).
//! * [`SeriesRecorder`] — periodic interval sampling of a registry at a
//!   configurable simulated-time cadence, so experiments can plot
//!   throughput or queue depth *over* simulated time rather than only
//!   end-of-run totals.
//! * [`FlightRecorder`] — merges per-component bounded trace rings (the
//!   kernel's execution trace, switch enqueue/drop events, NIC DMA
//!   events) into one time-ordered, bounded stream for cross-layer
//!   causality debugging.
//!
//! Exporters are hand-rolled (no serde in the dependency closure): JSON
//! via [`MetricsRegistry::to_json`], CSV via [`MetricsRegistry::to_csv`]
//! and [`SeriesRecorder::to_csv`].

use crate::stats::Histogram;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

// ====================================================================
// Visitor + trait
// ====================================================================

/// Receiver of one component's metrics during a scrape.
///
/// Component names are *local* ("tx_frames", "port1.drops"); the scraper
/// supplies the hierarchical prefix (see [`MetricsRegistry::record`] and
/// [`PrefixedVisitor`]).
pub trait MetricsVisitor {
    /// A monotonically increasing integer metric.
    fn counter(&mut self, name: &str, value: u64);
    /// An instantaneous floating-point metric (queue depth, occupancy).
    fn gauge(&mut self, name: &str, value: f64);
    /// A full latency/size distribution.
    fn histogram(&mut self, name: &str, h: &Histogram);
}

/// A model that exposes performance counters (and optionally trace
/// events) to the observability layer.
///
/// Implemented by every instrumentable component: switches, NICs, the
/// modeled kernel, applications, and the parallel executor's report.
pub trait Instrumented {
    /// Visit every metric this component owns, using local names.
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor);

    /// Drain a copy of this component's trace events for the flight
    /// recorder (empty unless tracing was enabled on the component).
    fn flight_records(&self) -> Vec<FlightRecord> {
        Vec::new()
    }
}

/// Adapter that prepends a prefix to every metric name before forwarding
/// to an inner visitor; used to nest one instrumented model inside
/// another (the kernel scrapes its NIC under `nic.`). The prefixed name
/// is built in one buffer that every metric reuses.
pub struct PrefixedVisitor<'a> {
    inner: &'a mut dyn MetricsVisitor,
    buf: String,
    prefix_len: usize,
}

impl<'a> PrefixedVisitor<'a> {
    /// Wraps `inner`, prepending `prefix` (include the trailing `.`).
    pub fn new(inner: &'a mut dyn MetricsVisitor, prefix: &'a str) -> Self {
        let mut buf = String::with_capacity(prefix.len() + 32);
        buf.push_str(prefix);
        PrefixedVisitor { inner, buf, prefix_len: prefix.len() }
    }

    /// Leaves `prefix` + `name` in the buffer.
    fn set_name(&mut self, name: &str) {
        self.buf.truncate(self.prefix_len);
        self.buf.push_str(name);
    }
}

impl MetricsVisitor for PrefixedVisitor<'_> {
    fn counter(&mut self, name: &str, value: u64) {
        self.set_name(name);
        self.inner.counter(&self.buf, value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.set_name(name);
        self.inner.gauge(&self.buf, value);
    }
    fn histogram(&mut self, name: &str, h: &Histogram) {
        self.set_name(name);
        self.inner.histogram(&self.buf, h);
    }
}

// ====================================================================
// Registry
// ====================================================================

/// Fixed-quantile summary of a [`Histogram`] captured at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// One scraped metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone integer counter.
    Counter(u64),
    /// Instantaneous float.
    Gauge(f64),
    /// Distribution summary. Boxed, so that a registry entry stays 40
    /// bytes: a large scrape holds about twelve counters per histogram.
    Histogram(Box<HistogramSummary>),
}

/// One registry entry: a full metric name and its value.
type Entry = (String, MetricValue);

/// An ordered collection of hierarchically named metrics, built by
/// scraping [`Instrumented`] components under per-component prefixes.
///
/// Iteration (and therefore every exporter) is in lexicographic name
/// order, so registries built from identical model state are equal and
/// serialize byte-identically regardless of scrape order or executor.
///
/// The registry is one vector of `(full name, value)` entries, sorted by
/// name, with no name twice; lookups binary-search it. [`record`] appends
/// the component's metrics (each full name allocated once), sorts just
/// that run, and is done if the run sorts after every entry already
/// stored. That is the case whenever components are recorded in the
/// order of their prefixes, no prefix is another one followed by `.`,
/// and prefixes use only characters above `.` (letters, digits, `_`):
/// then `"rack1"` < `"rack10"` implies `"rack1.x"` < `"rack10.y"`,
/// because `.` sorts below every character that can follow `rack1` in
/// another prefix. `Cluster::scrape` records that way, so a whole-cluster
/// scrape only appends. Otherwise (a prefix with `-` or another character
/// below `.`, a prefix that is another one plus a dot, components in any
/// other order, or one name written twice) the run is merged into the
/// entries, and where a name is written more than once the last write
/// wins.
///
/// [`record`]: MetricsRegistry::record
///
/// # Examples
///
/// ```
/// use diablo_engine::metrics::{Instrumented, MetricsRegistry, MetricsVisitor};
///
/// struct Dev { frames: u64 }
/// impl Instrumented for Dev {
///     fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
///         v.counter("tx_frames", self.frames);
///     }
/// }
///
/// let mut reg = MetricsRegistry::new();
/// reg.record("rack0.server3.nic", &Dev { frames: 7 });
/// assert_eq!(reg.counter("rack0.server3.nic.tx_frames"), Some(7));
/// assert_eq!(reg.sum_counters("rack*.server*.nic.tx_frames"), 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Entry>,
}

/// Appends each visited metric under `prefix.` to the registry's vector.
struct RegistryVisitor<'a> {
    prefix: &'a str,
    metrics: &'a mut Vec<Entry>,
}

impl RegistryVisitor<'_> {
    fn push(&mut self, name: &str, value: MetricValue) {
        let mut full = String::with_capacity(self.prefix.len() + 1 + name.len());
        if !self.prefix.is_empty() {
            full.push_str(self.prefix);
            full.push('.');
        }
        full.push_str(name);
        self.metrics.push((full, value));
    }
}

impl MetricsVisitor for RegistryVisitor<'_> {
    fn counter(&mut self, name: &str, value: u64) {
        self.push(name, MetricValue::Counter(value));
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.push(name, MetricValue::Gauge(value));
    }
    fn histogram(&mut self, name: &str, h: &Histogram) {
        self.push(name, MetricValue::Histogram(Box::new(HistogramSummary::of(h))));
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scrapes `source`, storing every metric under `prefix.`
    /// (an empty prefix stores local names unqualified).
    pub fn record(&mut self, prefix: &str, source: &dyn Instrumented) {
        let start = self.metrics.len();
        source.visit_metrics(&mut RegistryVisitor { prefix, metrics: &mut self.metrics });
        // Stable, so two writes of one name stay in write order for the merge.
        self.metrics[start..].sort_by(|a, b| a.0.cmp(&b.0));
        let sorted = self.metrics[start.saturating_sub(1)..].windows(2).all(|w| w[0].0 < w[1].0);
        if !sorted {
            let run = self.metrics.split_off(start);
            self.metrics = merge_last_wins(std::mem::take(&mut self.metrics), run);
        }
    }

    /// Inserts a counter directly (for host-level metrics with no
    /// `Instrumented` carrier).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.set(name, MetricValue::Counter(value));
    }

    /// Inserts a gauge directly.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.set(name, MetricValue::Gauge(value));
    }

    fn set(&mut self, name: &str, value: MetricValue) {
        match self.find(name) {
            Ok(i) => self.metrics[i].1 = value,
            Err(i) => self.metrics.insert(i, (name.to_string(), value)),
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.metrics.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when nothing has been scraped.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks up one metric by full name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.find(name).ok().map(|i| &self.metrics[i].1)
    }

    /// The value of a counter metric, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sums every counter whose name matches `pattern` (`*` matches any
    /// run of characters, including dots).
    pub fn sum_counters(&self, pattern: &str) -> u64 {
        self.iter()
            .filter(|(k, _)| glob_match(pattern.as_bytes(), k.as_bytes()))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .fold(0u64, u64::saturating_add)
    }

    /// Serializes the registry as one flat JSON object: counters and
    /// gauges as numbers, histograms as summary objects. Deterministic:
    /// keys in lexicographic order, shortest-roundtrip float formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len() + 4);
        out.push_str("{\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            out.push_str("  \"");
            push_json_escaped(&mut out, name);
            out.push_str("\": ");
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => push_json_f64(&mut out, *g),
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":",
                        h.count, h.min, h.max
                    );
                    push_json_f64(&mut out, h.mean);
                    let _ = write!(
                        out,
                        ",\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                        h.p50, h.p90, h.p99, h.p999
                    );
                }
            }
            if i + 1 < self.metrics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Serializes the registry as CSV with a `name,kind,value` header.
    /// Histograms expand into one row per summary field.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len() + 16);
        out.push_str("name,kind,value\n");
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

/// Merges `new` (sorted, stably) into `old` (sorted, no name twice).
/// Where a name is written more than once, the entry written last wins.
fn merge_last_wins(old: Vec<Entry>, new: Vec<Entry>) -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::with_capacity(old.len() + new.len());
    let (mut old, mut new) = (old.into_iter().peekable(), new.into_iter().peekable());
    loop {
        // On a tie the older entry goes first, so the newer replaces it.
        let take_old = match (old.peek(), new.peek()) {
            (Some(o), Some(n)) => o.0 <= n.0,
            (o, _) => o.is_some(),
        };
        let Some(e) = (if take_old { old.next() } else { new.next() }) else { break };
        match out.last_mut() {
            Some(last) if last.0 == e.0 => last.1 = e.1,
            _ => out.push(e),
        }
    }
    out
}

/// `*`-wildcard matcher (no character classes; `*` spans dots).
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

/// Appends `s` to `out` as the inside of a JSON string.
fn push_json_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// Appends a JSON-safe float: non-finite values become `null`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

// ====================================================================
// Time series
// ====================================================================

/// Periodic samples of registry metrics over simulated time.
///
/// Each [`SeriesRecorder::sample`] call appends one `(time, value)` point
/// per counter/gauge in the scraped registry (histogram summaries
/// contribute their sample count), building per-metric time series at
/// whatever cadence the caller drives — the experiment harness samples at
/// a configurable simulated-time interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRecorder {
    points: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl SeriesRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample point per metric in `reg`, stamped `at`.
    pub fn sample(&mut self, at: SimTime, reg: &MetricsRegistry) {
        for (name, value) in reg.iter() {
            let v = match value {
                MetricValue::Counter(c) => *c as f64,
                MetricValue::Gauge(g) => *g,
                MetricValue::Histogram(h) => h.count as f64,
            };
            match self.points.get_mut(name) {
                Some(series) => series.push((at, v)),
                None => {
                    self.points.insert(name.to_string(), vec![(at, v)]);
                }
            }
        }
    }

    /// Number of distinct metric series.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sample points of one metric, oldest first.
    pub fn series(&self, name: &str) -> Option<&[(SimTime, f64)]> {
        self.points.get(name).map(|v| v.as_slice())
    }

    /// Metric names in lexicographic order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.points.keys().map(|k| k.as_str())
    }

    /// Per-interval increments of one metric: for each adjacent pair of
    /// samples, the interval's end time and the value change across it.
    /// Turns a cumulative counter series (`slo.completed`,
    /// `open_loop.offered`) into a rate-shaped series — the
    /// offered-vs-completed comparison an overload sweep plots. Returns
    /// `None` for an unknown metric; a series with fewer than two samples
    /// yields an empty vector.
    ///
    /// Counters are monotone within one component lifetime but reset to
    /// zero when the component is rebuilt (a node crash/reboot mid-run),
    /// so a raw difference across the reset would go negative; intervals
    /// spanning a reset saturate at zero instead.
    pub fn deltas(&self, name: &str) -> Option<Vec<(SimTime, f64)>> {
        let points = self.points.get(name)?;
        Some(points.windows(2).map(|w| (w[1].0, (w[1].1 - w[0].1).max(0.0))).collect())
    }

    /// Serializes all series as CSV with a `time_ps,name,value` header,
    /// ordered by metric name then time.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ps,name,value\n");
        for (name, points) in &self.points {
            for (at, v) in points {
                let _ = writeln!(out, "{},{name},{v}", at.as_picos());
            }
        }
        out
    }
}

// ====================================================================
// Flight recorder
// ====================================================================

/// One trace event inside a single component, in that component's local
/// stream. `kind` identifies the event class (`"syscall"`,
/// `"sw_enqueue"`, `"nic_dma_tx"`, ...), `detail` an optional static
/// qualifier (the syscall name, a drop reason), and `a`/`b` carry
/// event-specific operands (thread id, port number, byte count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// When the event happened.
    pub at: SimTime,
    /// Event class.
    pub kind: &'static str,
    /// Optional qualifier (empty when unused).
    pub detail: &'static str,
    /// First operand (meaning depends on `kind`).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

impl FlightRecord {
    /// Convenience constructor with an empty detail.
    pub fn new(at: SimTime, kind: &'static str, a: u64, b: u64) -> Self {
        FlightRecord { at, kind, detail: "", a, b }
    }
}

/// A bounded ring of [`FlightRecord`]s: the newest `cap` records are
/// kept, older ones are evicted (counted in [`FlightRing::dropped`]).
/// Components embed one of these per trace stream, enabled on demand.
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    cap: usize,
    records: VecDeque<FlightRecord>,
    dropped: u64,
}

impl FlightRing {
    /// Creates a ring keeping the most recent `cap` records (min 1).
    pub fn new(cap: usize) -> Self {
        FlightRing { cap: cap.max(1), records: VecDeque::new(), dropped: 0 }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, r: FlightRecord) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.records.push_back(r);
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.records.iter().copied().collect()
    }

    /// Records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most records the ring retains.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A [`FlightRecord`] attributed to its source component, in the merged
/// cross-layer stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Hierarchical name of the component that recorded it.
    pub source: String,
    /// Event class.
    pub kind: &'static str,
    /// Optional qualifier.
    pub detail: &'static str,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// Merges per-component trace streams into one time-ordered, bounded
/// cross-layer stream: kernel scheduling events interleaved with switch
/// enqueues/drops and NIC DMA activity, exactly as they happened in
/// simulated time.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    events: Vec<FlightEvent>,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one component's records under its hierarchical `source` name.
    pub fn add_source(&mut self, source: &str, records: impl IntoIterator<Item = FlightRecord>) {
        for r in records {
            self.events.push(FlightEvent {
                at: r.at,
                source: source.to_string(),
                kind: r.kind,
                detail: r.detail,
                a: r.a,
                b: r.b,
            });
        }
    }

    /// Finishes the merge: events sorted by `(time, source)` (stable, so
    /// each source's internal order is preserved), truncated to the most
    /// recent `cap` events.
    pub fn finish(mut self, cap: usize) -> Vec<FlightEvent> {
        self.events.sort_by(|x, y| (x.at, x.source.as_str()).cmp(&(y.at, y.source.as_str())));
        let n = self.events.len();
        if n > cap {
            self.events.drain(..n - cap);
        }
        self.events
    }
}

/// Serializes a merged flight recording as CSV with a
/// `time_ps,source,kind,detail,a,b` header.
pub fn flight_to_csv(events: &[FlightEvent]) -> String {
    let mut out = String::from("time_ps,source,kind,detail,a,b\n");
    for e in events {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            e.at.as_picos(),
            e.source,
            e.kind,
            e.detail,
            e.a,
            e.b
        );
    }
    out
}

impl Instrumented for crate::stats::ExecReport {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("lookahead_ps", self.lookahead_ps);
        v.counter("events", self.events());
        v.counter("rounds", self.rounds());
        v.gauge("events_per_round", self.events_per_round());
        v.counter("barrier_wait_ns", self.barrier_wait_ns());
        v.counter("lane_events", self.lane_events());
        v.counter("dispatch_batches", self.dispatch_batches());
        v.counter("workers", self.workers.len() as u64);
        v.counter("workers_requested", self.workers_requested as u64);
        v.counter("partitions", self.partitions.len() as u64);
    }
}

crate::impl_snap_struct!(SeriesRecorder { points });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Dev {
        frames: u64,
        depth: f64,
        lat: Histogram,
    }

    impl Instrumented for Dev {
        fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
            v.counter("tx_frames", self.frames);
            v.gauge("queue_depth", self.depth);
            v.histogram("latency", &self.lat);
        }
    }

    fn dev(frames: u64) -> Dev {
        let mut lat = Histogram::new();
        for i in 1..=100 {
            lat.record(i * 10);
        }
        Dev { frames, depth: 2.5, lat }
    }

    #[test]
    fn registry_builds_hierarchical_names() {
        let mut reg = MetricsRegistry::new();
        reg.record("rack0.server3.nic", &dev(42));
        assert_eq!(reg.counter("rack0.server3.nic.tx_frames"), Some(42));
        assert!(matches!(
            reg.get("rack0.server3.nic.queue_depth"),
            Some(MetricValue::Gauge(g)) if *g == 2.5
        ));
        let MetricValue::Histogram(h) = reg.get("rack0.server3.nic.latency").unwrap() else {
            panic!("histogram missing");
        };
        assert_eq!(h.count, 100);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn glob_sums_counters() {
        let mut reg = MetricsRegistry::new();
        reg.record("rack0.server0.nic", &dev(5));
        reg.record("rack0.server1.nic", &dev(7));
        reg.record("rack1.server0.nic", &dev(11));
        assert_eq!(reg.sum_counters("rack*.server*.nic.tx_frames"), 23);
        assert_eq!(reg.sum_counters("rack0.*.tx_frames"), 12);
        assert_eq!(reg.sum_counters("nomatch.*"), 0);
        // Gauges and histograms are not counted.
        assert_eq!(reg.sum_counters("rack*.server*.nic.queue_depth"), 0);
    }

    #[test]
    fn exports_are_deterministic_and_ordered() {
        let build = |order_flip: bool| {
            let mut reg = MetricsRegistry::new();
            if order_flip {
                reg.record("b", &dev(2));
                reg.record("a", &dev(1));
            } else {
                reg.record("a", &dev(1));
                reg.record("b", &dev(2));
            }
            reg
        };
        let (x, y) = (build(false), build(true));
        assert_eq!(x, y);
        assert_eq!(x.to_json(), y.to_json());
        assert_eq!(x.to_csv(), y.to_csv());
        let json = x.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"a.tx_frames\": 1"));
        assert!(json.contains("\"count\":100"));
        // Name order in the serialization.
        assert!(json.find("\"a.latency\"").unwrap() < json.find("\"b.latency\"").unwrap());
        assert!(x.to_csv().starts_with("name,kind,value\n"));
    }

    #[test]
    fn json_handles_non_finite_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("bad", f64::NAN);
        assert!(reg.to_json().contains("\"bad\": null"));
    }

    #[test]
    fn series_recorder_accumulates_points() {
        let mut rec = SeriesRecorder::new();
        for step in 1..=3u64 {
            let mut reg = MetricsRegistry::new();
            reg.record("n", &dev(step * 10));
            rec.sample(SimTime::from_micros(step), &reg);
        }
        assert_eq!(rec.len(), 3, "later samples of the same metrics create no series");
        let pts = rec.series("n.tx_frames").unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], (SimTime::from_micros(3), 30.0));
        let csv = rec.to_csv();
        assert!(csv.starts_with("time_ps,name,value\n"));
        assert!(csv.contains("n.tx_frames"));
    }

    #[test]
    fn series_recorder_deltas_turn_counters_into_rates() {
        let mut rec = SeriesRecorder::new();
        for (step, total) in [(1u64, 5u64), (2, 5), (3, 20)] {
            let mut reg = MetricsRegistry::new();
            reg.set_counter("done", total);
            rec.sample(SimTime::from_micros(step), &reg);
        }
        let d = rec.deltas("done").unwrap();
        assert_eq!(
            d,
            vec![(SimTime::from_micros(2), 0.0), (SimTime::from_micros(3), 15.0)],
            "each interval carries its end time and the change across it"
        );
        assert!(rec.deltas("missing").is_none());
        let mut single = SeriesRecorder::new();
        let mut reg = MetricsRegistry::new();
        reg.set_counter("done", 1);
        single.sample(SimTime::from_micros(1), &reg);
        assert_eq!(single.deltas("done").unwrap(), vec![]);
    }

    #[test]
    fn flight_ring_bounds_and_counts_evictions() {
        let mut ring = FlightRing::new(3);
        for i in 0..5u64 {
            ring.push(FlightRecord::new(SimTime::from_nanos(i), "ev", i, 0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let recs = ring.records();
        assert_eq!(recs[0].a, 2, "oldest retained record");
        assert_eq!(recs[2].a, 4);
    }

    #[test]
    fn flight_recorder_merges_time_ordered_and_bounded() {
        let mut rec = FlightRecorder::new();
        rec.add_source(
            "rack0.server0",
            [
                FlightRecord::new(SimTime::from_nanos(10), "syscall", 0, 0),
                FlightRecord::new(SimTime::from_nanos(30), "softirq", 2, 0),
            ],
        );
        rec.add_source(
            "tor0",
            [
                FlightRecord::new(SimTime::from_nanos(20), "sw_enqueue", 1, 64),
                FlightRecord::new(SimTime::from_nanos(10), "sw_drop", 1, 0),
            ],
        );
        let merged = rec.clone().finish(100);
        assert_eq!(merged.len(), 4);
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
        // Equal timestamps order by source name: the server before the ToR.
        assert_eq!(merged[0].source, "rack0.server0");
        assert_eq!(merged[1].source, "tor0");
        // Bounded: keeps the most recent events.
        let bounded = rec.finish(2);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded[1].at, SimTime::from_nanos(30));
        let csv = flight_to_csv(&bounded);
        assert!(csv.starts_with("time_ps,source,kind,detail,a,b\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn prefixed_visitor_nests() {
        struct Outer(Dev);
        impl Instrumented for Outer {
            fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
                v.counter("outer_events", 1);
                let mut nested = PrefixedVisitor::new(v, "nic.");
                self.0.visit_metrics(&mut nested);
            }
        }
        let mut reg = MetricsRegistry::new();
        reg.record("rack0.server0", &Outer(dev(9)));
        assert_eq!(reg.counter("rack0.server0.outer_events"), Some(1));
        assert_eq!(reg.counter("rack0.server0.nic.tx_frames"), Some(9));
        let _ = SimDuration::ZERO; // silence unused-import lint paths
    }
}
