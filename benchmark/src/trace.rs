//! Spans recorded by the benchmark's own code around each public call into
//! the simulator. Kept in memory and written out once, at exit. Nothing
//! inside the simulator is instrumented: a span's self time is the time the
//! callee spent that no child span accounts for.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval around a call into the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`run.full`, `driver.nic.tx_rx_ns`, …).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled [`Tracer::span`] only calls
/// the closure, so untraced repetitions pay nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between repetitions.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` whose parent is the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span for work that ran on another thread and was timed
    /// there: it ends now, lasts `duration_s`, and hangs off the innermost
    /// open span. Such spans may overlap their siblings.
    pub fn record_measured(&mut self, name: &str, duration_s: f64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: end_ns.saturating_sub((duration_s * 1e9) as u64),
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9).collect()
    }

    /// The spans as a JSON array, one object per line, each tagged with
    /// the workload the process ran.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}{}",
                s.name, s.start_ns, s.end_ns, parent, workload, sep
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of each span in nanoseconds: its duration minus the
/// durations of its direct children (children never overlap: the tracer
/// is used from one thread, and a span closes before its sibling opens).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("run.full", 0, 1_000, None),
            span("run.scrape_json", 600, 700, Some(0)),
            span("run.teardown", 700, 950, Some(0)),
            span("inner", 720, 800, Some(2)),
        ];
        // Grandchildren come off their parent only, not off the root.
        assert_eq!(self_times_ns(&spans), vec![650, 100, 170, 80]);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_has_one_object_per_span_with_the_five_fields() {
        let mut t = Tracer::new(true);
        t.span("run.probe", |t| t.span("run.teardown", |_| ()));
        let json = t.to_json("incast_tcp_fat16");
        let lines: Vec<&str> = json.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"run.probe\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"workload\":\"incast_tcp_fat16\""));
        for key in ["start_ns", "end_ns"] {
            assert!(lines[1].contains(key));
        }
    }
}
