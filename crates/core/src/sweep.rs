//! The parallel sweep orchestrator: run a grid of experiment points
//! over OS threads, each optionally seeded from one shared warmed
//! checkpoint, with resumable progress and a single merged results
//! table.
//!
//! A [`SweepSpec`] is parsed from a small line-oriented text format in
//! the same family as the fault-plan and arrival-spec grammars:
//!
//! ```text
//! # memcached protocol/kernel grid, warmed 2 ms in
//! scenario memcached
//! warm 2ms
//! jobs 4
//! set --racks 2
//! set --requests 60
//! axis --proto = udp, tcp
//! axis --kernel = 2.6, 3.5
//! ```
//!
//! Directives: `scenario <name>` (required, once) names the workload;
//! `warm <duration>` (optional) asks the engine to write one shared
//! checkpoint at that simulated instant before fanning out; `jobs <n>`
//! (optional) sets the default worker-thread count; `set <flag>
//! [value]` fixes an option for every point; `axis <flag> = v1, v2, …`
//! sweeps one (at least one axis is required). Durations accept `ns`,
//! `us`, `ms`, and `s` suffixes; `#` starts a comment. The grid is the
//! cartesian product of the axes, first axis outermost, and
//! [`SweepSpec`] implements a canonical [`Display`](core::fmt::Display)
//! whose output reparses to an equal spec.
//!
//! The [`SweepEngine`] owns execution: it fans the points over a pool
//! of OS threads (each point is its own full simulation, so points are
//! embarrassingly parallel), records every finished point in a progress
//! file keyed by a digest of the spec (rerunning the same sweep after
//! an interruption re-runs only the missing points; editing the spec
//! invalidates the old progress), and merges everything into one
//! [`SweepTable`] in grid order. A failing point records its error in
//! its row; the engine keeps going.
//!
//! The engine is workload-agnostic: callers implement [`SweepRunner`]
//! (warm the shared checkpoint, run one point) and the front end maps
//! axis flags onto its own configuration — see `wsc_sim sweep`.

use crate::snapshot::fingerprint;
use diablo_engine::time::{spec_lines, SimDuration};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// ====================================================================
// Errors
// ====================================================================

/// Why a sweep spec failed to parse or a sweep failed to run.
#[derive(Debug)]
pub enum SweepError {
    /// A line of the spec text did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The spec parsed line-by-line but is not a runnable sweep
    /// (missing scenario, no axes, …) or the engine was misconfigured
    /// (a `warm` directive without a checkpoint path).
    Invalid(String),
    /// Filesystem failure on the progress file or checkpoint path.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The shared warm-up run failed, so no point could be seeded.
    Warm(String),
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SweepError::Parse { line, msg } => write!(f, "sweep spec line {line}: {msg}"),
            SweepError::Invalid(msg) => write!(f, "sweep spec: {msg}"),
            SweepError::Io { path, error } => write!(f, "sweep: `{path}`: {error}"),
            SweepError::Warm(msg) => write!(f, "sweep warm-up failed: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

// ====================================================================
// The spec
// ====================================================================

/// One swept flag and the values its column takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    /// The CLI flag (e.g. `--proto`).
    pub key: String,
    /// The values to sweep, in file order.
    pub values: Vec<String>,
}

/// A parsed sweep grid: scenario, optional warm instant, fixed options,
/// and the swept axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The workload/subcommand every point runs.
    pub scenario: String,
    /// When set, warm one shared checkpoint at this simulated instant
    /// and seed every point from it.
    pub warm: Option<SimDuration>,
    /// Default worker-thread count (`jobs` directive).
    pub jobs: Option<usize>,
    /// Options applied to every point: `(flag, value)`, value `None`
    /// for bare flags.
    pub fixed: Vec<(String, Option<String>)>,
    /// The swept axes, first axis outermost in the grid.
    pub axes: Vec<SweepAxis>,
}

/// One cell assignment of the grid: the point's index in grid order and
/// its `(flag, value)` pair per axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Position in grid order (first axis outermost).
    pub index: usize,
    /// One `(axis flag, value)` pair per axis, in axis order.
    pub cells: Vec<(String, String)>,
}

impl SweepSpec {
    /// Parses the text format described in the module docs.
    ///
    /// # Errors
    ///
    /// [`SweepError::Parse`] naming the offending line,
    /// [`SweepError::Invalid`] when the lines parse but do not make a
    /// runnable sweep.
    pub fn parse(text: &str) -> Result<SweepSpec, SweepError> {
        let mut scenario: Option<String> = None;
        let mut warm: Option<SimDuration> = None;
        let mut jobs: Option<usize> = None;
        let mut fixed: Vec<(String, Option<String>)> = Vec::new();
        let mut axes: Vec<SweepAxis> = Vec::new();
        for (line, body) in spec_lines(text) {
            let err = |msg: String| SweepError::Parse { line, msg };
            let (head, rest) = match body.split_once(char::is_whitespace) {
                Some((h, r)) => (h, r.trim()),
                None => (body, ""),
            };
            match head {
                "scenario" => {
                    if scenario.is_some() {
                        return Err(err("duplicate `scenario` directive".into()));
                    }
                    if rest.is_empty() || rest.split_whitespace().count() != 1 {
                        return Err(err("expected `scenario <name>`".into()));
                    }
                    scenario = Some(rest.to_string());
                }
                "warm" => {
                    if warm.is_some() {
                        return Err(err("duplicate `warm` directive".into()));
                    }
                    warm = Some(rest.parse().map_err(err)?);
                }
                "jobs" => {
                    if jobs.is_some() {
                        return Err(err("duplicate `jobs` directive".into()));
                    }
                    let n: usize =
                        rest.parse().map_err(|_| err(format!("bad jobs count `{rest}`")))?;
                    if n == 0 {
                        return Err(err("jobs must be at least 1".into()));
                    }
                    jobs = Some(n);
                }
                "set" => {
                    let mut toks = rest.split_whitespace();
                    let Some(key) = toks.next() else {
                        return Err(err("expected `set <flag> [value]`".into()));
                    };
                    let value = toks.next().map(str::to_string);
                    if toks.next().is_some() {
                        return Err(err(format!("`set {key}` takes at most one value")));
                    }
                    fixed.push((key.to_string(), value));
                }
                "axis" => {
                    let Some((key, vals)) = rest.split_once('=') else {
                        return Err(err("expected `axis <flag> = v1, v2, ...`".into()));
                    };
                    let key = key.trim();
                    if key.is_empty() || key.split_whitespace().count() != 1 {
                        return Err(err("axis flag must be a single token".into()));
                    }
                    if axes.iter().any(|a| a.key == key) {
                        return Err(err(format!("duplicate axis `{key}`")));
                    }
                    let values: Vec<String> = vals
                        .split(',')
                        .map(str::trim)
                        .filter(|v| !v.is_empty())
                        .map(str::to_string)
                        .collect();
                    if values.is_empty() {
                        return Err(err(format!("axis `{key}` has no values")));
                    }
                    for v in &values {
                        if v.split_whitespace().count() != 1 {
                            return Err(err(format!("axis value `{v}` must be a single token")));
                        }
                    }
                    axes.push(SweepAxis { key: key.to_string(), values });
                }
                other => {
                    return Err(err(format!(
                        "unknown directive `{other}` (expected scenario/warm/jobs/set/axis)"
                    )));
                }
            }
        }
        let Some(scenario) = scenario else {
            return Err(SweepError::Invalid("missing `scenario` directive".into()));
        };
        if axes.is_empty() {
            return Err(SweepError::Invalid("a sweep needs at least one `axis`".into()));
        }
        Ok(SweepSpec { scenario, warm, jobs, fixed, axes })
    }

    /// Every grid point, in grid order: the cartesian product of the
    /// axes with the first axis outermost.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut grids: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for ax in &self.axes {
            let mut next = Vec::with_capacity(grids.len() * ax.values.len());
            for prefix in &grids {
                for v in &ax.values {
                    let mut cells = prefix.clone();
                    cells.push((ax.key.clone(), v.clone()));
                    next.push(cells);
                }
            }
            grids = next;
        }
        grids.into_iter().enumerate().map(|(index, cells)| SweepPoint { index, cells }).collect()
    }

    /// The full CLI argument vector for one point: the fixed options
    /// followed by the point's axis assignments.
    pub fn point_args(&self, point: &SweepPoint) -> Vec<String> {
        let mut args = Vec::new();
        for (k, v) in &self.fixed {
            args.push(k.clone());
            if let Some(v) = v {
                args.push(v.clone());
            }
        }
        for (k, v) in &point.cells {
            args.push(k.clone());
            args.push(v.clone());
        }
        args
    }

    /// The warm-leg CLI argument vector: the fixed options only (axes
    /// take their scenario defaults during warm-up — the checkpoint
    /// must not bake any swept knob in).
    pub fn warm_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        for (k, v) in &self.fixed {
            args.push(k.clone());
            if let Some(v) = v {
                args.push(v.clone());
            }
        }
        args
    }

    /// Stable digest of the canonical spec text, used to key progress
    /// lines: editing the spec orphans old progress instead of
    /// resuming the wrong grid.
    pub fn digest(&self) -> u64 {
        fingerprint([self.to_string()])
    }
}

impl core::fmt::Display for SweepSpec {
    /// Canonical text whose reparse equals the spec (durations in
    /// nanoseconds).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "scenario {}", self.scenario)?;
        if let Some(w) = self.warm {
            writeln!(f, "warm {}ns", w.as_nanos())?;
        }
        if let Some(j) = self.jobs {
            writeln!(f, "jobs {j}")?;
        }
        for (k, v) in &self.fixed {
            match v {
                Some(v) => writeln!(f, "set {k} {v}")?,
                None => writeln!(f, "set {k}")?,
            }
        }
        for ax in &self.axes {
            writeln!(f, "axis {} = {}", ax.key, ax.values.join(", "))?;
        }
        Ok(())
    }
}

// ====================================================================
// The runner contract
// ====================================================================

/// What the sweep engine asks of a front end: warm the shared
/// checkpoint once, then run individual points (in parallel, so
/// implementations must be [`Sync`]).
pub trait SweepRunner: Sync {
    /// Runs the scenario's warm-up prefix to simulated instant `at`
    /// and writes the shared checkpoint to `path`. Called at most once
    /// per sweep, before any point runs, and only when the spec has a
    /// `warm` directive and no checkpoint already exists at `path`.
    ///
    /// # Errors
    ///
    /// A human-readable description; it aborts the whole sweep.
    fn warm(&self, at: SimDuration, path: &Path) -> Result<(), String>;

    /// Runs one grid point — restoring `warm` first when given — and
    /// returns its result columns as `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// A human-readable description; it is recorded in the point's row
    /// and the sweep continues.
    fn run_point(
        &self,
        point: &SweepPoint,
        warm: Option<&Path>,
    ) -> Result<Vec<(String, String)>, String>;
}

// ====================================================================
// Progress persistence
// ====================================================================

/// One finished point's outcome, as carried in memory and in the
/// progress file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PointOutcome {
    Ok(Vec<(String, String)>),
    Err(String),
}

/// Serializes one progress line:
/// `digest \t index \t ok \t k=v \t k=v …` (or `… \t err \t message`).
fn progress_line(digest: u64, index: usize, outcome: &PointOutcome) -> String {
    let mut line = format!("{digest:016x}\t{index}");
    match outcome {
        PointOutcome::Ok(cells) => {
            line.push_str("\tok");
            for (k, v) in cells {
                line.push('\t');
                line.push_str(&format!("{k}={v}"));
            }
        }
        PointOutcome::Err(msg) => {
            line.push_str("\terr\t");
            // Keep the record one line; tabs are the field separator.
            line.push_str(&msg.replace('\n', "\\n").replace('\t', " "));
        }
    }
    line.push('\n');
    line
}

/// Parses a progress file, keeping only lines stamped with `digest`
/// (stale lines from an edited spec are ignored, as is any malformed
/// line — progress is a cache, not a source of truth).
fn parse_progress(text: &str, digest: u64) -> HashMap<usize, PointOutcome> {
    let mut done = HashMap::new();
    let want = format!("{digest:016x}");
    for line in text.lines() {
        let mut fields = line.split('\t');
        if fields.next() != Some(want.as_str()) {
            continue;
        }
        let Some(Ok(index)) = fields.next().map(str::parse::<usize>) else { continue };
        match fields.next() {
            Some("ok") => {
                let cells = fields
                    .filter_map(|f| f.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                done.insert(index, PointOutcome::Ok(cells));
            }
            Some("err") => {
                let msg = fields.next().unwrap_or("unknown error").to_string();
                done.insert(index, PointOutcome::Err(msg));
            }
            _ => {}
        }
    }
    done
}

// ====================================================================
// The merged results table
// ====================================================================

/// The sweep's single merged results table: one row per grid point in
/// grid order, axis columns first, then the union of every point's
/// result columns (and an `error` column when any point failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepTable {
    /// Column headers.
    pub columns: Vec<String>,
    /// One row per grid point, cells aligned with `columns` (empty
    /// string where a point produced no value for a column).
    pub rows: Vec<Vec<String>>,
}

impl SweepTable {
    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.columns);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as tab-separated values (one header line).
    pub fn to_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// What a finished sweep reports alongside its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// The merged results table, one row per grid point.
    pub table: SweepTable,
    /// Points executed by this invocation.
    pub ran: usize,
    /// Points taken from the progress file instead of re-run.
    pub resumed: usize,
    /// Points (from either source) that ended in an error row.
    pub failed: usize,
}

// ====================================================================
// The engine
// ====================================================================

/// Drives a [`SweepSpec`] through a [`SweepRunner`]: shared warm-up,
/// thread-pool fan-out, resumable progress, merged table. See the
/// module docs.
pub struct SweepEngine<'a, R: SweepRunner> {
    spec: &'a SweepSpec,
    runner: &'a R,
    jobs: Option<usize>,
    progress: Option<PathBuf>,
    warm_path: Option<PathBuf>,
}

impl<'a, R: SweepRunner> SweepEngine<'a, R> {
    /// Creates an engine over a parsed spec and a front-end runner.
    pub fn new(spec: &'a SweepSpec, runner: &'a R) -> Self {
        SweepEngine { spec, runner, jobs: None, progress: None, warm_path: None }
    }

    /// Overrides the worker-thread count (beats the spec's `jobs`
    /// directive; default 1 when neither is given).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Records finished points in (and resumes from) this file.
    pub fn progress_file(mut self, path: PathBuf) -> Self {
        self.progress = Some(path);
        self
    }

    /// Where the shared warm checkpoint lives. Required when the spec
    /// has a `warm` directive; an existing file there is reused
    /// (resume) instead of re-warmed.
    pub fn warm_checkpoint(mut self, path: PathBuf) -> Self {
        self.warm_path = Some(path);
        self
    }

    /// Runs the sweep to completion and merges the results.
    ///
    /// Individual point failures do **not** abort the run — they land
    /// in the table's `error` column and in
    /// [`SweepOutcome::failed`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] on a `warm` directive without a
    /// checkpoint path, [`SweepError::Warm`] when the shared warm-up
    /// run fails, [`SweepError::Io`] on progress-file failures.
    pub fn run(&self) -> Result<SweepOutcome, SweepError> {
        let points = self.spec.points();
        let digest = self.spec.digest();

        // Resume: load prior outcomes for this exact spec.
        let mut done: HashMap<usize, PointOutcome> = HashMap::new();
        if let Some(path) = &self.progress {
            match std::fs::read_to_string(path) {
                Ok(text) => done = parse_progress(&text, digest),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(error) => {
                    return Err(SweepError::Io { path: path.display().to_string(), error })
                }
            }
            done.retain(|idx, _| *idx < points.len());
        }
        let resumed = done.len();

        // Warm the shared checkpoint once (reusing a file left by an
        // interrupted invocation) before any point runs.
        let warm_path: Option<&Path> = match (self.spec.warm, &self.warm_path) {
            (None, _) => None,
            (Some(_), None) => {
                return Err(SweepError::Invalid(
                    "the spec has a `warm` directive but no checkpoint path was configured".into(),
                ));
            }
            (Some(at), Some(path)) => {
                if done.len() < points.len() && !path.exists() {
                    self.runner.warm(at, path).map_err(SweepError::Warm)?;
                }
                Some(path.as_path())
            }
        };

        // Fan the pending points over the worker pool. Each point is an
        // independent simulation, so a bare work-stealing index is all
        // the coordination the pool needs.
        let pending: Vec<&SweepPoint> =
            points.iter().filter(|p| !done.contains_key(&p.index)).collect();
        let fresh: Mutex<Vec<(usize, PointOutcome)>> = Mutex::new(Vec::new());
        let progress_sink: Option<Mutex<std::fs::File>> =
            match &self.progress {
                Some(path) => Some(Mutex::new(
                    std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                        |error| SweepError::Io { path: path.display().to_string(), error },
                    )?,
                )),
                None => None,
            };
        let next = AtomicUsize::new(0);
        let workers = self.jobs.or(self.spec.jobs).unwrap_or(1).min(pending.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = pending.get(i) else { break };
                    let outcome = match self.runner.run_point(point, warm_path) {
                        Ok(cells) => PointOutcome::Ok(cells),
                        Err(msg) => PointOutcome::Err(msg),
                    };
                    if let Some(sink) = &progress_sink {
                        let line = progress_line(digest, point.index, &outcome);
                        let mut f = sink.lock().expect("progress sink poisoned");
                        // Best-effort: a failed progress write costs
                        // resumability, not results.
                        let _ = f.write_all(line.as_bytes());
                        let _ = f.flush();
                    }
                    fresh.lock().expect("results poisoned").push((point.index, outcome));
                });
            }
        });
        let ran = {
            let fresh = fresh.into_inner().expect("results poisoned");
            let n = fresh.len();
            done.extend(fresh);
            n
        };

        // Merge into one table in grid order.
        let mut columns: Vec<String> = vec!["point".to_string()];
        columns.extend(self.spec.axes.iter().map(|a| a.key.clone()));
        let mut result_cols: Vec<String> = Vec::new();
        let mut failed = 0;
        for p in &points {
            match done.get(&p.index) {
                Some(PointOutcome::Ok(cells)) => {
                    for (k, _) in cells {
                        if !result_cols.iter().any(|c| c == k) {
                            result_cols.push(k.clone());
                        }
                    }
                }
                Some(PointOutcome::Err(_)) => failed += 1,
                None => failed += 1,
            }
        }
        columns.extend(result_cols.iter().cloned());
        if failed > 0 {
            columns.push("error".to_string());
        }
        let rows = points
            .iter()
            .map(|p| {
                let mut row = vec![p.index.to_string()];
                row.extend(p.cells.iter().map(|(_, v)| v.clone()));
                let (cells, error): (&[(String, String)], &str) = match done.get(&p.index) {
                    Some(PointOutcome::Ok(cells)) => (cells, ""),
                    Some(PointOutcome::Err(msg)) => (&[], msg),
                    None => (&[], "did not run"),
                };
                for col in &result_cols {
                    row.push(
                        cells
                            .iter()
                            .find(|(k, _)| k == col)
                            .map_or(String::new(), |(_, v)| v.clone()),
                    );
                }
                if failed > 0 {
                    row.push(error.to_string());
                }
                row
            })
            .collect();
        Ok(SweepOutcome { table: SweepTable { columns, rows }, ran, resumed, failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const SPEC: &str = "\
        # grid over two axes\n\
        scenario memcached\n\
        warm 2ms\n\
        jobs 2\n\
        set --racks 2\n\
        set --cross-rack\n\
        axis --proto = udp, tcp\n\
        axis --requests = 10, 20, 30\n";

    fn spec() -> SweepSpec {
        SweepSpec::parse(SPEC).expect("spec must parse")
    }

    /// A scratch directory unique to one test invocation.
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "diablo_sweep_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn parse_builds_the_grid_and_display_round_trips() {
        let s = spec();
        assert_eq!(s.scenario, "memcached");
        assert_eq!(s.warm, Some(SimDuration::from_millis(2)));
        assert_eq!(s.jobs, Some(2));
        assert_eq!(
            s.fixed,
            vec![("--racks".into(), Some("2".into())), ("--cross-rack".into(), None)]
        );
        let pts = s.points();
        assert_eq!(pts.len(), 6);
        // First axis outermost: proto varies slowest.
        assert_eq!(
            pts[0].cells,
            vec![("--proto".into(), "udp".into()), ("--requests".into(), "10".into())]
        );
        assert_eq!(pts[2].cells[1].1, "30");
        assert_eq!(pts[3].cells[0].1, "tcp");
        assert_eq!(
            s.point_args(&pts[3]),
            ["--racks", "2", "--cross-rack", "--proto", "tcp", "--requests", "10"]
        );
        assert_eq!(s.warm_args(), ["--racks", "2", "--cross-rack"]);
        // Canonical display reparses equal.
        let reparsed = SweepSpec::parse(&s.to_string()).expect("canonical text must parse");
        assert_eq!(reparsed, s);
        assert_eq!(reparsed.digest(), s.digest());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let cases: &[(&str, &str)] = &[
            ("axis --a = 1, 2\n", "missing `scenario`"),
            ("scenario x\n", "at least one `axis`"),
            ("scenario x\nscenario y\naxis --a = 1\n", "duplicate `scenario`"),
            ("scenario x\naxis --a = 1\naxis --a = 2\n", "duplicate axis"),
            ("scenario x\naxis --a =\n", "no values"),
            ("scenario x\naxis --a 1, 2\n", "expected `axis"),
            ("scenario x\nwarm 5\naxis --a = 1\n", "suffix"),
            ("scenario x\njobs 0\naxis --a = 1\n", "at least 1"),
            ("scenario x\nfrobnicate y\naxis --a = 1\n", "unknown directive"),
            ("scenario x\nset\naxis --a = 1\n", "expected `set"),
            ("scenario x\nset --a 1 2\naxis --a = 1\n", "at most one value"),
        ];
        for (text, needle) in cases {
            let err = SweepSpec::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "`{text}` => `{err}` (wanted `{needle}`)");
        }
    }

    /// Counts runner invocations and echoes the point back as results.
    struct EchoRunner {
        warms: AtomicUsize,
        runs: AtomicUsize,
        fail_index: Option<usize>,
    }

    impl EchoRunner {
        fn new(fail_index: Option<usize>) -> Self {
            EchoRunner { warms: AtomicUsize::new(0), runs: AtomicUsize::new(0), fail_index }
        }
    }

    impl SweepRunner for EchoRunner {
        fn warm(&self, _at: SimDuration, path: &Path) -> Result<(), String> {
            self.warms.fetch_add(1, Ordering::Relaxed);
            std::fs::write(path, b"warm").map_err(|e| e.to_string())
        }

        fn run_point(
            &self,
            point: &SweepPoint,
            warm: Option<&Path>,
        ) -> Result<Vec<(String, String)>, String> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            assert!(warm.is_some_and(|p| p.exists()), "points must see the warm checkpoint");
            if self.fail_index == Some(point.index) {
                return Err(format!("point {} exploded", point.index));
            }
            Ok(vec![
                (
                    "echo".to_string(),
                    point.cells.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>().join("/"),
                ),
                ("idx".to_string(), point.index.to_string()),
            ])
        }
    }

    #[test]
    fn engine_runs_every_point_and_merges_in_grid_order() {
        let dir = scratch("merge");
        let s = spec();
        let runner = EchoRunner::new(None);
        let out = SweepEngine::new(&s, &runner)
            .warm_checkpoint(dir.join("warm.snap"))
            .run()
            .expect("sweep must run");
        assert_eq!(runner.warms.load(Ordering::Relaxed), 1, "warm runs exactly once");
        assert_eq!(out.ran, 6);
        assert_eq!(out.resumed, 0);
        assert_eq!(out.failed, 0);
        assert_eq!(out.table.columns, ["point", "--proto", "--requests", "echo", "idx"]);
        assert_eq!(out.table.rows.len(), 6);
        // Grid order regardless of which worker finished first.
        assert_eq!(out.table.rows[0], ["0", "udp", "10", "udp/10", "0"]);
        assert_eq!(out.table.rows[5], ["5", "tcp", "30", "tcp/30", "5"]);
        let rendered = out.table.render();
        assert!(rendered.lines().count() == 8, "header + rule + 6 rows:\n{rendered}");
        assert!(rendered.contains("--proto"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failing_point_lands_in_the_error_column_and_the_sweep_continues() {
        let dir = scratch("fail");
        let s = spec();
        let runner = EchoRunner::new(Some(4));
        let out = SweepEngine::new(&s, &runner)
            .warm_checkpoint(dir.join("warm.snap"))
            .run()
            .expect("point failures must not abort the sweep");
        assert_eq!(out.ran, 6);
        assert_eq!(out.failed, 1);
        assert_eq!(out.table.columns.last().map(String::as_str), Some("error"));
        let bad = &out.table.rows[4];
        assert_eq!(bad.last().unwrap(), "point 4 exploded");
        assert!(bad[3].is_empty(), "failed point has no result cells: {bad:?}");
        assert!(out.table.rows[0].last().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_file_resumes_without_rerunning_and_ignores_stale_digests() {
        let dir = scratch("resume");
        let s = spec();
        let progress = dir.join("sweep.progress");
        // Poison the file with a stale-digest line for point 0: it must
        // be ignored, not resumed.
        std::fs::write(&progress, "0000000000000000\t0\tok\techo=stale\n").unwrap();
        let first = EchoRunner::new(None);
        let out1 = SweepEngine::new(&s, &first)
            .warm_checkpoint(dir.join("warm.snap"))
            .progress_file(progress.clone())
            .run()
            .expect("first pass");
        assert_eq!(out1.ran, 6, "stale digest must not count as progress");
        assert_eq!(out1.table.rows[0][3], "udp/10", "stale cell must not leak into results");

        // Second pass: everything resumes, the runner never fires.
        let second = EchoRunner::new(None);
        let out2 = SweepEngine::new(&s, &second)
            .warm_checkpoint(dir.join("warm.snap"))
            .progress_file(progress.clone())
            .run()
            .expect("second pass");
        assert_eq!(second.runs.load(Ordering::Relaxed), 0, "resume must skip finished points");
        assert_eq!(second.warms.load(Ordering::Relaxed), 0, "fully-resumed sweep skips warm-up");
        assert_eq!(out2.resumed, 6);
        assert_eq!(out2.ran, 0);
        assert_eq!(out2.table, out1.table, "resumed table must equal the original");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_directive_without_a_checkpoint_path_is_refused() {
        let s = spec();
        let runner = EchoRunner::new(None);
        let err = SweepEngine::new(&s, &runner).run().expect_err("must refuse");
        assert!(matches!(err, SweepError::Invalid(_)), "{err}");
    }

    #[test]
    fn specs_without_warm_run_points_cold() {
        struct ColdRunner;
        impl SweepRunner for ColdRunner {
            fn warm(&self, _at: SimDuration, _path: &Path) -> Result<(), String> {
                panic!("no warm directive, warm must not be called");
            }
            fn run_point(
                &self,
                point: &SweepPoint,
                warm: Option<&Path>,
            ) -> Result<Vec<(String, String)>, String> {
                assert!(warm.is_none(), "cold sweep must not pass a checkpoint");
                Ok(vec![("n".to_string(), point.index.to_string())])
            }
        }
        let s = SweepSpec::parse("scenario x\naxis --a = 1, 2\n").unwrap();
        let out = SweepEngine::new(&s, &ColdRunner).run().expect("cold sweep");
        assert_eq!(out.ran, 2);
        assert_eq!(out.failed, 0);
    }
}
