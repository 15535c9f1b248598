//! Result presentation: aligned text tables, CSV output, and
//! CDF/PMF/percentile series extracted from histograms.

use diablo_engine::stats::Histogram;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use diablo_core::report::Table;
/// let mut t = Table::new(vec!["n", "goodput"]);
/// t.row(vec!["1".into(), "941.2".into()]);
/// let s = t.to_string();
/// assert!(s.contains("goodput"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends every row of `rows`, as [`Table::row`] does.
    #[must_use]
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<String>>) -> Self {
        for cells in rows {
            self.row(cells);
        }
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table as CSV text: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        for r in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&r.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        writeln!(f, "{}", line.trim_end())?;
        let sep: String = widths.iter().map(|w| format!("{}  ", "-".repeat(*w))).collect();
        writeln!(f, "{}", sep.trim_end())?;
        for r in &self.rows {
            let mut line = String::new();
            for (c, w) in r.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Extracts `(value_us, cumulative_fraction)` pairs from a nanosecond
/// histogram, restricted to the cumulative range `[from_q, 1.0]` —
/// the form of the paper's tail CDFs (Figures 9, 11, 13, 14, 15).
pub fn tail_cdf_us(hist: &Histogram, from_q: f64) -> Vec<(f64, f64)> {
    hist.cdf()
        .into_iter()
        .filter(|&(_, q)| q >= from_q)
        .map(|(ns, q)| (ns as f64 / 1_000.0, q))
        .collect()
}

/// The quantiles [`percentiles_us`] reports, by name.
pub const PERCENTILES: [(&str, f64); 6] =
    [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999), ("max", 1.0)];

/// Standard percentile summary of a nanosecond histogram, in microseconds.
pub fn percentiles_us(hist: &Histogram) -> Vec<(&'static str, f64)> {
    PERCENTILES.iter().map(|&(name, q)| (name, hist.quantile(q) as f64 / 1_000.0)).collect()
}

/// Formats a float with the given number of decimals.
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_len() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["123".into(), "4".into()]);
        t.row(vec!["5".into(), "6".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(vec!["x", "note"]);
        t.row(vec!["1".into(), "plain".into()]);
        t.row(vec!["2".into(), "has,comma".into()]);
        let dir = std::env::temp_dir().join("diablo_report_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("x,note\n"));
        assert!(body.contains("\"has,comma\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tail_cdf_and_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1_000); // 1..1000 us in ns
        }
        let tail = tail_cdf_us(&h, 0.95);
        assert!(!tail.is_empty());
        assert!(tail.iter().all(|&(_, q)| q >= 0.95));
        let p = percentiles_us(&h);
        let p99 = p.iter().find(|(n, _)| *n == "p99").unwrap().1;
        assert!((980.0..=1_000.0).contains(&p99), "p99 {p99}");
        assert_eq!(fmt_f(1.23456, 2), "1.23");
    }
}
