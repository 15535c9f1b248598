//! # diablo-bench — the paper-regeneration harness
//!
//! One binary, `wsc_sim`: `wsc_sim figure <id>...|all` regenerates the
//! paper's tables and figures, the rows of [`figures::FIGURES`], each
//! printed and written as a CSV under `results/` at scaled-down defaults
//! (`EXPERIMENTS.md` documents them and the flags that scale up); its
//! other subcommands run one workload or a sweep on any configuration.
//! Both read the one flag table, [`flags::FLAGS`].
//! Simulator speed is measured by the repo benchmark (`benchmark/run.sh`),
//! not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod flags;

use std::path::PathBuf;

/// Directory where regenerators drop CSV outputs (`results/` at the
/// workspace root, or `$DIABLO_RESULTS`).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("DIABLO_RESULTS") {
        return PathBuf::from(d);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// Writes a metric scrape as both JSON and CSV. By default both land
/// under [`results_dir`] as `<tag>_metrics.json` / `<tag>_metrics.csv`;
/// `json_override`, when set, replaces the JSON destination and the CSV
/// twin follows it (same path, `.csv` extension) so a redirected run —
/// a test, a CI sweep — never clobbers the checked-in default
/// artifacts. Returns the JSON path.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing
/// either file.
pub fn write_metrics_artifacts(
    tag: &str,
    metrics: &diablo_engine::metrics::MetricsRegistry,
    json_override: Option<PathBuf>,
) -> std::io::Result<PathBuf> {
    let json_path = match json_override {
        Some(path) => path,
        None => {
            let dir = results_dir();
            std::fs::create_dir_all(&dir)?;
            dir.join(format!("{tag}_metrics.json"))
        }
    };
    if let Some(parent) = json_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&json_path, metrics.to_json())?;
    std::fs::write(json_path.with_extension("csv"), metrics.to_csv())?;
    Ok(json_path)
}

/// Prints the standard experiment header.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("DIABLO reproduction — {id}: {title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_somewhere() {
        assert!(results_dir().ends_with("results"));
    }
}
