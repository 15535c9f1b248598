//! # diablo-bench — the paper-regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (see
//! `src/bin/`); simulator speed itself is measured by the repo benchmark
//! (`benchmark/run.sh`), not here. This library holds the shared
//! plumbing: a tiny argument parser and result-file conventions.
//!
//! Every binary prints the series the corresponding figure plots and
//! writes a CSV under `results/`. Default parameters are scaled down from
//! the paper's (documented per-figure in `EXPERIMENTS.md`); pass
//! `--requests`/`--racks`/`--iterations` to scale up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

/// Minimal command-line argument access: `--key value` pairs and flags.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// From an explicit vector (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// `true` if `--name` appears.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed; `default` when the flag is
    /// absent. A present-but-unparsable value is an error — silently
    /// falling back to the default would make e.g. `--racks abc` run a
    /// differently-shaped experiment than requested.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        let Some(i) = self.raw.iter().position(|a| a == name) else {
            return Ok(default);
        };
        let Some(value) = self.raw.get(i + 1) else {
            return Err(ArgError { flag: name.to_string(), value: None });
        };
        value.parse().map_err(|_| ArgError { flag: name.to_string(), value: Some(value.clone()) })
    }

    /// Like [`Args::try_get`], but reports the offending flag on stderr and
    /// exits non-zero on a malformed value (for binary entry points).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

/// A flag whose value was missing or failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The offending flag, e.g. `--racks`.
    pub flag: String,
    /// The value that failed to parse, or `None` if the flag was last.
    pub value: Option<String>,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.value {
            Some(v) => write!(f, "invalid value {v:?} for {}", self.flag),
            None => write!(f, "missing value for {}", self.flag),
        }
    }
}

impl std::error::Error for ArgError {}

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

/// Builds a memcached experiment configuration from CLI arguments, scaled
/// down by default (`--full` restores the paper's 31-servers-per-rack,
/// 2-memcached-per-rack shape; `--requests` sets per-client request count).
pub fn mc_config_from_args(
    args: &Args,
    default_racks: usize,
    default_requests: u64,
) -> diablo_core::McExperimentConfig {
    use diablo_core::McExperimentConfig;
    let racks = args.get("--racks", default_racks);
    let requests = args.get("--requests", default_requests);
    let mut cfg = if args.flag("--full") {
        McExperimentConfig::paper(racks, requests)
    } else {
        let mut c = McExperimentConfig::mini(racks, requests);
        c.servers_per_rack = args.get("--spr", c.servers_per_rack);
        c.mc_per_rack = args.get("--mc-per-rack", c.mc_per_rack);
        c
    };
    cfg.workers = args.get("--workers", cfg.workers);
    cfg.seed = args.get("--seed", cfg.seed);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let a = Args::from_vec(vec!["--racks".into(), "8".into(), "--full".into()]);
        assert_eq!(a.get("--racks", 2usize), 8);
        assert_eq!(a.get("--requests", 100u64), 100);
        assert!(a.flag("--full"));
        assert!(!a.flag("--quick"));
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let a = Args::from_vec(vec!["--racks".into(), "abc".into()]);
        let err = a.try_get("--racks", 2usize).unwrap_err();
        assert_eq!(err.flag, "--racks");
        assert_eq!(err.value.as_deref(), Some("abc"));
        assert!(err.to_string().contains("--racks"), "{err}");
        assert!(err.to_string().contains("abc"), "{err}");
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let a = Args::from_vec(vec!["--racks".into()]);
        let err = a.try_get("--racks", 2usize).unwrap_err();
        assert_eq!(err.value, None);
        assert!(err.to_string().contains("missing value"), "{err}");
    }

    #[test]
    fn results_dir_is_somewhere() {
        assert!(results_dir().ends_with("results"));
    }
}
