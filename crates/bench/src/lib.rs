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

/// Parses `--parallel N` into an execution mode: absent or `1` is serial,
/// `N > 1` is partition-parallel. An explicit `--parallel 0` is
/// contradictory — partitioned execution with zero partitions — and is an
/// error rather than a silent fall-back to serial.
pub fn try_parallel_mode(args: &Args) -> Result<diablo_core::RunMode, String> {
    let n: usize = args.try_get("--parallel", 1).map_err(|e| e.to_string())?;
    // `--sim-workers` pins the engine's worker-thread count (`--workers` is
    // taken by the memcached app's server-thread knob).
    let workers: Option<usize> = if args.flag("--sim-workers") {
        Some(args.try_get("--sim-workers", 0).map_err(|e| e.to_string())?)
    } else {
        None
    };
    match (n, workers) {
        (0, _) => Err("--parallel must be at least 1 (got 0)".to_string()),
        (_, Some(0)) => Err("--sim-workers must be at least 1 (got 0)".to_string()),
        (1, None) => Ok(diablo_core::RunMode::Serial),
        (1, Some(_)) => Err("--sim-workers requires --parallel >= 2".to_string()),
        (n, None) => Ok(diablo_core::RunMode::parallel(n)),
        (n, Some(w)) => Ok(diablo_core::RunMode::parallel_with_workers(n, w)),
    }
}

/// Like [`try_parallel_mode`], but reports the error on stderr and exits
/// non-zero (for binary entry points).
pub fn parallel_mode(args: &Args) -> diablo_core::RunMode {
    try_parallel_mode(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parses a `--topology` value into a fabric kind: `tree` (the classic
/// three-level tree) or `fat-tree:k=K[,hosts=N]` — a 3-tier folded Clos
/// with `K` pods. `hosts=N` attaches `N` hosts per edge switch (default
/// `K/2`, full bisection; more oversubscribes the edge tier). `K` must be
/// even and at least 2.
pub fn try_fabric(value: &str) -> Result<diablo_core::FabricKind, String> {
    use diablo_core::FabricKind;
    use diablo_net::topology::{FatTreeConfig, Topology};
    if value == "tree" {
        return Ok(FabricKind::Tree);
    }
    let Some(params) = value.strip_prefix("fat-tree:") else {
        return Err(format!(
            "invalid value {value:?} for --topology \
             (expected 'tree' or 'fat-tree:k=K[,hosts=N]')"
        ));
    };
    let mut k: Option<usize> = None;
    let mut hosts: Option<usize> = None;
    for part in params.split(',') {
        let Some((key, val)) = part.split_once('=') else {
            return Err(format!(
                "invalid fat-tree parameter {part:?} (expected 'k=K' or 'hosts=N')"
            ));
        };
        let parsed: usize = val
            .parse()
            .map_err(|_| format!("invalid fat-tree parameter value {val:?} for {key:?}"))?;
        match key {
            "k" => k = Some(parsed),
            "hosts" => hosts = Some(parsed),
            _ => {
                return Err(format!("unknown fat-tree parameter {key:?} (expected 'k' or 'hosts')"))
            }
        }
    }
    let Some(k) = k else {
        return Err("fat-tree topology requires k (e.g. fat-tree:k=4)".to_string());
    };
    let mut ft = FatTreeConfig::new(k);
    if let Some(h) = hosts {
        ft.hosts_per_edge = h;
    }
    // Validate through the topology builder so the CLI rejects exactly
    // what the model would reject (odd k, k < 2, zero hosts).
    Topology::fat_tree(ft).map_err(|e| format!("invalid --topology {value:?}: {e}"))?;
    Ok(FabricKind::FatTree(ft))
}

/// Parses the `--topology` flag (default `tree`), exiting non-zero on an
/// invalid value (for binary entry points).
pub fn fabric(args: &Args) -> diablo_core::FabricKind {
    let raw = args.get("--topology", "tree".to_string());
    try_fabric(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parses a `--cc` value into a congestion-control profile: `reno`
/// (NewReno loss recovery, the kernels' default) or `dctcp` (ECN-driven
/// proportional backoff; pairs with a marking fabric).
pub fn try_cc(value: &str) -> Result<diablo_stack::profile::CongestionControl, String> {
    use diablo_stack::profile::CongestionControl;
    match value {
        "reno" => Ok(CongestionControl::Reno),
        "dctcp" => Ok(CongestionControl::Dctcp),
        _ => Err(format!("invalid value {value:?} for --cc (expected 'reno' or 'dctcp')")),
    }
}

/// Parses the `--cc` flag (default `reno`), exiting non-zero on an
/// invalid value (for binary entry points).
pub fn cc(args: &Args) -> diablo_stack::profile::CongestionControl {
    let raw = args.get("--cc", "reno".to_string());
    try_cc(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
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

    #[test]
    fn fabric_parser_accepts_tree_and_fat_tree_forms() {
        use diablo_core::FabricKind;
        assert_eq!(try_fabric("tree").unwrap(), FabricKind::Tree);
        match try_fabric("fat-tree:k=4").unwrap() {
            FabricKind::FatTree(ft) => {
                assert_eq!(ft.k, 4);
                assert_eq!(ft.hosts_per_edge, 2);
            }
            other => panic!("expected fat-tree, got {other:?}"),
        }
        match try_fabric("fat-tree:k=4,hosts=3").unwrap() {
            FabricKind::FatTree(ft) => {
                assert_eq!(ft.k, 4);
                assert_eq!(ft.hosts_per_edge, 3);
            }
            other => panic!("expected fat-tree, got {other:?}"),
        }
    }

    #[test]
    fn fabric_parser_rejects_malformed_and_invalid_fabrics() {
        for bad in [
            "mesh",         // unknown fabric
            "fat-tree",     // missing parameters
            "fat-tree:k=3", // odd k
            "fat-tree:k=0", // k < 2
            "fat-tree:k=4,hosts=0",
            "fat-tree:k=abc",
            "fat-tree:k=4,ports=8", // unknown key
            "fat-tree:k",           // no '='
        ] {
            assert!(try_fabric(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn cc_parser_accepts_profiles_and_rejects_unknowns() {
        use diablo_stack::profile::CongestionControl;
        assert_eq!(try_cc("reno").unwrap(), CongestionControl::Reno);
        assert_eq!(try_cc("dctcp").unwrap(), CongestionControl::Dctcp);
        assert!(try_cc("cubic").is_err());
        assert!(try_cc("").is_err());
    }

    #[test]
    fn sim_workers_flag_pins_engine_workers() {
        let args = |v: &[&str]| Args::from_vec(v.iter().map(|s| s.to_string()).collect());
        assert_eq!(
            try_parallel_mode(&args(&["--parallel", "4", "--sim-workers", "2"])).unwrap(),
            diablo_core::RunMode::parallel_with_workers(4, 2)
        );
        assert_eq!(
            try_parallel_mode(&args(&["--parallel", "4"])).unwrap(),
            diablo_core::RunMode::parallel(4)
        );
        // Contradictory combinations are errors, not silent fallbacks.
        assert!(try_parallel_mode(&args(&["--sim-workers", "2"])).is_err());
        assert!(try_parallel_mode(&args(&["--parallel", "4", "--sim-workers", "0"])).is_err());
    }
}
