//! End-to-end checks of the `wsc_sim` front end: contradictory flags are
//! rejected with a non-zero exit instead of silently running something
//! else, and `--fault-plan` drives a scripted outage through a real run
//! with serial/parallel metric parity.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wsc_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wsc_sim"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn parallel_zero_is_rejected() {
    let out = wsc_sim().args(["incast", "--parallel", "0"]).output().expect("spawn wsc_sim");
    assert!(!out.status.success(), "--parallel 0 must exit non-zero");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--parallel"), "stderr: {}", stderr(&out));
}

#[test]
fn zero_valued_size_flags_are_rejected() {
    for (sub, flag) in [
        ("incast", "--servers"),
        ("incast", "--iterations"),
        ("memcached", "--racks"),
        ("partition-aggregate", "--racks"),
        ("partition-aggregate", "--spr"),
        ("partition-aggregate", "--queries"),
        ("partition-aggregate", "--deadline-us"),
        ("partition-aggregate", "--query-bytes"),
        ("partition-aggregate", "--answer-bytes"),
    ] {
        let out = wsc_sim().args([sub, flag, "0"]).output().expect("spawn wsc_sim");
        assert!(!out.status.success(), "{sub} {flag} 0 must exit non-zero");
        assert!(stderr(&out).contains(flag), "stderr: {}", stderr(&out));
    }
}

#[test]
fn missing_fault_plan_is_rejected() {
    let out = wsc_sim()
        .args(["incast", "--fault-plan", "/nonexistent/plan.fplan"])
        .output()
        .expect("spawn wsc_sim");
    assert!(!out.status.success(), "a missing fault plan must exit non-zero");
    assert!(stderr(&out).contains("fault plan"), "stderr: {}", stderr(&out));
}

#[test]
fn malformed_fault_plan_is_rejected() {
    let dir = std::env::temp_dir().join("wsc_sim_cli_validation");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bad = dir.join("bad.fplan");
    std::fs::write(&bad, "10ms frobnicate node1\n").expect("write plan");
    let out = wsc_sim()
        .args(["incast", "--fault-plan", bad.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn wsc_sim");
    assert!(!out.status.success(), "a malformed fault plan must exit non-zero");
    assert!(stderr(&out).contains("frobnicate"), "stderr: {}", stderr(&out));
}

/// The bundled link-flap scenario run end to end through the CLI, serial
/// and 2-partition, with `--check-invariants` — the scripted outage must
/// not unbalance the books, and the two metric scrapes must be
/// byte-identical.
#[test]
fn bundled_link_flap_scenario_runs_identically_serial_and_parallel() {
    let plan = repo_root().join("scenarios/link_flap.fplan");
    assert!(plan.exists(), "bundled scenario missing: {}", plan.display());
    let dir = std::env::temp_dir().join("wsc_sim_cli_flap");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let run = |tag: &str, parallel: Option<&str>| -> PathBuf {
        let json = dir.join(format!("{tag}.json"));
        let mut cmd = wsc_sim();
        cmd.args([
            "incast",
            "--servers",
            "4",
            "--iterations",
            "2",
            "--racks",
            "2",
            "--fault-plan",
            plan.to_str().expect("utf-8 path"),
            "--check-invariants",
            "--metrics",
            json.to_str().expect("utf-8 path"),
        ]);
        if let Some(p) = parallel {
            cmd.args(["--parallel", p]);
        }
        let out = cmd.output().expect("spawn wsc_sim");
        assert!(
            out.status.success(),
            "{tag} run failed (status {:?}): {}",
            out.status.code(),
            stderr(&out)
        );
        json
    };
    let serial = run("serial", None);
    let parallel = run("parallel", Some("2"));
    let a = std::fs::read(serial).expect("serial metrics");
    let b = std::fs::read(parallel).expect("parallel metrics");
    assert_eq!(a, b, "serial and parallel metric scrapes must be byte-identical under faults");
}

/// The partition-aggregate subcommand end to end: accepts a fault plan,
/// passes the conservation audit under `--check-invariants`, and scrapes
/// byte-identical metrics serial vs 2-partition.
#[test]
fn partition_aggregate_runs_identically_serial_and_parallel() {
    let plan = repo_root().join("scenarios/link_flap.fplan");
    assert!(plan.exists(), "bundled scenario missing: {}", plan.display());
    let dir = std::env::temp_dir().join("wsc_sim_cli_pa");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let run = |tag: &str, parallel: Option<&str>| -> PathBuf {
        let json = dir.join(format!("{tag}.json"));
        let mut cmd = wsc_sim();
        cmd.args([
            "partition-aggregate",
            "--racks",
            "2",
            "--queries",
            "30",
            "--fault-plan",
            plan.to_str().expect("utf-8 path"),
            "--check-invariants",
            "--metrics",
            json.to_str().expect("utf-8 path"),
        ]);
        if let Some(p) = parallel {
            cmd.args(["--parallel", p]);
        }
        let out = cmd.output().expect("spawn wsc_sim");
        assert!(
            out.status.success(),
            "{tag} run failed (status {:?}): {}",
            out.status.code(),
            stderr(&out)
        );
        json
    };
    let serial = run("serial", None);
    let parallel = run("parallel", Some("2"));
    let a = std::fs::read(serial).expect("serial metrics");
    let b = std::fs::read(parallel).expect("parallel metrics");
    assert_eq!(a, b, "partition-aggregate serial vs parallel scrapes must be byte-identical");
}

// ---------------------------------------------------------------------------
// The flag table: generated usage, unknown and misplaced flags
// ---------------------------------------------------------------------------

/// The flags the generated usage lists per subcommand, with their value
/// placeholders (empty for a switch).
fn usage_flags() -> Vec<(String, Vec<(String, String)>)> {
    let out = wsc_sim().output().expect("spawn wsc_sim");
    assert_eq!(out.status.code(), Some(2), "no subcommand prints the usage and exits 2");
    let mut subs: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for line in stderr(&out).lines() {
        if let Some(sub) = line.strip_suffix(" options:") {
            subs.push((sub.to_string(), Vec::new()));
        } else if let Some(rest) = line.strip_prefix("  --") {
            let mut words = rest.split_whitespace();
            let flag = format!("--{}", words.next().expect("flag name"));
            // A placeholder is upper-case or a set of alternatives; the
            // help that follows starts in lower case.
            let value = words
                .next()
                .filter(|w| w.contains('|') || !w.chars().any(|c| c.is_ascii_lowercase()))
                .unwrap_or("");
            subs.last_mut().expect("flag under a subcommand").1.push((flag, value.to_string()));
        }
    }
    subs
}

/// Every flag the usage lists for a subcommand is accepted there, and a
/// subcommand that does not list it rejects it by name with exit 2 (the
/// parent silently ignored it and ran the defaults).
#[test]
fn usage_lists_exactly_the_flags_each_subcommand_accepts() {
    let subs = usage_flags();
    let names: Vec<&str> = subs.iter().map(|(sub, _)| sub.as_str()).collect();
    assert_eq!(names, ["memcached", "incast", "partition-aggregate", "sweep"]);
    let mut all: Vec<&(String, String)> = subs.iter().flat_map(|(_, flags)| flags).collect();
    all.sort();
    all.dedup();
    assert!(all.iter().any(|(flag, _)| flag == "--sim-workers"), "--sim-workers is listed");
    for (sub, listed) in &subs {
        for (flag, value) in &all {
            let mut cmd = wsc_sim();
            cmd.arg(sub).arg(flag);
            if !value.is_empty() {
                cmd.arg("1");
            }
            // Keeps an accepted flag from starting a run: flags are
            // checked against the table before any of them is applied.
            if sub != "sweep" && flag != "--restore" {
                cmd.args(["--restore", "/nonexistent/warm.snap"]);
            }
            let out = cmd.output().expect("spawn wsc_sim");
            let err = stderr(&out);
            let unknown = err.contains(&format!("unknown flag {flag} for {sub}"));
            assert_eq!(out.status.code(), Some(2), "{sub} {flag}: {err}");
            let is_listed = listed.iter().any(|(l, _)| l == flag);
            assert_eq!(unknown, !is_listed, "{sub} {flag} (listed: {is_listed}): {err}");
        }
    }
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    expect_reject(&["memcached", "--racks", "2", "--request", "7"], "unknown flag --request");
    expect_reject(&["incast", "--iterations"], "--iterations needs a value");
    expect_reject(&["incast", "stray"], "unknown flag stray");
    expect_reject(
        &["memcached", "--racks", "2", "--racks", "3"],
        "--racks is given more than once",
    );
    expect_reject(&["memcached", "--sim-workers", "2"], "--sim-workers requires --parallel");
    expect_reject(
        &["memcached", "--parallel", "4", "--sim-workers", "0"],
        "--sim-workers must be at least 1",
    );
}

/// Settings `try_run_*` used to panic on (exit 101) are refused by the
/// config's own `validate`: exit 2, the field and the limit on stderr.
#[test]
fn configs_that_used_to_panic_exit_2_naming_the_field() {
    let diurnal = repo_root().join("scenarios/diurnal.arrv");
    expect_reject(
        &[
            "memcached",
            "--control-plane",
            "--arrival",
            diurnal.to_str().expect("utf-8"),
            "--racks",
            "64",
            "--mc-per-rack",
            "2",
            "--spares",
            "1",
        ],
        "holds 192 replicas; the registry indexes 1 to 128",
    );
    expect_reject(&["incast", "--servers", "40", "--topology", "fat-tree:k=4"], "servers: 40 + 1");
    expect_reject(&["partition-aggregate", "--spr", "1"], "servers_per_rack must be at least 2");
}

// ---------------------------------------------------------------------------
// Fabric flags: --topology / --cc
// ---------------------------------------------------------------------------

#[test]
fn invalid_topology_values_are_rejected() {
    expect_reject(&["incast", "--topology", "mesh"], "--topology");
    expect_reject(&["incast", "--topology", "fat-tree"], "--topology");
    expect_reject(&["incast", "--topology", "fat-tree:k=3"], "even");
    expect_reject(&["memcached", "--topology", "fat-tree:k=0"], "at least 2");
    expect_reject(&["partition-aggregate", "--topology", "fat-tree:k=4,hosts=0"], "hosts");
    expect_reject(&["incast", "--topology", "fat-tree:k=4,ports=8"], "unknown fat-tree parameter");
    expect_reject(&["incast", "--buffer", "lots"], "--buffer");
}

#[test]
fn invalid_cc_values_are_rejected() {
    expect_reject(&["incast", "--cc", "cubic"], "--cc");
    expect_reject(&["memcached", "--cc", "bbr"], "--cc");
    expect_reject(&["partition-aggregate", "--cc", "tahoe"], "--cc");
}

#[test]
fn fat_tree_conflicts_with_explicit_shape_flags() {
    // The Clos shape is k-derived; an explicit rack count would be
    // silently ignored, so it must be an error instead.
    expect_reject(&["incast", "--topology", "fat-tree:k=4", "--racks", "2"], "--racks");
    expect_reject(&["memcached", "--topology", "fat-tree:k=4", "--spr", "3"], "--spr");
    expect_reject(
        &["partition-aggregate", "--topology", "fat-tree:k=4", "--racks", "2"],
        "--racks",
    );
}

// ---------------------------------------------------------------------------
// Open-loop flags: --arrival / --slo
// ---------------------------------------------------------------------------

fn write_arrival(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wsc_sim_cli_arrival");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write arrival spec");
    path
}

fn expect_reject(args: &[&str], needle: &str) {
    let out = wsc_sim().args(args).output().expect("spawn wsc_sim");
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {}", stderr(&out));
    assert!(
        stderr(&out).contains(needle),
        "{args:?}: stderr must mention {needle:?}, got: {}",
        stderr(&out)
    );
}

#[test]
fn arrival_spec_with_zero_rate_is_rejected() {
    let p = write_arrival("zero_rate.arrv", "10ms poisson 0\n");
    expect_reject(&["memcached", "--arrival", p.to_str().expect("utf-8")], "rate must be positive");
}

#[test]
fn arrival_spec_with_negative_rate_is_rejected() {
    let p = write_arrival("neg_rate.arrv", "10ms const -250\n");
    expect_reject(&["memcached", "--arrival", p.to_str().expect("utf-8")], "rate must be positive");
}

#[test]
fn arrival_spec_with_unknown_profile_keyword_is_rejected() {
    // The bad line sits after a good one: the error must carry the
    // offending 1-based line number.
    let p = write_arrival("bad_kind.arrv", "10ms poisson 500\n10ms lognormal 500\n");
    expect_reject(
        &["memcached", "--arrival", p.to_str().expect("utf-8")],
        "unknown arrival profile",
    );
    let out = wsc_sim()
        .args(["memcached", "--arrival", p.to_str().expect("utf-8")])
        .output()
        .expect("spawn wsc_sim");
    assert!(stderr(&out).contains("line 2"), "stderr must carry the line: {}", stderr(&out));
}

#[test]
fn missing_arrival_spec_is_rejected() {
    expect_reject(
        &["memcached", "--arrival", "/nonexistent/profile.arrv"],
        "cannot read arrival spec",
    );
}

#[test]
fn zero_slo_is_rejected() {
    let p = write_arrival("ok.arrv", "10ms const 500\n");
    expect_reject(
        &["memcached", "--arrival", p.to_str().expect("utf-8"), "--slo", "0"],
        "--slo must be at least 1 nanosecond",
    );
}

#[test]
fn open_loop_memcached_requires_udp() {
    let p = write_arrival("ok_udp.arrv", "10ms const 500\n");
    expect_reject(
        &["memcached", "--proto", "tcp", "--arrival", p.to_str().expect("utf-8")],
        "arrival requires proto udp",
    );
}

#[test]
fn open_loop_incast_requires_epoll_client() {
    let p = write_arrival("ok_epoll.arrv", "10ms const 500\n");
    expect_reject(
        &["incast", "--client", "pthread", "--arrival", p.to_str().expect("utf-8")],
        "arrival requires client epoll",
    );
}

/// The bundled diurnal scenario through the CLI: serial and 4-partition
/// runs of the open-loop memcached workload must scrape byte-identical
/// metrics — the CLI half of the open-loop conformance contract.
#[test]
fn bundled_diurnal_scenario_runs_identically_serial_and_parallel() {
    let spec = repo_root().join("scenarios/diurnal.arrv");
    assert!(spec.exists(), "bundled scenario missing: {}", spec.display());
    let dir = std::env::temp_dir().join("wsc_sim_cli_diurnal");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let run = |tag: &str, parallel: Option<&str>| -> PathBuf {
        let json = dir.join(format!("{tag}.json"));
        let mut cmd = wsc_sim();
        cmd.args([
            "memcached",
            "--racks",
            "1",
            "--arrival",
            spec.to_str().expect("utf-8 path"),
            "--slo",
            "500000",
            "--check-invariants",
            "--metrics",
            json.to_str().expect("utf-8 path"),
        ]);
        if let Some(p) = parallel {
            cmd.args(["--parallel", p]);
        }
        let out = cmd.output().expect("spawn wsc_sim");
        assert!(
            out.status.success(),
            "{tag} run failed (status {:?}): {}",
            out.status.code(),
            stderr(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("open loop:"), "run must report SLO accounting: {stdout}");
        json
    };
    let serial = run("serial", None);
    let parallel = run("parallel", Some("4"));
    let a = std::fs::read(serial).expect("serial metrics");
    let b = std::fs::read(parallel).expect("parallel metrics");
    assert_eq!(a, b, "serial and 4-partition open-loop scrapes must be byte-identical");
}

// ---------------------------------------------------------------------------
// Control-plane flags: --control-plane and its tuning family
// ---------------------------------------------------------------------------

#[test]
fn control_tuning_flags_require_control_plane() {
    for flags in [
        &["memcached", "--spares", "2"][..],
        &["memcached", "--heartbeat-us", "1000"][..],
        &["incast", "--suspect-us", "4000"][..],
        &["incast", "--dead-us", "9000"][..],
        &["partition-aggregate", "--scale-up", "0.5"][..],
        &["partition-aggregate", "--scale-down", "0.01"][..],
        &["memcached", "--autoscale"][..],
    ] {
        expect_reject(flags, "requires --control-plane");
    }
}

#[test]
fn contradictory_control_thresholds_are_rejected() {
    let p = write_arrival("ctl_ok.arrv", "10ms const 500\n");
    let arrv = p.to_str().expect("utf-8");
    // Suspect threshold at/below the heartbeat period: one in-flight
    // heartbeat would permanently flap every node.
    expect_reject(
        &[
            "memcached",
            "--arrival",
            arrv,
            "--control-plane",
            "--heartbeat-us",
            "2000",
            "--suspect-us",
            "2000",
        ],
        "suspect threshold",
    );
    // Dead threshold not beyond suspect.
    expect_reject(
        &[
            "memcached",
            "--arrival",
            arrv,
            "--control-plane",
            "--suspect-us",
            "5000",
            "--dead-us",
            "5000",
        ],
        "dead threshold",
    );
    // Inverted autoscale hysteresis: scale-down at/above scale-up flaps.
    expect_reject(
        &[
            "memcached",
            "--arrival",
            arrv,
            "--control-plane",
            "--scale-up",
            "0.1",
            "--scale-down",
            "0.2",
        ],
        "hysteresis",
    );
    // Fractions outside [0, 1].
    expect_reject(
        &["memcached", "--arrival", arrv, "--control-plane", "--scale-up", "1.5"],
        "scaling thresholds",
    );
}

#[test]
fn controlled_memcached_requires_open_loop_and_room_for_clients() {
    // Closed-loop memcached has no registry-driven client.
    expect_reject(&["memcached", "--control-plane"], "control requires arrival");
    // Serving replicas + spares must leave client slots in each rack.
    let p = write_arrival("ctl_full.arrv", "10ms const 500\n");
    expect_reject(
        &[
            "memcached",
            "--arrival",
            p.to_str().expect("utf-8"),
            "--control-plane",
            "--spr",
            "3",
            "--mc-per-rack",
            "2",
            "--spares",
            "1",
        ],
        "leaves no client slots",
    );
}

#[test]
fn controlled_partition_aggregate_requires_cross_rack() {
    expect_reject(&["partition-aggregate", "--control-plane"], "control requires cross_rack");
}

/// The churn headline through the CLI: the bundled rolling-crash wave
/// over the bundled diurnal trace with the control plane on, serial and
/// 2-partition — failovers must be reported, books must balance, and the
/// two scrapes must be byte-identical.
#[test]
fn bundled_rolling_crash_with_control_plane_runs_identically_serial_and_parallel() {
    let plan = repo_root().join("scenarios/rolling_crash.fplan");
    let spec = repo_root().join("scenarios/diurnal.arrv");
    assert!(plan.exists(), "bundled scenario missing: {}", plan.display());
    assert!(spec.exists(), "bundled scenario missing: {}", spec.display());
    let dir = std::env::temp_dir().join("wsc_sim_cli_churn");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let run = |tag: &str, parallel: Option<&str>| -> PathBuf {
        let json = dir.join(format!("{tag}.json"));
        let mut cmd = wsc_sim();
        cmd.args([
            "memcached",
            "--racks",
            "2",
            "--control-plane",
            "--arrival",
            spec.to_str().expect("utf-8 path"),
            "--slo",
            "1000000",
            "--fault-plan",
            plan.to_str().expect("utf-8 path"),
            "--check-invariants",
            "--metrics",
            json.to_str().expect("utf-8 path"),
        ]);
        if let Some(p) = parallel {
            cmd.args(["--parallel", p]);
        }
        let out = cmd.output().expect("spawn wsc_sim");
        assert!(
            out.status.success(),
            "{tag} run failed (status {:?}): {}",
            out.status.code(),
            stderr(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("control plane:"), "run must report the scheduler: {stdout}");
        assert!(stdout.contains("failovers="), "run must report failovers: {stdout}");
        json
    };
    let serial = run("serial", None);
    let parallel = run("parallel", Some("2"));
    let a = std::fs::read(serial).expect("serial metrics");
    let b = std::fs::read(parallel).expect("parallel metrics");
    assert_eq!(a, b, "controlled churn scrapes must be byte-identical serial vs parallel");
}

// ---------------------------------------------------------------------------
// Checkpoint/restore flags: --checkpoint / --checkpoint-at / --restore
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_requires_both_path_and_instant() {
    expect_reject(&["memcached", "--checkpoint", "/tmp/x.snap"], "--checkpoint-at");
    expect_reject(&["memcached", "--checkpoint-at", "1ms"], "--checkpoint <path>");
    expect_reject(&["incast", "--checkpoint", "/tmp/x.snap"], "--checkpoint-at");
    expect_reject(&["partition-aggregate", "--checkpoint-at", "1ms"], "--checkpoint <path>");
}

#[test]
fn checkpoint_instant_requires_a_unit_suffix() {
    // A bare number is ambiguous (ns? ms?) — the duration grammar
    // demands a suffix.
    expect_reject(&["memcached", "--checkpoint", "/tmp/x.snap", "--checkpoint-at", "5"], "suffix");
    expect_reject(
        &["memcached", "--checkpoint", "/tmp/x.snap", "--checkpoint-at", "fast"],
        "--checkpoint-at",
    );
}

#[test]
fn missing_restore_snapshot_is_rejected() {
    expect_reject(&["memcached", "--restore", "/nonexistent/warm.snap"], "cannot read snapshot");
}

#[test]
fn checkpoint_and_restore_must_not_share_a_path() {
    let dir = std::env::temp_dir().join("wsc_sim_cli_ckpt");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let p = dir.join("shared.snap");
    std::fs::write(&p, b"placeholder").expect("write placeholder");
    let p = p.to_str().expect("utf-8");
    expect_reject(
        &["memcached", "--checkpoint", p, "--checkpoint-at", "1ms", "--restore", p],
        "share a path",
    );
}

#[test]
fn restoring_a_corrupt_snapshot_fails_loudly() {
    let dir = std::env::temp_dir().join("wsc_sim_cli_ckpt_corrupt");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let p = dir.join("garbage.snap");
    std::fs::write(&p, b"this is not a snapshot").expect("write garbage");
    let out = wsc_sim()
        .args(["memcached", "--racks", "1", "--restore", p.to_str().expect("utf-8")])
        .output()
        .expect("spawn wsc_sim");
    assert!(!out.status.success(), "a corrupt snapshot must exit non-zero");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("snapshot"), "stderr: {}", stderr(&out));
}

#[test]
fn restoring_into_a_different_shape_is_rejected() {
    // Warm a 1-rack memcached run, then try to restore it into a 2-rack
    // cluster: the structural fingerprint must refuse.
    let dir = std::env::temp_dir().join("wsc_sim_cli_ckpt_shape");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("one_rack.snap");
    let out = wsc_sim()
        .args([
            "memcached",
            "--racks",
            "1",
            "--requests",
            "20",
            "--checkpoint",
            snap.to_str().expect("utf-8"),
            "--checkpoint-at",
            "200us",
            "--metrics",
            dir.join("warm.json").to_str().expect("utf-8"),
        ])
        .output()
        .expect("spawn wsc_sim");
    assert!(out.status.success(), "warm run failed: {}", stderr(&out));
    let out = wsc_sim()
        .args([
            "memcached",
            "--racks",
            "2",
            "--requests",
            "20",
            "--restore",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn wsc_sim");
    assert!(!out.status.success(), "a shape-mismatched restore must exit non-zero");
    assert!(stderr(&out).contains("fingerprint"), "stderr: {}", stderr(&out));
}

// ---------------------------------------------------------------------------
// Sweep flags: --spec and the grid grammar
// ---------------------------------------------------------------------------

#[test]
fn sweep_requires_a_spec() {
    expect_reject(&["sweep"], "--spec");
    expect_reject(&["sweep", "--spec", "/nonexistent/grid.sweep"], "cannot read sweep spec");
}

fn write_sweep(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wsc_sim_cli_sweep");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write sweep spec");
    path
}

#[test]
fn malformed_sweep_specs_are_rejected() {
    let p = write_sweep("bad_directive.sweep", "scenario memcached\nfrobnicate 3\n");
    expect_reject(&["sweep", "--spec", p.to_str().expect("utf-8")], "frobnicate");

    let p = write_sweep("no_scenario.sweep", "axis --requests = 10, 20\n");
    expect_reject(&["sweep", "--spec", p.to_str().expect("utf-8")], "scenario");

    let p = write_sweep("bogus_scenario.sweep", "scenario tensorflow\naxis --requests = 10\n");
    expect_reject(&["sweep", "--spec", p.to_str().expect("utf-8")], "unknown sweep scenario");
}

/// A cell no point can run fails the sweep before its first point, on the
/// main thread: exit 2 naming the axis and the cell, no usage text, no
/// table. (The parent reached `process::exit` inside a worker thread,
/// mid-grid.)
#[test]
fn sweep_with_a_bad_axis_cell_is_rejected_before_any_point_runs() {
    let spec = write_sweep(
        "bad_cell.sweep",
        "scenario memcached\nset --racks 1\nset --requests 5\naxis --proto = udp, bogus, tcp\n",
    );
    let out_path = spec.with_extension("tsv");
    let _ = std::fs::remove_file(&out_path);
    let out = wsc_sim()
        .args(["sweep", "--spec", spec.to_str().expect("utf-8")])
        .args(["--out", out_path.to_str().expect("utf-8")])
        .args(["--progress", spec.with_extension("progress").to_str().expect("utf-8")])
        .output()
        .expect("spawn wsc_sim");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("axis --proto = bogus"), "names the axis and the cell: {err}");
    assert!(err.contains("expected tcp|udp"), "lists the accepted tokens: {err}");
    assert!(!err.contains("usage:"), "no usage dump: {err}");
    assert!(!out_path.exists(), "no partial table");

    // A cell that parses but makes a scenario that cannot run is caught
    // by the same pass, through the config's validate.
    let spec = write_sweep(
        "bad_combo.sweep",
        "scenario partition-aggregate\nset --racks 2\naxis --spr = 4, 1\n",
    );
    expect_reject(&["sweep", "--spec", spec.to_str().expect("utf-8")], "axis --spr = 1");
    // So is a fixed flag that belongs to another subcommand.
    let spec =
        write_sweep("bad_set.sweep", "scenario incast\nset --queries 5\naxis --servers = 2, 4\n");
    expect_reject(
        &["sweep", "--spec", spec.to_str().expect("utf-8")],
        "unknown flag --queries for incast",
    );
}

// ---------------------------------------------------------------------------
// The figure subcommand: ids and flags checked whole before anything runs
// ---------------------------------------------------------------------------

/// `wsc_sim figure <args>` writing into a fresh directory of its own.
fn figure(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("wsc_sim_cli_figure_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = wsc_sim()
        .arg("figure")
        .args(args)
        .env("DIABLO_RESULTS", &dir)
        .output()
        .expect("spawn wsc_sim");
    (out, dir)
}

/// A command line no figure can run exits 2 and writes nothing: the typo the
/// per-figure binaries silently ignored, a flag the named figure does not
/// read, an unknown id (the message lists the ids), no id at all.
#[test]
fn figure_rejects_what_it_cannot_run_before_writing_anything() {
    for (tag, args, needle) in [
        ("typo", &["fig14_kernel", "--request", "5"][..], "unknown flag --request for figure"),
        (
            "unread",
            &["fig14_kernel", "--iterations", "5"],
            "--iterations is read by fig06a_incast_1g",
        ),
        ("unread_all", &["all", "--topology", "tree"], "unknown flag --topology for figure"),
        (
            "nosuch",
            &["tab01_survey", "nosuch"],
            "unknown figure nosuch (all, or any of tab01_survey",
        ),
        ("noid", &[], "fig15_memcached_version"),
        ("noid_flag", &["--racks", "2"], "usage: wsc_sim figure <id>...|all"),
        ("zero", &["all", "--requests", "0"], "--requests must be at least 1"),
    ] {
        let (out, dir) = figure(tag, args);
        assert_eq!(out.status.code(), Some(2), "figure {args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "figure {args:?}: {}", stderr(&out));
        assert!(!dir.exists(), "figure {args:?} wrote into {}", dir.display());
    }
}

/// Each figure takes exactly the flags its row of `FIGURES` declares: a
/// declared one is applied (its bad value is the error), any other figure
/// flag is refused by name.
#[test]
fn each_figure_reads_exactly_the_flags_it_declares() {
    use diablo_bench::figures::FIGURES;
    let mut flags: Vec<&str> = FIGURES.iter().flat_map(|f| f.flags).copied().collect();
    flags.sort_unstable();
    flags.dedup();
    assert_eq!(flags.len(), 16, "the figure flags: {flags:?}");
    for f in FIGURES {
        for flag in &flags {
            // A switch takes no value: it rides with a value flag that every
            // figure declaring the switch declares too.
            let args = match *flag {
                "--full" => vec![f.id, flag, "--requests", "x"],
                "--fine" => vec![f.id, flag, "--iterations", "x"],
                _ => vec![f.id, flag, "x"],
            };
            let (out, _) = figure("flags", &args);
            let declared = f.flags.contains(flag);
            let needle = if declared { "has invalid value \"x\"" } else { "none of them named" };
            assert_eq!(out.status.code(), Some(2), "{} {flag}: {}", f.id, stderr(&out));
            assert!(stderr(&out).contains(needle), "{} {flag}: {}", f.id, stderr(&out));
        }
    }
}

/// With `all`, a flag applies to the figures that declare it: accepted
/// though most do not. A failed write is `error:` and exit 1, not a panic.
#[test]
fn figure_all_applies_a_flag_where_declared_and_reports_an_unwritable_directory() {
    let file = std::env::temp_dir().join("wsc_sim_cli_figure_not_a_dir");
    std::fs::write(&file, "").expect("write file");
    let out = wsc_sim()
        .args(["figure", "tab01_survey", "tab02_fpga_resources", "--threads", "16"])
        .env("DIABLO_RESULTS", file.join("results"))
        .output()
        .expect("spawn wsc_sim");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("error: cannot write"), "{}", stderr(&out));

    // Five requests per client keep sixteen figures to seconds in a debug build.
    let (out, dir) = figure("all", &["all", "--requests", "5"]);
    assert!(out.status.success(), "figure all --requests 5: {}", stderr(&out));
    assert_eq!(std::fs::read_dir(&dir).expect("results dir").count(), 16);
    // fig06a declares no --requests: it ran at its defaults.
    let pinned = repo_root().join("results/fig06a_incast_1g.csv");
    assert_eq!(
        std::fs::read(dir.join("fig06a_incast_1g.csv")).expect("written csv"),
        std::fs::read(pinned).expect("checked-in csv")
    );
}
