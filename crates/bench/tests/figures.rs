//! The figure table against the checked-in `results/`: every row of
//! `FIGURES` has its CSV there, under the header the row declares, and the
//! rows cheap enough for a debug build reproduce theirs byte for byte (CI
//! holds all sixteen to that in release: `wsc_sim figure all`, then `cmp`).

use diablo_bench::figures::{FigOpts, Figure, FIGURES};
use std::path::Path;

fn checked_in(f: &Figure) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{}.csv", f.id));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_figure_has_a_checked_in_csv_under_its_declared_header() {
    let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), FIGURES.len(), "figure ids (and so CSV names) are unique");
    for f in FIGURES {
        let csv = checked_in(f);
        // A header cell that holds a comma would be quoted; none does.
        assert_eq!(csv.lines().next(), Some(f.columns), "results/{}.csv", f.id);
    }
}

/// Every figure at its defaults but the four scale sweeps, which take a
/// debug build most of a minute.
#[test]
fn figures_reproduce_their_checked_in_csv() {
    let sweeps =
        ["fig11_scale_tail", "fig12_switch_latency", "fig13_tcp_vs_udp", "fig15_memcached_version"];
    for f in FIGURES.iter().filter(|f| !sweeps.contains(&f.id)) {
        let out = (f.run)(&FigOpts::default()).unwrap_or_else(|e| panic!("{}: {e}", f.id));
        let csv = f.csv(out.rows).to_csv();
        assert_eq!(csv, checked_in(f), "{0}: re-pin with `wsc_sim figure {0}` and say why", f.id);
    }
}
