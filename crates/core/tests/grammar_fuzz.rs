//! The three text grammars take files a user wrote: whatever the bytes,
//! `FaultPlan::parse`, `ArrivalSpec::parse` and `SweepSpec::parse` return
//! `Ok` or an error that names a line of the input — they never panic.
//! Inputs are arbitrary bytes (read the way the CLI reads a file that is
//! not UTF-8, lossily) and every spec file the repo ships (`scenarios/`
//! and the benchmark's sweep) with one token swapped for a hostile one.

use diablo_apps::arrival::{ArrivalError, ArrivalSpec};
use diablo_core::fault::{FaultPlan, FaultPlanError};
use diablo_core::sweep::{SweepError, SweepSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::catch_unwind;

const SCENARIOS: [&str; 6] = [
    include_str!("../../../scenarios/link_flap.fplan"),
    include_str!("../../../scenarios/rolling_crash.fplan"),
    include_str!("../../../scenarios/switch_outage.fplan"),
    include_str!("../../../scenarios/diurnal.arrv"),
    include_str!("../../../scenarios/paper_grid.sweep"),
    include_str!("../../../benchmark/sweep_ckpt_grid.sweep"),
];

/// Tokens that are each wrong somewhere: durations at and past the end of
/// the picosecond clock (`u64::MAX` ps is 18,446,744.07 s), counts that
/// overflow a product, non-finite and negative numbers, keywords out of
/// place, and punctuation the grammars split on.
const HOSTILE: [&str; 28] = [
    "18446744s",
    "18446745s",
    "20000000s",
    "1e30s",
    "18446744073709551615ns",
    "9000000s",
    "0s",
    "NaNms",
    "infs",
    "-5ms",
    "5",
    "ms",
    "repeat",
    "x2",
    "x4000000000",
    "x4294967296",
    "reboot=18000000s",
    "reboot=",
    "=",
    "bandwidth=1e-320",
    "node4294967295",
    "node-crash",
    "poisson",
    "1e308",
    "axis",
    "warm",
    ",",
    "#",
];

/// Every parse outcome, reduced to what the contract is about.
enum Outcome {
    Ok,
    /// An error that names this 1-based line.
    AtLine(usize),
    /// An error about the file as a whole (no phases, no `scenario`).
    WholeFile,
}

fn fault_plan(text: &str) -> Outcome {
    match FaultPlan::parse(text) {
        Ok(_) => Outcome::Ok,
        Err(FaultPlanError::Parse { line, .. }) => Outcome::AtLine(line),
        Err(other) => panic!("FaultPlan::parse returned an apply-time error: {other}"),
    }
}

fn arrival_spec(text: &str) -> Outcome {
    match ArrivalSpec::parse(text) {
        Ok(_) => Outcome::Ok,
        Err(ArrivalError::Parse { line, .. }) => Outcome::AtLine(line),
        Err(ArrivalError::Empty) => Outcome::WholeFile,
    }
}

fn sweep_spec(text: &str) -> Outcome {
    match SweepSpec::parse(text) {
        Ok(_) => Outcome::Ok,
        Err(SweepError::Parse { line, .. }) => Outcome::AtLine(line),
        Err(SweepError::Invalid(_)) => Outcome::WholeFile,
        Err(other) => panic!("SweepSpec::parse returned a run-time error: {other}"),
    }
}

/// Feeds `text` to all three grammars: a file of one kind handed to the
/// flag of another is an input too.
fn parses_or_names_a_line(text: &str) -> Result<(), TestCaseError> {
    let lines = text.lines().count();
    type Parser = fn(&str) -> Outcome;
    let grammars: [(&str, Parser); 3] =
        [("fplan", fault_plan), ("arrv", arrival_spec), ("sweep", sweep_spec)];
    for (name, parse) in grammars {
        match catch_unwind(|| parse(text)) {
            Err(_) => return Err(TestCaseError::fail(format!("the {name} parser panicked"))),
            Ok(Outcome::AtLine(line)) => {
                prop_assert!(
                    (1..=lines).contains(&line),
                    "the {} parser blamed line {} of {}",
                    name,
                    line,
                    lines
                );
            }
            Ok(Outcome::Ok | Outcome::WholeFile) => {}
        }
    }
    Ok(())
}

/// `text` with its comments stripped and the `pick`-th token (counting
/// through the file, wrapping) replaced by `with`.
fn swap_token(text: &str, pick: usize, with: &str) -> String {
    let lines: Vec<Vec<&str>> = text
        .lines()
        .map(|raw| raw.split('#').next().unwrap_or("").split_whitespace().collect())
        .collect();
    let tokens = lines.iter().map(Vec::len).sum::<usize>();
    let mut countdown = pick % tokens;
    let mut out = String::new();
    for line in lines {
        for tok in line {
            out.push_str(if countdown == 0 { with } else { tok });
            out.push(' ');
            countdown = countdown.wrapping_sub(1);
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_name_a_line(bytes in vec(any::<u8>(), 0..200)) {
        parses_or_names_a_line(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn one_swapped_token_parses_or_names_a_line(
        file in 0usize..SCENARIOS.len(),
        pick in any::<usize>(),
        with in 0usize..HOSTILE.len() + 1,
        junk in vec(any::<u8>(), 0..12),
    ) {
        let junk = String::from_utf8_lossy(&junk);
        let with = HOSTILE.get(with).copied().unwrap_or(junk.as_ref());
        parses_or_names_a_line(&swap_token(SCENARIOS[file], pick, with))?;
    }
}
