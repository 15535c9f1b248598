//! The benchmark's own arithmetic: order statistics over repetitions, the
//! marginal steady-state cost, and the digest that pins simulated results.

/// First quartile, median and third quartile of `values`, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method), so a spread printed here can be compared with one computed
/// from the JSON output. Two values extrapolate, as Python does; a single
/// value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice: every metric is taken over at least one
/// repetition.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no repetitions");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median(&v), cut(3))
}

/// Median of `values` (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Steady-state marginal cost per operation in microseconds: what one
/// more simulated operation costs the host once the fixed set-up cost is
/// paid. Unlike events/s it does not move when a change alters how many
/// events an operation takes.
pub fn marginal_us_per_op(wall_s: f64, setup_s: f64, ops_full: u64, ops_probe: u64) -> f64 {
    assert!(ops_full > ops_probe, "the full repetition must do more operations than the probe");
    (wall_s - setup_s) * 1e6 / (ops_full - ops_probe) as f64
}

/// FNV-1a over `bytes`, the scrape digest: equal digests mean every
/// simulated statistic in the scrape is identical.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([2, 4, 8], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[8.0, 2.0, 4.0]), (2.0, 4.0, 8.0));
    }

    #[test]
    fn marginal_cost_subtracts_setup_and_probe_ops() {
        // 3 s full, 1 s set-up, 1,001,000 vs 1,000 ops: 2 s over 1M ops.
        assert!((marginal_us_per_op(3.0, 1.0, 1_001_000, 1_000) - 2.0).abs() < 1e-12);
        // Doubling events per op at the same host time leaves it unchanged:
        // it depends on ops and seconds only.
        assert_eq!(marginal_us_per_op(2.0, 0.5, 200, 100), 15_000.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
