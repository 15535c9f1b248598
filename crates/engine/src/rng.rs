//! Deterministic pseudo-random number generation.
//!
//! DIABLO's headline property is *repeatable, deterministic experiments*
//! (§1). Every stochastic model component therefore draws from an in-crate
//! xoshiro256** generator seeded through SplitMix64, so results are identical
//! across platforms, Rust versions and dependency upgrades. Components derive
//! independent streams from a master seed plus a stable stream id, which
//! keeps per-component randomness independent of event interleaving — a
//! prerequisite for serial and partition-parallel runs to agree.

/// Deterministic xoshiro256** PRNG.
///
/// # Examples
///
/// ```
/// use diablo_engine::rng::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0, 0, 0, 0] {
            s = [0xDEAD_BEEF, 1, 2, 3];
        }
        DetRng { s }
    }

    /// The raw xoshiro256** state, for snapshotting. Restoring through
    /// [`DetRng::from_state`] resumes the sequence exactly.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`DetRng::state`] snapshot.
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }

    /// Derives an independent stream for a sub-component.
    ///
    /// The same `(seed, stream)` pair always produces the same stream, and
    /// distinct stream ids produce decorrelated sequences.
    pub fn derive(&self, stream: u64) -> DetRng {
        // Mix the current state with the stream id through SplitMix64.
        let mixed = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(mixed ^ (stream << 1 | 1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]`; safe as a log() argument.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below with zero bound");
        // Widening multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive with lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.next_below(items.len() as u64) as usize])
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid exponential mean: {mean}");
        -mean * self.next_f64_open().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_stable_and_distinct() {
        let root = DetRng::new(99);
        let mut s1a = root.derive(1);
        let mut s1b = root.derive(1);
        let mut s2 = root.derive(2);
        assert_eq!(s1a.next_u64(), s1b.next_u64());
        let mut s1 = root.derive(1);
        let matches = (0..64).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.next_below(10) as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow generous 10% deviation.
            assert!((9_000..11_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut r = DetRng::new(11);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            match r.range_inclusive(4, 6) {
                4 => seen_lo = true,
                6 => seen_hi = true,
                5 => {}
                other => panic!("out of range value {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(13);
        let n = 200_000;
        let mean = 42.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < mean * 0.02, "observed mean {observed}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = DetRng::new(19);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]).copied(), Some(42));
    }
}
