//! Statistical workload generation.
//!
//! "Simple microbenchmark tools like memslap do not attempt to reproduce
//! the statistical characteristics of real traffic. To provide a more
//! realistic workload, we built our own client based on recently published
//! Facebook live traffic statistics" (§4.2). This module implements the
//! distribution family fitted by Atikoglu et al. (SIGMETRICS'12) for the
//! ETC memcached pool:
//!
//! * key sizes — Generalized Extreme Value (µ=30.7984, σ=8.20449,
//!   ξ=0.078688);
//! * value sizes — Generalized Pareto (µ=0, σ=214.476, ξ=0.348238),
//!   clamped to memcached's 1 MB object limit;
//! * key popularity — Zipf-like;
//! * GET:SET ratio ≈ 30:1 for ETC.
//!
//! All samplers draw from the deterministic [`DetRng`] so workloads replay
//! exactly.

use diablo_engine::rng::DetRng;
use std::sync::{Arc, Mutex};

/// Generalized Extreme Value distribution sampler (inverse-CDF method).
///
/// # Examples
///
/// ```
/// use diablo_apps::workload::Gev;
/// use diablo_engine::rng::DetRng;
/// let gev = Gev::etc_key_sizes();
/// let mut rng = DetRng::new(1);
/// let k = gev.sample(&mut rng);
/// assert!(k > 0.0 && k < 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gev {
    /// Location.
    pub mu: f64,
    /// Scale (must be positive).
    pub sigma: f64,
    /// Shape.
    pub xi: f64,
}

impl Gev {
    /// Creates a GEV sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Gev { mu, sigma, xi }
    }

    /// The Facebook ETC key-size fit.
    pub fn etc_key_sizes() -> Self {
        Gev::new(30.7984, 8.20449, 0.078688)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = rng.next_f64_open();
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * (-u.ln()).ln()
        } else {
            self.mu + self.sigma * ((-u.ln()).powf(-self.xi) - 1.0) / self.xi
        }
    }

    /// Value at quantile `q` (the inverse CDF; useful for deterministic
    /// per-key assignments).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * (-q.ln()).ln()
        } else {
            self.mu + self.sigma * ((-q.ln()).powf(-self.xi) - 1.0) / self.xi
        }
    }
}

/// Generalized Pareto distribution sampler.
///
/// # Examples
///
/// ```
/// use diablo_apps::workload::GeneralizedPareto;
/// use diablo_engine::rng::DetRng;
/// let gp = GeneralizedPareto::etc_value_sizes();
/// let mut rng = DetRng::new(2);
/// assert!(gp.sample(&mut rng) >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    /// Location.
    pub mu: f64,
    /// Scale (must be positive).
    pub sigma: f64,
    /// Shape.
    pub xi: f64,
}

impl GeneralizedPareto {
    /// Creates a GP sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        GeneralizedPareto { mu, sigma, xi }
    }

    /// The Facebook ETC value-size fit.
    pub fn etc_value_sizes() -> Self {
        GeneralizedPareto::new(0.0, 214.476, 0.348238)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        self.quantile(rng.next_f64_open())
    }

    /// Value at quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        let tail = 1.0 - q;
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * tail.ln()
        } else {
            self.mu + self.sigma * (tail.powf(-self.xi) - 1.0) / self.xi
        }
    }
}

/// Zipf-distributed ranks over `1..=n` via a precomputed cumulative table.
///
/// The table depends only on `(n, s)`, so every sampler built with equal
/// parameters shares one allocation: a paper-scale run has ~1,000 clients
/// over the same 100,000-key space, and a private 800 KB table each was
/// most of the run's set-up time and resident memory.
///
/// # Examples
///
/// ```
/// use diablo_apps::workload::Zipf;
/// use diablo_engine::rng::DetRng;
/// let z = Zipf::new(1000, 0.99);
/// let mut rng = DetRng::new(3);
/// let r = z.sample(&mut rng);
/// assert!((1..=1000).contains(&r));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// Built tables, each with its exponent's bits (`n` is the table's length);
/// equal `(n, exponent)` requests share one. The list owns its entries, so
/// a table survives between one cluster's teardown and the next one's
/// set-up; a table nobody samples from is dropped when a *different* one is
/// next built, which bounds what the list alone keeps alive. Clients are
/// built concurrently by sweep jobs and parallel workers, hence the lock
/// (held across a build so two racing requests cannot both allocate).
static ZIPF_TABLES: Mutex<Vec<(u64, Arc<[f64]>)>> = Mutex::new(Vec::new());

impl Zipf {
    /// Creates a Zipf sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(s >= 0.0, "exponent must be nonnegative");
        // A poisoned lock only means another builder panicked; entries are
        // immutable once pushed, so the list is still valid.
        let mut tables = ZIPF_TABLES.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, cdf)) = tables.iter().find(|(ts, t)| *ts == s.to_bits() && t.len() == n) {
            return Zipf { cdf: Arc::clone(cdf) };
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let cdf: Arc<[f64]> = cdf.into();
        tables.retain(|(_, unused)| Arc::strong_count(unused) > 1);
        tables.push((s.to_bits(), Arc::clone(&cdf)));
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if the rank space is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("NaN in CDF")) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// A log-normal sampler (Box–Muller over the deterministic RNG).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Std-dev of the underlying normal (must be positive).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// One key-value operation from the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key`; the reply carries the value.
    Get {
        /// Key identity.
        key: u64,
        /// Serialized key bytes.
        key_size: u32,
    },
    /// Write `key` with a value of `value_size` bytes.
    Set {
        /// Key identity.
        key: u64,
        /// Serialized key bytes.
        key_size: u32,
        /// Value bytes.
        value_size: u32,
    },
}

impl KvOp {
    /// The operation's key.
    pub fn key(&self) -> u64 {
        match self {
            KvOp::Get { key, .. } | KvOp::Set { key, .. } => *key,
        }
    }

    /// Request bytes on the wire (protocol overhead + key, + value for
    /// SETs).
    pub fn request_size(&self) -> u32 {
        const PROTO_OVERHEAD: u32 = 24;
        match self {
            KvOp::Get { key_size, .. } => PROTO_OVERHEAD + key_size,
            KvOp::Set { key_size, value_size, .. } => PROTO_OVERHEAD + key_size + value_size,
        }
    }
}

/// Memcached's object size limit.
pub const MAX_VALUE: u32 = 1024 * 1024;

/// Deterministic value size for a key: the key's hash picks a quantile of
/// the ETC value-size distribution. Every node computes the same size for
/// the same key, so GETs of never-written keys still return
/// distribution-faithful payloads (a pre-warmed cache).
pub fn etc_value_size_for_key(key: u64) -> u32 {
    // SplitMix64 finalizer as the hash.
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let q = ((z >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-9, 1.0 - 1e-9);
    let v = GeneralizedPareto::etc_value_sizes().quantile(q);
    (v.round().max(1.0) as u32).min(MAX_VALUE)
}

/// The Facebook-ETC-style key-value workload generator.
///
/// # Examples
///
/// ```
/// use diablo_apps::workload::{EtcWorkload, KvOp};
/// use diablo_engine::rng::DetRng;
/// let mut w = EtcWorkload::new(DetRng::new(9), 10_000);
/// match w.next_op() {
///     KvOp::Get { key_size, .. } => assert!(key_size >= 1),
///     KvOp::Set { value_size, .. } => assert!(value_size >= 1),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct EtcWorkload {
    rng: DetRng,
    keys: Zipf,
    key_sizes: Gev,
    /// Probability that an operation is a GET (ETC ≈ 30:1).
    pub get_fraction: f64,
}

impl EtcWorkload {
    /// Creates a generator over a key space of `keyspace` keys.
    pub fn new(rng: DetRng, keyspace: usize) -> Self {
        EtcWorkload {
            rng,
            keys: Zipf::new(keyspace.max(1), 0.99),
            key_sizes: Gev::etc_key_sizes(),
            get_fraction: 30.0 / 31.0,
        }
    }

    /// Deterministic key size for a key id.
    fn key_size_for(&self, key: u64) -> u32 {
        let mut z = key.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xABCD;
        z ^= z >> 32;
        let q = (((z << 11) >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-9, 1.0 - 1e-9);
        (self.key_sizes.quantile(q).round().max(1.0) as u32).min(250)
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let key = self.keys.sample(&mut self.rng) as u64;
        let key_size = self.key_size_for(key);
        if self.rng.chance(self.get_fraction) {
            KvOp::Get { key, key_size }
        } else {
            KvOp::Set { key, key_size, value_size: etc_value_size_for_key(key) }
        }
    }
}

diablo_engine::impl_snap_enum!(KvOp {
    0 => Get { key, key_size },
    1 => Set { key, key_size, value_size },
});

// Only the RNG evolves; the Zipf table and size fits are derived from the
// keyspace at construction (and the table can run to hundreds of
// kilobytes, so it must not ride every client's snapshot).
diablo_engine::impl_persist_fields!(EtcWorkload {
    rng,
    keys: config,
    key_sizes: config,
    get_fraction: config,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gev_mean_is_plausible_for_etc_keys() {
        // ETC keys: median ~ low 30s bytes.
        let gev = Gev::etc_key_sizes();
        let mut rng = DetRng::new(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| gev.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((30.0..45.0).contains(&mean), "mean key size {mean}");
        let med = gev.quantile(0.5);
        assert!((30.0..40.0).contains(&med), "median key size {med}");
    }

    #[test]
    fn gp_value_sizes_are_heavy_tailed() {
        let gp = GeneralizedPareto::etc_value_sizes();
        let med = gp.quantile(0.5);
        let p99 = gp.quantile(0.99);
        assert!(med < 300.0, "median {med}");
        assert!(p99 > 1_000.0, "p99 {p99}");
        assert!(p99 / med > 10.0, "tail must dominate: {p99}/{med}");
    }

    #[test]
    fn gp_quantile_monotone_and_sampler_matches() {
        let gp = GeneralizedPareto::etc_value_sizes();
        let mut last = 0.0;
        for i in 1..100 {
            let q = gp.quantile(i as f64 / 100.0);
            assert!(q >= last);
            last = q;
        }
        let mut rng = DetRng::new(5);
        for _ in 0..10_000 {
            assert!(gp.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = DetRng::new(7);
        let mut counts = vec![0u32; 101];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!((1..=100).contains(&r));
            counts[r] += 1;
        }
        assert!(counts[1] > counts[50] * 5, "rank 1 must dominate rank 50");
        assert!(counts[1] > counts[100] * 10);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    /// The table as every client used to build it for itself. Test-only:
    /// the reference the shared table is compared against.
    fn private_zipf(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf: cdf.into() }
    }

    #[test]
    fn shared_table_leaves_the_op_stream_unchanged() {
        for seed in [1, 7, 0xD1AB10] {
            let mut shared = EtcWorkload::new(DetRng::new(seed), 100_000);
            let mut private = EtcWorkload {
                keys: private_zipf(100_000, 0.99),
                ..EtcWorkload::new(DetRng::new(seed), 1)
            };
            assert!(!Arc::ptr_eq(&shared.keys.cdf, &private.keys.cdf));
            for i in 0..10_000 {
                assert_eq!(shared.next_op(), private.next_op(), "seed {seed}, op {i}");
            }
        }
    }

    #[test]
    fn equal_parameters_share_one_table() {
        let a = Zipf::new(100_000, 0.99);
        let b = Zipf::new(100_000, 0.99);
        assert!(Arc::ptr_eq(&a.cdf, &b.cdf));
        // Clients are built concurrently by sweep jobs and parallel
        // workers; `a` is alive throughout, so both threads must find it.
        let tables: Vec<Zipf> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..2).map(|_| s.spawn(|| Zipf::new(100_000, 0.99))).collect();
            spawned.into_iter().map(|h| h.join().expect("builder thread panicked")).collect()
        });
        for t in &tables {
            assert!(Arc::ptr_eq(&a.cdf, &t.cdf));
        }
        // Two clients of one cluster, through the public constructor.
        let w1 = EtcWorkload::new(DetRng::new(1), 100_000);
        let w2 = EtcWorkload::new(DetRng::new(2), 100_000);
        assert!(Arc::ptr_eq(&w1.keys.cdf, &w2.keys.cdf));
        assert!(Arc::ptr_eq(&w1.keys.cdf, &a.cdf));
    }

    #[test]
    fn different_parameters_do_not_alias() {
        let base = Zipf::new(5_000, 0.99);
        let other_n = Zipf::new(5_001, 0.99);
        let other_s = Zipf::new(5_000, 0.9);
        assert!(!Arc::ptr_eq(&base.cdf, &other_n.cdf));
        assert!(!Arc::ptr_eq(&base.cdf, &other_s.cdf));
        assert_eq!(other_n.len(), 5_001);
        assert_eq!(base, private_zipf(5_000, 0.99));
        assert_eq!(other_s, private_zipf(5_000, 0.9));
        assert_ne!(base, other_s);
    }

    #[test]
    fn lognormal_positive() {
        let ln = LogNormal::new(0.0, 1.0);
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn etc_mix_is_mostly_gets() {
        let mut w = EtcWorkload::new(DetRng::new(13), 10_000);
        let n = 50_000;
        let gets = (0..n).filter(|_| matches!(w.next_op(), KvOp::Get { .. })).count();
        let frac = gets as f64 / n as f64;
        assert!((0.95..0.985).contains(&frac), "GET fraction {frac}");
    }

    #[test]
    fn value_sizes_are_deterministic_per_key() {
        assert_eq!(etc_value_size_for_key(42), etc_value_size_for_key(42));
        assert!(etc_value_size_for_key(1) >= 1);
        // Across many keys: heavy tail visible.
        let sizes: Vec<u32> = (0..10_000).map(etc_value_size_for_key).collect();
        let max = *sizes.iter().max().unwrap();
        let mean = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        assert!(max as f64 > mean * 10.0, "max {max} mean {mean}");
        assert!(max <= MAX_VALUE);
    }

    #[test]
    fn workload_replays_exactly() {
        let mut w = EtcWorkload::new(DetRng::new(3), 100);
        let a: Vec<KvOp> = (0..50).map(|_| w.next_op()).collect();
        let mut w2 = EtcWorkload::new(DetRng::new(3), 100);
        let b: Vec<KvOp> = (0..50).map(|_| w2.next_op()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn request_sizes_include_overhead() {
        let g = KvOp::Get { key: 1, key_size: 30 };
        assert_eq!(g.request_size(), 54);
        let s = KvOp::Set { key: 1, key_size: 30, value_size: 100 };
        assert_eq!(s.request_size(), 154);
        assert_eq!(g.key(), 1);
    }
}
