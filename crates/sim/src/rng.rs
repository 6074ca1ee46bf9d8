//! Deterministic pseudo-randomness.
//!
//! The library must be bit-for-bit reproducible across runs and platforms:
//! randomized selector families are instantiated from *fixed seeds that are
//! part of the protocol* (every node derives the same family), and all
//! experiments are seeded. We therefore ship a tiny, well-understood
//! generator (SplitMix64, Steele et al. 2014) instead of depending on an
//! external RNG crate whose stream could change between versions.

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
///
/// This is the reference algorithm from Steele, Lea & Flood, "Fast
/// splittable pseudorandom number generators" (OOPSLA 2014).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless 64-bit mix of a seed and a sequence of words.
///
/// Used for O(1) membership tests of randomized selector families: the
/// family is *defined* as `member(round, id) ⇔ hash64(seed, &[round, id]) <
/// threshold`, so no set is ever materialized.
#[inline]
pub fn hash64(seed: u64, words: &[u64]) -> u64 {
    let mut s = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut acc = splitmix64(&mut s);
    for &w in words {
        let mut t = acc ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc = splitmix64(&mut t);
    }
    acc
}

/// Stateless Bernoulli trial: true with probability `p`, decided by
/// hashing `seed` and `words`. The dynamics subsystem's churn schedules
/// are *defined* through this — "node `v` crashes in epoch `e` iff
/// `hash_chance(seed, &[e, v], p)`" — so every component (and every
/// re-run) sees the same deterministic event stream without materializing
/// it.
#[inline]
pub fn hash_chance(seed: u64, words: &[u64], p: f64) -> bool {
    ((hash64(seed, words) >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// A small deterministic PRNG (SplitMix64 stream).
///
/// ```
/// use dcluster_sim::rng::Rng64;
/// let mut a = Rng64::new(1);
/// let mut b = Rng64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64 requires n > 0");
        // Lemire-style rejection-free for our (non-cryptographic) purposes:
        // widening multiply keeps bias below 2^-64, irrelevant here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn range_usize(&mut self, n: usize) -> usize {
        self.range_u64(n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller (one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct values from `0..n` (k ≤ n), in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!(
            k as u64 <= n,
            "cannot sample {k} distinct values from 0..{n}"
        );
        if (k as u64) * 3 >= n {
            // Dense case: shuffle a full range prefix.
            let mut all: Vec<u64> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all
        } else {
            // Sparse case: rejection sampling with a set.
            let mut seen = std::collections::HashSet::with_capacity(k * 2); // lint:allow(D1, reason = "rejection-sampling dedup; output order set by the draw sequence")
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let v = self.range_u64(n);
                if seen.insert(v) {
                    out.push(v);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 0 from the public-domain C version.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        let mut c = Rng64::new(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_in_bounds_and_roughly_uniform() {
        let mut r = Rng64::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.range_usize(10)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn sample_distinct_yields_distinct_values() {
        let mut r = Rng64::new(5);
        for &(n, k) in &[(100u64, 10usize), (20, 20), (1_000_000, 50)] {
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(9);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut r = Rng64::new(123);
        let n = 50_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.next_gaussian();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn hash_chance_hits_its_probability() {
        let mut hits = 0usize;
        for e in 0..1000u64 {
            for v in 0..100u64 {
                if hash_chance(42, &[e, v], 0.1) {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate} far from 0.1");
        assert!(!hash_chance(1, &[2, 3], 0.0));
        assert!(hash_chance(1, &[2, 3], 1.0));
        assert_eq!(hash_chance(1, &[2, 3], 0.5), hash_chance(1, &[2, 3], 0.5));
    }

    #[test]
    fn hash64_depends_on_all_words() {
        let a = hash64(1, &[1, 2, 3]);
        assert_ne!(a, hash64(1, &[1, 2, 4]));
        assert_ne!(a, hash64(1, &[0, 2, 3]));
        assert_ne!(a, hash64(2, &[1, 2, 3]));
        assert_eq!(a, hash64(1, &[1, 2, 3]));
    }
}
