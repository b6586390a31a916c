//! Seeded randomness for reproducible simulations.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! created from an explicit `u64` seed, so a given (seed, configuration)
//! pair always produces the same trace, the same poll sequence and the
//! same experiment numbers.
//!
//! The uniform source is an in-tree xoshiro256++ generator (seeded via
//! SplitMix64, the reference recommendation), and this module implements
//! the distributions the workload generators need — exponential
//! inter-arrival gaps and Box–Muller normals — so no randomness crate is
//! required at all.

/// The xoshiro256++ PRNG (Blackman & Vigna): fast, 256-bit state, more
/// than enough statistical quality for workload synthesis. Implemented
/// in-tree so the workspace builds offline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with SplitMix64, as the
    /// xoshiro reference code recommends (avoids the all-zero state).
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seeded random number generator with the distributions used by the
/// trace generators.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256pp,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; handy for giving each
    /// simulated object its own stream without cross-contamination.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream id into fresh entropy from this generator.
        let seed = self.inner.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// A uniform variate in `[0, 1)` (53-bit resolution).
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform variate in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        // Unbiased bounded sampling via 128-bit widening multiply
        // (Lemire's method).
        let range = hi - lo;
        let mut m = (self.inner.next_u64() as u128) * (range as u128);
        let mut low = m as u64;
        if low < range {
            let threshold = range.wrapping_neg() % range;
            while low < threshold {
                m = (self.inner.next_u64() as u128) * (range as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// `true` with probability `p` (clamped into `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponential variate with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive and finite, got {mean}"
        );
        // 1 − U ∈ (0, 1] avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// A normal variate via the Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "normal std_dev must be non-negative and finite, got {std_dev}"
        );
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
                let u2 = self.uniform();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.uniform_u64(0, items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed_from_u64(42);
        let mut parent2 = SimRng::seed_from_u64(42);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());
        let mut other = parent1.fork(2);
        assert_ne!(c1.uniform().to_bits(), other.uniform().to_bits());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let v = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let i = rng.uniform_u64(10, 20);
            assert!((10..20).contains(&i));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let mean = 42.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.05,
            "observed mean {observed}, expected ≈ {mean}"
        );
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = SimRng::seed_from_u64(29);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*rng.pick(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn pick_panics_on_empty() {
        let mut rng = SimRng::seed_from_u64(31);
        let empty: [u8; 0] = [];
        let _ = rng.pick(&empty);
    }

    #[test]
    #[should_panic(expected = "exponential mean")]
    fn exponential_rejects_bad_mean() {
        let mut rng = SimRng::seed_from_u64(37);
        let _ = rng.exponential(0.0);
    }
}
