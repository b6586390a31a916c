//! Zipf catalog generator: a ranked object population with power-law
//! popularity.
//!
//! Web-cache request streams are famously Zipfian — the `r`-th most
//! popular object draws a fraction of requests proportional to
//! `1 / r^s` with `s ≈ 1` (Breslau et al., INFOCOM'99). The live-proxy
//! benchmark (`benchmark/`, workload `hot_hit`) and the trace layer share
//! this generator so both sides agree on the catalog paths and the
//! popularity law: a seeded catalog is deterministic, and independent
//! request streams are drawn from caller-provided [`SimRng`] forks so
//! two runs can replay the *identical* sequence.

use mutcon_sim::rng::SimRng;

use crate::model::TraceError;

/// Builder for a [`ZipfCatalog`].
#[derive(Debug, Clone)]
pub struct ZipfCatalogBuilder {
    objects: usize,
    exponent: f64,
    prefix: String,
    seed: u64,
}

impl ZipfCatalogBuilder {
    /// Starts building a catalog of `objects` ranked paths.
    pub fn new(objects: usize) -> Self {
        ZipfCatalogBuilder {
            objects,
            exponent: 1.0,
            prefix: "/zipf".to_string(),
            seed: 0,
        }
    }

    /// Sets the Zipf exponent `s` (default 1.0 — the classic web law).
    pub fn exponent(mut self, s: f64) -> Self {
        self.exponent = s;
        self
    }

    /// Sets the path prefix (default `/zipf`, yielding `/zipf/0000`,
    /// `/zipf/0001`, … in rank order).
    pub fn prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Sets the catalog seed — the root for [`ZipfCatalog::stream_rng`]
    /// forks, so the whole experiment is pinned by one number.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the catalog: per-rank probabilities `r^-s / H` (where `H`
    /// is the generalized harmonic normalizer) and their running sum for
    /// inverse-CDF sampling.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for an empty catalog or a non-finite /
    /// negative exponent.
    pub fn build(self) -> Result<ZipfCatalog, TraceError> {
        if self.objects == 0 {
            return Err(TraceError::InvalidWindow);
        }
        if !self.exponent.is_finite() || self.exponent < 0.0 {
            return Err(TraceError::OutOfRange { index: 0 });
        }
        let weights: Vec<f64> = (1..=self.objects)
            .map(|r| (r as f64).powf(-self.exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let digits = (self.objects - 1).max(1).to_string().len();
        let paths = (0..self.objects)
            .map(|i| format!("{}/{:0digits$}", self.prefix, i))
            .collect();
        Ok(ZipfCatalog {
            paths,
            cdf,
            seed: self.seed,
        })
    }
}

/// A ranked catalog of object paths with Zipf popularity.
///
/// Rank 0 is the hottest object. Sampling is by inverse CDF over a
/// caller-held [`SimRng`], so distinct streams (per connection, per
/// bench leg) fork deterministically from the catalog seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfCatalog {
    paths: Vec<String>,
    cdf: Vec<f64>,
    seed: u64,
}

impl ZipfCatalog {
    /// The path at `rank` (0 = hottest).
    pub fn path(&self, rank: usize) -> &str {
        &self.paths[rank]
    }

    /// An RNG for request stream `stream`, forked deterministically from
    /// the catalog seed: the same `(seed, stream)` pair always replays
    /// the identical request sequence, and distinct streams are
    /// independent.
    pub fn stream_rng(&self, stream: u64) -> SimRng {
        SimRng::seed_from_u64(self.seed).fork(stream)
    }

    /// Draws a rank from the Zipf law using `rng`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        // partition_point returns the first rank whose cumulative mass
        // reaches u; the final clamp absorbs floating-point shortfall in
        // the last CDF entry.
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.paths.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> ZipfCatalog {
        ZipfCatalogBuilder::new(512).seed(7).build().unwrap()
    }

    /// The popularity mass of `rank`: the expected request fraction.
    fn probability(c: &ZipfCatalog, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { c.cdf[rank - 1] };
        c.cdf[rank] - below
    }

    #[test]
    fn catalog_shape_and_paths() {
        let c = catalog();
        assert_eq!(c.paths.len(), 512);
        assert_eq!(c.path(0), "/zipf/000");
        assert_eq!(c.path(511), "/zipf/511");
        let ten = ZipfCatalogBuilder::new(10).prefix("/obj").build().unwrap();
        assert_eq!(ten.path(9), "/obj/9");
    }

    #[test]
    fn probabilities_follow_the_power_law() {
        let c = catalog();
        // s = 1: p(rank r) / p(rank 2r) = 2 exactly (same normalizer).
        for r in [0usize, 1, 3, 7, 100] {
            let ratio = probability(&c, r) / probability(&c, 2 * r + 1);
            let expected = (2 * r + 2) as f64 / (r + 1) as f64;
            assert!(
                (ratio - expected).abs() < 1e-9,
                "rank {r}: ratio {ratio} vs {expected}"
            );
        }
        let total: f64 = (0..c.paths.len()).map(|r| probability(&c, r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass sums to {total}");
    }

    #[test]
    fn empirical_rank_frequency_matches_expectation() {
        let c = catalog();
        let mut rng = c.stream_rng(0);
        let draws = 200_000usize;
        let mut counts = vec![0u64; c.paths.len()];
        for _ in 0..draws {
            counts[c.sample(&mut rng)] += 1;
        }
        // The head of the distribution must match the law within a few
        // percent at this sample size.
        for (r, &got) in counts.iter().enumerate().take(8) {
            let expected = probability(&c, r) * draws as f64;
            let got = got as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "rank {r}: {got} draws vs expected {expected}"
            );
        }
        // Monotone-ish overall: the top decile dwarfs the bottom decile.
        let head: u64 = counts[..51].iter().sum();
        let tail: u64 = counts[461..].iter().sum();
        assert!(head > tail * 10, "head {head} vs tail {tail}");
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let c = catalog();
        let seq = |stream: u64| {
            let mut rng = c.stream_rng(stream);
            (0..64).map(|_| c.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3), "same stream must replay identically");
        assert_ne!(seq(3), seq(4), "distinct streams must differ");
        let other = ZipfCatalogBuilder::new(512).seed(8).build().unwrap();
        let mut rng = other.stream_rng(3);
        let reseeded: Vec<usize> = (0..64).map(|_| other.sample(&mut rng)).collect();
        assert_ne!(seq(3), reseeded, "catalog seed must matter");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let c = ZipfCatalogBuilder::new(64).exponent(0.0).build().unwrap();
        for r in 0..64 {
            assert!((probability(&c, r) - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn validation_errors() {
        assert!(ZipfCatalogBuilder::new(0).build().is_err());
        assert!(ZipfCatalogBuilder::new(8)
            .exponent(f64::NAN)
            .build()
            .is_err());
        assert!(ZipfCatalogBuilder::new(8).exponent(-1.0).build().is_err());
    }

    #[test]
    fn sample_handles_cdf_edge() {
        // A single-object catalog always returns rank 0 even when the
        // uniform draw lands at the very top of the CDF.
        let c = ZipfCatalogBuilder::new(1).build().unwrap();
        let mut rng = c.stream_rng(0);
        for _ in 0..100 {
            assert_eq!(c.sample(&mut rng), 0);
        }
    }
}
