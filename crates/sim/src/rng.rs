//! Deterministic random number generation for simulations.
//!
//! [`SimRng`] is a small SplitMix64 generator: fast, seedable, with good
//! statistical quality for simulation purposes, and — critically — stable
//! across platforms and library versions, so experiment outputs are exactly
//! reproducible from their seeds.

/// A seedable SplitMix64 random number generator with simulation-oriented
/// helpers.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// component its own stream so adding a component does not perturb the
    /// draws seen by the others.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_range: lo > hi");
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method for unbiased bounded draws.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential variate with the given mean; used for Poisson
    /// inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0 && mean.is_finite());
        let u = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// Normal variate (Box–Muller) with the given mean and standard
    /// deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Chooses an index in `[0, weights.len())` with probability
    /// proportional to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index over empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index over zero-sum weights");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// A Zipfian sampler over `[0, n)` with exponent `theta`.
///
/// Used by workload generators to produce skewed block popularity (hot/cold
/// data), which is what makes buffer caches and migration benefit analysis
/// interesting. Implemented by inverse-CDF on a precomputed table, so draws
/// are O(log n).
///
/// # Examples
///
/// ```
/// use nvhsm_sim::rng::Zipf;
/// use nvhsm_sim::SimRng;
/// let zipf = Zipf::new(100, 0.99);
/// let mut rng = SimRng::new(7);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `[0, n)` with skew `theta >= 0` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0 && theta.is_finite(), "invalid Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_gives_independent_stream() {
        let mut parent = SimRng::new(5);
        let mut child = parent.fork();
        // The child stream must not simply replay the parent's.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_bounded_and_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 each; allow generous tolerance.
            assert!((8_500..11_500).contains(&c), "counts: {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::new(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn weighted_index_prefers_heavier() {
        let mut rng = SimRng::new(19);
        let weights = [1.0, 9.0];
        let mut hits = [0usize; 2];
        for _ in 0..50_000 {
            hits[rng.weighted_index(&weights)] += 1;
        }
        let frac = hits[1] as f64 / 50_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn zipf_skews_to_low_indices() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = SimRng::new(29);
        let mut top10 = 0usize;
        let n = 50_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                top10 += 1;
            }
        }
        // With theta=0.99 and n=1000 the first 10 items carry ~38% of mass.
        let frac = top10 as f64 / n as f64;
        assert!(frac > 0.25, "frac = {frac}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SimRng::new(31);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "counts: {counts:?}");
        }
    }
}
