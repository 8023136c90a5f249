//! Offline shim for the `rand_distr` crate.
//!
//! Provides the three distributions the synthetic-trace generator draws
//! from — [`Exp`], [`Poisson`], and [`LogNormal`] — with the same
//! constructor/sample API as rand_distr. Sampling quality targets
//! statistical fidelity of the generated workload, not bit-compatibility
//! with upstream rand_distr streams.

#![forbid(unsafe_code)]

use rand::{RngCore, StandardUniform};

/// Types that can be sampled given a source of randomness.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error returned by distribution constructors on invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError(&'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

fn unit_open(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    // Uniform in (0, 1]: safe to pass through ln().
    1.0 - f64::sample_standard(rng)
}

/// Exponential distribution with rate `lambda` (mean `1 / lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    /// Fails if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if lambda.is_finite() && lambda > 0.0 {
            Ok(Self { lambda })
        } else {
            Err(ParamError("Exp rate must be finite and > 0"))
        }
    }
}

impl Distribution<f64> for Exp {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        -unit_open(rng).ln() / self.lambda
    }
}

/// Poisson distribution with mean `lambda`. Samples are returned as `f64`
/// to match rand_distr's API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// `exp(-lambda)`, the Knuth branch's stopping product.
    limit: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Errors
    /// Fails if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if lambda.is_finite() && lambda > 0.0 {
            Ok(Self {
                lambda,
                limit: (-lambda).exp(),
            })
        } else {
            Err(ParamError("Poisson mean must be finite and > 0"))
        }
    }
}

impl Distribution<f64> for Poisson {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lambda < 30.0 {
            // Knuth's product-of-uniforms method; exact for small means.
            let mut count = 0u64;
            let mut product = unit_open(rng);
            while product > self.limit {
                count += 1;
                product *= unit_open(rng);
            }
            count as f64
        } else {
            // Normal approximation with continuity correction: adequate for
            // the dense synthetic archetypes and O(1) at any rate.
            let z = standard_normal(rng);
            (self.lambda + self.lambda.sqrt() * z + 0.5)
                .floor()
                .max(0.0)
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma^2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the mean and standard
    /// deviation of the underlying normal.
    ///
    /// # Errors
    /// Fails if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if mu.is_finite() && sigma.is_finite() && sigma >= 0.0 {
            Ok(Self { mu, sigma })
        } else {
            Err(ParamError("LogNormal needs finite mu and sigma >= 0"))
        }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw via Box-Muller.
fn standard_normal(rng: &mut (impl RngCore + ?Sized)) -> f64 {
    let u1 = unit_open(rng);
    let u2 = f64::sample_standard(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mean_of(samples: impl Iterator<Item = f64>) -> (f64, usize) {
        let v: Vec<f64> = samples.collect();
        (v.iter().sum::<f64>() / v.len() as f64, v.len())
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = Exp::new(1.0 / 50.0).unwrap();
        let (mean, _) = mean_of((0..50_000).map(|_| d.sample(&mut rng)));
        assert!((45.0..55.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Poisson::new(1.0).unwrap();
        let (mean, _) = mean_of((0..50_000).map(|_| d.sample(&mut rng)));
        assert!((0.95..1.05).contains(&mean), "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_path() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = Poisson::new(200.0).unwrap();
        let (mean, _) = mean_of((0..20_000).map(|_| d.sample(&mut rng)));
        assert!((195.0..205.0).contains(&mean), "mean {mean}");
        assert!((0..1000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn poisson_draws_match_the_per_call_limit() {
        // The stopping product is computed once in `new`; every draw must
        // equal the one that recomputes `exp(-lambda)` on each call.
        fn per_call(lambda: f64, rng: &mut SmallRng) -> f64 {
            if lambda < 30.0 {
                let limit = (-lambda).exp();
                let mut count = 0u64;
                let mut product = unit_open(rng);
                while product > limit {
                    count += 1;
                    product *= unit_open(rng);
                }
                count as f64
            } else {
                let z = standard_normal(rng);
                (lambda + lambda.sqrt() * z + 0.5).floor().max(0.0)
            }
        }
        for (seed, lambda) in [1e-6, 0.5, 3.0, 29.9, 30.0, 200.0].into_iter().enumerate() {
            let d = Poisson::new(lambda).unwrap();
            let mut cached = SmallRng::seed_from_u64(seed as u64);
            let mut reference = SmallRng::seed_from_u64(seed as u64);
            for _ in 0..2000 {
                let got = d.sample(&mut cached);
                let want = per_call(lambda, &mut reference);
                assert_eq!(got.to_bits(), want.to_bits(), "lambda {lambda}");
            }
        }
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = SmallRng::seed_from_u64(4);
        let d = LogNormal::new(2.0, 1.5).unwrap();
        let mut v: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        let expect = 2.0f64.exp();
        assert!(
            (median / expect - 1.0).abs() < 0.1,
            "median {median}, expected ~{expect}"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
        assert!(Poisson::new(-1.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }
}
