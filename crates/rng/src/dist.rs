//! Distribution samplers layered over any [`RandomSource`].
//!
//! These cover what the queueing model (§VI of the paper) draws:
//! exponential service times and Poisson arrivals. [`normal`] backs the
//! Poisson sampler's large-`lambda` approximation.

use crate::RandomSource;

/// Samples `Exp(rate)`: the service-time distribution of the `M/M/1[N]` model.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<G: RandomSource>(gen: &mut G, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    // Inverse CDF; guard the log(0) corner by nudging u away from 0.
    let u = gen.next_f64().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

/// Samples `Poisson(lambda)` via Knuth's product method for small `lambda`
/// and normal approximation (rounded, clamped at 0) for large `lambda`.
///
/// # Panics
///
/// Panics if `lambda` is negative.
pub fn poisson<G: RandomSource>(gen: &mut G, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product = gen.next_f64();
        let mut count = 0u64;
        while product > limit {
            product *= gen.next_f64();
            count += 1;
        }
        count
    } else {
        // Normal approximation with continuity correction.
        let z = normal(gen);
        let v = lambda + lambda.sqrt() * z + 0.5;
        if v < 0.0 {
            0
        } else {
            v as u64
        }
    }
}

/// Samples a standard normal via Box–Muller.
pub fn normal<G: RandomSource>(gen: &mut G) -> f64 {
    let u1 = gen.next_f64().max(f64::MIN_POSITIVE);
    let u2 = gen.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut g = SplitMix64::new(10);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut g, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}, expected 0.5");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut g = SplitMix64::new(1);
        let _ = exponential(&mut g, 0.0);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut g = SplitMix64::new(8);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut g, 3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut g = SplitMix64::new(8);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut g, 100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut g = SplitMix64::new(8);
        assert_eq!(poisson(&mut g, 0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut g = SplitMix64::new(12);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut g)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
