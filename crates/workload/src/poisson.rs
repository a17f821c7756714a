//! Exact Poisson sampling on top of `rand` alone.
//!
//! The paper drives each node's power demand with a Poisson distribution
//! (§V-B1). We avoid pulling in `rand_distr` by implementing the sampler
//! here, with the split numpy and `rand_distr` use:
//!
//! - λ < 10: Knuth's product-of-uniforms method, exact and cheap at
//!   λ + 1 uniforms per sample;
//! - λ ≥ 10: Hörmann's transformed rejection with squeeze, PTRS ("The
//!   transformed rejection method for generating Poisson random
//!   variables", *Insurance: Mathematics and Economics* 12, 1993). It is
//!   exact at every mean and takes O(1) expected draws: about 2.3–2.7
//!   uniforms per sample across the simulator's λ of ten to a few hundred,
//!   where Knuth's method would need λ + 1.

use rand::Rng;
use std::sync::OnceLock;

/// Means at or above this take the PTRS branch; below it Knuth's method.
const PTRS_MIN_MEAN: f64 = 10.0;

/// Entries in the ln k! table. It covers every count the simulator draws
/// (a `w9` app at full load has λ ≈ 240); larger counts fall back to
/// [`loggam`].
const LN_FACT_LEN: usize = 1024;

/// Draw one Poisson(λ) sample.
///
/// # Panics
/// Panics if `mean` is negative or non-finite.
#[must_use]
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(
        mean.is_finite() && mean >= 0.0,
        "Poisson mean must be finite and non-negative, got {mean}"
    );
    if mean < PTRS_MIN_MEAN {
        knuth(rng, mean)
    } else {
        ptrs(rng, mean)
    }
}

/// Knuth's product-of-uniforms method; exact, λ + 1 uniforms on average.
fn knuth<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean == 0.0 {
        return 0;
    }
    let threshold = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= threshold {
            return k;
        }
        k += 1;
    }
}

/// Hörmann's PTRS for `mean ≥ 10`: a transformed-rejection proposal with
/// a squeeze that accepts most candidates without evaluating the pmf.
/// The constants only the pmf test needs, `1/α` and `ln λ`, are computed
/// on the first candidate that gets past the squeeze, so most draws never
/// pay for the logarithm, and no draw pays for it twice.
fn ptrs<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let slam = mean.sqrt();
    let b = 0.931 + 2.53 * slam;
    let a = -0.059 + 0.02483 * b;
    let vr = 0.9277 - 3.6224 / (b - 2.0);
    let mut past_squeeze: Option<(f64, f64)> = None;
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= vr {
            // The squeeze region maps to non-negative k for every
            // mean ≥ 10.
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        let &mut (inv_alpha, loglam) =
            past_squeeze.get_or_insert_with(|| (1.1239 + 1.1328 / (b - 3.4), mean.ln()));
        // ln V + ln(1/α) − ln(a/us² + b), folded into one logarithm.
        let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
        if lhs <= -mean + k * loglam - ln_factorial(k as u64) {
            return k as u64;
        }
    }
}

/// ln k!, from a table built once for k < [`LN_FACT_LEN`] and from
/// [`loggam`] beyond it.
fn ln_factorial(k: u64) -> f64 {
    match usize::try_from(k).ok().and_then(|i| ln_fact_table().get(i)) {
        Some(&v) => v,
        None => loggam(k as f64 + 1.0),
    }
}

/// ln k! for k < [`LN_FACT_LEN`], as running sums of ln i.
fn ln_fact_table() -> &'static [f64; LN_FACT_LEN] {
    static TABLE: OnceLock<[f64; LN_FACT_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; LN_FACT_LEN];
        for i in 2..LN_FACT_LEN {
            t[i] = t[i - 1] + (i as f64).ln();
        }
        t
    })
}

/// ln Γ(x) by the Stirling series (ten terms), accurate to ~1e-15
/// relative for `x ≥ 7`; only called for `x > LN_FACT_LEN`.
fn loggam(x: f64) -> f64 {
    const COEF: [f64; 10] = [
        8.333_333_333_333_333e-2,
        -2.777_777_777_777_778e-3,
        7.936_507_936_507_937e-4,
        -5.952_380_952_380_952e-4,
        8.417_508_417_508_418e-4,
        -1.917_526_917_526_918e-3,
        6.410_256_410_256_41e-3,
        -2.955_065_359_477_124e-2,
        1.796_443_723_688_307e-1,
        -1.392_432_216_905_9,
    ];
    /// ln(2π) / 2.
    const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
    debug_assert!(x >= 7.0, "the Stirling series needs x ≥ 7, got {x}");
    let x2 = 1.0 / (x * x);
    let series = COEF.iter().rev().fold(0.0, |acc, &c| acc * x2 + c);
    series / x + HALF_LN_2PI + (x - 0.5) * x.ln() - x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn stats(mean: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut rng, mean)).collect();
        let m = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| {
                let d = x as f64 - m;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        (m, var)
    }

    #[test]
    fn zero_mean_is_always_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn small_mean_moments() {
        let (m, v) = stats(3.5, 200_000, 42);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
        assert!((v - 3.5).abs() < 0.12, "variance {v}");
    }

    #[test]
    fn large_mean_moments() {
        let (m, v) = stats(170.0, 50_000, 7);
        assert!((m - 170.0).abs() < 0.5, "mean {m}");
        assert!((v - 170.0).abs() < 4.0, "variance {v}");
    }

    #[test]
    fn tiny_mean_is_mostly_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let zeros = (0..10_000)
            .filter(|_| sample_poisson(&mut rng, 0.01) == 0)
            .count();
        // P(X=0) = e^{-0.01} ≈ 0.99.
        assert!(zeros > 9_800, "zeros {zeros}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..32).map(|_| sample_poisson(&mut rng, 12.0)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..32).map(|_| sample_poisson(&mut rng, 12.0)).collect()
        };
        assert_eq!(a, b);
    }

    /// Pearson's χ² of `n` samples against the exact Poisson(λ) pmf, with
    /// adjacent counts pooled until every bin expects at least 5 samples
    /// (the upper tail folds into the last bin). Returns `(χ², bins)`.
    fn chi_square(mean: f64, n: usize, seed: u64) -> (f64, usize) {
        let top = (mean + 12.0 * mean.sqrt() + 20.0) as usize;
        let mut observed = vec![0u64; top + 1];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let k = sample_poisson(&mut rng, mean) as usize;
            observed[k.min(top)] += 1;
        }
        // pmf by the recurrence p_k = p_{k-1} λ / k, independent of the
        // sampler's ln k! table; the last cell takes the whole tail.
        let mut pmf = Vec::with_capacity(top + 1);
        let mut p = (-mean).exp();
        for k in 0..top {
            pmf.push(p);
            p *= mean / (k + 1) as f64;
        }
        pmf.push(1.0 - pmf.iter().sum::<f64>());
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let (mut exp, mut obs) = (0.0, 0.0);
        for (p, &o) in pmf.iter().zip(&observed) {
            exp += p * n as f64;
            obs += o as f64;
            if exp >= 5.0 {
                bins.push((exp, obs));
                (exp, obs) = (0.0, 0.0);
            }
        }
        let last = bins.last_mut().expect("at least one bin");
        last.0 += exp;
        last.1 += obs;
        let chi2 = bins.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
        (chi2, bins.len())
    }

    /// Upper 1e-4 quantile of χ²(df), by the Wilson–Hilferty cube-root
    /// normal approximation.
    fn chi_square_critical(df: f64) -> f64 {
        const Z: f64 = 3.719;
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + Z * h.sqrt()).powi(3)
    }

    #[test]
    fn goodness_of_fit_on_both_branches() {
        for (i, mean) in [3.5, 9.99, 10.0, 45.0, 238.0].into_iter().enumerate() {
            let (chi2, bins) = chi_square(mean, 120_000, 1_000 + i as u64);
            let critical = chi_square_critical((bins - 1) as f64);
            assert!(
                chi2 < critical,
                "λ {mean}: χ² {chi2:.1} over {bins} bins exceeds {critical:.1}"
            );
        }
    }

    /// Counts the 64-bit words drawn through it.
    struct CountingRng {
        inner: StdRng,
        draws: u64,
    }

    impl RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn large_means_take_constant_draws() {
        for mean in [10.0, 45.0, 238.0] {
            let mut rng = CountingRng {
                inner: StdRng::seed_from_u64(17),
                draws: 0,
            };
            let n = 20_000;
            for _ in 0..n {
                let _ = sample_poisson(&mut rng, mean);
            }
            let per_sample = rng.draws as f64 / f64::from(n);
            assert!(
                per_sample <= 3.0,
                "λ {mean}: {per_sample:.2} uniforms per sample"
            );
        }
    }

    #[test]
    fn ln_fact_table_matches_loggam() {
        let table = ln_fact_table();
        // Below the Stirling series' range, against exact factorials.
        let mut fact = 1.0f64;
        for (k, &v) in table.iter().enumerate().take(7) {
            if k > 0 {
                fact *= k as f64;
            }
            assert!(
                (v - fact.ln()).abs() <= 1e-12 * fact.ln().max(1.0),
                "ln {k}!"
            );
        }
        for (k, &v) in table.iter().enumerate().skip(6) {
            let g = loggam(k as f64 + 1.0);
            assert!(
                (v - g).abs() <= 1e-12 * g,
                "ln {k}!: table {v} vs loggam {g}"
            );
        }
        // At the edge the lookup hands over to the series seamlessly:
        // ln n! = ln (n−1)! + ln n across the switch.
        let edge = LN_FACT_LEN as u64;
        let past = ln_factorial(edge);
        let last = ln_factorial(edge - 1) + (edge as f64).ln();
        assert!((past - last).abs() <= 1e-12 * past, "{past} vs {last}");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_mean_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_poisson(&mut rng, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_mean_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_poisson(&mut rng, f64::NAN);
    }
}
