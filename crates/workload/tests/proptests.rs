//! Property-based tests for the workload substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use willow_thermal::units::Watts;
use willow_workload::app::{AppClass, AppId, Application};
use willow_workload::demand::DemandModel;
use willow_workload::poisson::sample_poisson;
use willow_workload::power_model::{fit_linear, LinearPowerModel};
use willow_workload::smoothing::{Gains, Smoother};

proptest! {
    // Fewer cases than default: the Poisson moment checks need thousands
    // of samples per case and dominate debug-profile runtime.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Smoothed output always stays within the running min/max of the
    /// inputs (exponential smoothing is a convex combination).
    #[test]
    fn exp_smoother_is_convex(
        alpha in 0.01f64..0.99,
        inputs in prop::collection::vec(0.0f64..1000.0, 1..50),
    ) {
        let gains = Gains { alpha, beta: None };
        let mut s = Smoother::default();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &inputs {
            lo = lo.min(x);
            hi = hi.max(x);
            let v = s.observe(gains, Watts(x));
            prop_assert!(v.0 >= lo - 1e-9 && v.0 <= hi + 1e-9);
        }
    }

    /// On an exact linear ramp Holt's one-step forecast converges to the
    /// true next value.
    #[test]
    fn holt_forecast_converges_on_ramps(slope in 0.1f64..10.0, intercept in 0.0f64..100.0) {
        let gains = Gains { alpha: 0.5, beta: Some(0.3) };
        let mut h = Smoother::default();
        let mut last_forecast = None;
        for k in 0..200u32 {
            let x = intercept + slope * f64::from(k);
            if let Some(f) = last_forecast {
                if k > 150 {
                    let fv: Watts = f;
                    prop_assert!(
                        (fv.0 - x).abs() < slope * 0.05 + 1e-6,
                        "forecast {} vs truth {x}",
                        fv.0
                    );
                }
            }
            h.observe(gains, Watts(x));
            last_forecast = h.forecast(1);
        }
    }

    /// Poisson sample means and variances track λ across magnitudes and
    /// both sampler branches (five standard errors plus a small floor).
    #[test]
    fn poisson_mean_tracks_lambda(lambda in 0.1f64..1000.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000;
        let nf = f64::from(n);
        let xs: Vec<f64> = (0..n).map(|_| sample_poisson(&mut rng, lambda) as f64).collect();
        let mean = xs.iter().sum::<f64>() / nf;
        let tol = 5.0 * (lambda / nf).sqrt() + 0.05;
        prop_assert!((mean - lambda).abs() < tol, "mean {mean} vs λ {lambda} (tol {tol})");
        // Var(s²) ≈ (μ₄ − σ⁴)/n with μ₄ = λ + 3λ² for Poisson(λ).
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (nf - 1.0);
        let var_tol = 5.0 * ((lambda + 2.0 * lambda * lambda) / nf).sqrt() + 0.05;
        prop_assert!((var - lambda).abs() < var_tol, "variance {var} vs λ {lambda} (tol {var_tol})");
    }

    /// Demand sampling is non-negative, quantized, and zero at zero
    /// utilization.
    #[test]
    fn demand_sampling_invariants(
        mean_power in 1.0f64..500.0,
        quantum in 0.25f64..10.0,
        u in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let class = AppClass { name: "p", mean_power: Watts(mean_power) };
        let app = Application::new(AppId(0), 0, &class);
        let model = DemandModel::new(Watts(quantum));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let d = model.sample_app_demand(&mut rng, &app, u);
            prop_assert!(d.0 >= 0.0);
            let q = d.0 / quantum;
            prop_assert!((q - q.round()).abs() < 1e-9, "demand {d} not quantized to {quantum}");
            if u == 0.0 {
                prop_assert_eq!(d, Watts(0.0));
            }
        }
    }

    /// Least squares recovers any noiselessly-sampled linear power model.
    #[test]
    fn fit_linear_recovers_models(static_w in 0.0f64..300.0, slope_w in 1.0f64..300.0) {
        let truth = LinearPowerModel::new(Watts(static_w), Watts(slope_w));
        let pts: Vec<(f64, Watts)> = (0..=5)
            .map(|i| {
                let u = f64::from(i) / 5.0;
                (u, truth.power_at(u))
            })
            .collect();
        let fit = fit_linear(&pts).unwrap();
        prop_assert!((fit.static_power.0 - static_w).abs() < 1e-6);
        prop_assert!((fit.slope.0 - slope_w).abs() < 1e-6);
    }

    /// Power model inversion round-trips across its whole domain.
    #[test]
    fn power_model_inversion(static_w in 0.0f64..300.0, slope_w in 1.0f64..300.0, u in 0.0f64..1.0) {
        let m = LinearPowerModel::new(Watts(static_w), Watts(slope_w));
        let p = m.power_at(u);
        prop_assert!((m.utilization_for(p) - u).abs() < 1e-9);
    }

    /// On an exact linear ramp Holt's *trend* estimate converges to the
    /// true slope — the property the planning seam's horizon-h forecasts
    /// (`level + h·trend`) lean on.
    #[test]
    fn holt_trend_converges_to_slope(
        alpha in 0.2f64..0.8,
        beta in 0.1f64..0.6,
        slope in 0.1f64..20.0,
        intercept in 0.0f64..500.0,
    ) {
        let gains = Gains { alpha, beta: Some(beta) };
        let mut h = Smoother::default();
        for k in 0..300u32 {
            h.observe(gains, Watts(intercept + slope * f64::from(k)));
        }
        let trend = h.trend().expect("observed").0;
        prop_assert!(
            (trend - slope).abs() < slope * 0.02 + 1e-9,
            "trend {trend} vs slope {slope}"
        );
    }

    /// `reset` leaves no residue: a reset smoother fed a second sequence
    /// is state-for-state identical to a fresh one fed the same sequence.
    #[test]
    fn holt_reset_equals_fresh(
        alpha in 0.1f64..0.9,
        beta in 0.1f64..0.9,
        first in prop::collection::vec(0.0f64..1000.0, 0..40),
        second in prop::collection::vec(0.0f64..1000.0, 1..40),
    ) {
        let gains = Gains { alpha, beta: Some(beta) };
        let mut reused = Smoother::default();
        for &x in &first {
            reused.observe(gains, Watts(x));
        }
        reused.reset();
        let mut fresh = Smoother::default();
        for &x in &second {
            prop_assert_eq!(reused.observe(gains, Watts(x)), fresh.observe(gains, Watts(x)));
        }
        prop_assert_eq!(reused, fresh);
        prop_assert_eq!(reused.forecast(3), fresh.forecast(3));
    }
}
