//! Utilization ↔ power curves (paper §IV-C, Table I).
//!
//! "Assuming that the bottleneck platform resource does not reach
//! saturation, the relationship \[between utilization and power\] can be
//! assumed to be approximately linear" (§IV-C); the testbed's baseline
//! experiment (Table I) confirms power is a continuously increasing,
//! near-linear function of CPU utilization with an almost constant static
//! part.
//!
//! The published copy of Table I is garbled (the numbers are missing from
//! the text), but the paper's own §V-C5 arithmetic pins the curve down:
//! servers at 80 %, 40 % and 20 % utilization together draw ≈580 W, and
//! consolidating to 90 % + 73 % + standby saves ≈27.5 %. Solving those two
//! equations for a linear model `P(u) = P_static + slope·u` gives
//! `P_static ≈ 170.7 W` and `slope ≈ 48.6 W` — see `EXPERIMENTS.md` for the
//! derivation. [`LinearPowerModel::TESTBED`] encodes that reconstruction.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// A linear utilization→power model `P(u) = P_static + slope·u`, `u ∈ [0,1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearPowerModel {
    /// Power drawn at zero utilization while the host is on.
    pub static_power: Watts,
    /// Additional power drawn at 100 % utilization.
    pub slope: Watts,
}

impl LinearPowerModel {
    /// The testbed hosts' curve reconstructed from §V-C5 (see module docs):
    /// `P(u) = 170.67 + 48.57·u` watts.
    /// Solution of { 3·a + 1.4·b = 580, 2·a + 1.63·b = 0.725·580 }:
    pub const TESTBED: LinearPowerModel = LinearPowerModel {
        static_power: Watts(170.67),
        slope: Watts(48.565),
    };

    /// An idealized simulation server: negligible static power (the paper's
    /// switch/server model assumes efficient idle power control) and the
    /// ≈450 W average consumption at full load.
    pub const SIM_SERVER: LinearPowerModel = LinearPowerModel {
        static_power: Watts(0.0),
        slope: Watts(450.0),
    };

    /// Create a model, validating non-negative parameters.
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters.
    #[must_use]
    pub fn new(static_power: Watts, slope: Watts) -> Self {
        assert!(static_power.is_valid(), "static power must be ≥ 0");
        assert!(slope.is_valid(), "slope must be ≥ 0");
        LinearPowerModel {
            static_power,
            slope,
        }
    }

    /// Power at utilization `u ∈ [0, 1]` (clamped).
    #[must_use]
    pub fn power_at(&self, u: f64) -> Watts {
        let u = u.clamp(0.0, 1.0);
        self.static_power + self.slope * u
    }

    /// Invert the model: utilization that would draw `p` watts, clamped to
    /// `[0, 1]`. A zero-slope model returns 0.
    #[must_use]
    pub fn utilization_for(&self, p: Watts) -> f64 {
        if self.slope.0 <= 0.0 {
            return 0.0;
        }
        ((p - self.static_power) / self.slope).clamp(0.0, 1.0)
    }

    /// Rows of the paper's Table I: (utilization %, average power) samples of
    /// this model at 20/40/60/80/100 %.
    #[must_use]
    pub fn table1_rows(&self) -> Vec<(u32, Watts)> {
        [20u32, 40, 60, 80, 100]
            .into_iter()
            .map(|u| (u, self.power_at(u as f64 / 100.0)))
            .collect()
    }
}

/// Fit a linear model through observed `(utilization, power)` points by
/// ordinary least squares — the testbed's baseline-experiment procedure.
///
/// Returns `None` when fewer than two distinct utilizations are supplied.
#[must_use]
pub fn fit_linear(points: &[(f64, Watts)]) -> Option<LinearPowerModel> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1 .0).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1 .0).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / det;
    let intercept = (sy - slope * sx) / n;
    Some(LinearPowerModel {
        static_power: Watts(intercept),
        slope: Watts(slope),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_model_reproduces_sec5c5_arithmetic() {
        let m = LinearPowerModel::TESTBED;
        // Before consolidation: A @80 %, B @40 %, C @20 % ⇒ ≈580 W total.
        let before = m.power_at(0.8) + m.power_at(0.4) + m.power_at(0.2);
        assert!((before.0 - 580.0).abs() < 1.5, "before = {before}");
        // After: A @90 %, B @73 %, C in standby (≈0 W) ⇒ ≈27.5 % savings.
        let after = m.power_at(0.9) + m.power_at(0.73);
        let savings = 1.0 - after.0 / before.0;
        assert!((savings - 0.275).abs() < 0.005, "savings = {:.3}", savings);
    }

    #[test]
    fn testbed_max_power_is_plausible() {
        // §V-C2: at 100 % CPU the host drew far less than nameplate; our
        // reconstruction gives ≈219 W.
        let p = LinearPowerModel::TESTBED.power_at(1.0);
        assert!(p.0 > 200.0 && p.0 < 260.0, "max power {p}");
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let m = LinearPowerModel::TESTBED;
        let mut last = -1.0;
        for u in 0..=10 {
            let p = m.power_at(u as f64 / 10.0).0;
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn inversion_round_trips() {
        let m = LinearPowerModel::TESTBED;
        for u in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let p = m.power_at(u);
            assert!((m.utilization_for(p) - u).abs() < 1e-12);
        }
    }

    #[test]
    fn inversion_clamps() {
        let m = LinearPowerModel::TESTBED;
        assert_eq!(m.utilization_for(Watts(0.0)), 0.0);
        assert_eq!(m.utilization_for(Watts(10_000.0)), 1.0);
    }

    #[test]
    fn utilization_clamped_in_power_at() {
        let m = LinearPowerModel::TESTBED;
        assert_eq!(m.power_at(-0.5), m.power_at(0.0));
        assert_eq!(m.power_at(1.5), m.power_at(1.0));
    }

    #[test]
    fn table1_is_monotone_and_has_five_rows() {
        let rows = LinearPowerModel::TESTBED.table1_rows();
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[1].1 .0 > w[0].1 .0);
        }
        assert_eq!(rows[0].0, 20);
        assert_eq!(rows[4].0, 100);
    }

    #[test]
    fn fit_recovers_exact_line() {
        let truth = LinearPowerModel::new(Watts(170.0), Watts(50.0));
        let pts: Vec<(f64, Watts)> = (0..=10)
            .map(|i| {
                let u = i as f64 / 10.0;
                (u, truth.power_at(u))
            })
            .collect();
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.static_power.0 - 170.0).abs() < 1e-9);
        assert!((fit.slope.0 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_linear(&[]).is_none());
        assert!(fit_linear(&[(0.5, Watts(100.0))]).is_none());
        assert!(fit_linear(&[(0.5, Watts(100.0)), (0.5, Watts(120.0))]).is_none());
    }

    #[test]
    #[should_panic(expected = "static power")]
    fn negative_static_power_rejected() {
        let _ = LinearPowerModel::new(Watts(-1.0), Watts(10.0));
    }
}
