//! Switch power model (paper §V-B5).
//!
//! "We assume that the switch power consumption has two parts — static and
//! dynamic. The dynamic portion … is directly proportional to the amount of
//! traffic it handles. The static part is fixed and is very small."

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// Linear-in-traffic switch power: `P = static + per_unit·traffic`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchPowerModel {
    /// Fixed draw while powered on. The paper assumes this is "very small"
    /// (idealized idle power control).
    pub static_power: Watts,
    /// Watts per unit of traffic handled in an epoch.
    pub per_unit: Watts,
    /// Traffic capacity per epoch — the denominator for the paper's
    /// "normalized to maximum traffic" plots (Fig. 10).
    pub capacity_units: f64,
}

impl SwitchPowerModel {
    /// The simulation default: a small 5 W static part, 445 W dynamic range
    /// across the full capacity (switch averages ≈450 W at saturation,
    /// matching the paper's ≈450 W "server/switch" consumption).
    #[must_use]
    pub fn simulation_default() -> Self {
        SwitchPowerModel {
            static_power: Watts(5.0),
            per_unit: Watts(445.0 / 1000.0),
            capacity_units: 1000.0,
        }
    }

    /// Create a validated model.
    ///
    /// # Panics
    /// Panics on negative/non-finite parameters or non-positive capacity.
    #[must_use]
    pub fn new(static_power: Watts, per_unit: Watts, capacity_units: f64) -> Self {
        assert!(static_power.is_valid(), "static power must be ≥ 0");
        assert!(per_unit.is_valid(), "per-unit power must be ≥ 0");
        assert!(
            capacity_units.is_finite() && capacity_units > 0.0,
            "capacity must be positive"
        );
        SwitchPowerModel {
            static_power,
            per_unit,
            capacity_units,
        }
    }

    /// Power drawn for `traffic` units in an epoch.
    #[must_use]
    pub fn power_for(&self, traffic: f64) -> Watts {
        debug_assert!(traffic >= 0.0);
        self.static_power + self.per_unit * traffic
    }

    /// Traffic normalized to capacity (`traffic / capacity`), the paper's
    /// Fig. 10 y-axis.
    #[must_use]
    pub fn utilization(&self, traffic: f64) -> f64 {
        traffic / self.capacity_units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_affine_in_traffic() {
        let m = SwitchPowerModel::simulation_default();
        assert_eq!(m.power_for(0.0), m.static_power);
        let p1 = m.power_for(100.0);
        let p2 = m.power_for(200.0);
        let p3 = m.power_for(300.0);
        assert!(((p2 - p1).0 - (p3 - p2).0).abs() < 1e-12);
        assert!(p2 > p1);
    }

    #[test]
    fn saturation_power_matches_paper_scale() {
        let m = SwitchPowerModel::simulation_default();
        let full = m.power_for(m.capacity_units);
        assert!((full.0 - 450.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_normalizes() {
        let m = SwitchPowerModel::simulation_default();
        assert_eq!(m.utilization(0.0), 0.0);
        assert!((m.utilization(500.0) - 0.5).abs() < 1e-12);
        assert!((m.utilization(1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SwitchPowerModel::new(Watts(1.0), Watts(0.1), 0.0);
    }
}
