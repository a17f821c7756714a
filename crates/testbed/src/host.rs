//! The emulated Dell/ESX host: ground truth from the paper's baseline
//! experiments (Table I, §V-C2).

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_workload::power_model::LinearPowerModel;

/// Static model of one testbed host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// The utilization→power curve (Table I reconstruction).
    pub power: LinearPowerModel,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            power: LinearPowerModel::TESTBED,
        }
    }
}

impl HostModel {
    /// Power drawn at CPU utilization `u ∈ [0, 1]` while powered on.
    #[must_use]
    pub fn power_at(&self, u: f64) -> Watts {
        self.power.power_at(u)
    }
}

/// The rows of Table I: utilization % vs. average power consumed, from the
/// reconstructed curve.
#[must_use]
pub fn table1() -> Vec<(u32, Watts)> {
    LinearPowerModel::TESTBED.table1_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_sec5c5_total() {
        let m = HostModel::default();
        let total = m.power_at(0.8) + m.power_at(0.4) + m.power_at(0.2);
        assert!((total.0 - 580.0).abs() < 1.5, "total {total}");
    }

    #[test]
    fn table1_rows_are_increasing() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[1].1 .0 > w[0].1 .0);
        }
    }
}
