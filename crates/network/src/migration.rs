//! Migration cost model (paper §IV-E "Migration Cost").
//!
//! "The migration cost is a measure of the amount of work done in the source
//! and target nodes of the migrations as well as in the switches involved in
//! the migrations. This cost is added as a temporary power demand to the
//! nodes involved." We parameterize the cost as linear in the demand being
//! moved: a VM hosting a bigger application has proportionally more state
//! to copy.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// Linear migration-cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MigrationCostModel {
    /// Temporary power demand added to *each* end node, as a fraction of
    /// the migrated demand.
    pub node_overhead: f64,
    /// Fabric traffic units generated per migrated watt (VM state size
    /// scales with the application's footprint).
    pub traffic_per_watt: f64,
    /// Power cost charged to each switch on the path, as a fraction of the
    /// migrated demand.
    pub switch_overhead: f64,
    /// Flat extra temporary demand charged to both end nodes of a
    /// *non-local* migration: in data centers with location-dependent IP
    /// addresses (VL2 discussion in §IV-E), moving outside the pod requires
    /// address reconfiguration — one more reason Willow prefers local
    /// migrations.
    #[serde(default)]
    pub nonlocal_reconfig: Watts,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        // 5 % end-node overhead, a small per-switch overhead, and two
        // traffic units per migrated watt (VM state size scales with the
        // application's footprint) — chosen so migration traffic at the
        // paper's utilizations lands in the sub-percent-to-percent range
        // of fabric capacity, as in Fig. 10.
        MigrationCostModel {
            node_overhead: 0.05,
            traffic_per_watt: 2.0,
            switch_overhead: 0.005,
            nonlocal_reconfig: Watts(1.0),
        }
    }
}

impl MigrationCostModel {
    /// Create a validated model.
    ///
    /// # Panics
    /// Panics on negative or non-finite coefficients.
    #[must_use]
    pub fn new(node_overhead: f64, traffic_per_watt: f64, switch_overhead: f64) -> Self {
        for v in [node_overhead, traffic_per_watt, switch_overhead] {
            assert!(v.is_finite() && v >= 0.0, "coefficients must be ≥ 0");
        }
        MigrationCostModel {
            node_overhead,
            traffic_per_watt,
            switch_overhead,
            nonlocal_reconfig: Watts::ZERO,
        }
    }

    /// A zero-cost model (useful for ablations isolating cost effects).
    #[must_use]
    pub fn free() -> Self {
        MigrationCostModel {
            node_overhead: 0.0,
            traffic_per_watt: 0.0,
            switch_overhead: 0.0,
            nonlocal_reconfig: Watts::ZERO,
        }
    }

    /// Temporary power demand charged to each end node for a migration of
    /// `moved` watts: the proportional copy cost, plus the flat IP
    /// reconfiguration cost when the move leaves the pod.
    #[must_use]
    pub fn end_node_cost(&self, moved: Watts, local: bool) -> Watts {
        let base = self.node_cost(moved);
        if local {
            base
        } else {
            base + self.nonlocal_reconfig
        }
    }

    /// Temporary power demand added to each end node while migrating a VM
    /// of demand `moved`.
    #[must_use]
    pub fn node_cost(&self, moved: Watts) -> Watts {
        moved * self.node_overhead
    }

    /// Fabric traffic units for migrating a VM of demand `moved`.
    #[must_use]
    pub fn traffic_units(&self, moved: Watts) -> f64 {
        moved.0 * self.traffic_per_watt
    }

    /// Power cost charged to each switch on the migration path.
    #[must_use]
    pub fn switch_cost(&self, moved: Watts) -> Watts {
        moved * self.switch_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        let m = MigrationCostModel::default();
        let c1 = m.node_cost(Watts(100.0));
        let c2 = m.node_cost(Watts(200.0));
        assert!((c2.0 - 2.0 * c1.0).abs() < 1e-12);
        assert!(
            (m.traffic_units(Watts(200.0)) - 2.0 * m.traffic_units(Watts(100.0))).abs() < 1e-12
        );
    }

    #[test]
    fn default_overheads_are_small() {
        let m = MigrationCostModel::default();
        let moved = Watts(100.0);
        assert!(m.node_cost(moved).0 < moved.0 * 0.1);
        assert!(m.switch_cost(moved).0 < m.node_cost(moved).0);
    }

    #[test]
    fn free_model_is_free() {
        let m = MigrationCostModel::free();
        assert_eq!(m.node_cost(Watts(500.0)), Watts(0.0));
        assert_eq!(m.traffic_units(Watts(500.0)), 0.0);
        assert_eq!(m.switch_cost(Watts(500.0)), Watts(0.0));
    }

    #[test]
    fn local_cheaper_than_nonlocal() {
        // The locality preference of §IV-E in numbers: a local migration
        // (1 switch) costs less fabric power than a non-local one (5
        // switches) for the same VM, since every switch on the path is
        // charged, and avoids the IP reconfiguration charge at the end
        // nodes.
        let m = MigrationCostModel::default();
        assert!(m.switch_cost(Watts(60.0)) > Watts(0.0));
        assert!(m.end_node_cost(Watts(60.0), true) < m.end_node_cost(Watts(60.0), false));
        assert_eq!(
            m.end_node_cost(Watts(60.0), false) - m.end_node_cost(Watts(60.0), true),
            m.nonlocal_reconfig
        );
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn negative_coefficient_rejected() {
        let _ = MigrationCostModel::new(-0.1, 0.5, 0.1);
    }
}
