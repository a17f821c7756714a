//! Per-server runtime state: activity, thermals, demand smoothing, and the
//! leaf's own demand view and degraded-mode defences. The apps a server
//! hosts live in the controller's [`crate::apps::AppTable`].

use crate::config::ControllerConfig;
use crate::control::Watchdog;
use serde::{Deserialize, Serialize};
use willow_thermal::model::{DeviceThermal, ThermalParams};
use willow_thermal::units::{Celsius, Watts};
use willow_topology::NodeId;
use willow_workload::app::Application;
use willow_workload::smoothing::{ExpSmoother, HoltSmoother};

/// A demand smoother of either configured kind (Eq. 4 exponential or Holt
/// level+trend).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DemandSmoother {
    /// Plain exponential smoothing (paper Eq. 4).
    Exponential(ExpSmoother),
    /// Holt double-exponential smoothing.
    Holt(HoltSmoother),
}

impl DemandSmoother {
    /// Build from the configured kind.
    #[must_use]
    pub fn new(kind: crate::config::SmootherKind, alpha: f64) -> Self {
        match kind {
            crate::config::SmootherKind::Exponential => {
                DemandSmoother::Exponential(ExpSmoother::new(alpha))
            }
            crate::config::SmootherKind::Holt { beta } => {
                DemandSmoother::Holt(HoltSmoother::new(alpha, beta))
            }
        }
    }

    /// Feed one raw measurement; returns the smoothed demand (floored at
    /// zero — a Holt level can transiently undershoot on sharp drops).
    pub fn observe(&mut self, raw: Watts) -> Watts {
        match self {
            DemandSmoother::Exponential(s) => s.observe(raw),
            DemandSmoother::Holt(s) => s.observe(raw).non_negative(),
        }
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        match self {
            DemandSmoother::Exponential(s) => s.reset(),
            DemandSmoother::Holt(s) => s.reset(),
        }
    }
}

/// Static description of one server used to construct the controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// The leaf node in the PMU tree this server occupies.
    pub node: NodeId,
    /// Thermal model parameters.
    pub thermal: ThermalParams,
    /// Ambient temperature at the server's position (hot/cold zone).
    pub ambient: Celsius,
    /// Thermal limit.
    pub t_limit: Celsius,
    /// Nameplate power rating (hard circuit cap).
    pub rating: Watts,
    /// Applications initially hosted here.
    pub apps: Vec<Application>,
    /// Whether the server starts active.
    pub active: bool,
    /// Non-migratable power the server draws while active (the static part
    /// of the testbed hosts' Table-I curve; zero for the idealized
    /// simulation servers). Counted in demand and budgets but never
    /// offered to the bin packer.
    pub base_load: Watts,
    /// Denominator for the utilization measure used by consolidation: the
    /// hosted applications' power at 100 % utilization. Defaults to the
    /// rating; the testbed hosts set it to the Table-I curve's dynamic
    /// range so `utilization()` means *CPU* utilization as in the paper.
    pub full_util_power: Watts,
}

impl ServerSpec {
    /// The paper's simulated server: 25 °C ambient, 70 °C limit, 450 W
    /// rating, initially active and empty.
    ///
    /// Thermal constants use [`ThermalParams::sustained`] (c2 = 0.1, c1
    /// derived so steady-state power at the limit equals the rating) rather
    /// than the paper's published `(0.08, 0.05)` — the published pair cannot
    /// sustain the power levels the paper's own figures show; see
    /// `DESIGN.md`. The hot-zone behaviour is preserved: at 40 °C ambient
    /// the sustained cap drops to 300 W, exactly the Fig. 5 shape.
    #[must_use]
    pub fn simulation_default(node: NodeId) -> Self {
        let ambient = Celsius(25.0);
        let t_limit = Celsius(70.0);
        let rating = Watts(450.0);
        ServerSpec {
            node,
            thermal: ThermalParams::sustained(0.1, ambient, t_limit, rating),
            ambient,
            t_limit,
            rating,
            apps: Vec::new(),
            active: true,
            base_load: Watts::ZERO,
            full_util_power: rating,
        }
    }

    /// The emulated testbed host: 25 °C ambient, 70 °C limit, a rating
    /// matching the reconstructed Table-I curve's 100 %-utilization draw
    /// (≈220 W), the curve's static part as non-migratable base load, and
    /// its dynamic range as the utilization denominator (so `utilization()`
    /// is CPU utilization as the paper measures it). Thermal constants via
    /// [`ThermalParams::sustained`]; the published fit `(0.2, 0.1)` is kept
    /// for the Fig. 14 reproduction only.
    #[must_use]
    pub fn testbed_default(node: NodeId) -> Self {
        let ambient = Celsius(25.0);
        let t_limit = Celsius(70.0);
        let rating = Watts(220.0);
        ServerSpec {
            node,
            thermal: ThermalParams::sustained(0.1, ambient, t_limit, rating),
            ambient,
            t_limit,
            rating,
            apps: Vec::new(),
            active: true,
            base_load: Watts(170.67),
            full_util_power: Watts(48.565),
        }
    }

    /// Builder-style: set the utilization denominator (CPU-utilization
    /// semantics for the testbed hosts).
    #[must_use]
    pub fn with_full_util_power(mut self, full_util_power: Watts) -> Self {
        self.full_util_power = full_util_power;
        self
    }

    /// Builder-style: set the hosted applications.
    #[must_use]
    pub fn with_apps(mut self, apps: Vec<Application>) -> Self {
        self.apps = apps;
        self
    }

    /// Builder-style: set the ambient temperature (hot zones).
    #[must_use]
    pub fn with_ambient(mut self, ambient: Celsius) -> Self {
        self.ambient = ambient;
        self
    }

    /// Builder-style: start inactive (deep sleep).
    #[must_use]
    pub fn inactive(mut self) -> Self {
        self.active = false;
        self
    }
}

/// Live-ops fencing state of a server (the drain state machine).
///
/// `Active → Draining → Fenced → Retired`, driven by the command plane
/// (`willow_core::command`): a draining server keeps running its apps but
/// stops accepting new ones; a fenced server is empty, asleep and
/// ineligible for wake-up; a retired server's tree slot has been removed
/// and its state slot is a permanent tombstone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FenceState {
    /// Normal operation: hosts apps, receives budget, eligible as a
    /// migration target and for sleep/wake decisions.
    #[default]
    Active,
    /// Being evacuated: existing apps keep running under budget, but the
    /// server cannot receive migrations and is excluded from
    /// consolidation sleep and wake-up.
    Draining,
    /// Evacuated and powered down: zero cap, zero budget, never woken.
    Fenced,
    /// Removed from the topology; the server slot is a tombstone and its
    /// `node` id no longer names a live tree leaf.
    Retired,
}

impl FenceState {
    /// True only for [`FenceState::Active`] — the single state in which a
    /// server participates fully in control decisions.
    #[must_use]
    pub fn is_active(self) -> bool {
        self == FenceState::Active
    }
}

/// Live state of a server inside the controller: plain values only, one
/// `Copy` row per roster slot holding every per-server fact the leaf
/// itself keeps. Its apps are a list in the controller's
/// [`crate::apps::AppTable`]; its planning series is a column of the
/// controller's [`crate::control::PlanningContext`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerState {
    /// PMU-tree leaf this server occupies.
    pub node: NodeId,
    /// Combined raw demand of the hosted applications, summed in list
    /// order whenever the server's apps or their demands change.
    pub app_power: Watts,
    /// Temporary migration-cost demand charged this period (§IV-E).
    pub pending_cost: Watts,
    /// Smoothed node demand `CP_{0,i}` (Eq. 4 or Holt).
    pub smoother: DemandSmoother,
    /// Thermal state.
    pub thermal: DeviceThermal,
    /// Active (true) or deep sleep (false).
    pub active: bool,
    /// Non-migratable draw while active (see [`ServerSpec::base_load`]).
    pub base_load: Watts,
    /// Utilization denominator (see [`ServerSpec::full_util_power`]).
    pub full_util_power: Watts,
    /// Live-ops fencing state.
    pub fence: FenceState,
    /// The server's *own* view of its smoothed demand. Equal to the
    /// hierarchy's `power.cp` entry in fault-free operation; under report
    /// loss `power.cp` keeps the stale view while this stays current.
    /// Physics and local deficit detection run on this, so it is
    /// checkpointed with the row.
    pub local_cp: Watts,
    /// Stale-directive watchdog (missed count and tripped flag).
    pub watchdog: Watchdog,
    /// Last temperature reading that passed the plausibility filter; caps
    /// and predictions are computed from this, never from a raw (possibly
    /// faulted) sensor.
    pub accepted_temp: Celsius,
}

impl ServerState {
    /// A fresh row for `spec` with the smoother `config` selects and no
    /// demand history. The spec's apps go into the app table, not here.
    #[must_use]
    pub fn new(spec: &ServerSpec, config: &ControllerConfig) -> Self {
        let thermal = DeviceThermal::new(spec.thermal, spec.ambient, spec.t_limit, spec.rating);
        ServerState {
            node: spec.node,
            app_power: Watts::ZERO,
            pending_cost: Watts::ZERO,
            smoother: DemandSmoother::new(config.smoother, config.alpha),
            thermal,
            active: spec.active,
            base_load: spec.base_load,
            full_util_power: spec.full_util_power,
            fence: FenceState::default(),
            local_cp: Watts::ZERO,
            watchdog: Watchdog::default(),
            accepted_temp: thermal.temperature(),
        }
    }

    /// Raw demand: base load plus hosted app demands plus temporary
    /// migration cost. A sleeping server demands nothing.
    #[must_use]
    pub fn raw_demand(&self) -> Watts {
        if !self.active {
            return Watts::ZERO;
        }
        self.base_load + self.app_power + self.pending_cost
    }

    /// Utilization: hosted application power relative to the full-load
    /// application power (`full_util_power`). For simulation servers this
    /// is demand/rating; for testbed hosts it is CPU utilization.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if !self.active || self.full_util_power.0 <= 0.0 {
            return 0.0;
        }
        (self.app_power / self.full_util_power).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppTable;
    use willow_workload::app::{AppId, SIM_APP_CLASSES};

    fn spec_with_two_apps() -> ServerSpec {
        let apps = vec![
            Application::new(AppId(0), 0, &SIM_APP_CLASSES[0]),
            Application::new(AppId(1), 2, &SIM_APP_CLASSES[2]),
        ];
        ServerSpec::simulation_default(NodeId(3)).with_apps(apps)
    }

    /// The server with its two apps drawing 30 W and `second` W.
    fn loaded(second: f64) -> ServerState {
        let spec = spec_with_two_apps();
        let mut table = AppTable::for_specs(std::slice::from_ref(&spec)).unwrap();
        let mut s = ServerState::new(&spec, &ControllerConfig::default());
        s.app_power = table.observe(0, &[Watts(30.0), Watts(second)]);
        s
    }

    #[test]
    fn raw_demand_sums_apps_and_cost() {
        let mut s = loaded(50.0);
        assert_eq!(s.raw_demand(), Watts(80.0));
        s.pending_cost = Watts(4.0);
        assert_eq!(s.raw_demand(), Watts(84.0));
    }

    #[test]
    fn sleeping_server_demands_nothing() {
        let mut s = loaded(50.0);
        s.active = false;
        assert_eq!(s.raw_demand(), Watts::ZERO);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn utilization_is_demand_over_rating() {
        let s = loaded(60.0);
        assert!((s.utilization() - 0.2).abs() < 1e-12); // 90/450
    }

    #[test]
    fn builders() {
        use willow_thermal::units::Celsius;
        let spec = ServerSpec::simulation_default(NodeId(0))
            .with_ambient(Celsius(40.0))
            .inactive();
        assert_eq!(spec.ambient, Celsius(40.0));
        assert!(!spec.active);
        // Sustained constants: steady state at rated power hits the limit.
        let tb = ServerSpec::testbed_default(NodeId(1));
        let steady = willow_thermal::limit::steady_state_power(tb.thermal, tb.ambient, tb.t_limit);
        assert!((steady.0 - tb.rating.0).abs() < 1e-9);
    }
}
