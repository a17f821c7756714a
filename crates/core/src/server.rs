//! Per-server runtime state: activity, thermals, demand smoothing, and the
//! leaf's own demand view and degraded-mode defences. The apps a server
//! hosts live in the controller's [`crate::apps::AppTable`].

use crate::control::Watchdog;
use serde::{Deserialize, Serialize};
use willow_thermal::model::ThermalParams;
use willow_thermal::units::{Celsius, Watts};
use willow_topology::NodeId;
use willow_workload::app::Application;
use willow_workload::smoothing::{Gains, Smoother};

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

/// The per-server constants no tick changes: thermal constants, ambient,
/// limit, rating and the utilization denominator. The controller keeps
/// them in one immutable column, shared by every checkpoint, so the
/// roster rows every stage streams stay narrow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerProfile {
    /// Thermal constants `(c1, c2)`.
    pub thermal: ThermalParams,
    /// Ambient temperature at the server's position.
    pub ambient: Celsius,
    /// Thermal limit.
    pub t_limit: Celsius,
    /// Nameplate power rating (hard circuit cap).
    pub rating: Watts,
    /// Utilization denominator (see [`ServerSpec::full_util_power`]).
    pub full_util_power: Watts,
}

impl ServerProfile {
    /// The constants of `spec`.
    #[must_use]
    pub fn new(spec: &ServerSpec) -> Self {
        ServerProfile {
            thermal: spec.thermal,
            ambient: spec.ambient,
            t_limit: spec.t_limit,
            rating: spec.rating,
            full_util_power: spec.full_util_power,
        }
    }

    /// Utilization of `row` (this profile's server): hosted application
    /// power relative to the full-load application power
    /// (`full_util_power`). For simulation servers this is demand/rating;
    /// for testbed hosts it is CPU utilization.
    #[must_use]
    pub fn utilization(&self, row: &ServerState) -> f64 {
        if !row.active || self.full_util_power.0 <= 0.0 {
            return 0.0;
        }
        (row.app_power / self.full_util_power).clamp(0.0, 1.0)
    }
}

/// Live state of a server inside the controller: plain values only, one
/// `Copy` row per roster slot holding what a tick writes or every sweep
/// reads. The constants live in the controller's [`ServerProfile`]
/// column, its apps in a list in the controller's
/// [`crate::apps::AppTable`], and its planning series (predictive policy
/// only) in a column of the controller's
/// [`crate::control::PlanningContext`].
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
    /// Smoothing state of the node demand `CP_{0,i}` (Eq. 4 or Holt);
    /// the gains come from the controller's config.
    pub smoother: Smoother,
    /// Component temperature (the RC model's state; its constants are in
    /// the server's [`ServerProfile`]).
    pub temperature: Celsius,
    /// Active (true) or deep sleep (false).
    pub active: bool,
    /// Non-migratable draw while active (see [`ServerSpec::base_load`]).
    pub base_load: Watts,
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
    /// A fresh row for `spec` with no demand history, at thermal
    /// equilibrium with its ambient. The spec's apps go into the app
    /// table, its constants into a [`ServerProfile`].
    #[must_use]
    pub fn new(spec: &ServerSpec) -> Self {
        ServerState {
            node: spec.node,
            app_power: Watts::ZERO,
            pending_cost: Watts::ZERO,
            smoother: Smoother::default(),
            temperature: spec.ambient,
            active: spec.active,
            base_load: spec.base_load,
            fence: FenceState::default(),
            local_cp: Watts::ZERO,
            watchdog: Watchdog::default(),
            accepted_temp: spec.ambient,
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

    /// Feed this period's raw demand to the row's smoother under `gains`
    /// (from [`crate::config::ControllerConfig::gains`]) and return the
    /// smoothed demand. Floored at zero under Holt, whose level can
    /// transiently undershoot on sharp drops.
    pub fn smooth(&mut self, gains: Gains) -> Watts {
        let smoothed = self.smoother.observe(gains, self.raw_demand());
        if gains.beta.is_some() {
            smoothed.non_negative()
        } else {
            smoothed
        }
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
        let mut s = ServerState::new(&spec);
        s.app_power = table.observe(0, &[Watts(30.0), Watts(second)]);
        s
    }

    fn profile() -> ServerProfile {
        ServerProfile::new(&spec_with_two_apps())
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
        assert_eq!(profile().utilization(&s), 0.0);
    }

    #[test]
    fn utilization_is_demand_over_rating() {
        let s = loaded(60.0);
        assert!((profile().utilization(&s) - 0.2).abs() < 1e-12); // 90/450
    }

    /// The row and its smoother hold plain state only: the gains live in
    /// the config and the constants in the profile column, so neither
    /// grows with them.
    #[test]
    fn row_and_smoother_sizes() {
        assert_eq!(std::mem::size_of::<Smoother>(), 24);
        assert_eq!(std::mem::size_of::<ServerState>(), 88);
        assert_eq!(std::mem::size_of::<ServerProfile>(), 48);
    }

    #[test]
    fn smooth_floors_only_under_holt() {
        let holt = crate::config::ControllerConfig {
            smoother: crate::config::SmootherKind::Holt { beta: 0.9 },
            alpha: 0.9,
            ..Default::default()
        }
        .gains();
        let mut s = loaded(470.0);
        assert_eq!(s.smooth(holt), Watts(500.0));
        s.app_power = Watts(80.0);
        s.smooth(holt);
        // A sharp drop to zero demand drives the Holt level below zero;
        // the row reports zero.
        s.active = false;
        assert_eq!(s.smooth(holt), Watts::ZERO);
        assert!(s.smoother.level().unwrap() < Watts::ZERO);
        // Eq. 4 returns its level as is.
        let mut e = loaded(50.0);
        let exp = crate::config::ControllerConfig::default().gains();
        assert_eq!(e.smooth(exp), Watts(80.0));
        e.app_power = Watts(90.0);
        assert_eq!(e.smooth(exp), Watts(85.0));
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
