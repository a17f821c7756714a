//! Controller configuration (the paper's tunables, §IV-C/§IV-E/§V-B1).

use serde::{Deserialize, Serialize};
use willow_network::MigrationCostModel;
use willow_thermal::units::{Seconds, Watts};
use willow_workload::smoothing::Gains;

/// Which bin-packing algorithm the migration planner uses (§IV-F; the paper
/// chooses FFDLR, the alternatives exist for the packer ablation).
///
/// An alias for [`willow_binpack::PackerStrategy`]: the strategy enum and
/// its [`willow_binpack::packer_for`] constructor live next to the packers
/// themselves, so every controller (pipeline, greedy baseline) selects its
/// heuristic through the same single match. The default, FFDLR, is the
/// paper's: the willow-core differential fixture pins default ≡ paper
/// (see `crates/core/fixtures/differential_ticks.txt` for how to
/// regenerate it). The serialized form is the bare variant name either
/// way, so persisted experiment configs are unaffected by the aliasing.
pub use willow_binpack::PackerStrategy as PackerChoice;

/// How consolidation orders the receiver bins it evacuates victims into.
/// Victims always evacuate thermally constrained (hot-zone) servers first,
/// emptiest first within a zone.
///
/// Like [`PackerChoice`], this selects a deterministic, stateless ordering
/// that the consolidation stage matches on directly, so checkpoint restore
/// needs no policy state beyond the config. The default reproduces the
/// paper's behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ConsolidationPolicyChoice {
    /// Coolest receivers (largest hard cap) first, fullest first within a
    /// zone (the paper's ordering; default).
    #[default]
    HotZonesFirst,
    /// Receivers with the largest power headroom (budget minus demand)
    /// first.
    MostHeadroomReceivers,
}

/// Whether the supply/consolidation stages act on forecasts from the
/// planning seam ([`PlanningContext`](crate::control::PlanningContext)) or
/// only on current measurements.
///
/// Unlike the ordering knobs, the predictive behaviors draw on forecaster
/// state, which is serialized (in `WillowSnapshot`), so a restored
/// controller continues predicting bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SupplyPolicyChoice {
    /// The paper's purely reactive control (default): every stage decides
    /// from the current tick's measurements.
    #[default]
    Reactive,
    /// MPC-style predictive control: tighten the root budget ahead of a
    /// forecast supply dip, veto consolidation victims whose demand is
    /// forecast to ramp past the threshold, and pre-wake sleeping servers
    /// ahead of a forecast supply/demand shortfall. Tighten-only and
    /// wake-only — forecasts can start defensive action early but never
    /// loosen a physical budget.
    Predictive,
}

/// How the unidirectional "no migrations into reduced-budget nodes" rule
/// (§IV-E) is interpreted. See `DESIGN.md`: the literal reading conflicts
/// with the paper's own deficit experiment, where a global supply plunge —
/// which reduces *every* budget proportionally — triggers migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReducedTargetRule {
    /// A node is an ineligible target if its budget shrank *more than its
    /// parent's budget shrank proportionally* this supply period — i.e. it
    /// was disproportionately tightened (thermal cap, redistribution away
    /// from it). Global proportional dips do not disqualify targets. This
    /// matches the paper's experiments and is the default.
    Disproportionate,
    /// Literal reading: any budget decrease disqualifies the node as a
    /// target (a `repro ablate` knob row).
    Strict,
    /// Rule disabled (a `repro ablate` knob row).
    Off,
}

/// How a parent's budget is divided among its children on supply ticks.
///
/// §IV-A states budgets are split "in proportion to their demands"; the
/// testbed experiments (§V-C4) instead divide "the available power supply …
/// proportionally between the servers" in a way that leaves high-utilization
/// servers deficient when supply plunges — which only happens with an
/// equal/capacity split (a pure demand-proportional split scales everyone's
/// budget by the same factor and never creates a surplus to migrate into).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Proportional to smoothed demand `CP` (paper §IV-A; simulation
    /// default). Hard caps (thermal) still bind, which is what generates
    /// migrations in the hot-zone experiments.
    ProportionalToDemand,
    /// Equal share per child, clipped by caps (testbed experiments).
    EqualShare,
    /// Proportional to each child's hard cap.
    ProportionalToCapacity,
}

/// Demand-smoothing scheme (paper §IV-C: "although it is possible to use
/// sophisticated ARIMA type of models, a simple exponential smoothing is
/// often adequate").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SmootherKind {
    /// Eq. 4 exponential smoothing with the configured `alpha` (default).
    Exponential,
    /// Holt double-exponential (level + trend) smoothing with the
    /// configured `alpha` as level gain and this trend gain — tracks
    /// demand ramps without the persistent lag of Eq. 4.
    Holt {
        /// Trend gain `β ∈ (0, 1)`.
        beta: f64,
    },
}

/// How the thermal hard constraint is derived from a device's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThermalEstimate {
    /// Invert Eq. 3 over the next `Δ_S` window (the paper's conservative
    /// end-of-window prediction; default).
    WindowPrediction,
    /// Naive reactive throttling: full rating while under the limit, zero
    /// once over it — the strawman a `repro ablate` knob row compares
    /// against (oscillates and can overshoot between supply ticks).
    NaiveThrottle,
}

/// Tunables of the degraded-mode defenses (stale-directive watchdog,
/// sensor-plausibility filter, migration retry backoff). These only change
/// behavior when faults actually occur; fault-free trajectories are
/// identical for any valid setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RobustnessConfig {
    /// Number of consecutive *missed* budget directives after which a
    /// server's watchdog trips and falls back to the conservative local
    /// cap. Must be ≥ 1.
    pub watchdog_threshold: u32,
    /// The fallback cap as a fraction of the server's rating, in (0, 1].
    /// While tripped, the server's budget is the minimum of its stale
    /// directive, its local thermal cap and this fraction of its rating —
    /// never looser than anything it last heard (tightening-only).
    pub watchdog_cap_fraction: f64,
    /// Plausibility tolerance of the temperature filter in °C: a sensor
    /// reading farther than this from the RC-model prediction (previous
    /// accepted temperature advanced by the metered power draw) is rejected
    /// and the prediction is used instead.
    pub sensor_slack: f64,
    /// Retry backoff base in demand periods: after `n` consecutive
    /// failures an app may retry after `retry_base · 2^(n−1)` periods
    /// (exponent capped by `retry_cap`). Must be ≥ 1.
    pub retry_base: u64,
    /// Cap on the backoff exponent (bounds the wait at
    /// `retry_base · 2^retry_cap`).
    pub retry_cap: u32,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            watchdog_threshold: 3,
            watchdog_cap_fraction: 0.5,
            sensor_slack: 2.0,
            retry_base: 1,
            retry_cap: 5,
        }
    }
}

impl RobustnessConfig {
    /// Validate the invariants documented on each field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.watchdog_threshold == 0 {
            return Err(ConfigError::Watchdog);
        }
        if !(self.watchdog_cap_fraction > 0.0 && self.watchdog_cap_fraction <= 1.0) {
            return Err(ConfigError::Watchdog);
        }
        if !(self.sensor_slack.is_finite() && self.sensor_slack >= 0.0) {
            return Err(ConfigError::SensorSlack(self.sensor_slack));
        }
        if self.retry_base == 0 || self.retry_cap > 32 {
            return Err(ConfigError::Retry);
        }
        Ok(())
    }
}

/// All Willow tunables. A persisted config naming a key that is not a
/// field here (a retired knob, a misspelling) fails to load rather than
/// running with that key ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ControllerConfig {
    /// Exponential-smoothing parameter `α` of Eq. 4, `0 < α < 1`.
    pub alpha: f64,
    /// Which smoother turns raw measurements into `CP` values.
    pub smoother: SmootherKind,
    /// Supply-side multiplier: `Δ_S = η1·Δ_D`. Paper simulations use 4.
    pub eta1: u32,
    /// Consolidation multiplier: `Δ_A = η2·Δ_D`, `η2 > η1`. Paper uses 7.
    pub eta2: u32,
    /// Wall-clock length of one demand period `Δ_D`. The paper argues
    /// ≥ 500 ms is safe; simulations use abstract "time units", we default
    /// to 1 s.
    pub delta_d: Seconds,
    /// Migration margin `P_min`: minimum surplus both end nodes must retain
    /// after a migration (§IV-E).
    pub margin: Watts,
    /// Consolidation threshold: servers whose utilization (demand relative
    /// to full-load power) falls below this fraction become consolidation
    /// sources (the testbed uses 20 %).
    pub consolidation_threshold: f64,
    /// Migration cost model (temporary power + fabric traffic).
    pub cost_model: MigrationCostModel,
    /// Bin-packing algorithm for matching deficits with surpluses.
    pub packer: PackerChoice,
    /// Budget-division policy on supply ticks.
    pub allocation: AllocationPolicy,
    /// How thermal limits become power caps.
    pub thermal_estimate: ThermalEstimate,
    /// Interpretation of the reduced-budget target rule.
    pub reduced_rule: ReducedTargetRule,
    /// Wake sleeping servers (at consolidation granularity) when demand had
    /// to be dropped for lack of surplus.
    pub wake_on_deficit: bool,
    /// Ping-pong window `Δ_f` in demand periods: re-migrating an app within
    /// this window after its last move counts as a ping-pong event in the
    /// stability statistics (paper observes none for `Δ_f < 50·Δ_D`).
    pub pingpong_window: u64,
    /// Fabric traffic units generated per watt actually drawn by a server —
    /// the *indirect* network impact: query traffic follows the VMs to
    /// wherever they run (§V-B5).
    pub query_traffic_per_watt: f64,
    /// Degraded-mode defense tunables (watchdog, sensor filter, retry
    /// backoff).
    pub robustness: RobustnessConfig,
    /// Worker threads for the sharded pipeline stages (per-server physics,
    /// per-level deficit packing). `1` runs every stage serially on the
    /// control thread (and stays allocation-free per tick); `0` means
    /// auto-detect from available parallelism; `n > 1` shards across `n`
    /// threads with fixed shard boundaries and a deterministic reduction
    /// order, so results are bit-for-bit identical to the serial path at
    /// any thread count. Absent in persisted configs from before this
    /// field existed, which deserialize as the in-code default (`1`).
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Victim/receiver ordering for consolidation. Absent in persisted
    /// configs from before this field existed, which deserialize as the
    /// paper's default ordering.
    #[serde(default)]
    pub consolidation_policy: ConsolidationPolicyChoice,
    /// Reactive (paper) vs predictive (forecast-driven) supply/demand
    /// control. Absent in persisted configs from before the planning seam
    /// existed, which deserialize as the paper's reactive behavior.
    #[serde(default)]
    pub supply_policy: SupplyPolicyChoice,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            alpha: 0.5,
            smoother: SmootherKind::Exponential,
            eta1: 4,
            eta2: 7,
            delta_d: Seconds(1.0),
            margin: Watts(5.0),
            consolidation_threshold: 0.20,
            cost_model: MigrationCostModel::default(),
            packer: PackerChoice::Ffdlr,
            allocation: AllocationPolicy::ProportionalToDemand,
            thermal_estimate: ThermalEstimate::WindowPrediction,
            reduced_rule: ReducedTargetRule::Disproportionate,
            wake_on_deficit: true,
            pingpong_window: 50,
            query_traffic_per_watt: 1.0,
            robustness: RobustnessConfig::default(),
            threads: 1,
            consolidation_policy: ConsolidationPolicyChoice::HotZonesFirst,
            supply_policy: SupplyPolicyChoice::Reactive,
        }
    }
}

/// The `threads` value of [`ControllerConfig::default`], for configs that
/// omit the key.
fn default_threads() -> usize {
    ControllerConfig::default().threads
}

impl ControllerConfig {
    /// Validate the invariants the paper states (`0 < α < 1`, `η2 > η1 ≥ 1`,
    /// positive periods, sane fractions).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::Alpha(self.alpha));
        }
        if let SmootherKind::Holt { beta } = self.smoother {
            if !(beta > 0.0 && beta < 1.0) {
                return Err(ConfigError::Beta(beta));
            }
        }
        if self.eta1 == 0 || self.eta2 <= self.eta1 {
            return Err(ConfigError::Granularities {
                eta1: self.eta1,
                eta2: self.eta2,
            });
        }
        if !self.delta_d.is_positive() {
            return Err(ConfigError::Period);
        }
        if !self.margin.is_valid() {
            return Err(ConfigError::Margin);
        }
        if !(0.0..=1.0).contains(&self.consolidation_threshold) {
            return Err(ConfigError::Threshold(self.consolidation_threshold));
        }
        self.robustness.validate()
    }

    /// The supply-side period `Δ_S` in seconds.
    #[must_use]
    pub fn delta_s(&self) -> Seconds {
        self.delta_d * f64::from(self.eta1)
    }

    /// The demand-smoothing rule every roster row follows: level gain
    /// `alpha`, plus the trend gain under [`SmootherKind::Holt`]. The rows
    /// keep only their smoother state, so this is the one home of the
    /// gains; [`ControllerConfig::validate`] checks their ranges.
    #[must_use]
    pub fn gains(&self) -> Gains {
        let beta = match self.smoother {
            SmootherKind::Exponential => None,
            SmootherKind::Holt { beta } => Some(beta),
        };
        Gains {
            alpha: self.alpha,
            beta,
        }
    }
}

/// Configuration validation errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `α` outside (0, 1).
    Alpha(f64),
    /// Holt trend gain `β` outside (0, 1).
    Beta(f64),
    /// `η1`/`η2` violate `η2 > η1 ≥ 1`.
    Granularities {
        /// Supplied η1.
        eta1: u32,
        /// Supplied η2.
        eta2: u32,
    },
    /// Non-positive `Δ_D`.
    Period,
    /// Invalid margin.
    Margin,
    /// Consolidation threshold outside [0, 1].
    Threshold(f64),
    /// Watchdog threshold or cap fraction out of range.
    Watchdog,
    /// Sensor-plausibility slack negative or non-finite.
    SensorSlack(f64),
    /// Retry backoff base zero or exponent cap too large.
    Retry,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Alpha(a) => write!(f, "α must be in (0,1), got {a}"),
            ConfigError::Beta(b) => write!(f, "Holt β must be in (0,1), got {b}"),
            ConfigError::Granularities { eta1, eta2 } => {
                write!(f, "need η2 > η1 ≥ 1, got η1={eta1}, η2={eta2}")
            }
            ConfigError::Period => write!(f, "Δ_D must be positive"),
            ConfigError::Margin => write!(f, "margin must be finite and ≥ 0"),
            ConfigError::Threshold(t) => {
                write!(f, "consolidation threshold must be in [0,1], got {t}")
            }
            ConfigError::Watchdog => {
                write!(f, "watchdog needs threshold ≥ 1 and cap fraction in (0,1]")
            }
            ConfigError::SensorSlack(s) => {
                write!(f, "sensor slack must be finite and ≥ 0, got {s}")
            }
            ConfigError::Retry => {
                write!(f, "retry backoff needs base ≥ 1 and exponent cap ≤ 32")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = ControllerConfig::default();
        c.validate().unwrap();
        assert_eq!(c.eta1, 4);
        assert_eq!(c.eta2, 7);
        assert_eq!(c.packer, PackerChoice::Ffdlr);
        assert_eq!(c.consolidation_threshold, 0.20);
    }

    #[test]
    fn derived_periods() {
        let c = ControllerConfig::default();
        assert_eq!(c.delta_s(), Seconds(4.0));
    }

    #[test]
    fn rejects_bad_alpha() {
        let mut c = ControllerConfig::default();
        c.alpha = 1.0;
        assert_eq!(c.validate(), Err(ConfigError::Alpha(1.0)));
        c.alpha = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_eta_order_violation() {
        let mut c = ControllerConfig::default();
        c.eta1 = 7;
        c.eta2 = 7;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Granularities { .. })
        ));
        c.eta1 = 0;
        c.eta2 = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut c = ControllerConfig::default();
        c.consolidation_threshold = 1.5;
        assert!(matches!(c.validate(), Err(ConfigError::Threshold(_))));
    }

    #[test]
    fn serde_round_trip_all_variants() {
        // Every enum knob must survive serialization (experiment configs
        // are persisted as JSON by the CLI).
        for packer in [
            PackerChoice::Ffdlr,
            PackerChoice::FirstFitDecreasing,
            PackerChoice::BestFitDecreasing,
            PackerChoice::NextFit,
        ] {
            for rule in [
                ReducedTargetRule::Disproportionate,
                ReducedTargetRule::Strict,
                ReducedTargetRule::Off,
            ] {
                let mut c = ControllerConfig::default();
                c.packer = packer;
                c.reduced_rule = rule;
                c.smoother = SmootherKind::Holt { beta: 0.25 };
                c.thermal_estimate = ThermalEstimate::NaiveThrottle;
                c.allocation = AllocationPolicy::ProportionalToCapacity;
                c.consolidation_policy = ConsolidationPolicyChoice::MostHeadroomReceivers;
                let json = serde_json::to_string(&c).unwrap();
                let back: ControllerConfig = serde_json::from_str(&json).unwrap();
                assert_eq!(c, back);
            }
        }
        // And every policy-choice variant individually.
        for consolidation in [
            ConsolidationPolicyChoice::HotZonesFirst,
            ConsolidationPolicyChoice::MostHeadroomReceivers,
        ] {
            for supply in [SupplyPolicyChoice::Reactive, SupplyPolicyChoice::Predictive] {
                let mut c = ControllerConfig::default();
                c.consolidation_policy = consolidation;
                c.supply_policy = supply;
                let json = serde_json::to_string(&c).unwrap();
                let back: ControllerConfig = serde_json::from_str(&json).unwrap();
                assert_eq!(c, back);
            }
        }
    }

    #[test]
    fn policy_fields_default_when_absent() {
        // Persisted configs from before the policy race existed have no
        // `consolidation_policy`/`supply_policy` keys; they must still load
        // as the paper's default policies.
        let c = ControllerConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json
            .replacen(",\"consolidation_policy\":\"HotZonesFirst\"", "", 1)
            .replacen(",\"supply_policy\":\"Reactive\"", "", 1);
        assert_ne!(stripped, json, "policy keys found in serialized config");
        let back: ControllerConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(
            back.consolidation_policy,
            ConsolidationPolicyChoice::HotZonesFirst
        );
        assert_eq!(back.supply_policy, SupplyPolicyChoice::Reactive);
        back.validate().unwrap();
    }

    #[test]
    fn consolidation_policy_absent_loads_and_retired_variant_is_rejected() {
        // A config without the key loads as the paper's ordering.
        let json = serde_json::to_string(&ControllerConfig::default()).unwrap();
        let stripped = json.replacen(",\"consolidation_policy\":\"HotZonesFirst\"", "", 1);
        assert_ne!(stripped, json, "consolidation_policy key not found");
        let back: ControllerConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(
            back.consolidation_policy,
            ConsolidationPolicyChoice::HotZonesFirst
        );
        // The retired emptiest-first ordering (inert in the policy race)
        // is no longer a variant: configs naming it fail loudly instead of
        // silently running a different ordering.
        let retired = concat!("Emptiest", "First");
        let legacy = json.replacen("\"HotZonesFirst\"", &format!("\"{retired}\""), 1);
        let err = serde_json::from_str::<ControllerConfig>(&legacy)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown") && err.contains("variant") && err.contains(retired),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn threads_field_defaults_when_absent() {
        // Persisted configs from before the sharded pipeline existed have
        // no `threads` key; they load with the in-code default.
        let c = ControllerConfig::default();
        assert_eq!(c.threads, 1, "in-code default stays serial");
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json.replacen(",\"threads\":1", "", 1);
        assert_ne!(stripped, json, "threads key found in serialized config");
        let back: ControllerConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, c);
    }

    /// The error from loading the default config with `edit` applied to
    /// its JSON.
    fn load_error(edit: impl FnOnce(&str) -> String) -> String {
        let json = serde_json::to_string(&ControllerConfig::default()).unwrap();
        let edited = edit(&json);
        assert_ne!(edited, json, "edit left the config unchanged");
        serde_json::from_str::<ControllerConfig>(&edited)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn retired_target_policy_key_is_rejected() {
        // The target-order axis was inert in the policy race and is gone:
        // a config naming it fails instead of silently running the default.
        let err = load_error(|json| json.replacen('{', "{\"target_policy\":\"BestFit\",", 1));
        assert!(
            err.contains("unknown field `target_policy` for ControllerConfig"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn misspelt_key_is_rejected() {
        let err = load_error(|json| json.replacen("\"threads\":1", "\"therads\":4", 1));
        assert!(
            err.contains("unknown field `therads` for ControllerConfig"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn holt_beta_validated() {
        let mut c = ControllerConfig::default();
        c.smoother = SmootherKind::Holt { beta: 1.0 };
        assert_eq!(c.validate(), Err(ConfigError::Beta(1.0)));
        assert!(ConfigError::Beta(1.0).to_string().contains('β'));
        c.smoother = SmootherKind::Holt { beta: 0.3 };
        assert!(c.validate().is_ok());
        assert_eq!(c.gains().beta, Some(0.3));
        c.smoother = SmootherKind::Exponential;
        assert_eq!(c.gains().beta, None);
        assert_eq!(c.gains().alpha, c.alpha);
    }

    #[test]
    fn rejects_nonpositive_period() {
        let mut c = ControllerConfig::default();
        c.delta_d = Seconds(0.0);
        assert_eq!(c.validate(), Err(ConfigError::Period));
    }
}
