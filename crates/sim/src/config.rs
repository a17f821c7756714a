//! Simulation configuration (the paper's §V-B1 setup, made explicit).

use crate::commands::ScheduledCommand;
use crate::error::SimError;
use crate::faults::FaultPlan;
use serde::{Deserialize, Serialize};
use willow_core::config::ControllerConfig;
use willow_power::SupplyTrace;
use willow_thermal::units::{Celsius, Watts};

/// A contiguous range of servers (0-based, half-open) placed in a thermal
/// zone with the given ambient temperature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThermalZone {
    /// First server index in the zone.
    pub start: usize,
    /// One past the last server index.
    pub end: usize,
    /// Ambient temperature of the zone.
    pub ambient: Celsius,
}

/// Full configuration of one simulation run. A config naming a key that
/// is not a field here fails to load rather than running with that key
/// ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimConfig {
    /// RNG seed — every stochastic choice in the run derives from it.
    pub seed: u64,
    /// Per-level branching factors, root first (`[2, 3, 3]` = Fig. 3).
    pub branching: Vec<usize>,
    /// Average data-center utilization `U ∈ [0, 1]` driving demand means.
    pub utilization: f64,
    /// Number of demand periods to simulate.
    pub ticks: usize,
    /// Warm-up periods excluded from aggregate metrics.
    pub warmup: usize,
    /// Applications per server (the paper places 4).
    pub apps_per_server: usize,
    /// Thermal zones; servers not covered default to 25 °C.
    pub zones: Vec<ThermalZone>,
    /// Controller tunables.
    pub controller: ControllerConfig,
    /// Total supply per period; `None` means constant supply
    /// `supply_factor × servers × 450 W` (the paper's §V-C5 remark that the
    /// simulations run the supply *close to* the servers' maximum power
    /// limit — close to, not above, so surpluses genuinely run out at high
    /// utilization as Fig. 10 requires).
    pub supply: Option<SupplyTrace>,
    /// Fraction of the aggregate server rating available when `supply` is
    /// `None`.
    pub supply_factor: f64,
    /// Amplitude of the slow AR(1) drift applied to each application's
    /// offered load, re-creating the workload-intensity variation of
    /// §IV-C. Zero disables the drift (pure i.i.d. Poisson demand).
    pub demand_drift: f64,
    /// Optional utilization *trace*: one target utilization per demand
    /// period (held at the last value past the end), replacing the constant
    /// `utilization` — replay of diurnal or recorded intensity profiles
    /// (§IV-C "varying intensity"). Values must lie in [0, 1].
    #[serde(default)]
    pub utilization_trace: Option<Vec<f64>>,
    /// Optional fault plan: deterministic injection of control-message
    /// loss, PMU crashes, sensor faults and migration failures. `None`
    /// (the default, so old configs still parse) runs fault-free.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Panic as soon as the always-on invariant auditor finds a violation,
    /// instead of only counting it (CI / chaos-harness mode). Defaults to
    /// `false`, so old configs still parse.
    #[serde(default)]
    pub audit_panic: bool,
    /// Live-ops command timeline: operator commands submitted into the
    /// running controller at scheduled ticks (see [`crate::commands`]).
    /// Empty (the default, so old configs still parse) runs command-free.
    #[serde(default)]
    pub commands: Vec<ScheduledCommand>,
}

impl SimConfig {
    /// The paper's simulation setup: Fig. 3 topology (4 levels, 18
    /// servers), 4 apps per server, uniform 25 °C, ample supply, 300 ticks
    /// with 50 warm-up.
    #[must_use]
    pub fn paper_default(seed: u64, utilization: f64) -> Self {
        SimConfig {
            seed,
            branching: vec![2, 3, 3],
            utilization,
            ticks: 300,
            warmup: 50,
            apps_per_server: 4,
            zones: Vec::new(),
            controller: ControllerConfig::default(),
            supply: None,
            supply_factor: 0.92,
            demand_drift: 0.35,
            utilization_trace: None,
            faults: None,
            audit_panic: false,
            commands: Vec::new(),
        }
    }

    /// The hot/cold-zone setting of §V-B3: servers 1–14 at 25 °C and
    /// servers 15–18 at 40 °C.
    #[must_use]
    pub fn paper_hot_cold(seed: u64, utilization: f64) -> Self {
        let mut cfg = SimConfig::paper_default(seed, utilization);
        cfg.zones = vec![ThermalZone {
            start: 14,
            end: 18,
            ambient: Celsius(40.0),
        }];
        cfg
    }

    /// Number of servers implied by the branching factors.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.branching.iter().product()
    }

    /// The constant supply used when `supply` is `None`.
    #[must_use]
    pub fn ample_supply(&self) -> Watts {
        Watts(self.n_servers() as f64 * 450.0 * self.supply_factor)
    }

    /// Validate basic invariants.
    ///
    /// # Errors
    /// Returns the first violated invariant as a typed [`SimError`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.branching.is_empty() || self.branching.contains(&0) {
            return Err(SimError::Branching);
        }
        if !(0.0..=1.0).contains(&self.utilization) {
            return Err(SimError::Utilization(self.utilization));
        }
        if self.warmup >= self.ticks {
            return Err(SimError::Warmup {
                warmup: self.warmup,
                ticks: self.ticks,
            });
        }
        if self.apps_per_server == 0 {
            return Err(SimError::AppsPerServer);
        }
        if !(0.0..=1.0).contains(&self.supply_factor) {
            return Err(SimError::SupplyFactor(self.supply_factor));
        }
        if !(0.0..1.0).contains(&self.demand_drift) {
            return Err(SimError::DemandDrift(self.demand_drift));
        }
        if let Some(trace) = &self.utilization_trace {
            if let Some(&u) = trace.iter().find(|u| !(0.0..=1.0).contains(*u)) {
                return Err(SimError::UtilizationTrace(u));
            }
        }
        let n = self.n_servers();
        for z in &self.zones {
            if z.start >= z.end || z.end > n {
                return Err(SimError::Zone {
                    start: z.start,
                    end: z.end,
                    servers: n,
                });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate(n)?;
        }
        for sc in &self.commands {
            if let Some(factor) = sc.command.invalid_factor() {
                return Err(SimError::SupplyOverrideFactor(factor));
            }
        }
        self.controller.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_fig3() {
        let cfg = SimConfig::paper_default(1, 0.4);
        cfg.validate().unwrap();
        assert_eq!(cfg.n_servers(), 18);
        assert_eq!(cfg.ample_supply(), Watts(8100.0 * 0.92));
    }

    #[test]
    fn hot_cold_covers_last_four() {
        let cfg = SimConfig::paper_hot_cold(1, 0.4);
        cfg.validate().unwrap();
        assert_eq!(cfg.zones.len(), 1);
        assert_eq!(cfg.zones[0].end - cfg.zones[0].start, 4);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.utilization = 1.5;
        assert_eq!(cfg.validate(), Err(SimError::Utilization(1.5)));

        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.warmup = cfg.ticks;
        assert!(matches!(cfg.validate(), Err(SimError::Warmup { .. })));

        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.zones = vec![ThermalZone {
            start: 10,
            end: 30,
            ambient: Celsius(40.0),
        }];
        assert!(matches!(cfg.validate(), Err(SimError::Zone { .. })));

        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.branching = vec![2, 0];
        assert_eq!(cfg.validate(), Err(SimError::Branching));
    }

    #[test]
    fn validation_covers_fault_plan() {
        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.faults = Some(FaultPlan {
            report_loss: 2.0,
            ..FaultPlan::default()
        });
        assert!(matches!(
            cfg.validate(),
            Err(SimError::FaultProbability { .. })
        ));
        cfg.faults = Some(FaultPlan::quiet(3));
        cfg.validate().unwrap();
    }

    #[test]
    fn config_without_faults_field_still_parses() {
        // Pre-fault-plan configs (no `faults` key) must keep loading.
        let mut cfg = SimConfig::paper_default(5, 0.5);
        cfg.faults = None;
        let mut json = serde_json::to_string(&cfg).unwrap();
        // Strip the serialized `"faults":null` to emulate an old file.
        json = json.replace(",\"faults\":null", "");
        assert!(!json.contains("faults"));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_without_commands_field_still_parses() {
        // Pre-command-plane configs (no `commands` key) must keep loading.
        let cfg = SimConfig::paper_default(5, 0.5);
        let mut json = serde_json::to_string(&cfg).unwrap();
        json = json.replace(",\"commands\":[]", "");
        assert!(!json.contains("commands"));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn validation_covers_command_timeline() {
        use crate::commands::{ScheduledCommand, SimCommand};
        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.commands = vec![ScheduledCommand {
            tick: 5,
            command: SimCommand::SupplyOverride { factor: -2.0 },
        }];
        assert_eq!(cfg.validate(), Err(SimError::SupplyOverrideFactor(-2.0)));
        cfg.commands[0].command = SimCommand::SupplyOverride { factor: 0.4 };
        cfg.validate().unwrap();
    }

    #[test]
    fn serde_round_trip() {
        let cfg = SimConfig::paper_hot_cold(7, 0.6);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn retired_switch_model_key_is_rejected() {
        // The fabric figures read the switch model from code; a config
        // still carrying the retired key fails instead of ignoring it.
        let json = serde_json::to_string(&SimConfig::paper_default(1, 0.4)).unwrap();
        let legacy = json.replacen('{', "{\"switch_model\":{},", 1);
        let err = serde_json::from_str::<SimConfig>(&legacy)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown field `switch_model` for SimConfig"),
            "unexpected error: {err}"
        );
    }

    /// Parse `cfg` after renaming one key in its JSON; the load must fail
    /// naming the misspelt key and the nested struct that rejects it.
    fn misspelt_key_error(cfg: &SimConfig, key: &str, typo: &str) -> String {
        let json = serde_json::to_string(cfg).unwrap();
        let needle = format!("\"{key}\":");
        assert!(json.contains(&needle), "{key} missing from {json}");
        let typoed = json.replacen(&needle, &format!("\"{typo}\":"), 1);
        serde_json::from_str::<SimConfig>(&typoed)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn misspelt_sensor_fault_key_is_rejected() {
        // `stuck` for `stuck_at` used to parse as a fault-free sensor.
        let mut cfg = SimConfig::paper_hot_cold(1, 0.6);
        cfg.faults = Some(crate::faults::FaultPlan {
            sensor_faults: vec![crate::faults::SensorFault {
                server: 0,
                from: 0,
                until: 300,
                stuck_at: Some(Celsius(90.0)),
                noise_sigma: 0.0,
            }],
            ..crate::faults::FaultPlan::default()
        });
        let err = misspelt_key_error(&cfg, "stuck_at", "stuck");
        assert!(
            err.contains("unknown field `stuck` for SensorFault"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn misspelt_cost_model_key_is_rejected() {
        let cfg = SimConfig::paper_hot_cold(1, 0.6);
        let err = misspelt_key_error(&cfg, "nonlocal_reconfig", "nonlocal_reconfg");
        assert!(
            err.contains("unknown field `nonlocal_reconfg` for MigrationCostModel"),
            "unexpected error: {err}"
        );
    }
}
