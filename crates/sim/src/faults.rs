//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* can go wrong — message loss rates, PMU
//! crash windows, stuck or noisy temperature sensors, migration failures —
//! and a [`FaultInjector`] turns the plan into a concrete
//! [`Disturbances`] value per demand period, using its own seeded RNG.
//!
//! Two properties carry the whole robustness-testing story:
//!
//! 1. **Determinism.** Same plan (including `seed`) → the same disturbance
//!    stream, tick for tick. Fault experiments are exactly reproducible.
//! 2. **Isolation.** The injector's RNG is separate from the workload RNG,
//!    and a plan with all rates zero and no scheduled windows produces
//!    quiet disturbances every tick — so adding a zero plan to a run
//!    reproduces the fault-free trajectory bit for bit.

use crate::error::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use willow_core::{Disturbances, MigrationOutcome};
use willow_thermal::units::Celsius;

/// Migration outcomes pre-rolled per period. The controller decides at
/// most a handful of migrations per period; 32 is far beyond any real
/// decision count, and attempts past the pre-rolled list succeed anyway.
const MIGRATION_ROLLS: usize = 32;

/// A PMU crash window: the server's controller is down for
/// `from <= tick < until` — its report and directive are lost every period
/// in the window and it cannot be a migration target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CrashWindow {
    /// Server index (order of `Willow::servers`).
    pub server: usize,
    /// First faulty demand period (inclusive).
    pub from: u64,
    /// First healthy demand period again (exclusive end).
    pub until: u64,
}

impl CrashWindow {
    /// Is `tick` inside the window?
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.from <= tick && tick < self.until
    }
}

/// A *controller* outage window: the central control plane is down for
/// `from <= tick < until`. While down, the leaves run open-loop on their
/// last applied budgets (stale-directive watchdogs trip fleet-wide as
/// designed); at `until` the controller restarts from its last periodic
/// checkpoint and reconciles against the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ControllerOutage {
    /// First down demand period (inclusive).
    pub from: u64,
    /// First healthy demand period again (exclusive end).
    pub until: u64,
}

impl ControllerOutage {
    /// Is `tick` inside the window?
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.from <= tick && tick < self.until
    }
}

/// Controller crash/restart schedule plus the checkpoint cadence backing
/// recovery. Windows must be sorted, non-overlapping, and start at tick 1
/// or later (tick 0 always checkpoints, so a restart always has a
/// checkpoint to restore from).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ControllerCrashPlan {
    /// Demand periods between controller checkpoints (tick 0 included).
    pub checkpoint_period: u64,
    /// Outage windows, sorted and non-overlapping.
    pub windows: Vec<ControllerOutage>,
}

impl ControllerCrashPlan {
    /// Validate the schedule (see [`ControllerCrashPlan`] field rules).
    ///
    /// # Errors
    /// Returns [`SimError::ControllerCrashPlan`] naming the first rule
    /// violated, or [`SimError::FaultWindow`] for an empty window.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.checkpoint_period == 0 {
            return Err(SimError::ControllerCrashPlan {
                reason: "checkpoint_period must be at least 1",
            });
        }
        let mut prev_until = 0;
        for w in &self.windows {
            if w.from >= w.until {
                return Err(SimError::FaultWindow {
                    from: w.from,
                    until: w.until,
                });
            }
            if w.from == 0 {
                return Err(SimError::ControllerCrashPlan {
                    reason: "a window may not start at tick 0 (no checkpoint exists yet)",
                });
            }
            if w.from < prev_until {
                return Err(SimError::ControllerCrashPlan {
                    reason: "windows must be sorted and non-overlapping",
                });
            }
            prev_until = w.until;
        }
        Ok(())
    }

    /// Is the controller down at `tick`?
    #[must_use]
    pub fn down(&self, tick: u64) -> bool {
        self.windows.iter().any(|w| w.active(tick))
    }
}

/// What goes wrong with a zone during a [`ZoneOutage`] window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZoneOutageKind {
    /// The zone's own controller crashes: its leaves run open-loop on last
    /// budgets and it restarts from its zone-local checkpoint at the end
    /// of the window. The broker sees the zone as unreachable.
    ControllerCrash,
    /// The broker↔zone network link is down: the zone controller keeps
    /// running closed-loop *inside* the zone, but no demand report reaches
    /// the broker and no grant reaches the zone — the zone runs on its
    /// last delivered grant (open-loop at the federation level).
    Isolation,
    /// Reports still arrive but are stale (the broker must not trust
    /// them): the broker reuses last-known demand and applies a
    /// tightening-only split for the zone. Grants are still delivered.
    StaleReports,
}

/// One zone-level fault window: zone `zone` suffers `kind` for
/// `from <= tick < until`. Unknown keys are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZoneOutage {
    /// Zone index (order of the federation's zone list).
    pub zone: usize,
    /// What goes wrong.
    pub kind: ZoneOutageKind,
    /// First faulty demand period (inclusive).
    pub from: u64,
    /// First healthy demand period again (exclusive end).
    pub until: u64,
}

impl ZoneOutage {
    /// Is `tick` inside the window?
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.from <= tick && tick < self.until
    }
}

/// Federation-level fault schedule: per-zone outage windows plus broker
/// crash windows, with the checkpoint cadence backing both broker and
/// zone-controller recovery.
///
/// Structural rules (checked by [`ZoneOutagePlan::validate`]):
/// broker-crash and [`ZoneOutageKind::ControllerCrash`] windows must start
/// at tick 1 or later (tick 0 always checkpoints, so a restart always has
/// a checkpoint to restore from); windows of the same kind on the same
/// zone must be sorted and non-overlapping. Windows of *different* kinds
/// may overlap — a crashed zone can simultaneously be isolated — with
/// severity precedence crash > isolation > stale reports. Unknown keys are
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZoneOutagePlan {
    /// Demand periods between checkpoints (tick 0 included), used for the
    /// broker snapshot and for every zone that has crash windows.
    pub checkpoint_period: u64,
    /// Broker crash windows: while down, no apportioning happens and every
    /// zone runs open-loop on its last grant. Sorted, non-overlapping.
    #[serde(default)]
    pub broker_crash: Vec<ControllerOutage>,
    /// Per-zone outage windows.
    #[serde(default)]
    pub outages: Vec<ZoneOutage>,
}

impl ZoneOutagePlan {
    /// A plan that schedules nothing — running with it reproduces the
    /// outage-free federation trajectory exactly.
    #[must_use]
    pub fn quiet() -> Self {
        ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Validate the schedule against a federation of `n_zones` zones.
    ///
    /// # Errors
    /// Returns [`SimError::ZoneOutagePlan`] naming the first structural
    /// rule violated, [`SimError::ZoneOutageZone`] for a zone index past
    /// the federation, or [`SimError::FaultWindow`] for an empty window.
    pub fn validate(&self, n_zones: usize) -> Result<(), SimError> {
        if self.checkpoint_period == 0 {
            return Err(SimError::ZoneOutagePlan {
                reason: "checkpoint_period must be at least 1",
            });
        }
        let mut prev_until = 0;
        for w in &self.broker_crash {
            if w.from >= w.until {
                return Err(SimError::FaultWindow {
                    from: w.from,
                    until: w.until,
                });
            }
            if w.from == 0 {
                return Err(SimError::ZoneOutagePlan {
                    reason: "a broker-crash window may not start at tick 0 \
                             (no broker checkpoint exists yet)",
                });
            }
            if w.from < prev_until {
                return Err(SimError::ZoneOutagePlan {
                    reason: "broker-crash windows must be sorted and non-overlapping",
                });
            }
            prev_until = w.until;
        }
        for o in &self.outages {
            if o.zone >= n_zones {
                return Err(SimError::ZoneOutageZone {
                    index: o.zone,
                    zones: n_zones,
                });
            }
            if o.from >= o.until {
                return Err(SimError::FaultWindow {
                    from: o.from,
                    until: o.until,
                });
            }
            if o.kind == ZoneOutageKind::ControllerCrash && o.from == 0 {
                return Err(SimError::ZoneOutagePlan {
                    reason: "a zone controller-crash window may not start at \
                             tick 0 (no zone checkpoint exists yet)",
                });
            }
        }
        // Same-(zone, kind) windows must be sorted and non-overlapping;
        // O(n²) is fine at plan-validation scale.
        for (i, a) in self.outages.iter().enumerate() {
            for b in &self.outages[i + 1..] {
                if a.zone != b.zone || a.kind != b.kind {
                    continue;
                }
                if b.from < a.until {
                    return Err(SimError::ZoneOutagePlan {
                        reason: "same-kind windows on one zone must be sorted \
                                 and non-overlapping",
                    });
                }
            }
        }
        Ok(())
    }

    /// Is the broker down at `tick`?
    #[must_use]
    pub fn broker_down(&self, tick: u64) -> bool {
        self.broker_crash.iter().any(|w| w.active(tick))
    }

    /// The broker's view of `zone` at `tick`, by severity precedence:
    /// a crashed zone is `Down` even if also isolated; an isolated zone is
    /// `Isolated` even if its reports would also be stale.
    #[must_use]
    pub fn zone_condition(&self, zone: usize, tick: u64) -> willow_core::ZoneCondition {
        use willow_core::ZoneCondition;
        let mut condition = ZoneCondition::Healthy;
        for o in self.outages.iter().filter(|o| o.zone == zone) {
            if !o.active(tick) {
                continue;
            }
            let c = match o.kind {
                ZoneOutageKind::ControllerCrash => ZoneCondition::Down,
                ZoneOutageKind::Isolation => ZoneCondition::Isolated,
                ZoneOutageKind::StaleReports => ZoneCondition::StaleReport,
            };
            if severity(c) > severity(condition) {
                condition = c;
            }
        }
        condition
    }

    /// Extract `zone`'s controller-crash windows as a zone-local
    /// [`ControllerCrashPlan`] (sharing this plan's checkpoint cadence),
    /// or `None` if the zone never crashes — so a crash-free zone skips
    /// checkpointing entirely and stays bit-for-bit with a standalone run.
    #[must_use]
    pub fn crash_plan_for(&self, zone: usize) -> Option<ControllerCrashPlan> {
        let windows: Vec<ControllerOutage> = self
            .outages
            .iter()
            .filter(|o| o.zone == zone && o.kind == ZoneOutageKind::ControllerCrash)
            .map(|o| ControllerOutage {
                from: o.from,
                until: o.until,
            })
            .collect();
        if windows.is_empty() {
            return None;
        }
        Some(ControllerCrashPlan {
            checkpoint_period: self.checkpoint_period,
            windows,
        })
    }
}

/// Severity order for overlapping zone-outage windows.
fn severity(c: willow_core::ZoneCondition) -> u8 {
    use willow_core::ZoneCondition;
    match c {
        ZoneCondition::Healthy => 0,
        ZoneCondition::StaleReport => 1,
        ZoneCondition::Isolated => 2,
        ZoneCondition::Down => 3,
    }
}

/// A faulty temperature sensor over a window of demand periods.
///
/// With `stuck_at` set the sensor reads that constant regardless of the
/// true temperature (a stuck-at fault); otherwise `noise_sigma` adds
/// zero-mean Gaussian error per period. Both together read stuck-at (the
/// override wins, matching [`Disturbances::measured_temp`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SensorFault {
    /// Server index (order of `Willow::servers`).
    pub server: usize,
    /// First faulty demand period (inclusive).
    pub from: u64,
    /// First healthy demand period again (exclusive end).
    pub until: u64,
    /// Stuck-at reading in °C, if the sensor is stuck.
    pub stuck_at: Option<Celsius>,
    /// Standard deviation of additive Gaussian reading noise in °C.
    pub noise_sigma: f64,
}

impl SensorFault {
    /// Is `tick` inside the window?
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.from <= tick && tick < self.until
    }
}

/// A complete, self-contained description of the faults in one run. A
/// plan naming a key that is not a field here fails to load rather than
/// running with that fault silently absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Seed for the injector's own RNG (separate from the workload RNG).
    pub seed: u64,
    /// Per-server, per-period probability the upward demand report is lost.
    pub report_loss: f64,
    /// Per-server, per-period probability the downward budget directive is
    /// lost (only bites on supply ticks, where directives are issued).
    pub directive_loss: f64,
    /// Per-attempt probability a migration fails.
    pub migration_failure: f64,
    /// Of the failed migrations, the fraction that abort mid-flight (the
    /// rest are admission rejections at the destination).
    pub abort_fraction: f64,
    /// Scheduled PMU crash windows.
    pub crashes: Vec<CrashWindow>,
    /// Scheduled sensor faults.
    pub sensor_faults: Vec<SensorFault>,
    /// Central-controller crash/restart schedule, if any. `None` keeps the
    /// controller up for the whole run (and skips checkpointing).
    #[serde(default)]
    pub controller_crash: Option<ControllerCrashPlan>,
}

impl FaultPlan {
    /// A plan that injects nothing — running with it reproduces the
    /// fault-free trajectory exactly.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Check the plan against a topology with `n_servers` servers.
    ///
    /// # Errors
    /// Returns the first inconsistency found: a probability outside its
    /// legal range, a server index past the topology, an empty window, or
    /// a non-finite sensor value.
    pub fn validate(&self, n_servers: usize) -> Result<(), SimError> {
        let probability = |field: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(SimError::FaultProbability { field, value })
            }
        };
        probability("report_loss", self.report_loss)?;
        probability("directive_loss", self.directive_loss)?;
        probability("migration_failure", self.migration_failure)?;
        probability("abort_fraction", self.abort_fraction)?;

        for c in &self.crashes {
            if c.server >= n_servers {
                return Err(SimError::FaultServer {
                    index: c.server,
                    servers: n_servers,
                });
            }
            if c.from >= c.until {
                return Err(SimError::FaultWindow {
                    from: c.from,
                    until: c.until,
                });
            }
        }
        for s in &self.sensor_faults {
            if s.server >= n_servers {
                return Err(SimError::FaultServer {
                    index: s.server,
                    servers: n_servers,
                });
            }
            if s.from >= s.until {
                return Err(SimError::FaultWindow {
                    from: s.from,
                    until: s.until,
                });
            }
            if let Some(t) = s.stuck_at {
                if !t.0.is_finite() {
                    return Err(SimError::FaultSensor(t.0));
                }
            }
            if !s.noise_sigma.is_finite() || s.noise_sigma < 0.0 {
                return Err(SimError::FaultSensor(s.noise_sigma));
            }
        }
        if let Some(cc) = &self.controller_crash {
            cc.validate()?;
        }
        Ok(())
    }
}

/// Rolls a [`FaultPlan`] into per-period [`Disturbances`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    n_servers: usize,
}

impl FaultInjector {
    /// Build an injector for a topology with `n_servers` servers.
    ///
    /// # Errors
    /// Rejects an invalid plan (see [`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan, n_servers: usize) -> Result<Self, SimError> {
        plan.validate(n_servers)?;
        let rng = StdRng::seed_from_u64(plan.seed);
        Ok(FaultInjector {
            plan,
            rng,
            n_servers,
        })
    }

    /// The plan this injector is rolling.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Roll the disturbances for demand period `tick`.
    ///
    /// Must be called once per period, in order: the RNG stream advances
    /// with every call, and the roll order within a call is fixed (message
    /// losses per server, sensor noise per scheduled fault, migration
    /// outcomes last), so a given plan always produces the same stream.
    pub fn disturbances_for(&mut self, tick: u64) -> Disturbances {
        let n = self.n_servers;
        let mut d = Disturbances {
            crashed: vec![false; n],
            report_lost: vec![false; n],
            directive_lost: vec![false; n],
            sensor_override: vec![None; n],
            sensor_offset: vec![0.0; n],
            migration_outcomes: Vec::new(),
        };

        for si in 0..n {
            if self.plan.report_loss > 0.0 && self.rng.gen_bool(self.plan.report_loss) {
                d.report_lost[si] = true;
            }
            if self.plan.directive_loss > 0.0 && self.rng.gen_bool(self.plan.directive_loss) {
                d.directive_lost[si] = true;
            }
        }

        for c in &self.plan.crashes {
            if c.active(tick) {
                d.crashed[c.server] = true;
            }
        }

        for s in &self.plan.sensor_faults {
            if !s.active(tick) {
                continue;
            }
            if let Some(stuck) = s.stuck_at {
                d.sensor_override[s.server] = Some(stuck);
            } else if s.noise_sigma > 0.0 {
                // Box–Muller: the rand stub has no Normal distribution.
                let u1: f64 = self.rng.gen();
                let u2: f64 = self.rng.gen();
                // gen() is in [0,1); 1-u1 is in (0,1], so ln is finite.
                let gauss = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                d.sensor_offset[s.server] += s.noise_sigma * gauss;
            }
        }

        if self.plan.migration_failure > 0.0 {
            d.migration_outcomes = (0..MIGRATION_ROLLS)
                .map(|_| {
                    if self.rng.gen_bool(self.plan.migration_failure) {
                        if self.rng.gen_bool(self.plan.abort_fraction) {
                            MigrationOutcome::Abort
                        } else {
                            MigrationOutcome::Reject
                        }
                    } else {
                        MigrationOutcome::Success
                    }
                })
                .collect();
        }

        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roll_run(plan: &FaultPlan, ticks: u64) -> Vec<Disturbances> {
        let mut inj = FaultInjector::new(plan.clone(), 4).unwrap();
        (0..ticks).map(|t| inj.disturbances_for(t)).collect()
    }

    #[test]
    fn quiet_plan_rolls_quiet_disturbances() {
        for d in roll_run(&FaultPlan::quiet(99), 50) {
            assert!(d.is_quiet());
        }
    }

    #[test]
    fn same_plan_same_stream() {
        let plan = FaultPlan {
            seed: 7,
            report_loss: 0.3,
            directive_loss: 0.2,
            migration_failure: 0.5,
            abort_fraction: 0.5,
            sensor_faults: vec![SensorFault {
                server: 1,
                from: 0,
                until: 100,
                stuck_at: None,
                noise_sigma: 1.5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(roll_run(&plan, 40), roll_run(&plan, 40));
        // A different seed must (with these rates, over 40 ticks) differ.
        let other = FaultPlan {
            seed: 8,
            ..plan.clone()
        };
        assert_ne!(roll_run(&plan, 40), roll_run(&other, 40));
    }

    #[test]
    fn windows_schedule_crashes_and_sensors() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                server: 2,
                from: 10,
                until: 20,
            }],
            sensor_faults: vec![SensorFault {
                server: 0,
                from: 5,
                until: 15,
                stuck_at: Some(Celsius(95.0)),
                noise_sigma: 0.0,
            }],
            ..FaultPlan::default()
        };
        let rolls = roll_run(&plan, 30);
        for (t, d) in rolls.iter().enumerate() {
            let t = t as u64;
            assert_eq!(d.crashed(2), (10..20).contains(&t), "tick {t}");
            assert!(!d.crashed(0));
            let stuck = d.sensor_override[0];
            assert_eq!(stuck.is_some(), (5..15).contains(&t), "tick {t}");
            if let Some(c) = stuck {
                assert_eq!(c, Celsius(95.0));
            }
        }
    }

    #[test]
    fn migration_outcomes_mix_matches_plan() {
        let plan = FaultPlan {
            seed: 3,
            migration_failure: 1.0,
            abort_fraction: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 4).unwrap();
        let d = inj.disturbances_for(0);
        assert_eq!(d.migration_outcomes.len(), MIGRATION_ROLLS);
        assert!(d
            .migration_outcomes
            .iter()
            .all(|&o| o == MigrationOutcome::Abort));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let n = 4;
        let bad_prob = FaultPlan {
            report_loss: 1.5,
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_prob.validate(n),
            Err(SimError::FaultProbability { .. })
        ));
        let bad_server = FaultPlan {
            crashes: vec![CrashWindow {
                server: 4,
                from: 0,
                until: 1,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_server.validate(n),
            Err(SimError::FaultServer { index: 4, .. })
        ));
        let bad_window = FaultPlan {
            sensor_faults: vec![SensorFault {
                server: 0,
                from: 5,
                until: 5,
                stuck_at: None,
                noise_sigma: 1.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_window.validate(n),
            Err(SimError::FaultWindow { .. })
        ));
        let bad_sigma = FaultPlan {
            sensor_faults: vec![SensorFault {
                server: 0,
                from: 0,
                until: 1,
                stuck_at: None,
                noise_sigma: -1.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_sigma.validate(n),
            Err(SimError::FaultSensor(_))
        ));
        let zero_period = FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 0,
                windows: Vec::new(),
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            zero_period.validate(n),
            Err(SimError::ControllerCrashPlan { .. })
        ));
        let window_at_zero = FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 10,
                windows: vec![ControllerOutage { from: 0, until: 5 }],
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            window_at_zero.validate(n),
            Err(SimError::ControllerCrashPlan { .. })
        ));
        let overlapping = FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 10,
                windows: vec![
                    ControllerOutage { from: 5, until: 15 },
                    ControllerOutage {
                        from: 10,
                        until: 20,
                    },
                ],
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            overlapping.validate(n),
            Err(SimError::ControllerCrashPlan { .. })
        ));
        let sound = FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 10,
                windows: vec![
                    ControllerOutage { from: 5, until: 15 },
                    ControllerOutage {
                        from: 15,
                        until: 20,
                    },
                ],
            }),
            ..FaultPlan::default()
        };
        assert!(sound.validate(n).is_ok());
        assert!(FaultPlan::quiet(0).validate(n).is_ok());
    }

    #[test]
    fn retired_message_faults_key_is_rejected() {
        // Message faults were validated but never injected; a plan still
        // naming them fails instead of running without them.
        let json = serde_json::to_string(&FaultPlan::quiet(0)).unwrap();
        let legacy = json.replacen('{', "{\"message_faults\":{\"loss\":0.5},", 1);
        let err = serde_json::from_str::<FaultPlan>(&legacy)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown field `message_faults` for FaultPlan"),
            "unexpected error: {err}"
        );
    }

    /// A plan with one zone outage, as JSON, with `key` misspelt `typo`.
    fn misspelt_zone_plan(key: &str, typo: &str) -> String {
        let plan = ZoneOutagePlan {
            checkpoint_period: 5,
            broker_crash: Vec::new(),
            outages: vec![ZoneOutage {
                zone: 0,
                kind: ZoneOutageKind::Isolation,
                from: 2,
                until: 4,
            }],
        };
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<ZoneOutagePlan>(&json), Ok(plan));
        let needle = format!("\"{key}\":");
        assert!(json.contains(&needle), "{key} missing from {json}");
        let typoed = json.replacen(&needle, &format!("\"{typo}\":"), 1);
        serde_json::from_str::<ZoneOutagePlan>(&typoed)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn misspelt_zone_outage_plan_key_is_rejected() {
        // `broker_crashes` used to parse as a plan without broker crashes.
        assert_eq!(
            misspelt_zone_plan("broker_crash", "broker_crashes"),
            "unknown field `broker_crashes` for ZoneOutagePlan"
        );
    }

    #[test]
    fn misspelt_zone_outage_key_is_rejected() {
        assert_eq!(
            misspelt_zone_plan("until", "untill"),
            "unknown field `untill` for ZoneOutage"
        );
    }

    #[test]
    fn zone_outage_plan_validation() {
        use ZoneOutageKind::*;
        let ok = ZoneOutagePlan {
            checkpoint_period: 5,
            broker_crash: vec![ControllerOutage { from: 3, until: 8 }],
            outages: vec![
                ZoneOutage {
                    zone: 0,
                    kind: ControllerCrash,
                    from: 10,
                    until: 20,
                },
                ZoneOutage {
                    zone: 0,
                    kind: Isolation,
                    from: 15,
                    until: 25,
                },
                ZoneOutage {
                    zone: 1,
                    kind: StaleReports,
                    from: 0,
                    until: 5,
                },
            ],
        };
        assert!(ok.validate(2).is_ok());
        assert!(matches!(
            ok.validate(1),
            Err(SimError::ZoneOutageZone { index: 1, zones: 1 })
        ));

        let zero_period = ZoneOutagePlan {
            checkpoint_period: 0,
            ..ZoneOutagePlan::quiet()
        };
        assert!(matches!(
            zero_period.validate(2),
            Err(SimError::ZoneOutagePlan { .. })
        ));

        let broker_at_zero = ZoneOutagePlan {
            broker_crash: vec![ControllerOutage { from: 0, until: 4 }],
            ..ZoneOutagePlan::quiet()
        };
        assert!(matches!(
            broker_at_zero.validate(2),
            Err(SimError::ZoneOutagePlan { .. })
        ));

        let crash_at_zero = ZoneOutagePlan {
            outages: vec![ZoneOutage {
                zone: 0,
                kind: ControllerCrash,
                from: 0,
                until: 4,
            }],
            ..ZoneOutagePlan::quiet()
        };
        assert!(matches!(
            crash_at_zero.validate(2),
            Err(SimError::ZoneOutagePlan { .. })
        ));
        // Isolation at tick 0 is legal — no checkpoint is needed for it.
        let isolated_at_zero = ZoneOutagePlan {
            outages: vec![ZoneOutage {
                zone: 0,
                kind: Isolation,
                from: 0,
                until: 4,
            }],
            ..ZoneOutagePlan::quiet()
        };
        assert!(isolated_at_zero.validate(2).is_ok());

        let overlapping_same_kind = ZoneOutagePlan {
            outages: vec![
                ZoneOutage {
                    zone: 1,
                    kind: Isolation,
                    from: 5,
                    until: 15,
                },
                ZoneOutage {
                    zone: 1,
                    kind: Isolation,
                    from: 10,
                    until: 20,
                },
            ],
            ..ZoneOutagePlan::quiet()
        };
        assert!(matches!(
            overlapping_same_kind.validate(2),
            Err(SimError::ZoneOutagePlan { .. })
        ));

        let empty_window = ZoneOutagePlan {
            outages: vec![ZoneOutage {
                zone: 0,
                kind: StaleReports,
                from: 7,
                until: 7,
            }],
            ..ZoneOutagePlan::quiet()
        };
        assert!(matches!(
            empty_window.validate(2),
            Err(SimError::FaultWindow { from: 7, until: 7 })
        ));
    }

    #[test]
    fn zone_condition_takes_the_most_severe_overlap() {
        use willow_core::ZoneCondition;
        use ZoneOutageKind::*;
        let plan = ZoneOutagePlan {
            checkpoint_period: 5,
            broker_crash: vec![ControllerOutage { from: 3, until: 6 }],
            outages: vec![
                ZoneOutage {
                    zone: 0,
                    kind: StaleReports,
                    from: 10,
                    until: 30,
                },
                ZoneOutage {
                    zone: 0,
                    kind: Isolation,
                    from: 15,
                    until: 25,
                },
                ZoneOutage {
                    zone: 0,
                    kind: ControllerCrash,
                    from: 20,
                    until: 22,
                },
            ],
        };
        plan.validate(1).unwrap();
        assert_eq!(plan.zone_condition(0, 9), ZoneCondition::Healthy);
        assert_eq!(plan.zone_condition(0, 12), ZoneCondition::StaleReport);
        assert_eq!(plan.zone_condition(0, 16), ZoneCondition::Isolated);
        assert_eq!(plan.zone_condition(0, 21), ZoneCondition::Down);
        assert_eq!(plan.zone_condition(0, 24), ZoneCondition::Isolated);
        assert_eq!(plan.zone_condition(0, 29), ZoneCondition::StaleReport);
        assert_eq!(plan.zone_condition(0, 30), ZoneCondition::Healthy);
        assert!(plan.broker_down(3) && plan.broker_down(5));
        assert!(!plan.broker_down(2) && !plan.broker_down(6));

        let crash = plan.crash_plan_for(0).unwrap();
        assert_eq!(crash.checkpoint_period, 5);
        assert_eq!(
            crash.windows,
            vec![ControllerOutage {
                from: 20,
                until: 22
            }]
        );
        assert!(crash.validate().is_ok());
        assert!(ZoneOutagePlan::quiet().crash_plan_for(0).is_none());
    }
}
