//! Multi-zone federation driver: N independent zone simulations under one
//! fault-tolerant supply broker.
//!
//! [`FederatedSimulation`] is the one multi-zone tick loop: the
//! [`willow_core::federation`] module holds only the broker's ledger and
//! split, and everything that sequences it — zone conditions, broker
//! outages, broker checkpoints, recovery and zone rejoins — lives here.
//!
//! Each zone is a complete [`Simulation`] — its own controller, workload,
//! fault injector, auditor and (when zone crashes are scheduled)
//! checkpoint machinery. The [`willow_core::SupplyBroker`] sits above
//! them: every demand period it pools the zones' nominal supplies, reads
//! each reachable zone's aggregate demand report, and splits the total
//! proportionally — reusing the same capped water-filling division the
//! controllers use internally — then each zone runs its tick on its
//! grant.
//!
//! The robustness story mirrors the single-tree one, one level up:
//!
//! * **Zone controller crash** ([`ZoneOutageKind::ControllerCrash`]): the
//!   zone's own engine runs its leaves open-loop and recovers from its
//!   zone-local checkpoint; the broker sees the zone as unreachable and
//!   reserves its open-loop supply.
//! * **Zone isolation** ([`ZoneOutageKind::Isolation`]): the zone keeps
//!   running closed-loop internally, on its last delivered grant (the
//!   broker-side analogue of a leaf's stale-directive watchdog — after
//!   `missed_grant_threshold` missed grants the reservation tightens to
//!   `fallback_fraction` of the last grant).
//! * **Stale reports** ([`ZoneOutageKind::StaleReports`]): grants still
//!   flow, but the broker stops trusting the zone's numbers — it reuses
//!   the last known demand and caps the zone's grant at its last grant
//!   (tightening-only), exactly the leaf watchdog contract.
//! * **Broker crash**: no apportionment runs; every zone self-applies the
//!   open-loop protocol. On restart the broker recovers its ledger from
//!   its periodic checkpoint and reconciles every reachable zone against
//!   field truth ([`willow_core::SupplyBroker::rejoin`]) — a broker crash
//!   strands no zone.
//!
//! Conservation is the federation-level audit: the sum of broker-issued
//! grants never exceeds the total supply
//! ([`willow_core::BrokerCounters::conservation_violations`] stays 0).
//!
//! A federation of one healthy zone is bit-for-bit identical to the
//! standalone [`Simulation`] on the same config: the broker grants the
//! pooled total verbatim (single-zone fast path) and the engine applies
//! it through the same float expression it would have computed itself.
//!
//! `tests/federation_props.rs` property-tests this loop (two runs under
//! random zone faults, outages and broker crashes replay tick for tick)
//! and the broker ledger's checkpoint path (a JSON-restored broker stays
//! in lockstep through an outage).

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::error::SimError;
use crate::faults::{FaultPlan, ZoneOutagePlan};
use crate::metrics::{FabricSnapshot, MetricsAccumulator, RunMetrics};
use serde::{Deserialize, Serialize};
use willow_core::federation::{BrokerConfig, BrokerCounters, BrokerSnapshot, FederationError};
use willow_core::migration::TickReport;
use willow_core::{SupplyBroker, ZoneCondition};
use willow_thermal::units::Watts;

#[cfg(doc)]
use crate::faults::ZoneOutageKind;

/// Configuration of a federated run: one [`SimConfig`] per zone, the
/// broker's defense tunables, and an optional federation-level fault
/// schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederateConfig {
    /// Per-zone simulation configs. All zones must agree on `ticks` and
    /// `warmup` (the federation advances them in lockstep).
    pub zones: Vec<SimConfig>,
    /// Broker staleness/fallback tunables.
    #[serde(default)]
    pub broker: BrokerConfig,
    /// Zone outages and broker crash windows, if any.
    #[serde(default)]
    pub plan: Option<ZoneOutagePlan>,
}

impl FederateConfig {
    /// A federation with default broker tunables and no fault schedule.
    #[must_use]
    pub fn new(zones: Vec<SimConfig>) -> Self {
        FederateConfig {
            zones,
            broker: BrokerConfig::default(),
            plan: None,
        }
    }

    /// Validate the federation shape (per-zone configs are validated by
    /// [`Simulation::new`] when the federation is built).
    ///
    /// # Errors
    /// [`SimError::Federation`] for shape inconsistencies or a broker
    /// config [`BrokerConfig::validate`] rejects (with the broker's own
    /// reason), or the plan's own validation errors.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.zones.is_empty() {
            return Err(SimError::Federation {
                reason: "a federation needs at least one zone",
            });
        }
        let (ticks, warmup) = (self.zones[0].ticks, self.zones[0].warmup);
        for z in &self.zones {
            if z.ticks != ticks || z.warmup != warmup {
                return Err(SimError::Federation {
                    reason: "all zones must agree on ticks and warmup",
                });
            }
            if z.faults
                .as_ref()
                .and_then(|f| f.controller_crash.as_ref())
                .is_some_and(|cc| !cc.windows.is_empty())
            {
                return Err(SimError::Federation {
                    reason: "zone fault plans may not schedule their own controller-crash \
                             windows; schedule zone outages in the federation plan instead",
                });
            }
        }
        if let Some(plan) = &self.plan {
            plan.validate(self.zones.len())?;
        }
        self.broker.validate().map_err(broker_error)
    }
}

/// A broker construction error as the federation reports it, keeping the
/// broker's own statement of the rule that failed.
fn broker_error(e: FederationError) -> SimError {
    let reason = match e {
        FederationError::Config { reason } => reason,
        FederationError::NoZones => "a federation needs at least one zone",
        FederationError::Shape { .. } => "broker snapshot does not match the federation",
    };
    SimError::Federation { reason }
}

/// Per-zone federation gauges plus broker counter mirrors. Disabled by
/// default; [`FederatedSimulation::attach_telemetry`] wires the handles.
#[derive(Debug, Clone, Default)]
struct FederationTelemetry {
    zone_grants: Vec<willow_telemetry::Gauge>,
    zone_demands: Vec<willow_telemetry::Gauge>,
    total_supply: willow_telemetry::Gauge,
    apportions: willow_telemetry::Gauge,
    broker_down_ticks: willow_telemetry::Gauge,
    stale_report_ticks: willow_telemetry::Gauge,
    unreachable_zone_ticks: willow_telemetry::Gauge,
    link_trips: willow_telemetry::Gauge,
    overdraw_ticks: willow_telemetry::Gauge,
    conservation_violations: willow_telemetry::Gauge,
    broker_recoveries: willow_telemetry::Gauge,
    zone_rejoins: willow_telemetry::Gauge,
}

/// Aggregate outcome of a federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationRunMetrics {
    /// Per-zone run metrics, in zone order.
    pub zones: Vec<RunMetrics>,
    /// The broker's cumulative counters at the end of the run.
    pub broker: BrokerCounters,
    /// Broker restarts (checkpoint restore + fleet-wide reconcile).
    pub broker_recoveries: usize,
    /// Zone ledger reconciliations after isolation/crash windows ended.
    pub zone_rejoins: usize,
}

impl FederationRunMetrics {
    /// Total invariant violations across all zone auditors.
    #[must_use]
    pub fn invariant_violations(&self) -> usize {
        self.zones.iter().map(|z| z.invariant_violations).sum()
    }
}

/// N zone simulations in lockstep under one [`SupplyBroker`].
pub struct FederatedSimulation {
    zones: Vec<Simulation>,
    broker: SupplyBroker,
    plan: Option<ZoneOutagePlan>,
    tick: u64,
    ticks: usize,
    warmup: usize,
    /// Broker ledger checkpoint; only maintained when the plan schedules
    /// broker crashes — a crash-free federation pays nothing for it.
    broker_checkpoint: Option<BrokerSnapshot>,
    broker_was_down: bool,
    broker_recoveries: usize,
    zone_rejoins: usize,
    /// Was zone *i*'s grant undeliverable last period? Drives rejoin
    /// reconciliation when a zone becomes reachable again.
    zone_unreachable: Vec<bool>,
    /// Reusable per-tick buffers.
    conditions: Vec<ZoneCondition>,
    reports: Vec<Option<Watts>>,
    telemetry: FederationTelemetry,
}

impl FederatedSimulation {
    /// Build a federation from a validated config. Zone controller-crash
    /// windows from the plan are injected into the matching zone's own
    /// fault plan, so each zone's existing crash/checkpoint/recovery
    /// machinery handles them; zones the plan never crashes skip
    /// checkpointing entirely and stay bit-for-bit with standalone runs.
    ///
    /// # Errors
    /// Returns a typed [`SimError`] for federation-shape problems or any
    /// invalid zone config.
    pub fn new(config: FederateConfig) -> Result<Self, SimError> {
        config.validate()?;
        let n = config.zones.len();
        let ticks = config.zones[0].ticks;
        let warmup = config.zones[0].warmup;
        let mut zones = Vec::with_capacity(n);
        for (i, mut zone_cfg) in config.zones.into_iter().enumerate() {
            if let Some(crash) = config.plan.as_ref().and_then(|p| p.crash_plan_for(i)) {
                zone_cfg
                    .faults
                    .get_or_insert_with(|| FaultPlan::quiet(zone_cfg.seed))
                    .controller_crash = Some(crash);
            }
            zones.push(Simulation::new(zone_cfg)?);
        }
        let broker = SupplyBroker::new(n, config.broker).map_err(broker_error)?;
        Ok(FederatedSimulation {
            zones,
            broker,
            plan: config.plan,
            tick: 0,
            ticks,
            warmup,
            broker_checkpoint: None,
            broker_was_down: false,
            broker_recoveries: 0,
            zone_rejoins: 0,
            zone_unreachable: vec![false; n],
            conditions: vec![ZoneCondition::Healthy; n],
            reports: vec![None; n],
            telemetry: FederationTelemetry::default(),
        })
    }

    /// Number of zones.
    #[must_use]
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// The zone simulations, in zone order.
    #[must_use]
    pub fn zones(&self) -> &[Simulation] {
        &self.zones
    }

    /// One zone's simulation.
    #[must_use]
    pub fn zone(&self, i: usize) -> &Simulation {
        &self.zones[i]
    }

    /// The broker (counters, ledger, grants).
    #[must_use]
    pub fn broker(&self) -> &SupplyBroker {
        &self.broker
    }

    /// The zone-outage and broker-crash schedule this federation runs.
    #[must_use]
    pub fn plan(&self) -> Option<&ZoneOutagePlan> {
        self.plan.as_ref()
    }

    /// Broker restarts performed so far.
    #[must_use]
    pub fn broker_recoveries(&self) -> usize {
        self.broker_recoveries
    }

    /// Zone ledger reconciliations performed so far.
    #[must_use]
    pub fn zone_rejoins(&self) -> usize {
        self.zone_rejoins
    }

    /// Register federation-level metrics on `registry`: per-zone grant and
    /// demand gauges plus broker counter mirrors. (Zone-internal
    /// controller telemetry is not attached here: the registry is
    /// name-keyed and the zones would collide; attach a registry to an
    /// individual zone before building the federation if needed.)
    pub fn attach_telemetry(&mut self, registry: &willow_telemetry::TelemetryRegistry) {
        let mut t = FederationTelemetry::default();
        for i in 0..self.zones.len() {
            t.zone_grants.push(registry.gauge(
                &format!("willow_federation_zone{i}_grant_watts"),
                "Broker grant to this zone this period",
            ));
            t.zone_demands.push(registry.gauge(
                &format!("willow_federation_zone{i}_demand_watts"),
                "Zone aggregate demand as last reported to the broker",
            ));
        }
        t.total_supply = registry.gauge(
            "willow_federation_total_supply_watts",
            "Pooled nominal supply across all zones this period",
        );
        t.apportions = registry.gauge(
            "willow_federation_apportions_total",
            "Broker apportionment rounds executed",
        );
        t.broker_down_ticks = registry.gauge(
            "willow_federation_broker_down_ticks_total",
            "Periods the broker itself was down",
        );
        t.stale_report_ticks = registry.gauge(
            "willow_federation_stale_report_ticks_total",
            "Zone-periods served under the tightening-only stale-report defense",
        );
        t.unreachable_zone_ticks = registry.gauge(
            "willow_federation_unreachable_zone_ticks_total",
            "Zone-periods with no deliverable grant (isolated or down)",
        );
        t.link_trips = registry.gauge(
            "willow_federation_link_trips_total",
            "Zone links tripped to the conservative fallback fraction",
        );
        t.overdraw_ticks = registry.gauge(
            "willow_federation_overdraw_ticks_total",
            "Periods where open-loop reservations exceeded the supply and were clamped",
        );
        t.conservation_violations = registry.gauge(
            "willow_federation_conservation_violations_total",
            "Apportionments whose grants summed above the total supply (must stay 0)",
        );
        t.broker_recoveries = registry.gauge(
            "willow_federation_broker_recoveries_total",
            "Broker restarts from checkpoint",
        );
        t.zone_rejoins = registry.gauge(
            "willow_federation_zone_rejoins_total",
            "Zone ledger reconciliations after outage windows ended",
        );
        self.telemetry = t;
    }

    /// A zone's aggregate demand as the broker reads it: the CP at the
    /// zone root — last period's measured, smoothed total, one period
    /// behind, exactly like reports inside a tree reach the root.
    #[must_use]
    pub fn zone_demand(&self, i: usize) -> Watts {
        let w = self.zones[i].willow();
        w.power().cp[w.tree().root().index()]
    }

    /// Advance every zone one demand period, writing zone *i*'s controller
    /// report and fabric snapshot into `reports[i]` / `fabrics[i]`.
    ///
    /// # Panics
    /// Panics if the buffer slices do not match the zone count.
    pub fn step_into_buffers(
        &mut self,
        reports: &mut [TickReport],
        fabrics: &mut [FabricSnapshot],
    ) {
        let n = self.zones.len();
        assert_eq!(reports.len(), n, "one report buffer per zone");
        assert_eq!(fabrics.len(), n, "one fabric buffer per zone");
        let t = self.tick;

        let broker_up = !self.plan.as_ref().is_some_and(|p| p.broker_down(t));
        for i in 0..n {
            self.conditions[i] = match &self.plan {
                Some(p) => p.zone_condition(i, t),
                None => ZoneCondition::Healthy,
            };
        }

        if broker_up {
            if self.broker_was_down {
                // First healthy broker tick after an outage: restore the
                // ledger from the checkpoint (validation guarantees tick 0
                // checkpointed before any window could open) and reconcile
                // every reachable zone against field truth. Unreachable
                // zones keep their restored entries and stay on the
                // open-loop protocol — no zone is stranded.
                let ckpt = self
                    .broker_checkpoint
                    .clone()
                    .expect("a broker window opened before the first checkpoint");
                self.broker
                    .recover(ckpt)
                    .expect("checkpoint zone count matches the federation");
                for i in 0..n {
                    if self.conditions[i].grant_deliverable() {
                        let fresh = self.zone_demand(i);
                        self.broker.rejoin(i, fresh);
                        // Reconciled here; don't count it again as a
                        // zone-side rejoin below.
                        self.zone_unreachable[i] = false;
                    }
                }
                self.broker_recoveries += 1;
                self.broker_was_down = false;
            }
            // Zones whose isolation/crash window just ended: reconcile
            // their ledger entry with what they actually applied.
            for i in 0..n {
                if self.zone_unreachable[i] && self.conditions[i].grant_deliverable() {
                    let fresh = self.zone_demand(i);
                    self.broker.rejoin(i, fresh);
                    self.zone_rejoins += 1;
                }
            }
            // Periodic broker checkpoint (only when broker crashes are
            // scheduled — otherwise the federation pays nothing).
            if let Some(plan) = &self.plan {
                if !plan.broker_crash.is_empty() && t.is_multiple_of(plan.checkpoint_period) {
                    self.broker_checkpoint = Some(self.broker.snapshot());
                }
            }
        } else {
            self.broker_was_down = true;
        }

        // Pool the zones' nominal supplies: supply is a physical resource
        // and keeps arriving whether or not a zone's controller is up.
        let total = Watts(self.zones.iter().map(|z| z.nominal_supply().0).sum());

        if broker_up {
            for i in 0..n {
                self.reports[i] = self.conditions[i]
                    .report_fresh()
                    .then(|| self.zone_demand(i));
            }
            self.broker
                .apportion(total, &self.conditions, &self.reports);
        } else {
            self.broker.broker_down_tick();
        }

        for (i, zone) in self.zones.iter_mut().enumerate() {
            let condition = if broker_up {
                self.conditions[i]
            } else if self.conditions[i] == ZoneCondition::Down {
                // A crashed zone stays crashed whoever else is down.
                ZoneCondition::Down
            } else {
                // From a zone's side a broker outage is indistinguishable
                // from isolation: no grant arrives either way.
                ZoneCondition::Isolated
            };
            if condition == ZoneCondition::Down {
                // The zone's own fault plan carries this window: its
                // engine free-runs the leaves and recovers from the
                // zone-local checkpoint when the window ends. The supply
                // is irrelevant while down.
                zone.step_into_buffers(&mut reports[i], &mut fabrics[i]);
            } else {
                let supply = self.broker.zone_supply(i, condition);
                zone.step_with_supply(supply, &mut reports[i], &mut fabrics[i]);
            }
            self.zone_unreachable[i] = !condition.grant_deliverable();
        }

        // Telemetry (disabled handles are no-ops).
        let c = *self.broker.counters();
        for i in 0..n {
            if let Some(g) = self.telemetry.zone_grants.get(i) {
                g.set(self.broker.grants()[i].0);
            }
            if let Some(g) = self.telemetry.zone_demands.get(i) {
                g.set(self.broker.links()[i].last_report.0);
            }
        }
        self.telemetry.total_supply.set(total.0);
        self.telemetry.apportions.set(c.apportions as f64);
        self.telemetry
            .broker_down_ticks
            .set(c.broker_down_ticks as f64);
        self.telemetry
            .stale_report_ticks
            .set(c.stale_report_ticks as f64);
        self.telemetry
            .unreachable_zone_ticks
            .set(c.unreachable_zone_ticks as f64);
        self.telemetry.link_trips.set(c.link_trips as f64);
        self.telemetry.overdraw_ticks.set(c.overdraw_ticks as f64);
        self.telemetry
            .conservation_violations
            .set(c.conservation_violations as f64);
        self.telemetry
            .broker_recoveries
            .set(self.broker_recoveries as f64);
        self.telemetry.zone_rejoins.set(self.zone_rejoins as f64);

        self.tick += 1;
    }

    /// Run to completion, aggregating post-warm-up metrics per zone.
    pub fn run(&mut self) -> FederationRunMetrics {
        let n = self.zones.len();
        let mut accs: Vec<MetricsAccumulator> = self
            .zones
            .iter()
            .map(|z| MetricsAccumulator::new(z.config().n_servers(), z.level1_switches().len()))
            .collect();
        let mut reports = vec![TickReport::default(); n];
        let mut fabrics = vec![FabricSnapshot::default(); n];
        for t in 0..self.ticks {
            self.step_into_buffers(&mut reports, &mut fabrics);
            if t >= self.warmup {
                for i in 0..n {
                    accs[i].record(&reports[i], &fabrics[i]);
                }
            }
        }
        let zones: Vec<RunMetrics> = accs
            .into_iter()
            .zip(&self.zones)
            .map(|(acc, z)| {
                let mut m = acc.finish();
                m.open_loop_ticks = z.open_loop_ticks();
                m.controller_recoveries = z.controller_recoveries();
                m.invariant_violations = z.invariant_violations();
                m.commands_applied = z.commands_applied();
                m.commands_rejected = z.commands_rejected();
                m.drain_stranded_app_ticks = z.drain_stranded_app_ticks();
                m.topology_rejections = z.topology_rejections();
                m
            })
            .collect();
        FederationRunMetrics {
            zones,
            broker: *self.broker.counters(),
            broker_recoveries: self.broker_recoveries,
            zone_rejoins: self.zone_rejoins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ControllerOutage, ZoneOutage, ZoneOutageKind};

    fn zone_cfg(seed: u64, u: f64, ticks: usize) -> SimConfig {
        let mut cfg = SimConfig::paper_default(seed, u);
        cfg.ticks = ticks;
        cfg.warmup = 0;
        cfg
    }

    fn total_apps(sim: &Simulation) -> usize {
        sim.willow().servers().iter().map(|s| s.apps.len()).sum()
    }

    #[test]
    fn single_zone_federation_is_bit_for_bit_standalone() {
        let ticks = 80;
        let mut standalone = Simulation::new(zone_cfg(2011, 0.5, ticks)).unwrap();
        let mut fed =
            FederatedSimulation::new(FederateConfig::new(vec![zone_cfg(2011, 0.5, ticks)]))
                .unwrap();
        let mut s_report = TickReport::default();
        let mut s_fabric = FabricSnapshot::default();
        let mut f_reports = vec![TickReport::default()];
        let mut f_fabrics = vec![FabricSnapshot::default()];
        for t in 0..ticks {
            standalone.step_into_buffers(&mut s_report, &mut s_fabric);
            fed.step_into_buffers(&mut f_reports, &mut f_fabrics);
            assert_eq!(s_report, f_reports[0], "report diverged at tick {t}");
            assert_eq!(s_fabric, f_fabrics[0], "fabric diverged at tick {t}");
        }
        assert_eq!(
            standalone.willow().snapshot(),
            fed.zone(0).willow().snapshot(),
            "final controller state must be identical"
        );
        assert_eq!(fed.broker().counters().conservation_violations, 0);
    }

    #[test]
    fn quiet_plan_is_bit_for_bit_neutral() {
        let ticks = 60;
        let zones = || vec![zone_cfg(3, 0.4, ticks), zone_cfg(4, 0.6, ticks)];
        let mut plain = FederatedSimulation::new(FederateConfig::new(zones())).unwrap();
        let mut with_plan = FederatedSimulation::new(FederateConfig {
            zones: zones(),
            broker: BrokerConfig::default(),
            plan: Some(ZoneOutagePlan::quiet()),
        })
        .unwrap();
        let a = plain.run();
        let b = with_plan.run();
        assert_eq!(a, b, "an empty outage plan must not perturb the run");
    }

    #[test]
    fn grants_follow_demand_and_conserve() {
        let ticks = 60;
        // Zone 1 runs three times hotter than zone 0.
        let cfg = FederateConfig::new(vec![zone_cfg(5, 0.2, ticks), zone_cfg(6, 0.6, ticks)]);
        let mut fed = FederatedSimulation::new(cfg).unwrap();
        let total_nominal: f64 = fed.zones().iter().map(|z| z.nominal_supply().0).sum();
        let m = fed.run();
        assert_eq!(m.broker.conservation_violations, 0);
        let grants = fed.broker().grants();
        assert!(
            grants[1] > grants[0],
            "the hotter zone must receive the larger grant ({:?})",
            grants
        );
        let granted: f64 = grants.iter().map(|g| g.0).sum();
        assert!(granted <= total_nominal * (1.0 + 1e-9));
        assert_eq!(m.invariant_violations(), 0);
    }

    #[test]
    fn zone_isolation_runs_open_loop_and_rejoins() {
        let ticks = 80;
        let mut cfg = FederateConfig::new(vec![zone_cfg(7, 0.5, ticks), zone_cfg(8, 0.5, ticks)]);
        cfg.plan = Some(ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: Vec::new(),
            outages: vec![ZoneOutage {
                zone: 1,
                kind: ZoneOutageKind::Isolation,
                from: 20,
                until: 40,
            }],
        });
        let mut fed = FederatedSimulation::new(cfg).unwrap();
        let apps_before: Vec<usize> = fed.zones().iter().map(total_apps).collect();
        let m = fed.run();
        assert_eq!(m.broker.unreachable_zone_ticks, 20);
        assert!(
            m.broker.link_trips >= 1,
            "a 20-tick isolation must trip the link watchdog"
        );
        assert_eq!(m.zone_rejoins, 1, "the zone must reconcile on rejoin");
        assert_eq!(m.broker.conservation_violations, 0);
        assert_eq!(m.invariant_violations(), 0);
        let apps_after: Vec<usize> = fed.zones().iter().map(total_apps).collect();
        assert_eq!(apps_before, apps_after, "no app may be lost to isolation");
        // Isolation is federation-level: the zone controller itself never
        // went down.
        assert_eq!(m.zones[1].open_loop_ticks, 0);
        assert_eq!(m.zones[1].controller_recoveries, 0);
    }

    #[test]
    fn zone_crash_recovers_through_its_own_machinery() {
        let ticks = 80;
        let mut cfg = FederateConfig::new(vec![zone_cfg(9, 0.5, ticks), zone_cfg(10, 0.5, ticks)]);
        cfg.plan = Some(ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: Vec::new(),
            outages: vec![ZoneOutage {
                zone: 0,
                kind: ZoneOutageKind::ControllerCrash,
                from: 30,
                until: 45,
            }],
        });
        let mut fed = FederatedSimulation::new(cfg).unwrap();
        let apps_before: Vec<usize> = fed.zones().iter().map(total_apps).collect();
        let m = fed.run();
        assert_eq!(m.zones[0].open_loop_ticks, 15);
        assert_eq!(m.zones[0].controller_recoveries, 1);
        assert_eq!(m.zones[1].open_loop_ticks, 0, "zone 1 is unaffected");
        assert_eq!(m.zone_rejoins, 1);
        assert_eq!(m.broker.conservation_violations, 0);
        assert_eq!(m.invariant_violations(), 0);
        let apps_after: Vec<usize> = fed.zones().iter().map(total_apps).collect();
        assert_eq!(apps_before, apps_after);
    }

    #[test]
    fn broker_crash_strands_no_zone() {
        let ticks = 80;
        let mut cfg = FederateConfig::new(vec![zone_cfg(11, 0.5, ticks), zone_cfg(12, 0.5, ticks)]);
        cfg.plan = Some(ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: vec![ControllerOutage {
                from: 25,
                until: 35,
            }],
            outages: Vec::new(),
        });
        let mut fed = FederatedSimulation::new(cfg).unwrap();
        let m = fed.run();
        assert_eq!(m.broker.broker_down_ticks, 10);
        assert_eq!(m.broker_recoveries, 1);
        // Zone controllers stayed up throughout — they ran on the
        // open-loop protocol, not open-loop leaves.
        for z in &m.zones {
            assert_eq!(z.open_loop_ticks, 0);
            assert_eq!(z.controller_recoveries, 0);
        }
        assert_eq!(m.broker.conservation_violations, 0);
        assert_eq!(m.invariant_violations(), 0);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let run = || {
            let ticks = 70;
            let mut cfg =
                FederateConfig::new(vec![zone_cfg(13, 0.5, ticks), zone_cfg(14, 0.6, ticks)]);
            cfg.plan = Some(ZoneOutagePlan {
                checkpoint_period: 8,
                broker_crash: vec![ControllerOutage {
                    from: 50,
                    until: 55,
                }],
                outages: vec![
                    ZoneOutage {
                        zone: 0,
                        kind: ZoneOutageKind::StaleReports,
                        from: 10,
                        until: 25,
                    },
                    ZoneOutage {
                        zone: 1,
                        kind: ZoneOutageKind::ControllerCrash,
                        from: 30,
                        until: 40,
                    },
                ],
            });
            FederatedSimulation::new(cfg).unwrap().run()
        };
        assert_eq!(run(), run(), "same configs ⇒ identical federated run");
    }

    #[test]
    fn stale_reports_tighten_only() {
        let ticks = 60;
        let mut cfg = FederateConfig::new(vec![zone_cfg(15, 0.5, ticks), zone_cfg(16, 0.5, ticks)]);
        cfg.plan = Some(ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: Vec::new(),
            outages: vec![ZoneOutage {
                zone: 0,
                kind: ZoneOutageKind::StaleReports,
                from: 20,
                until: 50,
            }],
        });
        let mut fed = FederatedSimulation::new(cfg).unwrap();
        let mut reports = vec![TickReport::default(); 2];
        let mut fabrics = vec![FabricSnapshot::default(); 2];
        let mut grant_at_19 = Watts::ZERO;
        for t in 0..ticks as u64 {
            fed.step_into_buffers(&mut reports, &mut fabrics);
            if t == 19 {
                grant_at_19 = fed.broker().grants()[0];
            }
            if (20..50).contains(&t) {
                assert!(
                    fed.broker().grants()[0] <= grant_at_19 + Watts(1e-9),
                    "tick {t}: stale zone's grant may only tighten"
                );
            }
        }
        assert!(fed.broker().counters().stale_report_ticks >= 30);
        assert_eq!(fed.broker().counters().conservation_violations, 0);
    }

    #[test]
    fn federation_config_validation() {
        assert!(matches!(
            FederateConfig::new(Vec::new()).validate(),
            Err(SimError::Federation { .. })
        ));
        let mut a = zone_cfg(1, 0.5, 50);
        let b = zone_cfg(2, 0.5, 60);
        assert!(matches!(
            FederateConfig::new(vec![a.clone(), b]).validate(),
            Err(SimError::Federation { .. })
        ));
        // A zone scheduling its own controller crashes is rejected.
        a.faults = Some(FaultPlan {
            controller_crash: Some(crate::faults::ControllerCrashPlan {
                checkpoint_period: 10,
                windows: vec![ControllerOutage { from: 5, until: 10 }],
            }),
            ..FaultPlan::default()
        });
        assert!(matches!(
            FederateConfig::new(vec![a]).validate(),
            Err(SimError::Federation { .. })
        ));
        // Plan zone indices checked against the zone count.
        let mut cfg = FederateConfig::new(vec![zone_cfg(1, 0.5, 50)]);
        cfg.plan = Some(ZoneOutagePlan {
            checkpoint_period: 10,
            broker_crash: Vec::new(),
            outages: vec![ZoneOutage {
                zone: 3,
                kind: ZoneOutageKind::Isolation,
                from: 1,
                until: 2,
            }],
        });
        assert!(matches!(
            cfg.validate(),
            Err(SimError::ZoneOutageZone { .. })
        ));
        // Broker tunables: the error carries the broker's own rule, from
        // `validate` and from `FederatedSimulation::new` alike.
        for (threshold, fraction, rule) in [
            (3, 0.0, "fallback_fraction must be in (0, 1]"),
            (3, 1.5, "fallback_fraction must be in (0, 1]"),
            (0, 0.5, "missed_grant_threshold must be at least 1"),
        ] {
            let mut cfg = FederateConfig::new(vec![zone_cfg(1, 0.5, 50)]);
            cfg.broker.missed_grant_threshold = threshold;
            cfg.broker.fallback_fraction = fraction;
            assert_eq!(
                cfg.validate(),
                Err(SimError::Federation { reason: rule }),
                "threshold {threshold}, fraction {fraction}"
            );
            assert_eq!(
                FederatedSimulation::new(cfg).err(),
                Some(SimError::Federation { reason: rule })
            );
        }
    }
}
