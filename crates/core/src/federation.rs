//! Multi-zone supply broker: splits one total supply across N
//! independent [`Willow`](crate::control::Willow) zone controllers.
//!
//! One `Willow` controls one PMU tree. The [`SupplyBroker`] sits one level
//! above several — one per data-center zone — and splits the total supply
//! across zones in proportion to each zone's aggregate reported demand,
//! reusing the same capped proportional water-filling
//! ([`willow_power::allocation::allocate_proportional_into`]) that every
//! interior PMU node already runs. The broker is deliberately *thin*:
//! it holds one [`ZoneLink`] ledger entry per zone and never reaches
//! into a zone's tree — zones stay fully independent controllers. The
//! multi-zone tick loop that drives it (conditions, outages, broker
//! checkpoints and zone rejoins) is `willow_sim::federate`.
//!
//! ## Failure model and defenses (mirroring the leaf-side watchdog)
//!
//! * **Stale reports** ([`ZoneCondition::StaleReport`]): the broker
//!   splits on the zone's last known demand and caps the zone's grant at
//!   its last grant — a *tightening-only* split, the federation-level
//!   analogue of the leaf watchdog's rule that a stale directive may
//!   tighten but never loosen a budget.
//! * **Unreachable zones** ([`ZoneCondition::Isolated`] /
//!   [`ZoneCondition::Down`]): no grant can be delivered. The zone runs
//!   open-loop on its last delivered grant; after
//!   [`BrokerConfig::missed_grant_threshold`] consecutive missed grants
//!   it *trips* and self-tightens to
//!   [`BrokerConfig::fallback_fraction`] of that grant. Both ends
//!   compute the same value from the same missed-grant count without
//!   communicating, so the broker can *reserve* exactly what the zone
//!   will self-apply (reservation-first allocation) and conservation
//!   holds with no coordination.
//! * **Broker crash**: zones keep running on the same open-loop
//!   protocol (a broker outage looks, from every zone, like isolation).
//!   A [`BrokerSnapshot`] restores the ledger and
//!   [`SupplyBroker::rejoin`] reconciles each reachable zone against
//!   field truth — no zone is ever stranded on a dead broker.
//!
//! ## Conservation
//!
//! Every apportionment satisfies `Σ grants ≤ total supply` *by
//! construction*: reservations for unreachable zones are clamped to the
//! supply still available (clamped watts are counted as *overdraw*, the
//! physical debt a breaker would absorb), and the proportional split
//! distributes only what remains. [`BrokerCounters::conservation_violations`]
//! double-checks the invariant arithmetically on every call and must
//! stay zero forever.

use serde::{Deserialize, Serialize};
use willow_power::allocation::{allocate_proportional_into, AllocationScratch};
use willow_thermal::units::Watts;

/// Tolerance for the conservation double-check: float summation of many
/// grants may differ from the analytic bound by a few ULPs.
const CONSERVATION_EPS: f64 = 1e-6;

/// Broker tunables. Defaults mirror the leaf-side stale-directive
/// watchdog (`RobustnessConfig`): trip after 3 consecutive misses, fall
/// back to half the last-known-good value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrokerConfig {
    /// Consecutive missed grants before an unreachable zone trips and
    /// self-tightens its open-loop supply. Must be at least 1.
    pub missed_grant_threshold: u32,
    /// Fraction of the last delivered grant a *tripped* zone self-applies
    /// (and the broker reserves). In `(0, 1]`.
    pub fallback_fraction: f64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            missed_grant_threshold: 3,
            fallback_fraction: 0.5,
        }
    }
}

impl BrokerConfig {
    /// Validate the tunables.
    ///
    /// # Errors
    /// Returns [`FederationError::Config`] naming the broken rule.
    pub fn validate(&self) -> Result<(), FederationError> {
        if self.missed_grant_threshold == 0 {
            return Err(FederationError::Config {
                reason: "missed_grant_threshold must be at least 1",
            });
        }
        if !(self.fallback_fraction > 0.0 && self.fallback_fraction <= 1.0) {
            return Err(FederationError::Config {
                reason: "fallback_fraction must be in (0, 1]",
            });
        }
        Ok(())
    }
}

/// The broker's view of one zone for one control period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ZoneCondition {
    /// Reports arrive and grants are deliverable.
    #[default]
    Healthy,
    /// The zone's demand report did not arrive this period (report path
    /// degraded), but grants still reach the zone.
    StaleReport,
    /// The zone is network-isolated: no report arrives and no grant can
    /// be delivered. Its controller keeps running, open-loop on the
    /// missed-grant protocol.
    Isolated,
    /// The zone's controller is down: no report, no grant delivery, and
    /// the zone's leaves free-run on their last applied budgets.
    Down,
}

impl ZoneCondition {
    /// Does a fresh demand report arrive this period?
    #[must_use]
    pub fn report_fresh(self) -> bool {
        matches!(self, ZoneCondition::Healthy)
    }

    /// Can a grant be delivered to the zone this period?
    #[must_use]
    pub fn grant_deliverable(self) -> bool {
        matches!(self, ZoneCondition::Healthy | ZoneCondition::StaleReport)
    }
}

/// Broker-side ledger entry for one zone.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ZoneLink {
    /// Last demand report received from the zone.
    pub last_report: Watts,
    /// Last grant actually *delivered* to the zone (not updated while the
    /// zone is unreachable — it anchors the open-loop protocol).
    pub last_grant: Watts,
    /// Consecutive periods without a fresh report.
    pub stale_reports: u32,
    /// Consecutive periods the grant was undeliverable.
    pub missed_grants: u32,
    /// Tripped: `missed_grants` reached the threshold, so the zone has
    /// self-tightened to `fallback_fraction` of `last_grant`.
    pub tripped: bool,
}

impl ZoneLink {
    /// The supply an unreachable zone self-applies this period — and
    /// therefore exactly what the broker reserves for it. Both sides
    /// derive it from the same missed-grant count, so they agree without
    /// communicating.
    #[must_use]
    pub fn open_loop_supply(&self, config: &BrokerConfig) -> Watts {
        if self.tripped {
            Watts(self.last_grant.0 * config.fallback_fraction)
        } else {
            self.last_grant
        }
    }
}

/// Cumulative broker counters (federation-level telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BrokerCounters {
    /// Apportionments performed.
    pub apportions: u64,
    /// Zone-periods served on a stale demand report.
    pub stale_report_ticks: u64,
    /// Zone-periods a grant was undeliverable (isolation or zone crash).
    pub unreachable_zone_ticks: u64,
    /// Periods the broker itself was down (no apportionment ran).
    pub broker_down_ticks: u64,
    /// Zone links that tripped into the self-tightened fallback.
    pub link_trips: u64,
    /// Periods where reserving unreachable zones' open-loop supply
    /// exhausted the total (reservations clamped, reachable zones
    /// starved).
    pub overdraw_ticks: u64,
    /// Total watts of reservation that could not be backed by supply
    /// (summed over overdraw periods).
    pub overdraw_watts: f64,
    /// Apportionments whose grants summed above the total supply. Must
    /// stay zero forever; counted (not asserted) so a violation surfaces
    /// in audits rather than tearing down the run.
    pub conservation_violations: u64,
}

/// Serializable image of a running broker — the federation-level half of
/// a checkpoint. Restoring it after a broker crash strands no zone: the
/// ledger resumes from the last checkpoint and
/// [`SupplyBroker::rejoin`] reconciles each reachable zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerSnapshot {
    /// Broker tunables.
    pub config: BrokerConfig,
    /// Per-zone ledger entries.
    pub links: Vec<ZoneLink>,
    /// Cumulative counters.
    pub counters: BrokerCounters,
    /// Grants from the last apportionment, per zone.
    #[serde(default)]
    pub grants: Vec<Watts>,
}

/// Splits total supply across zones proportional to aggregate reported
/// demand, with reservation-first handling of unreachable zones. See the
/// [module docs](self) for the failure model.
#[derive(Debug)]
pub struct SupplyBroker {
    config: BrokerConfig,
    links: Vec<ZoneLink>,
    counters: BrokerCounters,
    /// Ledger of the last apportionment, per zone.
    grants: Vec<Watts>,
    // Scratch for the proportional split (reused across calls).
    demands: Vec<Watts>,
    caps: Vec<Watts>,
    budgets: Vec<Watts>,
    reachable: Vec<usize>,
    scratch: AllocationScratch,
}

impl SupplyBroker {
    /// Build a broker for `n_zones` zones.
    ///
    /// # Errors
    /// Rejects an empty federation or invalid [`BrokerConfig`].
    pub fn new(n_zones: usize, config: BrokerConfig) -> Result<Self, FederationError> {
        if n_zones == 0 {
            return Err(FederationError::NoZones);
        }
        config.validate()?;
        Ok(SupplyBroker {
            config,
            links: vec![ZoneLink::default(); n_zones],
            counters: BrokerCounters::default(),
            grants: vec![Watts::ZERO; n_zones],
            demands: Vec::with_capacity(n_zones),
            caps: Vec::with_capacity(n_zones),
            budgets: Vec::with_capacity(n_zones),
            reachable: Vec::with_capacity(n_zones),
            scratch: AllocationScratch::default(),
        })
    }

    /// Zones under this broker.
    #[must_use]
    pub fn n_zones(&self) -> usize {
        self.links.len()
    }

    /// Broker tunables.
    #[must_use]
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// Per-zone ledger entries.
    #[must_use]
    pub fn links(&self) -> &[ZoneLink] {
        &self.links
    }

    /// Cumulative counters.
    #[must_use]
    pub fn counters(&self) -> &BrokerCounters {
        &self.counters
    }

    /// Grants from the last apportionment (or broker-down protocol
    /// values), per zone.
    #[must_use]
    pub fn grants(&self) -> &[Watts] {
        &self.grants
    }

    /// Split `total` across the zones for one control period.
    ///
    /// `reports[i]` carries zone *i*'s fresh aggregate-demand report and
    /// must be `Some` exactly when `conditions[i]` is
    /// [`ZoneCondition::Healthy`]. Returns the per-zone grants; the same
    /// values stay readable via [`grants`](Self::grants).
    ///
    /// Order of operations (all deterministic):
    /// 1. Ledger upkeep: fresh reports recorded, staleness and
    ///    missed-grant counters advanced, links tripped at the threshold.
    /// 2. Reservation-first: each unreachable zone's open-loop supply is
    ///    reserved out of `total` (clamped to what is left — clamped
    ///    watts count as overdraw).
    /// 3. The remainder is split over reachable zones in proportion to
    ///    their (last known) demand, capped at the last grant for
    ///    stale-report zones (tightening-only). All-zero demand falls
    ///    back to an equal split.
    ///
    /// A single-zone federation with a healthy zone takes a fast path
    /// granting `total` verbatim, which is what makes a one-zone
    /// federation bit-for-bit identical to a standalone controller.
    ///
    /// # Panics
    /// Panics if slice lengths do not match the zone count.
    pub fn apportion(
        &mut self,
        total: Watts,
        conditions: &[ZoneCondition],
        reports: &[Option<Watts>],
    ) -> &[Watts] {
        let n = self.links.len();
        assert_eq!(conditions.len(), n, "one condition per zone");
        assert_eq!(reports.len(), n, "one report slot per zone");
        self.counters.apportions += 1;

        // 1. Ledger upkeep.
        for (i, link) in self.links.iter_mut().enumerate() {
            if conditions[i].report_fresh() {
                link.last_report = reports[i].expect("healthy zone must carry a report");
                link.stale_reports = 0;
            } else {
                link.stale_reports += 1;
                if conditions[i].grant_deliverable() {
                    self.counters.stale_report_ticks += 1;
                }
            }
            if conditions[i].grant_deliverable() {
                link.missed_grants = 0;
                link.tripped = false;
            } else {
                self.counters.unreachable_zone_ticks += 1;
                link.missed_grants += 1;
                if link.missed_grants >= self.config.missed_grant_threshold && !link.tripped {
                    link.tripped = true;
                    self.counters.link_trips += 1;
                }
            }
        }

        // Single-zone fast path: a lone healthy zone receives the total
        // verbatim — no split arithmetic that could perturb the last ULP.
        if n == 1 && conditions[0] == ZoneCondition::Healthy {
            self.grants[0] = total;
            self.links[0].last_grant = total;
            return &self.grants;
        }

        // 2. Reserve unreachable zones' open-loop supply, in zone order.
        let mut available = total;
        let mut overdrew = false;
        for (i, link) in self.links.iter().enumerate() {
            if conditions[i].grant_deliverable() {
                continue;
            }
            let wanted = link.open_loop_supply(&self.config);
            let reserved = wanted.min(available);
            if reserved < wanted {
                overdrew = true;
                self.counters.overdraw_watts += (wanted - reserved).0;
            }
            self.grants[i] = reserved;
            available -= reserved;
        }
        if overdrew {
            self.counters.overdraw_ticks += 1;
        }

        // 3. Proportional split of the remainder over reachable zones.
        self.reachable.clear();
        self.demands.clear();
        self.caps.clear();
        for (i, link) in self.links.iter().enumerate() {
            if !conditions[i].grant_deliverable() {
                continue;
            }
            self.reachable.push(i);
            self.demands.push(link.last_report);
            self.caps.push(if conditions[i].report_fresh() {
                // No broker-side cap for a healthy zone: its own root
                // clips to the zone thermal/circuit limits.
                available
            } else {
                // Tightening-only while the report is stale.
                link.last_grant.min(available)
            });
        }
        if self.demands.iter().all(|d| d.0 == 0.0) {
            // No demand signal at all: fall back to an equal split so
            // newly-started zones are not starved forever.
            for d in &mut self.demands {
                *d = Watts(1.0);
            }
        }
        allocate_proportional_into(
            available,
            &self.demands,
            &self.caps,
            &mut self.budgets,
            &mut self.scratch,
        )
        .expect("finite non-negative demands and caps cannot fail to allocate");
        for (slot, &i) in self.reachable.iter().enumerate() {
            let g = self.budgets[slot];
            self.grants[i] = g;
            self.links[i].last_grant = g;
        }

        // Conservation double-check: Σ grants ≤ total, always.
        let granted: f64 = self.grants.iter().map(|g| g.0).sum();
        if granted > total.0 * (1.0 + CONSERVATION_EPS) + CONSERVATION_EPS {
            self.counters.conservation_violations += 1;
        }
        &self.grants
    }

    /// One period with the broker itself down: no apportionment runs,
    /// every zone misses its grant (and counts toward tripping), and the
    /// recorded "grants" are the open-loop values the zones self-apply.
    pub fn broker_down_tick(&mut self) -> &[Watts] {
        self.counters.broker_down_ticks += 1;
        for (link, grant) in self.links.iter_mut().zip(&mut self.grants) {
            link.stale_reports += 1;
            link.missed_grants += 1;
            if link.missed_grants >= self.config.missed_grant_threshold && !link.tripped {
                link.tripped = true;
                self.counters.link_trips += 1;
            }
            *grant = link.open_loop_supply(&self.config);
        }
        &self.grants
    }

    /// The supply zone `zone` actually applies this period: its grant
    /// when deliverable, otherwise the zone-side open-loop protocol
    /// value.
    #[must_use]
    pub fn zone_supply(&self, zone: usize, condition: ZoneCondition) -> Watts {
        if condition.grant_deliverable() {
            self.grants[zone]
        } else {
            self.links[zone].open_loop_supply(&self.config)
        }
    }

    /// Reconcile one zone's ledger against field truth after it rejoins
    /// (or after the broker itself restarts): the zone's fresh aggregate
    /// demand becomes the report of record, its currently-applied
    /// open-loop supply becomes the grant anchor, and the staleness /
    /// missed-grant machinery resets.
    pub fn rejoin(&mut self, zone: usize, fresh_report: Watts) {
        let link = &mut self.links[zone];
        link.last_grant = link.open_loop_supply(&self.config);
        link.last_report = fresh_report;
        link.stale_reports = 0;
        link.missed_grants = 0;
        link.tripped = false;
    }

    /// Capture the broker's complete mutable state.
    #[must_use]
    pub fn snapshot(&self) -> BrokerSnapshot {
        BrokerSnapshot {
            config: self.config,
            links: self.links.clone(),
            counters: self.counters,
            grants: self.grants.clone(),
        }
    }

    /// Rebuild a broker from a snapshot, counters included.
    ///
    /// # Errors
    /// Rejects an empty or invalid snapshot (see [`SupplyBroker::new`])
    /// and a malformed ledger (see [`SupplyBroker::recover`]).
    pub fn restore(snapshot: BrokerSnapshot) -> Result<Self, FederationError> {
        let mut broker = SupplyBroker::new(snapshot.links.len(), snapshot.config)?;
        broker.counters = snapshot.counters;
        broker.recover(snapshot)?;
        Ok(broker)
    }

    /// Replace the ledger with a checkpoint's (broker crash recovery).
    /// The caller should then [`rejoin`](Self::rejoin) every currently
    /// reachable zone to reconcile the restored ledger with field truth.
    ///
    /// Older checkpoints may carry no `grants`: an empty vector keeps the
    /// broker's current entries. Keys this broker no longer reads (such as
    /// a retired per-zone `forecasts` vector) are ignored.
    ///
    /// # Errors
    /// Rejects a snapshot whose `links`, or whose non-empty `grants`, do
    /// not hold one entry per zone. A rejected snapshot leaves the broker
    /// untouched.
    pub fn recover(&mut self, snapshot: BrokerSnapshot) -> Result<(), FederationError> {
        let n = self.links.len();
        zone_shape("broker.links", snapshot.links.len(), n)?;
        if !snapshot.grants.is_empty() {
            zone_shape("broker.grants", snapshot.grants.len(), n)?;
        }
        // Only the ledger is control state and restored verbatim. The
        // counters are cumulative telemetry: the running tally (which
        // includes the outage the broker is recovering from) is kept
        // rather than rolled back to the checkpoint's.
        self.config = snapshot.config;
        self.links = snapshot.links;
        if !snapshot.grants.is_empty() {
            self.grants = snapshot.grants;
        }
        Ok(())
    }
}

/// `Ok` when a snapshot vector holds one entry per zone.
fn zone_shape(field: &'static str, found: usize, expected: usize) -> Result<(), FederationError> {
    if found == expected {
        Ok(())
    } else {
        Err(FederationError::Shape {
            field,
            found,
            expected,
        })
    }
}

/// Errors from building or restoring a [`SupplyBroker`].
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// A federation needs at least one zone.
    NoZones,
    /// Broker tunables out of range.
    Config {
        /// Which rule was violated.
        reason: &'static str,
    },
    /// A broker snapshot's shape does not match the federation.
    Shape {
        /// Which field is malformed.
        field: &'static str,
        /// Entries found.
        found: usize,
        /// Entries required.
        expected: usize,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoZones => write!(f, "a federation needs at least one zone"),
            FederationError::Config { reason } => write!(f, "invalid broker config: {reason}"),
            FederationError::Shape {
                field,
                found,
                expected,
            } => write!(
                f,
                "broker snapshot field `{field}` has {found} entries, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for FederationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;
    use crate::control::Willow;
    use crate::disturbance::Disturbances;
    use crate::migration::TickReport;
    use crate::server::ServerSpec;
    use willow_topology::Tree;
    use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

    /// A small 6-server zone controller with one app per server.
    fn zone_willow() -> Willow {
        let tree = Tree::uniform(&[2, 3]);
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .enumerate()
            .map(|(i, leaf)| {
                let app = Application::new(
                    AppId(i as u32),
                    0,
                    &SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()],
                );
                ServerSpec::simulation_default(leaf).with_apps(vec![app])
            })
            .collect();
        Willow::new(tree, specs, ControllerConfig::default()).expect("valid zone")
    }

    fn demands(n: usize, t: u64, scale: f64) -> Vec<Watts> {
        (0..n)
            .map(|i| Watts(scale * (8.0 + ((i as u64 + 3 * t) % 7) as f64)))
            .collect()
    }

    /// A zone's aggregate demand report: its root's smoothed demand.
    fn zone_report(w: &Willow) -> Watts {
        w.power().cp[w.tree().root().index()]
    }

    #[test]
    fn single_zone_federation_is_bit_for_bit_standalone() {
        let mut solo = zone_willow();
        let mut zone = zone_willow();
        let mut broker = SupplyBroker::new(1, BrokerConfig::default()).expect("one zone");
        let mut solo_report = TickReport::default();
        let mut zone_report_buf = TickReport::default();
        let supply = Watts(2_000.0);
        for t in 0..60 {
            let d = demands(6, t, 1.0);
            solo.step_into(&d, supply, &Disturbances::none(), &mut solo_report);
            broker.apportion(
                supply,
                &[ZoneCondition::Healthy],
                &[Some(zone_report(&zone))],
            );
            let grant = broker.zone_supply(0, ZoneCondition::Healthy);
            zone.step_into(&d, grant, &Disturbances::none(), &mut zone_report_buf);
            assert_eq!(solo.snapshot(), zone.snapshot(), "diverged at tick {t}");
        }
        assert_eq!(broker.counters().conservation_violations, 0);
    }

    #[test]
    fn broker_crash_strands_no_zone_and_recovers() {
        let mut zones = [zone_willow(), zone_willow()];
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("two zones");
        let mut reports = [TickReport::default(), TickReport::default()];
        let healthy = [ZoneCondition::Healthy, ZoneCondition::Healthy];
        let total = Watts(4_000.0);
        let mut checkpoint = broker.snapshot();
        for t in 0..30 {
            let d = [demands(6, t, 1.0), demands(6, t, 1.2)];
            let broker_up = !(10..16).contains(&t);
            if t == 16 {
                // First tick back up: restore the ledger and reconcile
                // every zone against field truth.
                broker.recover(checkpoint.clone()).expect("recovers");
                for (i, z) in zones.iter().enumerate() {
                    broker.rejoin(i, zone_report(z));
                }
            }
            let condition = if broker_up {
                let r = [Some(zone_report(&zones[0])), Some(zone_report(&zones[1]))];
                broker.apportion(total, &healthy, &r);
                ZoneCondition::Healthy
            } else {
                broker.broker_down_tick();
                ZoneCondition::Isolated
            };
            let mut applied = Watts::ZERO;
            for (i, z) in zones.iter_mut().enumerate() {
                let supply = broker.zone_supply(i, condition);
                // No zone is stranded: it always applies a positive
                // supply, the open-loop protocol value while the broker
                // is down.
                assert!(supply.0 > 0.0, "zone {i} stranded at tick {t}");
                applied += supply;
                z.step_into(&d[i], supply, &Disturbances::none(), &mut reports[i]);
            }
            assert!(
                applied.0 <= total.0 * (1.0 + CONSERVATION_EPS),
                "zones drew {applied:?} of {total:?} at tick {t}"
            );
            if t == 9 {
                checkpoint = broker.snapshot();
            }
        }
        assert_eq!(broker.counters().broker_down_ticks, 6);
        assert_eq!(broker.counters().conservation_violations, 0);
        // Post-recovery apportionment resumed: grants track demand again.
        assert!(broker.grants().iter().all(|g| g.0 > 0.0));
        assert!(broker.links().iter().all(|l| !l.tripped));
    }

    #[test]
    fn split_is_proportional_to_demand_and_conserves() {
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("broker");
        let conditions = [ZoneCondition::Healthy, ZoneCondition::Healthy];
        let grants = broker.apportion(
            Watts(900.0),
            &conditions,
            &[Some(Watts(100.0)), Some(Watts(200.0))],
        );
        assert!((grants[0].0 - 300.0).abs() < 1e-9, "got {:?}", grants);
        assert!((grants[1].0 - 600.0).abs() < 1e-9, "got {:?}", grants);
        assert_eq!(broker.counters().conservation_violations, 0);
    }

    #[test]
    fn zero_demand_splits_equally() {
        let mut broker = SupplyBroker::new(3, BrokerConfig::default()).expect("broker");
        let conditions = [ZoneCondition::Healthy; 3];
        let reports = [Some(Watts::ZERO); 3];
        let grants = broker.apportion(Watts(300.0), &conditions, &reports);
        for g in grants {
            assert!((g.0 - 100.0).abs() < 1e-9, "got {grants:?}");
        }
    }

    #[test]
    fn stale_report_tightens_only() {
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("broker");
        // Establish a baseline grant.
        broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Healthy, ZoneCondition::Healthy],
            &[Some(Watts(100.0)), Some(Watts(100.0))],
        );
        let baseline = broker.grants()[0];
        assert!((baseline.0 - 300.0).abs() < 1e-9);
        // Zone 0 goes stale while total supply doubles: its grant may not
        // grow past the last one; the freed watts flow to zone 1.
        let grants = broker.apportion(
            Watts(1200.0),
            &[ZoneCondition::StaleReport, ZoneCondition::Healthy],
            &[None, Some(Watts(100.0))],
        );
        assert!(grants[0] <= baseline, "stale zone loosened: {grants:?}");
        assert!((grants[0].0 + grants[1].0) <= 1200.0 + 1e-9);
        assert_eq!(broker.counters().stale_report_ticks, 1);
    }

    #[test]
    fn unreachable_zone_reserved_then_tripped() {
        let cfg = BrokerConfig {
            missed_grant_threshold: 2,
            fallback_fraction: 0.5,
        };
        let mut broker = SupplyBroker::new(2, cfg).expect("broker");
        broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Healthy, ZoneCondition::Healthy],
            &[Some(Watts(100.0)), Some(Watts(100.0))],
        );
        let last = broker.grants()[0];
        // Miss 1: open-loop on the full last grant, reserved first.
        let grants = broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Isolated, ZoneCondition::Healthy],
            &[None, Some(Watts(100.0))],
        );
        assert_eq!(grants[0], last);
        assert!(!broker.links()[0].tripped);
        // Miss 2: trips, self-tightens to half.
        let grants = broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Isolated, ZoneCondition::Healthy],
            &[None, Some(Watts(100.0))],
        );
        assert!((grants[0].0 - last.0 * 0.5).abs() < 1e-9);
        assert!(broker.links()[0].tripped);
        assert_eq!(broker.counters().link_trips, 1);
        // The zone-side protocol value matches the broker's reservation.
        assert_eq!(
            broker.zone_supply(0, ZoneCondition::Isolated),
            broker.grants()[0]
        );
        // Rejoin heals the link and resets the machinery.
        broker.rejoin(0, Watts(90.0));
        assert!(!broker.links()[0].tripped);
        assert_eq!(broker.links()[0].missed_grants, 0);
        assert!((broker.links()[0].last_grant.0 - last.0 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn overdraw_clamps_reservations_and_counts() {
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("broker");
        broker.apportion(
            Watts(1000.0),
            &[ZoneCondition::Healthy, ZoneCondition::Healthy],
            &[Some(Watts(100.0)), Some(Watts(100.0))],
        );
        // Supply collapses below zone 0's reservation while it is
        // isolated: the ledger clamps (conservation holds), overdraw is
        // counted, and the healthy zone gets what is left.
        let grants = broker.apportion(
            Watts(300.0),
            &[ZoneCondition::Isolated, ZoneCondition::Healthy],
            &[None, Some(Watts(100.0))],
        );
        assert!((grants[0].0 - 300.0).abs() < 1e-9);
        assert_eq!(grants[1], Watts::ZERO);
        assert_eq!(broker.counters().overdraw_ticks, 1);
        assert!(broker.counters().overdraw_watts > 0.0);
        assert_eq!(broker.counters().conservation_violations, 0);
    }

    #[test]
    fn broker_down_tick_advances_the_protocol_fleet_wide() {
        let cfg = BrokerConfig {
            missed_grant_threshold: 3,
            fallback_fraction: 0.5,
        };
        let mut broker = SupplyBroker::new(2, cfg).expect("broker");
        broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Healthy, ZoneCondition::Healthy],
            &[Some(Watts(100.0)), Some(Watts(100.0))],
        );
        let last: Vec<Watts> = broker.grants().to_vec();
        for miss in 1..=4u32 {
            let grants = broker.broker_down_tick().to_vec();
            for (z, g) in grants.iter().enumerate() {
                if miss < 3 {
                    assert_eq!(*g, last[z], "miss {miss}");
                } else {
                    assert!((g.0 - last[z].0 * 0.5).abs() < 1e-9, "miss {miss}");
                }
            }
        }
        assert_eq!(broker.counters().broker_down_ticks, 4);
    }

    /// Checkpoints written while the broker could split on forecasts
    /// carry a `forecast_apportionment` config key and a per-zone
    /// `forecasts` vector. Both are ignored on restore, and the restored
    /// broker apportions exactly like one that never stopped.
    #[test]
    fn broker_snapshot_with_retired_forecast_keys_restores() {
        let conditions = [ZoneCondition::Healthy, ZoneCondition::Healthy];
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("broker");
        broker.apportion(
            Watts(600.0),
            &conditions,
            &[Some(Watts(100.0)), Some(Watts(200.0))],
        );
        let mut series = crate::control::planning::series();
        series.observe(Watts(100.0));
        let forecast = serde_json::to_string(&series).expect("serialize");
        let json = serde_json::to_string(&broker.snapshot()).expect("serialize");
        let json = json.replace(
            "\"fallback_fraction\":0.5",
            "\"fallback_fraction\":0.5,\"forecast_apportionment\":true",
        );
        let legacy = format!(
            "{},\"forecasts\":[{forecast},{forecast}]}}",
            &json[..json.len() - 1]
        );
        assert!(legacy.contains("\"forecast_apportionment\":true"));
        let snap: BrokerSnapshot = serde_json::from_str(&legacy).expect("legacy parse");
        assert_eq!(snap, broker.snapshot());
        let mut restored = SupplyBroker::restore(snap).expect("restore");
        let reports = [Some(Watts(300.0)), Some(Watts(100.0))];
        let want = broker
            .apportion(Watts(700.0), &conditions, &reports)
            .to_vec();
        let got = restored
            .apportion(Watts(700.0), &conditions, &reports)
            .to_vec();
        assert_eq!(got, want);
        assert_eq!(restored.links(), broker.links());
    }

    /// A non-empty `grants` vector of the wrong length is a malformed
    /// ledger: `restore` and `recover` reject it by field name, and a
    /// rejected `recover` leaves the broker as it was.
    #[test]
    fn broker_snapshot_with_wrong_length_ledger_is_rejected() {
        let mut broker = SupplyBroker::new(2, BrokerConfig::default()).expect("broker");
        broker.apportion(
            Watts(600.0),
            &[ZoneCondition::Healthy, ZoneCondition::Healthy],
            &[Some(Watts(100.0)), Some(Watts(200.0))],
        );
        let good = broker.snapshot();
        for found in [1, 3] {
            let mut bad = good.clone();
            bad.grants.resize(found, Watts(1.0));
            let expected = FederationError::Shape {
                field: "broker.grants",
                found,
                expected: 2,
            };
            assert_eq!(
                SupplyBroker::restore(bad.clone()).err(),
                Some(expected.clone())
            );
            let mut twin = SupplyBroker::restore(good.clone()).expect("restore");
            twin.apportion(
                Watts(600.0),
                &[ZoneCondition::Healthy, ZoneCondition::Healthy],
                &[Some(Watts(300.0)), Some(Watts(100.0))],
            );
            let before = twin.snapshot();
            assert_eq!(twin.recover(bad), Err(expected));
            assert_eq!(
                twin.snapshot(),
                before,
                "rejected recover mutated the broker"
            );
        }
    }

    #[test]
    fn broker_snapshot_round_trips_through_json() {
        let mut broker = SupplyBroker::new(3, BrokerConfig::default()).expect("broker");
        broker.apportion(
            Watts(900.0),
            &[
                ZoneCondition::Healthy,
                ZoneCondition::StaleReport,
                ZoneCondition::Isolated,
            ],
            &[Some(Watts(50.0)), None, None],
        );
        let snap = broker.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: BrokerSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        let restored = SupplyBroker::restore(back).expect("restores");
        assert_eq!(restored.links(), broker.links());
        assert_eq!(restored.counters(), broker.counters());
        assert_eq!(restored.grants(), broker.grants());
    }

    #[test]
    fn config_validation() {
        assert!(SupplyBroker::new(0, BrokerConfig::default()).is_err());
        assert!(SupplyBroker::new(
            2,
            BrokerConfig {
                missed_grant_threshold: 0,
                fallback_fraction: 0.5,
            }
        )
        .is_err());
        assert!(SupplyBroker::new(
            2,
            BrokerConfig {
                missed_grant_threshold: 3,
                fallback_fraction: 0.0,
            }
        )
        .is_err());
        assert!(SupplyBroker::new(
            2,
            BrokerConfig {
                missed_grant_threshold: 3,
                fallback_fraction: 1.5,
            }
        )
        .is_err());
    }
}
