//! Property-based tests for the multi-zone federation, at both of its
//! levels:
//!
//! * the driver — [`FederatedSimulation`], the one multi-zone tick loop —
//!   replays identically under random zone faults, a zone outage and a
//!   broker crash, conserving supply, apps and every zone invariant while
//!   counting its outages, recoveries and rejoins exactly;
//! * the broker ledger — a [`SupplyBroker`] checkpointed mid-outage,
//!   round-tripped through JSON and restored the way the driver restores
//!   it (`new` + `recover`) stays in lockstep with the original.
//!
//! Zones share no state except the broker's grants, so these two plus the
//! zone-controller round trip in `snapshot_props.rs` cover federated
//! checkpoint/restore.

use proptest::prelude::*;
use willow_core::federation::{BrokerConfig, BrokerSnapshot, SupplyBroker};
use willow_core::migration::TickReport;
use willow_core::ZoneCondition;
use willow_sim::faults::ControllerOutage;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{
    FaultPlan, FederateConfig, FederatedSimulation, SimConfig, ZoneOutage, ZoneOutageKind,
    ZoneOutagePlan,
};
use willow_thermal::units::Watts;

/// Demand periods every driver-level run lasts; every generated window
/// ends before it.
const DRIVER_TICKS: u64 = 48;

/// Apps hosted in each zone.
fn hosted_apps(fed: &FederatedSimulation) -> Vec<usize> {
    fed.zones()
        .iter()
        .map(|z| z.willow().apps().placed())
        .collect()
}

/// Deterministic demand report for zone `z` at tick `t`.
fn zone_demand(z: usize, t: u64) -> Watts {
    Watts(40.0 + ((z as u64 * 37 + t * 11) % 23) as f64 * 9.0)
}

/// The broker's view of zone `z` at `t` under `windows` of
/// `(zone, condition, from, until)`: the most severe active condition.
fn condition_at(windows: &[(usize, ZoneCondition, u64, u64)], z: usize, t: u64) -> ZoneCondition {
    let severity = |c: ZoneCondition| match c {
        ZoneCondition::Healthy => 0,
        ZoneCondition::StaleReport => 1,
        ZoneCondition::Isolated => 2,
        ZoneCondition::Down => 3,
    };
    windows
        .iter()
        .filter(|&&(zone, _, from, until)| zone == z && (from..until).contains(&t))
        .map(|&(_, c, _, _)| c)
        .fold(ZoneCondition::Healthy, |a, b| {
            if severity(b) > severity(a) {
                b
            } else {
                a
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two federated runs from one config — zone fault plans with message
    /// loss and migration failures, one zone outage of random kind and an
    /// optional broker crash, every zone auditor panicking on a violation
    /// — agree tick for tick on every zone's report and fabric, conserve
    /// supply and apps, and account for the schedule exactly: one broker
    /// recovery per crash window, and one zone rejoin when an isolation or
    /// controller crash ends on a tick the broker is up for (a zone whose
    /// outage ends inside or at the end of a broker crash is reconciled by
    /// the broker's own recovery instead).
    #[test]
    fn federated_driver_replays_identically_under_faults(
        n_zones in 2usize..4,
        branching in prop::collection::vec(2usize..4, 2..4),
        apps in 1usize..3,
        utilization in 0.3f64..0.8,
        loss in 0.0f64..0.3,
        migration_failure in 0.0f64..0.5,
        outage_zone_frac in 0.0f64..1.0,
        kind_pick in 0u8..3,
        outage_from in 1u64..20,
        outage_len in 1u64..15,
        broker_crash in prop::option::of((1u64..30, 1u64..10)),
        checkpoint_period in 1u64..8,
        seed in 0u64..1_000_000,
    ) {
        let outage_zone = ((outage_zone_frac * n_zones as f64) as usize).min(n_zones - 1);
        let kind = match kind_pick {
            0 => ZoneOutageKind::ControllerCrash,
            1 => ZoneOutageKind::Isolation,
            _ => ZoneOutageKind::StaleReports,
        };
        let outage = ZoneOutage {
            zone: outage_zone,
            kind,
            from: outage_from,
            until: outage_from + outage_len,
        };
        let broker_window = broker_crash.map(|(from, len)| ControllerOutage {
            from,
            until: from + len,
        });
        let plan = ZoneOutagePlan {
            checkpoint_period,
            broker_crash: broker_window.iter().copied().collect(),
            outages: vec![outage],
        };
        let zones: Vec<SimConfig> = (0..n_zones)
            .map(|z| {
                let mut cfg = SimConfig::paper_default(seed + z as u64, utilization);
                cfg.branching = branching.clone();
                cfg.apps_per_server = apps;
                cfg.ticks = DRIVER_TICKS as usize;
                cfg.warmup = 0;
                cfg.audit_panic = true;
                cfg.faults = Some(FaultPlan {
                    seed: seed ^ (z as u64 + 1),
                    report_loss: loss,
                    directive_loss: loss,
                    migration_failure,
                    abort_fraction: 0.5,
                    ..FaultPlan::default()
                });
                cfg
            })
            .collect();
        let config = FederateConfig {
            zones,
            broker: BrokerConfig::default(),
            plan: Some(plan),
        };
        let mut a = FederatedSimulation::new(config.clone()).expect("valid federation");
        let mut b = FederatedSimulation::new(config).expect("valid federation");
        let hosted = hosted_apps(&a);

        let mut reports_a = vec![TickReport::default(); n_zones];
        let mut reports_b = vec![TickReport::default(); n_zones];
        let mut fabrics_a = vec![FabricSnapshot::default(); n_zones];
        let mut fabrics_b = vec![FabricSnapshot::default(); n_zones];
        for t in 0..DRIVER_TICKS {
            a.step_into_buffers(&mut reports_a, &mut fabrics_a);
            b.step_into_buffers(&mut reports_b, &mut fabrics_b);
            for z in 0..n_zones {
                prop_assert_eq!(&reports_a[z], &reports_b[z], "zone {} report, tick {}", z, t);
                prop_assert_eq!(&fabrics_a[z], &fabrics_b[z], "zone {} fabric, tick {}", z, t);
            }
            prop_assert_eq!(&hosted_apps(&a), &hosted, "apps lost or duplicated at tick {}", t);
        }

        let counters = a.broker().counters();
        prop_assert_eq!(counters.conservation_violations, 0);
        let violations: usize = a.zones().iter().map(|z| z.invariant_violations()).sum();
        prop_assert_eq!(violations, 0);
        let down_ticks = broker_window.map_or(0, |w| w.until - w.from);
        prop_assert_eq!(counters.broker_down_ticks, down_ticks);
        prop_assert_eq!(a.broker_recoveries(), usize::from(broker_window.is_some()));
        let broker_down = |t: u64| broker_window.is_some_and(|w| (w.from..w.until).contains(&t));
        let rejoins = kind != ZoneOutageKind::StaleReports
            && !broker_down(outage.until - 1)
            && !broker_down(outage.until);
        prop_assert_eq!(a.zone_rejoins(), usize::from(rejoins));
        let crashed = kind == ZoneOutageKind::ControllerCrash;
        prop_assert_eq!(a.zone(outage_zone).controller_recoveries(), usize::from(crashed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint a broker mid-outage — zones down, isolated or serving
    /// stale reports, the broker itself possibly down — round-trip the
    /// snapshot through JSON, and restore a twin the way the federated
    /// driver does after a broker crash (`SupplyBroker::new` +
    /// `recover`). The twin's ledger and grants must equal the
    /// original's at once and after every tick through the rest of the
    /// outage and past its end: no missed-grant count or trip may be lost
    /// on the way.
    #[test]
    fn broker_json_round_trip_restores_lockstep(
        n_zones in 2usize..5,
        threshold in 1u32..5,
        fallback_fraction in 0.1f64..1.0,
        supply_frac in 0.3f64..1.2,
        windows in prop::collection::vec((0usize..4, 0u8..4, 1u64..30, 1u64..12), 1..5),
    ) {
        let config = BrokerConfig {
            missed_grant_threshold: threshold,
            fallback_fraction,
        };
        // Kind 3 is a broker-down window; the others are zone windows.
        let zone_windows: Vec<(usize, ZoneCondition, u64, u64)> = windows
            .iter()
            .filter(|w| w.1 < 3)
            .map(|&(z, kind, from, len)| {
                let condition = match kind {
                    0 => ZoneCondition::Down,
                    1 => ZoneCondition::Isolated,
                    _ => ZoneCondition::StaleReport,
                };
                (z % n_zones, condition, from, from + len)
            })
            .collect();
        let broker_down = |t: u64| {
            windows
                .iter()
                .any(|&(_, kind, from, len)| kind == 3 && (from..from + len).contains(&t))
        };
        let total = Watts(
            (0..n_zones).map(|z| zone_demand(z, 0).0).sum::<f64>() * supply_frac,
        );
        let step = |broker: &mut SupplyBroker, t: u64| {
            if broker_down(t) {
                broker.broker_down_tick();
            } else {
                let conditions: Vec<ZoneCondition> =
                    (0..n_zones).map(|z| condition_at(&zone_windows, z, t)).collect();
                let reports: Vec<Option<Watts>> = (0..n_zones)
                    .map(|z| conditions[z].report_fresh().then(|| zone_demand(z, t)))
                    .collect();
                broker.apportion(total, &conditions, &reports);
            }
        };

        // The checkpoint lands strictly inside the first window.
        let (_, _, from, len) = windows[0];
        let checkpoint_at = from + len / 2;
        let end = windows.iter().map(|w| w.2 + w.3).max().unwrap_or(0) + 10;

        let mut broker = SupplyBroker::new(n_zones, config).expect("valid broker");
        for t in 0..checkpoint_at {
            step(&mut broker, t);
        }
        let snapshot = broker.snapshot();
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let parsed: BrokerSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        prop_assert_eq!(&parsed, &snapshot);
        let mut twin = SupplyBroker::new(n_zones, config).expect("valid broker");
        twin.recover(parsed).expect("zone counts match");
        prop_assert_eq!(twin.links(), broker.links(), "ledger lost on restore");
        prop_assert_eq!(twin.grants(), broker.grants(), "grants lost on restore");

        for t in checkpoint_at..end {
            step(&mut broker, t);
            step(&mut twin, t);
            prop_assert_eq!(twin.links(), broker.links(), "ledger diverged at tick {}", t);
            prop_assert_eq!(twin.grants(), broker.grants(), "grants diverged at tick {}", t);
        }
    }

    /// The broker keeps its safety envelope under arbitrary linear
    /// per-zone demand trends and a zone going stale mid-run: grants
    /// conserve supply every tick (Σ ≤ total, no conservation-violation
    /// counts), stay non-negative, and a stale-report zone only ever
    /// tightens relative to its last grant.
    #[test]
    fn broker_conserves_and_stale_tightens_under_trends(
        n_zones in 2usize..5,
        bases in prop::collection::vec(50.0f64..400.0, 1..5),
        slopes in prop::collection::vec(-8.0f64..12.0, 1..5),
        supply_frac in 0.4f64..1.1,
        stale_zone_frac in 0.0f64..1.0,
        stale_from in 5u64..20,
        extra_ticks in 10u64..25,
    ) {
        use willow_core::federation::SupplyBroker;

        let stale_zone = ((stale_zone_frac * n_zones as f64) as usize).min(n_zones - 1);
        let mut broker =
            SupplyBroker::new(n_zones, BrokerConfig::default()).expect("valid broker");
        let demand_at = |z: usize, t: u64| -> Watts {
            let base = bases[z % bases.len()];
            let slope = slopes[z % slopes.len()];
            Watts((base + slope * t as f64).max(0.0))
        };
        // Deliberately scarce-to-ample: supply_frac < 1 exercises real
        // contention, > 1 exercises the cap-free surplus path.
        let total = Watts(
            (0..n_zones).map(|z| bases[z % bases.len()]).sum::<f64>() * supply_frac,
        );

        for t in 0..stale_from + extra_ticks {
            let conds: Vec<ZoneCondition> = (0..n_zones)
                .map(|z| {
                    if z == stale_zone && t >= stale_from {
                        ZoneCondition::StaleReport
                    } else {
                        ZoneCondition::Healthy
                    }
                })
                .collect();
            let zone_reports: Vec<Option<Watts>> = (0..n_zones)
                .map(|z| conds[z].report_fresh().then(|| demand_at(z, t)))
                .collect();
            let stale_anchor = broker.links()[stale_zone].last_grant;
            let grants = broker.apportion(total, &conds, &zone_reports).to_vec();

            let granted: f64 = grants.iter().map(|g| g.0).sum();
            prop_assert!(
                granted <= total.0 * (1.0 + 1e-9) + 1e-9,
                "tick {}: granted {} of total {}",
                t,
                granted,
                total.0
            );
            for (z, g) in grants.iter().enumerate() {
                prop_assert!(g.0 >= 0.0, "tick {}: negative grant for zone {}", t, z);
            }
            if t >= stale_from {
                prop_assert!(
                    grants[stale_zone].0 <= stale_anchor.0 + 1e-9,
                    "tick {}: stale zone loosened {} -> {}",
                    t,
                    stale_anchor.0,
                    grants[stale_zone].0
                );
            }
        }
        prop_assert_eq!(broker.counters().conservation_violations, 0);
    }
}
