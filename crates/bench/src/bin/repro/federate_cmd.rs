//! `repro federate`: multi-zone federation scenarios with the broker's
//! defenses under fire.
//!
//! Four legs, every one seeded and deterministic; legs 2–4 run under the
//! scenario predicate set (see [`crate::scenario`]):
//!
//! 1. **Single-zone neutrality**: a federation of one healthy zone is
//!    bit-for-bit identical to the standalone simulation on the same
//!    config — per-tick reports, fabric snapshots and the final
//!    controller snapshot all match exactly. This is a differential, not
//!    a scenario.
//! 2. **Zone-outage chaos**: per seed, a derived [`ZoneOutagePlan`] over
//!    three zones mixes controller crashes, network isolation, report
//!    staleness and a broker crash; a quiet plan must reproduce the
//!    plan-free run bit for bit.
//! 3. **Regional brownout**: one zone's supply plunges (the paper's
//!    Fig. 15 deficit profile) while the others stay ample; the pooled
//!    broker split shares the pain, and the brownout zone drops less
//!    demand federated than it would standalone.
//! 4. **Follow-the-sun**: three zones replay phase-shifted diurnal
//!    utilization traces; the largest grant rotates across zones as
//!    demand follows the sun.
//!
//! A failing run exits 1 with the seed printed, so `repro federate --seeds
//! <n> --ticks <t>` is the repro.

use crate::scenario::{self, Legs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use willow_core::migration::TickReport;
use willow_power::SupplyTrace;
use willow_sim::config::SimConfig;
use willow_sim::engine::Simulation;
use willow_sim::faults::{ControllerOutage, ZoneOutage, ZoneOutageKind, ZoneOutagePlan};
use willow_sim::federate::{FederateConfig, FederatedSimulation};
use willow_sim::metrics::FabricSnapshot;

/// Zones per federated run.
const ZONES: usize = 3;

/// Leg 1 — single-zone neutrality: federation-of-one vs standalone,
/// stepped in lockstep and compared bit for bit every tick.
fn run_differential(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let cfg = scenario::zone(seed, 0.5, ticks, threads);
    let mut standalone = Simulation::new(cfg.clone()).expect("valid zone config");
    let mut fed = FederatedSimulation::new(FederateConfig::new(vec![cfg]))
        .expect("valid single-zone federation");

    let mut s_report = TickReport::default();
    let mut s_fabric = FabricSnapshot::default();
    let mut f_reports = vec![TickReport::default()];
    let mut f_fabrics = vec![FabricSnapshot::default()];
    for t in 0..ticks {
        standalone.step_into_buffers(&mut s_report, &mut s_fabric);
        fed.step_into_buffers(&mut f_reports, &mut f_fabrics);
        if s_report != f_reports[0] || s_fabric != f_fabrics[0] {
            failures.push(format!("single-zone federation diverged at tick {t}"));
            break;
        }
    }
    if standalone.willow().snapshot() != fed.zone(0).willow().snapshot() {
        failures.push("single-zone federation: final snapshots differ".into());
    }
    if fed.broker().counters().conservation_violations != 0 {
        failures.push("single-zone federation: conservation violation".into());
    }
    println!(
        "  differential: federation-of-one vs standalone over {ticks} ticks -> {}",
        if failures.is_empty() {
            "bit-for-bit"
        } else {
            "FAIL"
        }
    );
    failures
}

/// Derive leg 2's scenario from `seed`: three zones, each with one outage
/// window of a seed-chosen kind, plus one broker crash, all fully inside
/// the run so every outage ends in a recovery/rejoin.
fn chaos_config(seed: u64, ticks: usize, threads: usize) -> FederateConfig {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let utilizations: Vec<f64> = (0..ZONES).map(|_| rng.gen_range(0.3..0.8)).collect();
    let horizon = ticks as u64;
    // Zone windows live in the first 60 % of the run; the broker crash in
    // the back half. Keeping them in disjoint eras bounds the worst case
    // (a zone may still be mid-outage when the broker dies).
    let outages = (0..ZONES)
        .map(|zone| {
            let kind = match rng.gen_range(0..3u8) {
                0 => ZoneOutageKind::ControllerCrash,
                1 => ZoneOutageKind::Isolation,
                _ => ZoneOutageKind::StaleReports,
            };
            let from = rng.gen_range(1..horizon * 2 / 5);
            let len = rng.gen_range(5..=horizon / 5);
            ZoneOutage {
                zone,
                kind,
                from,
                until: (from + len).min(horizon * 3 / 5),
            }
        })
        .collect();
    let b_from = rng.gen_range(horizon * 3 / 5 + 1..horizon * 4 / 5);
    let b_len = rng.gen_range(3..=horizon / 10);
    let plan = ZoneOutagePlan {
        checkpoint_period: rng.gen_range(4..=24),
        broker_crash: vec![ControllerOutage {
            from: b_from,
            until: (b_from + b_len).min(horizon - 5),
        }],
        outages,
    };
    let zones = utilizations
        .iter()
        .enumerate()
        .map(|(i, &u)| scenario::zone(seed ^ (i as u64 + 1), u, ticks, threads))
        .collect();
    FederateConfig {
        plan: Some(plan),
        ..FederateConfig::new(zones)
    }
}

/// Leg 2 — seeded zone-outage chaos with full accounting.
fn run_chaos_seed(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let cfg = chaos_config(seed, ticks, threads);
    let (_, m, mut failures) = scenario::run_federation(cfg.clone());

    // Quiet-plan neutrality: the same zones with an empty plan reproduce
    // the plan-free federation bit for bit (checkpointing is free).
    let run = |c| FederatedSimulation::new(c).expect("valid").run();
    let quiet = FederateConfig {
        plan: Some(ZoneOutagePlan::quiet()),
        ..cfg.clone()
    };
    scenario::twin(
        &mut failures,
        &run(FederateConfig::new(cfg.zones.clone())),
        &run(quiet),
        "quiet zone-outage plan diverged from the plan-free run",
    );

    let kinds: Vec<&str> = cfg
        .plan
        .iter()
        .flat_map(|p| &p.outages)
        .map(|o| match o.kind {
            ZoneOutageKind::ControllerCrash => "crash",
            ZoneOutageKind::Isolation => "isolate",
            ZoneOutageKind::StaleReports => "stale",
        })
        .collect();
    println!(
        "  seed {seed:>3}: kinds=[{}] broker-down={} trips={} stale-ticks={} \
         rejoins={} violations={} -> {}",
        kinds.join(","),
        m.broker.broker_down_ticks,
        m.broker.link_trips,
        m.broker.stale_report_ticks,
        m.zone_rejoins,
        m.invariant_violations(),
        scenario::verdict(&failures)
    );
    failures
}

/// Leg 3 — regional brownout: zone 0 rides the paper's deficit profile
/// while zones 1–2 stay ample; federation must beat standalone for the
/// brownout zone.
fn run_brownout(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let mut zones: Vec<SimConfig> = (0..ZONES)
        .map(|i| scenario::zone(seed ^ (i as u64 + 11), 0.6, ticks, threads))
        .collect();
    let eta1 = zones[0].controller.eta1 as usize;
    let supply_periods = ticks / eta1 + 1;
    let nominal = zones[0].ample_supply();
    zones[0].supply = Some(SupplyTrace::paper_deficit(nominal, supply_periods));

    // Standalone baseline: the brownout zone alone, same trace.
    let solo_m = Simulation::new(zones[0].clone())
        .expect("valid brownout zone")
        .run();
    let (_, m, mut failures) = scenario::run_federation(FederateConfig::new(zones));
    // Pooling must not leave the brownout zone worse off than going it
    // alone (the ample zones' headroom covers the plunges).
    if m.zones[0].avg_dropped > solo_m.avg_dropped + 1e-9 {
        failures.push(format!(
            "federated brownout zone dropped {:.1} W avg vs {:.1} standalone",
            m.zones[0].avg_dropped, solo_m.avg_dropped
        ));
    }
    println!(
        "  brownout: zone0 dropped {:.1} W avg federated vs {:.1} standalone \
         (zones 1-2: {:.1}, {:.1}) -> {}",
        m.zones[0].avg_dropped,
        solo_m.avg_dropped,
        m.zones[1].avg_dropped,
        m.zones[2].avg_dropped,
        scenario::verdict(&failures)
    );
    failures
}

/// Leg 4 — follow-the-sun: phase-shifted diurnal utilization traces; the
/// largest grant must rotate across all three zones.
fn run_follow_the_sun(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let day = (ticks / 2).max(30);
    let zones: Vec<SimConfig> = (0..ZONES)
        .map(|i| {
            let mut cfg = scenario::zone(seed ^ (i as u64 + 21), 0.5, ticks, threads);
            let phase = i as f64 / ZONES as f64;
            cfg.utilization_trace = Some(
                (0..ticks)
                    .map(|t| {
                        let x = (t as f64 / day as f64 + phase) * std::f64::consts::TAU;
                        0.45 + 0.3 * x.sin()
                    })
                    .collect(),
            );
            cfg
        })
        .collect();
    let mut fed =
        FederatedSimulation::new(FederateConfig::new(zones)).expect("valid follow-the-sun");
    let before = scenario::zone_apps(&fed);

    let mut reports = vec![TickReport::default(); ZONES];
    let mut fabrics = vec![FabricSnapshot::default(); ZONES];
    let mut leaders = [false; ZONES];
    for _ in 0..ticks {
        fed.step_into_buffers(&mut reports, &mut fabrics);
        let grants = fed.broker().grants();
        let lead = (0..ZONES)
            .max_by(|&a, &b| grants[a].partial_cmp(&grants[b]).expect("finite"))
            .expect("non-empty");
        leaders[lead] = true;
    }
    let mut failures = scenario::check_federation(&fed, &before);
    let rotated = leaders.iter().all(|&l| l);
    if !rotated {
        failures.push(format!(
            "grant leadership never rotated through all zones (saw {leaders:?})"
        ));
    }
    println!(
        "  follow-the-sun: {ticks} ticks, day={day}, leadership rotated={rotated} -> {}",
        scenario::verdict(&failures)
    );
    failures
}

/// Run the harness; exits 1 if any leg fails.
pub fn run(seeds: u64, ticks: usize, threads: usize) {
    println!(
        "federate harness: {ZONES} zones, {seeds} chaos seeds x {ticks} ticks, threads={threads}"
    );
    let mut legs = Legs::new("federate");
    legs.check("differential", run_differential(2011, ticks, threads));
    legs.seeds(seeds, |seed| run_chaos_seed(seed, ticks, threads));
    legs.check("brownout", run_brownout(2011, ticks, threads));
    legs.check("follow-the-sun", run_follow_the_sun(2011, ticks, threads));
    legs.finish("all legs passed (zero violations, zero lost apps, conservation green)");
}
