//! `repro ablate` — race the packer × target-policy × consolidation-policy
//! grid head-to-head.
//!
//! The paper picks FFDLR and its hot-zones-first orderings by argument, not
//! by measurement; this subcommand measures. Every combination of
//! `ControllerConfig::{packer, target_policy, consolidation_policy}` runs
//! the paper's hot/cold scenario (§V-B3, at the Fig. 7 consolidation
//! operating point U = 40 %) and a brownout scenario (the same fleet at
//! U = 60 % under the Fig. 15 supply-plunge profile), scored on
//! dropped demand, demand/consolidation migration counts, ping-pongs,
//! energy saved relative to the paper's default combo, and worst-case
//! thermal slack. Results are averaged over seeds, printed as a table, and
//! (outside `--smoke`) written to `BENCH_policy_race.json`; `EXPERIMENTS.md`
//! § Policy race records the committed numbers.
//!
//! The subcommand exits non-zero if any run trips the invariant auditor or
//! if the default-enum combo fails to reproduce a plain default-config run
//! bit-for-bit (the policy plumbing must be behavior-neutral for defaults).

use serde::Value;
use willow_core::config::{
    ConsolidationPolicyChoice, PackerChoice, SupplyPolicyChoice, TargetPolicyChoice,
};
use willow_power::SupplyTrace;
use willow_sim::{RunMetrics, SimConfig, Simulation};
use willow_thermal::units::Watts;
use willow_workload::trace::trapezoid_diurnal_profile;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The simulated servers' thermal limit (`ServerSpec::simulation_default`).
const T_LIMIT_C: f64 = 70.0;

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    /// Data-center utilization. Hot/cold runs at the paper's consolidation
    /// operating point (U = 40 %, Fig. 7) so victim/receiver orderings are
    /// actually exercised; the brownout runs at the deficit experiment's
    /// U = 60 % so surpluses run out and the packer decides outcomes.
    utilization: f64,
    brownout: bool,
}

const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "hot_cold",
        utilization: 0.4,
        brownout: false,
    },
    Scenario {
        name: "brownout",
        utilization: 0.6,
        brownout: true,
    },
];

/// Mean scores of one combo on one scenario, averaged over seeds.
struct Row {
    packer: PackerChoice,
    target: TargetPolicyChoice,
    consolidation: ConsolidationPolicyChoice,
    dropped: f64,
    demand_migs: f64,
    consolidation_migs: f64,
    pingpongs: f64,
    cluster_power: f64,
    /// `T_limit − max peak temperature`; `None` when no temperatures were
    /// recorded (empty fleet).
    thermal_slack: Option<f64>,
    violations: usize,
}

fn scenario_config(sc: Scenario, seed: u64, ticks: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_hot_cold(seed, sc.utilization);
    cfg.ticks = ticks;
    cfg.warmup = ticks / 5;
    if sc.brownout {
        cfg.supply = Some(SupplyTrace::paper_deficit(cfg.ample_supply(), ticks));
    }
    cfg
}

fn run_combo(
    sc: Scenario,
    seed: u64,
    ticks: usize,
    n_seeds: usize,
    packer: PackerChoice,
    target: TargetPolicyChoice,
    consolidation: ConsolidationPolicyChoice,
) -> Row {
    let mut row = Row {
        packer,
        target,
        consolidation,
        dropped: 0.0,
        demand_migs: 0.0,
        consolidation_migs: 0.0,
        pingpongs: 0.0,
        cluster_power: 0.0,
        thermal_slack: None,
        violations: 0,
    };
    let mut peak = f64::NEG_INFINITY;
    let mut saw_temps = false;
    for k in 0..n_seeds {
        let mut cfg = scenario_config(sc, seed + k as u64, ticks);
        cfg.controller.packer = packer;
        cfg.controller.target_policy = target;
        cfg.controller.consolidation_policy = consolidation;
        let m = Simulation::new(cfg).expect("valid ablate config").run();
        let n = n_seeds as f64;
        row.dropped += m.avg_dropped / n;
        row.demand_migs += m.demand_migrations as f64 / n;
        row.consolidation_migs += m.consolidation_migrations as f64 / n;
        row.pingpongs += m.pingpongs as f64 / n;
        row.cluster_power += m.avg_server_power.iter().sum::<f64>() / n;
        row.violations += m.invariant_violations;
        if !m.peak_server_temp.is_empty() {
            saw_temps = true;
            peak = m.peak_server_temp.iter().fold(peak, |a: f64, &b| a.max(b));
        }
    }
    if saw_temps {
        row.thermal_slack = Some(T_LIMIT_C - peak);
    }
    row
}

/// One plain default-config run — the neutrality reference: the default
/// policy enums must reproduce this bit-for-bit through the plumbing.
fn default_reference(sc: Scenario, seed: u64, ticks: usize) -> RunMetrics {
    Simulation::new(scenario_config(sc, seed, ticks))
        .expect("valid")
        .run()
}

// ---------------------------------------------------------------------
// Reactive vs predictive supply-policy race.
//
// The grid above asks which *orderings* win; this section asks whether
// acting on forecasts beats acting on measurements. It only makes sense
// on scenarios where the future is knowable: demand follows a diurnal
// trapezoid (ramps are trends, not surprises) and — in the scheduled
// brownout — supply descends on a published ramp. Reactive control pays
// for every transition after it bites; the predictive policy reads the
// same histories through its forecasters and pays a horizon early.

#[derive(Clone, Copy)]
struct PredictiveScenario {
    name: &'static str,
    /// Overlay the forecastable supply ramp-down on the second day's
    /// plateau (the scheduled brownout). Without it the scenario is pure
    /// diurnal load under ample supply.
    scheduled_brownout: bool,
}

const PREDICTIVE_SCENARIOS: [PredictiveScenario; 2] = [
    PredictiveScenario {
        name: "scheduled_brownout",
        scheduled_brownout: true,
    },
    PredictiveScenario {
        name: "diurnal_load",
        scheduled_brownout: false,
    },
];

/// Diurnal night/day utilization levels: nights idle enough that
/// consolidation parks servers, days busy enough that the parked capacity
/// is needed back — the regime where wake latency shows up as dropped
/// demand.
const DIURNAL_NIGHT_U: f64 = 0.12;
const DIURNAL_DAY_U: f64 = 0.68;
/// Scheduled-brownout floor, as a fraction of nominal supply. At the
/// day-plateau utilization this sits below aggregate demand, so the
/// plunge is a genuine deficit rather than margin erosion.
const BROWNOUT_DEPTH: f64 = 0.7;

/// Supply for the scheduled brownout: nominal, then a *ramped* (and thus
/// forecastable) descent to `BROWNOUT_DEPTH`·nominal across the second
/// day's plateau, then a ramped recovery. Geometry is expressed in demand
/// ticks and sampled at the Δ_S grain the engine indexes the trace by.
fn scheduled_brownout_supply(
    nominal: Watts,
    ticks: usize,
    period: usize,
    eta1: usize,
) -> SupplyTrace {
    let down0 = period + period * 45 / 100;
    let down1 = period + period * 55 / 100;
    let up0 = period + period * 75 / 100;
    let up1 = period + period * 85 / 100;
    let level = |t: usize| -> f64 {
        if t < down0 || t >= up1 {
            1.0
        } else if t < down1 {
            let f = (t - down0) as f64 / (down1 - down0) as f64;
            1.0 - (1.0 - BROWNOUT_DEPTH) * f
        } else if t < up0 {
            BROWNOUT_DEPTH
        } else {
            let f = (t - up0) as f64 / (up1 - up0) as f64;
            BROWNOUT_DEPTH + (1.0 - BROWNOUT_DEPTH) * f
        }
    };
    let periods = ticks / eta1 + 2;
    SupplyTrace::new((0..periods).map(|p| nominal * level(p * eta1)).collect())
}

fn predictive_scenario_config(
    sc: PredictiveScenario,
    seed: u64,
    ticks: usize,
    policy: SupplyPolicyChoice,
) -> SimConfig {
    let mut cfg = SimConfig::paper_hot_cold(seed, DIURNAL_DAY_U);
    cfg.ticks = ticks;
    cfg.warmup = ticks / 5;
    // Three diurnal cycles per run, whatever the tick budget.
    let period = (ticks / 3).max(10);
    let ramp = (period / 5).max(1);
    cfg.utilization_trace = Some(trapezoid_diurnal_profile(
        ticks,
        DIURNAL_NIGHT_U,
        DIURNAL_DAY_U,
        period,
        ramp,
    ));
    if sc.scheduled_brownout {
        cfg.supply = Some(scheduled_brownout_supply(
            cfg.ample_supply(),
            ticks,
            period,
            cfg.controller.eta1 as usize,
        ));
    }
    cfg.controller.supply_policy = policy;
    cfg
}

/// Mean scores of one supply policy on one predictive scenario.
struct PolicyRow {
    policy: SupplyPolicyChoice,
    dropped: f64,
    demand_migs: f64,
    consolidation_migs: f64,
    pingpongs: f64,
    cluster_power: f64,
    thermal_slack: Option<f64>,
    violations: usize,
}

fn run_supply_policy(
    sc: PredictiveScenario,
    seed: u64,
    ticks: usize,
    n_seeds: usize,
    policy: SupplyPolicyChoice,
) -> PolicyRow {
    let mut row = PolicyRow {
        policy,
        dropped: 0.0,
        demand_migs: 0.0,
        consolidation_migs: 0.0,
        pingpongs: 0.0,
        cluster_power: 0.0,
        thermal_slack: None,
        violations: 0,
    };
    let mut peak = f64::NEG_INFINITY;
    let mut saw_temps = false;
    for k in 0..n_seeds {
        let cfg = predictive_scenario_config(sc, seed + k as u64, ticks, policy);
        let m = Simulation::new(cfg).expect("valid predictive config").run();
        let n = n_seeds as f64;
        row.dropped += m.avg_dropped / n;
        row.demand_migs += m.demand_migrations as f64 / n;
        row.consolidation_migs += m.consolidation_migrations as f64 / n;
        row.pingpongs += m.pingpongs as f64 / n;
        row.cluster_power += m.avg_server_power.iter().sum::<f64>() / n;
        row.violations += m.invariant_violations;
        if !m.peak_server_temp.is_empty() {
            saw_temps = true;
            peak = m.peak_server_temp.iter().fold(peak, |a: f64, &b| a.max(b));
        }
    }
    if saw_temps {
        row.thermal_slack = Some(T_LIMIT_C - peak);
    }
    row
}

pub fn run(seed: u64, ticks: usize, n_seeds: usize, smoke: bool) {
    let packers: &[PackerChoice] = if smoke {
        &[PackerChoice::Ffdlr, PackerChoice::BestFitDecreasing]
    } else {
        &[
            PackerChoice::Ffdlr,
            PackerChoice::FirstFitDecreasing,
            PackerChoice::BestFitDecreasing,
            PackerChoice::NextFit,
        ]
    };
    let targets = [
        TargetPolicyChoice::AscendingId,
        TargetPolicyChoice::BestFit,
        TargetPolicyChoice::ThermalHeadroom,
    ];
    let consolidations = [
        ConsolidationPolicyChoice::HotZonesFirst,
        ConsolidationPolicyChoice::MostHeadroomReceivers,
    ];

    println!(
        "policy race: {} packers x {} target x {} consolidation x {} scenarios, \
         {} ticks, {} seed(s){}",
        packers.len(),
        targets.len(),
        consolidations.len(),
        SCENARIOS.len(),
        ticks,
        n_seeds,
        if smoke { " [smoke]" } else { "" }
    );

    let mut failures = 0usize;
    let mut json_rows = Vec::new();
    for sc in SCENARIOS {
        // Neutrality check: the default combo must be indistinguishable
        // from a config that never mentions the policy fields.
        let reference = default_reference(sc, seed, ticks);
        let mut cfg = scenario_config(sc, seed, ticks);
        cfg.controller.packer = PackerChoice::Ffdlr;
        cfg.controller.target_policy = TargetPolicyChoice::AscendingId;
        cfg.controller.consolidation_policy = ConsolidationPolicyChoice::HotZonesFirst;
        let explicit = Simulation::new(cfg).expect("valid").run();
        if explicit != reference {
            println!(
                "FAIL [{}]: default policy enums are not behavior-neutral",
                sc.name
            );
            failures += 1;
        }

        let mut rows = Vec::new();
        for &packer in packers {
            for &target in targets.iter() {
                for &consolidation in consolidations.iter() {
                    rows.push(run_combo(
                        sc,
                        seed,
                        ticks,
                        n_seeds,
                        packer,
                        target,
                        consolidation,
                    ));
                }
            }
        }
        let baseline_power = rows
            .iter()
            .find(|r| {
                r.packer == PackerChoice::Ffdlr
                    && r.target == TargetPolicyChoice::AscendingId
                    && r.consolidation == ConsolidationPolicyChoice::HotZonesFirst
            })
            .map_or(0.0, |r| r.cluster_power);

        println!("\n== scenario: {} ==", sc.name);
        println!(
            "  {:<18} {:<16} {:<22} {:>10} {:>8} {:>8} {:>6} {:>10} {:>10}",
            "packer",
            "targets",
            "consolidation",
            "drop(W)",
            "d-migs",
            "c-migs",
            "pp",
            "saved(W)",
            "slack(°C)"
        );
        for r in &rows {
            if r.violations > 0 {
                println!(
                    "FAIL [{}]: {:?}/{:?}/{:?} tripped the invariant auditor {} time(s)",
                    sc.name, r.packer, r.target, r.consolidation, r.violations
                );
                failures += 1;
            }
            let saved = baseline_power - r.cluster_power;
            let slack = r
                .thermal_slack
                .map_or_else(|| "n/a".to_string(), |s| format!("{s:.1}"));
            println!(
                "  {:<18} {:<16} {:<22} {:>10.1} {:>8.1} {:>8.1} {:>6.1} {:>10.1} {:>10}",
                format!("{:?}", r.packer),
                format!("{:?}", r.target),
                format!("{:?}", r.consolidation),
                r.dropped,
                r.demand_migs,
                r.consolidation_migs,
                r.pingpongs,
                saved,
                slack
            );
            json_rows.push(obj(vec![
                ("scenario", Value::Str(sc.name.to_owned())),
                ("utilization", Value::F64(sc.utilization)),
                ("packer", Value::Str(format!("{:?}", r.packer))),
                ("target_policy", Value::Str(format!("{:?}", r.target))),
                (
                    "consolidation_policy",
                    Value::Str(format!("{:?}", r.consolidation)),
                ),
                ("avg_dropped_w", Value::F64(r.dropped)),
                ("demand_migrations", Value::F64(r.demand_migs)),
                ("consolidation_migrations", Value::F64(r.consolidation_migs)),
                ("pingpongs", Value::F64(r.pingpongs)),
                ("cluster_power_w", Value::F64(r.cluster_power)),
                ("energy_saved_w", Value::F64(saved)),
                (
                    "thermal_slack_c",
                    r.thermal_slack.map_or(Value::Null, Value::F64),
                ),
            ]));
        }
    }

    // ----- reactive vs predictive supply-policy race -----
    let mut supply_rows = Vec::new();
    for sc in PREDICTIVE_SCENARIOS {
        // Neutrality check, serde edition: a config whose JSON never
        // mentions `supply_policy` must behave exactly like one that
        // spells out the Reactive default — the planning seam and the
        // config plumbing must both be invisible for defaults.
        let explicit_cfg =
            predictive_scenario_config(sc, seed, ticks, SupplyPolicyChoice::Reactive);
        let json = serde_json::to_string(&explicit_cfg).expect("config serializes");
        let stripped = json.replacen(",\"supply_policy\":\"Reactive\"", "", 1);
        assert!(
            !stripped.contains("supply_policy"),
            "failed to strip the supply_policy key"
        );
        let legacy_cfg: SimConfig = serde_json::from_str(&stripped).expect("legacy config parses");
        let reference = Simulation::new(legacy_cfg).expect("valid").run();
        let explicit = Simulation::new(explicit_cfg).expect("valid").run();
        if explicit != reference {
            println!(
                "FAIL [{}]: explicit Reactive supply policy is not behavior-neutral",
                sc.name
            );
            failures += 1;
        }

        let reactive = run_supply_policy(sc, seed, ticks, n_seeds, SupplyPolicyChoice::Reactive);
        let predictive =
            run_supply_policy(sc, seed, ticks, n_seeds, SupplyPolicyChoice::Predictive);

        println!("\n== supply-policy race: {} ==", sc.name);
        println!(
            "  {:<12} {:>10} {:>8} {:>8} {:>6} {:>12} {:>10}",
            "policy", "drop(W)", "d-migs", "c-migs", "pp", "power(W)", "slack(°C)"
        );
        for r in [&reactive, &predictive] {
            if r.violations > 0 {
                println!(
                    "FAIL [{}]: {:?} supply policy tripped the invariant auditor {} time(s)",
                    sc.name, r.policy, r.violations
                );
                failures += 1;
            }
            let slack = r
                .thermal_slack
                .map_or_else(|| "n/a".to_string(), |s| format!("{s:.1}"));
            println!(
                "  {:<12} {:>10.1} {:>8.1} {:>8.1} {:>6.1} {:>12.1} {:>10}",
                format!("{:?}", r.policy),
                r.dropped,
                r.demand_migs,
                r.consolidation_migs,
                r.pingpongs,
                r.cluster_power,
                slack
            );
            supply_rows.push(obj(vec![
                ("scenario", Value::Str(sc.name.to_owned())),
                ("supply_policy", Value::Str(format!("{:?}", r.policy))),
                ("avg_dropped_w", Value::F64(r.dropped)),
                ("demand_migrations", Value::F64(r.demand_migs)),
                ("consolidation_migrations", Value::F64(r.consolidation_migs)),
                ("pingpongs", Value::F64(r.pingpongs)),
                ("cluster_power_w", Value::F64(r.cluster_power)),
                (
                    "thermal_slack_c",
                    r.thermal_slack.map_or(Value::Null, Value::F64),
                ),
            ]));
        }

        // The headline claim — forecasts beat measurements where the
        // future is knowable — is gated in full runs only: smoke runs are
        // too short for the averages to be stable.
        if !smoke && sc.scheduled_brownout && predictive.dropped >= reactive.dropped {
            println!(
                "FAIL [{}]: predictive dropped {:.1} W >= reactive {:.1} W",
                sc.name, predictive.dropped, reactive.dropped
            );
            failures += 1;
        }
    }

    if !smoke {
        let doc = obj(vec![
            ("kind", Value::Str("policy_race".to_owned())),
            ("seed", Value::U64(seed)),
            ("ticks", Value::U64(ticks as u64)),
            ("n_seeds", Value::U64(n_seeds as u64)),
            ("thermal_limit_c", Value::F64(T_LIMIT_C)),
            ("rows", Value::Array(json_rows)),
            ("supply_policy_rows", Value::Array(supply_rows)),
        ]);
        let path = "BENCH_policy_race.json";
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write policy race json");
        println!("\nwrote {path}");
    }

    if failures > 0 {
        println!("\nablate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\nablate: all sanity checks passed");
}
