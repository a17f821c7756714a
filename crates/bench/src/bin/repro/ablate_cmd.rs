//! `repro ablate` — score every ablation through one loop.
//!
//! The paper picks FFDLR, its hot-zones-first orderings, the `P_min`
//! margin, tightening-only triggers, demand-proportional budgets and the
//! η1/η2 granularities by argument, not by measurement; this subcommand
//! measures. Three families of rows share one seed-averaging scorer
//! ([`score`]):
//!
//! * the policy grid: every combination of
//!   `ControllerConfig::{packer, consolidation_policy}`;
//! * the knob sweeps ([`KNOBS`]): one controller setting varied at a time
//!   around the paper's defaults;
//! * the reactive-vs-predictive supply-policy race.
//!
//! The grid and the knob sweeps run the paper's hot/cold scenario (§V-B3,
//! at the Fig. 7 consolidation operating point U = 40 %) and a brownout
//! scenario (the same fleet at U = 60 % under the Fig. 15 supply-plunge
//! profile). Every row is scored on dropped demand, demand/consolidation
//! migration counts, ping-pongs, cluster power (energy saved relative to
//! the paper's default config) and worst-case thermal slack. Results are
//! averaged over seeds, printed as tables, and written to
//! `BENCH_policy_race.json`; `EXPERIMENTS.md` § Ablation results and
//! § Policy race record the committed numbers.
//!
//! The subcommand exits non-zero if any run trips the invariant auditor or
//! if the default-enum combo fails to reproduce a plain default-config run
//! bit-for-bit (the policy plumbing must be behavior-neutral for defaults).

use serde::Value;
use willow_core::config::{
    AllocationPolicy, ConsolidationPolicyChoice, ControllerConfig, PackerChoice, ReducedTargetRule,
    SmootherKind, SupplyPolicyChoice, ThermalEstimate,
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

/// Mean scores of one configuration on one scenario, averaged over seeds.
struct Scores {
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

/// Runs `config(s)` for the `n_seeds` seeds from `seed` on and averages
/// the runs' metrics into one row of scores.
fn score(seed: u64, n_seeds: usize, config: impl Fn(u64) -> SimConfig) -> Scores {
    let mut row = Scores {
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
        let m = Simulation::new(config(seed + k as u64))
            .expect("valid ablate config")
            .run();
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

/// Column headers matching [`Scores::cells`].
const SCORE_HEADERS: [&str; 4] = ["drop(W)", "d-migs", "c-migs", "pp"];

impl Scores {
    /// The dropped-demand, migration and ping-pong table cells.
    fn cells(&self) -> String {
        format!(
            "{:>10.1} {:>8.1} {:>8.1} {:>6.1}",
            self.dropped, self.demand_migs, self.consolidation_migs, self.pingpongs
        )
    }

    /// The thermal-slack table cell.
    fn slack_cell(&self) -> String {
        self.thermal_slack
            .map_or_else(|| "n/a".to_string(), |s| format!("{s:.1}"))
    }

    /// Prints a failure and counts it when any run tripped the invariant
    /// auditor.
    fn audit(&self, scenario: &str, label: &str, failures: &mut usize) {
        if self.violations > 0 {
            println!(
                "FAIL [{scenario}]: {label} tripped the invariant auditor {} time(s)",
                self.violations
            );
            *failures += 1;
        }
    }

    /// One JSON row: `labels`, then the scores; `saved` (energy saved
    /// against the scenario's default config) precedes the slack when
    /// given.
    fn json(&self, mut labels: Vec<(&str, Value)>, saved: Option<f64>) -> Value {
        labels.extend([
            ("avg_dropped_w", Value::F64(self.dropped)),
            ("demand_migrations", Value::F64(self.demand_migs)),
            (
                "consolidation_migrations",
                Value::F64(self.consolidation_migs),
            ),
            ("pingpongs", Value::F64(self.pingpongs)),
            ("cluster_power_w", Value::F64(self.cluster_power)),
        ]);
        if let Some(saved) = saved {
            labels.push(("energy_saved_w", Value::F64(saved)));
        }
        labels.push((
            "thermal_slack_c",
            self.thermal_slack.map_or(Value::Null, Value::F64),
        ));
        obj(labels)
    }
}

/// One single-knob ablation: the knob, the value it takes, and how to set
/// it on the paper's default controller config.
type Knob = (&'static str, &'static str, fn(&mut ControllerConfig));

/// The knob sweeps. Each knob's values include the paper's default
/// (margin 5 W, Disproportionate, ProportionalToDemand, WindowPrediction,
/// η = (4, 7), Exponential).
const KNOBS: &[Knob] = &[
    // `P_min` (Property 4): larger margins tighten the deficit threshold.
    ("margin", "0 W", |c| c.margin = Watts(0.0)),
    ("margin", "5 W", |c| c.margin = Watts(5.0)),
    ("margin", "20 W", |c| c.margin = Watts(20.0)),
    ("margin", "60 W", |c| c.margin = Watts(60.0)),
    // Tightening-only triggers: which budget cuts disqualify a target.
    ("reduced_rule", "Disproportionate", |c| {
        c.reduced_rule = ReducedTargetRule::Disproportionate;
    }),
    ("reduced_rule", "Strict", |c| {
        c.reduced_rule = ReducedTargetRule::Strict;
    }),
    ("reduced_rule", "Off", |c| {
        c.reduced_rule = ReducedTargetRule::Off
    }),
    ("allocation", "ProportionalToDemand", |c| {
        c.allocation = AllocationPolicy::ProportionalToDemand;
    }),
    ("allocation", "EqualShare", |c| {
        c.allocation = AllocationPolicy::EqualShare;
    }),
    ("allocation", "ProportionalToCapacity", |c| {
        c.allocation = AllocationPolicy::ProportionalToCapacity;
    }),
    ("thermal_estimate", "WindowPrediction", |c| {
        c.thermal_estimate = ThermalEstimate::WindowPrediction;
    }),
    ("thermal_estimate", "NaiveThrottle", |c| {
        c.thermal_estimate = ThermalEstimate::NaiveThrottle;
    }),
    // Time granularities: Δ_S = η1·Δ_D, Δ_A = η2·Δ_D, halved and doubled.
    ("eta1,eta2", "2,3", |c| (c.eta1, c.eta2) = (2, 3)),
    ("eta1,eta2", "4,7", |c| (c.eta1, c.eta2) = (4, 7)),
    ("eta1,eta2", "8,14", |c| (c.eta1, c.eta2) = (8, 14)),
    // Eq.-4 smoothing vs Holt level + trend (§IV-C's "ARIMA type" option).
    ("smoother", "Exponential", |c| {
        c.smoother = SmootherKind::Exponential;
    }),
    ("smoother", "Holt(0.2)", |c| {
        c.smoother = SmootherKind::Holt { beta: 0.2 };
    }),
];

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

pub fn run(seed: u64, ticks: usize, n_seeds: usize) {
    let packers = [
        PackerChoice::Ffdlr,
        PackerChoice::FirstFitDecreasing,
        PackerChoice::BestFitDecreasing,
        PackerChoice::NextFit,
    ];
    let consolidations = [
        ConsolidationPolicyChoice::HotZonesFirst,
        ConsolidationPolicyChoice::MostHeadroomReceivers,
    ];
    let default_combo = (
        PackerChoice::Ffdlr,
        ConsolidationPolicyChoice::HotZonesFirst,
    );

    println!(
        "policy race: {} packers x {} consolidation + {} knob settings \
         x {} scenarios, {} ticks, {} seed(s)",
        packers.len(),
        consolidations.len(),
        KNOBS.len(),
        SCENARIOS.len(),
        ticks,
        n_seeds,
    );

    let mut failures = 0usize;
    let mut json_rows = Vec::new();
    let mut knob_rows = Vec::new();
    for sc in SCENARIOS {
        // Neutrality check: the default combo must be indistinguishable
        // from a config that never mentions the policy fields.
        let reference = default_reference(sc, seed, ticks);
        let mut cfg = scenario_config(sc, seed, ticks);
        (cfg.controller.packer, cfg.controller.consolidation_policy) = default_combo;
        let explicit = Simulation::new(cfg).expect("valid").run();
        if explicit != reference {
            println!(
                "FAIL [{}]: default policy enums are not behavior-neutral",
                sc.name
            );
            failures += 1;
        }

        let mut rows = Vec::new();
        for &packer in &packers {
            for &consolidation in &consolidations {
                let scores = score(seed, n_seeds, |s| {
                    let mut cfg = scenario_config(sc, s, ticks);
                    cfg.controller.packer = packer;
                    cfg.controller.consolidation_policy = consolidation;
                    cfg
                });
                rows.push(((packer, consolidation), scores));
            }
        }
        let baseline_power = rows
            .iter()
            .find(|(combo, _)| *combo == default_combo)
            .map_or(0.0, |(_, r)| r.cluster_power);

        println!("\n== scenario: {} ==", sc.name);
        let [drop, dmigs, cmigs, pp] = SCORE_HEADERS;
        println!(
            "  {:<18} {:<22} {drop:>10} {dmigs:>8} {cmigs:>8} {pp:>6} {:>10} {:>10}",
            "packer", "consolidation", "saved(W)", "slack(°C)"
        );
        for ((packer, consolidation), r) in &rows {
            r.audit(
                sc.name,
                &format!("{packer:?}/{consolidation:?}"),
                &mut failures,
            );
            let saved = baseline_power - r.cluster_power;
            println!(
                "  {:<18} {:<22} {} {:>10.1} {:>10}",
                format!("{packer:?}"),
                format!("{consolidation:?}"),
                r.cells(),
                saved,
                r.slack_cell()
            );
            json_rows.push(r.json(
                vec![
                    ("scenario", Value::Str(sc.name.to_owned())),
                    ("utilization", Value::F64(sc.utilization)),
                    ("packer", Value::Str(format!("{packer:?}"))),
                    (
                        "consolidation_policy",
                        Value::Str(format!("{consolidation:?}")),
                    ),
                ],
                Some(saved),
            ));
        }

        // ----- single-knob sweeps around the paper's defaults -----
        println!("\n== knob sweeps: {} ==", sc.name);
        println!(
            "  {:<18} {:<22} {drop:>10} {dmigs:>8} {cmigs:>8} {pp:>6} {:>10} {:>10}",
            "knob", "value", "saved(W)", "slack(°C)"
        );
        for &(knob, value, set) in KNOBS {
            let r = score(seed, n_seeds, |s| {
                let mut cfg = scenario_config(sc, s, ticks);
                set(&mut cfg.controller);
                cfg
            });
            r.audit(sc.name, &format!("{knob}={value}"), &mut failures);
            let saved = baseline_power - r.cluster_power;
            println!(
                "  {knob:<18} {value:<22} {} {saved:>10.1} {:>10}",
                r.cells(),
                r.slack_cell()
            );
            knob_rows.push(r.json(
                vec![
                    ("scenario", Value::Str(sc.name.to_owned())),
                    ("utilization", Value::F64(sc.utilization)),
                    ("knob", Value::Str(knob.to_owned())),
                    ("value", Value::Str(value.to_owned())),
                ],
                Some(saved),
            ));
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

        let [reactive, predictive] = [SupplyPolicyChoice::Reactive, SupplyPolicyChoice::Predictive]
            .map(|policy| {
                let scores = score(seed, n_seeds, |s| {
                    predictive_scenario_config(sc, s, ticks, policy)
                });
                (policy, scores)
            });

        println!("\n== supply-policy race: {} ==", sc.name);
        let [drop, dmigs, cmigs, pp] = SCORE_HEADERS;
        println!(
            "  {:<12} {drop:>10} {dmigs:>8} {cmigs:>8} {pp:>6} {:>12} {:>10}",
            "policy", "power(W)", "slack(°C)"
        );
        for (policy, r) in [&reactive, &predictive] {
            r.audit(sc.name, &format!("{policy:?} supply policy"), &mut failures);
            println!(
                "  {:<12} {} {:>12.1} {:>10}",
                format!("{policy:?}"),
                r.cells(),
                r.cluster_power,
                r.slack_cell()
            );
            supply_rows.push(r.json(
                vec![
                    ("scenario", Value::Str(sc.name.to_owned())),
                    ("supply_policy", Value::Str(format!("{policy:?}"))),
                ],
                None,
            ));
        }

        // The headline claim: forecasts beat measurements where the
        // future is knowable.
        let (reactive, predictive) = (&reactive.1, &predictive.1);
        if sc.scheduled_brownout && predictive.dropped >= reactive.dropped {
            println!(
                "FAIL [{}]: predictive dropped {:.1} W >= reactive {:.1} W",
                sc.name, predictive.dropped, reactive.dropped
            );
            failures += 1;
        }
    }

    let doc = obj(vec![
        ("kind", Value::Str("policy_race".to_owned())),
        ("seed", Value::U64(seed)),
        ("ticks", Value::U64(ticks as u64)),
        ("n_seeds", Value::U64(n_seeds as u64)),
        ("thermal_limit_c", Value::F64(T_LIMIT_C)),
        ("rows", Value::Array(json_rows)),
        ("supply_policy_rows", Value::Array(supply_rows)),
        ("knob_rows", Value::Array(knob_rows)),
    ]);
    let path = "BENCH_policy_race.json";
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write policy race json");
    println!("\nwrote {path}");

    if failures > 0 {
        println!("\nablate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\nablate: all sanity checks passed");
}
