//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p willow-bench --bin repro -- all
//! cargo run --release -p willow-bench --bin repro -- fig5 fig9 fig19_tab3
//! ```
//!
//! Experiment ids: fig4 fig5 fig6 fig7 fig9 fig10 fig11 fig12 tab1 fig14
//! tab2 fig15_16 fig17_18 fig19_tab3 ext_imbalance ext_baseline
//! ext_crash_sweep. Output is deterministic (fixed seeds);
//! `EXPERIMENTS.md` records it against the paper.

use willow_bench::{r1, r3};
use willow_sim::engine::Simulation;
use willow_sim::experiments as sim_exp;
use willow_sim::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
use willow_testbed::experiments as tb_exp;

mod ablate_cmd;
mod chaos_cmd;
mod federate_cmd;
mod liveops_cmd;
mod scenario;
mod telemetry_cmd;

const SEED: u64 = 2011; // the paper's year; any fixed seed works
const TICKS: usize = 300;
const N_SEEDS: usize = 5;

/// Every experiment id `repro` accepts besides `all`.
const EXPERIMENTS: &str = "fig4 fig5 fig6 fig7 fig9 fig10 fig11 fig12 tab1 fig14 tab2 fig15_16 \
     fig17_18 fig19_tab3 ext_imbalance ext_baseline ext_crash_sweep";

const USAGE: &str = "usage: repro [all | <experiment id>...] | ablate [--ticks N] \
     [--seeds N] | chaos [--seeds N] [--ticks N] [--threads N] | federate [--seeds N] \
     [--ticks N] [--threads N] | liveops [--seeds N] [--ticks N] [--timeline PATH] \
     [--threads N] | telemetry";

fn main() {
    #[cfg(unix)]
    die_on_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("repro: {e}; {USAGE}");
        std::process::exit(2);
    }
}

/// Restores the default SIGPIPE action, so that `repro` ends like any
/// other Unix filter when its reader goes away (`repro all | head -1`).
/// Rust starts with the signal ignored, which turns the closed pipe into
/// an EPIPE that makes `println!` panic.
#[cfg(unix)]
fn die_on_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: the declaration matches POSIX `signal(int, sighandler_t)`
    // on Unix targets, where a handler is pointer-sized, `SIG_DFL` is 0 and
    // SIGPIPE is 13. Restoring the default disposition installs no
    // handler, so no code of ours ever runs in signal context.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

/// The flags of one subcommand, checked against the ones it accepts.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Parses `args` as `valued` flags, each followed by its value;
    /// anything else is an error.
    fn parse(args: &'a [String], valued: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !valued.contains(&arg) {
                return Err(format!("unknown argument `{arg}`"));
            }
            let value = args.next().ok_or(format!("{arg} needs a value"))?;
            flags.push((arg, value));
        }
        Ok(Flags(flags))
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|&&(flag, _)| flag == name)
            .map(|&(_, v)| v)
    }

    fn num(&self, name: &str, default: usize) -> Result<usize, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} needs a non-negative integer, got `{v}`"))
        })
    }
}

/// Dispatches on the first argument. Every argument is checked before
/// anything runs.
fn run(args: &[String]) -> Result<(), String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("ablate") => {
            let f = Flags::parse(rest, &["--ticks", "--seeds"])?;
            ablate_cmd::run(SEED, f.num("--ticks", TICKS)?, f.num("--seeds", N_SEEDS)?);
        }
        Some("telemetry") => {
            Flags::parse(rest, &[])?;
            telemetry_cmd::run(SEED);
        }
        Some("chaos") => {
            let f = Flags::parse(rest, &["--seeds", "--ticks", "--threads"])?;
            chaos_cmd::run(
                f.num("--seeds", 8)? as u64,
                f.num("--ticks", 200)?,
                f.num("--threads", 1)?,
            );
        }
        Some("federate") => {
            let f = Flags::parse(rest, &["--seeds", "--ticks", "--threads"])?;
            federate_cmd::run(
                f.num("--seeds", 6)? as u64,
                f.num("--ticks", 250)?,
                f.num("--threads", 1)?,
            );
        }
        Some("liveops") => {
            let f = Flags::parse(rest, &["--seeds", "--ticks", "--timeline", "--threads"])?;
            liveops_cmd::run(
                f.num("--seeds", 8)? as u64,
                f.num("--ticks", 200)?,
                f.value("--timeline"),
                f.num("--threads", 1)?,
            );
        }
        _ => {
            let known = |a: &&String| *a == "all" || EXPERIMENTS.split(' ').any(|id| id == *a);
            if let Some(bad) = args.iter().find(|a| !known(a)) {
                return Err(format!("unknown subcommand or experiment id `{bad}`"));
            }
            experiments(args);
        }
    }
    Ok(())
}

/// Prints the requested experiments (every one for `all` or no ids).
fn experiments(args: &[String]) {
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    if want("fig4") {
        fig4();
    }
    if want("fig5") || want("fig6") {
        fig5_fig6(want("fig5") || all, want("fig6") || all);
    }
    if want("fig7") {
        fig7();
    }
    if want("fig9") || want("fig10") {
        fig9_fig10(want("fig9") || all, want("fig10") || all);
    }
    if want("fig11") || want("fig12") {
        fig11_fig12(want("fig11") || all, want("fig12") || all);
    }
    if want("tab1") {
        tab1();
    }
    if want("fig14") {
        fig14();
    }
    if want("tab2") {
        tab2();
    }
    if want("fig15_16") || want("fig17_18") {
        deficit(want("fig15_16") || all, want("fig17_18") || all);
    }
    if want("fig19_tab3") {
        consolidation();
    }
    if want("ext_imbalance") {
        ext_imbalance();
    }
    if want("ext_baseline") {
        ext_baseline();
    }
    if want("ext_crash_sweep") {
        ext_crash_sweep();
    }
}

/// Longer controller outages mean more open-loop ticks and watchdog
/// fallback, while the invariants hold throughout.
fn ext_crash_sweep() {
    header("Extension — controller crash-duration sweep (U = 60 %, outage from tick 100)");
    println!(
        "  {:>8}  {:>9}  {:>10}  {:>14}  {:>13}  {:>10}",
        "duration", "open-loop", "recoveries", "watchdog trips", "fallback s-t", "violations"
    );
    for duration in [0u64, 10, 20, 40, 60] {
        let mut cfg = scenario::zone(SEED, 0.6, 200, 1);
        let windows = if duration == 0 {
            Vec::new()
        } else {
            vec![ControllerOutage {
                from: 100,
                until: 100 + duration,
            }]
        };
        cfg.faults = Some(FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 16,
                windows,
            }),
            ..FaultPlan::default()
        });
        let m = Simulation::new(cfg).expect("valid sweep config").run();
        println!(
            "  {duration:>8}  {:>9}  {:>10}  {:>14}  {:>13}  {:>10}",
            m.open_loop_ticks,
            m.controller_recoveries,
            m.watchdog_trips,
            m.fallback_server_ticks,
            m.invariant_violations
        );
    }
    println!(
        "\n  not a paper figure: open-loop ticks track the outage exactly, and \
         fallback server-ticks grow with its length at zero violations"
    );
}

fn ext_baseline() {
    header("Extension — Willow vs centralized greedy re-packer");
    let rows = sim_exp::ext_baseline(SEED, TICKS);
    println!(
        "  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}  {:>9}",
        "U (%)", "W migs", "G migs", "W imb(W)", "G imb(W)", "W shed", "G shed"
    );
    for r in &rows {
        println!(
            "  {:>6.0}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}  {:>9}",
            r.utilization * 100.0,
            r.willow_migrations,
            r.greedy_migrations,
            r1(r.willow_imbalance),
            r1(r.greedy_imbalance),
            r1(r.willow_dropped),
            r1(r.greedy_dropped)
        );
    }
    println!(
        "\n  not a paper figure: a central optimizer matches the balance but \
         pays orders of magnitude more migration churn"
    );
}

fn ext_imbalance() {
    header("Extension — Eq. 9 power imbalance, Willow vs frozen controller");
    let rows = sim_exp::ext_imbalance(SEED, TICKS, N_SEEDS);
    println!(
        "  {:>6}  {:>12}  {:>16}",
        "U (%)", "willow (W)", "no-migration (W)"
    );
    for r in &rows {
        println!(
            "  {:>6.0}  {:>12}  {:>16}",
            r.utilization * 100.0,
            r1(r.willow),
            r1(r.no_migration)
        );
    }
    println!(
        "\n  not a paper figure: the paper defines P_imb (Eq. 9) but never plots \
         it; this shows migration shrinking the allocation inefficiency"
    );
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig4() {
    header("Fig. 4 — thermal-constant calibration (power limit vs temperature)");
    for curve in sim_exp::fig4() {
        println!(
            "\n  c1={} c2={} Ta={} °C (T_limit = 70 °C)",
            curve.c1, curve.c2, curve.ambient_c
        );
        println!("  {:>8}  {:>12}", "T (°C)", "P_limit (W)");
        for (t, p) in &curve.points {
            println!("  {:>8}  {:>12}", t, r1(*p));
        }
    }
    println!(
        "\n  paper: c1=0.08, c2=0.05 present ≈450 W at Ta=T=25 °C and ≈0 W \
         surplus at Ta=45 °C, T=70 °C"
    );
}

fn fig5_fig6(p5: bool, p6: bool) {
    let sweep = sim_exp::fig5_fig6(SEED, TICKS, N_SEEDS);
    if p5 {
        header("Fig. 5 — average server power vs utilization (hot/cold zones)");
        println!(
            "  {:>6}  {:>16}  {:>16}",
            "U (%)", "servers 1-14 (W)", "servers 15-18 (W)"
        );
        for row in &sweep.power {
            println!(
                "  {:>6.0}  {:>16}  {:>16}",
                row.utilization * 100.0,
                r1(row.cold),
                r1(row.hot)
            );
        }
        println!("\n  paper shape: hot-zone servers consume less at every U; both rise with U");
    }
    if p6 {
        header("Fig. 6 — average server temperature vs utilization (hot/cold zones)");
        println!(
            "  {:>6}  {:>17}  {:>17}",
            "U (%)", "servers 1-14 (°C)", "servers 15-18 (°C)"
        );
        for row in &sweep.temperature {
            println!(
                "  {:>6.0}  {:>17}  {:>17}",
                row.utilization * 100.0,
                r1(row.cold),
                r1(row.hot)
            );
        }
        println!("\n  paper shape: gap between zones narrows as U grows; nobody crosses 70 °C");
    }
}

fn fig7() {
    header("Fig. 7 — per-server power saved by consolidation (U = 40 %)");
    let res = sim_exp::fig7(SEED, TICKS, N_SEEDS);
    println!(
        "  {:>7}  {:>13}  {:>11}  {:>10}",
        "server", "baseline (W)", "willow (W)", "saved (W)"
    );
    for (i, ((b, w), s)) in res
        .baseline
        .iter()
        .zip(&res.willow)
        .zip(&res.saved)
        .enumerate()
    {
        println!(
            "  {:>7}  {:>13}  {:>11}  {:>10}",
            i + 1,
            r1(*b),
            r1(*w),
            r1(*s)
        );
    }
    let hot: f64 = res.saved[14..18].iter().sum::<f64>() / 4.0;
    let cold: f64 = res.saved[..14].iter().sum::<f64>() / 14.0;
    println!(
        "\n  mean saved: cold zone {} W, hot zone {} W \
         (paper: maximum savings on servers 15-18)",
        r1(cold),
        r1(hot)
    );
}

fn fig9_fig10(p9: bool, p10: bool) {
    let rows = sim_exp::fig9_fig10(SEED, TICKS, N_SEEDS);
    if p9 {
        header("Fig. 9 — demand-driven vs consolidation-driven migrations");
        println!(
            "  {:>6}  {:>14}  {:>21}",
            "U (%)", "demand-driven", "consolidation-driven"
        );
        for r in &rows {
            println!(
                "  {:>6.0}  {:>14.1}  {:>21.1}",
                r.utilization * 100.0,
                r.demand_driven,
                r.consolidation_driven
            );
        }
        println!("\n  paper shape: consolidation dominates at low U, demand-driven at high U");
    }
    if p10 {
        header("Fig. 10 — migration traffic normalized to max switch capacity");
        println!("  {:>6}  {:>20}", "U (%)", "normalized traffic");
        for r in &rows {
            println!(
                "  {:>6.0}  {:>20}",
                r.utilization * 100.0,
                r3(r.normalized_traffic)
            );
        }
        println!("\n  paper shape: rises with U, peaks mid-range, collapses at high U");
    }
}

fn fig11_fig12(p11: bool, p12: bool) {
    let rows = sim_exp::fig11_fig12(SEED, TICKS, N_SEEDS);
    if p11 {
        header("Fig. 11 — average power demand of level-1 switches (W)");
        println!("  {:>6}  {:>44}  {:>6}", "U (%)", "switch 1..6", "CV");
        for r in &rows {
            let cells: Vec<String> = r
                .switch_power
                .iter()
                .map(|p| format!("{:>6}", r1(*p)))
                .collect();
            let cv = sim_exp::coefficient_of_variation(&r.switch_power);
            println!(
                "  {:>6.0}  {}  {:>6}",
                r.utilization * 100.0,
                cells.join(" "),
                r3(cv)
            );
        }
        println!("\n  paper shape: near-equal across switches (local-first spreads traffic)");
    }
    if p12 {
        header("Fig. 12 — migration cost borne by level-1 switches (W)");
        println!("  {:>6}  {:>44}", "U (%)", "switch 1..6");
        for r in &rows {
            let cells: Vec<String> = r
                .migration_cost
                .iter()
                .map(|p| format!("{:>6}", r3(*p)))
                .collect();
            println!("  {:>6.0}  {}", r.utilization * 100.0, cells.join(" "));
        }
        println!("\n  paper shape: tracks the total-migrations trend of Fig. 10");
    }
}

fn tab1() {
    header("Table I — testbed utilization vs power consumption");
    let (measured, fit) = tb_exp::measure_table1(SEED);
    println!(
        "  {:>14}  {:>12}  {:>22}",
        "Utilization %", "model (W)", "measured @ 2 Hz (W)"
    );
    for ((u, p), (_, m)) in willow_testbed::table1().iter().zip(&measured) {
        println!("  {:>14}  {:>12}  {:>22}", u, r1(p.0), r1(m.0));
    }
    println!(
        "\n  linear fit through the measurements: P(u) = {} + {}·u  W",
        r1(fit.static_power.0),
        r1(fit.slope.0)
    );
    println!(
        "  model reconstructed from §V-C5: P(80%)+P(40%)+P(20%) ≈ 580 W and \
         27.5 % savings after consolidation (published table is garbled)"
    );
}

fn fig14() {
    header("Fig. 14 — experimental estimation of c1, c2 (max power vs T − Ta)");
    println!("  {:>12}  {:>18}", "T − Ta (K)", "max power (W)");
    for (gap, p) in sim_exp::fig14() {
        println!("  {:>12}  {:>18}", gap, r1(p));
    }
    let fit = tb_exp::parameter_estimation();
    println!(
        "\n  least-squares refit from a synthetic 2 Hz analyzer trace: \
         c1 = {:.4}, c2 = {:.4} (paper: c1 = 0.2, c2 = 0.1)",
        fit.c1, fit.c2
    );
}

fn tab2() {
    header("Table II — application power profile");
    println!("  {:>12}  {:>30}", "Application", "Increase in power (W)");
    for (name, p) in willow_testbed::apps::table2() {
        println!("  {:>12}  {:>30}", name, p.0);
    }
}

fn deficit(p15_16: bool, p17_18: bool) {
    let run = tb_exp::deficit_experiment(SEED);
    if p15_16 {
        header("Figs. 15-16 — energy-deficient run: supply and migrations per time unit");
        println!(
            "  {:>6}  {:>12}  {:>12}",
            "unit", "supply (W)", "migrations"
        );
        for (t, (s, m)) in run.supply.iter().zip(&run.migrations).enumerate() {
            let marker = if tb_exp::PLUNGE_UNITS.contains(&t) {
                "  <- plunge"
            } else {
                ""
            };
            println!("  {:>6}  {:>12}  {:>12}{}", t, r1(*s), m, marker);
        }
        println!(
            "\n  total dropped demand: {} W·ticks; ping-pong migrations: {}",
            r1(run.dropped),
            run.pingpongs
        );
        println!(
            "  paper shape: migrations cluster at plunge onsets (units 7, 12, 25), \
             quiet while supply stays low, none on recovery"
        );
    }
    if p17_18 {
        header("Figs. 17-18 — temperature time series (host A) and cluster average");
        println!(
            "  {:>6}  {:>18}  {:>18}",
            "unit", "host A temp (°C)", "avg temp (°C)"
        );
        for (unit, avg) in run.avg_temp.iter().enumerate() {
            let a = run.temp_a[unit * 4 + 3]; // end-of-unit sample
            println!("  {:>6}  {:>18}  {:>18}", unit, r1(a), r1(*avg));
        }
        println!(
            "\n  peak temperature anywhere: {} °C (limit 70 °C)",
            r1(run.peak_temp)
        );
    }
}

fn consolidation() {
    header("Fig. 19 + Table III — energy-plenty consolidation run");
    let run = tb_exp::consolidation_experiment(SEED);
    println!(
        "  supply (W) per unit: min {} / mean {} / max {}",
        r1(run.supply.iter().cloned().fold(f64::INFINITY, f64::min)),
        r1(run.supply.iter().sum::<f64>() / run.supply.len() as f64),
        r1(run.supply.iter().cloned().fold(0.0, f64::max)),
    );
    println!(
        "\n  {:>8}  {:>20}  {:>20}",
        "server", "initial util (%)", "final util (%)"
    );
    for (i, name) in ["A", "B", "C"].iter().enumerate() {
        println!(
            "  {:>8}  {:>20}  {:>20}",
            name,
            r1(run.initial_util[i]),
            r1(run.final_util[i])
        );
    }
    println!(
        "\n  host C asleep for {} % of the run",
        r1(run.c_sleep_fraction * 100.0)
    );
    println!(
        "  average cluster power: baseline {} W -> willow {} W  ({} % savings; paper ≈27.5 %)",
        r1(run.baseline_power),
        r1(run.willow_power),
        r1(run.savings * 100.0)
    );
}
