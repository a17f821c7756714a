//! `repro chaos`: randomized fault schedules with the invariant auditor on.
//!
//! Each seed derives a full chaos schedule — controller crash/restart
//! windows, PMU crashes, control-message loss, migration failures, sensor
//! spikes — runs it with the always-on invariant auditor, and requires:
//!
//! 1. **Zero invariant violations** over the whole run.
//! 2. **Zero lost or duplicated applications**: the final placement holds
//!    exactly the initial application set.
//! 3. **Exact recovery accounting**: one controller recovery per outage
//!    window, open-loop ticks equal to the summed window widths.
//! 4. **Checkpointing is free**: the same schedule with an *empty* crash
//!    window list reproduces the no-crash-plan run bit for bit.
//! 5. **Message-plane sanity**: faulted reporting rounds (loss /
//!    duplication / delay) still converge, and a severed link provably
//!    does not.
//!
//! Everything is seeded, so a failing seed is a one-line repro:
//! `repro chaos --seeds <n> --ticks <t>` re-runs the exact schedules.
//! `--sweep` appends the crash-duration sweep table recorded in
//! `EXPERIMENTS.md`.

use crate::placed_apps;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use willow_sim::config::SimConfig;
use willow_sim::engine::Simulation;
use willow_sim::faults::{
    ControllerCrashPlan, ControllerOutage, CrashWindow, FaultPlan, SensorFault,
};
use willow_sim::messaging::{emulate_round_with_faults_into, MessageFaults, RoundScratch};
use willow_sim::metrics::RunMetrics;
use willow_thermal::units::{Celsius, Seconds, Watts};
use willow_topology::Tree;

/// Faulted reporting rounds emulated per seed in the message-plane leg.
const ROUNDS: u64 = 16;

/// One seed's derived schedule, kept for the failure report.
struct Schedule {
    utilization: f64,
    plan: FaultPlan,
}

/// Derive a complete chaos schedule from `seed`. Every parameter comes
/// from the seed's own RNG stream, so schedules are stable across runs
/// and machines.
fn schedule_for(seed: u64, ticks: usize, n_servers: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let utilization = rng.gen_range(0.3..0.85);

    // 1–2 controller outages in the middle of the run, never at tick 0
    // and always fully inside the run so every outage ends in a recovery.
    let horizon = (ticks as u64).saturating_sub(5).max(2);
    let n_windows = rng.gen_range(1..=2usize);
    let mut windows = Vec::new();
    let mut cursor = rng.gen_range(1..horizon / 2);
    for _ in 0..n_windows {
        let len = rng.gen_range(2..=(horizon / 6).max(3));
        let until = (cursor + len).min(horizon);
        if until <= cursor {
            break;
        }
        windows.push(ControllerOutage {
            from: cursor,
            until,
        });
        cursor = until + rng.gen_range(5..horizon / 2).max(5);
        if cursor >= horizon {
            break;
        }
    }

    // 0–2 individual PMU crashes and 0–2 sensor faults (spike or noise).
    let crashes = (0..rng.gen_range(0..=2usize))
        .map(|_| {
            let from = rng.gen_range(0..horizon);
            CrashWindow {
                server: rng.gen_range(0..n_servers),
                from,
                until: (from + rng.gen_range(1..=20)).min(ticks as u64),
            }
        })
        .collect();
    let sensor_faults = (0..rng.gen_range(0..=2usize))
        .map(|_| {
            let from = rng.gen_range(0..horizon);
            SensorFault {
                server: rng.gen_range(0..n_servers),
                from,
                until: (from + rng.gen_range(1..=30)).min(ticks as u64),
                stuck_at: if rng.gen_bool(0.5) {
                    Some(Celsius(rng.gen_range(85.0..120.0)))
                } else {
                    None
                },
                noise_sigma: rng.gen_range(0.5..4.0),
            }
        })
        .collect();

    let plan = FaultPlan {
        seed: seed ^ 0xC4A5,
        report_loss: rng.gen_range(0.0..0.25),
        directive_loss: rng.gen_range(0.0..0.25),
        migration_failure: rng.gen_range(0.0..0.4),
        abort_fraction: rng.gen_range(0.0..1.0),
        crashes,
        sensor_faults,
        controller_crash: Some(ControllerCrashPlan {
            checkpoint_period: rng.gen_range(4..=32),
            windows,
        }),
    };
    Schedule { utilization, plan }
}

/// Run one seed's schedule; returns the failure descriptions (empty =
/// pass).
fn run_seed(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let mut cfg = SimConfig::paper_hot_cold(seed, 0.5);
    cfg.ticks = ticks;
    cfg.warmup = 0;
    cfg.controller.threads = threads;
    let sched = schedule_for(seed, ticks, cfg.n_servers());
    cfg.utilization = sched.utilization;
    cfg.faults = Some(sched.plan.clone());

    let crash = sched.plan.controller_crash.as_ref().expect("always set");
    let expect_recoveries = crash.windows.len();
    let expect_open_loop: u64 = crash.windows.iter().map(|w| w.until - w.from).sum();

    let mut sim = Simulation::new(cfg.clone()).expect("chaos schedule must be valid");
    let before = placed_apps(&sim);
    let m = sim.run();

    if m.invariant_violations != 0 {
        failures.push(format!(
            "{} invariant violations (want 0)",
            m.invariant_violations
        ));
    }
    let after = placed_apps(&sim);
    if before != after {
        failures.push(format!(
            "placement lost or duplicated apps: {} before vs {} after",
            before.len(),
            after.len()
        ));
    }
    if m.controller_recoveries != expect_recoveries {
        failures.push(format!(
            "{} recoveries (want {expect_recoveries})",
            m.controller_recoveries
        ));
    }
    if m.open_loop_ticks as u64 != expect_open_loop {
        failures.push(format!(
            "{} open-loop ticks (want {expect_open_loop})",
            m.open_loop_ticks
        ));
    }
    if sim.willow().journal().in_flight().count() != 0 {
        failures.push("a migration transaction stayed open".into());
    }

    // Checkpointing with no outage scheduled must reproduce the plan-free
    // trajectory bit for bit.
    let mut empty_cfg = cfg.clone();
    let mut empty_plan = sched.plan.clone();
    empty_plan.controller_crash = Some(ControllerCrashPlan {
        checkpoint_period: crash.checkpoint_period,
        windows: Vec::new(),
    });
    empty_cfg.faults = Some(empty_plan);
    let mut no_crash_cfg = cfg.clone();
    let mut no_crash_plan = sched.plan.clone();
    no_crash_plan.controller_crash = None;
    no_crash_cfg.faults = Some(no_crash_plan);
    let twin_a: RunMetrics = Simulation::new(empty_cfg).expect("valid").run();
    let twin_b: RunMetrics = Simulation::new(no_crash_cfg).expect("valid").run();
    if twin_a != twin_b {
        failures.push("empty-window crash plan diverged from the no-plan run".into());
    }

    // Message plane: faulted rounds still converge; a severed link never
    // does.
    let tree = Tree::uniform(&cfg.branching);
    let demands: Vec<Watts> = (0..cfg.n_servers())
        .map(|i| Watts(10.0 + i as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51C6);
    let faults = MessageFaults {
        loss: rng.gen_range(0.0..0.4),
        duplication: rng.gen_range(0.0..0.3),
        delay: rng.gen_range(0.0..0.3),
        dead_link: None,
    };
    let mut scratch = RoundScratch::default();
    for round in 0..ROUNDS {
        let out = emulate_round_with_faults_into(
            &tree,
            Seconds(0.01),
            &demands,
            Watts(1e5),
            &faults,
            seed ^ round,
            &mut scratch,
        );
        if !out.outcome.converged() {
            failures.push(format!("faulted round {round} failed to converge"));
            break;
        }
    }
    let leaf = tree.leaves().next().expect("tree has leaves");
    let severed = MessageFaults {
        dead_link: Some((leaf, tree.parent(leaf).expect("leaf has parent"))),
        ..MessageFaults::default()
    };
    let out = emulate_round_with_faults_into(
        &tree,
        Seconds(0.01),
        &demands,
        Watts(1e5),
        &severed,
        seed,
        &mut scratch,
    );
    if out.outcome.converged() {
        failures.push("severed-link round converged (it must partition)".into());
    }

    println!(
        "  seed {seed:>3}: u={:.2} windows={} open-loop={} recoveries={} \
         violations={} msg(loss={:.2} dup={:.2} delay={:.2}) -> {}",
        sched.utilization,
        expect_recoveries,
        m.open_loop_ticks,
        m.controller_recoveries,
        m.invariant_violations,
        faults.loss,
        faults.duplication,
        faults.delay,
        if failures.is_empty() { "ok" } else { "FAIL" }
    );
    failures
}

/// Crash-duration sweep at a fixed seed (the EXPERIMENTS.md table):
/// longer outages mean more open-loop ticks and watchdog fallback, while
/// the invariants hold throughout.
fn sweep(ticks: usize, threads: usize) {
    println!("\ncrash-duration sweep (seed 2011, u=0.6, outage starts at tick 100):");
    println!(
        "  {:>8}  {:>9}  {:>10}  {:>14}  {:>13}  {:>10}",
        "duration", "open-loop", "recoveries", "watchdog trips", "fallback s-t", "violations"
    );
    for duration in [0u64, 10, 20, 40, 60] {
        let mut cfg = SimConfig::paper_hot_cold(2011, 0.6);
        cfg.ticks = ticks.max(200);
        cfg.warmup = 0;
        cfg.controller.threads = threads;
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
}

/// Run the harness; exits the process with status 1 if any seed fails.
/// `threads` sets the controller's shard-pool width (1 = serial); the pass
/// criteria are thread-count-independent because the sharded tick is
/// bit-for-bit identical to the serial one.
pub fn run(seeds: u64, ticks: usize, with_sweep: bool, threads: usize) {
    println!("chaos harness: {seeds} seeds x {ticks} ticks, auditor on, threads={threads}");
    let mut failed = 0usize;
    for seed in 0..seeds {
        let failures = run_seed(seed, ticks, threads);
        for f in &failures {
            eprintln!("  seed {seed}: {f}");
        }
        if !failures.is_empty() {
            failed += 1;
        }
    }
    if with_sweep {
        sweep(ticks, threads);
    }
    if failed > 0 {
        eprintln!("chaos: {failed}/{seeds} seeds FAILED");
        std::process::exit(1);
    }
    println!("chaos: all {seeds} seeds passed (zero violations, zero lost apps)");
}
