//! `repro chaos`: randomized fault schedules with the invariant auditor on.
//!
//! Each seed derives a full chaos schedule — controller crash/restart
//! windows, PMU crashes, control-message loss, migration failures, sensor
//! spikes — and runs it under the scenario predicate set (see
//! [`crate::scenario`]). Two more predicates ride along:
//!
//! - **checkpointing is free**: the same schedule with an *empty* crash
//!   window list reproduces the no-crash-plan run bit for bit;
//! - **message-plane sanity**: faulted reporting rounds (loss /
//!   duplication / delay) still converge, and a severed link provably
//!   does not.
//!
//! `repro chaos --seeds <n> --ticks <t>` re-runs the exact schedules. The
//! crash-duration sweep is the `ext_crash_sweep` experiment of `repro all`.

use crate::scenario::{self, Legs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use willow_sim::config::SimConfig;
use willow_sim::engine::Simulation;
use willow_sim::faults::{
    ControllerCrashPlan, ControllerOutage, CrashWindow, FaultPlan, SensorFault,
};
use willow_sim::messaging::{emulate_round, MessageFaults, RoundScratch};
use willow_thermal::units::{Celsius, Seconds, Watts};
use willow_topology::Tree;

/// Faulted reporting rounds emulated per seed in the message-plane leg.
const ROUNDS: u64 = 16;

/// Derive a complete chaos scenario from `seed`. Every parameter comes
/// from the seed's own RNG stream, so schedules are stable across runs
/// and machines.
fn config(seed: u64, ticks: usize, threads: usize) -> SimConfig {
    let mut cfg = scenario::zone(seed, 0.5, ticks, threads);
    let n_servers = cfg.n_servers();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    cfg.utilization = rng.gen_range(0.3..0.85);

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

    cfg.faults = Some(FaultPlan {
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
    });
    cfg
}

/// Run one seed's scenario; returns the failure descriptions (empty =
/// pass).
fn run_seed(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let cfg = config(seed, ticks, threads);
    let (_, m, mut failures) = scenario::run_zone(cfg.clone());

    // Checkpointing with no outage scheduled must reproduce the plan-free
    // trajectory bit for bit.
    let plan = cfg.faults.as_ref().expect("chaos always plans faults");
    let crash = plan.controller_crash.as_ref().expect("always set");
    let with_plan = |controller_crash| {
        let mut twin = cfg.clone();
        twin.faults = Some(FaultPlan {
            controller_crash,
            ..plan.clone()
        });
        Simulation::new(twin).expect("valid").run()
    };
    scenario::twin(
        &mut failures,
        &with_plan(None),
        &with_plan(Some(ControllerCrashPlan {
            checkpoint_period: crash.checkpoint_period,
            windows: Vec::new(),
        })),
        "empty-window crash plan diverged from the no-plan run",
    );

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
        let out = emulate_round(
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
    let out = emulate_round(
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
        cfg.utilization,
        crash.windows.len(),
        m.open_loop_ticks,
        m.controller_recoveries,
        m.invariant_violations,
        faults.loss,
        faults.duplication,
        faults.delay,
        scenario::verdict(&failures)
    );
    failures
}

/// Run the harness; exits the process with status 1 if any seed fails.
/// `threads` sets the controller's shard-pool width (1 = serial); the pass
/// criteria are thread-count-independent because the sharded tick is
/// bit-for-bit identical to the serial one.
pub fn run(seeds: u64, ticks: usize, threads: usize) {
    println!("chaos harness: {seeds} seeds x {ticks} ticks, auditor on, threads={threads}");
    let mut legs = Legs::new("chaos");
    legs.seeds(seeds, |seed| run_seed(seed, ticks, threads));
    legs.finish(&format!(
        "all {seeds} seeds passed (zero violations, zero lost apps)"
    ));
}
