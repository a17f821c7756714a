//! `repro liveops`: live-ops command-plane smoke — reconfigure, drain and
//! hot-swap a running controller without missing a tick.
//!
//! Three legs, every run under the scenario predicate set (see
//! [`crate::scenario`]), so commands never cost an open-loop tick, lose an
//! app or leave a fenced server holding a budget:
//!
//! 1. **Scripted timeline under chaos**: drain three servers, hot-swap the
//!    packer, grow a rack of three servers and retire a drained one, all
//!    while control messages drop, migrations fail and the controller
//!    crashes mid-run. Every command must apply (none rejected); the
//!    built-in timeline must apply exactly 8 and leave the drained
//!    servers fenced and the retired one retired.
//! 2. **Random command schedules**: per seed, a randomized interleaving of
//!    drains, adds, removes, pauses, supply overrides and forced
//!    checkpoints rides on a randomized fault plan. Commands may be
//!    rejected (rejections must be no-ops).
//! 3. **Idle-queue neutrality**: a timeline whose commands never come due
//!    must reproduce the command-free run bit for bit.
//!
//! `--timeline FILE` replaces the scripted leg's built-in timeline with a
//! JSON `[{ "tick": .., "command": {..} }, ..]` file (leg 1 then skips the
//! built-in timeline's own checks and reports the churn's cost against a
//! static fleet instead). Everything is seeded: `repro liveops --seeds <n>
//! --ticks <t>` re-runs the exact schedules.

use crate::scenario::{self, Legs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use willow_core::config::PackerChoice;
use willow_core::server::FenceState;
use willow_sim::config::SimConfig;
use willow_sim::engine::Simulation;
use willow_sim::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
use willow_sim::{ScheduledCommand, SimCommand};

/// The built-in scripted timeline: drain three servers, hot-swap the
/// packer, add a three-server rack under switch `l1-0`, retire one of the
/// drained servers, trim the supply, and force a checkpoint right before
/// the scheduled controller outage.
fn scripted_timeline() -> Vec<ScheduledCommand> {
    use SimCommand::{Checkpoint, Drain, RemoveServer, SupplyOverride, SwapPacker};
    let packer = PackerChoice::BestFitDecreasing;
    let mut tl: Vec<ScheduledCommand> = [
        (10, Drain { server: 2 }),
        (20, Drain { server: 7 }),
        (30, Drain { server: 15 }),
        (50, SwapPacker { packer }),
        (80, RemoveServer { server: 2 }),
        (90, SupplyOverride { factor: 0.9 }),
        (110, Checkpoint),
    ]
    .into_iter()
    .map(|(tick, command)| ScheduledCommand { tick, command })
    .collect();
    for (i, name) in ["rack2-1", "rack2-2", "rack2-3"].iter().enumerate() {
        tl.push(ScheduledCommand {
            tick: 60 + i as u64,
            command: SimCommand::AddServer {
                parent: "l1-0".into(),
                name: (*name).into(),
            },
        });
    }
    tl
}

/// The scripted leg's configuration: paper hot/cold fleet at U=0.5 under
/// the fixed chaos plan, with `timeline` as the command schedule.
fn scripted_config(ticks: usize, timeline: &[ScheduledCommand], threads: usize) -> SimConfig {
    let mut cfg = scenario::zone(2011, 0.5, ticks, threads);
    cfg.commands = timeline.to_vec();
    let outage_from = (ticks as u64 * 3) / 5;
    let outage_len = 15u64.min(ticks as u64 / 10).max(1);
    cfg.faults = Some(FaultPlan {
        seed: 0xC0FFEE,
        report_loss: 0.1,
        directive_loss: 0.1,
        migration_failure: 0.2,
        abort_fraction: 0.5,
        controller_crash: Some(ControllerCrashPlan {
            checkpoint_period: 16,
            windows: vec![ControllerOutage {
                from: outage_from,
                until: outage_from + outage_len,
            }],
        }),
        ..FaultPlan::default()
    });
    cfg
}

/// Leg 1: the scripted (or file-supplied) timeline under a fixed chaos
/// plan. Returns failure descriptions (empty = pass).
fn run_scripted(
    ticks: usize,
    timeline: &[ScheduledCommand],
    builtin: bool,
    threads: usize,
) -> Vec<String> {
    let (sim, m, mut failures) = scenario::run_zone(scripted_config(ticks, timeline, threads));
    if m.commands_rejected != 0 {
        failures.push(format!(
            "{} commands rejected (want 0)",
            m.commands_rejected
        ));
    }
    if builtin {
        // 3 drains + 1 swap + 3 adds + 1 remove; SupplyOverride and
        // Checkpoint are engine-level and never counted.
        if m.commands_applied != 8 {
            failures.push(format!("{} commands applied (want 8)", m.commands_applied));
        }
        let w = sim.willow();
        if w.servers()[2].fence != FenceState::Retired {
            failures.push("server 2 not retired after drain + remove".into());
        }
        for si in [7usize, 15] {
            if w.servers()[si].fence != FenceState::Fenced {
                failures.push(format!("server {si} not fenced after drain"));
            }
        }
        if w.tree().find("rack2-3").is_none() {
            failures.push("added rack servers missing from the tree".into());
        }
    }
    println!(
        "  scripted: {} commands applied / {} rejected, stranded app-ticks {}, \
         open-loop {} recoveries {} violations {} -> {}",
        m.commands_applied,
        m.commands_rejected,
        m.drain_stranded_app_ticks,
        m.open_loop_ticks,
        m.controller_recoveries,
        m.invariant_violations,
        scenario::verdict(&failures)
    );
    if !builtin {
        // File-supplied timeline: quantify what the live-ops churn cost
        // against a static fleet running the identical chaos plan with an
        // empty command queue.
        let m0 = Simulation::new(scripted_config(ticks, &[], threads))
            .expect("static twin config must be valid")
            .run();
        println!(
            "  vs static fleet: dropped demand {:.3} W avg (static {:.3} W, delta {:+.3} W)",
            m.avg_dropped,
            m0.avg_dropped,
            m.avg_dropped - m0.avg_dropped
        );
        println!(
            "  vs static fleet: migrations {}+{}+{} demand/consolidation/local \
             (static {}+{}+{}), migrated demand {:.1} W (static {:.1} W), \
             stranded app-ticks {} (static {})",
            m.demand_migrations,
            m.consolidation_migrations,
            m.local_migrations,
            m0.demand_migrations,
            m0.consolidation_migrations,
            m0.local_migrations,
            m.migrated_demand,
            m0.migrated_demand,
            m.drain_stranded_app_ticks,
            m0.drain_stranded_app_ticks
        );
    }
    failures
}

/// Derive leg 2's scenario from `seed`: a random command schedule on a
/// random fault plan.
fn random_config(seed: u64, ticks: usize, threads: usize) -> SimConfig {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut cfg = scenario::zone(seed, rng.gen_range(0.3..0.7), ticks, threads);
    let n = cfg.n_servers();
    let horizon = (ticks as u64).saturating_sub(20).max(1);

    for i in 0..rng.gen_range(3..=10usize) {
        let tick = rng.gen_range(0..horizon);
        let command = match rng.gen_range(0..7u8) {
            0 | 1 => SimCommand::Drain {
                server: rng.gen_range(0..n),
            },
            2 => SimCommand::AddServer {
                parent: format!("l1-{}", rng.gen_range(0..6)),
                name: format!("s{seed}-{i}"),
            },
            3 => SimCommand::RemoveServer {
                server: rng.gen_range(0..n),
            },
            4 => SimCommand::Pause,
            5 => SimCommand::Resume,
            _ => {
                if rng.gen_bool(0.5) {
                    SimCommand::SupplyOverride {
                        factor: rng.gen_range(0.6..1.0),
                    }
                } else {
                    SimCommand::Checkpoint
                }
            }
        };
        cfg.commands.push(ScheduledCommand { tick, command });
    }

    let outage = if rng.gen_bool(0.5) {
        let from = rng.gen_range(1..horizon);
        vec![ControllerOutage {
            from,
            until: (from + rng.gen_range(2..=12)).min(ticks as u64 - 1),
        }]
    } else {
        Vec::new()
    };
    cfg.faults = Some(FaultPlan {
        seed: seed ^ 0x11FE,
        report_loss: rng.gen_range(0.0..0.2),
        directive_loss: rng.gen_range(0.0..0.2),
        migration_failure: rng.gen_range(0.0..0.3),
        abort_fraction: rng.gen_range(0.0..1.0),
        controller_crash: Some(ControllerCrashPlan {
            checkpoint_period: rng.gen_range(8..=32),
            windows: outage,
        }),
        ..FaultPlan::default()
    });
    cfg
}

/// Leg 2: one seed's random command schedule on a random fault plan.
fn run_random_seed(seed: u64, ticks: usize, threads: usize) -> Vec<String> {
    let (_, m, failures) = scenario::run_zone(random_config(seed, ticks, threads));
    println!(
        "  seed {seed:>3}: applied={} rejected={} (topology {}) stranded={} \
         recoveries={} violations={} -> {}",
        m.commands_applied,
        m.commands_rejected,
        m.topology_rejections,
        m.drain_stranded_app_ticks,
        m.controller_recoveries,
        m.invariant_violations,
        scenario::verdict(&failures)
    );
    failures
}

/// Leg 3: a never-due timeline must be bit-for-bit invisible.
fn run_neutrality(ticks: usize, threads: usize) -> Vec<String> {
    let base = scenario::zone(2011, 0.6, ticks, threads);
    let mut with_cmds = base.clone();
    with_cmds.commands = vec![
        ScheduledCommand {
            tick: ticks as u64 + 1_000,
            command: SimCommand::Drain { server: 0 },
        },
        ScheduledCommand {
            tick: ticks as u64 + 2_000,
            command: SimCommand::SupplyOverride { factor: 0.5 },
        },
    ];
    let mut failures = Vec::new();
    scenario::twin(
        &mut failures,
        &Simulation::new(base).expect("valid").run(),
        &Simulation::new(with_cmds).expect("valid").run(),
        "idle command queue perturbed the trajectory",
    );
    if failures.is_empty() {
        println!("  neutrality: never-due timeline reproduces the command-free run bit for bit");
    }
    failures
}

/// Run the harness; exits the process with status 1 on any failure.
/// `threads` sets the controller's shard-pool width (1 = serial); the pass
/// criteria are thread-count-independent because the sharded tick is
/// bit-for-bit identical to the serial one.
pub fn run(seeds: u64, ticks: usize, timeline_file: Option<&str>, threads: usize) {
    println!(
        "liveops smoke: scripted timeline + {seeds} random seeds x {ticks} ticks, \
         auditor on, threads={threads}"
    );
    let (timeline, builtin) = match timeline_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read timeline {path}: {e}");
                std::process::exit(1);
            });
            // parse_timeline pinpoints the offending entry index and field
            // instead of a bare serde error.
            let tl = willow_sim::parse_timeline(&text).unwrap_or_else(|e| {
                eprintln!("cannot load timeline {path}: {e}");
                std::process::exit(1);
            });
            println!("  timeline: {} commands from {path}", tl.len());
            (tl, false)
        }
        None => (scripted_timeline(), true),
    };
    let mut legs = Legs::new("liveops");
    legs.check("scripted", run_scripted(ticks, &timeline, builtin, threads));
    legs.seeds(seeds, |seed| run_random_seed(seed, ticks, threads));
    legs.check("neutrality", run_neutrality(ticks, threads));
    legs.finish("all legs passed (zero violations, zero lost apps)");
}
