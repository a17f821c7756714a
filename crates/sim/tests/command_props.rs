//! Property-based tests for the live-ops command plane: arbitrary
//! interleavings of drain / add / remove / pause commands, mixed with
//! message loss, migration failures and controller outages, must conserve
//! every application, and a server that finished draining must hold a
//! zero power budget (and no apps) on every subsequent tick.

use proptest::prelude::*;
use willow_core::server::FenceState;
use willow_sim::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
use willow_sim::{ScheduledCommand, SimCommand, SimConfig, Simulation};
use willow_thermal::units::Watts;

const TICKS: u64 = 70;

/// Every hosted application id, sorted — placement-insensitive identity of
/// the workload for conservation checks.
fn app_ids(sim: &Simulation) -> Vec<u32> {
    let w = sim.willow();
    let mut ids: Vec<u32> = (0..w.servers().len())
        .flat_map(|si| w.apps().on(si).map(|a| a.0))
        .collect();
    ids.sort_unstable();
    ids
}

/// Decode one generated `(tick, kind, server)` triple into a scheduled
/// command. `i` disambiguates added-server names (they must be unique).
fn decode(i: usize, tick: u64, kind: u8, server: usize) -> ScheduledCommand {
    let command = match kind {
        0 => SimCommand::Drain { server },
        1 => SimCommand::RemoveServer { server },
        2 => SimCommand::AddServer {
            parent: format!("l1-{}", server % 6),
            name: format!("extra{i}"),
        },
        3 => SimCommand::Pause,
        _ => SimCommand::Resume,
    };
    ScheduledCommand { tick, command }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drive the paper topology through a random command timeline under
    /// random faults (optionally including a controller outage, which
    /// exercises the hold-and-resubmit path and checkpoint recovery).
    /// Commands may be rejected — a rejection must be a no-op — but
    /// whatever interleaving lands, no application is ever lost and every
    /// fenced server stays empty at zero budget from then on.
    #[test]
    fn command_interleavings_conserve_apps_and_fence_budgets(
        seed in 0u64..1_000_000,
        raw in prop::collection::vec((0u64..60, 0u8..5, 0usize..18), 0..10),
        migration_failure in 0.0f64..0.5,
        abort_fraction in 0.0f64..1.0,
        report_loss in 0.0f64..0.2,
        directive_loss in 0.0f64..0.2,
        outage in prop::option::of((5u64..50, 1u64..12)),
    ) {
        let mut cfg = SimConfig::paper_default(seed, 0.5);
        cfg.ticks = TICKS as usize;
        cfg.warmup = 0;
        cfg.audit_panic = true;
        cfg.faults = Some(FaultPlan {
            seed: seed ^ 0x5eed,
            report_loss,
            directive_loss,
            migration_failure,
            abort_fraction,
            controller_crash: outage.map(|(from, len)| ControllerCrashPlan {
                checkpoint_period: 10,
                windows: vec![ControllerOutage { from, until: from + len }],
            }),
            ..FaultPlan::default()
        });
        cfg.commands = raw
            .iter()
            .enumerate()
            .map(|(i, &(tick, kind, server))| decode(i, tick, kind, server))
            .collect();

        let mut sim = Simulation::new(cfg).unwrap();
        let before = app_ids(&sim);
        for t in 0..TICKS {
            sim.step();
            let w = sim.willow();
            for (si, s) in w.servers().iter().enumerate() {
                match s.fence {
                    FenceState::Fenced => {
                        prop_assert!(
                            !w.apps().hosts_any(si),
                            "tick {}: fenced server {} still hosts apps", t, si
                        );
                        prop_assert_eq!(
                            w.power().tp[s.node.index()],
                            Watts::ZERO,
                            "tick {}: fenced server {} holds a nonzero budget", t, si
                        );
                    }
                    FenceState::Retired => {
                        // Its arena slot may have been reused by a later
                        // AddServer, so only the roster entry is checked.
                        prop_assert!(
                            !w.apps().hosts_any(si),
                            "tick {}: retired server {} still hosts apps", t, si
                        );
                    }
                    FenceState::Active | FenceState::Draining => {}
                }
            }
        }
        prop_assert_eq!(before, app_ids(&sim), "applications were lost or duplicated");
        prop_assert_eq!(sim.invariant_violations(), 0);
    }

    /// The same interleaving replayed twice produces the same outcome
    /// counters and the same final placement: the command plane sits at a
    /// fixed point in the tick, so live-ops runs stay deterministic.
    #[test]
    fn command_interleavings_are_deterministic(
        seed in 0u64..1_000_000,
        raw in prop::collection::vec((0u64..60, 0u8..5, 0usize..18), 0..8),
        migration_failure in 0.0f64..0.5,
    ) {
        let build = || {
            let mut cfg = SimConfig::paper_default(seed, 0.5);
            cfg.ticks = TICKS as usize;
            cfg.warmup = 0;
            cfg.audit_panic = true;
            cfg.faults = Some(FaultPlan {
                seed: seed ^ 0xFA11,
                migration_failure,
                abort_fraction: 0.5,
                ..FaultPlan::default()
            });
            cfg.commands = raw
                .iter()
                .enumerate()
                .map(|(i, &(tick, kind, server))| decode(i, tick, kind, server))
                .collect();
            Simulation::new(cfg).unwrap()
        };
        let mut a = build();
        let mut b = build();
        let (ma, mb) = (a.run(), b.run());
        prop_assert_eq!(ma, mb);
        prop_assert_eq!(app_ids(&a), app_ids(&b));
        prop_assert_eq!(a.commands_applied(), b.commands_applied());
        prop_assert_eq!(a.commands_rejected(), b.commands_rejected());
    }
}
