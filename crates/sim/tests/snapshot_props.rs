//! Property-based tests for checkpoint/restore: a controller snapshot
//! survives a JSON round trip and the restored controller continues the
//! run bit-for-bit identically — over arbitrary tree shapes, app
//! placements and fault plans — including through open-loop
//! (controller-down) windows and the checkpoint-recovery path.

use proptest::prelude::*;
use willow_core::command::Command;
use willow_core::config::{ControllerConfig, PackerChoice};
use willow_core::control::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_sim::faults::{CrashWindow, FaultInjector, FaultPlan, SensorFault};
use willow_thermal::units::{Celsius, Watts};
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

/// Per-server app placement, for comparing physical state without the
/// bookkeeping (backoff/ping-pong maps) that recovery legitimately prunes.
fn placement(w: &Willow) -> Vec<Vec<AppId>> {
    w.servers()
        .iter()
        .map(|s| s.apps.iter().map(|a| a.id).collect())
        .collect()
}

/// Build a controller over `branching` with `apps_per_server` apps placed
/// round-robin across classes.
fn build(branching: &[usize], apps_per_server: usize) -> Willow {
    let tree = Tree::uniform(branching);
    let mut next = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let apps: Vec<Application> = (0..apps_per_server)
                .map(|_| {
                    let class = next as usize % SIM_APP_CLASSES.len();
                    let a = Application::new(AppId(next), class, &SIM_APP_CLASSES[class]);
                    next += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    Willow::new(tree, specs, ControllerConfig::default()).expect("valid build")
}

/// Deterministic per-app demand for tick `t` (varied enough to trigger
/// migrations and shedding at tight supply).
fn demands(n_apps: usize, t: u64) -> Vec<Watts> {
    (0..n_apps)
        .map(|i| Watts(10.0 + ((i as u64 * 13 + t * 7) % 17) as f64 * 8.0))
        .collect()
}

prop_compose! {
    /// Tree shapes from a single server up to a few dozen.
    fn arb_shape()(branching in prop::collection::vec(1usize..4, 1..4)) -> Vec<usize> {
        branching
    }
}

prop_compose! {
    /// Fault plans with random loss rates, PMU crash windows and sensor
    /// faults. Window positions are fractions resolved against the run
    /// length and server count by the test body.
    fn arb_plan()(
        seed in 0u64..1_000_000,
        report_loss in 0.0f64..0.4,
        directive_loss in 0.0f64..0.4,
        migration_failure in 0.0f64..0.5,
        abort_fraction in 0.0f64..1.0,
        crash in prop::option::of((0.0f64..1.0, 0.0f64..1.0, 1u64..30)),
        sensor in prop::option::of((0.0f64..1.0, 0.0f64..1.0, prop::option::of(80.0f64..120.0), 0.0f64..4.0)),
    ) -> (FaultPlan, Option<(f64, f64, u64)>, Option<(f64, f64, Option<f64>, f64)>) {
        (FaultPlan {
            seed,
            report_loss,
            directive_loss,
            migration_failure,
            abort_fraction,
            ..FaultPlan::default()
        }, crash, sensor)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot mid-run under arbitrary faults, round-trip it through
    /// JSON, restore, and drive original and restoree in lockstep on the
    /// same disturbance stream: every subsequent tick report must match
    /// exactly — including across an interleaved open-loop window where
    /// both controllers are "down" and the leaves free-run. Optionally a
    /// drain is issued before the checkpoint (so the snapshot carries a
    /// fenced — or, under migration failures or on a single-server tree,
    /// still-draining — server) and a further command is queued *at*
    /// snapshot time, so the pending queue round-trips too and both
    /// controllers process it on the first post-restore tick.
    #[test]
    fn json_round_trip_restore_continues_identically(
        shape in arb_shape(),
        apps_per_server in 1usize..4,
        (mut plan, crash, sensor) in arb_plan(),
        checkpoint_at in 3u64..25,
        supply_frac in 0.3f64..1.0,
        open_loop in prop::option::of((0.0f64..1.0, 1u64..6)),
        drain in prop::option::of((0.0f64..1.0, 0u8..2)),
    ) {
        let mut w = build(&shape, apps_per_server);
        let n_servers = w.servers().len();
        let n_apps = n_servers * apps_per_server;
        let total_ticks = checkpoint_at + 30;
        if let Some((s, _)) = drain {
            let server = ((s * n_servers as f64) as usize).min(n_servers - 1);
            w.submit_command(Command::Drain { server });
        }

        // Resolve the fractional fault windows against this run.
        if let Some((s, f, len)) = crash {
            let server = ((s * n_servers as f64) as usize).min(n_servers - 1);
            let from = (f * total_ticks as f64) as u64;
            plan.crashes = vec![CrashWindow { server, from, until: from + len }];
        }
        if let Some((s, f, stuck, sigma)) = sensor {
            let server = ((s * n_servers as f64) as usize).min(n_servers - 1);
            let from = (f * total_ticks as f64) as u64;
            plan.sensor_faults = vec![SensorFault {
                server,
                from,
                until: from + 20,
                stuck_at: stuck.map(Celsius),
                noise_sigma: sigma,
            }];
        }
        let mut injector = FaultInjector::new(plan, n_servers).expect("valid plan");

        let rating: f64 = w.servers().iter().map(|s| s.thermal.rating().0).sum();
        let supply = Watts(rating * supply_frac);
        let mut report = TickReport::default();
        for t in 0..checkpoint_at {
            let d = injector.disturbances_for(t);
            w.step_into(&demands(n_apps, t), supply, &d, &mut report);
        }

        // Queue a command that is pending (submitted, unprocessed) at
        // snapshot time: it must round-trip inside the snapshot and fire
        // identically in both controllers on the next tick.
        if let Some((_, 1)) = drain {
            w.submit_command(Command::SwapPacker {
                packer: PackerChoice::BestFitDecreasing,
            });
        }

        // JSON round trip must be lossless.
        let snap = w.snapshot();
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let parsed: willow_core::snapshot::WillowSnapshot =
            serde_json::from_str(&json).expect("snapshot parses");
        prop_assert_eq!(&parsed, &snap);

        // The restoree continues bit-for-bit on the shared fault stream,
        // including through an open-loop window where both controllers go
        // down and the leaves free-run on their last budgets.
        let (outage_from, outage_until) = match open_loop {
            Some((f, len)) => {
                let from = checkpoint_at + (f * 30.0) as u64;
                (from, from + len)
            }
            None => (u64::MAX, u64::MAX),
        };
        let mut restored = Willow::restore(parsed).expect("snapshot restores");
        let mut ra = TickReport::default();
        let mut rb = TickReport::default();
        for t in checkpoint_at..total_ticks {
            let d = injector.disturbances_for(t);
            let dm = demands(n_apps, t);
            if (outage_from..outage_until).contains(&t) {
                w.step_open_loop(&dm, &d, &mut ra);
                restored.step_open_loop(&dm, &d, &mut rb);
            } else {
                w.step_into(&dm, supply, &d, &mut ra);
                restored.step_into(&dm, supply, &d, &mut rb);
            }
            prop_assert_eq!(
                format!("{ra:?}"),
                format!("{rb:?}"),
                "diverged at tick {}",
                t
            );
        }
        prop_assert_eq!(w.snapshot(), restored.snapshot());
    }

    /// Checkpoint, crash immediately, run an open-loop outage on the live
    /// leaves, then [`Willow::recover`] from the checkpoint against the
    /// field: the recovered controller must rejoin the field's trajectory
    /// bit-for-bit — identical tick reports and placements from the first
    /// post-recovery tick on. (Final snapshots are *not* compared: recovery
    /// legitimately prunes expired ping-pong/backoff entries the field
    /// still carries. Report loss is excluded from the plan: a lost report
    /// makes the controller fall back on its remembered demand view, which
    /// recovery intentionally *re-learns* from the leaves rather than
    /// preserving — the one designed divergence from the field. Crash
    /// windows are clamped to end by recovery time for the same reason:
    /// a crashed server's report is lost too.)
    #[test]
    fn recover_after_outage_rejoins_field_bit_for_bit(
        shape in arb_shape(),
        apps_per_server in 1usize..4,
        (mut plan, crash, sensor) in arb_plan(),
        checkpoint_at in 3u64..25,
        outage_len in 1u64..12,
        supply_frac in 0.3f64..1.0,
    ) {
        plan.report_loss = 0.0;
        let mut w = build(&shape, apps_per_server);
        let n_servers = w.servers().len();
        let n_apps = n_servers * apps_per_server;
        let total_ticks = checkpoint_at + outage_len + 25;

        let recovery_at = checkpoint_at + outage_len;
        if let Some((s, f, len)) = crash {
            let server = ((s * n_servers as f64) as usize).min(n_servers - 1);
            let from = (f * recovery_at as f64) as u64;
            let until = (from + len).min(recovery_at);
            plan.crashes = vec![CrashWindow { server, from, until }];
        }
        if let Some((s, f, stuck, sigma)) = sensor {
            let server = ((s * n_servers as f64) as usize).min(n_servers - 1);
            let from = (f * total_ticks as f64) as u64;
            plan.sensor_faults = vec![SensorFault {
                server,
                from,
                until: from + 20,
                stuck_at: stuck.map(Celsius),
                noise_sigma: sigma,
            }];
        }
        let mut injector = FaultInjector::new(plan, n_servers).expect("valid plan");

        let rating: f64 = w.servers().iter().map(|s| s.thermal.rating().0).sum();
        let supply = Watts(rating * supply_frac);
        let mut report = TickReport::default();
        for t in 0..checkpoint_at {
            let d = injector.disturbances_for(t);
            w.step_into(&demands(n_apps, t), supply, &d, &mut report);
        }

        // Checkpoint, then the controller dies: the checkpoint round-trips
        // through JSON (as it would through a checkpoint file) while the
        // leaves free-run open-loop under continuing faults.
        let json = serde_json::to_string(&w.snapshot()).expect("snapshot serializes");
        let ckpt: willow_core::snapshot::WillowSnapshot =
            serde_json::from_str(&json).expect("snapshot parses");
        for t in checkpoint_at..checkpoint_at + outage_len {
            let d = injector.disturbances_for(t);
            w.step_open_loop(&demands(n_apps, t), &d, &mut report);
        }

        // Recovery reconciles checkpoint memory with field truth.
        let mut recovered = Willow::recover(ckpt, &w).expect("recovery succeeds");
        prop_assert_eq!(placement(&recovered), placement(&w));

        let mut ra = TickReport::default();
        let mut rb = TickReport::default();
        for t in recovery_at..total_ticks {
            let d = injector.disturbances_for(t);
            let dm = demands(n_apps, t);
            w.step_into(&dm, supply, &d, &mut ra);
            recovered.step_into(&dm, supply, &d, &mut rb);
            // The retry counter fires when a *remembered* backoff entry
            // clears on success; recovery prunes entries that expired
            // during the outage, so this one diagnostic may differ.
            ra.migration_retries = 0;
            rb.migration_retries = 0;
            prop_assert_eq!(
                format!("{ra:?}"),
                format!("{rb:?}"),
                "diverged at tick {}",
                t
            );
            prop_assert_eq!(placement(&recovered), placement(&w), "placement diverged at tick {}", t);
        }
    }
}
