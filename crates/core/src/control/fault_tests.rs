//! Fault-injection defenses, controller-crash (open-loop + recovery) and
//! invariant-auditor tests. Behavioral closed-loop tests live in
//! `super::tests`.

use super::testutil::{demands, hosted, placement, small_setup};
use super::*;
use crate::config::{AllocationPolicy, ControllerConfig};
use crate::disturbance::MigrationOutcome;
use willow_thermal::units::Celsius;
use willow_workload::app::{Application, SIM_APP_CLASSES};

/// Zero-valued (but fully allocated) disturbance vectors must behave
/// exactly like the empty default — tick-for-tick.
#[test]
fn explicit_zero_disturbances_match_fault_free_run() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut a = Willow::new(tree.clone(), specs.clone(), ControllerConfig::default()).unwrap();
    let mut b = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let zero = Disturbances {
        crashed: vec![false; 4],
        report_lost: vec![false; 4],
        directive_lost: vec![false; 4],
        sensor_override: vec![None; 4],
        sensor_offset: vec![0.0; 4],
        migration_outcomes: vec![MigrationOutcome::Success; 8],
    };
    for t in 0..60u64 {
        let d: Vec<Watts> = (0..n_apps)
            .map(|i| Watts(20.0 + 15.0 * (((t as usize + i) % 7) as f64)))
            .collect();
        let supply = Watts(300.0 + 200.0 * ((t % 9) as f64 / 8.0));
        let ra = a.step(&d, supply);
        let rb = b.step_with(&d, supply, &zero);
        assert_eq!(ra, rb, "tick {t} diverged under zero disturbances");
    }
}

/// A leaf that keeps missing its directive must never see its budget
/// loosen, and after `watchdog_threshold` misses it must fall back to
/// the conservative cap. A fresh directive releases the fallback.
#[test]
fn stale_directive_watchdog_tightens_only_then_recovers() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.eta1 = 1; // every tick is a supply tick
    cfg.consolidation_threshold = 0.0;
    let threshold = cfg.robustness.watchdog_threshold;
    let frac = cfg.robustness.watchdog_cap_fraction;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let d = demands(n_apps, 50.0);
    // Settle fault-free first.
    let mut last_budget = Watts::ZERO;
    for _ in 0..5 {
        last_budget = w.step(&d, Watts(10_000.0)).server_budget[0];
    }
    let lost = Disturbances {
        directive_lost: vec![true, false, false, false],
        ..Disturbances::default()
    };
    let rating = w.profiles()[0].rating;
    let mut tripped_at = None;
    for k in 1..=(threshold + 2) {
        let r = w.step_with(&d, Watts(10_000.0), &lost);
        assert_eq!(r.directives_lost, 1);
        assert!(
            r.server_budget[0] <= last_budget + Watts(1e-9),
            "budget loosened without a fresh directive at miss {k}"
        );
        last_budget = r.server_budget[0];
        if r.watchdog_trips > 0 {
            assert_eq!(tripped_at, None, "watchdog must trip exactly once");
            tripped_at = Some(k);
        }
        if k >= threshold {
            assert_eq!(r.fallback_servers, 1);
            assert!(
                r.server_budget[0] <= Watts(rating.0 * frac + 1e-9),
                "fallback cap not applied at miss {k}"
            );
        }
    }
    assert_eq!(tripped_at, Some(threshold));
    // A fresh directive resets the watchdog and may loosen again.
    let r = w.step(&d, Watts(10_000.0));
    assert_eq!(r.fallback_servers, 0);
    assert!(r.server_budget[0] >= last_budget);
}

/// An aborted migration leaves the app at the source but charges the
/// copy cost to both end nodes and the traffic to the fabric.
#[test]
fn aborted_migration_restores_source_and_charges_both_ends() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 1000;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    let abort = Disturbances {
        migration_outcomes: vec![MigrationOutcome::Abort; 8],
        ..Disturbances::default()
    };
    let r = w.step_with(&d, Watts(400.0), &abort);
    assert!(r.migration_aborts > 0, "plunge must provoke an attempt");
    assert!(r.migrations.is_empty(), "aborted moves must not complete");
    // Both apps still on server 0; conservation holds.
    assert_eq!(hosted(&w), n_apps);
    assert_eq!(w.apps().on(0).count(), 2);
    // The copy work was real: both ends carry the temporary cost and
    // the fabric carried the traffic despite zero completed moves.
    let charged = w
        .servers()
        .iter()
        .filter(|s| s.pending_cost.0 > 0.0)
        .count();
    assert!(charged >= 2, "both end nodes must be charged");
    let carried = w.fabric().total_migration();
    assert!(carried > 0.0, "the fabric must have carried the copy");
}

/// After a rejected attempt the app backs off; once the backoff
/// expires a clean retry succeeds and is counted.
#[test]
fn rejected_migration_retries_after_backoff() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 1000;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    let reject = Disturbances {
        migration_outcomes: vec![MigrationOutcome::Reject; 8],
        ..Disturbances::default()
    };
    let r = w.step_with(&d, Watts(400.0), &reject);
    assert!(r.migration_rejects > 0);
    assert!(r.migrations.is_empty());
    // Fault-free from now on: the retry must eventually land.
    let mut retried = 0;
    for _ in 0..10 {
        let r = w.step(&d, Watts(400.0));
        retried += r.migration_retries;
    }
    assert!(retried > 0, "backoff must end in a successful retry");
}

/// Pins the failure-accounting semantics documented on [`TickReport`]:
/// every attempt outcome is counted exactly once, in the period it
/// happens — a reject is only a reject, an abort is only an abort, and
/// the eventual successful retry counts as one retry plus one
/// migration without re-counting (or retroactively un-counting) the
/// earlier failures.
#[test]
fn failure_accounting_counts_each_outcome_once() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 1000;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    let reject = Disturbances {
        migration_outcomes: vec![MigrationOutcome::Reject; 8],
        ..Disturbances::default()
    };
    let abort = Disturbances {
        migration_outcomes: vec![MigrationOutcome::Abort; 8],
        ..Disturbances::default()
    };

    // Attempt 1: admission rejected — one reject, nothing else.
    let r = w.step_with(&d, Watts(400.0), &reject);
    assert_eq!(
        (r.migration_rejects, r.migration_aborts, r.migration_retries),
        (1, 0, 0)
    );
    assert!(r.migrations.is_empty());

    // Attempt 2 (the one-tick backoff has expired): aborted mid-flight
    // — one abort, and the earlier reject is not re-counted.
    let r = w.step_with(&d, Watts(400.0), &abort);
    assert_eq!(
        (r.migration_rejects, r.migration_aborts, r.migration_retries),
        (0, 1, 0)
    );
    assert!(r.migrations.is_empty());

    // Fault-free from here: the eventual success is one retry and one
    // migration, never an additional failure of either kind.
    let (mut rejects, mut aborts, mut retries, mut moves) = (0, 0, 0, 0);
    for _ in 0..10 {
        let r = w.step(&d, Watts(400.0));
        rejects += r.migration_rejects;
        aborts += r.migration_aborts;
        retries += r.migration_retries;
        moves += r.migrations.len();
    }
    assert_eq!(retries, 1, "exactly one successful retry");
    assert_eq!(moves, 1, "the app migrates exactly once");
    assert_eq!(
        (rejects, aborts),
        (0, 0),
        "a landed retry must not re-count as a failure"
    );
    assert_eq!(w.stats().migrations, 1);
}

/// A stuck-high sensor must be rejected by the plausibility filter:
/// the healthy server keeps a healthy budget and keeps its workload.
#[test]
fn stuck_high_sensor_does_not_evacuate_healthy_server() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.eta1 = 1;
    cfg.consolidation_threshold = 0.0;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let d = demands(n_apps, 50.0);
    for _ in 0..5 {
        let _ = w.step(&d, Watts(10_000.0));
    }
    let stuck = Disturbances {
        sensor_override: vec![Some(Celsius(95.0))],
        ..Disturbances::default()
    };
    for _ in 0..30 {
        let r = w.step_with(&d, Watts(10_000.0), &stuck);
        assert!(r.sensor_rejections >= 1, "95 °C reading must be rejected");
        assert!(
            r.server_budget[0] >= Watts(50.0),
            "healthy server must keep a working budget, got {}",
            r.server_budget[0]
        );
    }
    assert_eq!(
        w.locate_app(AppId(0)),
        Some(0),
        "workload must not flee a healthy server on a stuck sensor"
    );
}

/// A stuck-low sensor must not let a hot server overheat: caps keep
/// following the model prediction, not the flattering reading.
#[test]
fn stuck_low_sensor_does_not_cause_thermal_violation() {
    let (tree, mut specs, n_apps) = small_setup(1);
    specs[0].ambient = Celsius(45.0);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(400.0);
    let stuck = Disturbances {
        sensor_override: vec![Some(Celsius(25.0))],
        ..Disturbances::default()
    };
    for _ in 0..60 {
        let r = w.step_with(&d, Watts(10_000.0), &stuck);
        assert!(
            r.server_temp[0] <= Celsius(70.0 + 1e-6),
            "stuck-low sensor let the server overheat: {}",
            r.server_temp[0]
        );
    }
}

/// Crashed servers are not eligible migration targets.
#[test]
fn crashed_server_not_a_migration_target() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 1000;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    // Server 1 (the sibling that would normally absorb the load) is
    // crashed; any migration must land elsewhere.
    let crash = Disturbances {
        crashed: vec![false, true, false, false],
        ..Disturbances::default()
    };
    let r = w.step_with(&d, Watts(400.0), &crash);
    let crashed_leaf = w.servers()[1].node;
    assert!(
        r.migrations.iter().all(|m| m.to != crashed_leaf),
        "no migration may target a crashed server: {:?}",
        r.migrations
    );
}

// ------------------------------------------------------------------
// Controller crash: open-loop operation and checkpoint recovery
// ------------------------------------------------------------------

#[test]
fn open_loop_freezes_placement_and_trips_watchdogs() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.eta1 = 1; // every tick issues directives ⇒ every open-loop tick misses one
    cfg.eta2 = 1000;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let d = demands(n_apps, 30.0);
    for _ in 0..5 {
        w.step(&d, Watts(2000.0));
    }
    let before = placement(&w);
    let budgets: Vec<Watts> = w
        .servers()
        .iter()
        .map(|s| w.power().tp[s.node.index()])
        .collect();
    let threshold = w.config().robustness.watchdog_threshold;
    let frac = w.config().robustness.watchdog_cap_fraction;
    let mut r = TickReport::default();
    for k in 1..=6u32 {
        w.step_open_loop(&d, &Disturbances::default(), &mut r);
        assert!(r.migrations.is_empty(), "open loop can never migrate");
        assert_eq!(r.control_messages, 0, "a dead controller sends nothing");
        assert_eq!(r.directives_lost, 4, "every leaf misses its directive");
        for (s, &b0) in w.servers().iter().zip(&budgets) {
            assert!(
                w.power().tp[s.node.index()] <= b0 + Watts(1e-9),
                "open-loop budgets may only tighten"
            );
        }
        if k >= threshold {
            assert!(
                w.servers().iter().all(|s| s.watchdog.tripped),
                "all watchdogs tripped after {threshold} missed directives"
            );
            assert_eq!(r.fallback_servers, 4);
            for (s, p) in w.servers().iter().zip(w.profiles()) {
                assert!(
                    w.power().tp[s.node.index()].0 <= p.rating.0 * frac + 1e-9,
                    "tripped fallback cap must bind"
                );
            }
        }
    }
    assert_eq!(placement(&w), before, "placement is frozen while down");
}

#[test]
fn recover_adopts_field_state() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 1000;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    // Checkpoint *before* the plunge migrates an app away.
    let ckpt = w.snapshot();
    // The field keeps going: a migration commits post-checkpoint...
    let r = w.step(&d, Watts(400.0));
    assert!(!r.migrations.is_empty(), "setup needs a real migration");
    // ...then the controller dies and the leaves run open-loop.
    let mut report = TickReport::default();
    for _ in 0..10 {
        w.step_open_loop(&d, &Disturbances::default(), &mut report);
    }

    let recovered = Willow::recover(ckpt, &w).unwrap();
    assert_eq!(recovered.tick_count(), w.tick_count(), "clock from field");
    assert_eq!(
        placement(&recovered),
        placement(&w),
        "post-checkpoint migrations must survive recovery (field wins)"
    );
    for (ours, field) in recovered.servers().iter().zip(w.servers()) {
        assert_eq!(ours.watchdog, field.watchdog);
        assert_eq!(ours.accepted_temp, field.accepted_temp);
    }
    // The recovered controller must be able to keep controlling.
    let mut r2 = recovered;
    let apps_before = hosted(&r2);
    let mut rep = TickReport::default();
    for _ in 0..20 {
        r2.step_into(&d, Watts(800.0), &Disturbances::default(), &mut rep);
    }
    let apps_after = hosted(&r2);
    assert_eq!(apps_before, apps_after, "apps conserved after recovery");
}

#[test]
fn recover_from_fresh_checkpoint_continues_identically() {
    // When the field has not diverged from the checkpoint (crash of
    // zero length), recovery must be behaviorally invisible: the
    // recovered controller and the uninterrupted one produce identical
    // reports from then on.
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 2;
    cfg.eta2 = 7;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 25.0);
    d[0] = Watts(70.0);
    for t in 0..20 {
        let supply = if t % 6 < 3 { 900.0 } else { 380.0 };
        let _ = w.step(&d, Watts(supply));
    }
    let ckpt = w.snapshot();
    let mut recovered = Willow::recover(ckpt, &w).unwrap();
    let mut ra = TickReport::default();
    let mut rb = TickReport::default();
    for t in 20..60 {
        let supply = if t % 6 < 3 { 900.0 } else { 380.0 };
        w.step_into(&d, Watts(supply), &Disturbances::default(), &mut ra);
        recovered.step_into(&d, Watts(supply), &Disturbances::default(), &mut rb);
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "diverged at tick {t}");
    }
}

#[test]
fn recover_rejects_mismatched_field() {
    let (tree, specs, _) = small_setup(1);
    let w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let ckpt = w.snapshot();
    let other_tree = Tree::paper_fig3();
    let other_specs: Vec<ServerSpec> = other_tree
        .leaves()
        .enumerate()
        .map(|(i, leaf)| {
            let app = Application::new(
                AppId(i as u32),
                0,
                &willow_workload::app::SIM_APP_CLASSES[0],
            );
            ServerSpec::simulation_default(leaf).with_apps(vec![app])
        })
        .collect();
    let other = Willow::new(other_tree, other_specs, ControllerConfig::default()).unwrap();
    assert!(matches!(
        Willow::recover(ckpt, &other),
        Err(WillowError::SnapshotShape { .. })
    ));
}

/// `recover`'s split: the field supplies each roster row, including the
/// leaf-local state the servers kept running while the controller was
/// down (`local_cp`, watchdog, accepted temperature); the checkpoint
/// supplies the planning forecasters, which are controller memory. Under
/// the predictive policy, with directive loss on one server, a stuck
/// sensor on another and a demand ramp, each of those differs between
/// checkpoint and field, so taking any of them from the wrong side fails
/// here.
#[test]
fn recover_splits_memory_from_field() {
    use crate::config::SupplyPolicyChoice;
    use crate::server::ServerState;

    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.eta1 = 1; // every tick issues directives
    cfg.supply_policy = SupplyPolicyChoice::Predictive;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let stuck = Celsius(95.0);
    let faults = Disturbances {
        directive_lost: vec![true, false, false, false],
        sensor_override: vec![None, Some(stuck), None, None],
        ..Disturbances::default()
    };
    let ramp = |t: u32| demands(n_apps, 20.0 + f64::from(t));
    for t in 0..6 {
        w.step_with(&ramp(t), Watts(2000.0), &faults);
    }
    let ckpt = w.snapshot();
    for t in 6..12 {
        w.step_with(&ramp(t), Watts(2000.0), &faults);
    }
    // The controller crashes; the leaves run open-loop.
    let mut report = TickReport::default();
    for t in 12..16 {
        w.step_open_loop(&ramp(t), &faults, &mut report);
    }
    assert!(w.servers()[0].watchdog.tripped, "the watchdog must trip");
    assert_ne!(
        w.servers()[1].accepted_temp,
        stuck,
        "stuck reading accepted"
    );
    let differs = |f: fn(&ServerState, &ServerState) -> bool| {
        (ckpt.servers.iter().zip(w.servers())).any(|(c, l)| f(c, l))
    };
    assert!(differs(|c, l| c.local_cp != l.local_cp));
    assert!(differs(|c, l| c.watchdog != l.watchdog));
    assert!(differs(|c, l| c.accepted_temp != l.accepted_temp));
    assert_ne!(
        &ckpt.planning.as_ref().unwrap().leaves,
        &w.planning().unwrap().leaves
    );

    let recovered = Willow::recover(ckpt.clone(), &w).unwrap();
    for (ours, field) in recovered.servers().iter().zip(w.servers()) {
        assert_eq!(ours.local_cp, field.local_cp, "demand view from the field");
        assert_eq!(ours.watchdog, field.watchdog, "watchdog from the field");
        assert_eq!(
            ours.accepted_temp, field.accepted_temp,
            "filter from the field"
        );
    }
    assert_eq!(
        recovered.planning(),
        ckpt.planning.as_ref(),
        "forecasts from the checkpoint"
    );
}

/// Retired-row/recycled-slot aliasing: after `RemoveServer` frees a leaf
/// slot and a later `AddServer` recycles it, the retired roster row still
/// carries the old `NodeId`. A directive-loss roll against the *retired*
/// index must not resurrect a stale budget on the live replacement's leaf
/// (the pre-fix failure: the retired row wrote `tp_old` back into the
/// recycled slot while the live row's watchdog read `missed == 0`, so the
/// auditor flagged a `BudgetOverflow` that no live machine caused).
#[test]
fn retired_row_directive_loss_cannot_touch_recycled_slot() {
    use crate::audit::Auditor;
    use crate::command::Command;
    use crate::server::FenceState;

    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.eta1 = 1; // every tick divides supply and issues directives
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let d = demands(n_apps, 30.0);
    for _ in 0..5 {
        w.step(&d, Watts(2000.0));
    }

    // Drain server 0, retire it, and add a replacement under the same
    // switch: the new leaf recycles server 0's freed arena slot.
    let old_node = w.servers()[0].node;
    let parent = w.tree().parent(old_node).expect("leaf has a parent");
    w.submit_command(Command::Drain { server: 0 });
    for _ in 0..20 {
        w.step(&d, Watts(2000.0));
        if w.servers()[0].fence == FenceState::Fenced {
            break;
        }
    }
    assert_eq!(w.servers()[0].fence, FenceState::Fenced, "drain finished");
    w.submit_command(Command::RemoveServer { server: 0 });
    w.step(&d, Watts(2000.0));
    assert_eq!(w.servers()[0].fence, FenceState::Retired);
    w.submit_command(Command::AddServer {
        parent,
        name: "replacement".into(),
    });
    w.step(&d, Watts(2000.0));
    let new_si = w.servers().len() - 1;
    assert_eq!(
        w.servers()[new_si].node,
        old_node,
        "the add recycles the freed slot (the aliasing premise)"
    );
    // Let the idle replacement accumulate a nonzero budget under ample
    // supply, so a resurrected stale value would be visibly too large.
    for _ in 0..3 {
        w.step(&d, Watts(2000.0));
    }

    let mut auditor = Auditor::new(&w);
    // Supply plunge with a directive-loss roll against the RETIRED row:
    // the retired server receives no directives, so nothing may be
    // counted, no watchdog may move, and the recycled leaf must hold
    // exactly its freshly allocated (tight) share.
    let mut lost = Disturbances::none();
    lost.directive_lost = vec![true, false, false, false, false];
    let r = w.step_with(&d, Watts(10.0), &lost);
    assert_eq!(r.directives_lost, 0, "retired rows miss no directives");
    let wd = w.servers()[0].watchdog;
    assert!(!wd.tripped && wd.missed == 0, "retired watchdog untouched");
    let children: f64 = w
        .tree()
        .children(parent)
        .iter()
        .map(|c| w.power().tp[c.index()].0)
        .sum();
    let budget = w.power().tp[parent.index()].0;
    assert!(
        children <= budget + 1e-9 + 1e-6 * budget.abs(),
        "children {children} exceed parent budget {budget}: stale budget resurrected"
    );
    assert!(auditor.check(&w).is_empty(), "clean audit after the roll");

    // The open-loop fallback walks the same roster: retired rows must not
    // count as missed directives or repopulate the recycled slot's cap.
    let mut r = TickReport::default();
    w.step_open_loop(&d, &Disturbances::default(), &mut r);
    assert_eq!(
        r.directives_lost,
        w.servers().len() - 1,
        "only live servers miss directives open-loop"
    );
    assert!(auditor.check(&w).is_empty(), "clean audit open-loop");
}

/// The auditor's violation arms need a corrupted controller, and only
/// this module can reach the private state to corrupt it — so the
/// positive (violation-firing) auditor tests live here, while the
/// clean-run tests live in `crate::audit`.
mod audit_detection {
    use super::*;
    use crate::audit::{Auditor, InvariantViolation};

    /// Settled 4-server fixture. The tick-0 consolidation packs the
    /// lightly loaded fleet onto servers 1 and 3 (four apps each) and
    /// puts 0 and 2 to sleep; `eta2 = 1000` keeps that placement
    /// frozen afterwards.
    fn settled() -> Willow {
        let (tree, specs, n_apps) = small_setup(2);
        let config = ControllerConfig {
            eta2: 1000,
            ..ControllerConfig::default()
        };
        let mut w = Willow::new(tree, specs, config).unwrap();
        for _ in 0..8 {
            let _ = w.step(&demands(n_apps, 30.0), Watts(2000.0));
        }
        assert_eq!(w.apps.on(1).count(), 4);
        assert_eq!(w.apps.on(3).count(), 4);
        w
    }

    fn has(violations: &[InvariantViolation], pred: impl Fn(&InvariantViolation) -> bool) -> bool {
        violations.iter().any(pred)
    }

    #[test]
    fn clean_controller_audits_clean() {
        let w = settled();
        let mut a = Auditor::new(&w);
        assert!(a.check(&w).is_empty());
        assert_eq!(a.total_violations(), 0);
    }

    /// A corruption that sits an app on two lists: `dup` (the tail of
    /// server 1's list, so server 1's chain stays intact) is also appended
    /// to server 3's list, while its host column still names server 1.
    fn share_tail(w: &mut Willow, extra_on_3: Option<usize>) -> AppId {
        let list1 = w.apps.apps_on(1);
        let dup = *list1.last().unwrap();
        let mut list3 = w.apps.apps_on(3);
        if let Some(i) = extra_on_3 {
            list3.remove(i);
        }
        list3.push(dup);
        w.apps.set_list(3, &list3);
        dup.id
    }

    #[test]
    fn detects_lost_and_duplicated_apps() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        let (list1, list3) = (w.apps.apps_on(1), w.apps.apps_on(3));
        // Server 1's last app also on server 3's list: one duplicate,
        // listed where its host column does not point.
        let dup = share_tail(&mut w, None);
        let found = a.check(&w);
        assert!(has(found, |v| matches!(
            v,
            InvariantViolation::AppDuplicated { app, copies: 2 } if *app == dup
        )));
        assert!(has(found, |v| matches!(
            v,
            InvariantViolation::AppMisplaced { app, server: 3, host: 1 } if *app == dup
        )));
        // Remove both copies: the app is now lost.
        w.apps.set_list(3, &list3);
        w.apps.set_list(1, &list1[..list1.len() - 1]);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::AppLost { app } if *app == dup
        )));
        assert_eq!(a.total_violations(), 3);
    }

    /// Four conservation faults at once: the exact list, per-list faults
    /// (unknown ids, misplaced apps) in server and list order first, then
    /// lost/duplicated in ascending id order.
    #[test]
    fn conservation_faults_are_listed_exactly() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        // Server 3's first app is lost; server 1's last is duplicated.
        let lost = w.apps.on(3).next().unwrap();
        let dup = share_tail(&mut w, Some(0));
        // An id far above the universe's table, ahead of the duplicate on
        // server 1's list.
        let mut list1 = w.apps.apps_on(1);
        list1.insert(1, Application::new(AppId(999), 0, &SIM_APP_CLASSES[0]));
        w.apps.set_list(1, &list1);
        let mut tail = [
            InvariantViolation::AppLost { app: lost },
            InvariantViolation::AppDuplicated {
                app: dup,
                copies: 2,
            },
        ];
        if dup < lost {
            tail.swap(0, 1);
        }
        let mut expected = vec![
            InvariantViolation::AppUnknown {
                app: AppId(999),
                server: 1,
            },
            InvariantViolation::AppMisplaced {
                app: dup,
                server: 3,
                host: 1,
            },
        ];
        expected.extend(tail);
        assert_eq!(a.check(&w), expected.as_slice());
    }

    /// An id inside the table that was not in the universe at
    /// construction is unknown too.
    #[test]
    fn id_missing_from_universe_is_unknown() {
        let mut w = settled();
        // App 0 leaves a hole at the bottom of the id table.
        let server = w.locate_app(AppId(0)).unwrap();
        let list = w.apps.apps_on(server);
        let without: Vec<Application> = list.iter().copied().filter(|a| a.id != AppId(0)).collect();
        w.apps.set_list(server, &without);
        let mut a = Auditor::new(&w);
        assert!(a.check(&w).is_empty());
        w.apps.set_list(server, &list);
        assert_eq!(
            a.check(&w),
            [InvariantViolation::AppUnknown {
                app: AppId(0),
                server
            }]
        );
    }

    #[test]
    fn detects_unknown_app_and_populated_sleeper() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        let list1 = w.apps.apps_on(1);
        let mut grown = list1.clone();
        grown.push(Application::new(AppId(999), 0, &SIM_APP_CLASSES[0]));
        w.apps.set_list(1, &grown);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::AppUnknown {
                app: AppId(999),
                server: 1
            }
        )));
        w.apps.set_list(1, &list1);
        w.servers[3].active = false;
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::SleepingServerHostsApps { server: 3, apps: 4 }
        )));
    }

    /// A host column that disagrees with the list holding the app.
    #[test]
    fn detects_misplaced_app() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        let app = w.apps.on(1).next().unwrap();
        w.apps.move_to(app, 3);
        let list3 = w.apps.apps_on(3);
        let mut list1 = w.apps.apps_on(1);
        list1.insert(0, *list3.last().unwrap());
        w.apps.set_list(1, &list1);
        w.apps.set_list(3, &list3[..list3.len() - 1]);
        assert_eq!(
            a.check(&w),
            [InvariantViolation::AppMisplaced {
                app,
                server: 1,
                host: 3
            }]
        );
    }

    #[test]
    fn detects_budget_overflow_and_stale_loosening() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        // Grant a leaf more than its parent has: hierarchy overflow.
        let leaf = w.servers[1].node.index();
        let parent = w.tree.parent(w.servers[1].node).unwrap();
        let before = w.power.tp[leaf];
        w.power.tp[leaf] = w.power.tp[parent.index()] + Watts(50.0);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::BudgetOverflow { node, .. } if *node == parent
        )));
        w.power.tp[leaf] = before;
        // A stale leaf must only tighten: mark it stale across two
        // audits and loosen its budget in between.
        w.servers[1].watchdog.missed = 2;
        assert!(a.check(&w).is_empty());
        w.servers[1].watchdog.missed = 3;
        w.power.tp[leaf] = before + Watts(10.0);
        let violations = a.check(&w);
        assert!(has(violations, |v| matches!(
            v,
            InvariantViolation::LoosenedWhileStale { server: 1, .. }
        )));
        // The stale leaf is excluded from the hierarchy sum, so the
        // loosening does not double-report as an overflow.
        assert!(!has(violations, |v| matches!(
            v,
            InvariantViolation::BudgetOverflow { .. }
        )));
    }

    #[test]
    fn detects_nan_and_negative_watts() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        let leaf = w.servers[3].node.index();
        w.power.cp[leaf] = Watts(f64::NAN);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::NonFinite { what: "cp", .. }
        )));
        w.power.cp[leaf] = Watts(-1.0);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::NegativeWatts { what: "cp", .. }
        )));
        w.power.cp[leaf] = Watts(1.0);
        w.servers[0].accepted_temp = Celsius(f64::INFINITY);
        assert!(has(a.check(&w), |v| matches!(
            v,
            InvariantViolation::NonFinite {
                what: "accepted_temp",
                ..
            }
        )));
    }

    /// Every invariant family corrupted at once, pinned as the full
    /// ordered list: each server's conservation faults in server and list
    /// order, lost and duplicated apps by id, budget overflows in arena
    /// order, each row's own faults in server order, then the node
    /// columns `tp`, `cp` and `cap`. Compared through `Debug`, since a
    /// NaN never equals itself.
    #[test]
    fn every_family_at_once_is_listed_in_order() {
        let mut w = settled();
        let mut a = Auditor::new(&w);
        let leaf = |w: &Willow, si: usize| w.servers[si].node.index();
        let (leaf0, leaf1, leaf2, leaf3) = (leaf(&w, 0), leaf(&w, 1), leaf(&w, 2), leaf(&w, 3));
        // Server 2 goes stale before the faults, so the next audit polices
        // it under the tightening-only rule.
        w.servers[2].watchdog.missed = 2;
        assert!(a.check(&w).is_empty());
        w.servers[2].watchdog.missed = 3;
        let was = w.power.tp[leaf2];
        w.power.tp[leaf2] = was + Watts(10.0);
        // Misplaced: server 1's first app heads server 1's list while its
        // host column names server 3.
        let misplaced = w.apps.on(1).next().unwrap();
        w.apps.move_to(misplaced, 3);
        let mut list1 = w.apps.apps_on(1);
        let list3 = w.apps.apps_on(3);
        list1.insert(0, *list3.last().unwrap());
        w.apps.set_list(1, &list1);
        w.apps.set_list(3, &list3[..list3.len() - 1]);
        // Duplicated: server 1's last app also sits on server 3's list.
        let dup = share_tail(&mut w, None);
        // A sleeping server with apps.
        w.servers[3].active = false;
        // A budget overflow under server 1's parent.
        let parent = w.tree.parent(w.servers[1].node).unwrap();
        w.power.tp[leaf1] = w.power.tp[parent.index()] + Watts(50.0);
        // Bad row values, a NaN demand and a negative budget.
        w.servers[0].local_cp = Watts(-1.0);
        w.servers[1].accepted_temp = Celsius(f64::INFINITY);
        w.power.cp[leaf0] = Watts(f64::NAN);
        w.power.tp[leaf3] = Watts(-5.0);

        let children: f64 = (w.tree.children(parent).iter())
            .map(|c| w.power.tp[c.index()].0)
            .sum();
        let expected = [
            InvariantViolation::AppMisplaced {
                app: misplaced,
                server: 1,
                host: 3,
            },
            InvariantViolation::SleepingServerHostsApps { server: 3, apps: 5 },
            InvariantViolation::AppMisplaced {
                app: dup,
                server: 3,
                host: 1,
            },
            InvariantViolation::AppDuplicated {
                app: dup,
                copies: 2,
            },
            InvariantViolation::BudgetOverflow {
                node: parent,
                children: Watts(children),
                budget: w.power.tp[parent.index()],
            },
            InvariantViolation::NegativeWatts {
                what: "local_cp",
                index: 0,
                value: -1.0,
            },
            InvariantViolation::NonFinite {
                what: "accepted_temp",
                index: 1,
                value: f64::INFINITY,
            },
            InvariantViolation::LoosenedWhileStale {
                server: 2,
                was,
                now: was + Watts(10.0),
            },
            InvariantViolation::NegativeWatts {
                what: "tp",
                index: leaf3,
                value: -5.0,
            },
            InvariantViolation::NonFinite {
                what: "cp",
                index: leaf0,
                value: f64::NAN,
            },
        ];
        assert_eq!(format!("{:?}", a.check(&w)), format!("{expected:?}"));
    }

    #[test]
    #[should_panic(expected = "invariant violations at tick")]
    fn panic_mode_panics_on_violation() {
        let mut w = settled();
        let mut a = Auditor::new(&w).panic_on_violation(true);
        w.apps.set_list(1, &[]);
        let _ = a.check(&w);
    }
}
