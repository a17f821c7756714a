//! Behavioral tests of the closed-loop control pipeline: constructor
//! validation, supply/demand adaptation, consolidation, thermal behavior
//! and the paper's properties. Fault-injection and crash-recovery tests
//! live in `super::fault_tests`.

use super::testutil::{demands, hosted, small_setup};
use super::*;
use crate::config::{AllocationPolicy, ReducedTargetRule};
use crate::migration::MigrationReason;
use willow_thermal::units::Celsius;
use willow_workload::app::{Application, SIM_APP_CLASSES};

#[test]
fn constructor_validates() {
    let (tree, specs, _) = small_setup(1);
    assert!(Willow::new(tree.clone(), specs.clone(), ControllerConfig::default()).is_ok());
    // Too few specs.
    let err = Willow::new(
        tree.clone(),
        specs[..2].to_vec(),
        ControllerConfig::default(),
    );
    assert!(matches!(err, Err(WillowError::LeafCoverage { .. })));
    // Duplicate leaf.
    let mut dup = specs.clone();
    dup[1].node = dup[0].node;
    assert!(matches!(
        Willow::new(tree.clone(), dup, ControllerConfig::default()),
        Err(WillowError::DuplicateLeaf(_))
    ));
    // Duplicate app id.
    let mut dup_app = specs.clone();
    let a = dup_app[0].apps[0];
    dup_app[1].apps = vec![a];
    assert!(matches!(
        Willow::new(tree.clone(), dup_app, ControllerConfig::default()),
        Err(WillowError::DuplicateApp(_))
    ));
    // An app id past the table: ids must be dense from 0.
    let mut sparse = specs.clone();
    sparse[3].apps[0].id = AppId(4);
    assert!(matches!(
        Willow::new(tree.clone(), sparse, ControllerConfig::default()),
        Err(WillowError::AppBeyondTable(AppId(4)))
    ));
    // Non-leaf spec.
    let mut non_leaf = specs;
    non_leaf[0].node = tree.root();
    assert!(matches!(
        Willow::new(tree, non_leaf, ControllerConfig::default()),
        Err(WillowError::NotALeaf(_))
    ));
}

#[test]
fn ample_supply_no_migrations_no_drops() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    for _ in 0..20 {
        let r = w.step(&demands(n_apps, 10.0), Watts(10_000.0));
        assert_eq!(r.dropped_demand, Watts(0.0));
        assert_eq!(
            r.migrations_by_reason(MigrationReason::Demand),
            0,
            "no deficit ⇒ no demand-driven migrations"
        );
        assert_eq!(r.pingpongs(), 0);
    }
}

#[test]
fn budgets_allocated_proportionally_to_demand() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    // Unequal demands; ample supply: each server's budget ≥ demand.
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(40.0);
    let r = w.step(&d, Watts(10_000.0));
    assert!(r.server_budget[0] >= Watts(40.0));
    for i in 1..4 {
        assert!(r.server_budget[i] >= Watts(10.0));
    }
}

#[test]
fn supply_plunge_triggers_migration_under_equal_share() {
    // The testbed scenario (§V-C4): equal-share budgets, a supply
    // plunge leaves the loaded server deficient while idle servers keep
    // surplus ⇒ demand-driven migration.
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1; // supply adaptation every tick
    cfg.eta2 = 2;
    cfg.consolidation_threshold = 0.0; // isolate demand-driven behaviour
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    // Server 0 hosts apps 0, 1 at 60 W each; everyone else idles at 10 W.
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let r = w.step(&d, Watts(800.0)); // 200 W each: no deficit
    assert_eq!(r.migrations_by_reason(MigrationReason::Demand), 0);
    // Plunge: 100 W each. Server 0 (demand 120) is deficient; siblings
    // (demand 20) have surplus 75 ≥ app's effective 63.
    let r = w.step(&d, Watts(400.0));
    let demand_migs: Vec<_> = r
        .migrations
        .iter()
        .filter(|m| m.reason == MigrationReason::Demand)
        .collect();
    assert!(!demand_migs.is_empty(), "plunge must trigger migration");
    assert!(
        demand_migs.iter().all(|m| m.from == w.servers()[0].node),
        "migrations must come off the loaded server"
    );
}

#[test]
fn migrations_prefer_siblings() {
    // Server 0 in deficit; both its sibling (server 1) and the other pod
    // have surplus ⇒ the migration must use the sibling (local).
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(5.0);
    cfg.eta1 = 1;
    cfg.eta2 = 2;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    let r = w.step(&d, Watts(400.0));
    let demand_migs: Vec<_> = r
        .migrations
        .iter()
        .filter(|m| m.reason == MigrationReason::Demand)
        .collect();
    assert!(!demand_migs.is_empty());
    assert!(
        demand_migs.iter().all(|m| m.local),
        "sibling surplus must be preferred: {demand_migs:?}"
    );
}

#[test]
fn demand_dropped_when_no_surplus_anywhere() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.wake_on_deficit = false;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    // Demand far beyond the total supply.
    let d = demands(n_apps, 200.0);
    let mut r = TickReport::default();
    for _ in 0..5 {
        r = w.step(&d, Watts(100.0));
    }
    assert!(r.dropped_demand.0 > 0.0, "undersupply must shed demand");
}

#[test]
fn consolidation_empties_idle_server_and_sleeps_it() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.consolidation_threshold = 0.2; // 90 W on a 450 W server
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    // All servers lightly loaded; ample supply.
    let d = demands(n_apps, 20.0);
    let mut slept_any = false;
    let mut consolidation_migs = 0;
    for _ in 0..15 {
        let r = w.step(&d, Watts(10_000.0));
        slept_any |= !r.slept.is_empty();
        consolidation_migs += r.migrations_by_reason(MigrationReason::Consolidation);
    }
    assert!(slept_any, "idle servers must be consolidated away");
    assert!(consolidation_migs > 0);
    let active = w.servers().iter().filter(|s| s.active).count();
    assert!(active < 4, "at least one server must sleep");
    // All apps still hosted somewhere.
    assert_eq!(hosted(&w), n_apps);
}

/// An evacuation admits an item at most `EVAC_FIT_SLACK` (1e-12) over a
/// receiver's free capacity, not the packers' 1e-9: an item 2e-12 over is
/// refused, one 5e-13 over is admitted.
#[test]
fn evacuation_fit_slack_is_1e_12() {
    for (over, fits) in [(2e-12, false), (5e-13, true)] {
        let tree = Tree::uniform(&[2]);
        let leaves: Vec<NodeId> = tree.leaves().collect();
        let specs = (leaves.iter().enumerate())
            .map(|(k, &leaf)| {
                let app = Application::new(AppId(k as u32), 1, &SIM_APP_CLASSES[1]);
                ServerSpec::simulation_default(leaf).with_apps(vec![app])
            })
            .collect();
        let cfg = ControllerConfig {
            consolidation_threshold: 0.0, // the step itself evacuates nothing
            ..ControllerConfig::default()
        };
        let mut w = Willow::new(tree, specs, cfg).unwrap();
        w.step(&[Watts(40.0), Watts(40.0)], Watts(900.0));
        let app = w.apps.on(0).next().unwrap();
        let size = w.effective_size(w.apps.demand(app));
        let receiver = leaves[1].index();
        w.power.reduced.fill(false);
        w.power.tp[receiver] = w.power.cp[receiver] + w.config.margin + Watts(size - over);
        let mut stage = super::consolidate::ConsolidateStage::default();
        assert_eq!(
            w.plan_full_evacuation(0, &mut stage),
            fits,
            "an item {over} W over the free capacity"
        );
    }
}

#[test]
fn sleeping_servers_draw_no_power() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let d = demands(n_apps, 10.0);
    let mut last = None;
    for _ in 0..20 {
        last = Some(w.step(&d, Watts(10_000.0)));
    }
    let r = last.unwrap();
    for (i, active) in r.server_active.iter().enumerate() {
        if !active {
            assert_eq!(r.server_power[i], Watts(0.0));
        }
    }
}

#[test]
fn wake_on_deficit_restores_capacity() {
    let (tree, specs, n_apps) = small_setup(1);
    let mut cfg = ControllerConfig::default();
    cfg.consolidation_threshold = 0.2;
    cfg.wake_on_deficit = true;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    // Phase 1: idle ⇒ consolidation puts servers to sleep.
    let low = demands(n_apps, 15.0);
    for _ in 0..15 {
        let _ = w.step(&low, Watts(10_000.0));
    }
    let active_before = w.servers().iter().filter(|s| s.active).count();
    assert!(active_before < 4);
    // Phase 2: demand surges beyond what awake servers can host.
    let high = demands(n_apps, 400.0);
    let mut woke = false;
    for _ in 0..20 {
        let r = w.step(&high, Watts(10_000.0));
        woke |= !r.woken.is_empty();
    }
    assert!(woke, "dropped demand must wake sleeping servers");
    let active_after = w.servers().iter().filter(|s| s.active).count();
    assert!(active_after > active_before);
}

#[test]
fn thermal_cap_limits_hot_server_and_workload_flees_hot_zone() {
    // Server 0 sits in a hot zone: once it heats up, its thermal cap —
    // and hence its budget — must fall well below its rating, its
    // temperature must never cross the limit, and Willow must migrate
    // its workload toward the cool zone (the Fig. 5/7 behaviour).
    let (tree, mut specs, n_apps) = small_setup(1);
    specs[0].ambient = Celsius(45.0);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(400.0);
    let mut min_loaded_budget = f64::INFINITY;
    for _ in 0..50 {
        let r = w.step(&d, Watts(10_000.0));
        assert!(
            r.server_temp[0] <= Celsius(70.0 + 1e-6),
            "thermal limit violated: {}",
            r.server_temp[0]
        );
        if r.server_active[0] && r.server_power[0].0 > 100.0 {
            min_loaded_budget = min_loaded_budget.min(r.server_budget[0].0);
        }
    }
    assert!(
        min_loaded_budget < 450.0 * 0.8,
        "hot loaded server budget {min_loaded_budget} should fall well below rating"
    );
    // The heavy app must have left the hot zone.
    let host = w.locate_app(AppId(0)).expect("app still hosted");
    assert_ne!(host, 0, "workload must migrate out of the hot zone");
}

#[test]
fn thermal_limit_never_violated() {
    let (tree, mut specs, n_apps) = small_setup(2);
    for s in &mut specs[2..] {
        s.ambient = Celsius(40.0);
    }
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let d = demands(n_apps, 120.0);
    for _ in 0..100 {
        let r = w.step(&d, Watts(1_200.0));
        for (i, t) in r.server_temp.iter().enumerate() {
            assert!(t.0 <= 70.0 + 1e-6, "server {i} exceeded thermal limit: {t}");
        }
    }
}

#[test]
fn property3_message_bound() {
    let (tree, specs, n_apps) = small_setup(1);
    let links = tree.len() - 1;
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    for _ in 0..10 {
        let r = w.step(&demands(n_apps, 10.0), Watts(10_000.0));
        assert!(
            r.control_messages <= 2 * links,
            "Property 3: ≤ 2 messages per link per Δ_D"
        );
    }
}

#[test]
fn no_pingpong_under_stable_demand() {
    let (tree, specs, n_apps) = small_setup(2);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let mut d = demands(n_apps, 30.0);
    d[0] = Watts(80.0);
    d[1] = Watts(80.0);
    let mut total_pingpongs = 0;
    for _ in 0..60 {
        let r = w.step(&d, Watts(500.0));
        total_pingpongs += r.pingpongs();
    }
    assert_eq!(total_pingpongs, 0, "stable demand must not ping-pong");
}

#[test]
fn apps_conserved_across_arbitrary_churn() {
    let (tree, specs, n_apps) = small_setup(3);
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    // Deterministic wavy demand + supply.
    for t in 0..120u64 {
        let d: Vec<Watts> = (0..n_apps)
            .map(|i| Watts(20.0 + 15.0 * (((t as usize + i) % 7) as f64)))
            .collect();
        let supply = Watts(600.0 + 300.0 * ((t % 11) as f64 / 10.0));
        let _ = w.step(&d, supply);
        assert_eq!(hosted(&w), n_apps, "apps must never be lost or duplicated");
        // Each server's hosted-app power is its list's sum.
        for (si, s) in w.servers().iter().enumerate() {
            assert_eq!(s.app_power.0.to_bits(), w.apps().power_on(si).0.to_bits());
        }
    }
}

#[test]
fn strict_reduced_rule_blocks_targets_on_global_dip() {
    // Identical scenario to `supply_plunge_triggers_migration_under_
    // equal_share`, but under the literal reading of the §IV-E rule a
    // global dip reduces every budget, so no target is eligible and no
    // migration may happen — the inconsistency DESIGN.md documents.
    let (tree, specs, n_apps) = small_setup(2);
    let mut cfg = ControllerConfig::default();
    cfg.reduced_rule = ReducedTargetRule::Strict;
    cfg.eta1 = 1;
    cfg.eta2 = 2;
    cfg.consolidation_threshold = 0.0;
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let mut d = demands(n_apps, 10.0);
    d[0] = Watts(60.0);
    d[1] = Watts(60.0);
    let _ = w.step(&d, Watts(800.0));
    let r = w.step(&d, Watts(400.0));
    assert_eq!(
        r.migrations_by_reason(MigrationReason::Demand),
        0,
        "strict rule forbids all targets after a global reduction"
    );
}

#[test]
fn shedding_respects_priorities_end_to_end() {
    use willow_workload::app::Priority;
    // One server pod, two apps per server: app even = Low, odd = High.
    let tree = Tree::uniform(&[2, 2]);
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let apps: Vec<_> = (0..2)
                .map(|_| {
                    let prio = if id.is_multiple_of(2) {
                        Priority::Low
                    } else {
                        Priority::High
                    };
                    let a = Application::new(AppId(id), 0, &SIM_APP_CLASSES[0]).with_priority(prio);
                    id += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    let mut cfg = ControllerConfig::default();
    cfg.wake_on_deficit = false;
    cfg.consolidation_threshold = 0.0;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    // Demand far above supply: shedding is unavoidable everywhere.
    let d = demands(id as usize, 150.0);
    let mut low = 0.0;
    let mut high = 0.0;
    for _ in 0..10 {
        let r = w.step(&d, Watts(800.0));
        low += r.shed_by_priority[Priority::Low.index()].0;
        high += r.shed_by_priority[Priority::High.index()].0;
    }
    assert!(low > 0.0, "undersupply must shed low-priority demand");
    assert!(
        high < low,
        "high-priority demand ({high}) must shed less than low ({low})"
    );
}

#[test]
fn naive_throttle_ablation_overshoots_where_willow_does_not() {
    use crate::config::ThermalEstimate;
    // Hot-zone server driven hard: the naive reactive throttle lets the
    // temperature cross the limit between supply ticks; Willow's
    // window-prediction cap (tested elsewhere) never does.
    let (tree, mut specs, n_apps) = small_setup(1);
    for s in &mut specs {
        s.ambient = Celsius(45.0);
    }
    let mut cfg = ControllerConfig::default();
    cfg.thermal_estimate = ThermalEstimate::NaiveThrottle;
    cfg.consolidation_threshold = 0.0;
    let mut w = Willow::new(tree, specs, cfg).unwrap();
    let d = demands(n_apps, 400.0);
    let mut max_temp = f64::MIN;
    for _ in 0..100 {
        let r = w.step(&d, Watts(10_000.0));
        max_temp = max_temp.max(r.server_temp.iter().map(|t| t.0).fold(f64::MIN, f64::max));
    }
    assert!(
        max_temp > 70.0,
        "naive throttling should overshoot the limit, peaked at {max_temp}"
    );
}

#[test]
fn locate_app_finds_hosts() {
    let (tree, specs, _) = small_setup(1);
    let w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    assert_eq!(w.locate_app(AppId(0)), Some(0));
    assert_eq!(w.locate_app(AppId(3)), Some(3));
    assert_eq!(w.locate_app(AppId(99)), None);
}

/// Every consolidation policy must drive the pipeline through demand
/// churn, deficit and consolidation without panicking or losing apps, and
/// the selection must be deterministic (same config ⇒ same trajectory).
#[test]
fn every_policy_combo_is_deterministic_and_conserves_apps() {
    use crate::config::ConsolidationPolicyChoice;

    for consolidation in [
        ConsolidationPolicyChoice::HotZonesFirst,
        ConsolidationPolicyChoice::MostHeadroomReceivers,
    ] {
        let (tree, specs, n_apps) = small_setup(2);
        let mut cfg = ControllerConfig::default();
        cfg.consolidation_policy = consolidation;
        let mut a = Willow::new(tree.clone(), specs.clone(), cfg.clone()).unwrap();
        let mut b = Willow::new(tree, specs, cfg).unwrap();
        for t in 0..60u64 {
            let d: Vec<Watts> = (0..n_apps)
                .map(|i| Watts(20.0 + ((i as u64 * 3 + t) % 9) as f64 * 35.0))
                .collect();
            let supply = Watts(if t % 13 < 6 { 800.0 } else { 2600.0 });
            let ra = a.step(&d, supply);
            let rb = b.step(&d, supply);
            assert_eq!(ra, rb, "{consolidation:?} nondeterministic at {t}");
            assert_eq!(hosted(&a), n_apps, "{consolidation:?} lost apps");
        }
    }
}

/// Six servers in two pods of three with hand-set budget, demand, cap and
/// utilization, chosen so every ordering arm yields a distinct order and
/// each arm's tie-break is exercised. Per server `k`:
///
/// | k | tp  | cp | cap | util |
/// |---|-----|----|-----|------|
/// | 0 | 100 | 60 | 150 | 0.5  |
/// | 1 | 100 | 90 | 100 | 0.8  |
/// | 2 | 100 | 40 | 120 | 0.3  |
/// | 3 | 100 | 80 | 160 | 0.2  |
/// | 4 | 100 | 60 | 100 | 0.6  |
/// | 5 | 100 | 20 | 120 | 0.1  |
fn ordering_fixture() -> (Willow, Vec<NodeId>) {
    let tree = Tree::uniform(&[2, 3]);
    let leaves: Vec<NodeId> = tree.leaves().collect();
    assert!(leaves.windows(2).all(|w| w[0] < w[1]), "leaves in id order");
    let specs: Vec<ServerSpec> = leaves
        .iter()
        .enumerate()
        .map(|(i, &leaf)| {
            ServerSpec::simulation_default(leaf)
                .with_apps(vec![Application::new(
                    AppId(i as u32),
                    0,
                    &SIM_APP_CLASSES[0],
                )])
                .with_full_util_power(Watts(100.0))
        })
        .collect();
    let mut w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let rows = [
        (100.0, 60.0, 150.0, 0.5),
        (100.0, 90.0, 100.0, 0.8),
        (100.0, 40.0, 120.0, 0.3),
        (100.0, 80.0, 160.0, 0.2),
        (100.0, 60.0, 100.0, 0.6),
        (100.0, 20.0, 120.0, 0.1),
    ];
    for (k, &(tp, cp, cap, util)) in rows.iter().enumerate() {
        let n = leaves[k].index();
        w.power.tp[n] = Watts(tp);
        w.power.cp[n] = Watts(cp);
        w.power.cap[n] = Watts(cap);
        w.servers[k].app_power = Watts(util * 100.0);
        assert!((w.utilization(k) - util).abs() < 1e-12);
    }
    (w, leaves)
}

/// Target bins come out in ascending arena id even where the tree's DFS
/// order is not: a leaf inserted under the first pod takes the next free
/// id but sits between the pods in the Euler tour.
#[test]
fn target_orderings_are_exact() {
    use super::demand::Eligibility;

    let pair = Tree::uniform(&[2, 3]);
    let pods = pair.nodes_at_level(1).to_vec();
    let (tree, late) = pair.insert_leaf(pods[0], "late").unwrap();
    let dfs = tree.leaf_range(tree.root()).to_vec();
    assert!(
        dfs.windows(2).any(|w| w[0] > w[1]),
        "DFS order already sorted"
    );
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .enumerate()
        .map(|(i, leaf)| {
            ServerSpec::simulation_default(leaf).with_apps(vec![Application::new(
                AppId(i as u32),
                0,
                &SIM_APP_CLASSES[0],
            )])
        })
        .collect();
    let w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let mut eligibility = Eligibility::for_tree(&w.tree);
    w.resolve_eligibility(&mut eligibility);
    // Exclude the last leaf of the second pod, so the late leaf is neither
    // first nor last in DFS order.
    let excluded = *dfs.last().unwrap();
    let mut bins = Vec::new();
    w.target_bins(w.tree.root(), excluded, &eligibility, &mut bins);
    let mut expected: Vec<NodeId> = dfs.into_iter().filter(|&l| l != excluded).collect();
    expected.sort_unstable();
    assert_eq!(bins, expected);
    assert_eq!(bins.last(), Some(&late));
}

/// Each consolidation receiver arm, fed the bins in reverse id order.
#[test]
fn receiver_orderings_are_exact() {
    use crate::config::ConsolidationPolicyChoice;

    let (mut w, l) = ordering_fixture();
    let pick = |ks: [usize; 6]| ks.map(|k| l[k]).to_vec();
    for (policy, expected) in [
        // Cap descending: 160, 150, then the 120 W pair by utilization
        // (0.3 before 0.1), then the 100 W pair (0.8 before 0.6).
        (ConsolidationPolicyChoice::HotZonesFirst, [3, 0, 2, 5, 1, 4]),
        // Power headroom tp − cp: 40, 10, 60, 20, 40, 80; the 40 W tie
        // goes to the lower id.
        (
            ConsolidationPolicyChoice::MostHeadroomReceivers,
            [5, 2, 0, 4, 3, 1],
        ),
    ] {
        w.config.consolidation_policy = policy;
        let mut receivers: Vec<NodeId> = l.iter().rev().copied().collect();
        w.order_receivers(&mut receivers);
        assert_eq!(receivers, pick(expected), "{policy:?}");
    }
}

/// Victims: lowest cap (hot zone) first, emptiest first within a cap.
#[test]
fn victim_ordering_is_exact() {
    let (w, _) = ordering_fixture();
    let mut victims: Vec<usize> = (0..6).rev().collect();
    w.order_victims(&mut victims);
    assert_eq!(victims, [4, 1, 5, 2, 0, 3]);
}

// ---------------------------------------------------------------------
// Consolidation planner ≡ the per-victim re-sort it replaced
// ---------------------------------------------------------------------

mod planner_oracle {
    use super::super::demand::DeficitItem;
    use super::super::testutil::placement;
    use super::*;
    use crate::command::Command;
    use crate::config::ConsolidationPolicyChoice;
    use crate::disturbance::MigrationOutcome;
    use crate::migration::MigrationRecord;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use willow_thermal::units::Celsius;

    /// Target eligibility by the ancestor walk.
    fn eligible(w: &Willow, leaf: NodeId) -> bool {
        w.server_at(leaf).is_some_and(|si| {
            let s = &w.servers[si];
            s.active && s.fence.is_active() && !w.disturb.crashed(si)
        }) && !std::iter::once(leaf)
            .chain(w.tree.ancestors(leaf))
            .any(|n| w.power.reduced[n.index()])
    }

    /// The receiver comparators, on floats.
    fn order(w: &Willow, bins: &mut [NodeId]) {
        let (p, util) = (&w.power, w.leaf_utilization());
        match w.config.consolidation_policy {
            ConsolidationPolicyChoice::HotZonesFirst => bins.sort_unstable_by(|a, b| {
                p.cap[b.index()]
                    .0
                    .total_cmp(&p.cap[a.index()].0)
                    .then(util(*b).total_cmp(&util(*a)))
                    .then(a.cmp(b))
            }),
            ConsolidationPolicyChoice::MostHeadroomReceivers => {
                let h = |n: &NodeId| p.tp[n.index()].0 - p.cp[n.index()].0;
                bins.sort_unstable_by(|a, b| h(b).total_cmp(&h(a)).then(a.cmp(b)));
            }
        }
    }

    /// The planner before the receiver index: collect and sort every
    /// eligible receiver again for each victim, then first-fit.
    fn plan(w: &Willow, si: usize) -> Option<Vec<(DeficitItem, NodeId)>> {
        let server = &w.servers[si];
        if w.apps.on(si).any(|a| w.in_backoff(a, w.tick)) {
            return None;
        }
        let leaf = server.node;
        let mut bins: Vec<NodeId> = w.tree.siblings(leaf).filter(|&l| eligible(w, l)).collect();
        order(w, &mut bins);
        let n = bins.len();
        for l in w.tree.leaves() {
            if l != leaf && eligible(w, l) && !bins[..n].contains(&l) {
                bins.push(l);
            }
        }
        order(w, &mut bins[n..]);
        let mut free: Vec<f64> = bins.iter().map(|&l| w.bin_capacity(l).0).collect();
        let items: Vec<DeficitItem> = (w.apps.on(si))
            .map(|app| DeficitItem {
                server: si,
                app,
                demand: w.apps.demand(app),
                reason: MigrationReason::Consolidation,
            })
            .collect();
        let sizes: Vec<f64> = items.iter().map(|it| w.effective_size(it.demand)).collect();
        let mut by_size: Vec<usize> = (0..items.len()).collect();
        by_size.sort_by(|&a, &b| sizes[b].total_cmp(&sizes[a]));
        let mut plan = Vec::new();
        for i in by_size {
            let b = (0..bins.len()).find(|&b| {
                sizes[i] <= free[b] + 1e-12 && !w.would_pingpong(items[i].app, bins[b], w.tick)
            })?;
            free[b] -= sizes[i];
            plan.push((items[i], bins[b]));
        }
        Some(plan)
    }

    /// `Willow::consolidate` under the reactive supply policy, planning
    /// with [`plan`].
    fn oracle_round(w: &mut Willow, records: &mut Vec<MigrationRecord>, slept: &mut Vec<NodeId>) {
        let (tick, threshold) = (w.tick, w.config.consolidation_threshold);
        let below = |w: &Willow, si: usize| w.servers[si].active && w.utilization(si) < threshold;
        let mut victims: Vec<usize> = (0..w.servers.len())
            .filter(|&i| below(w, i) && w.servers[i].fence.is_active())
            .collect();
        w.order_victims(&mut victims);
        let mut received = vec![false; w.servers.len()];
        for si in victims {
            if received[si] || !below(w, si) {
                continue;
            }
            let evacuated = !w.apps.hosts_any(si)
                || plan(w, si).is_some_and(|plan| {
                    plan.iter().all(|(item, to)| {
                        let moved = w.attempt_migration(item, *to, tick, records);
                        received[w.server_at(*to).unwrap()] |= moved;
                        moved
                    })
                });
            if evacuated {
                w.sleep_server(si);
                slept.push(w.servers[si].node);
            }
        }
        for r in records.iter_mut() {
            r.reason = MigrationReason::Consolidation;
        }
    }

    /// The production round, called the way `step_into` calls it.
    fn indexed_round(w: &mut Willow, records: &mut Vec<MigrationRecord>, slept: &mut Vec<NodeId>) {
        let mut stage = std::mem::take(&mut w.consolidate_stage);
        w.consolidate(w.tick, &mut stage, records, slept);
        w.consolidate_stage = stage;
    }

    fn cp_bits(w: &Willow) -> Vec<u64> {
        w.power.cp.iter().map(|c| c.0.to_bits()).collect()
    }

    /// Run one round on `a` through the receiver index and on its twin
    /// `b` through the oracle, with the same migration outcomes; both
    /// must emit the same records and sleeps and end in the same state.
    /// Returns the round's records and slept leaves.
    fn assert_round_matches(
        a: &mut Willow,
        b: &mut Willow,
        outcomes: &[MigrationOutcome],
        ctx: &str,
    ) -> (Vec<MigrationRecord>, Vec<NodeId>) {
        let d = Disturbances {
            migration_outcomes: outcomes.to_vec(),
            ..Disturbances::default()
        };
        for w in [&mut *a, &mut *b] {
            w.disturb.assign_from(&d);
            w.mig_attempts = 0;
        }
        let (mut ra, mut sa, mut rb, mut sb) = (vec![], vec![], vec![], vec![]);
        indexed_round(a, &mut ra, &mut sa);
        oracle_round(b, &mut rb, &mut sb);
        assert_eq!(ra, rb, "{ctx}: records");
        assert_eq!(sa, sb, "{ctx}: slept");
        assert_eq!(placement(a), placement(b), "{ctx}: placement");
        assert_eq!(cp_bits(a), cp_bits(b), "{ctx}: leaf demands");
        assert_eq!(a.apps(), b.apps(), "{ctx}: app table");
        (ra, sa)
    }

    /// Two identical controllers on a random tree: 0–3 apps per server
    /// and every third server in a 40 °C zone, so caps differ.
    fn twins(rng: &mut StdRng, policy: ConsolidationPolicyChoice) -> (Willow, Willow, usize) {
        let branching: Vec<usize> = (0..rng.gen_range(2..=3))
            .map(|_| rng.gen_range(2..=4))
            .collect();
        let tree = Tree::uniform(&branching);
        let mut next = 0u32;
        let leaves: Vec<NodeId> = tree.leaves().collect();
        let specs: Vec<ServerSpec> = (leaves.iter().enumerate())
            .map(|(k, &leaf)| {
                let apps = (0..rng.gen_range(0..=3usize))
                    .map(|_| {
                        let c = rng.gen_range(0..SIM_APP_CLASSES.len());
                        next += 1;
                        Application::new(AppId(next - 1), c, &SIM_APP_CLASSES[c])
                    })
                    .collect();
                let spec = ServerSpec::simulation_default(leaf).with_apps(apps);
                if k % 3 == 0 {
                    spec.with_ambient(Celsius(40.0))
                } else {
                    spec
                }
            })
            .collect();
        let cfg = ControllerConfig {
            consolidation_policy: policy,
            consolidation_threshold: 0.45,
            eta2: 1000, // rounds run only where the test calls them
            ..ControllerConfig::default()
        };
        let a = Willow::new(tree.clone(), specs.clone(), cfg.clone()).unwrap();
        let b = Willow::new(tree, specs, cfg).unwrap();
        (a, b, next as usize)
    }

    fn step_both(a: &mut Willow, b: &mut Willow, rng: &mut StdRng, n_apps: usize) {
        let d: Vec<Watts> = (0..n_apps)
            .map(|_| Watts(rng.gen_range(5.0..80.0)))
            .collect();
        let supply = Watts(a.servers.len() as f64 * rng.gen_range(200.0..450.0));
        assert_eq!(a.step(&d, supply), b.step(&d, supply));
    }

    /// Wake every sleeper and scatter apps from multi-app servers onto
    /// random servers (identically on both twins), so the next round has
    /// loaded victims as well as empty ones.
    fn scatter(a: &mut Willow, b: &mut Willow, rng: &mut StdRng) {
        let n = a.servers.len();
        for si in 0..n {
            a.force_wake(si);
            b.force_wake(si);
        }
        for si in 0..n {
            while a.apps.on(si).count() > 1 && rng.gen_bool(0.6) {
                let to = rng.gen_range(0..n);
                if to == si || !a.servers[to].active {
                    break;
                }
                for w in [&mut *a, &mut *b] {
                    let app = w.apps.on(si).next().unwrap();
                    w.rehost(app, to);
                }
            }
        }
    }

    fn outcomes(rng: &mut StdRng) -> Vec<MigrationOutcome> {
        (0..64)
            .map(|_| match rng.gen_range(0..10) {
                0 => MigrationOutcome::Reject,
                1 => MigrationOutcome::Abort,
                _ => MigrationOutcome::Success,
            })
            .collect()
    }

    /// Random trees, loads and migration faults, both receiver policies:
    /// the receiver index plans exactly what re-sorting per victim did.
    /// Rounds every fourth tick stay inside the 50-tick ping-pong window,
    /// and a scatter before each gives it fresh victims and receivers.
    #[test]
    fn rounds_match_per_victim_resort() {
        let (mut moves, mut sleeps) = (0, 0);
        for seed in 0..10u64 {
            for policy in [
                ConsolidationPolicyChoice::HotZonesFirst,
                ConsolidationPolicyChoice::MostHeadroomReceivers,
            ] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut a, mut b, n_apps) = twins(&mut rng, policy);
                for t in 0..40u64 {
                    if t % 4 == 2 {
                        scatter(&mut a, &mut b, &mut rng);
                    }
                    step_both(&mut a, &mut b, &mut rng, n_apps);
                    if t % 4 != 3 {
                        continue;
                    }
                    let fail = outcomes(&mut rng);
                    let ctx = format!("seed {seed} {policy:?} tick {t}");
                    let (m, s) = assert_round_matches(&mut a, &mut b, &fail, &ctx);
                    moves += m.len();
                    sleeps += s.len();
                }
            }
        }
        assert!(
            moves > 500 && sleeps > 200,
            "{moves} moves, {sleeps} sleeps"
        );
    }

    /// Rounds right after a server joins and after one is retired: the
    /// stage scratch, receiver index included, was rebuilt for the new
    /// arena.
    #[test]
    fn rounds_match_after_topology_edits() {
        for policy in [
            ConsolidationPolicyChoice::HotZonesFirst,
            ConsolidationPolicyChoice::MostHeadroomReceivers,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let (mut a, mut b, n_apps) = twins(&mut rng, policy);
            step_both(&mut a, &mut b, &mut rng, n_apps);
            let parent = a.tree.nodes_at_level(1)[0];
            for w in [&mut a, &mut b] {
                w.submit_command(Command::AddServer {
                    parent,
                    name: "added".into(),
                });
            }
            step_both(&mut a, &mut b, &mut rng, n_apps);
            let added = a.servers.len() - 1;
            assert_eq!(a.servers[added].fence, crate::server::FenceState::Active);
            assert_round_matches(&mut a, &mut b, &outcomes(&mut rng), "after add");

            // Drain a server until it is fenced, then retire it.
            let gone = 1;
            for w in [&mut a, &mut b] {
                w.force_wake(gone);
                w.submit_command(Command::Drain { server: gone });
            }
            while a.servers[gone].fence != crate::server::FenceState::Fenced {
                step_both(&mut a, &mut b, &mut rng, n_apps);
            }
            for w in [&mut a, &mut b] {
                w.submit_command(Command::RemoveServer { server: gone });
            }
            scatter(&mut a, &mut b, &mut rng);
            step_both(&mut a, &mut b, &mut rng, n_apps);
            assert_eq!(a.servers[gone].fence, crate::server::FenceState::Retired);
            let (moves, _) =
                assert_round_matches(&mut a, &mut b, &outcomes(&mut rng), "after remove");
            assert!(!moves.is_empty(), "{policy:?}: the round must plan");
        }
    }

    /// The hottest server is woken empty, so it is the round's first
    /// victim: it sleeps and must never receive load afterwards.
    #[test]
    fn empty_first_victim_sleeps_and_leaves_the_receivers() {
        for policy in [
            ConsolidationPolicyChoice::HotZonesFirst,
            ConsolidationPolicyChoice::MostHeadroomReceivers,
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let (mut a, mut b, n_apps) = twins(&mut rng, policy);
            for _ in 0..3 {
                step_both(&mut a, &mut b, &mut rng, n_apps);
            }
            // Empty one hot-zone server by hand (on both twins), then
            // wake every sleeper: it is the lowest-cap emptiest victim.
            let first = 0;
            for w in [&mut a, &mut b] {
                w.force_wake(first);
                let to = (1..w.servers.len()).find(|&i| w.servers[i].active).unwrap();
                loop {
                    let Some(app) = w.apps.on(first).next() else {
                        break;
                    };
                    w.rehost(app, to);
                }
                for si in 0..w.servers.len() {
                    w.force_wake(si);
                }
            }
            let mut victims: Vec<usize> = (0..a.servers.len())
                .filter(|&i| a.utilization(i) < a.config.consolidation_threshold)
                .collect();
            a.order_victims(&mut victims);
            assert_eq!(victims[0], first, "{policy:?}");
            let leaf = a.servers[first].node;
            let (moves, slept) = assert_round_matches(&mut a, &mut b, &[], "empty first victim");
            assert_eq!(slept[0], leaf);
            assert!(
                !moves.is_empty(),
                "{policy:?}: the round must go on to plan"
            );
            assert!(moves.iter().all(|m| m.to != leaf), "{policy:?}");
        }
    }
}
