//! Property-based integration tests: random topologies, placements,
//! demands and supplies — the controller's safety invariants must hold for
//! all of them.

use proptest::prelude::*;
use willow::core::config::{AllocationPolicy, ControllerConfig, PackerChoice};
use willow::core::controller::Willow;
use willow::core::server::ServerSpec;
use willow::thermal::units::{Celsius, Watts};
use willow::topology::Tree;
use willow::workload::app::{AppId, Application, SIM_APP_CLASSES};

#[derive(Debug, Clone)]
struct Scenario {
    branching: Vec<usize>,
    apps_per_server: usize,
    demand_scale: f64,
    supply: f64,
    hot_fraction: f64,
    packer: PackerChoice,
    allocation: AllocationPolicy,
    steps: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(2usize..4, 1..3),
        1usize..4,
        0.05f64..0.9,
        500.0f64..9000.0,
        0.0f64..0.5,
        prop_oneof![
            Just(PackerChoice::Ffdlr),
            Just(PackerChoice::FirstFitDecreasing),
            Just(PackerChoice::BestFitDecreasing),
            Just(PackerChoice::NextFit),
        ],
        prop_oneof![
            Just(AllocationPolicy::ProportionalToDemand),
            Just(AllocationPolicy::EqualShare),
            Just(AllocationPolicy::ProportionalToCapacity),
        ],
        5usize..25,
    )
        .prop_map(
            |(
                branching,
                apps_per_server,
                demand_scale,
                supply,
                hot_fraction,
                packer,
                allocation,
                steps,
            )| {
                Scenario {
                    branching,
                    apps_per_server,
                    demand_scale,
                    supply,
                    hot_fraction,
                    packer,
                    allocation,
                    steps,
                }
            },
        )
}

fn build(s: &Scenario) -> (Willow, usize) {
    let tree = Tree::uniform(&s.branching);
    let n_servers = tree.leaves().count();
    let hot_count = (n_servers as f64 * s.hot_fraction) as usize;
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .enumerate()
        .map(|(i, leaf)| {
            let apps: Vec<Application> = (0..s.apps_per_server)
                .map(|_| {
                    let class = id as usize % SIM_APP_CLASSES.len();
                    let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                    id += 1;
                    a
                })
                .collect();
            let mut spec = ServerSpec::simulation_default(leaf).with_apps(apps);
            if i >= n_servers - hot_count {
                spec.ambient = Celsius(40.0);
            }
            spec
        })
        .collect();
    let mut cfg = ControllerConfig::default();
    cfg.packer = s.packer;
    cfg.allocation = s.allocation;
    let w = Willow::new(tree, specs, cfg).unwrap();
    (w, id as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safety invariants under arbitrary configurations and drives:
    /// apps conserved, budgets within caps, thermal limits respected,
    /// drawn power within supply, message bound held.
    #[test]
    fn controller_safety_invariants(s in scenario()) {
        let (mut w, n_apps) = build(&s);
        let links = w.tree().len() - 1;
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| {
                let class = i % SIM_APP_CLASSES.len();
                SIM_APP_CLASSES[class].mean_power * s.demand_scale
            })
            .collect();
        for t in 0..s.steps {
            // Vary supply deterministically, but only at the supply
            // granularity Δ_S — within a window the UPS rides out dips
            // (§IV-C), so budgets (and hence draw) follow the value that
            // was current at the window start.
            let window = t / w.config().eta1 as usize;
            let supply = Watts(s.supply * (0.7 + 0.3 * ((window % 5) as f64 / 4.0)));
            let r = w.step(&demands, supply);

            // Conservation.
            let hosted: usize = w.apps().placed();
            prop_assert_eq!(hosted, n_apps);

            // Thermal safety.
            for (i, temp) in r.server_temp.iter().enumerate() {
                prop_assert!(temp.0 <= 70.0 + 1e-6, "server {} at {}", i, temp);
            }

            // Supply ceiling.
            prop_assert!(r.total_power().0 <= supply.0 + 1e-6);

            // Budgets non-negative and within rating.
            for b in &r.server_budget {
                prop_assert!(b.0 >= -1e-9 && b.0 <= 450.0 + 1e-6);
            }

            // Property 3.
            prop_assert!(r.control_messages <= 2 * links);

            // Power accounting: dropped demand is never negative.
            prop_assert!(r.dropped_demand.0 >= -1e-9);
        }
    }

    /// Migration records are internally consistent: hops match the tree
    /// path, locality matches siblingship, and moved demand is positive.
    #[test]
    fn migration_records_consistent(s in scenario()) {
        let (mut w, n_apps) = build(&s);
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| {
                let class = i % SIM_APP_CLASSES.len();
                SIM_APP_CLASSES[class].mean_power * s.demand_scale
            })
            .collect();
        for t in 0..s.steps {
            let supply = Watts(s.supply * (0.6 + 0.4 * ((t % 3) as f64 / 2.0)));
            let r = w.step(&demands, supply);
            for m in &r.migrations {
                prop_assert_ne!(m.from, m.to);
                prop_assert!(m.moved.0 >= 0.0);
                prop_assert_eq!(m.local, w.tree().are_siblings(m.from, m.to));
                prop_assert_eq!(m.hops + 1, w.tree().path_len(m.from, m.to));
            }
        }
    }
}
