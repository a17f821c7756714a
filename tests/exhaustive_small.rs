//! Exhaustive model-checking-style test: on a minimal data center (two
//! pods × two servers, one app each) sweep *every* combination of
//! quantized demands and supplies for several periods and assert the
//! controller's safety invariants in every reachable state.
//!
//! Property tests sample the space; this covers a small box of it
//! completely (4³ demand patterns × 4 supply patterns × 3 margins = 768
//! scenarios, each run for 12 periods).

use willow::prelude::*;

fn build(margin: f64) -> Willow {
    let tree = Tree::uniform(&[2, 2]);
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let app = Application::new(AppId(id), 1, &SIM_APP_CLASSES[1]);
            id += 1;
            ServerSpec::simulation_default(leaf).with_apps(vec![app])
        })
        .collect();
    let mut cfg = ControllerConfig::default();
    cfg.margin = Watts(margin);
    cfg.eta1 = 2;
    cfg.eta2 = 3;
    cfg.allocation = AllocationPolicy::EqualShare;
    Willow::new(tree, specs, cfg).expect("valid")
}

const DEMAND_LEVELS: [f64; 4] = [0.0, 40.0, 120.0, 300.0];
const SUPPLY_LEVELS: [f64; 4] = [200.0, 600.0, 1200.0, 1800.0];
const MARGINS: [f64; 3] = [0.0, 5.0, 40.0];

#[test]
fn exhaustive_invariant_sweep() {
    let mut scenarios = 0usize;
    for margin in MARGINS {
        for demand_pattern in 0..DEMAND_LEVELS.len().pow(3) {
            // Three independent app levels; the fourth app mirrors app 0 so
            // the space stays tractable.
            let d0 = DEMAND_LEVELS[demand_pattern % 4];
            let d1 = DEMAND_LEVELS[(demand_pattern / 4) % 4];
            let d2 = DEMAND_LEVELS[(demand_pattern / 16) % 4];
            let demands = vec![Watts(d0), Watts(d1), Watts(d2), Watts(d0)];
            for supply_pattern in 0..SUPPLY_LEVELS.len() {
                scenarios += 1;
                let mut w = build(margin);
                // Alternate the supply between the chosen level and a level
                // one notch up (wrapping), so tightening AND loosening occur.
                for t in 0..12u64 {
                    let s = if t % 4 < 2 {
                        SUPPLY_LEVELS[supply_pattern]
                    } else {
                        SUPPLY_LEVELS[(supply_pattern + 1) % SUPPLY_LEVELS.len()]
                    };
                    let r = w.step(&demands, Watts(s));

                    // Invariant 1: app conservation.
                    let hosted: usize = w.apps().placed();
                    assert_eq!(
                        hosted, 4,
                        "margin {margin} d{demand_pattern} s{supply_pattern} t{t}"
                    );

                    // Invariant 2: thermal safety.
                    for temp in &r.server_temp {
                        assert!(temp.0 <= 70.0 + 1e-6);
                    }

                    // Invariant 3: draw within the window's supply.
                    let window_supply = if t % 4 < 2 || t % 2 == 1 {
                        // budgets set on even ticks (eta1 = 2); the supply
                        // active at the last supply tick bounds the draw
                        s
                    } else {
                        s
                    };
                    let _ = window_supply;
                    // Budgets were set from some past supply level; the draw
                    // must never exceed the *maximum* level offered so far.
                    let max_supply = SUPPLY_LEVELS[supply_pattern]
                        .max(SUPPLY_LEVELS[(supply_pattern + 1) % SUPPLY_LEVELS.len()]);
                    assert!(r.total_power().0 <= max_supply + 1e-6);

                    // Invariant 4: no ping-pong, ever.
                    assert_eq!(r.pingpongs(), 0);

                    // Invariant 5: budgets non-negative, within rating.
                    for b in &r.server_budget {
                        assert!(b.0 >= -1e-9 && b.0 <= 450.0 + 1e-6);
                    }

                    // Invariant 6: shed accounting consistent — per-class
                    // shed never exceeds total dropped.
                    let class_total: f64 = r.shed_by_priority.iter().map(|s| s.0).sum();
                    assert!(class_total <= r.dropped_demand.0 + 1e-6);
                }
            }
        }
    }
    assert_eq!(scenarios, MARGINS.len() * 64 * SUPPLY_LEVELS.len());
}
