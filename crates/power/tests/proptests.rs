//! Property-based tests for budgeting and supply substrates.

use proptest::prelude::*;
use willow_power::allocation::allocate_proportional;
use willow_power::storage::Battery;
use willow_thermal::units::{Seconds, Watts};

prop_compose! {
    fn instance()(
        pairs in prop::collection::vec((0.0f64..500.0, 0.0f64..500.0), 0..10),
        total in 0.0f64..3000.0,
    ) -> (Watts, Vec<Watts>, Vec<Watts>) {
        let demands = pairs.iter().map(|p| Watts(p.0)).collect();
        let caps = pairs.iter().map(|p| Watts(p.1)).collect();
        (Watts(total), demands, caps)
    }
}

proptest! {
    /// Allocation conserves budget: the sum of child budgets equals
    /// min(total, Σcaps); no child exceeds its cap or goes negative.
    #[test]
    fn allocation_conserves_and_respects_caps((total, demands, caps) in instance()) {
        let budgets = allocate_proportional(total, &demands, &caps).unwrap();
        let cap_sum: f64 = caps.iter().map(|c| c.0).sum();
        let allocated: f64 = budgets.iter().map(|b| b.0).sum();
        prop_assert!((allocated - total.0.min(cap_sum)).abs() < 1e-6);
        for (b, c) in budgets.iter().zip(&caps) {
            prop_assert!(b.0 >= -1e-9);
            prop_assert!(b.0 <= c.0 + 1e-9);
        }
    }

    /// When the supply covers total demand, every child's demand is met
    /// (up to its own cap) — §IV-D action 1: under-provisioned nodes get
    /// enough to satisfy demand.
    #[test]
    fn ample_supply_satisfies_capped_demand((_, demands, caps) in instance()) {
        let total: f64 = demands.iter().map(|d| d.0).sum::<f64>() + 1000.0;
        let budgets = allocate_proportional(Watts(total), &demands, &caps).unwrap();
        for ((b, d), c) in budgets.iter().zip(&demands).zip(&caps) {
            let want = d.0.min(c.0);
            prop_assert!(
                b.0 >= want - 1e-6,
                "budget {} below capped demand {}",
                b.0, want
            );
        }
    }

    /// Allocation is homogeneous: scaling total, demands and caps by a
    /// positive constant scales the budgets by the same constant.
    #[test]
    fn allocation_is_scale_invariant((total, demands, caps) in instance(), k in 0.1f64..10.0) {
        let a = allocate_proportional(total, &demands, &caps).unwrap();
        let sd: Vec<Watts> = demands.iter().map(|d| *d * k).collect();
        let sc: Vec<Watts> = caps.iter().map(|c| *c * k).collect();
        let b = allocate_proportional(total * k, &sd, &sc).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.0 * k - y.0).abs() < 1e-6 * (1.0 + x.0 * k));
        }
    }

    /// Battery energy conservation: stored energy changes by exactly the
    /// settled amounts and never leaves [0, capacity].
    #[test]
    fn battery_stays_in_bounds(
        steps in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..50),
        soc in 0.0f64..1.0,
    ) {
        let mut b = Battery::new(50_000.0, soc, Watts(400.0), Watts(400.0), 0.9);
        for (raw, consumed) in steps {
            let before = b.charge_j;
            let flow = b.settle(Watts(raw), Watts(consumed), Seconds(5.0));
            prop_assert!(b.charge_j >= -1e-9 && b.charge_j <= b.capacity_j + 1e-9);
            // Discharge reduces charge; charge increases it.
            if flow.0 > 0.0 {
                prop_assert!(b.charge_j <= before);
            } else {
                prop_assert!(b.charge_j >= before);
            }
            // Power limits respected.
            prop_assert!(flow.0.abs() <= 400.0 + 1e-9);
        }
    }
}
