//! Property tests for the per-node power state the controller runs on.

use proptest::prelude::*;
use willow_core::state::PowerState;
use willow_thermal::units::Watts;
use willow_topology::Tree;

proptest! {
    /// Eq. 9 sanity on `PowerState::level_imbalance`: with random demands
    /// and budgets on one level of a small tree, the imbalance is always
    /// within [P_def, 2·P_def], and zero iff no node of that level is in
    /// deficit.
    #[test]
    fn imbalance_bounds(
        pods in 1usize..4,
        per_pod in 1usize..4,
        level in 0u8..2,
        pairs in prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 9),
    ) {
        let tree = Tree::uniform(&[pods, per_pod]);
        let mut state = PowerState::new(&tree);
        let nodes = tree.nodes_at_level(level);
        let mut p_def = 0.0f64;
        for (node, &(demand, budget)) in nodes.iter().zip(&pairs) {
            state.cp[node.index()] = Watts(demand);
            state.tp[node.index()] = Watts(budget);
            p_def = p_def.max(demand - budget);
        }
        let imb = state.level_imbalance(&tree, level);
        prop_assert!(imb.0 >= p_def);
        prop_assert!(imb.0 <= 2.0 * p_def + 1e-9);
        prop_assert_eq!(imb == Watts::ZERO, p_def <= 0.0);
    }
}
