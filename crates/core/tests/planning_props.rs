//! Property tests for the planning seam: every leaf of a
//! [`PlanningContext`] is a plain Holt forecaster fed only its own stream,
//! and the whole context survives a JSON round trip bit for bit.

use proptest::prelude::*;
use willow_core::control::planning::{PLANNING_ALPHA, PLANNING_BETA, PLANNING_GAINS};
use willow_core::control::PlanningContext;
use willow_thermal::units::Watts;
use willow_workload::smoothing::{Gains, Smoother};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-leaf forecasters are independent: after any interleaving of
    /// observations across leaves (roster growth included), each leaf
    /// equals a standalone `Smoother` fed that leaf's own stream under Holt
    /// gains built from `PLANNING_ALPHA`/`PLANNING_BETA`. The context then round-trips through JSON with
    /// every level and trend bit intact.
    #[test]
    fn context_leaves_are_independent_and_serializable(
        n_servers in 1usize..6,
        added in 0usize..3,
        observations in prop::collection::vec((0usize..8, 0.0f64..1e6), 0..96),
    ) {
        let holt = Gains { alpha: PLANNING_ALPHA, beta: Some(PLANNING_BETA) };
        let mut ctx = PlanningContext::for_servers(n_servers);
        let mut shadow = vec![Smoother::default(); n_servers];
        for (k, &(leaf, value)) in observations.iter().enumerate() {
            // Grow the roster part-way through the run.
            if shadow.len() < n_servers + added && k % 16 == 15 {
                ctx.push_server();
                shadow.push(Smoother::default());
            }
            let leaf = leaf % shadow.len();
            ctx.leaves[leaf].observe(PLANNING_GAINS, Watts(value));
            shadow[leaf].observe(holt, Watts(value));
        }
        prop_assert_eq!(&ctx.leaves, &shadow);
        for (si, leaf) in shadow.iter().enumerate() {
            prop_assert_eq!(ctx.predicted_leaf_demand(si, 3), leaf.forecast(3));
        }

        let json = serde_json::to_string(&ctx).expect("context serializes");
        let back: PlanningContext = serde_json::from_str(&json).expect("context parses");
        for (a, b) in back.leaves.iter().zip(&ctx.leaves) {
            let bits = |s: &Smoother| {
                (s.level().map(|w| w.0.to_bits()), s.trend().map(|w| w.0.to_bits()))
            };
            prop_assert_eq!(bits(a), bits(b));
        }
        prop_assert_eq!(back, ctx);
    }
}
