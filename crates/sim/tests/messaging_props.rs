//! Property-based tests for the message-plane emulation: the §V-A1 delay
//! bounds hold over random topologies and latencies, and zero-probability
//! fault injection is exactly invisible.

use proptest::prelude::*;
use willow_sim::messaging::{
    emulate_round, FaultyRoundOutcome, MessageFaults, RoundOutcome, RoundScratch,
};
use willow_thermal::units::{Seconds, Watts};
use willow_topology::Tree;

/// A fault-free round on fresh scratch.
fn clean_round(tree: &Tree, alpha: Seconds, demands: &[Watts], supply: Watts) -> RoundOutcome {
    faulty_round(tree, alpha, demands, supply, &MessageFaults::default(), 0).outcome
}

/// A round under `faults` on fresh scratch.
fn faulty_round(
    tree: &Tree,
    alpha: Seconds,
    demands: &[Watts],
    supply: Watts,
    faults: &MessageFaults,
    seed: u64,
) -> FaultyRoundOutcome {
    let mut scratch = RoundScratch::default();
    emulate_round(tree, alpha, demands, supply, faults, seed, &mut scratch)
}

prop_compose! {
    /// Uniform trees with 1–4 levels and branching 1–4 per level.
    fn uniform_tree()(branching in prop::collection::vec(1usize..5, 1..4)) -> Tree {
        Tree::uniform(&branching)
    }
}

proptest! {
    /// The measured one-way convergence never exceeds the paper's bound
    /// δ ≤ h·α, and the full round trip never exceeds 2·h·α — for every
    /// tree shape, per-hop latency and demand profile.
    #[test]
    fn convergence_respects_height_bounds(
        tree in uniform_tree(),
        alpha in 0.001f64..0.2,
        demand in 0.0f64..100.0,
    ) {
        let h = tree.height() as f64;
        let demands = vec![Watts(demand); tree.leaves().count()];
        let out = clean_round(&tree, Seconds(alpha), &demands, Watts(1000.0));
        prop_assert!(
            out.root_converged_at.unwrap().0 <= h * alpha + 1e-9,
            "upward δ {} exceeds h·α = {}",
            out.root_converged_at.unwrap().0,
            h * alpha
        );
        prop_assert!(
            out.leaves_converged_at.unwrap().0 <= 2.0 * h * alpha + 1e-9,
            "round trip {} exceeds 2·h·α = {}",
            out.leaves_converged_at.unwrap().0,
            2.0 * h * alpha
        );
        // The root's aggregate is the exact demand sum.
        let total: f64 = demands.iter().map(|w| w.0).sum();
        prop_assert!((out.root_view.0 - total).abs() < 1e-6);
    }

    /// Message complexity is exactly two per tree link (Property 3),
    /// independent of shape, latency and demands.
    #[test]
    fn two_messages_per_link(tree in uniform_tree(), alpha in 0.001f64..0.2) {
        let demands = vec![Watts(7.0); tree.leaves().count()];
        let out = clean_round(&tree, Seconds(alpha), &demands, Watts(500.0));
        prop_assert_eq!(out.messages, 2 * (tree.len() - 1));
    }

    /// A fault config with every probability at zero is bit-identical to
    /// the fault-free emulation for any seed — fault injection disabled is
    /// truly disabled.
    #[test]
    fn zero_fault_rounds_are_invisible(
        tree in uniform_tree(),
        alpha in 0.001f64..0.2,
        seed in 0u64..1_000_000,
    ) {
        let demands = vec![Watts(11.0); tree.leaves().count()];
        let clean = clean_round(&tree, Seconds(alpha), &demands, Watts(900.0));
        let faulty = faulty_round(
            &tree,
            Seconds(alpha),
            &demands,
            Watts(900.0),
            &MessageFaults::default(),
            seed,
        );
        prop_assert_eq!(&faulty.outcome, &clean);
        prop_assert_eq!(faulty.lost + faulty.duplicated + faulty.delayed, 0);
        prop_assert_eq!(faulty.deliveries, clean.messages);
    }

    /// Under loss, delay and duplication, every logical message is still
    /// delivered exactly once, the aggregate view is unskewed, and
    /// convergence is never *earlier* than the fault-free round.
    #[test]
    fn faulty_rounds_converge_late_but_correct(
        tree in uniform_tree(),
        loss in 0.0f64..0.6,
        dup in 0.0f64..0.5,
        delay in 0.0f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let alpha = Seconds(0.02);
        let demands = vec![Watts(13.0); tree.leaves().count()];
        let clean = clean_round(&tree, alpha, &demands, Watts(900.0));
        let faults = MessageFaults {
            loss,
            duplication: dup,
            delay,
            dead_link: None,
        };
        let f = faulty_round(&tree, alpha, &demands, Watts(900.0), &faults, seed);
        prop_assert_eq!(f.outcome.messages, clean.messages);
        prop_assert_eq!(f.outcome.root_view, clean.root_view);
        prop_assert!(f.outcome.root_converged_at.unwrap().0 >= clean.root_converged_at.unwrap().0 - 1e-9);
        prop_assert!(f.outcome.leaves_converged_at.unwrap().0 >= clean.leaves_converged_at.unwrap().0 - 1e-9);
        prop_assert!(f.outcome.converged());
        prop_assert_eq!(f.deliveries, f.outcome.messages + f.duplicated);
    }
}
