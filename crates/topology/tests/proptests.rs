//! Property-based tests for the PMU tree.

use proptest::prelude::*;
use willow_topology::{NodeId, TopologySpec, Tree, TreeError};

prop_compose! {
    /// Uniform trees with 1–4 levels and branching 1–4 per level.
    fn uniform_tree()(branching in prop::collection::vec(1usize..5, 1..4)) -> Tree {
        Tree::uniform(&branching)
    }
}

/// A random *non-uniform* spec with uniform leaf depth: every node at depth
/// `d` gets `1 + hash(seed, path) % widths[d]` children, so sibling subtrees
/// differ in width while all leaves stay at the same level (a requirement of
/// `TopologySpec::build`).
fn ragged_spec(widths: &[usize], seed: u64, path: u64) -> TopologySpec {
    if widths.is_empty() {
        return TopologySpec::leaf(format!("s{path}"));
    }
    let h = (seed ^ path).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let k = 1 + (h as usize) % widths[0];
    TopologySpec::branch(
        format!("n{path}"),
        (0..k)
            .map(|i| ragged_spec(&widths[1..], seed, path * 8 + i as u64 + 1))
            .collect(),
    )
}

proptest! {
    /// Structural invariants hold for every uniform tree.
    #[test]
    fn structural_invariants(tree in uniform_tree()) {
        // Level partition covers all nodes exactly once.
        let total: usize = (0..=tree.height()).map(|l| tree.nodes_at_level(l).len()).sum();
        prop_assert_eq!(total, tree.len());
        // Parent/child mutual consistency and level arithmetic.
        for id in tree.ids() {
            for &c in tree.children(id) {
                prop_assert_eq!(tree.parent(c), Some(id));
                prop_assert_eq!(tree.level(c) + 1, tree.level(id));
            }
        }
        // Exactly one root.
        let roots = tree.ids().filter(|&n| tree.parent(n).is_none()).count();
        prop_assert_eq!(roots, 1);
    }

    /// LCA is symmetric, idempotent and dominates both arguments.
    #[test]
    fn lca_properties(tree in uniform_tree(), a_pick in 0usize..64, b_pick in 0usize..64) {
        let nodes: Vec<_> = tree.ids().collect();
        let a = nodes[a_pick % nodes.len()];
        let b = nodes[b_pick % nodes.len()];
        let l = tree.lca(a, b);
        prop_assert_eq!(l, tree.lca(b, a));
        prop_assert_eq!(tree.lca(a, a), a);
        // l is an ancestor-or-self of both.
        let anc_or_self = |n| std::iter::once(n).chain(tree.ancestors(n)).any(|x| x == l);
        prop_assert!(anc_or_self(a));
        prop_assert!(anc_or_self(b));
    }

    /// Path length is a metric restricted to the tree: symmetric, zero iff
    /// equal, and satisfies the triangle inequality.
    #[test]
    fn path_len_is_a_metric(tree in uniform_tree(), picks in prop::array::uniform3(0usize..64)) {
        let nodes: Vec<_> = tree.ids().collect();
        let a = nodes[picks[0] % nodes.len()];
        let b = nodes[picks[1] % nodes.len()];
        let c = nodes[picks[2] % nodes.len()];
        prop_assert_eq!(tree.path_len(a, b), tree.path_len(b, a));
        prop_assert_eq!(tree.path_len(a, a), 0);
        if a != b {
            prop_assert!(tree.path_len(a, b) > 0);
        }
        prop_assert!(tree.path_len(a, c) <= tree.path_len(a, b) + tree.path_len(b, c));
    }

    /// Subtree leaves of the root are exactly all leaves; sibling subtrees
    /// partition the parent's leaves.
    #[test]
    fn subtree_leaves_partition(tree in uniform_tree()) {
        let all: Vec<_> = tree.leaves().collect();
        prop_assert_eq!(tree.subtree_leaves(tree.root()), all);
        for id in tree.ids() {
            let children = tree.children(id);
            if children.is_empty() { continue; }
            let mut union: Vec<_> = children
                .iter()
                .flat_map(|&c| tree.subtree_leaves(c))
                .collect();
            union.sort_unstable();
            prop_assert_eq!(union, tree.subtree_leaves(id));
        }
    }

    /// The cached Euler-tour leaf ranges agree with the walk-based
    /// `subtree_leaves` for every node of a random `TopologySpec` tree, and
    /// the O(1) containment/position queries match ancestry ground truth.
    #[test]
    fn leaf_ranges_agree_with_subtree_leaves(
        widths in prop::collection::vec(1usize..5, 1..4),
        seed in 0u64..u64::MAX,
    ) {
        let spec = ragged_spec(&widths, seed, 0);
        let tree = spec.build().expect("specs generated with uniform leaf depth");
        for id in tree.ids() {
            let mut from_range = tree.leaf_range(id).to_vec();
            from_range.sort_unstable();
            prop_assert_eq!(from_range, tree.subtree_leaves(id));
        }
        for (pos, &leaf) in tree.leaf_order().iter().enumerate() {
            prop_assert_eq!(tree.leaf_position(leaf), Some(pos));
        }
        for id in tree.ids() {
            for leaf in tree.leaves() {
                let expected = leaf == id || tree.ancestors(leaf).any(|a| a == id);
                prop_assert_eq!(tree.subtree_contains(id, leaf), expected);
            }
        }
    }

    /// Arena slot reuse across online add → retire → re-add sequences:
    /// removal leaves a tombstone (the arena never shrinks, so
    /// index-parallel state vectors stay valid), the next insertion reuses
    /// the lowest tombstone slot, and every derived index — level CSR,
    /// Euler-tour leaf ranges, leaf positions — stays coherent after every
    /// edit.
    #[test]
    fn slot_reuse_across_add_retire_readd(
        branching in prop::collection::vec(2usize..4, 2..4),
        ops in prop::collection::vec((0usize..64, 0u8..2), 1..24),
    ) {
        let mut tree = Tree::uniform(&branching);
        let mut detached: Vec<NodeId> = Vec::new();
        let mut next_name = 0usize;
        for (pick, op) in ops {
            if op == 1 {
                let parents = tree.nodes_at_level(1).to_vec();
                let parent = parents[pick % parents.len()];
                let expected_slot = tree.detached_slots().next();
                let len_before = tree.len();
                let name = format!("re{next_name}");
                let (edited, id) = tree
                    .insert_leaf(parent, &name)
                    .expect("a live level-1 parent accepts a fresh name");
                prop_assert!(tree.find(&name).is_none(), "the source tree is unchanged");
                prop_assert_eq!(tree.len(), len_before);
                tree = edited;
                next_name += 1;
                match expected_slot {
                    Some(slot) => {
                        prop_assert_eq!(id, slot, "lowest tombstone slot is reused");
                        prop_assert_eq!(tree.len(), len_before, "reuse never grows the arena");
                        detached.retain(|&r| r != slot);
                    }
                    None => {
                        prop_assert_eq!(id.index(), len_before, "no tombstone: arena grows by one");
                        prop_assert_eq!(tree.len(), len_before + 1);
                    }
                }
                prop_assert_eq!(tree.parent(id), Some(parent));
                prop_assert!(tree.is_leaf(id));
                prop_assert!(tree.leaf_position(id).is_some());
            } else {
                let leaves: Vec<NodeId> = tree.leaves().collect();
                let leaf = leaves[pick % leaves.len()];
                let parent = tree.parent(leaf).expect("leaves are not the root");
                let len_before = tree.len();
                match tree.remove_leaf(leaf) {
                    Ok(edited) => {
                        prop_assert!(!tree.is_detached(leaf), "the source tree is unchanged");
                        tree = edited;
                        prop_assert!(tree.is_detached(leaf));
                        prop_assert_eq!(tree.len(), len_before, "removal tombstones, never shrinks");
                        detached.push(leaf);
                    }
                    Err(TreeError::LastChild(p)) => {
                        // Rejected atomically: the leaf stays live.
                        prop_assert_eq!(p, parent);
                        prop_assert!(!tree.is_detached(leaf));
                    }
                    Err(e) => prop_assert!(false, "unexpected removal error {:?}", e),
                }
            }
            // Derived-index coherence after every edit.
            prop_assert_eq!(tree.live_len(), tree.len() - detached.len());
            let by_level: usize =
                (0..=tree.height()).map(|l| tree.nodes_at_level(l).len()).sum();
            prop_assert_eq!(by_level, tree.live_len(), "level CSR excludes tombstones");
            for &slot in &detached {
                prop_assert!(tree.is_detached(slot));
                prop_assert_eq!(tree.leaf_position(slot), None);
            }
            let mut root_range = tree.leaf_range(tree.root()).to_vec();
            root_range.sort_unstable();
            let mut live: Vec<NodeId> = tree.leaves().collect();
            live.sort_unstable();
            prop_assert_eq!(root_range, live, "root Euler range covers exactly the live leaves");
        }
    }

    /// Spec round-trip preserves the shape of any uniform tree.
    #[test]
    fn spec_round_trip(tree in uniform_tree()) {
        let spec = TopologySpec::from_tree(&tree);
        let rebuilt = spec.build().expect("round-trip builds");
        prop_assert_eq!(rebuilt.len(), tree.len());
        prop_assert_eq!(rebuilt.height(), tree.height());
        prop_assert_eq!(rebuilt.leaves().count(), tree.leaves().count());
        for l in 0..=tree.height() {
            prop_assert_eq!(
                rebuilt.nodes_at_level(l).len(),
                tree.nodes_at_level(l).len()
            );
        }
    }
}
