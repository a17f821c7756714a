//! Per-node power state: smoothed demands, budgets, hard caps, and the
//! budget-reduction flags behind the unidirectional target rule.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};

/// Struct-of-arrays power state, indexed by PMU-tree arena index.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PowerState {
    /// Smoothed demand `CP_{l,i}` per node (leaves smoothed, interiors are
    /// sums of their children — the upward report path of Fig. 2).
    pub cp: Vec<Watts>,
    /// Allocated budget `TP_{l,i}` per node.
    pub tp: Vec<Watts>,
    /// Hard cap per node (thermal limit ∧ circuit rating for leaves; sum of
    /// children caps for interior nodes).
    pub cap: Vec<Watts>,
    /// True if the node's budget was *disproportionately* reduced in the
    /// last supply event (see `ReducedTargetRule`).
    pub reduced: Vec<bool>,
}

impl Clone for PowerState {
    fn clone(&self) -> Self {
        PowerState {
            cp: self.cp.clone(),
            tp: self.tp.clone(),
            cap: self.cap.clone(),
            reduced: self.reduced.clone(),
        }
    }

    /// Vector by vector, so a warm checkpoint reuses every buffer.
    fn clone_from(&mut self, source: &Self) {
        self.cp.clone_from(&source.cp);
        self.tp.clone_from(&source.tp);
        self.cap.clone_from(&source.cap);
        self.reduced.clone_from(&source.reduced);
    }
}

impl PowerState {
    /// Zero-initialized state for `tree`.
    #[must_use]
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        PowerState {
            cp: vec![Watts::ZERO; n],
            tp: vec![Watts::ZERO; n],
            cap: vec![Watts::ZERO; n],
            reduced: vec![false; n],
        }
    }

    /// Grow every per-node array to at least `n` slots (zero-filled), for
    /// online leaf insertion. No-op if the arrays already cover `n`;
    /// removal keeps the arena size, so arrays only ever grow.
    pub fn ensure_len(&mut self, n: usize) {
        if n <= self.cp.len() {
            return;
        }
        self.cp.resize(n, Watts::ZERO);
        self.tp.resize(n, Watts::ZERO);
        self.cap.resize(n, Watts::ZERO);
        self.reduced.resize(n, false);
    }

    /// Per-node deficit `[CP − TP]⁺` (Eq. 5).
    #[must_use]
    pub fn deficit(&self, id: NodeId) -> Watts {
        (self.cp[id.index()] - self.tp[id.index()]).non_negative()
    }

    /// Per-node surplus `[TP − CP]⁺` (Eq. 6).
    #[must_use]
    pub fn surplus(&self, id: NodeId) -> Watts {
        (self.tp[id.index()] - self.cp[id.index()]).non_negative()
    }

    /// Level-wide imbalance (Eq. 9) over the nodes of `level`. One pass
    /// folds both maxima; `max` does not round, so this equals two
    /// separate folds bit for bit.
    #[must_use]
    pub fn level_imbalance(&self, tree: &Tree, level: u8) -> Watts {
        let (p_def, p_sur) = tree
            .nodes_at_level(level)
            .iter()
            .fold((Watts::ZERO, Watts::ZERO), |(def, sur), &n| {
                (def.max(self.deficit(n)), sur.max(self.surplus(n)))
            });
        p_def + p_def.min(p_sur)
    }

    /// Recompute interior `CP` values bottom-up as sums of children —
    /// the one-way upward update propagation of §V-A1. Leaf values must
    /// already be in place.
    pub fn aggregate_demands(&mut self, tree: &Tree) {
        for level in 1..=tree.height() {
            for &node in tree.nodes_at_level(level) {
                let sum: Watts = tree.children(node).iter().map(|c| self.cp[c.index()]).sum();
                self.cp[node.index()] = sum;
            }
        }
    }

    /// Recompute interior caps bottom-up as sums of children caps. Leaf
    /// caps must already be in place.
    pub fn aggregate_caps(&mut self, tree: &Tree) {
        for level in 1..=tree.height() {
            for &node in tree.nodes_at_level(level) {
                let sum: Watts = tree
                    .children(node)
                    .iter()
                    .map(|c| self.cap[c.index()])
                    .sum();
                self.cap[node.index()] = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_level_tree() -> Tree {
        Tree::uniform(&[2, 2])
    }

    #[test]
    fn aggregation_sums_children() {
        let tree = three_level_tree();
        let mut s = PowerState::new(&tree);
        for (i, leaf) in tree.leaves().enumerate() {
            s.cp[leaf.index()] = Watts((i + 1) as f64 * 10.0);
        }
        s.aggregate_demands(&tree);
        assert_eq!(s.cp[tree.root().index()], Watts(100.0));
        let mid = tree.nodes_at_level(1);
        let total: f64 = mid.iter().map(|n| s.cp[n.index()].0).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn caps_aggregate_too() {
        let tree = three_level_tree();
        let mut s = PowerState::new(&tree);
        for leaf in tree.leaves() {
            s.cap[leaf.index()] = Watts(450.0);
        }
        s.aggregate_caps(&tree);
        assert_eq!(s.cap[tree.root().index()], Watts(1800.0));
    }

    #[test]
    fn deficit_surplus() {
        let tree = three_level_tree();
        let mut s = PowerState::new(&tree);
        let leaf = tree.leaves().next().unwrap();
        s.cp[leaf.index()] = Watts(120.0);
        s.tp[leaf.index()] = Watts(100.0);
        assert_eq!(s.deficit(leaf), Watts(20.0));
        assert_eq!(s.surplus(leaf), Watts(0.0));
    }

    #[test]
    fn imbalance_per_level() {
        let tree = three_level_tree();
        let mut s = PowerState::new(&tree);
        let leaves: Vec<NodeId> = tree.leaves().collect();
        s.cp[leaves[0].index()] = Watts(120.0);
        s.tp[leaves[0].index()] = Watts(100.0); // deficit 20
        s.cp[leaves[1].index()] = Watts(40.0);
        s.tp[leaves[1].index()] = Watts(100.0); // surplus 60
        assert_eq!(s.level_imbalance(&tree, 0), Watts(40.0));
        // Level 1 untouched (all zero) ⇒ balanced.
        assert_eq!(s.level_imbalance(&tree, 1), Watts(0.0));
        // A surplus smaller than the deficit counts in full: 50 + 10.
        s.cp[leaves[0].index()] = Watts(150.0); // deficit 50
        s.cp[leaves[1].index()] = Watts(90.0); // surplus 10
        assert_eq!(s.level_imbalance(&tree, 0), Watts(60.0));
    }
}
