//! Per-epoch traffic accounting over the switch tree (paper Fig. 8).
//!
//! The switch hierarchy is congruent to the power-control hierarchy: every
//! *interior* node of the PMU tree carries a switch (level-1 switches sit
//! with the servers, level-2 above them, …). Query traffic for a server
//! enters at the root and traverses every switch down to the server's
//! level-1 switch; migration traffic traverses the switches on the
//! source→LCA→target path. Query and migration traffic are counted
//! separately so the experiments can report query load, migration load
//! (Fig. 10) and migration cost (Fig. 12) independently.
//!
//! Fig. 8's balancing over redundant paths is not modelled: every switch
//! carries the whole load of the paths through it, as every figure ran.

use serde::{Deserialize, Serialize};
use willow_topology::{NodeId, Tree};

/// Per-epoch traffic counters for every switch in the fabric.
///
/// Counters are indexed by the PMU-tree [`NodeId`] of the interior node the
/// switch is attached to. Leaf nodes carry no switch; recording traffic
/// "at" a leaf attributes it to the leaf's ancestors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// `query[i]` — query traffic through the switch at arena index `i`.
    query: Vec<f64>,
    /// `migration[i]` — migration traffic through that switch.
    migration: Vec<f64>,
    /// Highest combined per-epoch traffic ever seen at each switch
    /// (survives [`Fabric::reset_epoch`]) — capacity-planning signal.
    peak: Vec<f64>,
    n_nodes: usize,
}

impl Fabric {
    /// Build a fabric for `tree`: one switch per interior node.
    #[must_use]
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        Fabric {
            query: vec![0.0; n],
            migration: vec![0.0; n],
            peak: vec![0.0; n],
            n_nodes: n,
        }
    }

    /// Grow the fabric to cover `n` arena slots (online topology growth):
    /// new slots start with zero traffic and zero peak.
    /// Asking for fewer slots than currently covered is a no-op — node
    /// removal leaves tombstone slots behind, so the arena never shrinks.
    pub fn ensure_len(&mut self, n: usize) {
        if n <= self.n_nodes {
            return;
        }
        self.query.resize(n, 0.0);
        self.migration.resize(n, 0.0);
        self.peak.resize(n, 0.0);
        self.n_nodes = n;
    }

    /// Zero the per-epoch counters, folding the closing epoch's combined
    /// traffic into the all-time peaks.
    pub fn reset_epoch(&mut self) {
        for i in 0..self.n_nodes {
            let total = self.query[i] + self.migration[i];
            if total > self.peak[i] {
                self.peak[i] = total;
            }
            self.query[i] = 0.0;
            self.migration[i] = 0.0;
        }
    }

    /// Record `units` of query traffic destined to `server`: it traverses
    /// every switch on the root→server path (all ancestors of the leaf).
    pub fn record_query(&mut self, tree: &Tree, server: NodeId, units: f64) {
        debug_assert!(units >= 0.0);
        for anc in tree.ancestors(server) {
            self.query[anc.index()] += units;
        }
    }

    /// Record one tick's query traffic for *every* server at once:
    /// `leaf_units[i]` is the traffic destined to the leaf at arena index
    /// `i` (zero for interior and tombstone slots). Equivalent in structure
    /// to calling [`Fabric::record_query`] per leaf, but computed
    /// bottom-up with one subtree sum per switch — `O(nodes)` instead of
    /// `O(servers × height)`, which is what keeps the physics stage linear
    /// at 100k-server scale. `sums` is caller-provided scratch (resized to
    /// `tree.len()`); after the call `sums[i]` holds the subtree's total
    /// query units, which the switch at `i` observes.
    ///
    /// The per-switch totals are summed in fixed child order, so results
    /// are independent of how callers shard the per-server work.
    pub fn record_query_bulk(&mut self, tree: &Tree, leaf_units: &[f64], sums: &mut Vec<f64>) {
        debug_assert_eq!(leaf_units.len(), tree.len());
        sums.clear();
        sums.resize(tree.len(), 0.0);
        for &leaf in tree.nodes_at_level(0) {
            sums[leaf.index()] = leaf_units[leaf.index()];
        }
        for level in 1..=tree.height() {
            for &node in tree.nodes_at_level(level) {
                let i = node.index();
                let mut s = 0.0;
                for &c in tree.children(node) {
                    s += sums[c.index()];
                }
                sums[i] = s;
                self.query[i] += s;
            }
        }
    }

    /// Record `units` of migration traffic from `from` to `to`: it
    /// traverses the switches at every interior node on the tree path
    /// between them (up to and including the LCA, and down again).
    pub fn record_migration(&mut self, tree: &Tree, from: NodeId, to: NodeId, units: f64) {
        debug_assert!(units >= 0.0);
        if from == to {
            return;
        }
        let lca = tree.lca(from, to);
        let mut climb = |start: NodeId, include_lca: bool| {
            let mut n = start;
            while n != lca {
                n = tree.parent(n).expect("lca is an ancestor");
                if n != lca || include_lca {
                    self.migration[n.index()] += units;
                }
            }
        };
        climb(from, true); // LCA switch counted once
        climb(to, false);
    }

    /// Query traffic through the switch at `node` this epoch.
    #[must_use]
    pub fn query_traffic(&self, node: NodeId) -> f64 {
        self.query[node.index()]
    }

    /// Migration traffic through the switch at `node` this epoch.
    #[must_use]
    pub fn migration_traffic(&self, node: NodeId) -> f64 {
        self.migration[node.index()]
    }

    /// Total query traffic across every switch this epoch.
    #[must_use]
    pub fn total_query(&self) -> f64 {
        self.query.iter().sum()
    }

    /// Total migration traffic across every switch this epoch.
    #[must_use]
    pub fn total_migration(&self) -> f64 {
        self.migration.iter().sum()
    }

    /// The busiest switch's all-time peak combined per-epoch traffic
    /// (including the current, unfinished epoch).
    #[must_use]
    pub fn max_peak(&self) -> f64 {
        (0..self.n_nodes)
            .map(|i| self.peak[i].max(self.query[i] + self.migration[i]))
            .fold(0.0, f64::max)
    }

    /// Number of nodes this fabric was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_nodes
    }

    /// True when built over an empty tree (never in practice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_nodes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Tree {
        Tree::paper_fig3()
    }

    #[test]
    fn query_traffic_climbs_to_root() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let server = t.find("server1").unwrap();
        f.record_query(&t, server, 10.0);
        let l1 = t.parent(server).unwrap();
        let l2 = t.parent(l1).unwrap();
        assert_eq!(f.query_traffic(l1), 10.0);
        assert_eq!(f.query_traffic(l2), 10.0);
        assert_eq!(f.query_traffic(t.root()), 10.0);
        // Unrelated switch untouched.
        let other_l1 = t.parent(t.find("server18").unwrap()).unwrap();
        assert_eq!(f.query_traffic(other_l1), 0.0);
    }

    #[test]
    fn local_migration_touches_only_shared_switch() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server1").unwrap();
        let b = t.find("server2").unwrap();
        assert!(t.are_siblings(a, b));
        f.record_migration(&t, a, b, 5.0);
        let l1 = t.parent(a).unwrap();
        assert_eq!(f.migration_traffic(l1), 5.0);
        assert_eq!(f.migration_traffic(t.root()), 0.0, "local stays local");
    }

    #[test]
    fn nonlocal_migration_traverses_lca_path() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server1").unwrap(); // first pod
        let b = t.find("server18").unwrap(); // last pod, other half
        f.record_migration(&t, a, b, 4.0);
        // Path: l1(a) → l2(a) → root → l2(b) → l1(b): five switches.
        let l1a = t.parent(a).unwrap();
        let l2a = t.parent(l1a).unwrap();
        let l1b = t.parent(b).unwrap();
        let l2b = t.parent(l1b).unwrap();
        for sw in [l1a, l2a, t.root(), l2b, l1b] {
            assert_eq!(f.migration_traffic(sw), 4.0, "switch {sw}");
        }
        // Total = 5 switches × 4 units.
        assert_eq!(f.total_migration(), 20.0);
    }

    #[test]
    fn self_migration_is_free() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server3").unwrap();
        f.record_migration(&t, a, a, 100.0);
        assert_eq!(f.total_migration(), 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server1").unwrap();
        f.record_query(&t, a, 3.0);
        f.record_migration(&t, a, t.find("server2").unwrap(), 3.0);
        f.reset_epoch();
        assert_eq!(f.total_query(), 0.0);
        assert_eq!(f.total_migration(), 0.0);
    }

    #[test]
    fn peaks_survive_epoch_resets() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server1").unwrap();
        let l1 = t.parent(a).unwrap();
        f.record_query(&t, a, 10.0);
        f.reset_epoch();
        f.record_query(&t, a, 4.0);
        assert_eq!(f.query_traffic(l1), 4.0, "epoch counter reset");
        assert_eq!(f.max_peak(), 10.0, "peak remembers the busy epoch");
        // A busier current epoch raises the reported peak immediately.
        f.record_query(&t, a, 20.0);
        assert_eq!(f.max_peak(), 24.0);
    }

    #[test]
    fn bulk_query_matches_per_server_recording() {
        let t = tree();
        // Integer units: both accumulation orders are exact, so the
        // structural equivalence shows up as bit equality. The units differ
        // per leaf, so a switch fed the wrong subtree shows up too.
        let mut per_server = Fabric::new(&t);
        let mut bulk = Fabric::new(&t);
        let mut leaf_units = vec![0.0; t.len()];
        for (k, leaf) in t.leaves().enumerate() {
            let units = (k * 3 + 1) as f64;
            leaf_units[leaf.index()] = units;
            per_server.record_query(&t, leaf, units);
        }
        let mut sums = Vec::new();
        bulk.record_query_bulk(&t, &leaf_units, &mut sums);
        for id in t.ids() {
            assert_eq!(
                bulk.query_traffic(id),
                per_server.query_traffic(id),
                "switch {id}"
            );
        }
        // The scratch holds subtree totals.
        let total: f64 = leaf_units.iter().sum();
        assert_eq!(sums[t.root().index()], total);
    }

    #[test]
    fn kinds_tracked_independently() {
        let t = tree();
        let mut f = Fabric::new(&t);
        let a = t.find("server1").unwrap();
        let l1 = t.parent(a).unwrap();
        f.record_query(&t, a, 7.0);
        f.record_migration(&t, a, t.find("server2").unwrap(), 2.0);
        assert_eq!(f.query_traffic(l1), 7.0);
        assert_eq!(f.migration_traffic(l1), 2.0);
        assert_eq!(f.total_query(), 7.0 * 3.0, "three switches on the path");
        assert_eq!(f.total_migration(), 2.0, "one shared switch");
    }
}
