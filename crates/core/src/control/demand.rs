//! Pipeline stage 3 — demand adaptation (§IV-E): per-level bottom-up bin
//! packing of deficit parcels into surpluses, sibling subtrees first,
//! leftovers passed up for non-local placement. One of the pipeline's
//! policy decision points lives here: the packing heuristic
//! (`ControllerConfig::packer`), matched on its config enum at the point of
//! use. Candidate targets are always offered in ascending arena id.
//!
//! Sharded sub-steps (bit-for-bit identical to serial at any thread
//! count):
//!
//! * **Deficit collection** — per-shard item lists concatenated in shard
//!   order, which is ascending server order, exactly the serial visit
//!   order.
//! * **Target eligibility** — resolved once per stage run into a per-leaf
//!   cache (`active ∧ unfenced ∧ ¬crashed ∧ ¬reduced-anywhere-above`).
//!   Nothing the packing loop does (migrations charge costs to `cp`/`tp`)
//!   changes any of those inputs, so the cache holds for the whole stage —
//!   and it replaces the `O(height)` ancestor climb the serial code paid
//!   *per candidate bin per level* with an `O(nodes)` top-down sweep.
//!
//! Candidate-bin filtering, group packing and migration execution stay
//! serial: each migration mutates the `cp`/`tp` surpluses that every later
//! group must observe, and journal transaction ids, attempt ordinals and
//! record order are all part of the deterministic contract.

use super::shard::{shard_range, RawSlice};
use super::Willow;
use crate::migration::{MigrationReason, MigrationRecord};
use willow_binpack::packer_for;
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};
use willow_workload::app::AppId;

/// A deficit parcel traveling up the hierarchy: one application that must
/// leave its server.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeficitItem {
    pub(super) server: usize,
    pub(super) app: AppId,
    pub(super) demand: Watts,
    pub(super) reason: MigrationReason,
}

/// Reusable working memory for the demand stage: deficit parcels, their
/// per-level grouping keys, the buffers of one packing instance, and the
/// per-shard scratch of the parallel sub-steps. Cleared (capacity
/// retained) instead of reallocated, so a steady-state tick performs zero
/// heap allocations once warmed up. Taken out of the controller with
/// `std::mem::take` for the duration of the stage and put back afterwards.
#[derive(Debug, Default)]
pub(crate) struct DemandStage {
    /// Deficit items still looking for a target (current level).
    pub(super) pending: Vec<DeficitItem>,
    /// Deficit items deferred to the next level up.
    pub(super) next_pending: Vec<DeficitItem>,
    /// Per-item grouping keys: (pmu arena idx, child arena idx, item idx).
    pub(super) keys: Vec<(u32, u32, u32)>,
    /// Items of the group currently being packed (backoff items filtered
    /// straight to the leftovers).
    pub(super) group: Vec<DeficitItem>,
    /// Candidate target leaves for one packing instance.
    pub(super) bins: Vec<NodeId>,
    /// Remaining capacity per candidate bin.
    pub(super) bin_caps: Vec<f64>,
    /// Effective item sizes for one packing instance.
    pub(super) sizes: Vec<f64>,
    /// Per-shard deficit collections, concatenated in shard order (shard
    /// ranges tile ascending server indices, so the concatenation is the
    /// serial collection order).
    pub(super) shard_items: Vec<Vec<DeficitItem>>,
    /// Per-shard app-ordering scratch for deficit selection: each app on
    /// the server with its list position.
    pub(super) shard_order: Vec<Vec<(usize, AppId)>>,
    /// Migration-target eligibility, resolved once per stage run.
    pub(super) eligibility: Eligibility,
}

/// Migration-target eligibility of every leaf (`active ∧ unfenced ∧
/// ¬crashed ∧ ¬reduced-anywhere-above`, §IV-E final rule), resolved in one
/// pass by [`Willow::resolve_eligibility`]. The demand stage, the
/// consolidation round and live-ops drains each resolve it once and then
/// read it per candidate bin instead of climbing the ancestors.
#[derive(Debug, Default)]
pub(super) struct Eligibility {
    /// Arena slot → budget-reduced on itself or any ancestor (top-down
    /// sweep scratch).
    reduced_anc: Vec<bool>,
    /// Arena slot → the leaf may receive migrations.
    eligible: Vec<bool>,
}

impl Eligibility {
    /// Pre-size for `tree`'s arena.
    pub(super) fn for_tree(tree: &Tree) -> Self {
        Eligibility {
            reduced_anc: Vec::with_capacity(tree.len()),
            eligible: Vec::with_capacity(tree.len()),
        }
    }

    /// Whether `leaf` may receive migrations.
    pub(super) fn get(&self, leaf: NodeId) -> bool {
        self.eligible[leaf.index()]
    }

    /// Withdraw `leaf` (its server just went to sleep).
    pub(super) fn revoke(&mut self, leaf: NodeId) {
        self.eligible[leaf.index()] = false;
    }
}

impl DemandStage {
    /// Pre-size the per-leaf buffers so even the first tick allocates as
    /// little as possible.
    pub(super) fn for_tree(tree: &Tree) -> Self {
        let leaves = tree.leaves().count();
        DemandStage {
            bins: Vec::with_capacity(leaves),
            bin_caps: Vec::with_capacity(leaves),
            eligibility: Eligibility::for_tree(tree),
            ..DemandStage::default()
        }
    }
}

impl Willow {
    /// Remaining surplus a target server can absorb (margin already
    /// deducted).
    pub(super) fn bin_capacity(&self, leaf: NodeId) -> Watts {
        (self.power.tp[leaf.index()] - self.power.cp[leaf.index()] - self.config.margin)
            .non_negative()
    }

    /// Effective packing size of a demand parcel: the moved demand plus the
    /// temporary cost it charges the target while migrating.
    pub(super) fn effective_size(&self, demand: Watts) -> f64 {
        (demand + self.config.cost_model.node_cost(demand)).0
    }

    /// Bottom-up demand-side adaptation: local packing first, leftovers up.
    pub(super) fn demand_adaptation(
        &mut self,
        tick: u64,
        stage: &mut DemandStage,
        records: &mut Vec<MigrationRecord>,
    ) {
        // Collect deficit items at the leaves.
        self.collect_deficit_items(stage);
        if stage.pending.is_empty() {
            return;
        }
        // Deficits exist: resolve target eligibility once for the whole
        // stage (none of its inputs change while packing executes).
        self.resolve_eligibility(&mut stage.eligibility);

        // Process levels bottom-up; at each level, each PMU node packs the
        // pending items originating in its subtree into surpluses in its
        // subtree (excluding the origin's child-subtree, already tried).
        for level in 1..=self.tree.height() {
            if stage.pending.is_empty() {
                break;
            }
            // Group items by their PMU node at this level and, within a
            // PMU, by the child subtree containing their origin (already
            // tried one level down). Sorting keys of
            // `(pmu arena idx, child arena idx, item idx)` reproduces the
            // nested-map iteration order exactly: `nodes_at_level` is
            // ascending in arena index, group keys were visited in sorted
            // order, and items within a group in arrival order.
            stage.keys.clear();
            for (idx, item) in stage.pending.iter().enumerate() {
                let mut pmu = self.servers[item.server].node;
                let mut child = pmu;
                while self.tree.level(pmu) < level {
                    child = pmu;
                    pmu = self.tree.parent(pmu).expect("levels reach the root");
                }
                stage
                    .keys
                    .push((pmu.index() as u32, child.index() as u32, idx as u32));
            }
            stage.keys.sort_unstable();
            stage.next_pending.clear();
            let mut i = 0;
            while i < stage.keys.len() {
                let (pmu_idx, child_idx, _) = stage.keys[i];
                let mut j = i + 1;
                while j < stage.keys.len()
                    && stage.keys[j].0 == pmu_idx
                    && stage.keys[j].1 == child_idx
                {
                    j += 1;
                }
                // Backoff items sit this round out: straight to leftovers,
                // ahead of this group's unplaced items.
                stage.group.clear();
                for k in i..j {
                    let item = stage.pending[stage.keys[k].2 as usize];
                    if self.in_backoff(item.app, tick) {
                        stage.next_pending.push(item);
                    } else {
                        stage.group.push(item);
                    }
                }
                self.pack_and_execute(
                    NodeId(pmu_idx),
                    NodeId(child_idx),
                    &stage.group,
                    &mut stage.next_pending,
                    &mut stage.bins,
                    &mut stage.bin_caps,
                    &mut stage.sizes,
                    &stage.eligibility,
                    tick,
                    records,
                );
                i = j;
            }
            std::mem::swap(&mut stage.pending, &mut stage.next_pending);
        }
        // Items left after the root instance stay on their servers; their
        // demand above budget is shed in the physics phase.
    }

    /// Deficit items: for every active server over budget, pick the largest
    /// apps until the remainder fits under `TP − margin` (cost-adjusted).
    /// Shards over the roster; fills `stage.pending` in server order.
    #[allow(unsafe_code)] // disjoint shard scratch; see `super::shard`
    pub(super) fn collect_deficit_items(&self, stage: &mut DemandStage) {
        let n = self.servers.len();
        let threads = self.pool.threads();
        stage.shard_items.resize_with(threads, Vec::new);
        stage.shard_order.resize_with(threads, Vec::new);
        {
            let shard_items = RawSlice::new(&mut stage.shard_items);
            let shard_order = RawSlice::new(&mut stage.shard_order);
            let servers = &self.servers;
            let apps = &self.apps;
            let tp = &self.power.tp;
            let margin = self.config.margin;
            let overhead = self.config.cost_model.node_overhead;
            let pingpong_window = self.config.pingpong_window;
            let tick = self.tick;
            self.pool.run(&|k| {
                // SAFETY: each shard touches only its own scratch element.
                let items = unsafe { shard_items.get_mut(k) };
                let order = unsafe { shard_order.get_mut(k) };
                items.clear();
                for si in shard_range(n, threads, k) {
                    let server = &servers[si];
                    if !server.active {
                        continue;
                    }
                    // Deficit detection is local: the server compares its
                    // own fresh demand view against its budget, regardless
                    // of what the hierarchy believes.
                    let cp = server.local_cp;
                    let tp = tp[server.node.index()];
                    let excess = (cp - tp + margin).non_negative();
                    if excess.0 <= 1e-9 {
                        continue;
                    }
                    // Shedding `shed` relieves `shed·(1 − overhead)` net of
                    // the temporary cost charged back to the source.
                    let target_shed = if overhead < 1.0 {
                        excess.0 / (1.0 - overhead)
                    } else {
                        excess.0
                    };
                    // Settled apps first (Property 4: a demand that
                    // migrated stays put for ≥ Δ_f whenever possible),
                    // then largest-first to minimize migrations.
                    order.clear();
                    order.extend(apps.on(si).enumerate());
                    order.sort_unstable_by(|&(a, id_a), &(b, id_b)| {
                        let recent = |id: AppId| {
                            apps.last_move(id)
                                .is_some_and(|(_, t)| tick.saturating_sub(t) < pingpong_window)
                        };
                        recent(id_a)
                            .cmp(&recent(id_b)) // settled (false) before recent
                            .then(apps.demand(id_b).0.total_cmp(&apps.demand(id_a).0))
                            .then(a.cmp(&b))
                    });
                    let mut shed = 0.0;
                    for &(_, app) in order.iter() {
                        if shed >= target_shed {
                            break;
                        }
                        let demand = apps.demand(app);
                        if demand.0 <= 0.0 {
                            continue;
                        }
                        shed += demand.0;
                        items.push(DeficitItem {
                            server: si,
                            app,
                            demand,
                            reason: MigrationReason::Demand,
                        });
                    }
                }
            });
        }
        // Shard ranges tile ascending server indices, so concatenating in
        // shard order reproduces the serial collection order exactly.
        stage.pending.clear();
        for shard in &stage.shard_items {
            stage.pending.extend_from_slice(shard);
        }
    }

    /// Resolve migration-target eligibility for every leaf into `out`: one
    /// serial top-down sweep folds the reduced flags down the tree, then
    /// the per-leaf roster checks shard across the pool. Stays valid while
    /// only `cp`/`tp` change (migrations, aborts); a server going to sleep
    /// must be [`Eligibility::revoke`]d, and a fence, crash or reduced-flag
    /// change needs a fresh resolve.
    #[allow(unsafe_code)] // disjoint per-leaf writes; see `super::shard`
    pub(super) fn resolve_eligibility(&self, out: &mut Eligibility) {
        let tree = &self.tree;
        out.reduced_anc.clear();
        out.reduced_anc.resize(tree.len(), false);
        let root = tree.root();
        out.reduced_anc[root.index()] = self.power.reduced[root.index()];
        for level in (0..tree.height()).rev() {
            for &node in tree.nodes_at_level(level) {
                let p = tree.parent(node).expect("non-root nodes have parents");
                out.reduced_anc[node.index()] =
                    self.power.reduced[node.index()] || out.reduced_anc[p.index()];
            }
        }
        out.eligible.clear();
        out.eligible.resize(tree.len(), false);
        let leaves = tree.nodes_at_level(0);
        let threads = self.pool.threads();
        let eligible = RawSlice::new(&mut out.eligible);
        let reduced_anc = &out.reduced_anc;
        let servers = &self.servers;
        let leaf_server = &self.leaf_server;
        let disturb = &self.disturb;
        self.pool.run(&|k| {
            for &leaf in &leaves[shard_range(leaves.len(), threads, k)] {
                let i = leaf.index();
                let ok = leaf_server[i].is_some_and(|si| {
                    servers[si].active && servers[si].fence.is_active() && !disturb.crashed(si)
                }) && !reduced_anc[i];
                // SAFETY: every live leaf appears exactly once in the
                // level-0 list, so writes to its slot are race-free.
                unsafe {
                    *eligible.get_mut(i) = ok;
                }
            }
        });
    }

    /// Collect into `bins` the eligible target leaves of one packing
    /// instance — `pmu`'s leaves outside `child`'s subtree — in ascending
    /// arena id: "first eligible server in tree order", the paper's
    /// evaluation order. The cached Euler-tour range is DFS order, which a
    /// topology edit can take out of id order. The packer sees the bins in
    /// this order: next-fit in full, while the capacity-sorting packers
    /// (FFDLR, FFD, BFD) re-sort by capacity and keep it only among
    /// equal-capacity bins.
    pub(super) fn target_bins(
        &self,
        pmu: NodeId,
        child: NodeId,
        eligibility: &Eligibility,
        bins: &mut Vec<NodeId>,
    ) {
        bins.clear();
        for &leaf in self.tree.leaf_range(pmu) {
            if !self.tree.subtree_contains(child, leaf) && eligibility.get(leaf) {
                bins.push(leaf);
            }
        }
        bins.sort_unstable();
    }

    /// Pack `items` (already backoff-filtered) into eligible surpluses
    /// among `pmu`'s leaves minus those under `child`; execute the
    /// migrations that fit; push leftovers for the next level up.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn pack_and_execute(
        &mut self,
        pmu: NodeId,
        child: NodeId,
        items: &[DeficitItem],
        leftovers: &mut Vec<DeficitItem>,
        bins: &mut Vec<NodeId>,
        bin_caps: &mut Vec<f64>,
        sizes: &mut Vec<f64>,
        eligibility: &Eligibility,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) {
        self.target_bins(pmu, child, eligibility, bins);
        if bins.is_empty() {
            leftovers.extend_from_slice(items);
            return;
        }
        bin_caps.clear();
        bin_caps.extend(bins.iter().map(|&l| self.bin_capacity(l).0));
        sizes.clear();
        sizes.extend(items.iter().map(|it| self.effective_size(it.demand)));
        self.stats.packing_instances += 1;
        self.stats.items_offered += sizes.len() as u64;
        self.stats.bins_offered += bin_caps.len() as u64;
        // Every packer is a zero-sized type, so this box never allocates.
        let packing = packer_for(self.config.packer).pack(sizes, bin_caps);

        for (i, item) in items.iter().enumerate() {
            match packing.assignment[i] {
                Some(b) => {
                    let target_leaf = bins[b];
                    // Property 4 / ping-pong avoidance: never bounce an app
                    // straight back to the host it recently left — defer it
                    // to the next level (other bins) or shed it instead.
                    if self.would_pingpong(item.app, target_leaf, tick)
                        || !self.attempt_migration(item, target_leaf, tick, records)
                    {
                        leftovers.push(*item);
                    }
                }
                None => leftovers.push(*item),
            }
        }
    }
}
