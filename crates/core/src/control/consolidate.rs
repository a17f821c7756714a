//! Pipeline stage 4 — consolidation (§IV-E end, §V-C5): below-threshold
//! servers try to empty themselves (local targets first) and sleep if they
//! succeed; sleeping servers may be woken when demand was shed. Victims
//! evacuate hot zones first; the receiver ordering is the third policy
//! decision point (`ControllerConfig::consolidation_policy`, matched in
//! `receiver_key`), kept for the whole round in a sorted receiver index
//! (`super::receivers`). Also home to the operator API (force-wake,
//! ambient changes); draining is a live-ops command (`super::liveops`).

use super::demand::{DeficitItem, Eligibility};
use super::receivers::{descending, ReceiverIndex};
use super::Willow;
use crate::config::{ConsolidationPolicyChoice, SupplyPolicyChoice};
use crate::migration::{MigrationReason, MigrationRecord};
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};

/// Slack of the evacuation first-fits (consolidation and live-ops drains):
/// an item fits a bin if `size <= free + EVAC_FIT_SLACK`. Deliberately not
/// the packers' `FIT_EPSILON` (1e-9): the reference controller evacuates
/// with 1e-12, and the reference differentials pin this controller to it
/// bit-for-bit, so unifying the two is a behavior change of its own.
pub(super) const EVAC_FIT_SLACK: f64 = 1e-12;

/// Reusable working memory for the consolidation stage: candidate victims,
/// receiver flags, the round's receiver index, and the buffers of one
/// all-or-nothing evacuation plan. Cleared (capacity retained) instead of
/// reallocated, so a steady-state consolidation tick performs zero heap
/// allocations once warmed up. Taken out of the controller with
/// `std::mem::take` for the duration of the stage and put back afterwards.
#[derive(Debug, Default)]
pub(crate) struct ConsolidateStage {
    /// Below-threshold server indices.
    pub(super) candidates: Vec<usize>,
    /// Servers that received consolidated load this round.
    pub(super) received: Vec<bool>,
    /// Target eligibility, resolved with the receiver index (and by each
    /// live-ops drain).
    pub(super) eligibility: Eligibility,
    /// Every eligible leaf in receiver order, for the current round.
    pub(super) receivers: ReceiverIndex,
    /// Apps to move in a full-evacuation plan.
    pub(super) evac_items: Vec<DeficitItem>,
    /// Effective sizes of the evacuation items.
    pub(super) evac_sizes: Vec<f64>,
    /// Eligible sibling bins of the victim, in receiver order (live-ops
    /// drains: every eligible bin, siblings first).
    pub(super) evac_bins: Vec<NodeId>,
    /// Item placement order (largest first) for an evacuation.
    pub(super) evac_order: Vec<usize>,
    /// The all-or-nothing evacuation plan.
    pub(super) evac_plan: Vec<(DeficitItem, NodeId)>,
    /// Sleeping-server indices for wake-on-deficit.
    pub(super) sleeping: Vec<usize>,
}

impl ConsolidateStage {
    /// Pre-size the per-leaf and per-server buffers so even the first
    /// consolidation tick allocates as little as possible.
    pub(super) fn for_tree(tree: &Tree, servers: usize) -> Self {
        let leaves = tree.leaves().count();
        ConsolidateStage {
            candidates: Vec::with_capacity(servers),
            received: Vec::with_capacity(servers),
            eligibility: Eligibility::for_tree(tree),
            receivers: ReceiverIndex::for_tree(tree),
            evac_bins: Vec::with_capacity(leaves),
            sleeping: Vec::with_capacity(servers),
            ..ConsolidateStage::default()
        }
    }

    /// Take a slept server's leaf out of the round's receivers.
    fn withdraw(&mut self, leaf: NodeId) {
        if self.receivers.is_ready() {
            self.eligibility.revoke(leaf);
            self.receivers.remove(leaf);
        }
    }
}

impl Willow {
    /// Consolidation (§IV-E end, §V-C5): below-threshold servers try to
    /// empty themselves — local targets first — and sleep if they succeed.
    pub(super) fn consolidate(
        &mut self,
        tick: u64,
        stage: &mut ConsolidateStage,
        records: &mut Vec<MigrationRecord>,
        slept: &mut Vec<NodeId>,
    ) {
        let first_record = records.len();
        stage.candidates.clear();
        // Fenced-state servers are excluded: a draining server's lifecycle
        // belongs to the command plane alone (see `super::liveops`). The
        // predictive policy additionally skips victims whose *forecast*
        // demand crosses the threshold within the next consolidation
        // period — sleeping a server at the foot of a ramp just forces a
        // wake (and re-migrations) one period later.
        stage
            .candidates
            .extend((0..self.servers.len()).filter(|&i| {
                self.servers[i].active
                    && self.servers[i].fence.is_active()
                    && self.servers[i].utilization() < self.config.consolidation_threshold
                    && !self.predicted_above_threshold(i)
            }));
        self.order_victims(&mut stage.candidates);

        // Servers that receive consolidated load this round must not be
        // evacuated in the same round — that would cascade apps through
        // multiple hops in a single period.
        stage.received.clear();
        stage.received.resize(self.servers.len(), false);
        // The receiver index is built at the round's first plan, so a
        // round that sleeps only empty servers (or none) never pays for it.
        stage.receivers.reset();

        for ci in 0..stage.candidates.len() {
            let si = stage.candidates[ci];
            // Re-check: a candidate may have received load meanwhile.
            if stage.received[si]
                || !self.servers[si].active
                || self.servers[si].utilization() >= self.config.consolidation_threshold
            {
                continue;
            }
            let leaf = self.servers[si].node;
            if !self.apps.hosts_any(si) {
                self.sleep_server(si);
                stage.withdraw(leaf);
                slept.push(leaf);
                continue;
            }
            if self.plan_full_evacuation(si, stage) {
                // A failed attempt mid-plan (injected reject/abort) stops
                // the evacuation: the server keeps its remaining apps and
                // stays awake — never sleep a server that still hosts work.
                let mut evacuated = true;
                for pi in 0..stage.evac_plan.len() {
                    let (item, target) = stage.evac_plan[pi];
                    let tgt_idx =
                        self.leaf_server[target.index()].expect("target is a server leaf");
                    let moved = self.attempt_migration(&item, target, tick, records);
                    // Either outcome can move both ends' keys: a commit
                    // shifts utilization and `cp`, an abort charges `cp`.
                    self.rekey_receiver(&mut stage.receivers, leaf);
                    self.rekey_receiver(&mut stage.receivers, target);
                    if moved {
                        stage.received[tgt_idx] = true;
                    } else {
                        evacuated = false;
                        break;
                    }
                }
                if evacuated {
                    debug_assert!(!self.apps.hosts_any(si));
                    self.sleep_server(si);
                    stage.withdraw(leaf);
                    slept.push(leaf);
                }
            }
        }
        // Consolidation migrations are re-labeled with their reason; demand
        // records recorded earlier this tick sit before `first_record`.
        for r in &mut records[first_record..] {
            r.reason = MigrationReason::Consolidation;
        }
    }

    /// True when the predictive policy forecasts server `si`'s demand to
    /// cross the consolidation threshold within one consolidation period
    /// (`η2` demand periods). Always false under the reactive default, and
    /// for servers without enough history to forecast.
    fn predicted_above_threshold(&self, si: usize) -> bool {
        if self.config.supply_policy != SupplyPolicyChoice::Predictive {
            return false;
        }
        let Some(pred) = self.planning.predicted_leaf_demand(si, self.config.eta2) else {
            return false;
        };
        let server = &self.servers[si];
        if server.full_util_power.0 <= 0.0 {
            return false;
        }
        // The leaf series tracks smoothed CP (base load included); strip
        // the base load so the comparison matches `utilization()`.
        let pred_util = (pred - server.base_load).non_negative() / server.full_util_power;
        pred_util >= self.config.consolidation_threshold
    }

    /// How much rating to wake this consolidation tick. Reactive: exactly
    /// the demand shed last period (wake-on-deficit as shipped).
    /// Predictive additionally wakes ahead of a forecast shortfall: if the
    /// root demand forecast one consolidation period out exceeds what the
    /// forecast supply — or the active fleet's thermal caps — can serve,
    /// the gap is woken *now*, before the drops it would cause.
    pub(super) fn wake_need(&self) -> Watts {
        let plan = &self.planning;
        if self.config.supply_policy != SupplyPolicyChoice::Predictive {
            return self.last_dropped;
        }
        let h = self.config.eta2;
        let Some(pred_demand) = plan.predicted_root_demand(h) else {
            return self.last_dropped;
        };
        // The supply series ticks once per supply period; translate the
        // consolidation horizon into (rounded-up) supply periods.
        let supply_h = h.div_ceil(self.config.eta1).max(1);
        let Some(pred_supply) = plan.predicted_supply(supply_h) else {
            return self.last_dropped;
        };
        let mut active_cap = Watts::ZERO;
        for (si, server) in self.servers.iter().enumerate() {
            let leaf = server.node.index();
            if server.active && server.fence.is_active() && self.leaf_server[leaf] == Some(si) {
                active_cap += self.power.cap[leaf];
            }
        }
        let serviceable = pred_supply.min(active_cap);
        self.last_dropped
            .max((pred_demand - serviceable).non_negative())
    }

    /// Order consolidation victims: thermally constrained (lowest hard cap,
    /// i.e. hot zones) first, then emptiest first. The paper's Fig. 7 notes
    /// that Willow "tries to move as much work away from these \[hot\]
    /// servers as possible … hence they remain shut down for more time".
    pub(super) fn order_victims(&self, victims: &mut [usize]) {
        let cap = |i: usize| self.power.cap[self.servers[i].node.index()].0;
        victims.sort_unstable_by(|&a, &b| {
            cap(a)
                .total_cmp(&cap(b))
                .then(
                    self.servers[a]
                        .utilization()
                        .total_cmp(&self.servers[b].utilization()),
                )
                .then(a.cmp(&b))
        });
    }

    /// The receiver sort key of `leaf` under `config.consolidation_policy`:
    /// evacuations first-fit into receivers in ascending `(key, leaf id)`
    /// order. Each float is mapped to an integer with the order of
    /// `f64::total_cmp`, so the key sorts exactly like the float
    /// comparator it encodes.
    pub(super) fn receiver_key(&self, leaf: NodeId) -> (u64, u64) {
        let power = &self.power;
        let n = leaf.index();
        match self.config.consolidation_policy {
            // Coolest zone (largest hard cap) first so consolidated load
            // lands where thermal headroom is, then most-utilized first so
            // consolidation fills the fullest servers (the FFDLR "run every
            // server at full utilization" rationale) instead of cascading
            // load through near-idle ones.
            ConsolidationPolicyChoice::HotZonesFirst => (
                descending(power.cap[n].0),
                descending(self.leaf_utilization()(leaf)),
            ),
            // Largest power headroom (budget minus demand) first: load goes
            // where budget is available right now, which can absorb a whole
            // victim without cascading first-fit spills.
            ConsolidationPolicyChoice::MostHeadroomReceivers => {
                (descending(power.tp[n].0 - power.cp[n].0), 0)
            }
        }
    }

    /// Order one locality class of evacuation receivers by
    /// [`Willow::receiver_key`].
    pub(super) fn order_receivers(&self, receivers: &mut [NodeId]) {
        receivers.sort_unstable_by_key(|&n| (self.receiver_key(n), n));
    }

    /// Re-key `leaf` after a migration attempt touched it. No-op for a
    /// leaf without an entry.
    fn rekey_receiver(&self, index: &mut ReceiverIndex, leaf: NodeId) {
        if index.contains(leaf) {
            index.rekey(leaf, self.receiver_key(leaf));
        }
    }

    /// Try to place *all* apps of server `si` elsewhere (local bins first,
    /// then anywhere eligible). Fills `stage.evac_plan` and returns
    /// `true`, or returns `false` if the server cannot be fully evacuated.
    ///
    /// Bins are probed lazily: the victim's eligible siblings in receiver
    /// order, then the round's receiver index (built here on the round's
    /// first plan) minus the victim's parent's children. A bin's free
    /// capacity is read live, less what the plan so far put there.
    pub(super) fn plan_full_evacuation(&self, si: usize, stage: &mut ConsolidateStage) -> bool {
        let ConsolidateStage {
            eligibility,
            receivers,
            evac_items: items,
            evac_sizes: sizes,
            evac_bins: siblings,
            evac_order: order,
            evac_plan: plan,
            ..
        } = stage;
        plan.clear();
        let leaf = self.servers[si].node;
        // All-or-nothing: an app still in retry backoff blocks evacuation.
        if self.apps.on(si).any(|a| self.in_backoff(a, self.tick)) {
            return false;
        }
        debug_assert!(self.apps.hosts_any(si), "empty servers just sleep");
        items.clear();
        items.extend(self.apps.on(si).map(|app| DeficitItem {
            server: si,
            app,
            demand: self.apps.demand(app),
            reason: MigrationReason::Consolidation,
        }));
        sizes.clear();
        sizes.extend(items.iter().map(|it| self.effective_size(it.demand)));

        if !receivers.is_ready() {
            self.resolve_eligibility(eligibility);
            let tree = &self.tree;
            receivers.build(
                tree.len(),
                (tree.leaves().filter(|&l| eligibility.get(l)))
                    .map(|l| (l, tree.parent(l), self.receiver_key(l))),
            );
        }
        // Eligible bins: siblings first, then the rest of the data center.
        // Each class is ordered separately so the locality preference is
        // never policy-dependent.
        siblings.clear();
        siblings.extend(self.tree.siblings(leaf).filter(|&l| eligibility.get(l)));
        self.order_receivers(siblings);
        let parent = self.tree.parent(leaf);

        // First-fit over the ordered bins keeps the locality preference;
        // a full FFDLR over the union would not honor sibling priority.
        order.clear();
        order.extend(0..items.len());
        order.sort_unstable_by(|&a, &b| sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b)));
        let tick = self.tick;
        for &i in order.iter() {
            // Free capacity: live, less what this plan already put there
            // (subtracted in placement order).
            let free = |l: NodeId| {
                (plan.iter().filter(|&&(_, b)| b == l))
                    .fold(self.bin_capacity(l).0, |f, (it, _)| {
                        f - self.effective_size(it.demand)
                    })
            };
            let fits = |l: NodeId| {
                sizes[i] <= free(l) + EVAC_FIT_SLACK && !self.would_pingpong(items[i].app, l, tick)
            };
            let placed = siblings.iter().copied().find(|&l| fits(l)).or_else(|| {
                receivers
                    .iter()
                    .filter(|r| !r.is_child_of(parent))
                    .map(|r| r.leaf())
                    .find(|&l| fits(l))
            });
            let Some(bin) = placed else {
                return false; // all-or-nothing evacuation
            };
            plan.push((items[i], bin));
        }
        true
    }

    pub(super) fn sleep_server(&mut self, si: usize) {
        let server = &mut self.servers[si];
        server.active = false;
        server.smoother.reset();
        server.local_cp = Watts::ZERO;
        self.power.cp[server.node.index()] = Watts::ZERO;
    }

    // ------------------------------------------------------------------
    // Operator / failure-injection API
    // ------------------------------------------------------------------

    /// Change a server's ambient temperature mid-run — a cooling failure
    /// (ambient rises) or repair (ambient falls). The next supply tick
    /// recomputes the thermal cap from the new environment and the
    /// demand-side machinery migrates workload accordingly.
    ///
    /// # Panics
    /// Panics if `server` is out of range.
    pub fn set_server_ambient(&mut self, server: usize, ambient: willow_thermal::units::Celsius) {
        self.servers[server].thermal.set_ambient(ambient);
    }

    /// Wake a sleeping server (after maintenance). No-op if already awake
    /// or if the server is fenced by the command plane (a drained server
    /// receives zero budget and zero load until re-added; see
    /// [`super::liveops`]).
    ///
    /// # Panics
    /// Panics if `server` is out of range.
    pub fn force_wake(&mut self, server: usize) {
        if !self.servers[server].active && self.servers[server].fence.is_active() {
            self.servers[server].active = true;
        }
    }

    /// Wake sleeping servers (largest thermal headroom first) until their
    /// combined ratings cover `needed`, appending the woken leaves to
    /// `woken`. `sleeping` is sorting scratch.
    pub(super) fn wake_servers(
        &mut self,
        needed: Watts,
        sleeping: &mut Vec<usize>,
        woken: &mut Vec<NodeId>,
    ) {
        sleeping.clear();
        // Fenced and retired servers must never be woken — a drained
        // server receives zero budget and zero load thereafter.
        sleeping.extend(
            (0..self.servers.len())
                .filter(|&i| !self.servers[i].active && self.servers[i].fence.is_active()),
        );
        sleeping.sort_unstable_by(|&a, &b| {
            self.servers[b]
                .thermal
                .rating()
                .0
                .total_cmp(&self.servers[a].thermal.rating().0)
                .then(a.cmp(&b))
        });
        let mut covered = Watts::ZERO;
        for &si in sleeping.iter() {
            if covered >= needed {
                break;
            }
            let server = &mut self.servers[si];
            server.active = true;
            covered += server.thermal.rating();
            woken.push(server.node);
        }
    }
}
