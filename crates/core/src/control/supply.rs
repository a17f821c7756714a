//! Pipeline stage 2 — supply adaptation (§IV-D): refresh thermal hard
//! caps (Eq. 3 over the `Δ_S` window) and divide the total supply
//! top-down, proportionally to demand and clipped by the caps. Runs every
//! `η1` demand periods. Also home to the stale-directive watchdog and the
//! open-loop (controller-down) budget fallback, which reuse the same cap
//! computation.

use super::planning::PREDICTIVE_HEADROOM;
use super::shard::{shard_range, RawSlice};
use super::Willow;
use crate::config::{
    AllocationPolicy, ControllerConfig, ReducedTargetRule, SupplyPolicyChoice, ThermalEstimate,
};
use crate::server::{FenceState, ServerState};
use willow_power::allocation::allocate_proportional_into;
use willow_thermal::limit::power_limit_with_decay;
use willow_thermal::units::Watts;
use willow_topology::Tree;

/// Per-server stale-directive watchdog state (paper-adjacent defense: a
/// leaf that keeps missing its budget directive falls back to a
/// conservative local cap rather than running open-loop forever).
///
/// Public and serializable because it is part of the controller's complete
/// mutable state: a checkpoint that dropped it would silently reset the
/// degraded-mode defenses on restore (see `crate::snapshot`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Watchdog {
    /// Consecutive supply ticks whose budget directive never arrived.
    pub missed: u32,
    /// Whether the conservative fallback cap is currently engaged.
    pub tripped: bool,
}

/// Reusable working memory for the supply stage: child caps, allocation
/// weights and budgets for one interior node's top-down division, plus the
/// water-filling working set. Cleared (capacity retained) instead of
/// reallocated, so a steady-state supply tick performs zero heap
/// allocations once warmed up. Taken out of the controller with
/// `std::mem::take` for the duration of the stage and put back afterwards.
#[derive(Debug, Default)]
pub(crate) struct SupplyStage {
    /// Child hard caps for one interior node.
    pub(super) caps: Vec<Watts>,
    /// Child allocation weights for one interior node.
    pub(super) weights: Vec<Watts>,
    /// Child budgets written by the proportional division.
    pub(super) budgets: Vec<Watts>,
    /// Water-filling working set.
    pub(super) alloc: willow_power::AllocationScratch,
}

impl SupplyStage {
    /// Pre-size the buffers to the tree's maximum branching factor so even
    /// the first supply tick allocates as little as possible.
    pub(super) fn for_tree(tree: &Tree) -> Self {
        let max_branching: usize = (0..=tree.height())
            .map(|l| tree.max_branching_at(l))
            .max()
            .unwrap_or(0);
        SupplyStage {
            caps: Vec::with_capacity(max_branching),
            weights: Vec::with_capacity(max_branching),
            budgets: Vec::with_capacity(max_branching),
            alloc: willow_power::AllocationScratch::default(),
        }
    }
}

/// Free-function core of [`Willow::thermal_cap`]: the thermal hard cap
/// from a server's *accepted* temperature — the reading that passed the
/// plausibility filter — never a raw sensor, so a stuck or noisy sensor
/// cannot zero out a healthy server. Sleeping servers present their
/// wake-up headroom; they are at (or cooling toward) ambient, so this is
/// near their rating. Takes exactly the per-server inputs so the sharded
/// cap refresh can call it without borrowing the whole controller.
fn thermal_cap_of(server: &ServerState, decay_ds: f64, config: &ControllerConfig) -> Watts {
    let accepted = server.accepted_temp;
    match config.thermal_estimate {
        ThermalEstimate::WindowPrediction => {
            // `power_limit` with the decay factor cached at construction
            // (the window is a run constant).
            let limit = if config.delta_s().is_positive() {
                power_limit_with_decay(
                    server.thermal.params(),
                    accepted,
                    server.thermal.ambient(),
                    server.thermal.limit(),
                    decay_ds,
                )
            } else {
                Watts(f64::INFINITY)
            };
            limit.clamp(Watts::ZERO, server.thermal.rating())
        }
        ThermalEstimate::NaiveThrottle => {
            if accepted.0 > server.thermal.limit().0 + 1e-9 {
                Watts::ZERO
            } else {
                server.thermal.rating()
            }
        }
    }
}

/// [`thermal_cap_of`] with the live-ops fence applied: fenced and retired
/// servers present zero capacity, so the proportional division allocates
/// them zero budget — a drained server receives zero budget thereafter.
/// Active and draining servers (even sleeping ones) present their thermal
/// cap; sleeping servers keep advertising wake-up headroom.
fn effective_cap_of(server: &ServerState, decay_ds: f64, config: &ControllerConfig) -> Watts {
    match server.fence {
        FenceState::Active | FenceState::Draining => thermal_cap_of(server, decay_ds, config),
        FenceState::Fenced | FenceState::Retired => Watts::ZERO,
    }
}

impl Willow {
    /// Thermal hard cap for server `si` (see [`thermal_cap_of`]). Shared
    /// by the closed-loop supply stage and the open-loop fallback.
    pub(super) fn thermal_cap(&self, si: usize) -> Watts {
        thermal_cap_of(&self.servers[si], self.decay_ds[si], &self.config)
    }

    /// Count a missed directive for server `si`'s watchdog, tripping it at
    /// the configured threshold, and return the tighten-only fallback
    /// budget: `base` (the budget the leaf keeps applying) clipped by the
    /// locally known thermal cap, and by the conservative fallback
    /// fraction of the rating once tripped.
    fn missed_directive_fallback(&mut self, si: usize, base: Watts, cap: Watts) -> Watts {
        self.counters.directives_lost += 1;
        let wd = &mut self.servers[si].watchdog;
        wd.missed += 1;
        if !wd.tripped && wd.missed >= self.config.robustness.watchdog_threshold {
            wd.tripped = true;
            self.counters.watchdog_trips += 1;
        }
        let mut fallback = base.min(cap);
        if wd.tripped {
            let cap_w =
                self.servers[si].thermal.rating().0 * self.config.robustness.watchdog_cap_fraction;
            fallback = fallback.min(Watts(cap_w));
        }
        fallback
    }

    /// Refresh hard caps from the thermal model and divide the supply
    /// top-down proportional to demand (§IV-D).
    ///
    /// Only the per-server cap refresh shards across the pool (it is the
    /// `O(servers)` half, with an exponential per server under
    /// `WindowPrediction`). The top-down division, the watchdog pass and
    /// the reduced-flag pass stay serial: the division is inherently
    /// level-sequential and the other two are cheap linear scans whose
    /// counter updates would need ordering anyway.
    #[allow(unsafe_code)] // disjoint shard slicing; see `super::shard`
    pub(super) fn supply_adaptation(&mut self, supply: Watts, stage: &mut SupplyStage) {
        let n = self.servers.len();
        let threads = self.pool.threads();
        {
            let cap = RawSlice::new(&mut self.power.cap);
            let servers = &self.servers;
            let decay_ds = &self.decay_ds;
            let config = &self.config;
            let leaf_server = &self.leaf_server;
            self.pool.run(&|k| {
                for si in shard_range(n, threads, k) {
                    let leaf = servers[si].node.index();
                    // Slot-ownership gate: a retired row must not write a
                    // reused slot. Its own effective cap is zero, and its
                    // slot was zeroed at retirement, so skipping the write
                    // is value-identical to the serial loop.
                    if leaf_server[leaf] == Some(si) {
                        let c = effective_cap_of(&servers[si], decay_ds[si], config);
                        // SAFETY: exactly one roster row owns any leaf
                        // slot, so this scattered write is race-free.
                        unsafe {
                            *cap.get_mut(leaf) = c;
                        }
                    }
                }
            });
        }
        self.power.aggregate_caps(&self.tree);

        self.power.tp_old.copy_from_slice(&self.power.tp);
        let root = self.tree.root();
        let mut root_budget = supply.min(self.power.cap[root.index()]);
        // Predictive pre-tightening: if the supply forecast shows a dip
        // within the next two supply periods, start shrinking the root
        // budget toward it now (floored at current demand plus headroom —
        // see `PREDICTIVE_HEADROOM`), so evacuations off thermally-capped
        // servers begin a period before the dip instead of during it.
        // Tighten-only (an extra `.min`), so optimistic forecasts can
        // never loosen the physical budget.
        if self.config.supply_policy == SupplyPolicyChoice::Predictive {
            let plan = &self.planning;
            if let Some(dip) = plan
                .predicted_supply(1)
                .map(|p1| p1.min(plan.predicted_supply(2).unwrap_or(p1)))
            {
                let floor = self.power.cp[root.index()] * PREDICTIVE_HEADROOM;
                root_budget = root_budget.min(dip.max(floor));
            }
        }
        self.power.tp[root.index()] = root_budget;
        for level in (1..=self.tree.height()).rev() {
            for &node in self.tree.nodes_at_level(level) {
                let children = self.tree.children(node);
                stage.caps.clear();
                stage
                    .caps
                    .extend(children.iter().map(|c| self.power.cap[c.index()]));
                // The allocation "demand" weights depend on the policy.
                // `ProportionalToCapacity` weights *are* the caps, so that
                // arm borrows `stage.caps` directly instead of copying it.
                stage.weights.clear();
                match self.config.allocation {
                    AllocationPolicy::ProportionalToDemand => stage
                        .weights
                        .extend(children.iter().map(|c| self.power.cp[c.index()])),
                    AllocationPolicy::EqualShare => {
                        stage.weights.extend(children.iter().map(|_| Watts(1.0)));
                    }
                    AllocationPolicy::ProportionalToCapacity => {}
                }
                let weights: &[Watts] =
                    if self.config.allocation == AllocationPolicy::ProportionalToCapacity {
                        &stage.caps
                    } else {
                        &stage.weights
                    };
                allocate_proportional_into(
                    self.power.tp[node.index()],
                    weights,
                    &stage.caps,
                    &mut stage.budgets,
                    &mut stage.alloc,
                )
                .expect("validated inputs");
                for (c, &b) in children.iter().zip(&stage.budgets) {
                    self.power.tp[c.index()] = b;
                }
            }
        }

        // Stale-directive watchdog. A leaf whose directive is lost never
        // sees the freshly allocated budget: it keeps its previously
        // applied one, clipped by its locally known thermal cap — i.e. the
        // effective budget can only *tighten*, never loosen, without a
        // fresh directive. After `watchdog_threshold` consecutive misses
        // the leaf self-imposes a conservative fallback cap (a fraction of
        // its rating) until a directive gets through again.
        for si in 0..self.servers.len() {
            let leaf = self.servers[si].node.index();
            // Slot-ownership gate (as in the cap refresh above): a retired
            // row receives no directives, and its arena slot may since have
            // been recycled by a live replacement — rolling its directive
            // loss here would resurrect a stale budget on the live leaf.
            if self.leaf_server[leaf] != Some(si) {
                continue;
            }
            if self.disturb.directive_lost(si) {
                let base = self.power.tp_old[leaf];
                let cap = self.power.cap[leaf];
                self.power.tp[leaf] = self.missed_directive_fallback(si, base, cap);
            } else {
                self.servers[si].watchdog = Watchdog::default();
            }
        }

        // Budget-reduction flags for the unidirectional target rule (after
        // the watchdog, so degraded leaves read as reduced targets).
        for id in self.tree.ids() {
            let i = id.index();
            let reduced = match self.config.reduced_rule {
                ReducedTargetRule::Off => false,
                ReducedTargetRule::Strict => self.power.tp[i].0 < self.power.tp_old[i].0 - 1e-9,
                ReducedTargetRule::Disproportionate => {
                    let old = self.power.tp_old[i].0;
                    let new = self.power.tp[i].0;
                    if old <= 0.0 || new >= old {
                        false
                    } else {
                        match self.tree.parent(id) {
                            None => false, // global events never flag the root
                            Some(p) => {
                                let p_old = self.power.tp_old[p.index()].0;
                                let p_new = self.power.tp[p.index()].0;
                                let parent_ratio = if p_old > 0.0 { p_new / p_old } else { 1.0 };
                                new / old < parent_ratio - 1e-6
                            }
                        }
                    }
                }
            };
            self.power.reduced[i] = reduced;
        }
    }

    /// The supply-tick fallback with the controller down: every leaf's
    /// directive is missing, so each refreshes its *own* thermal cap from
    /// its accepted temperature (that computation is local) and applies
    /// the same tighten-only fallback it uses for an individually lost
    /// directive. The base here is the leaf's currently *applied* budget
    /// (`tp`): with the controller down there is no freshly allocated
    /// budget for `tp_old` to snapshot.
    pub(super) fn open_loop_supply_fallback(&mut self) {
        for si in 0..self.servers.len() {
            let leaf = self.servers[si].node.index();
            // Retired rows own no slot: they miss no directives and must
            // not repopulate the (possibly recycled) leaf's cap or budget.
            if self.leaf_server[leaf] != Some(si) {
                continue;
            }
            let cap = self.thermal_cap(si);
            self.power.cap[leaf] = cap;
            let base = self.power.tp[leaf];
            self.power.tp[leaf] = self.missed_directive_fallback(si, base, cap);
        }
    }
}
