//! Pipeline stage 1 — measurement: raw per-app demands are smoothed
//! (Eq. 4) into leaf `CP` values and aggregated up the tree.
//!
//! The per-server half runs as one sharded pass over the roster: each
//! active row records its apps' demands in the app table and re-sums them
//! in list order, then smooths, sets its own `local_cp`, feeds its
//! planning series (predictive policy only) and writes the hierarchy's
//! leaf `CP`. Each roster row and planning series is touched by exactly
//! one shard; an app is on exactly one server's list, so the scattered
//! app-demand writes never overlap either. The one arena-indexed store, `power.cp`, is gated on
//! slot ownership (`leaf_server[leaf] == si`) so a retired row whose
//! leaf slot was reused by a later-added server can never race — or
//! clobber — the live owner's entry. The upward aggregation stays serial
//! (it is one `O(nodes)` pass over contiguous per-level slices).

use super::planning::PLANNING_GAINS;
use super::shard::{shard_range, RawSlice};
use super::Willow;
use std::sync::atomic::{AtomicUsize, Ordering};
use willow_thermal::units::Watts;

impl Willow {
    /// Smooth raw demands into leaf `CP` values and aggregate upward. A
    /// server whose report is lost keeps running on its own fresh view
    /// (its row's `local_cp`) while the hierarchy keeps the stale
    /// `power.cp` entry.
    #[allow(unsafe_code)] // disjoint shard slicing; see `super::shard`
    pub(super) fn measure(&mut self, app_demand: &[Watts]) {
        let n = self.servers.len();
        let threads = self.pool.threads();
        let reports_lost = AtomicUsize::new(0);
        {
            let (lists, demand) = self.apps.lists_and_demand();
            let apps_len = demand.len();
            let demand = RawSlice::new(demand);
            let servers = RawSlice::new(&mut self.servers);
            let cp = RawSlice::new(&mut self.power.cp);
            let planning = self.planning.as_mut().map(|p| {
                debug_assert_eq!(p.leaves.len(), n, "planning tracks the roster");
                RawSlice::new(&mut p.leaves)
            });
            let gains = self.config.gains();
            let disturb = &self.disturb;
            let leaf_server = &self.leaf_server;
            let lost = &reports_lost;
            self.pool.run(&|k| {
                let range = shard_range(n, threads, k);
                // SAFETY: shard ranges over server indices are pairwise
                // disjoint, and `servers` is indexed by server.
                let servers = unsafe { servers.range_mut(range.clone()) };
                // SAFETY: `planning.leaves` is indexed by server like the
                // roster itself, so this shard's sub-slice is disjoint too.
                let mut plan_leaves = planning
                    .as_ref()
                    .map(|p| unsafe { p.range_mut(range.clone()) });
                for (off, server) in servers.iter_mut().enumerate() {
                    let si = range.start + off;
                    let leaf = server.node.index();
                    let owner = leaf_server[leaf] == si as u32;
                    server.local_cp = if server.active {
                        server.app_power = lists.observe(si, app_demand, |id, w| {
                            assert!(id < apps_len, "app{id} listed past the app table");
                            // SAFETY: `id` is in bounds (checked above), and
                            // an app is on exactly one server's list, so no
                            // two rows write the same demand entry.
                            unsafe {
                                *demand.get_mut(id) = w;
                            }
                        });
                        let smoothed = server.smooth(gains);
                        debug_assert!(owner, "active rows own a slot");
                        if disturb.report_lost(si) {
                            lost.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // SAFETY: exactly one roster row owns any leaf
                            // slot, so this scattered write is race-free.
                            unsafe {
                                *cp.get_mut(leaf) = smoothed;
                            }
                        }
                        smoothed
                    } else {
                        // Slot-ownership gate: a retired row must never
                        // write the (possibly reused) slot — only the live
                        // owner does.
                        if owner {
                            // SAFETY: as above — sole owner of `leaf`.
                            unsafe {
                                *cp.get_mut(leaf) = Watts::ZERO;
                            }
                        }
                        Watts::ZERO
                    };
                    // Planning seam: feed this server's demand series —
                    // the smoothed view for active servers, zero while
                    // asleep/retired.
                    if let Some(plan_leaves) = plan_leaves.as_deref_mut() {
                        plan_leaves[off].observe(PLANNING_GAINS, server.local_cp);
                    }
                    // Migration costs are charged for exactly one period.
                    server.pending_cost = Watts::ZERO;
                }
            });
        }
        // Integer addition commutes: the relaxed total matches the serial
        // count at every thread count.
        self.counters.reports_lost += reports_lost.into_inner();
        self.power.aggregate_demands(&self.tree);
    }

    /// Leaf-local measurement with the controller down: smoothing still
    /// happens (the machine observes its own load) and each row's
    /// `local_cp` stays fresh, but nothing reaches the hierarchy —
    /// `power.cp` keeps the controller's last view, no control messages
    /// are exchanged and no forecaster observes (the forecasters are the
    /// controller's). Stays serial: the open-loop path models per-leaf
    /// firmware, not the controller's hot loop.
    pub(super) fn measure_open_loop(&mut self, app_demand: &[Watts]) {
        let gains = self.config.gains();
        for (si, server) in self.servers.iter_mut().enumerate() {
            server.local_cp = if server.active {
                server.app_power = self.apps.observe(si, app_demand);
                server.smooth(gains)
            } else {
                Watts::ZERO
            };
            server.pending_cost = Watts::ZERO;
        }
    }
}
