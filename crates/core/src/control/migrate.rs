//! Migration machinery shared by the demand, consolidation and live-ops
//! stages: one attempt per decided move, executed within the tick that
//! decided it (§IV-E), ping-pong suppression (Property 4), and exponential
//! retry backoff for failed attempts.

use super::demand::DeficitItem;
use super::Willow;
use crate::disturbance::MigrationOutcome;
use crate::migration::MigrationRecord;
use willow_topology::NodeId;
use willow_workload::app::AppId;

/// Exponential retry backoff for an app whose migration failed. Part of
/// the checkpointed state, like [`Watchdog`](super::Watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Backoff {
    /// Failed attempts so far.
    pub failures: u32,
    /// Earliest tick at which another attempt may be made.
    pub retry_at: u64,
}

impl Willow {
    /// True if placing `app` on `target` now would return it to the host it
    /// left within the ping-pong window `Δ_f`.
    pub(super) fn would_pingpong(&self, app: AppId, target: NodeId, tick: u64) -> bool {
        self.apps.last_move(app).is_some_and(|(prev_from, t)| {
            target == prev_from && tick.saturating_sub(t) < self.config.pingpong_window
        })
    }

    /// Is `app` still waiting out its retry backoff at `tick`?
    pub(super) fn in_backoff(&self, app: AppId, tick: u64) -> bool {
        self.apps.backoff(app).is_some_and(|b| tick < b.retry_at)
    }

    /// Record a failed migration attempt for `app` and schedule its next
    /// eligible attempt with exponential backoff.
    pub(super) fn register_failure(&mut self, app: AppId, tick: u64) {
        let rb = self.config.robustness;
        let failures = self.apps.backoff(app).map_or(0, |b| b.failures) + 1;
        let exp = (failures - 1).min(rb.retry_cap);
        let delay = rb.retry_base.saturating_mul(1u64 << exp);
        let retry_at = tick.saturating_add(delay);
        self.apps.set_backoff(app, Backoff { failures, retry_at });
    }

    /// Try to migrate `item` to `target_leaf`, consuming the next
    /// pre-rolled outcome. On `Reject` admission is refused before any
    /// copy work, so nothing is charged. Otherwise the copy work happens:
    /// both end nodes pay the temporary cost of `item`'s decision-time
    /// demand for one period and the fabric carries the traffic. On
    /// `Abort` the app then stays at the source and the copy cost is
    /// charged into both ends' demand views; on `Success` it moves (a
    /// cleared backoff counts as a successful retry). Both failure modes
    /// enter the app into retry backoff. Returns whether the app moved.
    pub(super) fn attempt_migration(
        &mut self,
        item: &DeficitItem,
        target_leaf: NodeId,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) -> bool {
        let attempt = self.mig_attempts;
        self.mig_attempts += 1;
        let outcome = self.disturb.migration_outcome(attempt);
        if outcome == MigrationOutcome::Reject {
            self.counters.migration_rejects += 1;
            self.register_failure(item.app, tick);
            return false;
        }
        let src_idx = item.server;
        let (from, to) = (self.servers[src_idx].node, target_leaf);
        let tgt_idx = self.server_at(to).expect("target is a server leaf");
        debug_assert_ne!(src_idx, tgt_idx, "cannot migrate to self");
        assert_eq!(
            self.apps.host(item.app),
            Some(src_idx),
            "migrating an app not hosted at its source"
        );

        // The copy work, real whether or not the move completes.
        let local = self.tree.are_siblings(from, to);
        let cost = self.config.cost_model.end_node_cost(item.demand, local);
        self.servers[src_idx].pending_cost += cost;
        self.servers[tgt_idx].pending_cost += cost;
        let units = self.config.cost_model.traffic_units(item.demand);
        self.fabric.record_migration(&self.tree, from, to, units);

        if outcome == MigrationOutcome::Abort {
            // Dead link / crash mid-copy: the placement never flips.
            self.counters.migration_aborts += 1;
            self.power.cp[from.index()] += cost;
            self.power.cp[to.index()] += cost;
            self.servers[src_idx].local_cp += cost;
            self.servers[tgt_idx].local_cp += cost;
            self.register_failure(item.app, tick);
            return false;
        }

        if self.apps.clear_backoff(item.app) {
            self.counters.migration_retries += 1;
        }
        // The demand views move the app table's demand, and charge its cost.
        let demand = self.apps.demand(item.app);
        self.rehost(item.app, tgt_idx);
        let cost = self.config.cost_model.end_node_cost(demand, local);

        // Keep leaf CPs current so later packing sees updated surpluses.
        self.power.cp[from.index()] = (self.power.cp[from.index()] - demand).non_negative() + cost;
        self.power.cp[to.index()] += demand + cost;
        let src = &mut self.servers[src_idx].local_cp;
        *src = (*src - demand).non_negative() + cost;
        self.servers[tgt_idx].local_cp += demand + cost;

        // Switches on the path.
        let hops = self.tree.path_len(from, to) - 1;
        // Ping-pong: the app returns to the host it last left, within Δ_f.
        let pingpong = self.would_pingpong(item.app, to, tick);
        self.apps.set_last_move(item.app, from, tick);

        self.stats.migrations += 1;
        records.push(MigrationRecord {
            tick,
            app: item.app,
            from,
            to,
            moved: demand,
            reason: item.reason,
            local,
            hops,
            pingpong,
        });
        true
    }
}
