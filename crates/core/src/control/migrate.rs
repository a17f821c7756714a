//! Transactional migration machinery shared by the demand and
//! consolidation stages: prepare → transfer → commit/abort through the
//! write-ahead journal (see `crate::txn`), ping-pong suppression
//! (Property 4), and exponential retry backoff for failed attempts.

use super::demand::DeficitItem;
use super::Willow;
use crate::disturbance::MigrationOutcome;
use crate::migration::MigrationRecord;
use crate::txn::TxnId;
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

    /// Try to migrate `item` to `target_leaf` as a transaction (see
    /// `crate::txn`), consuming the next pre-rolled outcome. On `Success`
    /// the transaction runs prepare → transfer → commit and the move
    /// happens (a cleared backoff counts as a successful retry); on
    /// `Reject` the transaction aborts straight from `Prepared` — nothing
    /// is charged; on `Abort` it aborts from `Transferred` — the copy work
    /// already happened, so both end nodes pay the temporary cost and the
    /// fabric carried the traffic, but the app stays at the source. Both
    /// failure modes enter the app into retry backoff. Returns whether the
    /// app moved.
    pub(super) fn attempt_migration(
        &mut self,
        item: &DeficitItem,
        target_leaf: NodeId,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) -> bool {
        let attempt = self.mig_attempts;
        self.mig_attempts += 1;
        let txn = self.prepare_migration(item, target_leaf, tick);
        match self.disturb.migration_outcome(attempt) {
            MigrationOutcome::Success => {
                if self.apps.clear_backoff(item.app) {
                    self.counters.migration_retries += 1;
                }
                self.transfer_migration(txn);
                let committed = self.commit_migration(txn, records);
                debug_assert!(committed, "a fresh transaction must commit");
                true
            }
            MigrationOutcome::Reject => {
                // Admission refused before any copy work: abort from
                // `Prepared`, charging nothing.
                self.abort_migration(txn);
                self.counters.migration_rejects += 1;
                self.register_failure(item.app, tick);
                false
            }
            MigrationOutcome::Abort => {
                // Dead link / crash mid-copy: the transfer's work was real,
                // the placement flip never happened.
                self.counters.migration_aborts += 1;
                self.transfer_migration(txn);
                self.abort_migration(txn);
                self.register_failure(item.app, tick);
                false
            }
        }
    }

    /// Transaction phase 1 — **prepare**: validate the attempt and open a
    /// journal entry. Nothing is charged; the app keeps running at the
    /// source.
    pub(super) fn prepare_migration(
        &mut self,
        item: &DeficitItem,
        target_leaf: NodeId,
        tick: u64,
    ) -> TxnId {
        let src_leaf = self.servers[item.server].node;
        debug_assert_eq!(
            self.apps.host(item.app),
            Some(item.server),
            "preparing a migration for an app not hosted at its source"
        );
        debug_assert!(
            self.server_at(target_leaf).is_some(),
            "preparing a migration to a non-server target"
        );
        self.journal.begin(
            item.app,
            src_leaf,
            target_leaf,
            item.demand,
            item.reason,
            tick,
        )
    }

    /// Transaction phase 2 — **transfer**: the copy work. Both end nodes
    /// pay the temporary cost for one period (§IV-E) and the fabric
    /// carries the traffic. This happens whether the transaction later
    /// commits or aborts — aborting cannot refund work already done.
    pub(super) fn transfer_migration(&mut self, txn: TxnId) {
        let e = *self
            .journal
            .entry(txn)
            .expect("transferring a live transaction");
        let src_idx = self.server_at(e.from).expect("source is a server leaf");
        let tgt_idx = self.server_at(e.to).expect("target is a server leaf");
        let local = self.tree.are_siblings(e.from, e.to);
        let cost = self.config.cost_model.end_node_cost(e.demand, local);
        self.servers[src_idx].pending_cost += cost;
        self.servers[tgt_idx].pending_cost += cost;
        let units = self.config.cost_model.traffic_units(e.demand);
        self.fabric
            .record_migration(&self.tree, e.from, e.to, units);
        self.journal.mark_transferred(txn);
    }

    /// Transaction phase 3 — **commit**: flip the placement at the target
    /// and update every demand view. Idempotent: committing an
    /// already-committed (or aborted) transaction returns `false` and
    /// changes nothing, so duplicated commit messages can never
    /// double-move an app. Returns whether *this* call performed the move.
    pub(super) fn commit_migration(
        &mut self,
        txn: TxnId,
        records: &mut Vec<MigrationRecord>,
    ) -> bool {
        let e = match self.journal.entry(txn) {
            Some(e) => *e,
            None => return false,
        };
        if !self.journal.commit(txn) {
            return false;
        }
        let src_idx = self.server_at(e.from).expect("source is a server leaf");
        let tgt_idx = self.server_at(e.to).expect("target is a server leaf");
        debug_assert_ne!(src_idx, tgt_idx, "cannot migrate to self");

        assert_eq!(
            self.apps.host(e.app),
            Some(src_idx),
            "committed app still hosted at source"
        );
        let demand = self.apps.demand(e.app);
        self.rehost(e.app, tgt_idx);

        let local = self.tree.are_siblings(e.from, e.to);
        let cost = self.config.cost_model.end_node_cost(demand, local);

        // Keep leaf CPs current so later packing sees updated surpluses.
        self.power.cp[e.from.index()] =
            (self.power.cp[e.from.index()] - demand).non_negative() + cost;
        self.power.cp[e.to.index()] += demand + cost;
        let src = &mut self.servers[src_idx].local_cp;
        *src = (*src - demand).non_negative() + cost;
        self.servers[tgt_idx].local_cp += demand + cost;

        let hops = self.tree.path_len(e.from, e.to) - 1; // switches on path
                                                         // Ping-pong: the app returns to the host it last left, within Δ_f.
        let pingpong = self.would_pingpong(e.app, e.to, e.tick);
        self.apps.set_last_move(e.app, e.from, e.tick);

        self.stats.migrations += 1;
        records.push(MigrationRecord {
            tick: e.tick,
            app: e.app,
            from: e.from,
            to: e.to,
            moved: demand,
            reason: e.reason,
            local,
            hops,
            pingpong,
        });
        true
    }

    /// Explicit **abort**, legal from either open phase: the app stays at
    /// the source. An abort after transfer charges the copy cost into both
    /// ends' demand views (the work was real); an abort from `Prepared`
    /// charges nothing.
    pub(super) fn abort_migration(&mut self, txn: TxnId) {
        let e = *self
            .journal
            .entry(txn)
            .expect("aborting a live transaction");
        if e.phase == crate::txn::TxnPhase::Transferred {
            let local = self.tree.are_siblings(e.from, e.to);
            let cost = self.config.cost_model.end_node_cost(e.demand, local);
            self.power.cp[e.from.index()] += cost;
            self.power.cp[e.to.index()] += cost;
            for leaf in [e.from, e.to] {
                let si = self.server_at(leaf).expect("ends are server leaves");
                self.servers[si].local_cp += cost;
            }
        }
        self.journal.abort(txn);
    }
}
