//! Transactional migrations: prepare → transfer → commit, with explicit
//! abort.
//!
//! A migration moves someone else's workload between machines, so its
//! failure modes matter more than its happy path. The controller runs
//! every migration through a small write-ahead journal:
//!
//! 1. **Prepare** — the attempt is validated and admitted; a journal
//!    entry opens in [`TxnPhase::Prepared`]. Nothing has been charged.
//! 2. **Transfer** — the copy work happens: both end nodes pay the
//!    temporary cost for one period and the fabric carries the traffic.
//!    The entry moves to [`TxnPhase::Transferred`]. The app still runs at
//!    the source.
//! 3. **Commit** — the placement flips atomically at the target. Commits
//!    are *idempotent*: committing an already-committed transaction (a
//!    duplicated commit message) is a no-op, so message duplication can
//!    never double-move or duplicate an application.
//!
//! **Abort** is legal from either open phase: the app stays at the
//! source, and whatever copy cost was already incurred stays charged (the
//! work was real). Because the placement only changes inside commit, a
//! crash or dead link at any earlier point leaves the application exactly
//! where it was — never orphaned, never duplicated. A restarted
//! controller resolves entries still open in its checkpoint with
//! [`MigrationJournal::resolve_in_flight`], which aborts them.

use crate::migration::MigrationReason;
use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_topology::NodeId;
use willow_workload::app::AppId;

/// Monotonic migration-transaction id, unique within one controller run
/// (and across checkpoint/restore: the counter is checkpointed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Lifecycle phase of a migration transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnPhase {
    /// Validated and admitted; no copy work has happened yet.
    Prepared,
    /// State copied to the target; the placement has not flipped yet.
    Transferred,
    /// Placement flipped at the target — the migration is durable.
    Committed,
    /// Rolled back: the app remains at the source. Copy cost already
    /// incurred (an abort from [`TxnPhase::Transferred`]) stays charged.
    Aborted,
}

/// One migration transaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationTxn {
    /// Journal-assigned id.
    pub id: TxnId,
    /// The application being moved.
    pub app: AppId,
    /// Source server (PMU-tree leaf).
    pub from: NodeId,
    /// Target server.
    pub to: NodeId,
    /// The app's demand at decision time (sizes the copy cost).
    pub demand: Watts,
    /// Why the migration was decided.
    pub reason: MigrationReason,
    /// Current lifecycle phase.
    pub phase: TxnPhase,
    /// Demand period in which the transaction was prepared.
    pub tick: u64,
}

impl MigrationTxn {
    /// True while the transaction has neither committed nor aborted.
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self.phase, TxnPhase::Prepared | TxnPhase::Transferred)
    }
}

/// Closed (committed/aborted) entries are kept for this many demand
/// periods so duplicated commit messages arriving late still hit the
/// idempotency check instead of a missing entry.
pub const TXN_RETAIN_TICKS: u64 = 2;

/// Bounded write-ahead journal of migration transactions.
///
/// Entries are appended by `begin` and pruned by `prune` once closed and
/// older than [`TXN_RETAIN_TICKS`]; open entries are never pruned, so a
/// checkpoint always carries every in-flight transaction. The backing
/// `Vec` keeps its capacity across prunes — on a quiet steady-state tick
/// the journal does no heap work at all.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationJournal {
    next_id: u64,
    entries: Vec<MigrationTxn>,
}

impl Clone for MigrationJournal {
    fn clone(&self) -> Self {
        MigrationJournal {
            next_id: self.next_id,
            entries: self.entries.clone(),
        }
    }

    /// Reuses the entry buffer, so a warm checkpoint copies the journal
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.next_id = source.next_id;
        self.entries.clone_from(&source.entries);
    }
}

impl MigrationJournal {
    /// Open a transaction in [`TxnPhase::Prepared`] and return its id.
    pub fn begin(
        &mut self,
        app: AppId,
        from: NodeId,
        to: NodeId,
        demand: Watts,
        reason: MigrationReason,
        tick: u64,
    ) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        self.entries.push(MigrationTxn {
            id,
            app,
            from,
            to,
            demand,
            reason,
            phase: TxnPhase::Prepared,
            tick,
        });
        id
    }

    /// The journal entry for `id`, if it has not been pruned.
    ///
    /// Searched newest first (ids are unique): a migration works on the
    /// transaction it just began, so its lookups cost O(1). Searching from
    /// the oldest entry costs O(transactions this tick) per lookup, which
    /// is quadratic over a large consolidation round.
    #[must_use]
    pub fn entry(&self, id: TxnId) -> Option<&MigrationTxn> {
        self.entries.iter().rev().find(|e| e.id == id)
    }

    fn entry_mut(&mut self, id: TxnId) -> Option<&mut MigrationTxn> {
        self.entries.iter_mut().rev().find(|e| e.id == id)
    }

    /// Record the copy work: [`TxnPhase::Prepared`] → `Transferred`.
    ///
    /// # Panics
    /// Panics if the transaction is unknown or not in `Prepared` — phase
    /// transitions are controller bugs, not runtime conditions.
    pub fn mark_transferred(&mut self, id: TxnId) {
        let e = self
            .entry_mut(id)
            .expect("transferring unknown transaction");
        assert_eq!(
            e.phase,
            TxnPhase::Prepared,
            "transfer out of order for {id}"
        );
        e.phase = TxnPhase::Transferred;
    }

    /// Commit `id`. Returns `true` exactly when *this* call performed the
    /// commit; a duplicate commit (already committed, or an entry already
    /// pruned after committing) returns `false` and changes nothing, which
    /// is what makes commits idempotent under message duplication.
    /// Committing an aborted transaction also returns `false`.
    pub fn commit(&mut self, id: TxnId) -> bool {
        match self.entry_mut(id) {
            Some(e) if e.is_open() => {
                e.phase = TxnPhase::Committed;
                true
            }
            _ => false,
        }
    }

    /// Abort `id` from either open phase; a no-op on closed entries.
    pub fn abort(&mut self, id: TxnId) {
        if let Some(e) = self.entry_mut(id) {
            if e.is_open() {
                e.phase = TxnPhase::Aborted;
            }
        }
    }

    /// Open (prepared or transferred) transactions, oldest first.
    pub fn in_flight(&self) -> impl Iterator<Item = &MigrationTxn> {
        self.entries.iter().filter(|e| e.is_open())
    }

    /// Abort every open transaction and return how many there were. This
    /// is the restart path: an entry a crashed controller left open never
    /// flipped a placement, so aborting it matches physical reality.
    pub fn resolve_in_flight(&mut self) -> usize {
        let mut resolved = 0;
        for e in &mut self.entries {
            if e.is_open() {
                e.phase = TxnPhase::Aborted;
                resolved += 1;
            }
        }
        resolved
    }

    /// Drop closed entries older than [`TXN_RETAIN_TICKS`] periods. Open
    /// entries are always kept.
    pub fn prune(&mut self, now: u64) {
        self.entries
            .retain(|e| e.is_open() || now.saturating_sub(e.tick) < TXN_RETAIN_TICKS);
    }

    /// Number of journal entries currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the journal holds no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(j: &mut MigrationJournal, tick: u64) -> TxnId {
        j.begin(
            AppId(7),
            NodeId(3),
            NodeId(5),
            Watts(42.0),
            MigrationReason::Demand,
            tick,
        )
    }

    #[test]
    fn happy_path_prepare_transfer_commit() {
        let mut j = MigrationJournal::default();
        let id = begin(&mut j, 10);
        assert_eq!(j.entry(id).unwrap().phase, TxnPhase::Prepared);
        j.mark_transferred(id);
        assert_eq!(j.entry(id).unwrap().phase, TxnPhase::Transferred);
        assert!(j.commit(id), "first commit performs the flip");
        assert_eq!(j.entry(id).unwrap().phase, TxnPhase::Committed);
    }

    #[test]
    fn duplicate_commit_is_idempotent() {
        let mut j = MigrationJournal::default();
        let id = begin(&mut j, 0);
        j.mark_transferred(id);
        assert!(j.commit(id));
        assert!(!j.commit(id), "duplicated commit message must be a no-op");
        assert_eq!(j.entry(id).unwrap().phase, TxnPhase::Committed);
        // Even after the entry ages out, a late duplicate stays a no-op.
        j.prune(100);
        assert!(!j.commit(id));
    }

    #[test]
    fn abort_from_either_open_phase_never_commits() {
        let mut j = MigrationJournal::default();
        let a = begin(&mut j, 0);
        j.abort(a); // reject before any copy work
        assert_eq!(j.entry(a).unwrap().phase, TxnPhase::Aborted);
        let b = begin(&mut j, 0);
        j.mark_transferred(b);
        j.abort(b); // dead link mid-flight
        assert_eq!(j.entry(b).unwrap().phase, TxnPhase::Aborted);
        assert!(!j.commit(a), "aborted transactions can never commit");
        assert!(!j.commit(b));
    }

    #[test]
    fn resolve_in_flight_aborts_open_entries_only() {
        let mut j = MigrationJournal::default();
        let done = begin(&mut j, 0);
        j.mark_transferred(done);
        assert!(j.commit(done));
        let prepared = begin(&mut j, 1);
        let transferred = begin(&mut j, 1);
        j.mark_transferred(transferred);
        assert_eq!(j.in_flight().count(), 2);
        assert_eq!(j.resolve_in_flight(), 2);
        assert_eq!(j.in_flight().count(), 0);
        assert_eq!(j.entry(done).unwrap().phase, TxnPhase::Committed);
        assert_eq!(j.entry(prepared).unwrap().phase, TxnPhase::Aborted);
        assert_eq!(j.entry(transferred).unwrap().phase, TxnPhase::Aborted);
    }

    #[test]
    fn prune_keeps_open_entries_and_recent_closures() {
        let mut j = MigrationJournal::default();
        let old = begin(&mut j, 0);
        j.mark_transferred(old);
        assert!(j.commit(old));
        let open = begin(&mut j, 0);
        let fresh = begin(&mut j, 9);
        j.abort(fresh);
        j.prune(10);
        assert!(j.entry(old).is_none(), "closed + old ⇒ pruned");
        assert!(j.entry(open).is_some(), "open entries are never pruned");
        assert!(j.entry(fresh).is_some(), "recent closures are retained");
    }

    #[test]
    fn ids_are_monotonic_and_survive_serde() {
        let mut j = MigrationJournal::default();
        let a = begin(&mut j, 0);
        let b = begin(&mut j, 0);
        assert!(b > a);
        let json = serde_json::to_string(&j).unwrap();
        let mut back: MigrationJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
        let c = begin(&mut back, 1);
        assert!(c > b, "the id counter must survive a round trip");
    }
}
