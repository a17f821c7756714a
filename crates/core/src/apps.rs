//! The app table: every per-application fact in one place.
//!
//! The application (VM) is the unit of migration (§IV-E). Everything the
//! controller knows about one is indexed here by `AppId.0` (ids are dense
//! from 0): the [`Application`], its host server, its latest raw demand,
//! its last move (the ping-pong window `Δ_f` of Property 4) and its retry
//! backoff.
//!
//! Each server's apps form an intrusive singly linked list through the
//! `next` column, with a head and tail per server. A migration unlinks the
//! app and appends it at the target's tail: the order a per-server
//! `Vec::remove` + `push` gives (the frozen reference controller keeps
//! that form), which every per-server float sum, shedding pass and victim
//! tie-break walks.
//! Unlinking walks the source's few apps to the predecessor instead of
//! paying for a `prev` column.
//!
//! No command adds or removes an app, so the [`Application`] column is an
//! immutable `Arc` that every checkpoint shares rather than copies. Every
//! other column is a `Vec` of `Copy` values, so a checkpoint is one
//! `memcpy` per column. The last move and the backoff are rare, so they
//! live in a pool of 24-byte records that the 4-byte `memory` column
//! indexes; full columns would add 24 bytes per app to the live table and
//! to every checkpoint (10 MB per copy at 420,000 apps). A record is made
//! on an app's first move or failure and kept for the run, as the map
//! entries it replaces were.

use crate::control::{Backoff, WillowError};
use crate::server::ServerSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use willow_thermal::units::Watts;
use willow_topology::NodeId;
use willow_workload::app::{AppId, Application};

/// End-of-list marker in the `next`/`head`/`tail` columns, "no record"
/// in `memory` and "never moved" in [`Memory::moved_from`].
const NONE: u32 = u32::MAX;

/// The migration memory of one app: its last move and its retry backoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Memory {
    /// The leaf the app last migrated *from* (`NONE`: never moved) ...
    /// Ping-pong is defined as the paper does — "migrates demand from
    /// server A to B and then immediately from B to A" — a return to the
    /// previous host within the `Δ_f` window.
    moved_from: u32,
    /// Failed migration attempts since the app's last success (0: not in
    /// backoff) ...
    failures: u32,
    /// ... the tick of the last move ...
    moved_at: u64,
    /// ... and the earliest tick of the next attempt.
    retry_at: u64,
}

impl Memory {
    const EMPTY: Memory = Memory {
        moved_from: NONE,
        failures: 0,
        moved_at: 0,
        retry_at: 0,
    };
}

/// Per-application state in columns indexed by `AppId.0`, plus one
/// intrusive list of apps per server. See the module docs. Methods taking
/// an app id or a server index panic when the table has no such row.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AppTable {
    /// The application in each row (`app[i].id == AppId(i)`), shared.
    app: Arc<[Application]>,
    /// Index of the server hosting each app.
    host: Vec<u32>,
    /// Latest raw demand of each app.
    demand: Vec<Watts>,
    /// Each app's record in `records` (`NONE`: it never moved or failed).
    memory: Vec<u32>,
    /// Memory records, one per app that has moved or failed.
    records: Vec<Memory>,
    /// The next app on the same server's list.
    next: Vec<u32>,
    /// First app on each server's list, indexed by server.
    head: Vec<u32>,
    /// Last app on each server's list, indexed by server.
    tail: Vec<u32>,
}

/// Every server's app list, read through the table's `next` and `head`
/// columns. Each app is on exactly one list.
#[derive(Clone, Copy)]
pub(crate) struct AppLists<'a> {
    next: &'a [u32],
    head: &'a [u32],
}

impl<'a> AppLists<'a> {
    /// The apps on server `server`, in list order.
    pub(crate) fn on(self, server: usize) -> impl Iterator<Item = AppId> + 'a {
        let link = |id: u32| (id != NONE).then_some(id);
        std::iter::successors(link(self.head[server]), move |&id| {
            link(self.next[id as usize])
        })
        .map(AppId)
    }

    /// Hand this period's raw demand of every app on `server`, read from
    /// `input` (indexed by `AppId.0`), to `record` as `(row, demand)`, and
    /// return the demands' sum in list order.
    ///
    /// # Panics
    /// Panics if `input` does not cover an app on `server`.
    pub(crate) fn observe(
        self,
        server: usize,
        input: &[Watts],
        mut record: impl FnMut(usize, Watts),
    ) -> Watts {
        self.on(server)
            .map(|id| {
                let id = id.0 as usize;
                assert!(id < input.len(), "demand vector too short for app{id}");
                record(id, input[id]);
                input[id]
            })
            .sum()
    }
}

impl Clone for AppTable {
    fn clone(&self) -> Self {
        let mut out = AppTable::default();
        out.clone_from(self);
        out
    }

    /// Column by column, so every buffer keeps its capacity: a warm
    /// checkpoint copies the table without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.app.clone_from(&source.app);
        self.host.clone_from(&source.host);
        self.demand.clone_from(&source.demand);
        self.memory.clone_from(&source.memory);
        self.records.clone_from(&source.records);
        self.next.clone_from(&source.next);
        self.head.clone_from(&source.head);
        self.tail.clone_from(&source.tail);
    }
}

impl std::ops::Index<AppId> for AppTable {
    type Output = Application;

    /// The application with id `id`.
    fn index(&self, id: AppId) -> &Application {
        &self.app[id.0 as usize]
    }
}

impl AppTable {
    /// The table for a fresh controller: each spec's apps, in spec order,
    /// on that spec's server, with zero demand and no history.
    ///
    /// # Errors
    /// [`WillowError::AppBeyondTable`] for an id not below the number of
    /// apps (ids must be dense from 0), [`WillowError::DuplicateApp`] for
    /// an id hosted twice.
    pub(crate) fn for_specs(specs: &[ServerSpec]) -> Result<AppTable, WillowError> {
        let n: usize = specs.iter().map(|s| s.apps.len()).sum();
        let mut rows: Vec<Application> =
            specs.iter().flat_map(|s| s.apps.iter().copied()).collect();
        let mut table = AppTable {
            app: Arc::default(),
            host: vec![NONE; n],
            demand: vec![Watts::ZERO; n],
            memory: vec![NONE; n],
            records: Vec::new(),
            next: vec![NONE; n],
            head: vec![NONE; specs.len()],
            tail: vec![NONE; specs.len()],
        };
        for (si, spec) in specs.iter().enumerate() {
            for app in &spec.apps {
                let id = app.id.0 as usize;
                if id >= n {
                    return Err(WillowError::AppBeyondTable(app.id));
                }
                if table.host[id] != NONE {
                    return Err(WillowError::DuplicateApp(app.id));
                }
                rows[id] = *app;
                table.push_back(si, app.id);
            }
        }
        table.app = rows.into();
        Ok(table)
    }

    /// Check that the lists and columns agree, so a malformed checkpoint
    /// is an error at restore rather than a panic in `step`: every column
    /// has one entry per app (or per server), each server's list is a
    /// well-formed chain of in-range ids whose host is that server, every
    /// app sits on exactly one list, and every memory record belongs to
    /// exactly one app.
    pub(crate) fn validate(&self, servers: usize) -> Result<(), WillowError> {
        let n = self.app.len();
        let shape = crate::control::snapshot_shape;
        shape("apps.host", self.host.len(), n)?;
        shape("apps.demand", self.demand.len(), n)?;
        shape("apps.memory", self.memory.len(), n)?;
        shape("apps.next", self.next.len(), n)?;
        shape("apps.head", self.head.len(), servers)?;
        shape("apps.tail", self.tail.len(), servers)?;
        let mut listed = vec![false; n];
        for si in 0..servers {
            let mut prev = NONE;
            let mut cur = self.head[si];
            while cur != NONE {
                let id = cur as usize;
                if id >= n {
                    return Err(WillowError::AppBeyondTable(AppId(cur)));
                }
                if listed[id] {
                    return Err(WillowError::DuplicateApp(AppId(cur)));
                }
                listed[id] = true;
                if self.app[id].id.0 != cur || self.host[id] as usize != si {
                    return Err(WillowError::AppLinks(AppId(cur)));
                }
                prev = cur;
                cur = self.next[id];
            }
            if self.tail[si] != prev {
                return Err(WillowError::AppLinks(AppId(self.tail[si])));
            }
        }
        if let Some(id) = listed.iter().position(|&l| !l) {
            return Err(WillowError::AppLinks(AppId(id as u32)));
        }
        let mut owned = vec![false; self.records.len()];
        for (id, &r) in self.memory.iter().enumerate() {
            if r != NONE {
                match owned.get_mut(r as usize) {
                    Some(o) if !*o => *o = true,
                    _ => return Err(WillowError::AppLinks(AppId(id as u32))),
                }
            }
        }
        let owners = owned.iter().filter(|&&o| o).count();
        shape("apps.records", self.records.len(), owners)
    }

    /// Number of apps (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.app.len()
    }

    /// Whether the table holds no app.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.app.is_empty()
    }

    /// Every application, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Application> {
        self.app.iter()
    }

    /// The shared application column, in id order.
    #[must_use]
    pub fn applications(&self) -> &Arc<[Application]> {
        &self.app
    }

    /// Index of the server hosting `id`, if the table has that row.
    #[must_use]
    pub fn host(&self, id: AppId) -> Option<usize> {
        self.host.get(id.0 as usize).map(|&h| h as usize)
    }

    /// Latest raw demand of `id`.
    #[must_use]
    pub fn demand(&self, id: AppId) -> Watts {
        self.demand[id.0 as usize]
    }

    /// Where `id` last migrated from, and when.
    #[must_use]
    pub fn last_move(&self, id: AppId) -> Option<(NodeId, u64)> {
        let m = self.record(id)?;
        (m.moved_from != NONE).then_some((NodeId(m.moved_from), m.moved_at))
    }

    /// The retry backoff `id` is in, if any.
    #[must_use]
    pub fn backoff(&self, id: AppId) -> Option<Backoff> {
        let m = self.record(id)?;
        (m.failures > 0).then_some(Backoff {
            failures: m.failures,
            retry_at: m.retry_at,
        })
    }

    fn record(&self, id: AppId) -> Option<&Memory> {
        let r = self.memory[id.0 as usize];
        (r != NONE).then(|| &self.records[r as usize])
    }

    /// `id`'s memory record, made on first use. The pool doubles as it
    /// fills, but never past one record per app: that is all it can hold.
    fn record_mut(&mut self, id: AppId) -> &mut Memory {
        let r = self.memory[id.0 as usize];
        if r != NONE {
            return &mut self.records[r as usize];
        }
        let len = self.records.len();
        if len == self.records.capacity() {
            let cap = (2 * len).max(4).min(self.memory.len());
            self.records.reserve_exact(cap.saturating_sub(len));
        }
        self.memory[id.0 as usize] = len as u32;
        self.records.push(Memory::EMPTY);
        &mut self.records[len]
    }

    /// The apps on server `server`, in list order.
    pub fn on(&self, server: usize) -> impl Iterator<Item = AppId> + '_ {
        AppLists {
            next: &self.next,
            head: &self.head,
        }
        .on(server)
    }

    /// Every server's app list and the demand column, borrowed apart, so a
    /// sharded pass can walk each server's list while it writes the demands
    /// of that server's apps.
    pub(crate) fn lists_and_demand(&mut self) -> (AppLists<'_>, &mut [Watts]) {
        (
            AppLists {
                next: &self.next,
                head: &self.head,
            },
            &mut self.demand,
        )
    }

    /// Whether server `server` hosts any app.
    #[must_use]
    pub fn hosts_any(&self, server: usize) -> bool {
        self.head[server] != NONE
    }

    /// Apps found by walking every server's list. Equals [`AppTable::len`]
    /// on a consistent table; conservation checks compare the two.
    #[must_use]
    pub fn placed(&self) -> usize {
        (0..self.head.len()).map(|si| self.on(si).count()).sum()
    }

    /// Combined raw demand of the apps on `server`, summed in list order.
    #[must_use]
    pub fn power_on(&self, server: usize) -> Watts {
        self.on(server).map(|id| self.demand[id.0 as usize]).sum()
    }

    /// Record this period's raw demand of every app on `server` from
    /// `input` (indexed by `AppId.0`) and return their sum in list order.
    ///
    /// # Panics
    /// Panics if `input` does not cover an app on `server`.
    pub(crate) fn observe(&mut self, server: usize, input: &[Watts]) -> Watts {
        let (lists, demand) = self.lists_and_demand();
        lists.observe(server, input, |id, w| demand[id] = w)
    }

    /// Move `id` to the tail of `server`'s list.
    pub(crate) fn move_to(&mut self, id: AppId, server: usize) {
        self.unlink(id);
        self.push_back(server, id);
    }

    /// Remember that `id` just migrated away from `from` at `tick`.
    pub(crate) fn set_last_move(&mut self, id: AppId, from: NodeId, tick: u64) {
        let m = self.record_mut(id);
        m.moved_from = from.0;
        m.moved_at = tick;
    }

    /// Put `id` in retry backoff (`backoff.failures` must be positive).
    pub(crate) fn set_backoff(&mut self, id: AppId, backoff: Backoff) {
        debug_assert!(backoff.failures > 0, "a backoff counts a failure");
        let m = self.record_mut(id);
        m.failures = backoff.failures;
        m.retry_at = backoff.retry_at;
    }

    /// Take `id` out of retry backoff; returns whether it was in one.
    pub(crate) fn clear_backoff(&mut self, id: AppId) -> bool {
        let r = self.memory[id.0 as usize];
        r != NONE && std::mem::take(&mut self.records[r as usize].failures) > 0
    }

    /// Forget the last moves older than `window` (recovery after an
    /// outage). Backoffs keep their failure counts even once `retry_at`
    /// has passed: a live controller keeps the count until a success, and
    /// it sets the next backoff's length. The records stay.
    pub(crate) fn expire(&mut self, now: u64, window: u64) {
        for m in &mut self.records {
            if m.moved_from != NONE && now.saturating_sub(m.moved_at) >= window {
                m.moved_from = NONE;
            }
        }
    }

    /// Adopt `field`'s placement — apps, hosts, demands and lists — and
    /// keep this table's memory (last moves and backoffs).
    pub(crate) fn adopt_placement(&mut self, field: &AppTable) {
        self.app.clone_from(&field.app);
        self.host.clone_from(&field.host);
        self.demand.clone_from(&field.demand);
        self.next.clone_from(&field.next);
        self.head.clone_from(&field.head);
        self.tail.clone_from(&field.tail);
    }

    /// Give a newly added server an empty list.
    pub(crate) fn add_server(&mut self) {
        self.head.push(NONE);
        self.tail.push(NONE);
    }

    fn push_back(&mut self, server: usize, id: AppId) {
        let tail = self.tail[server];
        self.next[id.0 as usize] = NONE;
        if tail == NONE {
            self.head[server] = id.0;
        } else {
            self.next[tail as usize] = id.0;
        }
        self.tail[server] = id.0;
        self.host[id.0 as usize] = server as u32;
    }

    fn unlink(&mut self, id: AppId) {
        let server = self.host[id.0 as usize] as usize;
        let next = self.next[id.0 as usize];
        let mut prev = NONE;
        let mut cur = self.head[server];
        while cur != id.0 {
            prev = cur;
            cur = self.next[cur as usize];
        }
        if prev == NONE {
            self.head[server] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NONE {
            self.tail[server] = prev;
        }
    }
}

#[cfg(test)]
impl AppTable {
    /// Overwrite `server`'s list with exactly `apps`, in order, growing
    /// the table to fit their ids. Touches no other list and no host, so
    /// it can corrupt the table on purpose (the auditor's tests).
    pub(crate) fn set_list(&mut self, server: usize, apps: &[Application]) {
        let mut app = self.app.to_vec();
        for a in apps {
            let i = a.id.0 as usize;
            if i >= app.len() {
                let n = i + 1;
                app.resize(n, *a);
                self.host.resize(n, NONE);
                self.demand.resize(n, Watts::ZERO);
                self.memory.resize(n, NONE);
                self.next.resize(n, NONE);
            }
            app[i] = *a;
        }
        self.app = app.into();
        let mut prev = NONE;
        self.head[server] = NONE;
        for a in apps {
            let id = a.id.0;
            if prev == NONE {
                self.head[server] = id;
            } else {
                self.next[prev as usize] = id;
            }
            prev = id;
        }
        if prev != NONE {
            self.next[prev as usize] = NONE;
        }
        self.tail[server] = prev;
    }

    /// The applications on `server`, in list order.
    pub(crate) fn apps_on(&self, server: usize) -> Vec<Application> {
        self.on(server).map(|id| self.app[id.0 as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willow_workload::app::SIM_APP_CLASSES;

    fn app(id: u32) -> Application {
        Application::new(AppId(id), 0, &SIM_APP_CLASSES[0])
    }

    /// Three servers: [0, 1, 2], [3], [].
    fn table() -> AppTable {
        let spec =
            |apps: Vec<Application>| ServerSpec::simulation_default(NodeId(0)).with_apps(apps);
        AppTable::for_specs(&[
            spec(vec![app(0), app(1), app(2)]),
            spec(vec![app(3)]),
            spec(vec![]),
        ])
        .unwrap()
    }

    fn ids(t: &AppTable, server: usize) -> Vec<u32> {
        t.on(server).map(|a| a.0).collect()
    }

    /// Moving an app reproduces `Vec::remove` at the source and `push` at
    /// the target, its demand travels with it, and both power sums follow.
    #[test]
    fn move_keeps_list_order_and_demand() {
        let mut t = table();
        let input = [Watts(30.0), Watts(50.0), Watts(7.0), Watts(1.0)];
        assert_eq!(t.observe(0, &input), Watts(87.0));
        assert_eq!(t.observe(1, &input), Watts(1.0));
        t.move_to(AppId(1), 2);
        t.move_to(AppId(0), 2);
        t.move_to(AppId(3), 0);
        assert_eq!(ids(&t, 0), [2, 3]);
        assert_eq!(ids(&t, 1), Vec::<u32>::new());
        assert_eq!(ids(&t, 2), [1, 0]);
        assert_eq!(t.host(AppId(0)), Some(2));
        assert_eq!(t.demand(AppId(1)), Watts(50.0));
        assert_eq!(t.power_on(0), Watts(8.0));
        assert_eq!(t.power_on(2), Watts(80.0));
        assert!(!t.hosts_any(1));
        assert_eq!(t.host(AppId(7)), None);
        t.validate(3).unwrap();
    }

    #[test]
    fn specs_reject_duplicate_and_sparse_ids() {
        let spec =
            |apps: Vec<Application>| ServerSpec::simulation_default(NodeId(0)).with_apps(apps);
        assert_eq!(
            AppTable::for_specs(&[spec(vec![app(0), app(1)]), spec(vec![app(1)])]),
            Err(WillowError::DuplicateApp(AppId(1)))
        );
        assert!(matches!(
            AppTable::for_specs(&[spec(vec![app(0), app(2)])]),
            Err(WillowError::AppBeyondTable(AppId(2)))
        ));
    }

    #[test]
    fn expire_forgets_only_elapsed_memory() {
        let mut t = table();
        t.set_last_move(AppId(0), NodeId(5), 10);
        t.set_last_move(AppId(1), NodeId(5), 18);
        t.set_backoff(
            AppId(2),
            Backoff {
                failures: 1,
                retry_at: 20,
            },
        );
        t.set_backoff(
            AppId(3),
            Backoff {
                failures: 2,
                retry_at: 21,
            },
        );
        t.expire(20, 5);
        assert_eq!(t.last_move(AppId(0)), None);
        assert_eq!(t.last_move(AppId(1)), Some((NodeId(5), 18)));
        // An elapsed backoff keeps its count, as on a live controller.
        assert_eq!(
            t.backoff(AppId(2)),
            Some(Backoff {
                failures: 1,
                retry_at: 20
            })
        );
        assert_eq!(t.backoff(AppId(3)).map(|b| b.failures), Some(2));
        assert!(t.clear_backoff(AppId(3)));
        assert!(!t.clear_backoff(AppId(3)));
        assert_eq!(t.backoff(AppId(3)), None);
    }

    /// The record pool grows by doubling but stops at one record per app.
    #[test]
    fn record_pool_holds_at_most_one_record_per_app() {
        let apps: Vec<Application> = (0..9).map(app).collect();
        let spec = ServerSpec::simulation_default(NodeId(0)).with_apps(apps);
        let mut t = AppTable::for_specs(&[spec]).unwrap();
        let mut caps = Vec::new();
        for id in 0..9 {
            t.set_last_move(AppId(id), NodeId(1), u64::from(id));
            caps.push(t.records.capacity());
        }
        assert_eq!(caps, [4, 4, 4, 4, 8, 8, 8, 8, 9]);
        t.validate(1).unwrap();
    }

    #[test]
    fn validate_rejects_broken_links() {
        let mut t = table();
        t.head[2] = 9;
        assert_eq!(t.validate(3), Err(WillowError::AppBeyondTable(AppId(9))));
        let mut t = table();
        t.host[3] = 0;
        assert_eq!(t.validate(3), Err(WillowError::AppLinks(AppId(3))));
        let mut t = table();
        t.head[1] = NONE;
        t.tail[1] = NONE;
        assert_eq!(t.validate(3), Err(WillowError::AppLinks(AppId(3))));
        let mut t = table();
        t.head[2] = 2;
        t.tail[2] = 2;
        assert_eq!(t.validate(3), Err(WillowError::DuplicateApp(AppId(2))));
        // Two apps sharing one memory record, and one pointing past the
        // pool.
        let mut t = table();
        t.set_last_move(AppId(0), NodeId(5), 1);
        t.memory[1] = t.memory[0];
        assert_eq!(t.validate(3), Err(WillowError::AppLinks(AppId(1))));
        t.memory[1] = 1;
        assert_eq!(t.validate(3), Err(WillowError::AppLinks(AppId(1))));
        assert_eq!(
            table().validate(4),
            Err(WillowError::SnapshotShape {
                field: "apps.head",
                found: 3,
                expected: 4,
            })
        );
    }
}
