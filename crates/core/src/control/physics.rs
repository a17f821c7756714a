//! Pipeline stage 5 — physics: each server draws `min(demand, budget)`,
//! sheds the shortfall by QoS class, advances its RC thermal model by
//! `Δ_D`, and runs the sensor plausibility filter. Shared verbatim by
//! closed-loop and open-loop (controller-down) ticks.
//!
//! The stage runs in two phases so it can shard across the worker pool
//! without changing a single output bit:
//!
//! * **Phase A** (parallel over server shards) — everything whose writes
//!   are per-server disjoint: draw, thermal advance, sensor filter, the
//!   per-server report rows, plus per-server *scratch* for the values the
//!   serial code used to fold on the fly (shortfall, shed-by-class).
//! * **Phase B** (serial) — the order-sensitive float folds, replayed in
//!   server order from the scratch so the sums associate exactly like the
//!   serial loop did, and the fabric's bottom-up query accounting.
//!
//! With `threads == 1` phase A is a plain loop on the control thread; the
//! split costs two cache-warm passes over per-server scratch and nothing
//! else.

use super::shard::{shard_range, RawSlice};
use super::Willow;
use crate::migration::TickReport;
use crate::server::FenceState;
use std::sync::atomic::{AtomicUsize, Ordering};
use willow_thermal::model::step_temperature_with_decay;
use willow_thermal::units::{Celsius, Watts};
use willow_topology::Tree;

/// Reusable working memory for the physics stage: per-server parallel
/// scratch plus the fabric's bulk-query sums. Cleared (capacity retained)
/// instead of reallocated, so a steady-state tick performs zero heap
/// allocations once warmed up.
#[derive(Debug, Default)]
pub(crate) struct PhysicsStage {
    /// Per-server shortfall `(demand − budget)⁺`, folded serially in
    /// phase B so `dropped` sums in exactly the serial order.
    pub(super) shortfall: Vec<f64>,
    /// Per-server shed-by-QoS-class plan (meaningful only where
    /// `shortfall > 0`), folded serially in phase B.
    pub(super) shed: Vec<[Watts; 3]>,
    /// Query units per leaf arena slot for the fabric's bulk recording.
    /// Interior and tombstone slots stay zero (tombstone leaves are never
    /// read — they appear at no level).
    pub(super) leaf_units: Vec<f64>,
    /// Subtree-sum scratch for [`willow_network::Fabric::record_query_bulk`].
    pub(super) fabric_sums: Vec<f64>,
}

impl PhysicsStage {
    /// Pre-size the per-server and per-node buffers so even the first
    /// physics tick allocates as little as possible.
    pub(super) fn for_tree(tree: &Tree, servers: usize) -> Self {
        PhysicsStage {
            shortfall: Vec::with_capacity(servers),
            shed: Vec::with_capacity(servers),
            leaf_units: vec![0.0; tree.len()],
            fabric_sums: Vec::with_capacity(tree.len()),
        }
    }
}

impl Willow {
    /// The per-server physical update shared by closed- and open-loop
    /// ticks: draw `min(local demand, budget)`, account shed demand by QoS
    /// class, advance the RC thermal model, run the sensor plausibility
    /// filter, record query traffic, and fill the report's per-server and
    /// imbalance vectors.
    #[allow(unsafe_code)] // disjoint shard slicing; see `super::shard`
    pub(super) fn physics_phase(&mut self, report: &mut TickReport) {
        let n = self.servers.len();
        let threads = self.pool.threads();
        let mut stage = std::mem::take(&mut self.physics_stage);
        stage.shortfall.clear();
        stage.shortfall.resize(n, 0.0);
        stage.shed.clear();
        stage.shed.resize(n, [Watts::ZERO; 3]);
        stage.leaf_units.resize(self.tree.len(), 0.0);
        report.server_power.resize(n, Watts::ZERO);
        report.server_budget.resize(n, Watts::ZERO);
        report.server_temp.resize(n, Celsius(0.0));
        report.server_active.resize(n, false);
        let sensor_rejections = AtomicUsize::new(0);
        let fallback_servers = AtomicUsize::new(0);

        // ---------------------------------------- phase A (parallel)
        {
            let servers = RawSlice::new(&mut self.servers);
            let shortfall = RawSlice::new(&mut stage.shortfall);
            let shed = RawSlice::new(&mut stage.shed);
            let leaf_units = RawSlice::new(&mut stage.leaf_units);
            let out_power = RawSlice::new(&mut report.server_power);
            let out_budget = RawSlice::new(&mut report.server_budget);
            let out_temp = RawSlice::new(&mut report.server_temp);
            let out_active = RawSlice::new(&mut report.server_active);
            let apps = &self.apps;
            let tp = &self.power.tp;
            let decay_dd = &self.decay_dd;
            let leaf_server = &self.leaf_server;
            let disturb = &self.disturb;
            let sensor_slack = self.config.robustness.sensor_slack;
            let qtpw = self.config.query_traffic_per_watt;
            let rejections = &sensor_rejections;
            let fallbacks = &fallback_servers;
            self.pool.run(&|k| {
                let range = shard_range(n, threads, k);
                // SAFETY: shard ranges over server indices are pairwise
                // disjoint; every slice below is indexed by server.
                let servers = unsafe { servers.range_mut(range.clone()) };
                let shortfall = unsafe { shortfall.range_mut(range.clone()) };
                let shed = unsafe { shed.range_mut(range.clone()) };
                let out_power = unsafe { out_power.range_mut(range.clone()) };
                let out_budget = unsafe { out_budget.range_mut(range.clone()) };
                let out_temp = unsafe { out_temp.range_mut(range.clone()) };
                let out_active = unsafe { out_active.range_mut(range.clone()) };
                for (off, server) in servers.iter_mut().enumerate() {
                    let si = range.start + off;
                    let leaf = server.node.index();
                    // A retired server's arena slot may have been reused by
                    // a later-added server; never report the new owner's
                    // budget on the retired row.
                    let budget = if server.fence == FenceState::Retired {
                        Watts::ZERO
                    } else {
                        tp[leaf]
                    };
                    // The server draws against its *own* demand view:
                    // report loss fools the hierarchy, not the machine.
                    let demand = if server.active {
                        server.local_cp
                    } else {
                        Watts::ZERO
                    };
                    let drawn = demand.min(budget);
                    let sf = (demand - budget).non_negative();
                    shortfall[off] = sf.0;
                    if sf.0 > 0.0 {
                        // Degraded operation: attribute the shed demand to
                        // QoS classes, lowest priority first (§IV-E / §VI).
                        let hosted = apps.on(si).map(|id| (apps[id].priority, apps.demand(id)));
                        shed[off] = crate::shedding::shed_by_priority(hosted, sf);
                    }
                    server.thermal.advance_with_decay(drawn, decay_dd[si]);
                    // Sensor plausibility filter: accept the (possibly
                    // faulted) reading only if it is within `sensor_slack`
                    // of what the RC model predicts from the last accepted
                    // temperature under the power actually drawn; otherwise
                    // keep running on the model.
                    let measured = disturb.measured_temp(si, server.thermal.temperature());
                    let predicted = step_temperature_with_decay(
                        server.thermal.params(),
                        server.accepted_temp,
                        server.thermal.ambient(),
                        drawn,
                        decay_dd[si],
                    );
                    server.accepted_temp = if (measured.0 - predicted.0).abs() <= sensor_slack {
                        measured
                    } else {
                        rejections.fetch_add(1, Ordering::Relaxed);
                        predicted
                    };
                    // Indirect network impact: query traffic follows the
                    // workload. Gated on slot ownership — a retired row
                    // whose leaf slot was reused must not clobber the live
                    // owner's entry (the retired row's drawn is zero, and
                    // its slot either has no leaf or belongs to the new
                    // owner).
                    if leaf_server[leaf] == Some(si) {
                        // SAFETY: exactly one roster row owns any leaf
                        // slot, so this scattered write is race-free.
                        unsafe {
                            *leaf_units.get_mut(leaf) = drawn.0 * qtpw;
                        }
                    }
                    out_power[off] = drawn;
                    out_budget[off] = budget;
                    out_temp[off] = server.thermal.temperature();
                    out_active[off] = server.active;
                    if server.watchdog.tripped {
                        fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Integer addition commutes, so the relaxed atomic total is
        // identical at every thread count.
        self.counters.sensor_rejections += sensor_rejections.into_inner();
        report.fallback_servers = fallback_servers.into_inner();

        // ----------------------------------------- phase B (serial)
        // Order-sensitive float folds replayed in server order: the sums
        // associate exactly as the serial loop's did, so the result is
        // bit-for-bit thread-count-independent.
        let mut dropped = Watts::ZERO;
        for si in 0..n {
            let sf = Watts(stage.shortfall[si]);
            dropped += sf;
            if sf.0 > 0.0 {
                for (acc, class_shed) in report.shed_by_priority.iter_mut().zip(stage.shed[si]) {
                    *acc += class_shed;
                }
            }
        }
        self.fabric
            .record_query_bulk(&self.tree, &stage.leaf_units, &mut stage.fabric_sums);
        self.physics_stage = stage;
        report.dropped_demand = dropped;
        self.last_dropped = dropped;
        for level in 0..=self.tree.height() {
            report
                .imbalance
                .push(self.power.level_imbalance(&self.tree, level));
        }
    }

    /// Copy the period's fault/defense counters into the report tail —
    /// shared by [`Willow::step_into`] and [`Willow::step_open_loop`].
    pub(super) fn publish_counters(&mut self, report: &mut TickReport) {
        report.reports_lost = self.counters.reports_lost;
        report.directives_lost = self.counters.directives_lost;
        report.migration_rejects = self.counters.migration_rejects;
        report.migration_aborts = self.counters.migration_aborts;
        report.migration_retries = self.counters.migration_retries;
        report.watchdog_trips = self.counters.watchdog_trips;
        report.sensor_rejections = self.counters.sensor_rejections;
    }
}
