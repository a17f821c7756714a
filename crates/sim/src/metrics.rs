//! Per-tick and aggregated run metrics.

use serde::{Deserialize, Serialize};
use willow_core::migration::{MigrationReason, TickReport};
use willow_thermal::units::Watts;

/// Fabric snapshot taken after each tick (the controller resets traffic
/// counters per period).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FabricSnapshot {
    /// Migration traffic through each level-1 switch this period.
    pub l1_migration: Vec<f64>,
    /// Query traffic through each level-1 switch this period.
    pub l1_query: Vec<f64>,
}

impl FabricSnapshot {
    /// Combined traffic per level-1 switch this period, written into a
    /// caller-provided buffer — the per-tick aggregation path uses this so
    /// folding a run's metrics stays allocation-free after the buffer's
    /// first growth.
    pub fn l1_total_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.l1_query
                .iter()
                .zip(&self.l1_migration)
                .map(|(q, m)| q + m),
        );
    }
}

/// Aggregated metrics over a run (excluding warm-up).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunMetrics {
    /// Ticks aggregated (post-warm-up).
    pub ticks: usize,
    /// Mean power drawn per server.
    pub avg_server_power: Vec<f64>,
    /// Mean temperature per server (°C).
    pub avg_server_temp: Vec<f64>,
    /// Peak temperature per server (°C) — thermal-safety check.
    pub peak_server_temp: Vec<f64>,
    /// Fraction of ticks each server spent asleep.
    pub sleep_fraction: Vec<f64>,
    /// Total demand-driven migrations.
    pub demand_migrations: usize,
    /// Total consolidation-driven migrations.
    pub consolidation_migrations: usize,
    /// Total local migrations (both reasons).
    pub local_migrations: usize,
    /// Total ping-pong events (should stay 0).
    pub pingpongs: usize,
    /// Mean per-period migration traffic per level-1 switch.
    pub avg_l1_migration_traffic: Vec<f64>,
    /// Mean per-period query traffic per level-1 switch.
    pub avg_l1_query_traffic: Vec<f64>,
    /// Mean demand shed per period.
    pub avg_dropped: f64,
    /// Mean level-0 power imbalance (Eq. 9) per period.
    pub avg_imbalance_l0: f64,
    /// Total migrated demand (watt·periods).
    pub migrated_demand: f64,
    /// Peak combined per-period traffic seen at each level-1 switch —
    /// the fabric's capacity-planning signal.
    pub peak_l1_traffic: Vec<f64>,
    /// Total upward demand reports lost to injected faults.
    pub reports_lost: usize,
    /// Total downward budget directives lost to injected faults.
    pub directives_lost: usize,
    /// Total migration attempts refused admission by the destination.
    pub migration_rejects: usize,
    /// Total migration attempts aborted mid-flight.
    pub migration_aborts: usize,
    /// Total migrations that succeeded after earlier failed attempts.
    pub migration_retries: usize,
    /// Total stale-directive watchdog trips.
    pub watchdog_trips: usize,
    /// Server·periods spent under the watchdog's conservative fallback
    /// cap — the run's total degraded-mode time.
    pub fallback_server_ticks: usize,
    /// Total temperature readings rejected by the plausibility filter.
    pub sensor_rejections: usize,
    /// Ticks the whole run spent with the central controller down (the
    /// leaves running open-loop on their last applied budgets).
    #[serde(default)]
    pub open_loop_ticks: usize,
    /// Controller restarts performed (checkpoint restore + reconcile).
    #[serde(default)]
    pub controller_recoveries: usize,
    /// Violations found by the always-on runtime invariant auditor. Any
    /// non-zero value is a controller bug, not a fault effect.
    #[serde(default)]
    pub invariant_violations: usize,
    /// Live-ops commands the controller committed.
    #[serde(default)]
    pub commands_applied: usize,
    /// Live-ops commands rejected with a typed error (including parent
    /// names that resolved to no live node).
    #[serde(default)]
    pub commands_rejected: usize,
    /// Summed still-stranded app counts across pending-drain ticks: each
    /// tick a drain stays pending contributes the number of apps it could
    /// not place that tick. Stranded apps stay on the draining server —
    /// never lost, only delayed.
    #[serde(default)]
    pub drain_stranded_app_ticks: usize,
    /// Command rejections caused by online topology-edit errors.
    #[serde(default)]
    pub topology_rejections: usize,
}

/// Streaming fold of `(report, fabric)` ticks into [`RunMetrics`]:
/// [`record`](MetricsAccumulator::record) borrows its inputs, so driving
/// loops can reuse one report/snapshot buffer across the whole run instead
/// of cloning per tick, and the fold itself is allocation-free after
/// construction (the level-1 total uses a preallocated scratch buffer).
#[derive(Debug, Clone)]
pub struct MetricsAccumulator {
    m: RunMetrics,
    n_servers: usize,
    /// Scratch for [`FabricSnapshot::l1_total_into`] on the per-tick path.
    scratch_total: Vec<f64>,
}

impl MetricsAccumulator {
    /// An empty accumulator; `n_servers`/`n_l1` size the per-entity
    /// vectors.
    #[must_use]
    pub fn new(n_servers: usize, n_l1: usize) -> Self {
        MetricsAccumulator {
            m: RunMetrics {
                avg_server_power: vec![0.0; n_servers],
                avg_server_temp: vec![0.0; n_servers],
                peak_server_temp: vec![f64::NEG_INFINITY; n_servers],
                sleep_fraction: vec![0.0; n_servers],
                avg_l1_migration_traffic: vec![0.0; n_l1],
                avg_l1_query_traffic: vec![0.0; n_l1],
                peak_l1_traffic: vec![0.0; n_l1],
                ..RunMetrics::default()
            },
            n_servers,
            scratch_total: Vec::with_capacity(n_l1),
        }
    }

    /// Fold one tick into the running aggregates.
    pub fn record(&mut self, report: &TickReport, fabric: &FabricSnapshot) {
        let m = &mut self.m;
        m.ticks += 1;
        for i in 0..self.n_servers {
            m.avg_server_power[i] += report.server_power[i].0;
            m.avg_server_temp[i] += report.server_temp[i].0;
            m.peak_server_temp[i] = m.peak_server_temp[i].max(report.server_temp[i].0);
            if !report.server_active[i] {
                m.sleep_fraction[i] += 1.0;
            }
        }
        m.demand_migrations += report.migrations_by_reason(MigrationReason::Demand);
        m.consolidation_migrations += report.migrations_by_reason(MigrationReason::Consolidation);
        m.local_migrations += report.local_migrations();
        m.pingpongs += report.pingpongs();
        m.migrated_demand += report.migrated_demand().0;
        m.reports_lost += report.reports_lost;
        m.directives_lost += report.directives_lost;
        m.migration_rejects += report.migration_rejects;
        m.migration_aborts += report.migration_aborts;
        m.migration_retries += report.migration_retries;
        m.watchdog_trips += report.watchdog_trips;
        m.fallback_server_ticks += report.fallback_servers;
        m.sensor_rejections += report.sensor_rejections;
        m.avg_dropped += report.dropped_demand.0;
        m.avg_imbalance_l0 += report.imbalance.first().copied().unwrap_or(Watts::ZERO).0;
        for (i, v) in fabric.l1_migration.iter().enumerate() {
            m.avg_l1_migration_traffic[i] += v;
        }
        for (i, v) in fabric.l1_query.iter().enumerate() {
            m.avg_l1_query_traffic[i] += v;
        }
        fabric.l1_total_into(&mut self.scratch_total);
        for (i, total) in self.scratch_total.iter().enumerate() {
            if *total > m.peak_l1_traffic[i] {
                m.peak_l1_traffic[i] = *total;
            }
        }
    }

    /// Normalize the averages and hand back the finished metrics.
    #[must_use]
    pub fn finish(self) -> RunMetrics {
        let mut m = self.m;
        if m.ticks > 0 {
            let n = m.ticks as f64;
            for v in m
                .avg_server_power
                .iter_mut()
                .chain(m.avg_server_temp.iter_mut())
                .chain(m.sleep_fraction.iter_mut())
                .chain(m.avg_l1_migration_traffic.iter_mut())
                .chain(m.avg_l1_query_traffic.iter_mut())
            {
                *v /= n;
            }
            m.avg_dropped /= n;
            m.avg_imbalance_l0 /= n;
        }
        m
    }
}

impl RunMetrics {
    /// Fold a stream of `(report, fabric)` pairs into aggregates.
    /// `n_servers`/`n_l1` size the per-entity vectors. Implemented on top
    /// of [`MetricsAccumulator`], which streaming callers can use directly
    /// to avoid the per-tick clones this owning signature implies.
    #[must_use]
    pub fn aggregate(
        stream: impl IntoIterator<Item = (TickReport, FabricSnapshot)>,
        n_servers: usize,
        n_l1: usize,
    ) -> RunMetrics {
        let mut acc = MetricsAccumulator::new(n_servers, n_l1);
        for (report, fabric) in stream {
            acc.record(&report, &fabric);
        }
        acc.finish()
    }

    /// Mean power across a set of servers.
    #[must_use]
    pub fn mean_power(&self, servers: impl IntoIterator<Item = usize>) -> f64 {
        let idx: Vec<usize> = servers.into_iter().collect();
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().map(|&i| self.avg_server_power[i]).sum::<f64>() / idx.len() as f64
    }

    /// Mean temperature across a set of servers.
    #[must_use]
    pub fn mean_temp(&self, servers: impl IntoIterator<Item = usize>) -> f64 {
        let idx: Vec<usize> = servers.into_iter().collect();
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().map(|&i| self.avg_server_temp[i]).sum::<f64>() / idx.len() as f64
    }

    /// Total migrations of both kinds.
    #[must_use]
    pub fn total_migrations(&self) -> usize {
        self.demand_migrations + self.consolidation_migrations
    }

    /// One-line fault/degraded-mode summary for CLI output.
    #[must_use]
    pub fn fault_summary(&self) -> String {
        format!(
            "reports lost {}, directives lost {}, migrations rejected {} / aborted {} / retried {}, \
             watchdog trips {}, fallback server-ticks {}, sensor readings rejected {}, \
             controller recoveries {}, open-loop ticks {}, invariant violations {}, \
             commands applied {} / rejected {} (topology {}), drain stranded app-ticks {}",
            self.reports_lost,
            self.directives_lost,
            self.migration_rejects,
            self.migration_aborts,
            self.migration_retries,
            self.watchdog_trips,
            self.fallback_server_ticks,
            self.sensor_rejections,
            self.controller_recoveries,
            self.open_loop_ticks,
            self.invariant_violations,
            self.commands_applied,
            self.commands_rejected,
            self.topology_rejections,
            self.drain_stranded_app_ticks
        )
    }

    /// Migration traffic across all level-1 switches normalized to the
    /// their combined capacity per period (Fig. 10's y-axis).
    #[must_use]
    pub fn normalized_l1_migration_traffic(&self, capacity_units: f64) -> f64 {
        if self.avg_l1_migration_traffic.is_empty() || capacity_units <= 0.0 {
            return 0.0;
        }
        let total: f64 = self.avg_l1_migration_traffic.iter().sum();
        total / (capacity_units * self.avg_l1_migration_traffic.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willow_thermal::units::Celsius;

    fn fake_tick(power: f64, temp: f64, active: bool) -> (TickReport, FabricSnapshot) {
        let report = TickReport {
            server_power: vec![Watts(power)],
            server_temp: vec![Celsius(temp)],
            server_budget: vec![Watts(450.0)],
            server_active: vec![active],
            imbalance: vec![Watts(2.0)],
            dropped_demand: Watts(1.0),
            ..TickReport::default()
        };
        let fabric = FabricSnapshot {
            l1_migration: vec![4.0],
            l1_query: vec![10.0],
        };
        (report, fabric)
    }

    #[test]
    fn aggregation_averages() {
        let m = RunMetrics::aggregate(
            vec![fake_tick(100.0, 40.0, true), fake_tick(200.0, 60.0, false)],
            1,
            1,
        );
        assert_eq!(m.ticks, 2);
        assert!((m.avg_server_power[0] - 150.0).abs() < 1e-12);
        assert!((m.avg_server_temp[0] - 50.0).abs() < 1e-12);
        assert!((m.peak_server_temp[0] - 60.0).abs() < 1e-12);
        assert!((m.sleep_fraction[0] - 0.5).abs() < 1e-12);
        assert!((m.avg_dropped - 1.0).abs() < 1e-12);
        assert!((m.avg_imbalance_l0 - 2.0).abs() < 1e-12);
        assert!((m.avg_l1_migration_traffic[0] - 4.0).abs() < 1e-12);
        assert!(
            (m.peak_l1_traffic[0] - 14.0).abs() < 1e-12,
            "peak = max(query+migration)"
        );
    }

    #[test]
    fn group_means() {
        let m = RunMetrics {
            avg_server_power: vec![100.0, 200.0, 300.0],
            avg_server_temp: vec![30.0, 40.0, 50.0],
            ..RunMetrics::default()
        };
        assert!((m.mean_power([0, 2]) - 200.0).abs() < 1e-12);
        assert!((m.mean_temp([1]) - 40.0).abs() < 1e-12);
        assert_eq!(m.mean_power([]), 0.0);
    }

    #[test]
    fn normalization() {
        let m = RunMetrics {
            avg_l1_migration_traffic: vec![10.0, 30.0],
            ..RunMetrics::default()
        };
        // total 40 over 2 switches × 1000 capacity = 0.02.
        assert!((m.normalized_l1_migration_traffic(1000.0) - 0.02).abs() < 1e-12);
        assert_eq!(m.normalized_l1_migration_traffic(0.0), 0.0);
    }

    #[test]
    fn fault_counters_fold() {
        let mut a = fake_tick(100.0, 40.0, true);
        a.0.reports_lost = 2;
        a.0.watchdog_trips = 1;
        a.0.fallback_servers = 3;
        let mut b = fake_tick(100.0, 40.0, true);
        b.0.directives_lost = 1;
        b.0.migration_aborts = 1;
        b.0.fallback_servers = 2;
        b.0.sensor_rejections = 4;
        let m = RunMetrics::aggregate(vec![a, b], 1, 1);
        assert_eq!(m.reports_lost, 2);
        assert_eq!(m.directives_lost, 1);
        assert_eq!(m.migration_aborts, 1);
        assert_eq!(m.watchdog_trips, 1);
        assert_eq!(m.fallback_server_ticks, 5);
        assert_eq!(m.sensor_rejections, 4);
        assert!(m.fault_summary().contains("watchdog trips 1"));
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let m = RunMetrics::aggregate(Vec::new(), 2, 1);
        assert_eq!(m.ticks, 0);
        assert_eq!(m.avg_server_power, vec![0.0, 0.0]);
    }
}
