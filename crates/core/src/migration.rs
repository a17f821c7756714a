//! Migration records and per-tick reports.

use crate::command::CommandOutcome;
use serde::{Deserialize, Serialize};
use willow_thermal::units::{Celsius, Watts};
use willow_topology::NodeId;
use willow_workload::app::AppId;

/// Why a migration happened (paper §V-B4 separates the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationReason {
    /// Demand-driven: the source node's power/thermal constraint tightened.
    Demand,
    /// Consolidation-driven: the source idled below the threshold and its
    /// workload was packed away so the server could sleep.
    Consolidation,
    /// Drain-driven: an operator [`crate::command::Command::Drain`]
    /// evacuated the app off a fencing server.
    Drain,
}

/// One application migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Demand period in which the migration was decided.
    pub tick: u64,
    /// The migrated application.
    pub app: AppId,
    /// Source server (PMU-tree leaf).
    pub from: NodeId,
    /// Target server.
    pub to: NodeId,
    /// Demand moved (the app's smoothed/raw demand at decision time).
    pub moved: Watts,
    /// Why.
    pub reason: MigrationReason,
    /// True when source and target are siblings (local migration, §IV-E).
    pub local: bool,
    /// Number of switches the VM state traversed.
    pub hops: usize,
    /// True if this app had already migrated within the ping-pong window
    /// `Δ_f` — the instability indicator Willow is designed to keep at zero.
    pub pingpong: bool,
}

/// Everything the controller observed and decided in one demand period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TickReport {
    /// The demand period index.
    pub tick: u64,
    /// Whether this tick ran a supply-side budget adaptation (`Δ_S`).
    pub supply_tick: bool,
    /// Whether this tick ran consolidation decisions (`Δ_A`).
    pub consolidation_tick: bool,
    /// Migrations decided this period, in execution order.
    pub migrations: Vec<MigrationRecord>,
    /// Demand that could not be satisfied anywhere and was shed (§IV-E:
    /// applications run degraded or are shut down).
    pub dropped_demand: Watts,
    /// Shed demand attributed to each QoS class (Low, Normal, High) —
    /// degraded-mode accounting per priority (paper §VI future work).
    pub shed_by_priority: [Watts; 3],
    /// Actual power drawn per server (demand clipped to budget), indexed by
    /// server order.
    pub server_power: Vec<Watts>,
    /// Budget per server, indexed by server order.
    pub server_budget: Vec<Watts>,
    /// Temperature per server at end of period.
    pub server_temp: Vec<Celsius>,
    /// Whether each server is active at end of period.
    pub server_active: Vec<bool>,
    /// Power imbalance (Eq. 9) per level, index = level.
    pub imbalance: Vec<Watts>,
    /// Servers woken this period (wake-on-deficit).
    pub woken: Vec<NodeId>,
    /// Servers put to sleep this period (consolidation).
    pub slept: Vec<NodeId>,
    /// Control messages exchanged on tree links this period (Property 3
    /// accounting: ≤ 2 per link per Δ_D).
    pub control_messages: usize,
    /// Upward demand reports lost to injected faults this period.
    pub reports_lost: usize,
    /// Downward budget directives lost to injected faults this period.
    pub directives_lost: usize,
    /// Migration attempts refused admission by the destination this
    /// period, *before* any copy work — nothing is charged to either end.
    /// Each rejected attempt counts here exactly once (and enters the app
    /// into retry backoff); rejects and aborts are disjoint, and a later
    /// successful retry never retroactively adds to this count.
    pub migration_rejects: usize,
    /// Migration attempts aborted *mid-flight* this period: the copy work
    /// already happened, so both end nodes pay the temporary cost and the
    /// fabric carried the traffic, but the app stays at the source. Each
    /// aborted attempt counts here exactly once; disjoint from
    /// `migration_rejects`.
    pub migration_aborts: usize,
    /// Migrations that *succeeded* this period after at least one earlier
    /// failed attempt (the success cleared a live backoff entry). A
    /// retried migration that eventually lands counts once here and once
    /// in `migrations`; its earlier failures stay counted in the periods
    /// they occurred and the success adds nothing to
    /// `migration_rejects` / `migration_aborts`.
    pub migration_retries: usize,
    /// Stale-directive watchdogs that newly tripped this period.
    pub watchdog_trips: usize,
    /// Servers running under the conservative watchdog fallback cap at the
    /// end of this period.
    pub fallback_servers: usize,
    /// Temperature readings rejected by the plausibility filter this period.
    pub sensor_rejections: usize,
    /// Live-ops commands that committed this period.
    #[serde(default)]
    pub commands_applied: usize,
    /// Live-ops commands rejected (typed error, no state change) this
    /// period.
    #[serde(default)]
    pub commands_rejected: usize,
    /// Apps a pending drain could not place this period; they stay on the
    /// draining server (never lost) and the drain retries next tick.
    #[serde(default)]
    pub stranded_apps: usize,
    /// True when a command changed the PMU tree or the server roster this
    /// period (observers must re-sync cached per-node state).
    #[serde(default)]
    pub topology_changed: bool,
    /// Terminal command outcomes reached this period, in processing order.
    #[serde(default)]
    pub command_outcomes: Vec<CommandOutcome>,
}

impl TickReport {
    /// Reset for reuse by [`crate::control::Willow::step_into`]: every
    /// list is cleared (capacity retained) and every scalar zeroed, leaving
    /// the report equal to `TickReport::default()` with the given tick
    /// flags applied.
    pub fn reset(&mut self, tick: u64, supply_tick: bool, consolidation_tick: bool) {
        self.tick = tick;
        self.supply_tick = supply_tick;
        self.consolidation_tick = consolidation_tick;
        self.migrations.clear();
        self.dropped_demand = Watts::ZERO;
        self.shed_by_priority = [Watts::ZERO; 3];
        self.server_power.clear();
        self.server_budget.clear();
        self.server_temp.clear();
        self.server_active.clear();
        self.imbalance.clear();
        self.woken.clear();
        self.slept.clear();
        self.control_messages = 0;
        self.reports_lost = 0;
        self.directives_lost = 0;
        self.migration_rejects = 0;
        self.migration_aborts = 0;
        self.migration_retries = 0;
        self.watchdog_trips = 0;
        self.fallback_servers = 0;
        self.sensor_rejections = 0;
        self.commands_applied = 0;
        self.commands_rejected = 0;
        self.stranded_apps = 0;
        self.topology_changed = false;
        self.command_outcomes.clear();
    }

    /// Count of migrations with the given reason.
    #[must_use]
    pub fn migrations_by_reason(&self, reason: MigrationReason) -> usize {
        self.migrations
            .iter()
            .filter(|m| m.reason == reason)
            .count()
    }

    /// Count of local migrations.
    #[must_use]
    pub fn local_migrations(&self) -> usize {
        self.migrations.iter().filter(|m| m.local).count()
    }

    /// Count of ping-pong migrations (should be zero in stable operation).
    #[must_use]
    pub fn pingpongs(&self) -> usize {
        self.migrations.iter().filter(|m| m.pingpong).count()
    }

    /// Total demand moved this period.
    #[must_use]
    pub fn migrated_demand(&self) -> Watts {
        self.migrations.iter().map(|m| m.moved).sum()
    }

    /// Total actual power drawn by all servers.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.server_power.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(reason: MigrationReason, local: bool, pingpong: bool) -> MigrationRecord {
        MigrationRecord {
            tick: 1,
            app: AppId(0),
            from: NodeId(0),
            to: NodeId(1),
            moved: Watts(10.0),
            reason,
            local,
            hops: if local { 1 } else { 5 },
            pingpong,
        }
    }

    #[test]
    fn report_counters() {
        let mut r = TickReport::default();
        r.migrations
            .push(record(MigrationReason::Demand, true, false));
        r.migrations
            .push(record(MigrationReason::Consolidation, false, false));
        r.migrations
            .push(record(MigrationReason::Demand, false, true));
        assert_eq!(r.migrations_by_reason(MigrationReason::Demand), 2);
        assert_eq!(r.migrations_by_reason(MigrationReason::Consolidation), 1);
        assert_eq!(r.local_migrations(), 1);
        assert_eq!(r.pingpongs(), 1);
        assert_eq!(r.migrated_demand(), Watts(30.0));
    }

    #[test]
    fn total_power_sums_servers() {
        let r = TickReport {
            server_power: vec![Watts(100.0), Watts(50.0)],
            ..TickReport::default()
        };
        assert_eq!(r.total_power(), Watts(150.0));
    }
}
