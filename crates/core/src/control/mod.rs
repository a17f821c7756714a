//! The Willow controller: a staged control pipeline for hierarchical
//! supply/demand adaptation, local-first migration planning, and
//! consolidation.
//!
//! One [`Willow::step`] call is one demand period `Δ_D`, orchestrated by
//! [`Willow::step_into`] as five pipeline stages, each in its own
//! submodule:
//!
//! 1. **[`measure`]** — raw per-app demands (supplied by the caller) plus
//!    pending migration costs are smoothed (Eq. 4) into leaf `CP` values
//!    and aggregated up the tree (one upward control message per link).
//! 2. **[`supply`]** — every `η1` periods, hard caps are refreshed from
//!    the thermal model (Eq. 3 over the `Δ_S` window), and the total
//!    supply is divided top-down proportionally to demand, clipped by caps
//!    (one downward message per link; Property 3: ≤ 2 messages per link per
//!    period).
//! 3. **[`demand`]** — per-level bottom-up bin packing of deficits into
//!    surpluses: local (sibling) surpluses first, leftovers passed up for
//!    non-local placement, margins enforced at both ends, costs charged as
//!    temporary demand, residual deficits shed.
//! 4. **[`consolidate`]** — every `η2` periods, servers below the
//!    utilization threshold try to empty themselves (local targets
//!    preferred); emptied servers sleep. Sleeping servers may be woken when
//!    demand was shed.
//! 5. **[`physics`]** — each server draws `min(demand, budget)` and its RC
//!    thermal state advances by `Δ_D`.
//!
//! The transactional migration machinery (prepare → transfer → commit,
//! ping-pong suppression, retry backoff) that stages 3 and 4 share lives in
//! [`migrate`]; sampled spans and counters in [`telemetry`]. The live-ops
//! command plane ([`liveops`]) executes queued operator commands at a
//! fixed point between stages 1 and 2, so reconfigurations land at a
//! deterministic, replayable position in every tick.
//!
//! Every policy decision inside the stages is one enum on
//! [`ControllerConfig`], matched at its decision point: `packer` (which
//! packing heuristic matches deficits with surpluses) in stage 3,
//! `consolidation_policy` (how evacuation receivers are ordered) in stage
//! 4, and `supply_policy` (reactive or forecast-driven) across stages 2
//! and 4. Config is the only policy state, so a controller restored from a
//! snapshot runs exactly the policies it was checkpointed with. The
//! defaults reproduce the paper's behavior exactly.

use crate::apps::AppTable;
use crate::command::{Command, PendingCommand};
use crate::config::ControllerConfig;
use crate::disturbance::Disturbances;
use crate::migration::TickReport;
use crate::server::FenceState;
use crate::server::{ServerSpec, ServerState};
use crate::state::PowerState;
use crate::txn::MigrationJournal;
use willow_network::Fabric;
use willow_thermal::model::decay_factor;
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};
use willow_workload::app::AppId;

pub mod consolidate;
pub mod demand;
pub mod liveops;
pub mod measure;
pub mod migrate;
pub mod physics;
pub mod planning;
mod receivers;
pub mod shard;
pub mod supply;
pub mod telemetry;

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod testutil;

pub use migrate::Backoff;
pub use planning::PlanningContext;
pub use supply::Watchdog;
pub use telemetry::SPAN_SAMPLE_PERIOD;

use consolidate::ConsolidateStage;
use demand::DemandStage;
use physics::PhysicsStage;
use shard::ShardPool;
use supply::SupplyStage;
use telemetry::{
    ControllerTelemetry, SLOT_CONSOLIDATE, SLOT_DEMAND, SLOT_GAUGES, SLOT_MEASURE, SLOT_PHYSICS,
    SLOT_SUPPLY,
};

/// Errors from [`Willow::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum WillowError {
    /// Config invariant violated.
    Config(crate::config::ConfigError),
    /// The server specs do not cover every leaf exactly once.
    LeafCoverage {
        /// Leaves in the tree.
        leaves: usize,
        /// Server specs supplied.
        specs: usize,
    },
    /// A spec references a non-leaf node.
    NotALeaf(NodeId),
    /// Two specs reference the same leaf.
    DuplicateLeaf(NodeId),
    /// Two applications share an id.
    DuplicateApp(AppId),
    /// An application id is not below the number of applications: ids
    /// index the app table, so they must be dense from 0.
    AppBeyondTable(AppId),
    /// A snapshot's app table disagrees with itself about an application:
    /// its row, host or list links do not match the server lists.
    AppLinks(AppId),
    /// A snapshot's auxiliary state vectors do not match its topology
    /// (wrong length for the tree / server count it carries).
    SnapshotShape {
        /// Which snapshot field is malformed.
        field: &'static str,
        /// Entries found.
        found: usize,
        /// Entries required by the snapshot's own topology.
        expected: usize,
    },
}

impl std::fmt::Display for WillowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WillowError::Config(e) => write!(f, "invalid config: {e}"),
            WillowError::LeafCoverage { leaves, specs } => {
                write!(f, "{specs} server specs for {leaves} leaves")
            }
            WillowError::NotALeaf(n) => write!(f, "node {n} is not a leaf"),
            WillowError::DuplicateLeaf(n) => write!(f, "leaf {n} specified twice"),
            WillowError::DuplicateApp(a) => write!(f, "application {a} hosted twice"),
            WillowError::AppBeyondTable(a) => {
                write!(
                    f,
                    "application {a} is beyond the app table (ids must be dense)"
                )
            }
            WillowError::AppLinks(a) => {
                write!(
                    f,
                    "application {a}'s table row disagrees with the server lists"
                )
            }
            WillowError::SnapshotShape {
                field,
                found,
                expected,
            } => {
                write!(
                    f,
                    "snapshot field `{field}` has {found} entries, topology requires {expected}"
                )
            }
        }
    }
}

impl std::error::Error for WillowError {}

/// [`WillowError::SnapshotShape`] unless `found == expected`.
pub(crate) fn snapshot_shape(
    field: &'static str,
    found: usize,
    expected: usize,
) -> Result<(), WillowError> {
    if found == expected {
        Ok(())
    } else {
        Err(WillowError::SnapshotShape {
            field,
            found,
            expected,
        })
    }
}

/// Fault and defense events observed during the current period.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct FaultCounters {
    pub(super) reports_lost: usize,
    pub(super) directives_lost: usize,
    pub(super) migration_rejects: usize,
    pub(super) migration_aborts: usize,
    pub(super) migration_retries: usize,
    pub(super) watchdog_trips: usize,
    pub(super) sensor_rejections: usize,
}

/// Cumulative operation counters backing the paper's §V-A2 complexity
/// analysis: the distributed scheme solves one pod-sized packing instance
/// per PMU node per period, so instances scale with the node count and the
/// work per instance with the branching factor — not with the data center
/// as a whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ControlStats {
    /// Bin-packing instances solved (demand-side adaptation).
    pub packing_instances: u64,
    /// Deficit items offered across all instances.
    pub items_offered: u64,
    /// Bins (candidate targets) offered across all instances.
    pub bins_offered: u64,
    /// Control messages exchanged on tree links.
    pub messages: u64,
    /// Migrations executed (both reasons).
    pub migrations: u64,
}

/// The Willow control system. See the module docs for the pipeline model.
pub struct Willow {
    pub(super) tree: Tree,
    pub(super) config: ControllerConfig,
    pub(super) servers: Vec<ServerState>,
    /// Every per-app fact: placement, raw demand, last move, backoff.
    pub(super) apps: AppTable,
    /// Arena index → server index (None for interior nodes).
    pub(super) leaf_server: Vec<Option<usize>>,
    pub(super) power: PowerState,
    pub(super) fabric: Fabric,
    pub(super) tick: u64,
    /// Demand shed last period (drives wake-on-deficit).
    pub(super) last_dropped: Watts,
    /// Cumulative operation counters.
    pub(super) stats: ControlStats,
    /// Per-server decay factor `e^(−c2·Δ_D)` for the physics update —
    /// `c2` and the demand period never change within a run, so the
    /// exponential is evaluated once at construction instead of twice per
    /// server per tick.
    pub(super) decay_dd: Vec<f64>,
    /// Per-server decay factor `e^(−c2·Δ_S)` for the thermal-cap
    /// prediction on supply ticks.
    pub(super) decay_ds: Vec<f64>,
    /// Write-ahead journal of migration transactions (see `crate::txn`):
    /// every migration runs prepare → transfer → commit through it, so a
    /// crash or dead link mid-flight can never orphan or duplicate an app.
    pub(super) journal: MigrationJournal,
    /// Disturbances being applied to the period currently in progress.
    pub(super) disturb: Disturbances,
    /// Migration attempts made so far this period (indexes into the
    /// pre-rolled outcome list).
    pub(super) mig_attempts: usize,
    /// Fault/defense events observed this period.
    pub(super) counters: FaultCounters,
    /// Per-stage reusable working memory: a steady-state tick performs
    /// zero heap allocations once these have warmed up.
    pub(super) supply_stage: SupplyStage,
    /// Demand-adaptation working memory (deficit parcels, packing buffers).
    pub(super) demand_stage: DemandStage,
    /// Consolidation working memory (candidates, evacuation plans).
    pub(super) consolidate_stage: ConsolidateStage,
    /// Physics-stage working memory (per-server shortfall/shed scratch and
    /// the fabric's bottom-up query sums).
    pub(super) physics_stage: PhysicsStage,
    /// Persistent worker pool for the sharded stages. `threads == 1` (the
    /// default) runs every stage serially on the control thread; any other
    /// count shards per-server and per-leaf loops bit-for-bit identically
    /// (see [`shard`]).
    pub(super) pool: ShardPool,
    /// The horizon-aware planning seam (see [`planning`]): forecasters
    /// for root supply, root demand, and every roster server, updated
    /// once per tick and read by stages 2 and 4. Checkpointed, so
    /// restored controllers keep forecasting bit-for-bit.
    pub(super) planning: PlanningContext,
    /// Telemetry handles (disabled until [`Willow::attach_telemetry`]).
    pub(super) tel: ControllerTelemetry,
    /// Live-ops commands awaiting processing (see [`liveops`]). Part of
    /// the checkpointed state.
    pub(super) pending: Vec<PendingCommand>,
    /// Next command correlation id to assign.
    pub(super) next_command_id: u64,
    /// Adaptation paused by [`crate::command::Command::Pause`]: supply,
    /// demand and consolidation stages are skipped; measurement, command
    /// processing and physics keep running every tick.
    pub(super) paused: bool,
}

impl Willow {
    /// Build a controller for `tree` with one [`ServerSpec`] per leaf,
    /// running the policies `config` selects: the tick-0 image of the
    /// controller (no memory, no planning state yet), restored through the
    /// same validation as any checkpoint.
    pub fn new(
        tree: Tree,
        specs: Vec<ServerSpec>,
        config: ControllerConfig,
    ) -> Result<Self, WillowError> {
        // The smoothers are built from the config, so it must hold first.
        config.validate().map_err(WillowError::Config)?;
        let apps = AppTable::for_specs(&specs)?;
        let servers: Vec<ServerState> = specs
            .iter()
            .map(|spec| ServerState::new(spec, &config))
            .collect();
        Willow::from_parts(crate::snapshot::WillowSnapshot {
            power: PowerState::new(&tree),
            tick: 0,
            last_dropped: Watts::ZERO,
            stats: ControlStats::default(),
            journal: MigrationJournal::default(),
            pending: Vec::new(),
            next_command_id: 0,
            paused: false,
            apps,
            planning: PlanningContext::for_servers(servers.len()),
            tree,
            config,
            servers,
        })
    }

    /// Register this controller's metrics — per-phase span histograms,
    /// migration/abort/watchdog counters, per-level budget-deficit gauges
    /// and fabric traffic gauges — on `registry` and start recording into
    /// it. Attaching to a disabled registry (or never attaching) leaves
    /// every record a no-op; recording itself never allocates or locks, so
    /// the steady-state zero-allocation tick invariant holds either way.
    pub fn attach_telemetry(&mut self, registry: &willow_telemetry::TelemetryRegistry) {
        self.tel = ControllerTelemetry::register(registry, self.tree.height());
    }

    /// The PMU tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Immutable view of server states (indexed by server order).
    #[must_use]
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    /// The switch fabric's traffic counters for the current period.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Current power state (CP/TP/caps per node).
    #[must_use]
    pub fn power(&self) -> &PowerState {
        &self.power
    }

    /// Cumulative operation counters since construction.
    #[must_use]
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// The demand-period counter (number of completed `step` calls).
    #[must_use]
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Every per-app fact: each application, its host, raw demand, last
    /// move and retry backoff.
    #[must_use]
    pub fn apps(&self) -> &AppTable {
        &self.apps
    }

    /// Demand shed in the last completed period.
    #[must_use]
    pub fn last_dropped(&self) -> Watts {
        self.last_dropped
    }

    /// The migration-transaction journal: open transactions plus recently
    /// closed ones (retained for duplicate-commit detection).
    #[must_use]
    pub fn journal(&self) -> &MigrationJournal {
        &self.journal
    }

    /// The controller's planning memory: demand/supply forecaster state
    /// (see [`crate::control::planning`]).
    #[must_use]
    pub fn planning(&self) -> &PlanningContext {
        &self.planning
    }

    /// Rebuild a controller from a previously captured snapshot (the
    /// checkpoint/restore path — see `crate::snapshot`), or from the tick-0
    /// image [`Willow::new`] assembles. Validates the config, the leaf
    /// coverage of the server states, the app table's lists, and the shape
    /// of every state vector against the snapshot's own topology, so a
    /// malformed image is an error here rather than a panic in `step`.
    ///
    /// Policies are selected by the snapshot's config alone, so the
    /// restored controller runs the policies it was checkpointed with.
    pub(crate) fn from_parts(
        snapshot: crate::snapshot::WillowSnapshot,
    ) -> Result<Willow, WillowError> {
        let crate::snapshot::WillowSnapshot {
            tree,
            config,
            mut servers,
            power,
            tick,
            last_dropped,
            stats,
            journal,
            pending,
            next_command_id,
            paused,
            apps,
            planning,
        } = snapshot;
        config.validate().map_err(WillowError::Config)?;
        // Retired servers own no leaf (their slot was tombstoned at
        // removal), so only live roster entries must cover the leaves.
        let leaves = tree.leaves().count();
        let live = servers
            .iter()
            .filter(|s| s.fence != FenceState::Retired)
            .count();
        if live != leaves {
            return Err(WillowError::LeafCoverage {
                leaves,
                specs: live,
            });
        }
        snapshot_shape("power.cp", power.cp.len(), tree.len())?;
        snapshot_shape("power.tp", power.tp.len(), tree.len())?;
        snapshot_shape("power.tp_old", power.tp_old.len(), tree.len())?;
        snapshot_shape("power.cap", power.cap.len(), tree.len())?;
        snapshot_shape("power.reduced", power.reduced.len(), tree.len())?;
        snapshot_shape("planning.leaves", planning.leaves.len(), servers.len())?;
        let mut leaf_server = vec![None; tree.len()];
        for (si, server) in servers.iter().enumerate() {
            // Even a retired row's node must be a tree slot: recovery
            // indexes the slot table by it.
            if server.node.index() >= tree.len() {
                return Err(WillowError::NotALeaf(server.node));
            }
            if server.fence != FenceState::Retired {
                if !tree.is_leaf(server.node) {
                    return Err(WillowError::NotALeaf(server.node));
                }
                if leaf_server[server.node.index()].is_some() {
                    return Err(WillowError::DuplicateLeaf(server.node));
                }
                leaf_server[server.node.index()] = Some(si);
            }
        }
        apps.validate(servers.len())?;
        // The hosted-app power is derived state: re-sum it from the table
        // so it can never disagree with the lists it summarizes.
        for (si, server) in servers.iter_mut().enumerate() {
            server.app_power = apps.power_on(si);
        }
        let fabric = Fabric::new(&tree);
        let decay_dd = servers
            .iter()
            .map(|s| decay_factor(s.thermal.params(), config.delta_d))
            .collect();
        let decay_ds = servers
            .iter()
            .map(|s| decay_factor(s.thermal.params(), config.delta_s()))
            .collect();
        let supply_stage = SupplyStage::for_tree(&tree);
        let demand_stage = DemandStage::for_tree(&tree);
        let consolidate_stage = ConsolidateStage::for_tree(&tree, servers.len());
        let physics_stage = PhysicsStage::for_tree(&tree, servers.len());
        let pool = ShardPool::new(shard::resolve_threads(config.threads));
        Ok(Willow {
            tree,
            config,
            servers,
            apps,
            leaf_server,
            power,
            fabric,
            tick,
            last_dropped,
            stats,
            decay_dd,
            decay_ds,
            journal,
            disturb: Disturbances::default(),
            mig_attempts: 0,
            counters: FaultCounters::default(),
            supply_stage,
            demand_stage,
            consolidate_stage,
            physics_stage,
            pool,
            planning,
            tel: ControllerTelemetry::default(),
            pending,
            next_command_id,
            paused,
        })
    }

    /// Restart a crashed controller from its last periodic `checkpoint`
    /// and reconcile it against `field` — the live leaf-local state that
    /// kept running open-loop while the controller was down (see
    /// [`Willow::step_open_loop`]).
    ///
    /// The checkpoint supplies the controller's *memory* (config, counters,
    /// ping-pong history, retry backoff, the migration journal); the field
    /// supplies *physical truth*, which always wins where the two disagree:
    ///
    /// * **Placement and server state** — migrations committed between the
    ///   checkpoint and the crash are in the field but not the checkpoint,
    ///   so the field's roster rows (smoother, thermal state, `local_cp`,
    ///   watchdog, accepted temperature) and the app table's placement
    ///   columns are adopted wholesale. Nothing moves during an outage
    ///   (only the controller migrates), so this is exact, not
    ///   approximate. The planning forecasters, every server's included,
    ///   are controller memory and come from the checkpoint.
    /// * **Budgets, caps, clock** — the leaves' applied budgets (tightened
    ///   by open-loop watchdogs) carry over; the restored controller
    ///   resumes at the field's tick, not the checkpoint's.
    /// * **Demand view** — re-learned: each leaf's `CP` is seeded from its
    ///   row's fresh `local_cp` and re-aggregated up the tree, replacing
    ///   the checkpoint's stale hierarchy view.
    /// * **Ping-pong / backoff memory** — entries whose window already
    ///   elapsed during the outage are expired rather than replayed.
    /// * **In-flight migrations** — journal entries still open in the
    ///   checkpoint never flipped a placement, so they are aborted
    ///   ([`MigrationJournal::resolve_in_flight`]).
    /// * **In-flight drains** — the pending command queue is controller
    ///   memory and comes from the checkpoint; a server the field reports
    ///   as `Draining` whose drain command is *not* in that queue (it was
    ///   issued after the checkpoint) is demoted back to `Active` — a
    ///   crash mid-drain never permanently fences a healthy server.
    ///   Conversely a checkpointed drain whose server already finished
    ///   fencing simply re-completes (at-least-once outcome reporting).
    ///
    /// # Errors
    /// Whatever [`WillowSnapshot`](crate::snapshot::WillowSnapshot)
    /// restoration reports, plus [`WillowError::SnapshotShape`] when the
    /// checkpoint's topology does not match the field's.
    pub fn recover(
        checkpoint: crate::snapshot::WillowSnapshot,
        field: &Willow,
    ) -> Result<Willow, WillowError> {
        let mut w = Willow::from_parts(checkpoint)?;
        snapshot_shape("recover.tree", w.tree.len(), field.tree.len())?;
        snapshot_shape("recover.servers", w.servers.len(), field.servers.len())?;
        snapshot_shape("recover.apps", w.apps.len(), field.apps.len())?;
        for (ours, theirs) in w.servers.iter().zip(&field.servers) {
            snapshot_shape("recover.leaf", ours.node.index(), theirs.node.index())?;
        }

        // Physical truth from the field: each row whole.
        w.servers.clone_from(&field.servers);
        w.apps.adopt_placement(&field.apps);
        w.leaf_server.clone_from(&field.leaf_server);
        w.power.clone_from(&field.power);
        w.tick = field.tick;
        w.last_dropped = field.last_dropped;

        // Re-learn the demand hierarchy from the leaves' fresh local view,
        // and re-sum the caps the leaves computed for themselves open-loop.
        for (si, server) in w.servers.iter().enumerate() {
            let leaf = server.node.index();
            // Only the slot's owner speaks for it: a retired row whose
            // node was recycled must not clobber the live server's demand.
            if w.leaf_server[leaf] != Some(si) {
                continue;
            }
            w.power.cp[leaf] = if server.active {
                server.local_cp
            } else {
                Watts::ZERO
            };
        }
        w.power.aggregate_demands(&w.tree);
        w.power.aggregate_caps(&w.tree);

        // Expire memory whose window elapsed during the outage.
        w.apps.expire(w.tick, w.config.pingpong_window);
        w.journal.resolve_in_flight();

        // Command plane: the queue is controller memory (restored from the
        // checkpoint above), but correlation ids must never regress below
        // ones the field already handed out.
        w.next_command_id = w.next_command_id.max(field.next_command_id);
        // Resolve in-flight drain fences the same way the journal resolves
        // in-flight migrations: a `Draining` fence whose drain command was
        // issued after the checkpoint (so the restored queue no longer
        // carries it) would otherwise stay half-fenced forever.
        for (si, server) in w.servers.iter_mut().enumerate() {
            let drain_pending = w
                .pending
                .iter()
                .any(|p| matches!(p.command, Command::Drain { server } if server == si));
            if server.fence == FenceState::Draining && !drain_pending {
                server.fence = FenceState::Active;
            }
        }
        Ok(w)
    }

    /// Server index hosting `app`, if any.
    #[must_use]
    pub fn locate_app(&self, app: AppId) -> Option<usize> {
        self.apps.host(app)
    }

    /// Move `app` to the tail of server `to`'s list and re-sum the
    /// hosted-app power of both ends.
    pub(super) fn rehost(&mut self, app: AppId, to: usize) {
        let from = self.apps.host(app).expect("rehosting a known app");
        self.apps.move_to(app, to);
        self.servers[from].app_power = self.apps.power_on(from);
        self.servers[to].app_power = self.apps.power_on(to);
    }

    /// Utilization of the server at a leaf, or `0.0` for non-server nodes.
    /// A closure over the roster slices rather than a `&self` method: sort
    /// comparators call it per comparison, and a method reloads both `Vec`s
    /// through `self` on every call, which timed about 10 % slower on the
    /// cold-start consolidation at 2,187 servers (2-CPU x86-64 host).
    pub(super) fn leaf_utilization(&self) -> impl Fn(NodeId) -> f64 + '_ {
        let (servers, leaf_server) = (&self.servers[..], &self.leaf_server[..]);
        move |leaf| leaf_server[leaf.index()].map_or(0.0, |i| servers[i].utilization())
    }

    /// Drive one demand period. `app_demand` is indexed by `AppId.0` and
    /// gives each application's raw power demand this period; `supply` is
    /// the data center's total power budget (used on supply ticks).
    ///
    /// Equivalent to [`Willow::step_with`] with no disturbances.
    ///
    /// # Panics
    /// Panics if `app_demand` does not cover every hosted application's id.
    pub fn step(&mut self, app_demand: &[Watts], supply: Watts) -> TickReport {
        self.step_with(app_demand, supply, &Disturbances::default())
    }

    /// Drive one demand period under injected faults (see
    /// [`crate::disturbance`]). With the default (empty) [`Disturbances`]
    /// this is exactly [`Willow::step`] — the fault machinery changes
    /// nothing about fault-free trajectories.
    ///
    /// Allocates a fresh [`TickReport`]; steady-state drivers should prefer
    /// [`Willow::step_into`], which reuses a caller-provided one.
    ///
    /// # Panics
    /// Panics if `app_demand` does not cover every hosted application's id.
    pub fn step_with(
        &mut self,
        app_demand: &[Watts],
        supply: Watts,
        disturb: &Disturbances,
    ) -> TickReport {
        let mut report = TickReport::default();
        self.step_into(app_demand, supply, disturb, &mut report);
        report
    }

    /// [`Willow::step_with`], writing into a caller-provided report instead
    /// of returning a fresh one. `report` is fully overwritten (its buffer
    /// capacity is reused), so one report driven across a run makes the
    /// steady-state no-migration tick free of heap allocation entirely.
    ///
    /// Each pipeline stage borrows its own scratch struct for the duration
    /// of its phase (`std::mem::take`, put back afterwards) so the stage
    /// methods can work alongside `&mut self` field access without
    /// reallocating.
    ///
    /// # Panics
    /// Panics if `app_demand` does not cover every hosted application's id.
    pub fn step_into(
        &mut self,
        app_demand: &[Watts],
        supply: Watts,
        disturb: &Disturbances,
        report: &mut TickReport,
    ) {
        self.disturb.assign_from(disturb);
        self.mig_attempts = 0;
        self.counters = FaultCounters::default();
        let tick = self.tick;
        // Age out closed migration transactions; open entries are kept
        // (and an empty journal makes this free on steady-state ticks).
        self.journal.prune(tick);
        let supply_tick = tick.is_multiple_of(u64::from(self.config.eta1));
        let consolidation_tick = tick.is_multiple_of(u64::from(self.config.eta2));
        report.reset(tick, supply_tick, consolidation_tick);
        self.fabric.reset_epoch();

        // ------------------------------------------------ 1. measurement
        let t0 = self.tel.span_start(SLOT_MEASURE, tick);
        self.measure(app_demand);
        self.tel.span_measure.record_since(t0);
        // Upward demand reports: one message per tree link.
        report.control_messages += self.tree.len() - 1;
        self.stats.messages += (self.tree.len() - 1) as u64;

        // -------------------------------------------- 1b. command plane
        // Fixed point in the tick: after measurement (commands see fresh
        // demand), before supply (budgets divide over the post-command
        // topology). A single branch when the queue is idle.
        self.process_commands(report);

        // -------------------------------------- 1c. planning observation
        // Root aggregate demand every tick (per-leaf series were fed
        // inside the sharded measure loop); supply only when a value is
        // actually applied, so the supply series' horizon unit stays one
        // supply period. Stages 2 and 4 only read the context.
        let root = self.tree.root();
        self.planning
            .root_demand
            .observe(self.power.cp[root.index()]);
        if supply_tick && !self.paused {
            self.planning.supply.observe(supply);
        }

        // ------------------------------------------- 2. supply adaptation
        if supply_tick && !self.paused {
            let t0 = self.tel.span_start(SLOT_SUPPLY, tick);
            let mut stage = std::mem::take(&mut self.supply_stage);
            self.supply_adaptation(supply, &mut stage);
            self.supply_stage = stage;
            self.tel.span_supply.record_since(t0);
            // Downward budget directives: one message per tree link.
            report.control_messages += self.tree.len() - 1;
            self.stats.messages += (self.tree.len() - 1) as u64;
        }

        // ------------------------------------------- 3. demand adaptation
        if !self.paused {
            let t0 = self.tel.span_start(SLOT_DEMAND, tick);
            let mut stage = std::mem::take(&mut self.demand_stage);
            self.demand_adaptation(tick, &mut stage, &mut report.migrations);
            self.demand_stage = stage;
            self.tel.span_demand.record_since(t0);
        }

        // --------------------------------------------- 4. consolidation
        if consolidation_tick && !self.paused {
            let t0 = self.tel.span_start(SLOT_CONSOLIDATE, tick);
            let mut stage = std::mem::take(&mut self.consolidate_stage);
            self.consolidate(tick, &mut stage, &mut report.migrations, &mut report.slept);
            let wake_need = self.wake_need();
            if self.config.wake_on_deficit && wake_need.0 > 0.0 {
                self.wake_servers(wake_need, &mut stage.sleeping, &mut report.woken);
            }
            self.consolidate_stage = stage;
            self.tel.span_consolidate.record_since(t0);
        }

        // ------------------------------------------------- 5. physics
        let t0 = self.tel.span_start(SLOT_PHYSICS, tick);
        // Re-aggregate interior demands only if a leaf CP changed since
        // the measurement phase aggregated them: executed migrations and
        // aborts charge costs, sleeping zeroes the leaf. On a clean tick
        // the interior sums are already exactly what recomputation would
        // write, so skipping it is bit-neutral.
        let cp_dirty = !report.migrations.is_empty()
            || self.counters.migration_aborts > 0
            || !report.slept.is_empty();
        if cp_dirty {
            self.power.aggregate_demands(&self.tree);
        }
        self.physics_phase(report);
        self.tel.span_physics.record_since(t0);

        self.tel.migrations.add(report.migrations.len() as u64);
        self.tel
            .migration_aborts
            .add(self.counters.migration_aborts as u64);
        self.tel
            .migration_rejects
            .add(self.counters.migration_rejects as u64);
        self.tel
            .watchdog_trips
            .add(self.counters.watchdog_trips as u64);
        if self.tel.due(SLOT_GAUGES, tick) {
            for (level, gauge) in self.tel.level_deficit.iter().enumerate() {
                let deficit = self
                    .tree
                    .nodes_at_level(level as u8)
                    .iter()
                    .map(|&n| self.power.deficit(n))
                    .fold(Watts::ZERO, |a, b| a + b);
                gauge.set(deficit.0);
            }
            self.tel.fabric.observe(&self.fabric);
        }

        self.publish_counters(report);

        self.tick += 1;
    }

    /// Drive one demand period with the central controller *down*: only
    /// the leaf-local control surface runs. Servers keep measuring and
    /// smoothing their own demand, draw against their last applied budget,
    /// advance thermally, and run the sensor plausibility filter — but no
    /// reports flow up, no budgets flow down, and no migrations or
    /// consolidations happen (only the controller initiates them). On
    /// supply ticks every leaf misses its directive, so the stale-directive
    /// watchdogs count, trip at the configured threshold, and budgets can
    /// only *tighten* (clipped by the locally recomputed thermal cap, and
    /// by the fallback fraction once tripped) — exactly the per-leaf
    /// degraded mode of [`Willow::step_into`] under directive loss, applied
    /// fleet-wide.
    ///
    /// Sensor faults in `disturb` still apply (they are physical); message
    /// and migration faults are moot since no messages are sent.
    ///
    /// # Panics
    /// Panics if `app_demand` does not cover every hosted application's id.
    pub fn step_open_loop(
        &mut self,
        app_demand: &[Watts],
        disturb: &Disturbances,
        report: &mut TickReport,
    ) {
        self.disturb.assign_from(disturb);
        self.mig_attempts = 0;
        self.counters = FaultCounters::default();
        let tick = self.tick;
        let supply_tick = tick.is_multiple_of(u64::from(self.config.eta1));
        let consolidation_tick = tick.is_multiple_of(u64::from(self.config.eta2));
        report.reset(tick, supply_tick, consolidation_tick);
        self.fabric.reset_epoch();

        self.measure_open_loop(app_demand);

        // On supply ticks every leaf's directive is missing. Each leaf
        // refreshes its *own* thermal cap from its accepted temperature
        // (that computation is local) and applies the same tighten-only
        // fallback it uses for an individually lost directive.
        if supply_tick {
            self.open_loop_supply_fallback();
        }

        self.physics_phase(report);
        self.tel
            .watchdog_trips
            .add(self.counters.watchdog_trips as u64);
        self.publish_counters(report);

        self.tick += 1;
    }
}
