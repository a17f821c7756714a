//! A frozen copy of the pre-optimization controller, kept verbatim as the
//! ground truth for the differential equivalence test: the scratch-workspace
//! `Willow::step_with` must produce bit-identical `TickReport`s and budgets
//! to this implementation on any input. Test-only; never ships.

use crate::config::SmootherKind;
use crate::config::{AllocationPolicy, ControllerConfig, ReducedTargetRule};
use crate::control::{ControlStats, WillowError};
use crate::disturbance::{Disturbances, MigrationOutcome};
use crate::migration::{MigrationReason, MigrationRecord, TickReport};
use crate::server::ServerSpec;
use crate::state::PowerState;
use std::collections::HashMap;
use willow_binpack::Packer;
use willow_network::Fabric;
use willow_power::allocation::allocate_proportional;
use willow_thermal::limit::power_limit;
use willow_thermal::model::{step_temperature, DeviceThermal};
use willow_thermal::units::{Celsius, Watts};
use willow_topology::{NodeId, Tree};
use willow_workload::app::{AppId, Application};

/// The demand smoother as the reference was written against it: each
/// instance carries its own gains (Eq. 4's `α`, and Holt's `β`). Kept here
/// so the production smoothing rule can change without moving the ground
/// truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReferenceSmoother {
    /// Plain exponential smoothing (paper Eq. 4).
    Exponential {
        /// Level gain.
        alpha: f64,
        /// Smoothed value, if any observation has been made.
        state: Option<Watts>,
    },
    /// Holt double-exponential smoothing.
    Holt {
        /// Level gain.
        alpha: f64,
        /// Trend gain.
        beta: f64,
        /// Level and per-step trend, if any observation has been made.
        state: Option<(Watts, Watts)>,
    },
}

impl ReferenceSmoother {
    fn new(kind: SmootherKind, alpha: f64) -> Self {
        match kind {
            SmootherKind::Exponential => ReferenceSmoother::Exponential { alpha, state: None },
            SmootherKind::Holt { beta } => ReferenceSmoother::Holt {
                alpha,
                beta,
                state: None,
            },
        }
    }

    /// Feed one raw measurement; returns the smoothed demand (the Holt
    /// level floored at zero). Non-finite measurements leave the state
    /// untouched.
    fn observe(&mut self, raw: Watts) -> Watts {
        match self {
            ReferenceSmoother::Exponential { alpha, state } => {
                if !raw.0.is_finite() {
                    return state.unwrap_or(Watts::ZERO);
                }
                let next = match *state {
                    None => raw,
                    Some(old) => raw * *alpha + old * (1.0 - *alpha),
                };
                *state = Some(next);
                next
            }
            ReferenceSmoother::Holt { alpha, beta, state } => {
                if !raw.0.is_finite() {
                    return state.map_or(Watts::ZERO, |(l, _)| l).non_negative();
                }
                let next = match *state {
                    None => (raw, Watts::ZERO),
                    Some((level, trend)) => {
                        let new_level = raw * *alpha + (level + trend) * (1.0 - *alpha);
                        let new_trend = (new_level - level) * *beta + trend * (1.0 - *beta);
                        (new_level, new_trend)
                    }
                };
                *state = Some(next);
                next.0.non_negative()
            }
        }
    }

    fn reset(&mut self) {
        match self {
            ReferenceSmoother::Exponential { state, .. } => *state = None,
            ReferenceSmoother::Holt { state, .. } => *state = None,
        }
    }
}

/// The per-server record as the reference was written against it: each
/// server owns its apps and their demands. Kept here so the record the
/// production controller uses can change without moving the ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerState {
    /// PMU-tree leaf this server occupies.
    pub node: NodeId,
    /// Currently hosted applications (the migration units).
    pub apps: Vec<Application>,
    /// Latest *raw* demand per hosted app, aligned with `apps`.
    pub app_demand: Vec<Watts>,
    /// Temporary migration-cost demand charged this period (§IV-E).
    pub pending_cost: Watts,
    /// Smoothed node demand `CP_{0,i}` (Eq. 4 or Holt).
    pub smoother: ReferenceSmoother,
    /// Thermal state.
    pub thermal: DeviceThermal,
    /// Active (true) or deep sleep (false).
    pub active: bool,
    /// Tick at which the server last changed activity state.
    pub last_activity_change: u64,
    /// Non-migratable draw while active.
    pub base_load: Watts,
    /// Utilization denominator.
    pub full_util_power: Watts,
}

impl ServerState {
    fn from_spec_with_smoother(spec: &ServerSpec, smoother: ReferenceSmoother) -> Self {
        ServerState {
            node: spec.node,
            apps: spec.apps.clone(),
            app_demand: vec![Watts::ZERO; spec.apps.len()],
            pending_cost: Watts::ZERO,
            smoother,
            thermal: DeviceThermal::new(spec.thermal, spec.ambient, spec.t_limit, spec.rating),
            active: spec.active,
            last_activity_change: 0,
            base_load: spec.base_load,
            full_util_power: spec.full_util_power,
        }
    }

    fn app_power(&self) -> Watts {
        self.app_demand.iter().copied().sum()
    }

    fn raw_demand(&self) -> Watts {
        if !self.active {
            return Watts::ZERO;
        }
        self.base_load + self.app_power() + self.pending_cost
    }

    fn utilization(&self) -> f64 {
        if !self.active || self.full_util_power.0 <= 0.0 {
            return 0.0;
        }
        (self.app_power() / self.full_util_power).clamp(0.0, 1.0)
    }

    fn take_app(&mut self, idx: usize) -> (Application, Watts) {
        let app = self.apps.remove(idx);
        let demand = self.app_demand.remove(idx);
        (app, demand)
    }

    fn host_app(&mut self, app: Application, demand: Watts) {
        self.apps.push(app);
        self.app_demand.push(demand);
    }

    fn find_app(&self, id: AppId) -> Option<usize> {
        self.apps.iter().position(|a| a.id == id)
    }
}

/// A deficit parcel traveling up the hierarchy: one application that must
/// leave its server.
#[derive(Debug, Clone)]
struct DeficitItem {
    server: usize,
    app: AppId,
    demand: Watts,
    reason: MigrationReason,
}

/// Per-server stale-directive watchdog state (paper-adjacent defense: a
/// leaf that keeps missing its budget directive falls back to a
/// conservative local cap rather than running open-loop forever).
#[derive(Debug, Clone, Copy, Default)]
struct Watchdog {
    /// Consecutive supply ticks whose budget directive never arrived.
    missed: u32,
    /// Whether the conservative fallback cap is currently engaged.
    tripped: bool,
}

/// Exponential retry backoff for an app whose migration failed.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Failed attempts so far.
    failures: u32,
    /// Earliest tick at which another attempt may be made.
    retry_at: u64,
}

/// Fault and defense events observed during the current period.
#[derive(Debug, Clone, Copy, Default)]
struct FaultCounters {
    reports_lost: usize,
    directives_lost: usize,
    migration_rejects: usize,
    migration_aborts: usize,
    migration_retries: usize,
    watchdog_trips: usize,
    sensor_rejections: usize,
}

/// The ReferenceWillow control system. See the crate docs for the model.
pub struct ReferenceWillow {
    tree: Tree,
    config: ControllerConfig,
    servers: Vec<ServerState>,
    /// Arena index → server index (None for interior nodes).
    leaf_server: Vec<Option<usize>>,
    power: PowerState,
    /// Previous period's budget per node (for reduction detection).
    tp_old: Vec<Watts>,
    fabric: Fabric,
    tick: u64,
    /// For each app: the server it last migrated *from* and when. Ping-pong
    /// is defined as the paper does — "migrates demand from server A to B
    /// and then immediately from B to A" — i.e. a return to the previous
    /// host within the `Δ_f` window.
    last_move: HashMap<AppId, (NodeId, u64)>,
    /// Demand shed last period (drives wake-on-deficit).
    last_dropped: Watts,
    /// Cumulative operation counters.
    stats: ControlStats,
    /// Each leaf's *own* view of its smoothed demand, indexed like
    /// `power.cp`. Identical to `power.cp` in fault-free operation; under
    /// report loss `power.cp` keeps the hierarchy's stale view while this
    /// stays current — physics and local deficit detection use this.
    local_cp: Vec<Watts>,
    /// Stale-directive watchdog per server.
    watchdog: Vec<Watchdog>,
    /// Last temperature reading per server that passed the plausibility
    /// filter; caps and predictions are computed from this, never from a
    /// raw (possibly faulted) sensor.
    accepted_temp: Vec<Celsius>,
    /// Retry backoff for apps whose migrations recently failed.
    backoff: HashMap<AppId, Backoff>,
    /// Disturbances being applied to the period currently in progress.
    disturb: Disturbances,
    /// Migration attempts made so far this period (indexes into the
    /// pre-rolled outcome list).
    mig_attempts: usize,
    /// Fault/defense events observed this period.
    counters: FaultCounters,
}

impl ReferenceWillow {
    /// Build a controller for `tree` with one [`ServerSpec`] per leaf.
    pub fn new(
        tree: Tree,
        specs: Vec<ServerSpec>,
        config: ControllerConfig,
    ) -> Result<Self, WillowError> {
        config.validate().map_err(WillowError::Config)?;
        let leaves: Vec<NodeId> = tree.leaves().collect();
        if specs.len() != leaves.len() {
            return Err(WillowError::LeafCoverage {
                leaves: leaves.len(),
                specs: specs.len(),
            });
        }
        let mut leaf_server = vec![None; tree.len()];
        let mut servers = Vec::with_capacity(specs.len());
        let mut seen_apps = HashMap::new();
        for spec in &specs {
            if !tree.is_leaf(spec.node) {
                return Err(WillowError::NotALeaf(spec.node));
            }
            if leaf_server[spec.node.index()].is_some() {
                return Err(WillowError::DuplicateLeaf(spec.node));
            }
            for app in &spec.apps {
                if seen_apps.insert(app.id, spec.node).is_some() {
                    return Err(WillowError::DuplicateApp(app.id));
                }
            }
            leaf_server[spec.node.index()] = Some(servers.len());
            servers.push(ServerState::from_spec_with_smoother(
                spec,
                ReferenceSmoother::new(config.smoother, config.alpha),
            ));
        }
        let power = PowerState::new(&tree);
        let fabric = Fabric::new(&tree);
        let accepted_temp = servers.iter().map(|s| s.thermal.temperature()).collect();
        let watchdog = vec![Watchdog::default(); servers.len()];
        let local_cp = vec![Watts::ZERO; tree.len()];
        Ok(ReferenceWillow {
            tp_old: vec![Watts::ZERO; tree.len()],
            tree,
            config,
            servers,
            leaf_server,
            power,
            fabric,
            tick: 0,
            last_move: HashMap::new(),
            last_dropped: Watts::ZERO,
            stats: ControlStats::default(),
            local_cp,
            watchdog,
            accepted_temp,
            backoff: HashMap::new(),
            disturb: Disturbances::default(),
            mig_attempts: 0,
            counters: FaultCounters::default(),
        })
    }

    /// Immutable view of server states (indexed by server order).
    #[must_use]
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
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

    /// Ping-pong bookkeeping as a serializable list, sorted by app id.
    #[must_use]
    pub fn last_moves(&self) -> Vec<(AppId, NodeId, u64)> {
        let mut out: Vec<(AppId, NodeId, u64)> = self
            .last_move
            .iter()
            .map(|(&app, &(from, t))| (app, from, t))
            .collect();
        out.sort_by_key(|(app, _, _)| *app);
        out
    }

    fn packer(&self) -> Box<dyn Packer> {
        willow_binpack::packer_for(self.config.packer)
    }

    /// Effective packing size of a demand parcel: the moved demand plus the
    /// temporary cost it charges the target while migrating.
    fn effective_size(&self, demand: Watts) -> f64 {
        (demand + self.config.cost_model.node_cost(demand)).0
    }

    /// Drive one demand period under injected faults (see
    /// [`crate::disturbance`]).
    ///
    /// # Panics
    /// Panics if `app_demand` does not cover every hosted application's id.
    pub fn step_with(
        &mut self,
        app_demand: &[Watts],
        supply: Watts,
        disturb: &Disturbances,
    ) -> TickReport {
        self.disturb = disturb.clone();
        self.mig_attempts = 0;
        self.counters = FaultCounters::default();
        let tick = self.tick;
        let supply_tick = tick.is_multiple_of(u64::from(self.config.eta1));
        let consolidation_tick = tick.is_multiple_of(u64::from(self.config.eta2));
        let mut report = TickReport {
            tick,
            supply_tick,
            consolidation_tick,
            ..TickReport::default()
        };
        self.fabric.reset_epoch();

        // ------------------------------------------------ 1. measurement
        self.measure(app_demand);
        // Upward demand reports: one message per tree link.
        report.control_messages += self.tree.len() - 1;
        self.stats.messages += (self.tree.len() - 1) as u64;

        // ------------------------------------------- 2. supply adaptation
        if supply_tick {
            self.supply_adaptation(supply);
            // Downward budget directives: one message per tree link.
            report.control_messages += self.tree.len() - 1;
            self.stats.messages += (self.tree.len() - 1) as u64;
        }

        // ------------------------------------------- 3. demand adaptation
        let migrations = self.demand_adaptation(tick);
        report.migrations.extend(migrations);

        // --------------------------------------------- 4. consolidation
        if consolidation_tick {
            let (migs, slept) = self.consolidate(tick);
            report.migrations.extend(migs);
            report.slept = slept;
            if self.config.wake_on_deficit && self.last_dropped.0 > 0.0 {
                report.woken = self.wake_servers(self.last_dropped, tick);
            }
        }

        // ------------------------------------------------- 5. physics
        self.power.aggregate_demands(&self.tree);
        let mut dropped = Watts::ZERO;
        for (si, server) in self.servers.iter_mut().enumerate() {
            let leaf = server.node.index();
            let budget = self.power.tp[leaf];
            // The server draws against its *own* demand view: report loss
            // fools the hierarchy, not the machine itself.
            let demand = if server.active {
                self.local_cp[leaf]
            } else {
                Watts::ZERO
            };
            let drawn = demand.min(budget);
            let shortfall = (demand - budget).non_negative();
            dropped += shortfall;
            if shortfall.0 > 0.0 {
                // Degraded operation: attribute the shed demand to QoS
                // classes, lowest priority first (§IV-E / §VI).
                let by_class = crate::shedding::shed_by_priority(
                    server
                        .apps
                        .iter()
                        .map(|a| a.priority)
                        .zip(server.app_demand.iter().copied()),
                    shortfall,
                );
                for (acc, class_shed) in report.shed_by_priority.iter_mut().zip(by_class) {
                    *acc += class_shed;
                }
            }
            server.thermal.advance(drawn, self.config.delta_d);
            // Sensor plausibility filter: accept the (possibly faulted)
            // reading only if it is within `sensor_slack` of what the RC
            // model predicts from the last accepted temperature under the
            // power actually drawn; otherwise keep running on the model.
            let measured = self.disturb.measured_temp(si, server.thermal.temperature());
            let predicted = step_temperature(
                server.thermal.params(),
                self.accepted_temp[si],
                server.thermal.ambient(),
                drawn,
                self.config.delta_d,
            );
            self.accepted_temp[si] =
                if (measured.0 - predicted.0).abs() <= self.config.robustness.sensor_slack {
                    measured
                } else {
                    self.counters.sensor_rejections += 1;
                    predicted
                };
            // Indirect network impact: query traffic follows the workload.
            self.fabric.record_query(
                &self.tree,
                server.node,
                drawn.0 * self.config.query_traffic_per_watt,
            );
            report.server_power.push(drawn);
            report.server_budget.push(budget);
            report.server_temp.push(server.thermal.temperature());
            report.server_active.push(server.active);
        }
        report.dropped_demand = dropped;
        self.last_dropped = dropped;
        for level in 0..=self.tree.height() {
            report
                .imbalance
                .push(self.power.level_imbalance(&self.tree, level));
        }

        report.reports_lost = self.counters.reports_lost;
        report.directives_lost = self.counters.directives_lost;
        report.migration_rejects = self.counters.migration_rejects;
        report.migration_aborts = self.counters.migration_aborts;
        report.migration_retries = self.counters.migration_retries;
        report.watchdog_trips = self.counters.watchdog_trips;
        report.sensor_rejections = self.counters.sensor_rejections;
        report.fallback_servers = self.watchdog.iter().filter(|w| w.tripped).count();

        self.tick += 1;
        report
    }

    /// Smooth raw demands into leaf `CP` values and aggregate upward. A
    /// server whose report is lost keeps running on its own fresh view
    /// (`local_cp`) while the hierarchy keeps the stale `power.cp` entry.
    fn measure(&mut self, app_demand: &[Watts]) {
        for (si, server) in self.servers.iter_mut().enumerate() {
            if server.active {
                for (i, app) in server.apps.iter().enumerate() {
                    let idx = app.id.0 as usize;
                    assert!(
                        idx < app_demand.len(),
                        "demand vector too short for {}",
                        app.id
                    );
                    server.app_demand[i] = app_demand[idx];
                }
                let raw = server.raw_demand();
                let smoothed = server.smoother.observe(raw);
                self.local_cp[server.node.index()] = smoothed;
                if self.disturb.report_lost(si) {
                    self.counters.reports_lost += 1;
                } else {
                    self.power.cp[server.node.index()] = smoothed;
                }
            } else {
                self.local_cp[server.node.index()] = Watts::ZERO;
                self.power.cp[server.node.index()] = Watts::ZERO;
            }
            // Migration costs are charged for exactly one period.
            server.pending_cost = Watts::ZERO;
        }
        self.power.aggregate_demands(&self.tree);
    }

    /// Refresh hard caps from the thermal model and divide the supply
    /// top-down proportional to demand (§IV-D).
    fn supply_adaptation(&mut self, supply: Watts) {
        let window = self.config.delta_s();
        for (si, server) in self.servers.iter().enumerate() {
            // Sleeping servers present their wake-up headroom; they are at
            // (or cooling toward) ambient, so this is near their rating.
            // Caps derive from the *accepted* temperature — the reading
            // that passed the plausibility filter — never a raw sensor, so
            // a stuck or noisy sensor cannot zero out a healthy server.
            let cap = match self.config.thermal_estimate {
                crate::config::ThermalEstimate::WindowPrediction => power_limit(
                    server.thermal.params(),
                    self.accepted_temp[si],
                    server.thermal.ambient(),
                    server.thermal.limit(),
                    window,
                )
                .clamp(Watts::ZERO, server.thermal.rating()),
                crate::config::ThermalEstimate::NaiveThrottle => {
                    if self.accepted_temp[si].0 > server.thermal.limit().0 + 1e-9 {
                        Watts::ZERO
                    } else {
                        server.thermal.rating()
                    }
                }
            };
            self.power.cap[server.node.index()] = cap;
        }
        self.power.aggregate_caps(&self.tree);

        self.tp_old.copy_from_slice(&self.power.tp);
        let root = self.tree.root();
        self.power.tp[root.index()] = supply.min(self.power.cap[root.index()]);
        for level in (1..=self.tree.height()).rev() {
            for &node in self.tree.nodes_at_level(level) {
                let children = self.tree.children(node);
                let caps: Vec<Watts> = children.iter().map(|c| self.power.cap[c.index()]).collect();
                // The allocation "demand" weights depend on the policy.
                let weights: Vec<Watts> = match self.config.allocation {
                    AllocationPolicy::ProportionalToDemand => {
                        children.iter().map(|c| self.power.cp[c.index()]).collect()
                    }
                    AllocationPolicy::EqualShare => children.iter().map(|_| Watts(1.0)).collect(),
                    AllocationPolicy::ProportionalToCapacity => caps.clone(),
                };
                let budgets = allocate_proportional(self.power.tp[node.index()], &weights, &caps)
                    .expect("validated inputs");
                for (c, b) in children.iter().zip(budgets) {
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
        for (si, server) in self.servers.iter().enumerate() {
            let leaf = server.node.index();
            if self.disturb.directive_lost(si) {
                self.counters.directives_lost += 1;
                let wd = &mut self.watchdog[si];
                wd.missed += 1;
                if !wd.tripped && wd.missed >= self.config.robustness.watchdog_threshold {
                    wd.tripped = true;
                    self.counters.watchdog_trips += 1;
                }
                let mut fallback = self.tp_old[leaf].min(self.power.cap[leaf]);
                if wd.tripped {
                    let cap_w =
                        server.thermal.rating().0 * self.config.robustness.watchdog_cap_fraction;
                    fallback = fallback.min(Watts(cap_w));
                }
                self.power.tp[leaf] = fallback;
            } else {
                self.watchdog[si] = Watchdog::default();
            }
        }

        // Budget-reduction flags for the unidirectional target rule (after
        // the watchdog, so degraded leaves read as reduced targets).
        for id in self.tree.ids() {
            let i = id.index();
            let reduced = match self.config.reduced_rule {
                ReducedTargetRule::Off => false,
                ReducedTargetRule::Strict => self.power.tp[i].0 < self.tp_old[i].0 - 1e-9,
                ReducedTargetRule::Disproportionate => {
                    let old = self.tp_old[i].0;
                    let new = self.power.tp[i].0;
                    if old <= 0.0 || new >= old {
                        false
                    } else {
                        match self.tree.parent(id) {
                            None => false, // global events never flag the root
                            Some(p) => {
                                let p_old = self.tp_old[p.index()].0;
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

    /// True if `leaf` may receive migrations: active, not crashed, and
    /// neither it nor any ancestor was flagged as budget-reduced (§IV-E
    /// final rule).
    fn target_eligible(&self, leaf: NodeId) -> bool {
        let Some(si) = self.leaf_server[leaf.index()] else {
            return false;
        };
        if !self.servers[si].active || self.disturb.crashed(si) {
            return false;
        }
        if self.power.reduced[leaf.index()] {
            return false;
        }
        !self
            .tree
            .ancestors(leaf)
            .any(|a| self.power.reduced[a.index()])
    }

    /// Remaining surplus a target server can absorb (margin already
    /// deducted).
    fn bin_capacity(&self, leaf: NodeId) -> Watts {
        (self.power.tp[leaf.index()] - self.power.cp[leaf.index()] - self.config.margin)
            .non_negative()
    }

    /// Bottom-up demand-side adaptation: local packing first, leftovers up.
    fn demand_adaptation(&mut self, tick: u64) -> Vec<MigrationRecord> {
        let mut records = Vec::new();

        // Collect deficit items at the leaves.
        let mut pending = self.collect_deficit_items();
        if pending.is_empty() {
            return records;
        }

        // Process levels bottom-up; at each level, each PMU node packs the
        // pending items originating in its subtree into surpluses in its
        // subtree (excluding the origin's child-subtree, already tried).
        for level in 1..=self.tree.height() {
            if pending.is_empty() {
                break;
            }
            let nodes: Vec<NodeId> = self.tree.nodes_at_level(level).to_vec();
            let mut still_pending = Vec::new();
            for pmu in nodes {
                let scope = self.tree.subtree_leaves(pmu);
                // Items whose origin server lies under this PMU.
                let (mine, other): (Vec<DeficitItem>, Vec<DeficitItem>) =
                    std::mem::take(&mut pending).into_iter().partition(|item| {
                        scope.binary_search(&self.servers[item.server].node).is_ok()
                    });
                pending = other;
                if mine.is_empty() {
                    continue;
                }
                // Group items by the child of `pmu` containing their origin
                // (that child's subtree was already tried at level-1).
                let mut groups: HashMap<NodeId, Vec<DeficitItem>> = HashMap::new();
                for item in mine {
                    let child = self.child_containing(pmu, self.servers[item.server].node);
                    groups.entry(child).or_default().push(item);
                }
                let mut group_keys: Vec<NodeId> = groups.keys().copied().collect();
                group_keys.sort_unstable();
                for child in group_keys {
                    let items = groups.remove(&child).expect("key exists");
                    let excluded = self.tree.subtree_leaves(child);
                    let leftovers =
                        self.pack_and_execute(&scope, &excluded, items, tick, &mut records);
                    still_pending.extend(leftovers);
                }
            }
            pending = still_pending;
        }
        // Items left after the root instance stay on their servers; their
        // demand above budget is shed in the physics phase.
        records
    }

    /// Deficit items: for every active server over budget, pick the largest
    /// apps until the remainder fits under `TP − margin` (cost-adjusted).
    fn collect_deficit_items(&self) -> Vec<DeficitItem> {
        let mut items = Vec::new();
        let overhead = self.config.cost_model.node_overhead;
        for (si, server) in self.servers.iter().enumerate() {
            if !server.active {
                continue;
            }
            let leaf = server.node.index();
            // Deficit detection is local: the server compares its own
            // fresh demand view against its budget, regardless of what the
            // hierarchy believes.
            let cp = self.local_cp[leaf];
            let tp = self.power.tp[leaf];
            let excess = (cp - tp + self.config.margin).non_negative();
            if excess.0 <= 1e-9 {
                continue;
            }
            // Shedding `shed` relieves `shed·(1 − overhead)` net of the
            // temporary cost charged back to the source.
            let target_shed = if overhead < 1.0 {
                excess.0 / (1.0 - overhead)
            } else {
                excess.0
            };
            // Settled apps first (Property 4: a demand that migrated stays
            // put for ≥ Δ_f whenever possible), then largest-first to
            // minimize the number of migrations.
            let mut order: Vec<usize> = (0..server.apps.len()).collect();
            let tick = self.tick;
            order.sort_by(|&a, &b| {
                let recent = |i: usize| {
                    self.last_move
                        .get(&server.apps[i].id)
                        .is_some_and(|&(_, t)| tick.saturating_sub(t) < self.config.pingpong_window)
                };
                recent(a)
                    .cmp(&recent(b)) // settled (false) before recent (true)
                    .then(server.app_demand[b].0.total_cmp(&server.app_demand[a].0))
                    .then(a.cmp(&b))
            });
            let mut shed = 0.0;
            for idx in order {
                if shed >= target_shed {
                    break;
                }
                let demand = server.app_demand[idx];
                if demand.0 <= 0.0 {
                    continue;
                }
                shed += demand.0;
                items.push(DeficitItem {
                    server: si,
                    app: server.apps[idx].id,
                    demand,
                    reason: MigrationReason::Demand,
                });
            }
        }
        items
    }

    /// The child of `pmu` whose subtree contains `leaf`.
    fn child_containing(&self, pmu: NodeId, leaf: NodeId) -> NodeId {
        if pmu == leaf {
            return leaf;
        }
        let mut n = leaf;
        loop {
            match self.tree.parent(n) {
                Some(p) if p == pmu => return n,
                Some(p) => n = p,
                None => unreachable!("leaf must lie under pmu"),
            }
        }
    }

    /// Pack `items` into eligible surpluses among `scope` leaves minus
    /// `excluded` leaves; execute the migrations that fit; return leftovers.
    fn pack_and_execute(
        &mut self,
        scope: &[NodeId],
        excluded: &[NodeId],
        items: Vec<DeficitItem>,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) -> Vec<DeficitItem> {
        // Apps in retry backoff after a failed migration sit this round
        // out entirely (they go straight to the leftovers).
        let (items, mut leftovers): (Vec<DeficitItem>, Vec<DeficitItem>) = items
            .into_iter()
            .partition(|item| !self.in_backoff(item.app, tick));
        let bins_nodes: Vec<NodeId> = scope
            .iter()
            .copied()
            .filter(|leaf| excluded.binary_search(leaf).is_err())
            .filter(|&leaf| self.target_eligible(leaf))
            .collect();
        if bins_nodes.is_empty() {
            leftovers.extend(items);
            return leftovers;
        }
        let bin_caps: Vec<f64> = bins_nodes.iter().map(|&l| self.bin_capacity(l).0).collect();
        let sizes: Vec<f64> = items
            .iter()
            .map(|it| self.effective_size(it.demand))
            .collect();
        self.stats.packing_instances += 1;
        self.stats.items_offered += sizes.len() as u64;
        self.stats.bins_offered += bin_caps.len() as u64;
        let packing = self.packer().pack(&sizes, &bin_caps);

        for (i, item) in items.into_iter().enumerate() {
            match packing.assignment[i] {
                Some(b) => {
                    let target_leaf = bins_nodes[b];
                    // Property 4 / ping-pong avoidance: never bounce an app
                    // straight back to the host it recently left — defer it
                    // to the next level (other bins) or shed it instead.
                    if self.would_pingpong(item.app, target_leaf, tick)
                        || !self.attempt_migration(&item, target_leaf, tick, records)
                    {
                        leftovers.push(item);
                    }
                }
                None => leftovers.push(item),
            }
        }
        leftovers
    }

    /// True if placing `app` on `target` now would return it to the host it
    /// left within the ping-pong window `Δ_f`.
    fn would_pingpong(&self, app: AppId, target: NodeId, tick: u64) -> bool {
        self.last_move.get(&app).is_some_and(|&(prev_from, t)| {
            target == prev_from && tick.saturating_sub(t) < self.config.pingpong_window
        })
    }

    /// Is `app` still waiting out its retry backoff at `tick`?
    fn in_backoff(&self, app: AppId, tick: u64) -> bool {
        self.backoff.get(&app).is_some_and(|b| tick < b.retry_at)
    }

    /// Record a failed migration attempt for `app` and schedule its next
    /// eligible attempt with exponential backoff.
    fn register_failure(&mut self, app: AppId, tick: u64) {
        let rb = self.config.robustness;
        let entry = self.backoff.entry(app).or_insert(Backoff {
            failures: 0,
            retry_at: 0,
        });
        entry.failures += 1;
        let exp = (entry.failures - 1).min(rb.retry_cap);
        let delay = rb.retry_base.saturating_mul(1u64 << exp);
        entry.retry_at = tick.saturating_add(delay);
    }

    /// Try to migrate `item` to `target_leaf`, consuming the next
    /// pre-rolled outcome. On `Success` the move happens (and a cleared
    /// backoff counts as a successful retry); on `Reject` nothing is
    /// charged; on `Abort` the copy work already happened — both end nodes
    /// pay the temporary cost and the fabric carried the traffic — but the
    /// app stays at the source with its accounting restored. Both failure
    /// modes enter the app into retry backoff. Returns whether the app
    /// moved.
    fn attempt_migration(
        &mut self,
        item: &DeficitItem,
        target_leaf: NodeId,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) -> bool {
        let attempt = self.mig_attempts;
        self.mig_attempts += 1;
        match self.disturb.migration_outcome(attempt) {
            MigrationOutcome::Success => {
                if self.backoff.remove(&item.app).is_some() {
                    self.counters.migration_retries += 1;
                }
                self.execute_migration(item.clone(), target_leaf, tick, records);
                true
            }
            MigrationOutcome::Reject => {
                self.counters.migration_rejects += 1;
                self.register_failure(item.app, tick);
                false
            }
            MigrationOutcome::Abort => {
                self.counters.migration_aborts += 1;
                let src_leaf = self.servers[item.server].node;
                let tgt_idx = self.leaf_server[target_leaf.index()].expect("target is a server");
                let local = self.tree.are_siblings(src_leaf, target_leaf);
                let cost = self.config.cost_model.end_node_cost(item.demand, local);
                self.servers[item.server].pending_cost += cost;
                self.servers[tgt_idx].pending_cost += cost;
                self.power.cp[src_leaf.index()] += cost;
                self.power.cp[target_leaf.index()] += cost;
                self.local_cp[src_leaf.index()] += cost;
                self.local_cp[target_leaf.index()] += cost;
                let units = self.config.cost_model.traffic_units(item.demand);
                self.fabric
                    .record_migration(&self.tree, src_leaf, target_leaf, units);
                self.register_failure(item.app, tick);
                false
            }
        }
    }

    /// Physically move an app, charge costs, record traffic and stats.
    fn execute_migration(
        &mut self,
        item: DeficitItem,
        target_leaf: NodeId,
        tick: u64,
        records: &mut Vec<MigrationRecord>,
    ) {
        let src_idx = item.server;
        let tgt_idx = self.leaf_server[target_leaf.index()].expect("target is a server leaf");
        debug_assert_ne!(src_idx, tgt_idx, "cannot migrate to self");
        let src_leaf = self.servers[src_idx].node;

        let app_pos = self.servers[src_idx]
            .find_app(item.app)
            .expect("item's app still hosted at source");
        let (app, demand) = self.servers[src_idx].take_app(app_pos);
        self.servers[tgt_idx].host_app(app, demand);

        // Temporary cost demand on both ends (§IV-E), charged next period;
        // non-local moves additionally pay the IP-reconfiguration charge.
        let local = self.tree.are_siblings(src_leaf, target_leaf);
        let cost = self.config.cost_model.end_node_cost(demand, local);
        self.servers[src_idx].pending_cost += cost;
        self.servers[tgt_idx].pending_cost += cost;

        // Keep leaf CPs current so later packing sees updated surpluses.
        self.power.cp[src_leaf.index()] =
            (self.power.cp[src_leaf.index()] - demand).non_negative() + cost;
        self.power.cp[target_leaf.index()] += demand + cost;
        self.local_cp[src_leaf.index()] =
            (self.local_cp[src_leaf.index()] - demand).non_negative() + cost;
        self.local_cp[target_leaf.index()] += demand + cost;

        // Fabric accounting.
        let units = self.config.cost_model.traffic_units(demand);
        self.fabric
            .record_migration(&self.tree, src_leaf, target_leaf, units);

        let hops = self.tree.path_len(src_leaf, target_leaf) - 1; // switches on path
                                                                  // Ping-pong: the app returns to the host it last left, within Δ_f.
        let pingpong = self
            .last_move
            .get(&item.app)
            .is_some_and(|&(prev_from, t)| {
                target_leaf == prev_from && tick.saturating_sub(t) < self.config.pingpong_window
            });
        self.last_move.insert(item.app, (src_leaf, tick));

        self.stats.migrations += 1;
        records.push(MigrationRecord {
            tick,
            app: item.app,
            from: src_leaf,
            to: target_leaf,
            moved: demand,
            reason: item.reason,
            local,
            hops,
            pingpong,
        });
    }

    /// Consolidation (§IV-E end, §V-C5): below-threshold servers try to
    /// empty themselves — local targets first — and sleep if they succeed.
    fn consolidate(&mut self, tick: u64) -> (Vec<MigrationRecord>, Vec<NodeId>) {
        let mut records = Vec::new();
        let mut slept = Vec::new();
        // Candidates ordered thermally constrained (lowest hard cap, i.e.
        // hot zones) first, then emptiest first: the paper's Fig. 7 notes
        // that ReferenceWillow "tries to move as much work away from these [hot]
        // servers as possible … hence they remain shut down for more time".
        let mut candidates: Vec<usize> = (0..self.servers.len())
            .filter(|&i| {
                self.servers[i].active
                    && self.servers[i].utilization() < self.config.consolidation_threshold
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let cap = |i: usize| self.power.cap[self.servers[i].node.index()].0;
            cap(a)
                .total_cmp(&cap(b))
                .then(
                    self.servers[a]
                        .utilization()
                        .total_cmp(&self.servers[b].utilization()),
                )
                .then(a.cmp(&b))
        });

        // Servers that receive consolidated load this round must not be
        // evacuated in the same round — that would cascade apps through
        // multiple hops in a single period.
        let mut received: Vec<bool> = vec![false; self.servers.len()];
        for si in candidates {
            // Re-check: a candidate may have received load meanwhile.
            if received[si]
                || !self.servers[si].active
                || self.servers[si].utilization() >= self.config.consolidation_threshold
            {
                continue;
            }
            let leaf = self.servers[si].node;
            if self.servers[si].apps.is_empty() {
                self.sleep_server(si, tick);
                slept.push(leaf);
                continue;
            }
            if let Some(migs) = self.plan_full_evacuation(si, tick) {
                // A failed attempt mid-plan (injected reject/abort) stops
                // the evacuation: the server keeps its remaining apps and
                // stays awake — never sleep a server that still hosts work.
                let mut evacuated = true;
                for (item, target) in migs {
                    let tgt_idx =
                        self.leaf_server[target.index()].expect("target is a server leaf");
                    if self.attempt_migration(&item, target, tick, &mut records) {
                        received[tgt_idx] = true;
                    } else {
                        evacuated = false;
                        break;
                    }
                }
                if evacuated {
                    debug_assert!(self.servers[si].apps.is_empty());
                    self.sleep_server(si, tick);
                    slept.push(leaf);
                }
            }
        }
        // Consolidation migrations are re-labeled with their reason.
        for r in &mut records {
            r.reason = MigrationReason::Consolidation;
        }
        (records, slept)
    }

    /// Try to place *all* apps of server `si` elsewhere (local bins first,
    /// then anywhere eligible). Returns the migration plan or `None` if the
    /// server cannot be fully evacuated.
    fn plan_full_evacuation(
        &mut self,
        si: usize,
        _tick: u64,
    ) -> Option<Vec<(DeficitItem, NodeId)>> {
        let leaf = self.servers[si].node;
        // All-or-nothing: an app still in retry backoff blocks evacuation.
        if self.servers[si]
            .apps
            .iter()
            .any(|a| self.in_backoff(a.id, self.tick))
        {
            return None;
        }
        let items: Vec<DeficitItem> = self.servers[si]
            .apps
            .iter()
            .enumerate()
            .map(|(i, app)| DeficitItem {
                server: si,
                app: app.id,
                demand: self.servers[si].app_demand[i],
                reason: MigrationReason::Consolidation,
            })
            .collect();
        let sizes: Vec<f64> = items
            .iter()
            .map(|it| self.effective_size(it.demand))
            .collect();

        // Eligible bins: siblings first, then the rest of the data center.
        // Within each class: coolest zone (largest hard cap) first so
        // consolidated load lands where thermal headroom is, then
        // most-utilized first so consolidation fills the fullest servers
        // (the FFDLR "run every server at full utilization" rationale)
        // instead of cascading load through near-idle ones.
        let by_fill_desc = |nodes: &mut Vec<NodeId>| {
            nodes.sort_by(|&a, &b| {
                let cap = |n: NodeId| self.power.cap[n.index()].0;
                let util = |n: NodeId| {
                    self.leaf_server[n.index()].map_or(0.0, |i| self.servers[i].utilization())
                };
                cap(b)
                    .total_cmp(&cap(a))
                    .then(util(b).total_cmp(&util(a)))
                    .then(a.cmp(&b))
            });
        };
        let mut siblings: Vec<NodeId> = self
            .tree
            .siblings(leaf)
            .filter(|&l| self.target_eligible(l))
            .collect();
        by_fill_desc(&mut siblings);
        let mut rest: Vec<NodeId> = self
            .tree
            .leaves()
            .filter(|&l| l != leaf && self.target_eligible(l))
            .filter(|l| !siblings.contains(l))
            .collect();
        by_fill_desc(&mut rest);
        let mut bins_nodes = siblings;
        bins_nodes.extend(rest);
        if bins_nodes.is_empty() {
            return None;
        }
        // First-fit over the ordered bins keeps the locality preference;
        // a full FFDLR over the union would not honor sibling priority.
        let caps: Vec<f64> = bins_nodes.iter().map(|&l| self.bin_capacity(l).0).collect();
        let mut free = caps;
        let mut plan = Vec::with_capacity(items.len());
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b)));
        let tick = self.tick;
        for i in order {
            let placed = free.iter().enumerate().position(|(b, &f)| {
                sizes[i] <= f + 1e-12 && !self.would_pingpong(items[i].app, bins_nodes[b], tick)
            });
            match placed {
                Some(b) => {
                    free[b] -= sizes[i];
                    plan.push((items[i].clone(), bins_nodes[b]));
                }
                None => return None, // all-or-nothing evacuation
            }
        }
        Some(plan)
    }

    fn sleep_server(&mut self, si: usize, tick: u64) {
        let server = &mut self.servers[si];
        server.active = false;
        server.last_activity_change = tick;
        server.smoother.reset();
        self.power.cp[server.node.index()] = Watts::ZERO;
        self.local_cp[server.node.index()] = Watts::ZERO;
    }

    /// Wake sleeping servers (largest thermal headroom first) until their
    /// combined ratings cover `needed`. Returns the woken leaves.
    fn wake_servers(&mut self, needed: Watts, tick: u64) -> Vec<NodeId> {
        let mut sleeping: Vec<usize> = (0..self.servers.len())
            .filter(|&i| !self.servers[i].active)
            .collect();
        sleeping.sort_by(|&a, &b| {
            self.servers[b]
                .thermal
                .rating()
                .0
                .total_cmp(&self.servers[a].thermal.rating().0)
                .then(a.cmp(&b))
        });
        let mut woken = Vec::new();
        let mut covered = Watts::ZERO;
        for si in sleeping {
            if covered >= needed {
                break;
            }
            let server = &mut self.servers[si];
            server.active = true;
            server.last_activity_change = tick;
            covered += server.thermal.rating();
            woken.push(server.node);
        }
        woken
    }
}
