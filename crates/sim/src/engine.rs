//! The fixed-step simulation loop.
//!
//! Each tick: sample per-application Poisson demands at the configured
//! utilization, feed them plus the period's supply into the Willow
//! controller, snapshot the fabric, and stream `(TickReport,
//! FabricSnapshot)` pairs into the aggregate metrics.

use crate::commands::{ScheduledCommand, SimCommand};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::FaultInjector;
use crate::metrics::{FabricSnapshot, MetricsAccumulator, RunMetrics};
use crate::pipeline::DemandPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use willow_core::audit::Auditor;
use willow_core::command::{Command, CommandError, CommandStatus};
use willow_core::control::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_core::snapshot::WillowSnapshot;
use willow_core::Disturbances;
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};
use willow_workload::demand::DemandStream;
use willow_workload::mix::{place_random_mix, MixConfig};

/// A runnable simulation instance.
pub struct Simulation {
    config: SimConfig,
    willow: Willow,
    /// Draws every tick's per-application demands.
    demand: Demand,
    level1: Vec<NodeId>,
    tick: usize,
    /// This tick's sampled per-application demands, refilled in place.
    demands: Vec<Watts>,
    /// Rolls the configured fault plan, if any. Uses its own RNG, so a
    /// quiet plan leaves the workload stream — and thus the whole
    /// trajectory — untouched.
    injector: Option<FaultInjector>,
    /// Registry handle for span start tokens (disabled until
    /// [`Simulation::attach_telemetry`]).
    registry: willow_telemetry::TelemetryRegistry,
    /// Engine-level tick-duration histogram.
    tick_hist: willow_telemetry::Histogram,
    /// Last periodic controller checkpoint. Only maintained when the fault
    /// plan schedules controller crashes — a run without them pays nothing.
    checkpoint: Option<WillowSnapshot>,
    /// Whether the previous tick ran with the controller down.
    was_down: bool,
    /// Ticks spent with the controller down (leaves open-loop).
    open_loop_ticks: usize,
    /// Controller restarts performed (checkpoint restore + reconcile).
    controller_recoveries: usize,
    /// Always-on invariant auditor, run after every tick (read-only, so it
    /// never perturbs the trajectory).
    auditor: Auditor,
    /// Invariant violations found across the run so far.
    invariant_violations: usize,
    /// Live-ops command timeline, tick-sorted (from the config).
    timeline: Vec<ScheduledCommand>,
    /// Next timeline entry to submit.
    timeline_cursor: usize,
    /// Controller-level commands due now — or held through an outage and
    /// submitted, in order, on the first tick after recovery, so an
    /// outage delays but never drops an operator's request.
    held_commands: Vec<SimCommand>,
    /// Engine-level supply multiplier set by `SupplyOverride` commands.
    supply_override: f64,
    /// A `Checkpoint` command is waiting for the next up tick.
    force_checkpoint: bool,
    /// Live-ops commands the controller committed.
    commands_applied: usize,
    /// Live-ops commands rejected (typed errors + unresolvable parents).
    commands_rejected: usize,
    /// Summed still-stranded app counts across pending-drain ticks.
    drain_stranded_app_ticks: usize,
    /// Command rejections caused by topology errors (including parent
    /// names that resolve to no live node).
    topology_rejections: usize,
    /// Supply for the next tick, set by a federation driver
    /// ([`Simulation::step_with_supply`]): the broker's grant replaces
    /// the trace/override-derived supply verbatim. Cleared every tick.
    external_supply: Option<Watts>,
}

/// How the engine draws each tick's demand. Both ways run the one
/// [`DemandStream`], so they give the same demands bit for bit.
enum Demand {
    /// On the stepping thread, at the start of each tick.
    Inline(DemandStream),
    /// One tick ahead, on a worker thread.
    Pipelined(DemandPipeline),
}

/// Fewest apps for which the engine draws demand one tick ahead on a
/// worker thread. Drawing costs 64–90 ns per app and a handoff 20–110 µs
/// (2-CPU x86-64 host), so from here up the draws the worker takes over
/// cost several handoffs.
const PIPELINE_MIN_APPS: usize = 4096;

impl Demand {
    /// Pipelined when the stream is long enough to pay for the handoff and
    /// the host has a second CPU to run the worker on.
    fn new(stream: DemandStream) -> Demand {
        let pays = || {
            stream.len() >= PIPELINE_MIN_APPS
                && std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
        };
        #[cfg(test)]
        let pipelined = tests::FORCE_PIPELINE.get().unwrap_or_else(pays);
        #[cfg(not(test))]
        let pipelined = pays();
        if pipelined {
            Demand::Pipelined(DemandPipeline::spawn(stream))
        } else {
            Demand::Inline(stream)
        }
    }

    fn next_into(&mut self, out: &mut Vec<Watts>) {
        match self {
            Demand::Inline(stream) => stream.next_into(out),
            Demand::Pipelined(pipeline) => pipeline.next_into(out),
        }
    }
}

impl Simulation {
    /// Build a simulation from a validated config.
    ///
    /// # Errors
    /// Returns a typed [`SimError`] if the config is inconsistent or the
    /// controller cannot be built from it.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let tree = Tree::uniform(&config.branching);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Place the random application mix (§V-B1).
        let mix = MixConfig {
            apps_per_server: config.apps_per_server,
            classes: willow_workload::app::SIM_APP_CLASSES.to_vec(),
        };
        let placement = place_random_mix(&mut rng, &mix, config.n_servers());

        // Server specs with thermal zones applied.
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .zip(placement)
            .enumerate()
            .map(|(i, (leaf, apps))| {
                let mut spec = ServerSpec::simulation_default(leaf).with_apps(apps);
                for zone in &config.zones {
                    if i >= zone.start && i < zone.end {
                        spec.ambient = zone.ambient;
                    }
                }
                spec
            })
            .collect();

        let level1 = tree.nodes_at_level(1).to_vec();
        let willow = Willow::new(tree, specs, config.controller.clone())?;
        let n_apps = willow.apps().len();
        let stream = DemandStream::new(
            willow.apps().applications().clone(),
            rng,
            config.utilization,
            config.utilization_trace.clone().unwrap_or_default(),
            config.demand_drift,
        );
        let injector = match &config.faults {
            Some(plan) => Some(FaultInjector::new(plan.clone(), config.n_servers())?),
            None => None,
        };
        let auditor = Auditor::new(&willow).panic_on_violation(config.audit_panic);
        // Stable sort: commands scheduled for the same tick are submitted
        // in config order.
        let mut timeline = config.commands.clone();
        timeline.sort_by_key(|sc| sc.tick);
        Ok(Simulation {
            config,
            willow,
            demand: Demand::new(stream),
            level1,
            tick: 0,
            demands: Vec::with_capacity(n_apps),
            injector,
            registry: willow_telemetry::TelemetryRegistry::disabled(),
            tick_hist: willow_telemetry::Histogram::default(),
            checkpoint: None,
            was_down: false,
            open_loop_ticks: 0,
            controller_recoveries: 0,
            auditor,
            invariant_violations: 0,
            timeline,
            timeline_cursor: 0,
            held_commands: Vec::new(),
            supply_override: 1.0,
            force_checkpoint: false,
            commands_applied: 0,
            commands_rejected: 0,
            drain_stranded_app_ticks: 0,
            topology_rejections: 0,
            external_supply: None,
        })
    }

    /// Translate one timeline command into a controller command and
    /// submit it. `AddServer` parent names are resolved against the live
    /// tree here; an unresolvable name is a typed topology rejection that
    /// never reaches the controller. Engine-level commands (supply
    /// override, checkpoint) are handled at timeline-drain time and never
    /// reach this path.
    fn submit_command(&mut self, cmd: SimCommand) {
        let core = match cmd {
            SimCommand::Drain { server } => Command::Drain { server },
            SimCommand::RemoveServer { server } => Command::RemoveServer { server },
            SimCommand::SwapPacker { packer } => Command::SwapPacker { packer },
            SimCommand::Pause => Command::Pause,
            SimCommand::Resume => Command::Resume,
            SimCommand::AddServer { parent, name } => match self.willow.tree().find(&parent) {
                Some(node) => Command::AddServer { parent: node, name },
                None => {
                    self.commands_rejected += 1;
                    self.topology_rejections += 1;
                    return;
                }
            },
            SimCommand::SupplyOverride { .. } | SimCommand::Checkpoint => return,
        };
        self.willow.submit_command(core);
    }

    /// Register engine- and controller-level metrics on `registry` and
    /// start recording: a whole-tick duration histogram here, plus
    /// everything [`Willow::attach_telemetry`] wires up.
    pub fn attach_telemetry(&mut self, registry: &willow_telemetry::TelemetryRegistry) {
        self.registry = registry.clone();
        self.tick_hist = registry.duration_histogram(
            "willow_sim_tick_seconds",
            "Wall time of one full simulation tick (sampling + control + physics)",
        );
        self.willow.attach_telemetry(registry);
        self.auditor.attach_telemetry(registry);
    }

    /// The configuration this simulation runs.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Access the controller (e.g. for custom probes in tests).
    #[must_use]
    pub fn willow(&self) -> &Willow {
        &self.willow
    }

    /// The level-1 switch nodes, in arena order.
    #[must_use]
    pub fn level1_switches(&self) -> &[NodeId] {
        &self.level1
    }

    /// Advance one demand period; returns the controller report and the
    /// period's fabric snapshot.
    pub fn step(&mut self) -> (TickReport, FabricSnapshot) {
        let mut report = TickReport::default();
        let fabric = self.step_into(&mut report);
        (report, fabric)
    }

    /// [`Simulation::step`] writing the controller report into a
    /// caller-provided buffer, so driving loops can reuse one allocation
    /// across ticks (see [`Willow::step_into`]).
    pub fn step_into(&mut self, report: &mut TickReport) -> FabricSnapshot {
        let mut fabric = FabricSnapshot::default();
        self.step_into_buffers(report, &mut fabric);
        fabric
    }

    /// [`Simulation::step_into`] also reusing a caller-provided fabric
    /// snapshot buffer, so a full run needs no per-tick snapshot
    /// allocation either.
    pub fn step_into_buffers(&mut self, report: &mut TickReport, fabric: &mut FabricSnapshot) {
        let t0 = self.registry.now();
        // Every app in id order, wherever it runs: the stream shares the
        // controller's app column, and no command adds or removes an app.
        self.demand.next_into(&mut self.demands);
        // A federation driver's grant (if any) replaces the nominal supply
        // verbatim — a healthy single-zone federation grants exactly that
        // value, which is what keeps the one-zone differential bit-for-bit.
        // The live-ops override inside `nominal_supply` multiplies by the
        // default 1.0 bit-exactly, so override-free runs keep their
        // trajectory.
        let supply = self
            .external_supply
            .take()
            .unwrap_or_else(|| self.nominal_supply());
        let disturb = match &mut self.injector {
            Some(inj) => inj.disturbances_for(self.tick as u64),
            None => Disturbances::none(),
        };
        let tick = self.tick as u64;
        let (down, mut checkpoint_due) = match self
            .injector
            .as_ref()
            .and_then(|i| i.plan().controller_crash.as_ref())
        {
            Some(plan) => (plan.down(tick), tick.is_multiple_of(plan.checkpoint_period)),
            None => (false, false),
        };
        // Drain due timeline entries: engine-level commands apply here;
        // controller-level ones stage into `held_commands` for submission
        // below (immediately when up, after recovery when down).
        while self
            .timeline
            .get(self.timeline_cursor)
            .is_some_and(|sc| sc.tick <= tick)
        {
            let sc = self.timeline[self.timeline_cursor].clone();
            self.timeline_cursor += 1;
            match sc.command {
                SimCommand::SupplyOverride { factor } => self.supply_override = factor,
                SimCommand::Checkpoint => self.force_checkpoint = true,
                cmd => self.held_commands.push(cmd),
            }
        }
        if !down && self.force_checkpoint {
            checkpoint_due = true;
            self.force_checkpoint = false;
        }
        if down {
            // Controller dead: the leaves run open-loop on their last
            // applied budgets; watchdogs count the missing directives.
            self.open_loop_ticks += 1;
            self.was_down = true;
            self.willow.step_open_loop(&self.demands, &disturb, report);
        } else {
            if self.was_down {
                // First healthy tick after an outage: restart from the
                // last periodic checkpoint and reconcile against the field
                // (validation guarantees tick 0 checkpointed before any
                // window could open).
                let ckpt = self
                    .checkpoint
                    .clone()
                    .expect("a crash window opened before the first checkpoint");
                self.willow = Willow::recover(ckpt, &self.willow)
                    .expect("checkpoint and field share one topology");
                self.willow.attach_telemetry(&self.registry);
                self.controller_recoveries += 1;
                self.was_down = false;
            }
            // Submit live-ops commands due now (or held through the
            // outage), in issue order. The buffer is taken out and put
            // back, so its capacity is reused across command ticks.
            if !self.held_commands.is_empty() {
                let mut due = std::mem::take(&mut self.held_commands);
                for cmd in due.drain(..) {
                    self.submit_command(cmd);
                }
                self.held_commands = due;
            }
            if checkpoint_due {
                match &mut self.checkpoint {
                    Some(snap) => self.willow.snapshot_into(snap),
                    None => self.checkpoint = Some(self.willow.snapshot()),
                }
            }
            self.willow
                .step_into(&self.demands, supply, &disturb, report);
        }
        self.commands_applied += report.commands_applied;
        self.commands_rejected += report.commands_rejected;
        self.drain_stranded_app_ticks += report.stranded_apps;
        self.topology_rejections += report
            .command_outcomes
            .iter()
            .filter(|o| matches!(o.status, CommandStatus::Rejected(CommandError::Topology(_))))
            .count();
        if report.topology_changed {
            // The arena and server set changed shape: re-sync the auditor
            // before checking.
            self.auditor.resync(&self.willow);
        }
        if report.topology_changed
            || !report.command_outcomes.is_empty()
            || report.stranded_apps > 0
        {
            // Command-plane activity this tick (a terminal outcome, an
            // in-flight drain making progress, or a topology edit):
            // refresh the periodic checkpoint (when one is maintained) so
            // a later recovery neither rolls back an applied operator
            // command nor reconciles against a shape-mismatched snapshot.
            // Command-free runs never take this branch.
            if let Some(snap) = &mut self.checkpoint {
                self.willow.snapshot_into(snap);
            }
        }
        self.invariant_violations += self.auditor.check(&self.willow).len();
        self.snapshot_fabric_into(fabric);
        self.tick += 1;
        self.tick_hist.record_since(t0);
    }

    fn snapshot_fabric_into(&self, out: &mut FabricSnapshot) {
        let f = self.willow.fabric();
        out.l1_migration.clear();
        out.l1_migration
            .extend(self.level1.iter().map(|&n| f.migration_traffic(n)));
        out.l1_query.clear();
        out.l1_query
            .extend(self.level1.iter().map(|&n| f.query_traffic(n)));
    }

    /// [`Simulation::step_into_buffers`] with the period's supply decided
    /// by the caller — the federation driver passes the broker's grant
    /// (or the zone's open-loop protocol value) here, overriding the
    /// zone-local supply trace for this one tick.
    pub fn step_with_supply(
        &mut self,
        supply: Watts,
        report: &mut TickReport,
        fabric: &mut FabricSnapshot,
    ) {
        self.external_supply = Some(supply);
        self.step_into_buffers(report, fabric);
    }

    /// The supply this zone would apply at the current tick from its own
    /// configuration: the supply trace (indexed by supply period) or
    /// ample supply, times any live-ops override. A federation's broker
    /// pools these nominal values across zones before re-splitting by
    /// demand.
    #[must_use]
    pub fn nominal_supply(&self) -> Watts {
        let base = match &self.config.supply {
            Some(trace) => trace.at(self.tick / self.config.controller.eta1 as usize),
            None => self.config.ample_supply(),
        };
        Watts(base.0 * self.supply_override)
    }

    /// Current demand period (0-based; incremented after each step).
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick as u64
    }

    /// The controller's last periodic checkpoint, when one is maintained
    /// (a fault plan with controller crashes scheduled).
    #[must_use]
    pub fn checkpoint(&self) -> Option<&WillowSnapshot> {
        self.checkpoint.as_ref()
    }

    /// Run to completion, aggregating post-warm-up metrics.
    pub fn run(&mut self) -> RunMetrics {
        let n_servers = self.config.n_servers();
        let n_l1 = self.level1.len();
        let warmup = self.config.warmup;
        let ticks = self.config.ticks;
        // One report and one snapshot buffer for the whole run, streamed
        // straight into the accumulator: no per-tick clones or collection.
        let mut acc = MetricsAccumulator::new(n_servers, n_l1);
        let mut report = TickReport::default();
        let mut fabric = FabricSnapshot::default();
        for t in 0..ticks {
            self.step_into_buffers(&mut report, &mut fabric);
            if t >= warmup {
                acc.record(&report, &fabric);
            }
        }
        self.finish_metrics(acc)
    }

    /// Finish `acc` into run metrics that carry this engine's counters.
    pub(crate) fn finish_metrics(&self, acc: MetricsAccumulator) -> RunMetrics {
        let mut m = acc.finish();
        m.open_loop_ticks = self.open_loop_ticks;
        m.controller_recoveries = self.controller_recoveries;
        m.invariant_violations = self.invariant_violations;
        m.commands_applied = self.commands_applied;
        m.commands_rejected = self.commands_rejected;
        m.drain_stranded_app_ticks = self.drain_stranded_app_ticks;
        m.topology_rejections = self.topology_rejections;
        m
    }

    /// Ticks spent so far with the central controller down.
    #[must_use]
    pub fn open_loop_ticks(&self) -> usize {
        self.open_loop_ticks
    }

    /// Controller restarts (checkpoint restore + reconcile) so far.
    #[must_use]
    pub fn controller_recoveries(&self) -> usize {
        self.controller_recoveries
    }

    /// Invariant violations found by the always-on auditor so far.
    #[must_use]
    pub fn invariant_violations(&self) -> usize {
        self.invariant_violations
    }

    /// Live-ops commands the controller committed so far.
    #[must_use]
    pub fn commands_applied(&self) -> usize {
        self.commands_applied
    }

    /// Live-ops commands rejected so far (typed controller errors plus
    /// parent names that resolved to no live node).
    #[must_use]
    pub fn commands_rejected(&self) -> usize {
        self.commands_rejected
    }

    /// Summed still-stranded app counts across pending-drain ticks so
    /// far: each tick a drain stays pending contributes the number of
    /// apps it could not place that tick.
    #[must_use]
    pub fn drain_stranded_app_ticks(&self) -> usize {
        self.drain_stranded_app_ticks
    }

    /// Command rejections caused by topology errors so far.
    #[must_use]
    pub fn topology_rejections(&self) -> usize {
        self.topology_rejections
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Overrides the demand mode of every `Simulation` built on this
        /// thread: `Some(true)` pipelined, `Some(false)` inline.
        pub(crate) static FORCE_PIPELINE: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// `build()` with every `Simulation` it makes in the given demand mode.
    pub(crate) fn in_demand_mode<T>(pipelined: bool, build: impl FnOnce() -> T) -> T {
        FORCE_PIPELINE.set(Some(pipelined));
        let built = build();
        FORCE_PIPELINE.set(None);
        built
    }

    /// Whether `sim` draws its demand on a worker thread.
    pub(crate) fn is_pipelined(sim: &Simulation) -> bool {
        matches!(sim.demand, Demand::Pipelined(_))
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut cfg = SimConfig::paper_default(seed, 0.4);
            cfg.ticks = 60;
            cfg.warmup = 10;
            Simulation::new(cfg).unwrap().run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed ⇒ identical metrics");
        assert_ne!(run(42).avg_server_power, run(43).avg_server_power);
    }

    #[test]
    fn thermal_safety_invariant_holds() {
        let mut cfg = SimConfig::paper_hot_cold(7, 0.8);
        cfg.ticks = 120;
        cfg.warmup = 0;
        let m = Simulation::new(cfg).unwrap().run();
        for (i, peak) in m.peak_server_temp.iter().enumerate() {
            assert!(*peak <= 70.0 + 1e-6, "server {i} peaked at {peak} °C");
        }
    }

    #[test]
    fn no_pingpong_in_paper_runs() {
        for u in [0.2, 0.5, 0.8] {
            let mut cfg = SimConfig::paper_hot_cold(11, u);
            cfg.ticks = 120;
            cfg.warmup = 0;
            let m = Simulation::new(cfg).unwrap().run();
            assert_eq!(m.pingpongs, 0, "u={u}");
        }
    }

    #[test]
    fn hot_zone_draws_less_power_at_high_utilization() {
        let mut cfg = SimConfig::paper_hot_cold(3, 0.8);
        cfg.ticks = 200;
        cfg.warmup = 50;
        let m = Simulation::new(cfg).unwrap().run();
        let cold = m.mean_power(0..14);
        let hot = m.mean_power(14..18);
        assert!(
            hot < cold,
            "hot zone ({hot:.1} W) must average below cold zone ({cold:.1} W)"
        );
    }

    #[test]
    fn low_utilization_consolidates() {
        let mut cfg = SimConfig::paper_default(5, 0.15);
        cfg.ticks = 150;
        // No warm-up: the big consolidation wave happens in the first Δ_A
        // periods and must be captured.
        cfg.warmup = 0;
        let m = Simulation::new(cfg).unwrap().run();
        assert!(
            m.consolidation_migrations > 0,
            "idle servers must consolidate"
        );
        let sleeping: f64 = m.sleep_fraction.iter().sum();
        assert!(sleeping > 1.0, "several servers should spend time asleep");
    }

    #[test]
    fn supply_trace_is_honored() {
        use willow_power::SupplyTrace;
        let mut cfg = SimConfig::paper_default(5, 0.5);
        cfg.ticks = 80;
        cfg.warmup = 20;
        cfg.supply = Some(SupplyTrace::constant(Watts(2000.0), 40));
        let m = Simulation::new(cfg).unwrap().run();
        let total: f64 = m.avg_server_power.iter().sum();
        assert!(
            total <= 2000.0 + 1e-6,
            "total draw {total} must respect the supply cap"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.utilization = 2.0;
        assert_eq!(Simulation::new(cfg).err(), Some(SimError::Utilization(2.0)));
    }

    #[test]
    fn zero_fault_plan_reproduces_fault_free_trajectory() {
        // An injector with all rates zero must reproduce the fault-free
        // run tick for tick — whatever its seed, since it rolls from its
        // own RNG and injects nothing.
        use crate::faults::FaultPlan;
        let mut clean_cfg = SimConfig::paper_hot_cold(17, 0.6);
        clean_cfg.ticks = 90;
        clean_cfg.warmup = 0;
        let mut faulted_cfg = clean_cfg.clone();
        faulted_cfg.faults = Some(FaultPlan::quiet(0xDEAD_BEEF));
        let mut clean = Simulation::new(clean_cfg).unwrap();
        let mut faulted = Simulation::new(faulted_cfg).unwrap();
        for t in 0..90 {
            assert_eq!(clean.step(), faulted.step(), "diverged at tick {t}");
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::faults::FaultPlan;
        let run = || {
            let mut cfg = SimConfig::paper_hot_cold(9, 0.6);
            cfg.ticks = 100;
            cfg.warmup = 20;
            cfg.faults = Some(FaultPlan {
                seed: 4,
                report_loss: 0.2,
                directive_loss: 0.2,
                migration_failure: 0.3,
                abort_fraction: 0.5,
                ..FaultPlan::default()
            });
            Simulation::new(cfg).unwrap().run()
        };
        assert_eq!(run(), run(), "same seed + same plan ⇒ identical metrics");
    }

    #[test]
    fn utilization_trace_is_replayed() {
        // A trace that jumps from near-idle to heavy load must show up in
        // the drawn power.
        let mut cfg = SimConfig::paper_default(3, 0.5);
        cfg.ticks = 80;
        cfg.warmup = 0;
        cfg.demand_drift = 0.0;
        let mut trace = vec![0.05; 40];
        trace.extend(vec![0.8; 40]);
        cfg.utilization_trace = Some(trace);
        let mut sim = Simulation::new(cfg).unwrap();
        let mut early = 0.0;
        let mut late = 0.0;
        for t in 0..80 {
            let (r, _) = sim.step();
            if t < 40 {
                early += r.total_power().0;
            } else {
                late += r.total_power().0;
            }
        }
        assert!(
            late > early * 3.0,
            "heavy phase ({late:.0}) must dwarf idle phase ({early:.0})"
        );
    }

    #[test]
    fn controller_crash_runs_open_loop_then_recovers() {
        use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
        let mut cfg = SimConfig::paper_hot_cold(13, 0.6);
        cfg.ticks = 100;
        cfg.warmup = 0;
        cfg.faults = Some(FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 20,
                windows: vec![ControllerOutage {
                    from: 35,
                    until: 50,
                }],
            }),
            ..FaultPlan::default()
        });
        let mut sim = Simulation::new(cfg).unwrap();
        let n_apps = sim.willow().apps().placed();
        let mut report = TickReport::default();
        let mut fabric = FabricSnapshot::default();
        for t in 0..100u64 {
            sim.step_into_buffers(&mut report, &mut fabric);
            if (35..50).contains(&t) {
                assert_eq!(report.control_messages, 0, "tick {t}: controller is down");
                assert!(report.migrations.is_empty(), "tick {t}: no one can migrate");
            } else if t >= 50 {
                assert!(report.control_messages > 0, "tick {t}: controller is back");
            }
        }
        assert_eq!(sim.controller_recoveries(), 1);
        assert_eq!(sim.open_loop_ticks(), 15);
        let after = sim.willow().apps().placed();
        assert_eq!(n_apps, after, "apps conserved across crash and recovery");
    }

    #[test]
    fn crash_plan_without_windows_is_bit_for_bit_neutral() {
        // Checkpointing alone (no outage ever scheduled) must not perturb
        // the trajectory: the snapshot path is read-only.
        use crate::faults::{ControllerCrashPlan, FaultPlan};
        let mut clean_cfg = SimConfig::paper_hot_cold(21, 0.6);
        clean_cfg.ticks = 90;
        clean_cfg.warmup = 0;
        let mut ckpt_cfg = clean_cfg.clone();
        ckpt_cfg.faults = Some(FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 10,
                windows: Vec::new(),
            }),
            ..FaultPlan::default()
        });
        let mut clean = Simulation::new(clean_cfg).unwrap();
        let mut ckpt = Simulation::new(ckpt_cfg).unwrap();
        for t in 0..90 {
            assert_eq!(clean.step(), ckpt.step(), "diverged at tick {t}");
        }
        assert_eq!(ckpt.controller_recoveries(), 0);
    }

    #[test]
    fn crashed_controller_runs_are_deterministic() {
        use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
        let run = || {
            let mut cfg = SimConfig::paper_hot_cold(9, 0.6);
            cfg.ticks = 120;
            cfg.warmup = 0;
            cfg.faults = Some(FaultPlan {
                seed: 5,
                report_loss: 0.1,
                directive_loss: 0.1,
                sensor_faults: vec![crate::faults::SensorFault {
                    server: 2,
                    from: 30,
                    until: 70,
                    stuck_at: None,
                    noise_sigma: 2.0,
                }],
                controller_crash: Some(ControllerCrashPlan {
                    checkpoint_period: 16,
                    windows: vec![
                        ControllerOutage {
                            from: 40,
                            until: 55,
                        },
                        ControllerOutage {
                            from: 80,
                            until: 90,
                        },
                    ],
                }),
                ..FaultPlan::default()
            });
            Simulation::new(cfg).unwrap().run()
        };
        let m = run();
        assert_eq!(m, run(), "same seed + same crash plan ⇒ identical metrics");
        assert_eq!(m.controller_recoveries, 2);
        assert_eq!(m.open_loop_ticks, 25);
    }

    #[test]
    fn auditor_stays_clean_under_faults_and_crashes() {
        use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
        let mut cfg = SimConfig::paper_hot_cold(29, 0.7);
        cfg.ticks = 150;
        cfg.warmup = 0;
        // Panic mode on: any violation aborts the test with the full list.
        cfg.audit_panic = true;
        cfg.faults = Some(FaultPlan {
            seed: 11,
            report_loss: 0.15,
            directive_loss: 0.15,
            migration_failure: 0.3,
            abort_fraction: 0.5,
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 16,
                windows: vec![ControllerOutage {
                    from: 60,
                    until: 85,
                }],
            }),
            ..FaultPlan::default()
        });
        let mut sim = Simulation::new(cfg).unwrap();
        let m = sim.run();
        assert_eq!(m.invariant_violations, 0);
        assert_eq!(sim.invariant_violations(), 0);
        assert!(m.fault_summary().contains("invariant violations 0"));
    }

    #[test]
    fn command_timeline_drains_swaps_grows_and_retires() {
        use willow_core::config::PackerChoice;
        use willow_core::server::FenceState;
        let mut cfg = SimConfig::paper_hot_cold(19, 0.4);
        cfg.ticks = 120;
        cfg.warmup = 0;
        cfg.audit_panic = true;
        cfg.commands = vec![
            ScheduledCommand {
                tick: 10,
                command: SimCommand::Drain { server: 2 },
            },
            ScheduledCommand {
                tick: 20,
                command: SimCommand::SwapPacker {
                    packer: PackerChoice::BestFitDecreasing,
                },
            },
            ScheduledCommand {
                tick: 30,
                command: SimCommand::AddServer {
                    parent: "l1-1".into(),
                    name: "server19".into(),
                },
            },
            ScheduledCommand {
                tick: 40,
                command: SimCommand::RemoveServer { server: 2 },
            },
            ScheduledCommand {
                tick: 50,
                command: SimCommand::Checkpoint,
            },
            ScheduledCommand {
                tick: 60,
                command: SimCommand::Pause,
            },
            ScheduledCommand {
                tick: 70,
                command: SimCommand::Resume,
            },
        ];
        let mut sim = Simulation::new(cfg).unwrap();
        let before = sim.willow().apps().placed();
        let m = sim.run();
        assert_eq!(m.invariant_violations, 0);
        assert_eq!(m.commands_rejected, 0);
        assert_eq!(
            m.commands_applied, 6,
            "drain, swap, add, remove, pause, resume (checkpoint is engine-level)"
        );
        assert_eq!(m.topology_rejections, 0);
        let w = sim.willow();
        assert_eq!(w.servers()[2].fence, FenceState::Retired);
        assert_eq!(w.power().tp[w.servers()[2].node.index()], Watts::ZERO);
        assert!(w.tree().find("server19").is_some(), "added leaf is live");
        assert_eq!(w.servers().len(), 19);
        let after = w.apps().placed();
        assert_eq!(
            before, after,
            "drain + retire relocate apps, never lose them"
        );
    }

    #[test]
    fn never_due_timeline_is_bit_for_bit_neutral() {
        // A timeline whose commands never come due must not perturb the
        // trajectory: the idle command queue is a single branch per tick.
        let mut clean_cfg = SimConfig::paper_hot_cold(23, 0.6);
        clean_cfg.ticks = 90;
        clean_cfg.warmup = 0;
        let mut cmd_cfg = clean_cfg.clone();
        cmd_cfg.commands = vec![ScheduledCommand {
            tick: 10_000,
            command: SimCommand::Drain { server: 0 },
        }];
        let mut clean = Simulation::new(clean_cfg).unwrap();
        let mut with = Simulation::new(cmd_cfg).unwrap();
        for t in 0..90 {
            assert_eq!(clean.step(), with.step(), "diverged at tick {t}");
        }
        assert_eq!(with.commands_applied(), 0);
        assert_eq!(with.commands_rejected(), 0);
    }

    #[test]
    fn commands_held_through_outage_apply_after_recovery() {
        use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
        use willow_core::server::FenceState;
        let mut cfg = SimConfig::paper_hot_cold(31, 0.5);
        cfg.ticks = 100;
        cfg.warmup = 0;
        cfg.audit_panic = true;
        cfg.faults = Some(FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 20,
                windows: vec![ControllerOutage {
                    from: 35,
                    until: 50,
                }],
            }),
            ..FaultPlan::default()
        });
        // Issued mid-outage: the engine must hold it and submit it on the
        // first healthy tick instead of dropping it.
        cfg.commands = vec![ScheduledCommand {
            tick: 40,
            command: SimCommand::Drain { server: 5 },
        }];
        let mut sim = Simulation::new(cfg).unwrap();
        let before = sim.willow().apps().placed();
        let mut report = TickReport::default();
        let mut fabric = FabricSnapshot::default();
        for t in 0..100u64 {
            sim.step_into_buffers(&mut report, &mut fabric);
            if (35..50).contains(&t) {
                assert_eq!(
                    sim.willow().servers()[5].fence,
                    FenceState::Active,
                    "tick {t}: the drain must wait out the outage"
                );
            }
        }
        assert_eq!(sim.willow().servers()[5].fence, FenceState::Fenced);
        assert_eq!(sim.commands_applied(), 1);
        assert_eq!(sim.controller_recoveries(), 1);
        let after = sim.willow().apps().placed();
        assert_eq!(before, after, "apps conserved across outage + drain");
    }

    #[test]
    fn applied_commands_survive_a_later_crash() {
        use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
        use willow_core::server::FenceState;
        // Fence a server well after the last periodic checkpoint, then
        // crash: recovery must not roll the fence back, because the engine
        // refreshes its checkpoint on every command-activity tick.
        let mut cfg = SimConfig::paper_hot_cold(37, 0.5);
        cfg.ticks = 120;
        cfg.warmup = 0;
        cfg.audit_panic = true;
        cfg.faults = Some(FaultPlan {
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 1000, // only the mandatory tick-0 checkpoint
                windows: vec![ControllerOutage {
                    from: 60,
                    until: 75,
                }],
            }),
            ..FaultPlan::default()
        });
        cfg.commands = vec![ScheduledCommand {
            tick: 20,
            command: SimCommand::Drain { server: 4 },
        }];
        let mut sim = Simulation::new(cfg).unwrap();
        let m = sim.run();
        assert_eq!(m.invariant_violations, 0);
        assert_eq!(m.controller_recoveries, 1);
        assert_eq!(
            sim.willow().servers()[4].fence,
            FenceState::Fenced,
            "the committed drain must survive recovery"
        );
    }

    #[test]
    fn command_timeline_runs_are_deterministic() {
        use crate::faults::FaultPlan;
        use willow_core::config::PackerChoice;
        let run = || {
            let mut cfg = SimConfig::paper_hot_cold(41, 0.5);
            cfg.ticks = 100;
            cfg.warmup = 0;
            cfg.faults = Some(FaultPlan {
                seed: 6,
                migration_failure: 0.3,
                abort_fraction: 0.5,
                ..FaultPlan::default()
            });
            cfg.commands = vec![
                ScheduledCommand {
                    tick: 15,
                    command: SimCommand::Drain { server: 7 },
                },
                ScheduledCommand {
                    tick: 25,
                    command: SimCommand::SwapPacker {
                        packer: PackerChoice::NextFit,
                    },
                },
                ScheduledCommand {
                    tick: 35,
                    command: SimCommand::SupplyOverride { factor: 0.85 },
                },
            ];
            Simulation::new(cfg).unwrap().run()
        };
        assert_eq!(run(), run(), "same seed + same timeline ⇒ identical run");
    }

    #[test]
    fn unresolvable_add_parent_is_a_topology_rejection() {
        let mut cfg = SimConfig::paper_default(3, 0.4);
        cfg.ticks = 30;
        cfg.warmup = 0;
        cfg.commands = vec![ScheduledCommand {
            tick: 5,
            command: SimCommand::AddServer {
                parent: "no-such-switch".into(),
                name: "orphan".into(),
            },
        }];
        let mut sim = Simulation::new(cfg).unwrap();
        let m = sim.run();
        assert_eq!(m.commands_applied, 0);
        assert_eq!(m.commands_rejected, 1);
        assert_eq!(m.topology_rejections, 1);
        assert_eq!(sim.willow().servers().len(), 18, "rejection is a no-op");
    }

    #[test]
    fn supply_override_caps_total_draw() {
        let mut cfg = SimConfig::paper_default(9, 0.8);
        cfg.ticks = 100;
        cfg.warmup = 0;
        let cap = cfg.ample_supply().0 * 0.3;
        cfg.commands = vec![ScheduledCommand {
            tick: 50,
            command: SimCommand::SupplyOverride { factor: 0.3 },
        }];
        let mut sim = Simulation::new(cfg).unwrap();
        let mut late_max = 0.0f64;
        for t in 0..100 {
            let (r, _) = sim.step();
            if t >= 70 {
                late_max = late_max.max(r.total_power().0);
            }
        }
        assert!(
            late_max <= cap + 1e-6,
            "draw {late_max:.1} W exceeds the overridden supply {cap:.1} W"
        );
    }

    #[test]
    fn utilization_trace_validated() {
        let mut cfg = SimConfig::paper_default(1, 0.4);
        cfg.utilization_trace = Some(vec![0.5, 1.2]);
        assert!(Simulation::new(cfg).is_err());
    }
}
