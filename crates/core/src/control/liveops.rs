//! The live-ops command plane: queued operator commands executed at a
//! fixed point in the tick — after measurement, before supply adaptation —
//! so every reconfiguration lands at a deterministic, replayable position
//! in the control trajectory.
//!
//! Commands are submitted with [`Willow::submit_command`] and processed
//! FIFO. Each command is validated (check-then-act) against its
//! preconditions before any state is touched; a rejected command changes
//! nothing and reports a typed [`CommandError`]. A
//! [`Command::Drain`] is the one *multi-tick* command: it evacuates what
//! it can place each tick (reporting the rest as stranded) and stays
//! pending until the server is empty, at which point it fences the server
//! and completes. Pending drains do not block commands queued behind them.
//! A [`Command::RemoveServer`] aimed at a server whose drain is still
//! running waits in the queue too, and applies on the tick the server
//! fences.
//!
//! Online topology edits (server add/remove) swap in an edited tree, grow
//! the per-node state arrays and rebuild the per-stage scratch; the queue
//! itself is part of the checkpointed state, so commands in flight survive
//! a controller crash (see [`Willow::recover`]).

use super::consolidate::{ConsolidateStage, EVAC_FIT_SLACK};
use super::demand::{DeficitItem, DemandStage};
use super::supply::SupplyStage;
use super::{Willow, NO_SERVER};
use crate::command::{
    Command, CommandError, CommandId, CommandOutcome, CommandStatus, PendingCommand,
};
use crate::migration::{MigrationReason, TickReport};
use crate::server::{FenceState, ServerProfile, ServerSpec, ServerState};
use std::sync::Arc;
use willow_thermal::model::decay_factor;
use willow_thermal::units::Watts;
use willow_topology::NodeId;

impl Willow {
    /// Queue `command` for processing at the next tick's command point
    /// (between the measure and supply stages). Returns the correlation id
    /// echoed in the eventual [`CommandOutcome`] on the report of the tick
    /// in which the command reaches a terminal state.
    pub fn submit_command(&mut self, command: Command) -> CommandId {
        let id = CommandId(self.next_command_id);
        self.next_command_id += 1;
        self.pending.push(PendingCommand {
            id,
            command,
            issued_tick: self.tick,
        });
        id
    }

    /// Commands still in flight: queued but not yet processed, or drains
    /// that have not emptied their server yet.
    #[must_use]
    pub fn pending_commands(&self) -> &[PendingCommand] {
        &self.pending
    }

    /// The next correlation id [`Willow::submit_command`] will assign.
    #[must_use]
    pub fn next_command_id(&self) -> u64 {
        self.next_command_id
    }

    /// Whether adaptation is paused by [`Command::Pause`]: measurement,
    /// command processing and physics keep running, budgets stay frozen.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Process the pending command queue, FIFO and non-blocking: every
    /// command is attempted each tick in submission order; completed and
    /// rejected commands leave the queue with an outcome on `report`;
    /// unfinished drains, and removals waiting on them, stay for the next
    /// tick. With an empty queue this is a single branch — the
    /// steady-state tick stays allocation-free and bit-for-bit identical
    /// to a controller without a command plane.
    pub(super) fn process_commands(&mut self, report: &mut TickReport) {
        if self.pending.is_empty() {
            return;
        }
        let tick = self.tick;
        let mut i = 0;
        while i < self.pending.len() {
            let PendingCommand {
                id,
                command,
                issued_tick,
            } = self.pending[i].clone();
            let status = match &command {
                Command::AddServer { parent, name } => {
                    Some(match self.exec_add_server(*parent, name) {
                        Ok(()) => {
                            report.topology_changed = true;
                            CommandStatus::Applied
                        }
                        Err(e) => CommandStatus::Rejected(e),
                    })
                }
                Command::RemoveServer { server }
                    if self
                        .servers
                        .get(*server)
                        .is_some_and(|s| s.fence == FenceState::Draining) =>
                {
                    None // a drain is still evacuating it; retry next tick
                }
                Command::RemoveServer { server } => Some(match self.exec_remove_server(*server) {
                    Ok(()) => {
                        report.topology_changed = true;
                        CommandStatus::Applied
                    }
                    Err(e) => CommandStatus::Rejected(e),
                }),
                Command::Drain { server } => match self.exec_drain(*server, tick, report) {
                    Ok(true) => Some(CommandStatus::Applied),
                    Ok(false) => None, // still evacuating; retry next tick
                    Err(e) => Some(CommandStatus::Rejected(e)),
                },
                Command::SwapPacker { packer } => {
                    self.config.packer = *packer;
                    Some(CommandStatus::Applied)
                }
                Command::Pause => {
                    self.paused = true;
                    Some(CommandStatus::Applied)
                }
                Command::Resume => {
                    self.paused = false;
                    Some(CommandStatus::Applied)
                }
            };
            match status {
                Some(status) => {
                    if status.is_applied() {
                        report.commands_applied += 1;
                        self.tel.commands_applied.add(1);
                    } else {
                        report.commands_rejected += 1;
                        self.tel.commands_rejected.add(1);
                    }
                    self.tel
                        .command_latency
                        .record(tick.saturating_sub(issued_tick) as f64);
                    report.command_outcomes.push(CommandOutcome {
                        id,
                        command,
                        tick,
                        status,
                    });
                    self.pending.remove(i);
                }
                None => i += 1,
            }
        }
        // Drain migrations, fencing and topology edits all move leaf-level
        // demand around; re-aggregate so the supply stage divides against
        // fresh interior sums. On a tick whose commands changed nothing
        // this recomputes the sums measurement just wrote — bit-neutral.
        self.power.aggregate_demands(&self.tree);
    }

    /// Insert a new leaf under `parent`, grow every per-node array, and
    /// bring a simulation-default server online at the new slot. The new
    /// server starts active and empty with a zero budget; it receives its
    /// first real budget at the next supply tick.
    fn exec_add_server(&mut self, parent: NodeId, name: &str) -> Result<(), CommandError> {
        let (tree, leaf) = self.tree.insert_leaf(parent, name)?;
        self.tree = Arc::new(tree);
        let n = self.tree.len();
        self.power.ensure_len(n);
        self.fabric.ensure_len(n);
        if self.leaf_server.len() < n {
            self.leaf_server.resize(n, NO_SERVER);
        }
        // A reused tombstone slot may carry state from the server that
        // used to live there.
        let li = leaf.index();
        self.power.cp[li] = Watts::ZERO;
        self.power.tp[li] = Watts::ZERO;
        self.power.cap[li] = Watts::ZERO;
        self.power.reduced[li] = false;
        debug_assert_eq!(self.leaf_server[li], NO_SERVER, "slot cleared at removal");
        self.leaf_server[li] = self.servers.len() as u32;
        let spec = ServerSpec::simulation_default(leaf);
        let profile = ServerProfile::new(&spec);
        self.decay_dd
            .push(decay_factor(profile.thermal, self.config.delta_d));
        self.decay_ds
            .push(decay_factor(profile.thermal, self.config.delta_s()));
        self.servers.push(ServerState::new(&spec));
        // Checkpoints may share the column, so the addition builds a new one.
        self.profiles = self.profiles.iter().copied().chain([profile]).collect();
        self.apps.add_server();
        if let Some(plan) = &mut self.planning {
            plan.push_server();
        }
        self.rebuild_stage_scratch();
        Ok(())
    }

    /// Permanently retire a fenced, empty server: remove its tree leaf
    /// (slot becomes a reusable tombstone), zero its per-node state, and
    /// mark its server slot [`FenceState::Retired`] — server indices are
    /// stable for the life of the run, so the slot is never reused.
    fn exec_remove_server(&mut self, server: usize) -> Result<(), CommandError> {
        if server >= self.servers.len() {
            return Err(CommandError::UnknownServer(server));
        }
        match self.servers[server].fence {
            FenceState::Retired => return Err(CommandError::Retired(server)),
            FenceState::Active | FenceState::Draining => {
                return Err(CommandError::NotFenced(server))
            }
            FenceState::Fenced => {}
        }
        if self.apps.hosts_any(server) {
            return Err(CommandError::NotEmpty(server));
        }
        let node = self.servers[server].node;
        self.tree = Arc::new(self.tree.remove_leaf(node)?);
        // The edit committed; everything below is infallible.
        let li = node.index();
        let row = &mut self.servers[server];
        row.fence = FenceState::Retired;
        // A tripped watchdog on a retired row would keep counting toward
        // `fallback_servers` forever; the machine is gone, clear it.
        row.watchdog = crate::control::supply::Watchdog::default();
        self.leaf_server[li] = NO_SERVER;
        self.power.cp[li] = Watts::ZERO;
        self.power.tp[li] = Watts::ZERO;
        self.power.cap[li] = Watts::ZERO;
        self.power.reduced[li] = false;
        self.rebuild_stage_scratch();
        Ok(())
    }

    /// One tick of a graceful drain. Marks the server
    /// [`FenceState::Draining`], evacuates every placeable app through the
    /// ordinary migration machinery (largest first, siblings first),
    /// and — once the server is empty — sleeps and fences it with its
    /// budget and cap forced to zero. Returns `Ok(true)` when fenced,
    /// `Ok(false)` while apps remain (counted on
    /// [`TickReport::stranded_apps`]; the drain retries next tick).
    fn exec_drain(
        &mut self,
        server: usize,
        tick: u64,
        report: &mut TickReport,
    ) -> Result<bool, CommandError> {
        if server >= self.servers.len() {
            return Err(CommandError::UnknownServer(server));
        }
        match self.servers[server].fence {
            FenceState::Retired => return Err(CommandError::Retired(server)),
            FenceState::Fenced => return Ok(true), // idempotent
            FenceState::Active | FenceState::Draining => {}
        }
        self.servers[server].fence = FenceState::Draining;

        if self.apps.hosts_any(server) {
            let mut stage = std::mem::take(&mut self.consolidate_stage);
            self.evacuate_for_drain(server, tick, &mut stage, report);
            self.consolidate_stage = stage;
        }

        if !self.apps.hosts_any(server) {
            if self.servers[server].active {
                self.sleep_server(server);
            }
            self.servers[server].fence = FenceState::Fenced;
            // Zero the applied budget immediately — a fenced server must
            // never draw power again, not even until the next supply tick.
            let li = self.servers[server].node.index();
            self.power.tp[li] = Watts::ZERO;
            self.power.cap[li] = Watts::ZERO;
            Ok(true)
        } else {
            report.stranded_apps += self.apps.on(server).count();
            Ok(false)
        }
    }

    /// Best-effort evacuation of a draining server: apps largest-first,
    /// each first-fit into the first eligible target with headroom —
    /// siblings before the rest of the data center. Apps in retry backoff,
    /// without a fitting target, or whose migration fails its fault roll
    /// simply stay put for this tick; the caller reports them stranded.
    fn evacuate_for_drain(
        &mut self,
        server: usize,
        tick: u64,
        stage: &mut ConsolidateStage,
        report: &mut TickReport,
    ) {
        stage.evac_items.clear();
        stage
            .evac_items
            .extend(self.apps.on(server).map(|app| DeficitItem {
                server,
                app,
                demand: self.apps.demand(app),
                reason: MigrationReason::Drain,
            }));
        stage.evac_order.clear();
        stage.evac_order.extend(0..stage.evac_items.len());
        stage.evac_order.sort_unstable_by(|&a, &b| {
            stage.evac_items[b]
                .demand
                .0
                .total_cmp(&stage.evac_items[a].demand.0)
                .then(a.cmp(&b))
        });

        // Eligible bins, sibling leaves first, then leaf order — not the
        // consolidation policy's receiver order. The draining server
        // itself is never eligible (its fence is set).
        let leaf = self.servers[server].node;
        let parent = self.tree.parent(leaf);
        self.resolve_eligibility(&mut stage.eligibility);
        let eligibility = &stage.eligibility;
        stage.evac_bins.clear();
        stage
            .evac_bins
            .extend(self.tree.siblings(leaf).filter(|&l| eligibility.get(l)));
        stage.evac_bins.extend(
            self.tree
                .leaves()
                .filter(|&l| eligibility.get(l) && self.tree.parent(l) != parent),
        );

        for oi in 0..stage.evac_order.len() {
            let item = stage.evac_items[stage.evac_order[oi]];
            if self.in_backoff(item.app, tick) {
                continue; // stranded this tick; retried once backoff clears
            }
            // First fit against *live* remaining capacity: each committed
            // migration already updated the target's CP.
            let target = stage.evac_bins.iter().copied().find(|&l| {
                self.bin_capacity(l).0 + EVAC_FIT_SLACK >= self.effective_size(item.demand)
                    && !self.would_pingpong(item.app, l, tick)
            });
            if let Some(target) = target {
                // A failed attempt (injected reject/abort) leaves the app
                // at the source, in backoff — stranded, never lost.
                let _ = self.attempt_migration(&item, target, tick, &mut report.migrations);
            }
        }
    }

    /// Rebuild the per-stage scratch buffers after a topology or roster
    /// change, so their pre-sized capacities match the new shape. This
    /// allocates — acceptable on the rare reconfiguration tick; idle-queue
    /// ticks never reach here.
    fn rebuild_stage_scratch(&mut self) {
        self.supply_stage = SupplyStage::for_tree(&self.tree);
        self.demand_stage = DemandStage::for_tree(&self.tree);
        self.consolidate_stage = ConsolidateStage::for_tree(&self.tree, self.servers.len());
        self.physics_stage = super::physics::PhysicsStage::for_tree(&self.tree, self.servers.len());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{demands, small_setup};
    use super::*;
    use crate::config::ControllerConfig;

    /// A removal queued behind a drain that cannot finish yet waits for
    /// it instead of failing `NotFenced`, and applies on the tick the
    /// drain fences the server.
    #[test]
    fn remove_waits_for_a_running_drain() {
        let (tree, specs, n_apps) = small_setup(1);
        let mut cfg = ControllerConfig::default();
        cfg.robustness.retry_base = 4;
        let mut w = Willow::new(tree, specs, cfg).unwrap();
        let d = demands(n_apps, 30.0);
        for _ in 0..3 {
            w.step(&d, Watts(2000.0));
        }
        // The busiest server's apps sit in retry backoff, so the drain
        // strands them for a few ticks.
        let si = (0..w.servers.len())
            .max_by_key(|&i| w.apps.on(i).count())
            .unwrap();
        let other = (si + 1) % w.servers.len();
        let hosted: Vec<_> = w.apps.on(si).collect();
        for app in hosted {
            w.register_failure(app, w.tick);
        }
        w.submit_command(Command::Drain { server: si });
        w.submit_command(Command::RemoveServer { server: si });
        let mut held = 0;
        let report = loop {
            let r = w.step(&d, Watts(2000.0));
            if w.servers[si].fence == FenceState::Draining {
                assert!(r.command_outcomes.is_empty(), "{:?}", r.command_outcomes);
                assert_eq!(w.pending_commands().len(), 2, "both commands stay queued");
                held += 1;
                assert!(held < 20, "the drain never finished");
            } else {
                break r;
            }
        };
        assert!(held > 0, "the drain must strand the app at least once");
        assert_eq!(w.servers[si].fence, FenceState::Retired);
        let applied: Vec<_> = report
            .command_outcomes
            .iter()
            .map(|o| (o.command.clone(), o.status.is_applied()))
            .collect();
        assert_eq!(
            applied,
            [
                (Command::Drain { server: si }, true),
                (Command::RemoveServer { server: si }, true),
            ]
        );
        assert!(w.pending_commands().is_empty());

        // A server nobody drains is still rejected at once.
        w.submit_command(Command::RemoveServer { server: other });
        let r = w.step(&d, Watts(2000.0));
        assert_eq!(w.servers[other].fence, FenceState::Active);
        assert_eq!(r.command_outcomes.len(), 1);
        assert_eq!(
            r.command_outcomes[0].status,
            CommandStatus::Rejected(CommandError::NotFenced(other))
        );
    }
}
