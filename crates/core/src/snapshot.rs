//! Checkpoint / restore for the Willow controller.
//!
//! A control plane that migrates other people's workloads must itself be
//! restartable: [`Willow::snapshot`] captures the complete mutable state
//! (server states incl. thermal and smoother history, node power state,
//! tick counter, ping-pong bookkeeping, and every degraded-mode defense:
//! watchdogs, retry backoff, the accepted-temperature filter state and the
//! leaf-local demand views) into a serializable value, and
//! [`Willow::restore`] reconstructs a controller that continues the run
//! bit-for-bit identically — including under active faults, where the
//! defense state is load-bearing.

use crate::command::PendingCommand;
use crate::config::ControllerConfig;
use crate::control::{Backoff, ControlStats, Watchdog, Willow, WillowError};
use crate::server::ServerState;
use crate::state::PowerState;
use crate::txn::MigrationJournal;
use serde::{Deserialize, Serialize};
use willow_thermal::units::{Celsius, Watts};
use willow_topology::{NodeId, Tree};
use willow_workload::app::AppId;

/// Serializable image of a running controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WillowSnapshot {
    /// The topology (fully self-contained).
    pub tree: Tree,
    /// Controller tunables.
    pub config: ControllerConfig,
    /// Per-server state, in server order.
    pub servers: Vec<ServerState>,
    /// Per-node power state.
    pub power: PowerState,
    /// Demand-period counter.
    pub tick: u64,
    /// Ping-pong bookkeeping: (app, last source, tick).
    pub last_moves: Vec<(AppId, NodeId, u64)>,
    /// Demand shed in the last period (drives wake-on-deficit).
    pub last_dropped: Watts,
    /// Each leaf's own smoothed-demand view, indexed by arena node id.
    /// Diverges from `power.cp` under report loss; physics and local
    /// deficit detection run on this, so dropping it from a checkpoint
    /// would teleport the hierarchy's stale view into every server.
    pub local_cp: Vec<Watts>,
    /// Stale-directive watchdog per server (missed count + tripped flag).
    pub watchdog: Vec<Watchdog>,
    /// Last plausibility-accepted temperature per server — the sensor
    /// filter's reference point.
    pub accepted_temp: Vec<Celsius>,
    /// Migration retry backoff per app, sorted by app id.
    pub backoff: Vec<(AppId, Backoff)>,
    /// Cumulative operation counters (§V-A2 complexity accounting).
    pub stats: ControlStats,
    /// Migration-transaction journal: open transactions plus recently
    /// closed ones. Restore resolves any entry still open (see
    /// `crate::txn`).
    pub journal: MigrationJournal,
    /// Live-ops commands still in flight (queued or mid-drain). Absent in
    /// pre-command-plane checkpoints.
    #[serde(default)]
    pub pending: Vec<PendingCommand>,
    /// Next correlation id to assign. Absent in pre-command-plane
    /// checkpoints.
    #[serde(default)]
    pub next_command_id: u64,
    /// Whether adaptation was paused by [`crate::command::Command::Pause`].
    #[serde(default)]
    pub paused: bool,
    /// Planning memory: one Holt forecaster per series — root supply, root
    /// demand and each roster server (see [`crate::control::planning`]).
    /// Absent in pre-planning checkpoints, in which case restore re-seeds
    /// empty forecasters sized to the roster — predictions fall back to
    /// reactive until each series sees its first observation, exactly as
    /// on a cold start.
    #[serde(default)]
    pub planning: Option<crate::control::PlanningContext>,
}

impl Willow {
    /// Capture the complete mutable state of this controller.
    #[must_use]
    pub fn snapshot(&self) -> WillowSnapshot {
        WillowSnapshot {
            tree: self.tree().clone(),
            config: self.config().clone(),
            servers: self.servers().to_vec(),
            power: self.power().clone(),
            tick: self.tick_count(),
            last_moves: self.last_moves(),
            last_dropped: self.last_dropped(),
            local_cp: self.local_demands().to_vec(),
            watchdog: self.watchdogs().to_vec(),
            accepted_temp: self.accepted_temps().to_vec(),
            backoff: self.backoffs(),
            stats: self.stats(),
            journal: self.journal().clone(),
            pending: self.pending_commands().to_vec(),
            next_command_id: self.next_command_id(),
            paused: self.is_paused(),
            planning: Some(self.planning().clone()),
        }
    }

    /// [`Willow::snapshot`] into a caller-provided image, reusing its
    /// buffers (`clone_from` keeps existing capacity), so periodic
    /// checkpointing does not reallocate the whole state every time.
    pub fn snapshot_into(&self, snap: &mut WillowSnapshot) {
        snap.tree.clone_from(self.tree());
        snap.config.clone_from(self.config());
        snap.servers.clear();
        snap.servers.extend_from_slice(self.servers());
        snap.power.clone_from(self.power());
        snap.tick = self.tick_count();
        self.last_moves_into(&mut snap.last_moves);
        snap.last_dropped = self.last_dropped();
        snap.local_cp.clear();
        snap.local_cp.extend_from_slice(self.local_demands());
        snap.watchdog.clear();
        snap.watchdog.extend_from_slice(self.watchdogs());
        snap.accepted_temp.clear();
        snap.accepted_temp.extend_from_slice(self.accepted_temps());
        self.backoffs_into(&mut snap.backoff);
        snap.stats = self.stats();
        snap.journal.clone_from(self.journal());
        snap.pending.clear();
        snap.pending.extend_from_slice(self.pending_commands());
        snap.next_command_id = self.next_command_id();
        snap.paused = self.is_paused();
        // `PlanningContext::clone_from` copies field by field, reusing the
        // checkpoint's `leaves` buffer.
        match &mut snap.planning {
            Some(p) => p.clone_from(self.planning()),
            None => snap.planning = Some(self.planning().clone()),
        }
    }

    /// Reconstruct a controller from a snapshot. The result continues the
    /// run exactly where the snapshot was taken — including mid-fault:
    /// tripped watchdogs stay tripped, backoff timers keep ticking, the
    /// sensor filter keeps its last accepted reading.
    pub fn restore(snapshot: WillowSnapshot) -> Result<Willow, WillowError> {
        Willow::from_parts(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;
    use willow_thermal::units::Watts;
    use willow_workload::app::{Application, SIM_APP_CLASSES};

    fn setup() -> (Willow, usize) {
        let tree = Tree::uniform(&[2, 3]);
        let mut id = 0u32;
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .map(|leaf| {
                let apps: Vec<Application> = (0..2)
                    .map(|_| {
                        let class = id as usize % SIM_APP_CLASSES.len();
                        let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                        id += 1;
                        a
                    })
                    .collect();
                ServerSpec::simulation_default(leaf).with_apps(apps)
            })
            .collect();
        (
            Willow::new(tree, specs, ControllerConfig::default()).unwrap(),
            id as usize,
        )
    }

    fn drive(w: &mut Willow, n_apps: usize, ticks: u64) -> Vec<u64> {
        let mut log = Vec::new();
        for t in 0..ticks {
            let demands: Vec<Watts> = (0..n_apps)
                .map(|i| Watts(20.0 + ((i as u64 + t) % 5) as f64 * 25.0))
                .collect();
            let supply = Watts(if t % 13 < 6 { 1500.0 } else { 2600.0 });
            let r = w.step(&demands, supply);
            log.push(
                (r.migrations.len() as u64) << 32 | u64::from(r.total_power().0.to_bits() as u32),
            );
        }
        log
    }

    /// Policies carry no serialized state: a restored controller must run
    /// a *non-default* packer and receiver ordering from the snapshot's
    /// config alone and continue in lockstep.
    #[test]
    fn restore_reconstructs_nondefault_policies_from_config() {
        use crate::config::{ConsolidationPolicyChoice, PackerChoice};

        let build = |receivers| {
            let tree = Tree::uniform(&[2, 3]);
            let mut id = 0u32;
            let specs: Vec<ServerSpec> = tree
                .leaves()
                .map(|leaf| {
                    let apps: Vec<Application> = (0..2)
                        .map(|_| {
                            let class = id as usize % SIM_APP_CLASSES.len();
                            let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                            id += 1;
                            a
                        })
                        .collect();
                    ServerSpec::simulation_default(leaf).with_apps(apps)
                })
                .collect();
            let mut cfg = ControllerConfig::default();
            cfg.packer = PackerChoice::NextFit;
            cfg.consolidation_policy = receivers;
            (Willow::new(tree, specs, cfg).unwrap(), id as usize)
        };
        let (mut original, n_apps) = build(ConsolidationPolicyChoice::MostHeadroomReceivers);
        let warm = drive(&mut original, n_apps, 37);

        let json = serde_json::to_string(&original.snapshot()).expect("serialize");
        let snap: WillowSnapshot = serde_json::from_str(&json).expect("deserialize");
        let mut restored = Willow::restore(snap).expect("restore");

        let a = drive(&mut original, n_apps, 50);
        let b = drive(&mut restored, n_apps, 50);
        assert_eq!(a, b, "restored controller must continue identically");

        // The receiver ordering is live in this run: putting it back to
        // its default changes the trajectory.
        let full: Vec<u64> = warm.into_iter().chain(a).collect();
        let (mut w, _) = build(ConsolidationPolicyChoice::HotZonesFirst);
        assert_ne!(
            drive(&mut w, n_apps, 87),
            full,
            "the receiver ordering is inert here"
        );
    }

    /// The predictive supply policy reads the checkpointed forecaster
    /// state every stage, so a snapshot that dropped it would diverge the
    /// moment a prediction differed from a cold-started one. Drive far
    /// enough that the forecasts have built trends before snapshotting.
    #[test]
    fn restore_preserves_forecaster_state_under_predictive_policy() {
        use crate::config::SupplyPolicyChoice;

        let tree = Tree::uniform(&[2, 3]);
        let mut id = 0u32;
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .map(|leaf| {
                let apps: Vec<Application> = (0..2)
                    .map(|_| {
                        let class = id as usize % SIM_APP_CLASSES.len();
                        let a = Application::new(AppId(id), class, &SIM_APP_CLASSES[class]);
                        id += 1;
                        a
                    })
                    .collect();
                ServerSpec::simulation_default(leaf).with_apps(apps)
            })
            .collect();
        let mut cfg = ControllerConfig::default();
        cfg.supply_policy = SupplyPolicyChoice::Predictive;
        let mut original = Willow::new(tree, specs, cfg).unwrap();
        let n_apps = id as usize;
        let _ = drive(&mut original, n_apps, 43); // 11 supply ticks at η1 = 4

        let json = serde_json::to_string(&original.snapshot()).expect("serialize");
        let snap: WillowSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert!(
            snap.planning.is_some(),
            "snapshot must carry planning state"
        );
        let mut restored = Willow::restore(snap).expect("restore");

        let a = drive(&mut original, n_apps, 60);
        let b = drive(&mut restored, n_apps, 60);
        assert_eq!(a, b, "predictive controller must continue identically");
        assert_eq!(original.planning(), restored.planning());
    }

    /// Pre-planning checkpoints carry no `planning` key: they must still
    /// parse, restore, and run — the restored controller simply restarts
    /// its forecasts from scratch.
    #[test]
    fn restore_accepts_checkpoint_without_planning_state() {
        let (mut w, n_apps) = setup();
        let _ = drive(&mut w, n_apps, 20);
        let json = serde_json::to_string(&w.snapshot()).expect("serialize");
        let needle = ",\"planning\":";
        let start = json.find(needle).expect("planning key present");
        // The planning value is the last field: strip through the closing
        // brace of the snapshot object.
        let stripped = format!("{}}}", &json[..start]);
        let snap: WillowSnapshot = serde_json::from_str(&stripped).expect("legacy parse");
        assert_eq!(snap.planning, None);
        let mut restored = Willow::restore(snap).expect("restore");
        assert_eq!(
            restored.planning().leaves.len(),
            restored.servers().len(),
            "restore must re-seed planning to the roster size"
        );
        // The re-seeded forecasts start empty and refill as the run
        // continues; the default reactive policy never reads them, so the
        // run itself still continues bit-for-bit.
        let a = drive(&mut w, n_apps, 30);
        let b = drive(&mut restored, n_apps, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_continues_bit_for_bit() {
        let (mut original, n_apps) = setup();
        let _ = drive(&mut original, n_apps, 37); // churn: migrations, sleeps

        let snap = original.snapshot();
        let mut restored = Willow::restore(snap.clone()).expect("restore");

        let a = drive(&mut original, n_apps, 50);
        let b = drive(&mut restored, n_apps, 50);
        assert_eq!(a, b, "restored controller must continue identically");
    }

    #[test]
    fn snapshot_serializes() {
        let (mut w, n_apps) = setup();
        let _ = drive(&mut w, n_apps, 10);
        let snap = w.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: WillowSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snap, back);
        // And the deserialized snapshot also restores to a working
        // controller.
        let mut restored = Willow::restore(back).expect("restore");
        let a = drive(&mut w, n_apps, 20);
        let b = drive(&mut restored, n_apps, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let (mut w, n_apps) = setup();
        let _ = drive(&mut w, n_apps, 25);
        // Pre-populate a reusable image, advance, then overwrite it.
        let mut reused = w.snapshot();
        let stale = reused.clone();
        let _ = drive(&mut w, n_apps, 13);
        w.snapshot_into(&mut reused);
        assert_eq!(reused, w.snapshot(), "reused image must match a fresh one");
        assert_ne!(reused, stale, "the image must actually be overwritten");
    }

    #[test]
    fn snapshot_with_retired_server_restores() {
        // A retired server keeps its roster slot but owns no leaf: the
        // restore-time leaf-coverage check must count live servers only.
        use crate::command::Command;
        use crate::server::FenceState;
        let (mut w, n_apps) = setup();
        let _ = drive(&mut w, n_apps, 5);
        w.submit_command(Command::Drain { server: 1 });
        let _ = drive(&mut w, n_apps, 10); // drain completes, server fences
        assert_eq!(w.servers()[1].fence, FenceState::Fenced);
        w.submit_command(Command::RemoveServer { server: 1 });
        let _ = drive(&mut w, n_apps, 5);
        assert_eq!(w.servers()[1].fence, FenceState::Retired);

        let json = serde_json::to_string(&w.snapshot()).expect("serialize");
        let snap: WillowSnapshot = serde_json::from_str(&json).expect("deserialize");
        let mut restored = Willow::restore(snap).expect("retired slots must restore");
        assert_eq!(restored.servers()[1].fence, FenceState::Retired);
        let a = drive(&mut w, n_apps, 20);
        let b = drive(&mut restored, n_apps, 20);
        assert_eq!(a, b, "restored controller must continue identically");
    }

    #[test]
    fn restore_validates_config() {
        let (w, _) = setup();
        let mut snap = w.snapshot();
        snap.config.alpha = 2.0;
        assert!(Willow::restore(snap).is_err());
    }

    /// Every malformed image is rejected by `restore` itself: none may
    /// restore and then panic in `step` (or panic while restoring).
    #[test]
    fn restore_validates_state_vector_shapes() {
        let (w, _) = setup();
        let shape = |e: &WillowError| matches!(e, WillowError::SnapshotShape { .. });
        for (mutate, expected) in [
            (
                (|s: &mut WillowSnapshot| {
                    s.local_cp.pop();
                }) as fn(&mut WillowSnapshot),
                shape as fn(&WillowError) -> bool,
            ),
            (
                |s| {
                    s.watchdog.pop();
                },
                shape,
            ),
            (
                |s| s.accepted_temp.push(willow_thermal::units::Celsius(25.0)),
                shape,
            ),
            (
                |s| {
                    s.power.cp.pop();
                },
                shape,
            ),
            (
                |s| {
                    s.power.tp.pop();
                },
                shape,
            ),
            (
                |s| {
                    s.power.tp_old.pop();
                },
                shape,
            ),
            (
                |s| {
                    s.power.cap.pop();
                },
                shape,
            ),
            (
                |s| {
                    s.power.reduced.pop();
                },
                shape,
            ),
            // Demand slots out of step with the hosted apps.
            (
                |s| {
                    s.servers[2].app_demand.pop();
                },
                shape,
            ),
            // A server on the first slot past the tree.
            (
                |s| s.servers[0].node = NodeId(s.tree.len() as u32),
                |e| matches!(e, WillowError::NotALeaf(_)),
            ),
            // One app hosted on two servers.
            (
                |s| {
                    let app = s.servers[0].apps[0];
                    s.servers[1].apps.push(app);
                    s.servers[1].app_demand.push(Watts::ZERO);
                },
                |e| matches!(e, WillowError::DuplicateApp(_)),
            ),
        ] {
            let mut snap = w.snapshot();
            mutate(&mut snap);
            match Willow::restore(snap) {
                Err(e) => assert!(expected(&e), "unexpected error {e:?}"),
                Ok(_) => panic!("malformed snapshot restored"),
            }
        }
    }

    /// Deterministic fault schedule that exercises every defense: constant
    /// directive loss on two servers (trips their watchdogs), report loss
    /// on another (diverges `local_cp` from the hierarchy's `cp` view), a
    /// stuck sensor (diverges `accepted_temp` from the raw reading) and
    /// alternating reject/abort migration outcomes (populates backoff).
    fn faulted_disturb(t: u64, n: usize) -> crate::Disturbances {
        use crate::{Disturbances, MigrationOutcome};
        let mut d = Disturbances {
            crashed: vec![false; n],
            report_lost: vec![false; n],
            directive_lost: vec![false; n],
            sensor_override: vec![None; n],
            sensor_offset: vec![0.0; n],
            migration_outcomes: Vec::new(),
        };
        d.directive_lost[0] = true;
        d.directive_lost[1] = true;
        d.report_lost[2] = t % 2 == 1;
        d.sensor_override[3] = Some(willow_thermal::units::Celsius(95.0));
        let outcome = match t % 3 {
            0 => MigrationOutcome::Reject,
            1 => MigrationOutcome::Abort,
            _ => MigrationOutcome::Success,
        };
        d.migration_outcomes = vec![outcome; 8];
        d
    }

    fn drive_faulted(w: &mut Willow, n_apps: usize, from: u64, ticks: u64) -> Vec<String> {
        let n = w.servers().len();
        (from..from + ticks)
            .map(|t| {
                let demands: Vec<Watts> = (0..n_apps)
                    .map(|i| Watts(30.0 + ((i as u64 + t) % 7) as f64 * 40.0))
                    .collect();
                // Tight supply keeps deficits (and thus migration attempts,
                // feeding the backoff map) flowing.
                let supply = Watts(if t % 9 < 5 { 900.0 } else { 2200.0 });
                let r = w.step_with(&demands, supply, &faulted_disturb(t, n));
                format!("{r:?}")
            })
            .collect()
    }

    /// The regression pinned here: a snapshot taken *mid-fault* — tripped
    /// watchdogs, live backoff timers, a diverged sensor filter and a
    /// stale hierarchy demand view — must restore to a controller that
    /// continues the faulted run bit-for-bit. The original snapshot omitted
    /// all of that state, so the restored controller silently re-armed
    /// every degraded-mode defense.
    #[test]
    fn restore_preserves_degraded_mode_state_mid_fault() {
        let (mut original, n_apps) = setup();
        let _ = drive_faulted(&mut original, n_apps, 0, 41);

        // The schedule must actually have engaged the defenses, or this
        // test pins nothing.
        assert!(
            original.watchdogs().iter().any(|wd| wd.tripped),
            "fault schedule failed to trip a watchdog"
        );
        assert!(
            !original.backoffs().is_empty(),
            "fault schedule failed to populate the backoff map"
        );
        assert!(original.stats().migrations > 0 || original.stats().packing_instances > 0);

        let snap = original.snapshot();
        let mut restored = Willow::restore(snap.clone()).expect("restore");

        // The captured defense state matches the live controller exactly.
        assert_eq!(snap.watchdog, original.watchdogs());
        assert_eq!(snap.backoff, original.backoffs());
        assert_eq!(snap.accepted_temp, original.accepted_temps());
        assert_eq!(snap.local_cp, original.local_demands());
        assert_eq!(snap.stats, original.stats());

        // And the restored controller continues the faulted run identically.
        let a = drive_faulted(&mut original, n_apps, 41, 60);
        let b = drive_faulted(&mut restored, n_apps, 41, 60);
        assert_eq!(a, b, "restored controller diverged under active faults");
        assert_eq!(original.watchdogs(), restored.watchdogs());
        assert_eq!(original.backoffs(), restored.backoffs());
        assert_eq!(original.accepted_temps(), restored.accepted_temps());
        assert_eq!(original.local_demands(), restored.local_demands());
        assert_eq!(original.stats(), restored.stats());
    }
}
