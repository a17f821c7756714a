//! Checkpoint / restore for the Willow controller.
//!
//! A control plane that migrates other people's workloads must itself be
//! restartable: [`Willow::snapshot`] captures the complete mutable state
//! (the roster rows — thermal and smoother history, each leaf's own demand
//! view, watchdog and accepted-temperature filter state — node power
//! state, tick counter, the app table with its ping-pong bookkeeping and
//! retry backoff, and the planning forecasters) into a serializable
//! value, and [`Willow::restore`] reconstructs a controller
//! that continues the run bit-for-bit identically — including under active
//! faults, where the defense state is load-bearing.
//!
//! The schema fails closed. Every field is required, and the image, its
//! server rows, its planning context and its app table reject unknown
//! keys. A checkpoint written when each server listed its own apps fails
//! on that layout's keys (`last_moves`, or a server row's `apps`); one
//! that kept the leaf-local defences in top-level vectors (`local_cp`,
//! `watchdog`, `accepted_temp`) fails on the first of them.

use crate::apps::AppTable;
use crate::command::PendingCommand;
use crate::config::ControllerConfig;
use crate::control::{ControlStats, PlanningContext, Willow, WillowError};
use crate::server::ServerState;
use crate::state::PowerState;
use crate::txn::MigrationJournal;
use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_topology::Tree;

/// Serializable image of a running controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WillowSnapshot {
    /// The topology (fully self-contained).
    pub tree: Tree,
    /// Controller tunables.
    pub config: ControllerConfig,
    /// Per-server state, in server order: every per-server fact.
    pub servers: Vec<ServerState>,
    /// Per-node power state.
    pub power: PowerState,
    /// Demand-period counter.
    pub tick: u64,
    /// Demand shed in the last period (drives wake-on-deficit).
    pub last_dropped: Watts,
    /// Cumulative operation counters (§V-A2 complexity accounting).
    pub stats: ControlStats,
    /// Migration-transaction journal: open transactions plus recently
    /// closed ones. Restore resolves any entry still open (see
    /// `crate::txn`).
    pub journal: MigrationJournal,
    /// Live-ops commands still in flight (queued or mid-drain).
    pub pending: Vec<PendingCommand>,
    /// Next correlation id to assign.
    pub next_command_id: u64,
    /// Whether adaptation was paused by [`crate::command::Command::Pause`].
    pub paused: bool,
    /// Every per-app fact: placement (each server's list), raw demand,
    /// last move and retry backoff.
    pub apps: AppTable,
    /// Planning memory: one Holt forecaster per series — root supply, root
    /// demand and each roster server (see [`crate::control::planning`]).
    pub planning: PlanningContext,
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
            last_dropped: self.last_dropped(),
            stats: self.stats(),
            journal: self.journal().clone(),
            pending: self.pending_commands().to_vec(),
            next_command_id: self.next_command_id(),
            paused: self.is_paused(),
            apps: self.apps().clone(),
            planning: self.planning().clone(),
        }
    }

    /// [`Willow::snapshot`] into a caller-provided image, reusing its
    /// buffers (`clone_from` keeps existing capacity), so a warm periodic
    /// checkpoint allocates nothing: the roster is `Copy` rows and the app
    /// table `Copy` columns.
    pub fn snapshot_into(&self, snap: &mut WillowSnapshot) {
        snap.tree.clone_from(self.tree());
        snap.config.clone_from(self.config());
        snap.servers.clear();
        snap.servers.extend_from_slice(self.servers());
        snap.power.clone_from(self.power());
        snap.tick = self.tick_count();
        snap.last_dropped = self.last_dropped();
        snap.stats = self.stats();
        snap.journal.clone_from(self.journal());
        snap.pending.clear();
        snap.pending.extend_from_slice(self.pending_commands());
        snap.next_command_id = self.next_command_id();
        snap.paused = self.is_paused();
        snap.apps.clone_from(self.apps());
        // Field by field, reusing the image's `leaves` buffer.
        snap.planning.clone_from(self.planning());
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
    use serde::Value;
    use willow_thermal::units::Watts;
    use willow_topology::NodeId;
    use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

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
        let mut restored = Willow::restore(snap).expect("restore");

        let a = drive(&mut original, n_apps, 60);
        let b = drive(&mut restored, n_apps, 60);
        assert_eq!(a, b, "predictive controller must continue identically");
        assert_eq!(original.planning(), restored.planning());
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
                    s.power.cp.pop();
                }) as fn(&mut WillowSnapshot),
                shape as fn(&WillowError) -> bool,
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
            (
                |s| {
                    s.planning.leaves.pop();
                },
                shape,
            ),
            // A server on the first slot past the tree.
            (
                |s| s.servers[0].node = NodeId(s.tree.len() as u32),
                |e| matches!(e, WillowError::NotALeaf(_)),
            ),
        ] {
            let mut snap = w.snapshot();
            mutate(&mut snap);
            match Willow::restore(snap) {
                Err(e) => assert!(expected(&e), "unexpected error {e:?}"),
                Ok(_) => panic!("malformed snapshot restored"),
            }
        }
        // The table's columns are private, so its doctoring goes through
        // the serialized form, as a corrupt checkpoint file would.
        for (edit, expected) in [
            // Demand slots out of step with the apps.
            (
                (|t: &mut Value| {
                    items(field(t, "demand")).pop();
                }) as fn(&mut Value),
                (|e: &WillowError| {
                    matches!(
                        e,
                        WillowError::SnapshotShape {
                            field: "apps.demand",
                            ..
                        }
                    )
                }) as fn(&WillowError) -> bool,
            ),
            // One server list too few.
            (
                |t| {
                    items(field(t, "tail")).pop();
                },
                |e| {
                    matches!(
                        e,
                        WillowError::SnapshotShape {
                            field: "apps.tail",
                            ..
                        }
                    )
                },
            ),
            // One app hosted on two servers: server 1's list starts where
            // server 0's does.
            (
                |t| {
                    for column in ["head", "tail"] {
                        let list = items(field(t, column));
                        list[1] = list[0].clone();
                    }
                },
                |e| matches!(e, WillowError::DuplicateApp(_)),
            ),
            // A list reaching the first id past the table.
            (
                |t| {
                    let n = items(field(t, "app")).len();
                    items(field(t, "head"))[2] = Value::U64(n as u64);
                },
                |e| matches!(e, WillowError::AppBeyondTable(_)),
            ),
            // A host column that disagrees with the list holding the app.
            (
                |t| items(field(t, "host"))[0] = Value::U64(5),
                |e| matches!(e, WillowError::AppLinks(AppId(0))),
            ),
            // An app on no list at all: server 0's list skips its first.
            (
                |t| {
                    let first = items(field(t, "head"))[0].as_u64().unwrap() as usize;
                    let second = items(field(t, "next"))[first].clone();
                    items(field(t, "head"))[0] = second;
                },
                |e| matches!(e, WillowError::AppLinks(_)),
            ),
        ] {
            let mut image = w.snapshot().to_value();
            edit(field(&mut image, "apps"));
            let snap = WillowSnapshot::from_value(&image).expect("well-typed");
            match Willow::restore(snap) {
                Err(e) => assert!(expected(&e), "unexpected error {e:?}"),
                Ok(_) => panic!("malformed app table restored"),
            }
        }
    }

    /// The named field of a serialized object.
    fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        match v {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    /// The elements of a serialized array.
    fn items(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Array(a) => a,
            _ => panic!("not an array"),
        }
    }

    /// A checkpoint in the layout where each server listed its own apps
    /// (`apps`, `app_demand`, with the `last_moves` and `backoff` maps at
    /// the top) must fail to load with an error that names a field of
    /// that layout — never restore with its apps dropped. So must one
    /// without the maps, and one whose servers were stripped of their
    /// apps but that carries no app table.
    #[test]
    fn per_server_app_layout_fails_to_load() {
        let (mut w, n_apps) = setup();
        let _ = drive(&mut w, n_apps, 10);
        let mut image = w.snapshot().to_value();
        let Value::Object(top) = &mut image else {
            panic!("not an object")
        };
        top.retain(|(k, _)| k != "apps");
        top.push(("last_moves".into(), Value::Array(Vec::new())));
        top.push(("backoff".into(), Value::Array(Vec::new())));
        for (si, server) in items(field(&mut image, "servers")).iter_mut().enumerate() {
            let hosted = w.apps().apps_on(si);
            let demand: Vec<Watts> = hosted.iter().map(|a| w.apps().demand(a.id)).collect();
            let Value::Object(record) = server else {
                panic!("not an object")
            };
            record.retain(|(k, _)| k != "app_power");
            record.insert(1, ("apps".into(), hosted.to_value()));
            record.insert(2, ("app_demand".into(), demand.to_value()));
        }
        let text = serde_json::to_string_pretty(&image).expect("serialize");
        let err = serde_json::from_str::<WillowSnapshot>(&text).expect_err("old layout loaded");
        assert_eq!(
            err.to_string(),
            "unknown field `last_moves` for WillowSnapshot"
        );

        // Without the old top-level maps, the server records still fail.
        let Value::Object(top) = &mut image else {
            panic!("not an object")
        };
        top.retain(|(k, _)| k != "last_moves" && k != "backoff");
        let err = WillowSnapshot::from_value(&image).expect_err("old rows loaded");
        assert_eq!(err.to_string(), "unknown field `apps` for ServerState");

        for server in items(field(&mut image, "servers")) {
            let Value::Object(record) = server else {
                panic!("not an object")
            };
            record.retain(|(k, _)| k != "apps" && k != "app_demand");
            record.insert(1, ("app_power".into(), Value::F64(0.0)));
        }
        let err = WillowSnapshot::from_value(&image).expect_err("table-less image loaded");
        assert_eq!(err.to_string(), "missing field `apps` for WillowSnapshot");
    }

    /// A checkpoint in the layout that kept the leaf-local defences in
    /// top-level vectors (`local_cp` per arena slot, `watchdog` and
    /// `accepted_temp` per server) must fail to load with an error naming
    /// one of those fields. So must an image whose rows are current but
    /// that still carries one of the old vectors.
    #[test]
    fn top_level_defence_vectors_fail_to_load() {
        let (mut w, n_apps) = setup();
        let _ = drive_faulted(&mut w, n_apps, 0, 20);
        let mut image = w.snapshot().to_value();
        let servers = w.servers();
        let old: [(&str, Value); 3] = [
            ("local_cp", vec![Watts::ZERO; w.tree().len()].to_value()),
            (
                "watchdog",
                servers
                    .iter()
                    .map(|s| s.watchdog)
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
            (
                "accepted_temp",
                servers
                    .iter()
                    .map(|s| s.accepted_temp)
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
        ];
        let Value::Object(top) = &mut image else {
            panic!("not an object")
        };
        top.extend(old.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        let err = WillowSnapshot::from_value(&image).expect_err("stray vector loaded");
        assert_eq!(
            err.to_string(),
            "unknown field `local_cp` for WillowSnapshot"
        );

        // The old layout proper: rows without the moved fields.
        for server in items(field(&mut image, "servers")) {
            let Value::Object(record) = server else {
                panic!("not an object")
            };
            record
                .retain(|(k, _)| !matches!(k.as_str(), "local_cp" | "watchdog" | "accepted_temp"));
        }
        let text = serde_json::to_string_pretty(&image).expect("serialize");
        let err = serde_json::from_str::<WillowSnapshot>(&text).expect_err("old layout loaded");
        let message = err.to_string();
        assert!(
            ["local_cp", "watchdog", "accepted_temp"]
                .iter()
                .any(|name| message.contains(&format!("`{name}`"))),
            "the error must name a moved field: {message}"
        );
    }

    /// Deterministic fault schedule that exercises every defense: constant
    /// directive loss on two servers (trips their watchdogs), report loss
    /// on another (diverges a row's `local_cp` from the hierarchy's `cp`
    /// view), a
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
            original.servers().iter().any(|s| s.watchdog.tripped),
            "fault schedule failed to trip a watchdog"
        );
        assert!(
            original
                .apps()
                .iter()
                .any(|a| original.apps().backoff(a.id).is_some()),
            "fault schedule failed to put an app in backoff"
        );
        assert!(original.stats().migrations > 0 || original.stats().packing_instances > 0);

        let snap = original.snapshot();
        let mut restored = Willow::restore(snap.clone()).expect("restore");

        // The captured defense state matches the live controller exactly.
        assert_eq!(snap.servers, original.servers());
        assert_eq!(&snap.apps, original.apps());
        assert_eq!(snap.stats, original.stats());

        // And the restored controller continues the faulted run identically.
        let a = drive_faulted(&mut original, n_apps, 41, 60);
        let b = drive_faulted(&mut restored, n_apps, 41, 60);
        assert_eq!(a, b, "restored controller diverged under active faults");
        assert_eq!(original.servers(), restored.servers());
        assert_eq!(original.apps(), restored.apps());
        assert_eq!(original.stats(), restored.stats());
    }
}
