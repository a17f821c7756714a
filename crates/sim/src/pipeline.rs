//! Demand generation one tick ahead, on a second thread.
//!
//! A tick's demand depends on nothing the controller decides (see
//! [`DemandStream`]), so a worker can draw tick t + 1 while the engine
//! controls, audits and checkpoints tick t. The worker runs the one
//! stream, so it makes the inline draws in the inline order. It hands
//! over Poisson counts, and the engine turns them into watts with the
//! stream's own [`DemandModel::watts`], so every demand is bit for bit
//! the one the inline stream returns.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use willow_thermal::units::Watts;
use willow_workload::demand::{DemandModel, DemandStream};

/// What the engine and the worker share.
struct Shared {
    slot: Mutex<Slot>,
    /// Signalled on every change of the slot. At most one side waits at a
    /// time: the engine only for a full buffer, the worker only for an
    /// empty one (or shutdown).
    changed: Condvar,
}

/// Why the slot's lock cannot be poisoned.
const UNPOISONED: &str = "no panic escapes while the demand slot is locked";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect(UNPOISONED)
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.changed.wait(slot).expect(UNPOISONED)
    }
}

struct Slot {
    /// One tick's Poisson counts, one per app in id order.
    counts: Vec<u32>,
    /// Whether `counts` holds a tick the engine has not read yet.
    full: bool,
    /// The worker's panic, for the engine to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// Set on drop: the worker returns instead of drawing again.
    shutdown: bool,
}

/// A [`DemandStream`] run one tick ahead on a persistent worker thread,
/// which is joined on drop.
pub(crate) struct DemandPipeline {
    shared: Arc<Shared>,
    /// `None` once the worker's panic has been re-raised.
    worker: Option<JoinHandle<()>>,
    model: DemandModel,
}

impl DemandPipeline {
    /// Start a worker drawing `stream`'s first tick.
    pub(crate) fn spawn(stream: DemandStream) -> Self {
        let model = stream.model();
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                counts: vec![0; stream.len()],
                full: false,
                panic: None,
                shutdown: false,
            }),
            changed: Condvar::new(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("willow-demand".into())
                .spawn(move || work(&shared, stream))
                .expect("spawn the demand worker")
        };
        DemandPipeline {
            shared,
            worker: Some(worker),
            model,
        }
    }

    /// The next tick's demand of every app, in id order, into `out`. Waits
    /// until the worker has drawn it, then sets the worker on the tick
    /// after.
    ///
    /// # Panics
    /// Re-raises the worker's panic (and panics on every later call).
    pub(crate) fn next_into(&mut self, out: &mut Vec<Watts>) {
        assert!(self.worker.is_some(), "the demand worker panicked earlier");
        let mut slot = self.shared.lock();
        while !slot.full {
            if let Some(payload) = slot.panic.take() {
                drop(slot);
                if let Some(worker) = self.worker.take() {
                    let _ = worker.join();
                }
                resume_unwind(payload);
            }
            slot = self.shared.wait(slot);
        }
        let model = self.model;
        out.clear();
        out.extend(slot.counts.iter().map(|&c| model.watts(u64::from(c))));
        slot.full = false;
        self.shared.changed.notify_one();
    }
}

impl Drop for DemandPipeline {
    fn drop(&mut self) {
        let Some(worker) = self.worker.take() else {
            return;
        };
        // Drop must not panic, so a poisoned lock is taken as it is.
        let mut slot = self
            .shared
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.shutdown = true;
        drop(slot);
        self.shared.changed.notify_one();
        // The worker catches its own panics, and one not yet re-raised
        // goes down with the engine.
        let _ = worker.join();
    }
}

/// The worker: draw a tick whenever the slot is empty, until shutdown or
/// a panic, which is caught and left in the slot for the engine.
fn work(shared: &Shared, mut stream: DemandStream) {
    let mut slot = shared.lock();
    loop {
        if slot.shutdown {
            return;
        }
        if slot.full {
            slot = shared.wait(slot);
            continue;
        }
        // Drawn under the lock: the engine has nothing to read before the
        // tick is complete, so it may as well wait on the lock.
        let drawn = catch_unwind(AssertUnwindSafe(|| {
            stream.next_counts_into(&mut slot.counts);
        }));
        match drawn {
            Ok(()) => slot.full = true,
            Err(payload) => slot.panic = Some(payload),
        }
        shared.changed.notify_one();
        if slot.panic.is_some() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{ScheduledCommand, SimCommand};
    use crate::engine::tests::{in_demand_mode, is_pipelined};
    use crate::faults::{ControllerCrashPlan, ControllerOutage, FaultPlan};
    use crate::faults::{ZoneOutage, ZoneOutageKind, ZoneOutagePlan};
    use crate::federate::{FederateConfig, FederatedSimulation};
    use crate::metrics::{FabricSnapshot, RunMetrics};
    use crate::{SimConfig, Simulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use willow_core::migration::TickReport;
    use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

    /// 2,187 servers, 8,748 apps: above the pipelining threshold.
    fn config(seed: u64, ticks: usize) -> SimConfig {
        let mut cfg = SimConfig::paper_hot_cold(seed, 0.6);
        cfg.branching = vec![3, 9, 9, 9];
        cfg.ticks = ticks;
        cfg.warmup = 0;
        cfg.audit_panic = true;
        cfg
    }

    fn build(cfg: &SimConfig, pipelined: bool) -> Simulation {
        let sim = in_demand_mode(pipelined, || Simulation::new(cfg.clone()).unwrap());
        assert_eq!(is_pipelined(&sim), pipelined);
        sim
    }

    /// Step an inline and a pipelined engine side by side through
    /// `cfg.ticks` ticks, then run both once more, and require the same
    /// reports, fabric read-outs, final controller state and metrics.
    fn assert_lockstep(cfg: &SimConfig) -> RunMetrics {
        let mut inline = build(cfg, false);
        let mut pipelined = build(cfg, true);
        let (mut report, mut fabric) = (TickReport::default(), FabricSnapshot::default());
        for t in 0..cfg.ticks {
            inline.step_into_buffers(&mut report, &mut fabric);
            let (r, f) = pipelined.step();
            assert_eq!(report, r, "report diverged at tick {t}");
            assert_eq!(fabric, f, "fabric diverged at tick {t}");
        }
        assert_eq!(inline.willow().snapshot(), pipelined.willow().snapshot());
        let metrics = inline.run();
        assert_eq!(metrics, pipelined.run());
        assert_eq!(inline.willow().snapshot(), pipelined.willow().snapshot());
        metrics
    }

    #[test]
    fn the_engine_pipelines_large_streams_on_a_second_cpu() {
        let second_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
        let large = Simulation::new(config(1, 1)).unwrap();
        assert_eq!(is_pipelined(&large), second_cpu);
        let small = Simulation::new(SimConfig::paper_default(1, 0.4)).unwrap();
        assert!(!is_pipelined(&small), "18 servers stay inline");
    }

    #[test]
    fn pipelined_engine_matches_inline_through_controller_crashes() {
        let mut cfg = config(13, 40);
        cfg.faults = Some(FaultPlan {
            seed: 4,
            report_loss: 0.1,
            directive_loss: 0.1,
            migration_failure: 0.3,
            abort_fraction: 0.5,
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 8,
                windows: vec![ControllerOutage {
                    from: 12,
                    until: 20,
                }],
            }),
            ..FaultPlan::default()
        });
        let m = assert_lockstep(&cfg);
        assert_eq!(m.controller_recoveries, 1);
        assert!(m.migration_aborts > 0);
    }

    #[test]
    fn pipelined_engine_matches_inline_through_drain_add_remove() {
        let mut cfg = config(19, 40);
        let command = |tick, command| ScheduledCommand { tick, command };
        cfg.commands = vec![
            command(5, SimCommand::Drain { server: 2 }),
            command(
                10,
                SimCommand::AddServer {
                    parent: "l1-1".into(),
                    name: "extra".into(),
                },
            ),
            command(15, SimCommand::RemoveServer { server: 2 }),
            command(20, SimCommand::SupplyOverride { factor: 0.8 }),
        ];
        let m = assert_lockstep(&cfg);
        assert_eq!(m.commands_applied, 3, "drain, add and remove");
    }

    #[test]
    fn pipelined_federation_matches_inline_through_outages() {
        let ticks = 30;
        let fed = |pipelined| {
            let zones = (0..3).map(|z| config(21 + z, ticks)).collect();
            let mut cfg = FederateConfig::new(zones);
            cfg.plan = Some(ZoneOutagePlan {
                checkpoint_period: 5,
                broker_crash: vec![ControllerOutage {
                    from: 18,
                    until: 24,
                }],
                outages: vec![ZoneOutage {
                    zone: 1,
                    kind: ZoneOutageKind::ControllerCrash,
                    from: 6,
                    until: 14,
                }],
            });
            let fed = in_demand_mode(pipelined, || FederatedSimulation::new(cfg).unwrap());
            assert!(fed.zones().iter().all(|z| is_pipelined(z) == pipelined));
            fed
        };
        let (mut inline, mut pipelined) = (fed(false), fed(true));
        let mut reports = vec![vec![TickReport::default(); 3]; 2];
        let mut fabrics = vec![vec![FabricSnapshot::default(); 3]; 2];
        for t in 0..ticks {
            inline.step_into_buffers(&mut reports[0], &mut fabrics[0]);
            pipelined.step_into_buffers(&mut reports[1], &mut fabrics[1]);
            assert_eq!(reports[0], reports[1], "reports diverged at tick {t}");
            assert_eq!(fabrics[0], fabrics[1], "fabrics diverged at tick {t}");
        }
        assert_eq!(inline.broker().counters(), pipelined.broker().counters());
        for (a, b) in inline.zones().iter().zip(pipelined.zones()) {
            assert_eq!(a.willow().snapshot(), b.willow().snapshot());
        }
        let m = inline.run();
        assert_eq!(m, pipelined.run());
        assert_eq!(
            (m.zones[1].controller_recoveries, m.broker_recoveries),
            (1, 1)
        );
    }

    #[test]
    fn a_dropped_simulation_joins_its_worker() {
        let mut sim = build(&config(3, 1), true);
        let apps = sim.willow().apps().applications().clone();
        sim.step();
        drop(sim);
        // The worker's stream held the last other reference to the apps.
        assert_eq!(Arc::strong_count(&apps), 1);
    }

    #[test]
    fn a_worker_panic_panics_the_caller() {
        let apps: Arc<[Application]> = (0..8)
            .map(|i| Application::new(AppId(i), 0, &SIM_APP_CLASSES[0]))
            .collect();
        // Tick 1's utilization is not a number, so its first draw panics.
        let rng = StdRng::seed_from_u64(1);
        let stream = DemandStream::new(apps, rng, 0.5, vec![0.5, f64::NAN], 0.0);
        let mut pipeline = DemandPipeline::spawn(stream);
        let mut out = Vec::new();
        pipeline.next_into(&mut out);
        assert_eq!(out.len(), 8);
        let mut next = || {
            std::panic::catch_unwind(AssertUnwindSafe(|| pipeline.next_into(&mut out)))
                .expect_err("the worker's panic reaches the caller")
        };
        let message = |p: Box<dyn Any + Send>| match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        };
        assert!(message(next()).contains("must be"));
        assert!(message(next()).contains("panicked earlier"));
    }

    /// The paper's 6,561 servers, where demand generation is the largest
    /// layer of a tick. Run it with
    /// `cargo test --release -p willow-sim --lib at_paper_scale -- --ignored`.
    #[test]
    #[ignore = "release-only: 6,561 servers"]
    fn pipelined_engine_matches_inline_at_paper_scale() {
        let mut cfg = config(1, 300);
        cfg.branching = vec![9, 9, 9, 9];
        cfg.utilization = 0.4;
        cfg.faults = Some(FaultPlan {
            seed: 2,
            migration_failure: 0.2,
            abort_fraction: 0.5,
            controller_crash: Some(ControllerCrashPlan {
                checkpoint_period: 50,
                windows: vec![ControllerOutage {
                    from: 120,
                    until: 140,
                }],
            }),
            ..FaultPlan::default()
        });
        cfg.commands = vec![ScheduledCommand {
            tick: 200,
            command: SimCommand::Drain { server: 7 },
        }];
        let m = assert_lockstep(&cfg);
        assert_eq!((m.controller_recoveries, m.commands_applied), (1, 1));
    }
}
