//! End-to-end integration tests across the whole workspace, driven through
//! the `willow` facade crate.

use willow::core::config::{AllocationPolicy, ControllerConfig};
use willow::core::controller::Willow;
use willow::core::server::ServerSpec;
use willow::sim::{SimConfig, Simulation};
use willow::thermal::units::Watts;
use willow::topology::Tree;
use willow::workload::app::{AppId, Application, SIM_APP_CLASSES};

/// The full paper pipeline: Fig. 3 topology, random mix, hot zone,
/// 300-tick run — all structural invariants must hold at once.
#[test]
fn paper_pipeline_invariants() {
    let mut cfg = SimConfig::paper_hot_cold(2011, 0.6);
    cfg.ticks = 300;
    cfg.warmup = 0;
    let mut sim = Simulation::new(cfg).expect("paper config builds");
    let metrics = sim.run();

    // Thermal safety: never above the 70 °C limit.
    for (i, peak) in metrics.peak_server_temp.iter().enumerate() {
        assert!(*peak <= 70.0 + 1e-6, "server {i} peaked at {peak}");
    }
    // Stability: no ping-pong control.
    assert_eq!(metrics.pingpongs, 0);
    // The run actually exercised the controller.
    assert!(metrics.total_migrations() > 0);
    // Power accounting is sane: servers draw less than their rating.
    for p in &metrics.avg_server_power {
        assert!(*p >= 0.0 && *p <= 450.0 + 1e-6);
    }
}

/// Budgets respect the supply at every level: total drawn power never
/// exceeds the offered supply.
#[test]
fn supply_is_a_hard_ceiling() {
    let mut cfg = SimConfig::paper_default(5, 0.8);
    cfg.ticks = 150;
    cfg.warmup = 0;
    cfg.supply = Some(willow::power::SupplyTrace::constant(Watts(3000.0), 40));
    let mut sim = Simulation::new(cfg).expect("valid");
    for _ in 0..150 {
        let (report, _) = sim.step();
        assert!(
            report.total_power().0 <= 3000.0 + 1e-6,
            "drew {} of 3000 W",
            report.total_power()
        );
    }
}

/// Applications are conserved through arbitrary churn (migrations,
/// consolidation, sleep/wake) across a long mixed run.
#[test]
fn application_conservation_long_run() {
    let mut cfg = SimConfig::paper_hot_cold(13, 0.5);
    cfg.ticks = 400;
    cfg.warmup = 0;
    let n_apps = cfg.n_servers() * cfg.apps_per_server;
    let mut sim = Simulation::new(cfg).expect("valid");
    for _ in 0..400 {
        let _ = sim.step();
        let hosted: usize = sim.willow().apps().placed();
        assert_eq!(hosted, n_apps);
    }
}

/// The same controller code drives both the simulator topology and the
/// testbed topology — construct both and check their trees' shapes.
#[test]
fn one_controller_two_substrates() {
    // Simulator: 4 levels / 18 servers.
    let sim_cfg = SimConfig::paper_default(1, 0.3);
    let sim = Simulation::new(sim_cfg).expect("valid");
    assert_eq!(sim.willow().tree().height(), 3);
    assert_eq!(sim.willow().servers().len(), 18);

    // Testbed: 2 levels / 3 hosts.
    let cluster = willow::testbed::TestbedCluster::new(
        willow::testbed::ClusterConfig::default(),
        willow::testbed::experiments::paper_placement(),
    );
    assert_eq!(cluster.willow().tree().height(), 2);
    assert_eq!(cluster.willow().servers().len(), 3);
}

/// Migrations must move whole applications — a demand is never split
/// between two servers (paper §IV-E).
#[test]
fn demands_are_never_split() {
    let tree = Tree::uniform(&[2, 2]);
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let apps: Vec<Application> = (0..3)
                .map(|_| {
                    let a = Application::new(AppId(id), 2, &SIM_APP_CLASSES[2]);
                    id += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    let mut cfg = ControllerConfig::default();
    cfg.allocation = AllocationPolicy::EqualShare;
    let mut w = Willow::new(tree, specs, cfg).unwrap();

    let demands = vec![Watts(60.0); id as usize];
    for t in 0..80u64 {
        let supply = Watts(if t % 17 < 8 { 900.0 } else { 1400.0 });
        let _ = w.step(&demands, supply);
        // Every app id appears on exactly one server.
        let mut seen = std::collections::HashSet::new();
        for si in 0..w.servers().len() {
            for a in w.apps().on(si) {
                assert!(seen.insert(a), "{a} hosted twice");
            }
        }
        assert_eq!(seen.len(), id as usize);
    }
}

/// Determinism across the full stack: identical seeds yield identical
/// migration sequences, temperatures and power draws.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut cfg = SimConfig::paper_hot_cold(seed, 0.7);
        cfg.ticks = 120;
        cfg.warmup = 0;
        let mut sim = Simulation::new(cfg).expect("valid");
        let mut log = Vec::new();
        for _ in 0..120 {
            let (r, f) = sim.step();
            log.push((
                r.migrations.len(),
                r.total_power().0.to_bits(),
                f.l1_migration
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            ));
        }
        log
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}
