//! The emulated 3-host cluster with its 2-level control plane (Fig. 13).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use willow_core::config::{AllocationPolicy, ControllerConfig};
use willow_core::control::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::Application;

/// Configuration of a testbed run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RNG seed for demand jitter.
    pub seed: u64,
    /// Relative demand jitter amplitude (the web apps are CPU-bound and
    /// fairly steady; the paper's traces still wiggle).
    pub noise: f64,
    /// Amplitude of the slow per-app load swing (user populations shift
    /// over time, re-creating utilization skew between hosts).
    pub swing: f64,
    /// Period of the slow swing, in demand ticks.
    pub swing_period: usize,
    /// Controller tunables.
    pub controller: ControllerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let mut controller = ControllerConfig::default();
        // §V-C4: supply divided equally among the (identical) hosts.
        controller.allocation = AllocationPolicy::EqualShare;
        // Margins at app scale (apps are 8–15 W).
        controller.margin = Watts(2.0);
        // C sits at "20 %" in the paper and consolidates; use a threshold
        // just above it.
        controller.consolidation_threshold = 0.21;
        ClusterConfig {
            seed: 1,
            noise: 0.02,
            swing: 0.20,
            swing_period: 40,
            controller,
        }
    }
}

/// The emulated cluster: hosts A and B under switch 1, host C under
/// switch 2, all driven by the same `willow-core` controller the simulator
/// uses.
pub struct TestbedCluster {
    willow: Willow,
    apps: Vec<Application>,
    rng: StdRng,
    noise: f64,
    swing: f64,
    swing_period: usize,
    tick: usize,
    design_util: [f64; 3],
}

impl TestbedCluster {
    /// Build the cluster with the given initial app placement
    /// `[host A, host B, host C]`. App ids must be dense from 0.
    ///
    /// # Panics
    /// Panics if the controller construction fails (duplicate app ids,
    /// invalid config).
    #[must_use]
    pub fn new(config: ClusterConfig, placement: [Vec<Application>; 3]) -> Self {
        let tree = Tree::paper_testbed();
        let names = ["serverA", "serverB", "serverC"];
        let mut apps: Vec<Application> = placement.iter().flatten().cloned().collect();
        apps.sort_by_key(|a| a.id);
        let specs: Vec<ServerSpec> = names
            .iter()
            .zip(placement)
            .map(|(name, hosted)| {
                let node = tree.find(name).expect("testbed tree has this server");
                ServerSpec::testbed_default(node).with_apps(hosted)
            })
            .collect();
        let mut design_util = [0.0; 3];
        for (u, spec) in design_util.iter_mut().zip(&specs) {
            let apps: Watts = spec.apps.iter().map(|a| a.mean_power).sum();
            *u = (apps / spec.full_util_power).clamp(0.0, 1.0);
        }
        let willow = Willow::new(tree, specs, config.controller.clone())
            .expect("testbed construction is valid");
        TestbedCluster {
            willow,
            apps,
            rng: StdRng::seed_from_u64(config.seed),
            noise: config.noise,
            swing: config.swing,
            swing_period: config.swing_period,
            tick: 0,
            design_util,
        }
    }

    /// CPU utilization each host was *configured* with (from the initial
    /// placement's mean app powers) — the "initial utilization" column of
    /// Table III, captured before any control action.
    #[must_use]
    pub fn design_utilizations(&self) -> [f64; 3] {
        self.design_util
    }

    /// The underlying controller (for probes).
    #[must_use]
    pub fn willow(&self) -> &Willow {
        &self.willow
    }

    /// Current CPU utilization of each host (A, B, C).
    #[must_use]
    pub fn host_utilizations(&self) -> [f64; 3] {
        let s = self.willow.servers();
        [s[0].utilization(), s[1].utilization(), s[2].utilization()]
    }

    /// Drive one demand period under the given total supply.
    pub fn step(&mut self, supply: Watts) -> TickReport {
        let t = self.tick as f64;
        let period = self.swing_period.max(1) as f64;
        let demands: Vec<Watts> = self
            .apps
            .iter()
            .map(|app| {
                // Slow deterministic swing with per-app phase: user load
                // shifts between applications over time.
                let phase = f64::from(app.id.0) * 2.39996; // golden-angle spread
                let swing =
                    1.0 + self.swing * (2.0 * std::f64::consts::PI * t / period + phase).sin();
                let jitter = 1.0 + self.noise * (self.rng.gen::<f64>() * 2.0 - 1.0);
                (app.mean_power * swing * jitter).non_negative()
            })
            .collect();
        let report = self.willow.step(&demands, supply);
        self.tick += 1;
        report
    }

    /// Total cluster power drawn in a report, using the Table-I host curve
    /// (what the Extech analyzer would have measured): for each active
    /// host, static power plus its share of app power, capped at the
    /// measured 100 %-utilization draw.
    #[must_use]
    pub fn measured_power(&self, report: &TickReport) -> Watts {
        report
            .server_power
            .iter()
            .zip(&report.server_active)
            .map(|(p, active)| if *active { *p } else { Watts::ZERO })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppFactory;

    fn paper_placement() -> [Vec<Application>; 3] {
        let mut f = AppFactory::new();
        // A ≈ 72 % CPU (A3 + A2 + A2 = 35 W), B ≈ 37 % (A2 + A1 = 18 W),
        // C ≈ 16.5 % (A1 = 8 W).
        [
            vec![f.a3(), f.a2(), f.a2()],
            vec![f.a2(), f.a1()],
            vec![f.a1()],
        ]
    }

    #[test]
    fn initial_utilizations_match_design() {
        let mut cfg = ClusterConfig::default();
        cfg.controller.consolidation_threshold = 0.0; // no tick-0 packing
        let mut cluster = TestbedCluster::new(cfg, paper_placement());
        let [da, db, dc] = cluster.design_utilizations();
        assert!((da - 0.72).abs() < 0.01, "design A = {da}");
        assert!((db - 0.37).abs() < 0.01, "design B = {db}");
        assert!((dc - 0.165).abs() < 0.01, "design C = {dc}");
        // One step so demands are measured; live utils track the design.
        let _ = cluster.step(Watts(700.0));
        let [a, b, c] = cluster.host_utilizations();
        assert!((a - 0.72).abs() < 0.15, "A = {a}");
        assert!((b - 0.37).abs() < 0.15, "B = {b}");
        assert!(c < 0.3, "C = {c}");
    }

    #[test]
    fn ample_supply_keeps_everyone_within_budget() {
        let mut cfg = ClusterConfig::default();
        cfg.controller.consolidation_threshold = 0.0; // isolate budgets
        let mut cluster = TestbedCluster::new(cfg, paper_placement());
        for _ in 0..40 {
            let r = cluster.step(Watts(750.0));
            assert_eq!(r.dropped_demand, Watts(0.0));
        }
    }

    #[test]
    fn measured_power_matches_table1_scale() {
        let mut cfg = ClusterConfig::default();
        cfg.controller.consolidation_threshold = 0.0;
        cfg.swing = 0.0;
        cfg.noise = 0.0;
        let mut cluster = TestbedCluster::new(cfg, paper_placement());
        let mut last = Watts::ZERO;
        for _ in 0..20 {
            let r = cluster.step(Watts(750.0));
            last = cluster.measured_power(&r);
        }
        // 3 × static (512) + 61 W of apps ≈ 573 W.
        assert!(
            (last.0 - 573.0).abs() < 10.0,
            "measured {last} vs expected ≈573 W"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut cfg = ClusterConfig::default();
            cfg.seed = seed;
            let mut cluster = TestbedCluster::new(cfg, paper_placement());
            (0..30)
                .map(|_| cluster.step(Watts(700.0)).total_power().0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
