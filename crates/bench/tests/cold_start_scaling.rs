//! Cold-start consolidation scaling: the first engine tick of the
//! `paper-steady` setup (§V-B1 simulation, U = 40 %, hot zone over the
//! last 4/18 of the fleet) runs the round that empties and sleeps the
//! below-threshold servers, so its wall time is the consolidation
//! planner's cost at that fleet size. Ignored by default (the largest
//! fleet has 104,976 servers); run it with
//!
//! ```text
//! cargo test --release -p willow-bench --test cold_start_scaling -- --ignored --nocapture
//! ```
//!
//! and record the printed table in EXPERIMENTS.md § Cold-start
//! consolidation scaling.

use std::time::Instant;
use willow_core::migration::TickReport;
use willow_sim::config::ThermalZone;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{SimConfig, Simulation};
use willow_thermal::units::Celsius;

#[test]
#[ignore = "times a 104,976-server tick; run with --release -- --ignored --nocapture"]
fn cold_start_tick0_scaling() {
    println!(
        "{:>8}  {:>10}  {:>10}  {:>10}  {:>8}",
        "servers", "build s", "tick 0 s", "migrations", "slept"
    );
    for branching in [
        vec![3, 9, 9, 9],
        vec![9, 9, 9, 9],
        vec![3, 9, 9, 9, 9],
        vec![16, 9, 9, 9, 9],
    ] {
        let mut cfg = SimConfig::paper_hot_cold(1, 0.4);
        cfg.branching = branching;
        let n = cfg.n_servers();
        cfg.zones = vec![ThermalZone {
            start: n - n * 4 / 18,
            end: n,
            ambient: Celsius(40.0),
        }];
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg).expect("paper-steady config is valid");
        let build = t0.elapsed().as_secs_f64();
        let (mut report, mut fabric) = (TickReport::default(), FabricSnapshot::default());
        let t0 = Instant::now();
        sim.step_into_buffers(&mut report, &mut fabric);
        let tick0 = t0.elapsed().as_secs_f64();
        println!(
            "{n:>8}  {build:>10.3}  {tick0:>10.3}  {:>10}  {:>8}",
            report.migrations.len(),
            report.slept.len()
        );
        assert!(
            report.consolidation_tick && !report.slept.is_empty(),
            "tick 0 must run the cold-start consolidation round"
        );
    }
}
