//! Integration test: the full EAC loop — renewable supply, battery UPS,
//! Willow adaptation — holds its invariants across a simulated day.

use rand::rngs::StdRng;
use rand::SeedableRng;
use willow::power::renewable::compose_with_grid;
use willow::power::storage::buffer_trace;
use willow::power::{Battery, SolarModel};
use willow::sim::{SimConfig, Simulation};
use willow::thermal::units::{Seconds, Watts};

fn solar_day(seed: u64) -> willow::power::SupplyTrace {
    let solar = SolarModel::default_plant(Watts(6000.0));
    let mut rng = StdRng::seed_from_u64(seed);
    compose_with_grid(Watts(3300.0), &solar.generate(&mut rng, solar.day_length))
}

#[test]
fn solar_day_with_battery_keeps_invariants() {
    let raw = solar_day(7);
    let mut battery = Battery::new(
        2.0 * 3600.0 * 1000.0,
        0.6,
        Watts(2000.0),
        Watts(2500.0),
        0.92,
    );
    let effective = buffer_trace(&mut battery, &raw, Watts(5500.0), Seconds(900.0));

    let mut cfg = SimConfig::paper_default(7, 0.6);
    cfg.ticks = 96 * cfg.controller.eta1 as usize;
    cfg.warmup = 0;
    cfg.supply = Some(effective.clone());
    let n_apps = cfg.n_servers() * cfg.apps_per_server;
    let mut sim = Simulation::new(cfg).expect("valid");

    let mut night_shed = 0.0;
    let mut noon_shed = 0.0;
    for t in 0..(96 * 4) {
        let (r, _) = sim.step();
        // Conservation through the whole day.
        let hosted: usize = sim.willow().apps().placed();
        assert_eq!(hosted, n_apps);
        // Thermal safety.
        for temp in &r.server_temp {
            assert!(temp.0 <= 70.0 + 1e-6);
        }
        // The drawn power respects the buffered envelope of the window.
        let window = t / 4;
        assert!(
            r.total_power().0 <= effective.at(window).0 + 1e-6,
            "tick {t}: drew {} of {}",
            r.total_power(),
            effective.at(window)
        );
        if window < 12 {
            night_shed += r.dropped_demand.0;
        }
        if (44..52).contains(&window) {
            noon_shed += r.dropped_demand.0;
        }
    }
    // The night envelope (3.3 kW for a fleet demanding ≈4.9 kW at 60 %)
    // forces shedding; around noon the solar ramp lifts the envelope and
    // shedding must (almost) vanish.
    assert!(night_shed > 0.0, "night must be energy-deficient");
    assert!(
        noon_shed < night_shed / 10.0,
        "noon shed {noon_shed} should be a small fraction of night shed {night_shed}"
    );
}

#[test]
fn battery_extends_the_night() {
    // With a big battery the facility rides the night at full consumption;
    // without it the night supply collapses to the grid floor.
    let raw = solar_day(9);
    let consumption = Watts(5000.0);
    let dt = Seconds(900.0);

    let mut big = Battery::new(
        60.0 * 3600.0 * 1000.0,
        1.0,
        Watts(5000.0),
        Watts(5000.0),
        0.95,
    );
    let with_battery = buffer_trace(&mut big, &raw, consumption, dt);

    let mut tiny = Battery::new(1_000.0, 0.0, Watts(10.0), Watts(10.0), 0.95);
    let without = buffer_trace(&mut tiny, &raw, consumption, dt);

    // First night window: the big battery covers consumption, the tiny one
    // leaves only the grid floor.
    assert!(with_battery.at(0).0 >= consumption.0);
    assert!(without.at(0).0 <= 3300.0 + 20.0);
}
