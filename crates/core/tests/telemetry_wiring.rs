//! The controller's telemetry wiring: attaching a registry must record
//! phase timings and counters without perturbing the control trajectory.

use willow_core::config::ControllerConfig;
use willow_core::control::Willow;
use willow_core::server::ServerSpec;
use willow_core::Disturbances;
use willow_telemetry::{MetricValue, TelemetryRegistry};
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

fn build() -> (Willow, Vec<Watts>) {
    let tree = Tree::uniform(&[3, 3, 3]);
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
    let willow = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    let demands: Vec<Watts> = (0..id)
        .map(|i| SIM_APP_CLASSES[i as usize % SIM_APP_CLASSES.len()].mean_power * 0.3)
        .collect();
    (willow, demands)
}

#[test]
fn instrumented_ticks_match_uninstrumented_bit_for_bit() {
    let (mut plain, demands) = build();
    let (mut instrumented, _) = build();
    let registry = TelemetryRegistry::new();
    instrumented.attach_telemetry(&registry);
    let supply = Watts(plain.servers().len() as f64 * 450.0);
    let quiet = Disturbances::none();
    for tick in 0..50 {
        let a = plain.step_with(&demands, supply, &quiet);
        let b = instrumented.step_with(&demands, supply, &quiet);
        assert_eq!(a, b, "trajectories diverged at tick {tick}");
    }
}

#[test]
fn phase_spans_and_counters_record() {
    let (mut willow, demands) = build();
    let registry = TelemetryRegistry::new();
    willow.attach_telemetry(&registry);
    let supply = Watts(willow.servers().len() as f64 * 450.0);
    let quiet = Disturbances::none();
    // Several full sampling windows, each wide enough to contain supply
    // (η₁) and consolidation (η₂) ticks.
    let period = willow_core::control::SPAN_SAMPLE_PERIOD;
    let windows = 4;
    let ticks = windows
        * period
            .max(u64::from(willow.config().eta2))
            .next_multiple_of(period);
    for _ in 0..ticks {
        let _ = willow.step_with(&demands, supply, &quiet);
    }
    let snap = registry.snapshot();
    let hist_count = |name: &str| {
        snap.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Histogram { count, .. } => *count,
                other => panic!("{name} is not a histogram: {other:?}"),
            })
            .unwrap_or_else(|| panic!("{name} not registered"))
    };
    // Spans are sampled once per phase per window: every-tick phases
    // record exactly one sample per elapsed window, conditional phases
    // (supply on η₁ ticks, consolidate on η₂ ticks) at most that.
    let sampled = ticks / period;
    assert_eq!(
        hist_count("willow_controller_phase_measure_seconds"),
        sampled
    );
    assert_eq!(
        hist_count("willow_controller_phase_demand_seconds"),
        sampled
    );
    assert_eq!(
        hist_count("willow_controller_phase_physics_seconds"),
        sampled
    );
    for phase in ["supply", "consolidate"] {
        let count = hist_count(&format!("willow_controller_phase_{phase}_seconds"));
        assert!(
            (1..=sampled).contains(&count),
            "{phase} sampled {count} times over {sampled} windows"
        );
    }

    // Counters and gauges exist (values depend on the scenario).
    for name in [
        "willow_controller_migrations_total",
        "willow_controller_migration_aborts_total",
        "willow_controller_watchdog_trips_total",
        "willow_fabric_query_traffic_units",
        "willow_controller_level_deficit_watts_l0",
        "willow_controller_level_deficit_watts_l3",
    ] {
        assert!(
            snap.metrics.iter().any(|m| m.name == name),
            "{name} missing from snapshot"
        );
    }
    // Query traffic flows every tick, so the gauge must be live.
    let query = snap
        .metrics
        .iter()
        .find(|m| m.name == "willow_fabric_query_traffic_units")
        .unwrap();
    match &query.value {
        MetricValue::Gauge { value } => assert!(*value > 0.0, "query gauge stuck at {value}"),
        other => panic!("expected gauge, got {other:?}"),
    }
    // And the Prometheus rendition carries all of it.
    let text = registry.render_prometheus();
    assert!(text.contains("willow_controller_phase_measure_seconds_bucket"));
    assert!(text.contains("willow_controller_migrations_total"));
    assert!(!text.contains("NaN"));
}
