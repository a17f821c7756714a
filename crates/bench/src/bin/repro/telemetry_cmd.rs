//! `repro -- telemetry`: exercise every instrumented subsystem and dump
//! both telemetry sinks.
//!
//! Runs a short paper-default simulation with an enabled registry (phase
//! spans, migration counters, fabric gauges, tick histogram), then a
//! message-plane sweep — clean rounds, probabilistically faulted rounds
//! and a severed-link round — folded into the same registry. Emits the
//! Prometheus text exposition and the JSON snapshot (plus the snapshot
//! merged into the JSONL event stream), and self-validates both: the
//! process exits non-zero if the Prometheus text is missing an expected
//! family or the JSON does not round-trip. CI runs this as a smoke step.

use willow_sim::config::SimConfig;
use willow_sim::engine::Simulation;
use willow_sim::messaging::{emulate_round, MessageFaults, MessagingTelemetry, RoundScratch};
use willow_sim::trace::EventLog;
use willow_telemetry::{TelemetryRegistry, TelemetrySnapshot};
use willow_thermal::units::Seconds;
use willow_topology::Tree;

/// Demand periods of simulation to run before snapshotting.
const SIM_TICKS: usize = 96;
/// Emulated reporting rounds per message-plane scenario.
const ROUNDS: u64 = 64;

/// Metric families that must appear in the Prometheus rendition; one per
/// instrumented subsystem, so a broken wire fails the smoke test.
const REQUIRED_FAMILIES: [&str; 10] = [
    "willow_controller_phase_measure_seconds_bucket",
    "willow_controller_phase_demand_seconds_bucket",
    "willow_controller_phase_physics_seconds_bucket",
    "willow_controller_migrations_total",
    "willow_controller_level_deficit_watts_l0",
    "willow_fabric_query_traffic_units",
    "willow_sim_tick_seconds_bucket",
    "willow_messages_lost_total",
    "willow_rounds_unconverged_total",
    "willow_round_convergence_seconds_bucket",
];

/// Run the dump; exits the process with status 1 on validation failure.
pub fn run(seed: u64) {
    let registry = TelemetryRegistry::new();

    // Controller + engine: a short paper-default run at 40 % utilization.
    let mut sim = Simulation::new(SimConfig::paper_default(seed, 0.4)).expect("valid config");
    sim.attach_telemetry(&registry);
    let mut report = willow_core::migration::TickReport::default();
    for _ in 0..SIM_TICKS {
        let _ = sim.step_into(&mut report);
    }

    // Message plane: clean rounds, faulted rounds, and one severed link
    // (the genuine non-convergence case behind the Option sentinels).
    let tel = MessagingTelemetry::register(&registry);
    let tree = Tree::uniform(&[2, 3, 3]);
    let demands: Vec<_> = (0..tree.leaves().count())
        .map(|i| willow_thermal::units::Watts(10.0 + i as f64))
        .collect();
    let supply = willow_thermal::units::Watts(1e5);
    let alpha = Seconds(0.01);
    let mut scratch = RoundScratch::default();
    let clean = MessageFaults::default();
    let faulty = MessageFaults {
        loss: 0.2,
        duplication: 0.1,
        delay: 0.2,
        dead_link: None,
    };
    let first_leaf = tree.leaves().next().expect("tree has leaves");
    let severed = MessageFaults {
        dead_link: Some((
            first_leaf,
            tree.parent(first_leaf).expect("leaf has parent"),
        )),
        ..MessageFaults::default()
    };
    for round in 0..ROUNDS {
        for faults in [&clean, &faulty, &severed] {
            let outcome = emulate_round(
                &tree,
                alpha,
                &demands,
                supply,
                faults,
                seed ^ round,
                &mut scratch,
            );
            tel.observe_round(&outcome);
        }
    }

    // Sink 1: Prometheus text exposition.
    let text = registry.render_prometheus();
    println!("# ---- prometheus exposition ----");
    print!("{text}");

    // Sink 2: JSON snapshot, standalone and merged into the event stream.
    let snapshot = registry.snapshot();
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let mut log = EventLog::new();
    log.record_telemetry(SIM_TICKS as u64, snapshot.clone());
    let jsonl = log.to_jsonl().expect("event log serializes");
    println!("# ---- json snapshot ----");
    println!("{json}");
    println!("# ---- jsonl event stream ----");
    print!("{jsonl}");

    if let Err(msg) = validate(&text, &json, &jsonl, &snapshot) {
        eprintln!("telemetry self-validation FAILED: {msg}");
        std::process::exit(1);
    }
    eprintln!(
        "telemetry self-validation passed: {} metrics, {} required families present",
        snapshot.metrics.len(),
        REQUIRED_FAMILIES.len()
    );
}

fn validate(
    text: &str,
    json: &str,
    jsonl: &str,
    snapshot: &TelemetrySnapshot,
) -> Result<(), String> {
    if text.trim().is_empty() {
        return Err("empty Prometheus exposition".to_owned());
    }
    for family in REQUIRED_FAMILIES {
        if !text.contains(family) {
            return Err(format!("Prometheus exposition is missing `{family}`"));
        }
    }
    if text.contains("NaN") {
        return Err("Prometheus exposition contains NaN".to_owned());
    }
    let parsed: TelemetrySnapshot =
        serde_json::from_str(json).map_err(|e| format!("snapshot JSON does not parse: {e}"))?;
    if &parsed != snapshot {
        return Err("snapshot JSON round-trip is lossy".to_owned());
    }
    let line = jsonl
        .lines()
        .next()
        .ok_or_else(|| "empty JSONL stream".to_owned())?;
    let event: willow_sim::trace::TimedEvent =
        serde_json::from_str(line).map_err(|e| format!("JSONL line does not parse: {e}"))?;
    match event.event {
        willow_sim::trace::Event::Telemetry { snapshot: s } if &s == snapshot => Ok(()),
        other => Err(format!("JSONL event is not the snapshot: {other:?}")),
    }
}
