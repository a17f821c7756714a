//! Controller decision-cost scaling (paper §V-A2): the distributed scheme
//! solves pod-sized packing instances per level, so the per-period work
//! grows near-linearly in servers with only O(log n) decision depth —
//! measured here as `Willow::step` wall time across topology sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use willow_core::config::ControllerConfig;
use willow_core::controller::Willow;
use willow_core::server::ServerSpec;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

fn build(branching: &[usize]) -> (Willow, Vec<Watts>) {
    let tree = Tree::uniform(branching);
    let mut id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let apps: Vec<Application> = (0..4)
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
    let w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    // Uneven demand so the demand-side machinery actually runs.
    let demands: Vec<Watts> = (0..id)
        .map(|i| {
            let class = i as usize % SIM_APP_CLASSES.len();
            SIM_APP_CLASSES[class].mean_power * if i % 7 == 0 { 0.9 } else { 0.3 }
        })
        .collect();
    (w, demands)
}

fn bench_step_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_step");
    for (label, branching) in [
        ("18-servers", &[2usize, 3, 3][..]),
        ("48-servers", &[3, 4, 4][..]),
        ("128-servers", &[2, 4, 4, 4][..]),
        ("512-servers", &[2, 4, 8, 8][..]),
    ] {
        let (mut willow, demands) = build(branching);
        let n = willow.servers().len() as u64;
        group.throughput(Throughput::Elements(n));
        let supply = Watts(n as f64 * 450.0 * 0.9);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(willow.step(black_box(&demands), supply)))
        });
    }
    group.finish();
}

fn bench_steady_tick(c: &mut Criterion) {
    // Steady-state (no-migration) tick cost over the allocation-free
    // `step_into` path, 3 levels × {27, 243, 2187} servers.
    use willow_core::migration::TickReport;
    use willow_core::Disturbances;
    let mut group = c.benchmark_group("controller_steady_tick");
    for (label, branching) in [
        ("27-servers", &[3usize, 3, 3][..]),
        ("243-servers", &[3, 9, 9][..]),
        ("2187-servers", &[3, 27, 27][..]),
    ] {
        let (mut willow, demands) = build(branching);
        let n = willow.servers().len() as u64;
        // Steady 40 % utilization under ample supply — the workload the
        // zero-allocation invariant is defined over.
        let demands: Vec<Watts> = (0..demands.len())
            .map(|i| SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power * 0.4)
            .collect();
        let supply = Watts(n as f64 * 450.0);
        let quiet = Disturbances::none();
        let mut report = TickReport::default();
        group.throughput(Throughput::Elements(n));
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                willow.step_into(black_box(&demands), supply, &quiet, &mut report);
                black_box(&report);
            })
        });
    }
    group.finish();
}

fn bench_tick_telemetry_overhead(c: &mut Criterion) {
    // Instrumented vs disabled registry on the steady-state tick: the
    // telemetry subsystem's acceptance budget is < 3 % overhead. The
    // "disabled" side carries a default (no-op) registry, so the two
    // benches run identical code paths apart from live handles.
    use willow_core::migration::TickReport;
    use willow_core::Disturbances;
    let mut group = c.benchmark_group("tick_telemetry_overhead");
    for (label, branching) in [
        ("27-servers", &[3usize, 3, 3][..]),
        ("243-servers", &[3, 9, 9][..]),
    ] {
        for mode in ["disabled", "instrumented"] {
            let (mut willow, demands) = build(branching);
            let registry = willow_telemetry::TelemetryRegistry::new();
            if mode == "instrumented" {
                willow.attach_telemetry(&registry);
            }
            let n = willow.servers().len() as u64;
            let demands: Vec<Watts> = (0..demands.len())
                .map(|i| SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power * 0.4)
                .collect();
            let supply = Watts(n as f64 * 450.0);
            let quiet = Disturbances::none();
            let mut report = TickReport::default();
            group.throughput(Throughput::Elements(n));
            group.bench_function(BenchmarkId::new(mode, label), |b| {
                b.iter(|| {
                    willow.step_into(black_box(&demands), supply, &quiet, &mut report);
                    black_box(&report);
                })
            });
        }
    }
    group.finish();
}

fn bench_message_emulation(c: &mut Criterion) {
    // δ-convergence emulation cost across topology depths (§V-A1).
    let mut group = c.benchmark_group("message_round");
    for (label, branching) in [
        ("h2-16", &[4usize, 4][..]),
        ("h3-64", &[4, 4, 4][..]),
        ("h4-256", &[4, 4, 4, 4][..]),
    ] {
        let tree = Tree::uniform(branching);
        let demands: Vec<Watts> = (0..tree.leaves().count())
            .map(|i| Watts(10.0 + i as f64))
            .collect();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                black_box(willow_sim::messaging::emulate_round(
                    black_box(&tree),
                    willow_thermal::units::Seconds(0.01),
                    black_box(&demands),
                    Watts(1e5),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_step_scaling,
    bench_steady_tick,
    bench_tick_telemetry_overhead,
    bench_message_emulation
);
criterion_main!(benches);
