//! Ablation studies for the design choices called out in `DESIGN.md`.
//!
//! Criterion measures wall time; the quality metrics each variant produces
//! (migrations, drops, thermal violations) are printed once to stderr
//! before timing so `cargo bench` output doubles as the ablation report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use willow_core::config::{
    AllocationPolicy, ConsolidationPolicyChoice, ControllerConfig, PackerChoice, ReducedTargetRule,
    SmootherKind, TargetPolicyChoice, ThermalEstimate,
};
use willow_sim::{RunMetrics, SimConfig, Simulation};
use willow_thermal::units::Watts;

const SEED: u64 = 2011;
const TICKS: usize = 120;

fn run_with(mutate: impl Fn(&mut ControllerConfig)) -> RunMetrics {
    let mut cfg = SimConfig::paper_hot_cold(SEED, 0.6);
    cfg.ticks = TICKS;
    cfg.warmup = 0;
    mutate(&mut cfg.controller);
    Simulation::new(cfg).expect("valid ablation config").run()
}

fn report(label: &str, m: &RunMetrics) {
    // Folding from NEG_INFINITY would print "peak temp=-inf °C" when the
    // metrics carry no servers; report the empty case explicitly instead.
    let peak = if m.peak_server_temp.is_empty() {
        "n/a".to_owned()
    } else {
        let max = m
            .peak_server_temp
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        format!("{max:.1} °C")
    };
    eprintln!(
        "[ablation] {label}: migrations={} (demand={}, consolidation={}), \
         pingpongs={}, avg dropped={:.2} W, peak temp={}",
        m.total_migrations(),
        m.demand_migrations,
        m.consolidation_migrations,
        m.pingpongs,
        m.avg_dropped,
        peak
    );
}

fn ablation_packers(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_packers");
    g.sample_size(10);
    for packer in [
        PackerChoice::Ffdlr,
        PackerChoice::FirstFitDecreasing,
        PackerChoice::BestFitDecreasing,
        PackerChoice::NextFit,
    ] {
        let label = format!("{packer:?}");
        report(&label, &run_with(|cc| cc.packer = packer));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.packer = packer)))
        });
    }
    g.finish();
}

fn ablation_target_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_target_policy");
    g.sample_size(10);
    for policy in [
        TargetPolicyChoice::AscendingId,
        TargetPolicyChoice::BestFit,
        TargetPolicyChoice::ThermalHeadroom,
    ] {
        let label = format!("{policy:?}");
        report(&label, &run_with(|cc| cc.target_policy = policy));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.target_policy = policy)))
        });
    }
    g.finish();
}

fn ablation_consolidation_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_consolidation_policy");
    g.sample_size(10);
    for policy in [
        ConsolidationPolicyChoice::HotZonesFirst,
        ConsolidationPolicyChoice::MostHeadroomReceivers,
    ] {
        let label = format!("{policy:?}");
        report(&label, &run_with(|cc| cc.consolidation_policy = policy));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.consolidation_policy = policy)))
        });
    }
    g.finish();
}

fn ablation_margin(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_margin");
    g.sample_size(10);
    for margin in [0.0, 5.0, 20.0, 60.0] {
        let label = format!("Pmin={margin}W");
        report(&label, &run_with(|cc| cc.margin = Watts(margin)));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.margin = Watts(margin))))
        });
    }
    g.finish();
}

fn ablation_unidirectional(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_unidirectional");
    g.sample_size(10);
    for rule in [
        ReducedTargetRule::Disproportionate,
        ReducedTargetRule::Strict,
        ReducedTargetRule::Off,
    ] {
        let label = format!("{rule:?}");
        report(&label, &run_with(|cc| cc.reduced_rule = rule));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.reduced_rule = rule)))
        });
    }
    g.finish();
}

fn ablation_allocation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_allocation");
    g.sample_size(10);
    for policy in [
        AllocationPolicy::ProportionalToDemand,
        AllocationPolicy::EqualShare,
        AllocationPolicy::ProportionalToCapacity,
    ] {
        let label = format!("{policy:?}");
        report(&label, &run_with(|cc| cc.allocation = policy));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.allocation = policy)))
        });
    }
    g.finish();
}

fn ablation_thermal(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_thermal");
    g.sample_size(10);
    for estimate in [
        ThermalEstimate::WindowPrediction,
        ThermalEstimate::NaiveThrottle,
    ] {
        let label = format!("{estimate:?}");
        report(&label, &run_with(|cc| cc.thermal_estimate = estimate));
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.thermal_estimate = estimate)))
        });
    }
    g.finish();
}

fn ablation_step_size(c: &mut Criterion) {
    // Step-size sensitivity: halving/doubling the supply/consolidation
    // multipliers (η1, η2) around the paper's (4, 7).
    let mut g = c.benchmark_group("ablation_step_size");
    g.sample_size(10);
    for (eta1, eta2) in [(2u32, 3u32), (4, 7), (8, 14)] {
        let label = format!("eta1={eta1},eta2={eta2}");
        let m = run_with(|cc| {
            cc.eta1 = eta1;
            cc.eta2 = eta2;
        });
        report(&label, &m);
        g.bench_function(BenchmarkId::from_parameter(&label), |b| {
            b.iter(|| {
                black_box(run_with(|cc| {
                    cc.eta1 = eta1;
                    cc.eta2 = eta2;
                }))
            })
        });
    }
    g.finish();
}

fn ablation_smoother(c: &mut Criterion) {
    // Eq.-4 exponential smoothing vs Holt level+trend (the "ARIMA-type"
    // alternative §IV-C mentions) under drifting demand.
    let mut g = c.benchmark_group("ablation_smoother");
    g.sample_size(10);
    for (label, kind) in [
        ("exponential", SmootherKind::Exponential),
        ("holt", SmootherKind::Holt { beta: 0.2 }),
    ] {
        report(label, &run_with(|cc| cc.smoother = kind));
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(run_with(|cc| cc.smoother = kind)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_packers,
    ablation_target_policy,
    ablation_consolidation_policy,
    ablation_margin,
    ablation_unidirectional,
    ablation_allocation,
    ablation_thermal,
    ablation_step_size,
    ablation_smoother
);
criterion_main!(benches);
