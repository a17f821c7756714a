//! Differential equivalence test: the optimized, scratch-workspace
//! [`crate::control::Willow`] must be **bit-for-bit** identical to the
//! frozen pre-optimization copy in [`crate::reference`] — same
//! `TickReport`s, same budget (`TP`) and demand (`CP`) vectors — over long
//! faulted runs on randomized trees. Any divergence means the optimization
//! changed behavior, not just speed.

use crate::config::ControllerConfig;
use crate::control::Willow;
use crate::disturbance::{Disturbances, MigrationOutcome};
use crate::reference::ReferenceWillow;
use crate::server::ServerSpec;
use willow_thermal::units::{Celsius, Watts};
use willow_topology::{Tree, TreeBuilder};
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

/// Deterministic splitmix64: the tests must not depend on `rand` versions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// A random tree with 2–3 PMU levels and varying branching, built through
/// the builder so ids exercise the generic (non-`uniform`) path.
fn random_tree(rng: &mut Rng) -> Tree {
    let depth = 2 + rng.below(2) as usize;
    let mut b = TreeBuilder::new("dc");
    let mut frontier = vec![b.root()];
    for lvl in 0..depth {
        let mut next = Vec::new();
        for &parent in &frontier {
            let k = 1 + rng.below(3) as usize;
            for i in 0..k {
                next.push(b.add_child(parent, format!("n{lvl}-{i}-{}", next.len())));
            }
        }
        frontier = next;
    }
    b.build().expect("uniform-depth construction")
}

/// Server specs (2–4 apps each) plus the flat demand vector index space.
fn random_specs(tree: &Tree, rng: &mut Rng) -> (Vec<ServerSpec>, usize) {
    let mut next_app = 0u32;
    let specs = tree
        .leaves()
        .map(|leaf| {
            let n_apps = 2 + rng.below(3) as usize;
            let apps: Vec<Application> = (0..n_apps)
                .map(|_| {
                    let class = rng.below(SIM_APP_CLASSES.len() as u64) as usize;
                    let a = Application::new(AppId(next_app), class, &SIM_APP_CLASSES[class]);
                    next_app += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    (specs, next_app as usize)
}

/// A faulted period: message losses, sensor noise, crashes, and pre-rolled
/// migration failures, all drawn from the deterministic stream.
fn random_disturbances(servers: usize, rng: &mut Rng) -> Disturbances {
    let flags = |rng: &mut Rng, p: f64| (0..servers).map(|_| rng.chance(p)).collect::<Vec<_>>();
    Disturbances {
        crashed: flags(rng, 0.02),
        report_lost: flags(rng, 0.05),
        directive_lost: flags(rng, 0.05),
        sensor_override: (0..servers)
            .map(|_| rng.chance(0.02).then(|| Celsius(20.0 + 80.0 * rng.unit())))
            .collect(),
        sensor_offset: (0..servers)
            .map(|_| {
                if rng.chance(0.1) {
                    4.0 * rng.unit() - 2.0
                } else {
                    0.0
                }
            })
            .collect(),
        migration_outcomes: (0..8)
            .map(|_| match rng.below(10) {
                0 => MigrationOutcome::Reject,
                1 => MigrationOutcome::Abort,
                _ => MigrationOutcome::Success,
            })
            .collect(),
    }
}

/// Assert every externally observable vector matches to the bit. `PartialEq`
/// on `f64` treats `-0.0 == 0.0`; the Debug strings distinguish them, so
/// comparing both gives bit-level equality without hand-rolled bit casts.
fn assert_identical(tick: u64, opt: &Willow, reference: &ReferenceWillow) {
    let (p, q) = (opt.power(), reference.power());
    assert_eq!(
        format!("{:?}", p.tp),
        format!("{:?}", q.tp),
        "TP @ tick {tick}"
    );
    assert_eq!(
        format!("{:?}", p.cp),
        format!("{:?}", q.cp),
        "CP @ tick {tick}"
    );
    assert_eq!(
        format!("{:?}", p.cap),
        format!("{:?}", q.cap),
        "caps @ tick {tick}"
    );
    assert_eq!(p.reduced, q.reduced, "reduced flags @ tick {tick}");
    assert_eq!(
        opt.last_moves(),
        reference.last_moves(),
        "ping-pong log @ tick {tick}"
    );
    assert_eq!(opt.stats(), reference.stats(), "op counters @ tick {tick}");
    for (s_opt, s_ref) in opt.servers().iter().zip(reference.servers()) {
        assert_eq!(s_opt.active, s_ref.active, "active @ tick {tick}");
        assert_eq!(
            format!("{:?}", s_opt.apps),
            format!("{:?}", s_ref.apps),
            "placement @ tick {tick}"
        );
    }
}

fn run_differential(seed: u64, ticks: u64, demand_scale: f64) {
    let mut rng = Rng(seed);
    let tree = random_tree(&mut rng);
    let (specs, n_apps) = random_specs(&tree, &mut rng);
    let servers = specs.len();
    let config = ControllerConfig::default();

    let mut opt = Willow::new(tree.clone(), specs.clone(), config.clone()).unwrap();
    let mut reference = ReferenceWillow::new(tree, specs, config).unwrap();

    let full: Watts = Watts(servers as f64 * 450.0);
    let mut report_buf = crate::migration::TickReport::default();
    for tick in 0..ticks {
        // Sinusoid + noise demand, occasionally spiking, so deficits,
        // consolidation and wake-ups all trigger across the run.
        let phase = tick as f64 / 23.0;
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| {
                let base = SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power.0;
                let wave = 0.5 + 0.45 * (phase + i as f64).sin();
                let spike = if rng.chance(0.03) { 2.0 } else { 1.0 };
                Watts((base * demand_scale * wave * spike).max(0.0))
            })
            .collect();
        // Supply swings push the system through scarcity episodes.
        let supply = full * (0.55 + 0.4 * (tick as f64 / 41.0).cos().abs());
        let disturb = random_disturbances(servers, &mut rng);

        let r_ref = reference.step_with(&demands, supply, &disturb);
        opt.step_into(&demands, supply, &disturb, &mut report_buf);
        assert_eq!(report_buf, r_ref, "TickReport diverged at tick {tick}");
        assert_eq!(
            format!("{report_buf:?}"),
            format!("{r_ref:?}"),
            "TickReport bits diverged at tick {tick}"
        );
        assert_identical(tick, &opt, &reference);
    }
}

/// Run one faulted + command-scripted workload through a serial controller
/// and a sharded one in lockstep, asserting bit-for-bit identical
/// `TickReport`s every tick and identical full snapshots periodically
/// (`config.threads` is the one intentional difference and is normalized
/// away before comparing).
fn run_thread_differential(seed: u64, ticks: u64, threads: usize, demand_scale: f64) {
    let mut rng = Rng(seed);
    let tree = random_tree(&mut rng);
    let (specs, n_apps) = random_specs(&tree, &mut rng);
    let servers = specs.len();
    let config = ControllerConfig::default();
    assert_eq!(config.threads, 1, "serial baseline");
    let mut par_config = config.clone();
    par_config.threads = threads;

    let mut serial = Willow::new(tree.clone(), specs.clone(), config).unwrap();
    let mut sharded = Willow::new(tree.clone(), specs, par_config).unwrap();

    // Live-ops command script: drain → retire → re-add on the same leaf
    // position (exercising arena slot reuse under parallelism), a packer
    // hot-swap, and a pause/resume window — submitted identically to both.
    let parent = tree.parent(serial.servers()[0].node).unwrap();
    let script: Vec<(u64, crate::command::Command)> = vec![
        (40, crate::command::Command::Drain { server: 1 }),
        (80, crate::command::Command::RemoveServer { server: 1 }),
        (
            110,
            crate::command::Command::AddServer {
                parent,
                name: "tdiff-readd".to_string(),
            },
        ),
        (
            150,
            crate::command::Command::SwapPacker {
                packer: crate::config::PackerChoice::BestFitDecreasing,
            },
        ),
        (200, crate::command::Command::Pause),
        (240, crate::command::Command::Resume),
    ];

    let full: Watts = Watts(servers as f64 * 450.0);
    let mut r_serial = crate::migration::TickReport::default();
    let mut r_sharded = crate::migration::TickReport::default();
    for tick in 0..ticks {
        for (at, cmd) in &script {
            if *at == tick {
                serial.submit_command(cmd.clone());
                sharded.submit_command(cmd.clone());
            }
        }
        let phase = tick as f64 / 23.0;
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| {
                let base = SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power.0;
                let wave = 0.5 + 0.45 * (phase + i as f64).sin();
                let spike = if rng.chance(0.03) { 2.0 } else { 1.0 };
                Watts((base * demand_scale * wave * spike).max(0.0))
            })
            .collect();
        let supply = full * (0.55 + 0.4 * (tick as f64 / 41.0).cos().abs());
        let disturb = random_disturbances(servers, &mut rng);

        serial.step_into(&demands, supply, &disturb, &mut r_serial);
        sharded.step_into(&demands, supply, &disturb, &mut r_sharded);
        assert_eq!(
            r_sharded, r_serial,
            "TickReport diverged at tick {tick} with {threads} threads"
        );
        assert_eq!(
            format!("{r_sharded:?}"),
            format!("{r_serial:?}"),
            "TickReport bits diverged at tick {tick} with {threads} threads"
        );
        if tick % 25 == 0 || tick + 1 == ticks {
            let snap_serial = serial.snapshot();
            let mut snap_sharded = sharded.snapshot();
            snap_sharded.config.threads = snap_serial.config.threads;
            assert_eq!(
                snap_sharded, snap_serial,
                "snapshot diverged at tick {tick} with {threads} threads"
            );
            assert_eq!(
                format!("{snap_sharded:?}"),
                format!("{snap_serial:?}"),
                "snapshot bits diverged at tick {tick} with {threads} threads"
            );
        }
    }
}

#[test]
fn sharded_tick_matches_serial_with_2_threads() {
    run_thread_differential(0xD1FF, 500, 2, 0.7);
}

#[test]
fn sharded_tick_matches_serial_with_4_threads() {
    run_thread_differential(0xD1FF, 500, 4, 0.7);
}

#[test]
fn sharded_tick_matches_serial_with_8_threads() {
    run_thread_differential(0xD1FF, 500, 8, 0.7);
}

#[test]
fn sharded_tick_matches_serial_under_heavy_load() {
    run_thread_differential(0xFEED, 250, 4, 1.15);
}

/// Wide-tree case: 4096 leaves under a 64-way root, overloaded so the root
/// packing instance runs every tick. Checks serial ≡ 4-thread for the
/// sharded measure, supply, deficit-collection, eligibility and physics
/// regions at a fan-out the small random trees never reach.
#[test]
fn sharded_tick_matches_serial_on_wide_tree() {
    let tree = Tree::uniform(&[64, 64]);
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .enumerate()
        .map(|(i, leaf)| {
            let class = i % SIM_APP_CLASSES.len();
            ServerSpec::simulation_default(leaf).with_apps(vec![Application::new(
                AppId(i as u32),
                class,
                &SIM_APP_CLASSES[class],
            )])
        })
        .collect();
    let n_apps = specs.len();
    let config = ControllerConfig::default();
    let mut par_config = config.clone();
    par_config.threads = 4;
    let mut serial = Willow::new(tree.clone(), specs.clone(), config).unwrap();
    let mut sharded = Willow::new(tree, specs, par_config).unwrap();

    // Overloaded and supply-starved so the root instance packs every tick.
    let mut rng = Rng(0x51DE);
    let mut r_serial = crate::migration::TickReport::default();
    let mut r_sharded = crate::migration::TickReport::default();
    for tick in 0..10u64 {
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| {
                let base = SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power.0;
                Watts(base * (0.4 + 1.3 * rng.unit()))
            })
            .collect();
        let supply = Watts(n_apps as f64 * 180.0);
        let disturb = Disturbances::none();
        serial.step_into(&demands, supply, &disturb, &mut r_serial);
        sharded.step_into(&demands, supply, &disturb, &mut r_sharded);
        assert_eq!(
            format!("{r_sharded:?}"),
            format!("{r_serial:?}"),
            "wide-tree TickReport diverged at tick {tick}"
        );
    }
    let snap_serial = serial.snapshot();
    let mut snap_sharded = sharded.snapshot();
    snap_sharded.config.threads = snap_serial.config.threads;
    assert_eq!(snap_sharded, snap_serial, "wide-tree snapshot diverged");
}

#[test]
fn optimized_step_matches_reference_over_500_faulted_ticks() {
    // Moderate load: plenty of headroom ticks plus scarcity under the
    // supply swings.
    run_differential(0xC0FFEE, 500, 0.6);
}

#[test]
fn optimized_step_matches_reference_under_heavy_load() {
    // Overload: constant deficits, shedding and migration churn.
    run_differential(0xBEEF, 200, 1.1);
}

#[test]
fn optimized_step_matches_reference_near_idle() {
    // Near-idle: consolidation sleeps most servers; wake-ups follow.
    run_differential(7, 200, 0.12);
}
