//! The controller's steady-tick contract:
//!
//! * **(a)** the serial steady-state tick makes 0 heap allocations at 27 /
//!   243 / 2,187 servers, with and without an attached telemetry
//!   registry;
//! * **(b)** the same holds on the serial path of the 5-level trees at
//!   19,683 / 52,488 / 104,976 servers;
//! * **(c)** on those trees, a `threads = 4` controller stepped in
//!   lockstep with a serial twin under migration pressure emits the same
//!   `TickReport` bit for bit every tick and ends in the same snapshot;
//! * **(d)** once a checkpoint exists, capturing the planning context into
//!   it again makes 0 heap allocations, and so does a whole
//!   `snapshot_into`, at 27 servers as at 2,187;
//! * **(e)** on the 104,976-server tree, a controller restored from a
//!   checkpoint captured mid-run under migration pressure steps in
//!   lockstep with the uninterrupted one: the same `TickReport` every tick
//!   and the same final snapshot.
//!
//! (a) and (d) run with `cargo test`. (b), (c) and (e) are too slow for a
//! debug build and run as ignored tests:
//!
//! ```text
//! cargo test --release -p willow-core --test steady_tick -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use willow_core::config::{AllocationPolicy, ControllerConfig};
use willow_core::control::Willow;
use willow_core::migration::TickReport;
use willow_core::server::ServerSpec;
use willow_core::Disturbances;
use willow_telemetry::TelemetryRegistry;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

/// Forwards to the system allocator while counting allocation calls per
/// thread, so tests running in parallel do not leak counts into each
/// other's measured windows.
struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread may still allocate while its thread-locals are
    // being torn down; such allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A controller with one app of each class per server (their
/// full-utilization power sums to the 450 W rating) and each app's
/// demand at `utilization` of its class mean.
fn build(branching: &[usize], config: ControllerConfig, utilization: f64) -> (Willow, Vec<Watts>) {
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
    let willow = Willow::new(tree, specs, config).unwrap();
    let demands = (0..id)
        .map(|i| SIM_APP_CLASSES[i as usize % SIM_APP_CLASSES.len()].mean_power * utilization)
        .collect();
    (willow, demands)
}

/// Allocations made over `ticks` ticks of the serial steady state: 40 %
/// utilization (above the 20 % consolidation threshold) under ample
/// supply, so no thermal, supply or consolidation pressure moves an app.
fn steady_allocs(
    branching: &[usize],
    warmup: usize,
    ticks: usize,
    registry: Option<&TelemetryRegistry>,
) -> u64 {
    let (mut willow, demands) = build(branching, ControllerConfig::default(), 0.4);
    // Attached before the window: registering handles allocates once,
    // recording never does.
    if let Some(registry) = registry {
        willow.attach_telemetry(registry);
    }
    let supply = Watts(willow.servers().len() as f64 * 450.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    for _ in 0..warmup {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let before = allocations();
    for _ in 0..ticks {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    allocations() - before
}

#[test]
fn steady_tick_allocates_nothing() {
    for branching in [&[3, 3, 3][..], &[3, 9, 9], &[3, 27, 27]] {
        let servers: usize = branching.iter().product();
        let plain = steady_allocs(branching, 32, 64, None);
        assert_eq!(plain, 0, "steady-state tick allocated at {servers} servers");
        let registry = TelemetryRegistry::new();
        let instrumented = steady_allocs(branching, 32, 64, Some(&registry));
        assert_eq!(
            instrumented, 0,
            "telemetry recording allocated at {servers} servers"
        );
    }
}

/// `snapshot_into` copies the planning context with
/// `PlanningContext::clone_from`: into a warm checkpoint that copy must
/// reuse the checkpoint's `leaves` buffer rather than rebuild it.
#[test]
fn warm_planning_capture_allocates_nothing() {
    let (mut willow, demands) = build(&[3, 9, 9], ControllerConfig::default(), 0.4);
    let supply = Watts(willow.servers().len() as f64 * 450.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    for _ in 0..8 {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let mut snap = willow.snapshot();
    for _ in 0..8 {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let warm = &mut snap.planning;
    let before = allocations();
    warm.clone_from(willow.planning());
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "copying a warm planning context allocated");
    assert_eq!(warm, willow.planning());
}

/// Allocations of one `snapshot_into` into a warm checkpoint of a
/// controller over `branching`, after a few ticks that moved every
/// smoother, thermal state and forecast since the checkpoint was taken.
fn warm_capture_allocs(branching: &[usize]) -> u64 {
    let (mut willow, demands) = build(branching, ControllerConfig::default(), 0.4);
    let supply = Watts(willow.servers().len() as f64 * 450.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    for _ in 0..8 {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let mut snap = willow.snapshot();
    for _ in 0..8 {
        willow.step_into(&demands, supply, &quiet, &mut report);
    }
    let before = allocations();
    willow.snapshot_into(&mut snap);
    let allocs = allocations() - before;
    assert!(snap == willow.snapshot(), "the warm capture is stale");
    allocs
}

/// The roster is `Copy` rows, the app table `Copy` columns, and the tree,
/// power state and journal copy field by field, so a warm capture reuses
/// every buffer: nothing per server, app or node, and nothing else.
#[test]
fn warm_capture_allocates_nothing_at_any_size() {
    for branching in [&[3, 3, 3][..], &[3, 27, 27]] {
        let servers: usize = branching.iter().product();
        let allocs = warm_capture_allocs(branching);
        assert_eq!(
            allocs, 0,
            "a warm snapshot_into allocated {allocs} times at {servers} servers"
        );
    }
}

/// Pressure factor in `[0.4, 1.7)` for one app on one tick, from a fixed
/// integer hash of (app index, tick): no RNG state, same in every run.
fn pressure(app: usize, tick: usize) -> f64 {
    let mut h = ((app as u64) << 32 | tick as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    let r = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.4 + 1.3 * r
}

/// Steps a serial controller and a `threads`-thread twin in lockstep
/// under migration pressure, asserting every `TickReport` and the final
/// snapshots are bit-identical (`config.threads` is the one intended
/// difference and is normalised before comparing). Returns the total
/// migrations the serial run executed.
///
/// The pressure: equal-share caps of 185 W per server over apps at a 25 %
/// base utilisation, and every app's demand redrawn each tick as
/// `base × pressure(app, tick)`. A flat server draws 112.5 W; the
/// independent per-app draws spread that from 45 W to 191 W, so each
/// tick the servers whose draws came out high exceed their cap while most
/// others have room, and the demand stage moves apps from the first to
/// the second: about one migration per ten servers per tick.
fn lockstep_migrations(branching: &[usize], threads: usize, ticks: usize) -> usize {
    let config = |threads| ControllerConfig {
        threads,
        allocation: AllocationPolicy::EqualShare,
        ..ControllerConfig::default()
    };
    let (mut serial, base) = build(branching, config(1), 0.25);
    let (mut sharded, _) = build(branching, config(threads), 0.25);
    let supply = Watts(serial.servers().len() as f64 * 185.0);
    let quiet = Disturbances::none();
    let mut r_serial = TickReport::default();
    let mut r_sharded = TickReport::default();
    // Settle both into the flat steady state first: caps are set on the
    // first supply tick.
    for _ in 0..3 {
        serial.step_into(&base, supply, &quiet, &mut r_serial);
        sharded.step_into(&base, supply, &quiet, &mut r_sharded);
    }
    let mut demands = base.clone();
    let mut migrations = 0;
    for tick in 0..ticks {
        for (app, d) in demands.iter_mut().enumerate() {
            *d = base[app] * pressure(app, tick);
        }
        serial.step_into(&demands, supply, &quiet, &mut r_serial);
        sharded.step_into(&demands, supply, &quiet, &mut r_sharded);
        assert!(
            r_serial == r_sharded && format!("{r_serial:?}") == format!("{r_sharded:?}"),
            "{threads}-thread tick {tick} diverged from the serial tick at {branching:?}"
        );
        migrations += r_serial.migrations.len();
    }
    let snap_serial = serial.snapshot();
    let mut snap_sharded = sharded.snapshot();
    snap_sharded.config.threads = snap_serial.config.threads;
    assert!(
        snap_serial == snap_sharded,
        "{threads}-thread final snapshot diverged from the serial one at {branching:?}"
    );
    migrations
}

#[test]
#[ignore = "release-only: 5-level trees up to 104,976 servers"]
fn large_trees_allocate_nothing_and_shard_bit_for_bit() {
    // 19,683, 52,488 and 104,976 servers: 9-ary below a widening root.
    for branching in [&[3, 9, 9, 9, 9], &[8, 9, 9, 9, 9], &[16, 9, 9, 9, 9]] {
        let servers: usize = branching.iter().product();
        let allocs = steady_allocs(branching, 16, 64, None);
        assert_eq!(
            allocs, 0,
            "serial steady-state tick allocated at {servers} servers"
        );
        let migrations = lockstep_migrations(branching, 4, 12);
        println!(
            "{servers:>7} servers: 0 allocs/tick, serial == 4 threads, {migrations} migrations"
        );
        // Without migrations the lockstep never reaches the sharded
        // demand stage's planning and execution, and would pass however
        // that path diverged.
        assert!(
            migrations > 0,
            "lockstep at {servers} servers migrated nothing, so it does not check the migration path"
        );
    }
}

/// (e): drive `pressure` migrations on the 104,976-server tree, capture
/// mid-run into a warm checkpoint, restore it, and step the restored and
/// the uninterrupted controllers 8 ticks in lockstep.
#[test]
#[ignore = "release-only: a 104,976-server checkpoint restored and run"]
fn restored_large_controller_continues_in_lockstep() {
    let branching = [16, 9, 9, 9, 9];
    let config = ControllerConfig {
        allocation: AllocationPolicy::EqualShare,
        ..ControllerConfig::default()
    };
    let (mut original, base) = build(&branching, config, 0.25);
    let supply = Watts(original.servers().len() as f64 * 185.0);
    let quiet = Disturbances::none();
    let mut report = TickReport::default();
    let mut demands = base.clone();
    let mut drive = |w: &mut Willow, tick: usize, report: &mut TickReport| {
        for (app, d) in demands.iter_mut().enumerate() {
            *d = base[app] * pressure(app, tick);
        }
        w.step_into(&demands, supply, &quiet, report);
    };
    // The checkpoint is warm: taken early, then captured into mid-run.
    let mut checkpoint = original.snapshot();
    let mut migrations = 0;
    for tick in 0..6 {
        drive(&mut original, tick, &mut report);
        migrations += report.migrations.len();
    }
    assert!(
        migrations > 0,
        "the run before the capture migrated nothing"
    );
    original.snapshot_into(&mut checkpoint);
    let mut restored = Willow::restore(checkpoint).expect("restore at scale");
    let mut r_restored = TickReport::default();
    let mut after = 0;
    for tick in 6..14 {
        drive(&mut original, tick, &mut report);
        drive(&mut restored, tick, &mut r_restored);
        assert!(
            report == r_restored && format!("{report:?}") == format!("{r_restored:?}"),
            "restored tick {tick} diverged from the uninterrupted run"
        );
        after += report.migrations.len();
    }
    assert!(
        original.snapshot() == restored.snapshot(),
        "restored final snapshot diverged from the uninterrupted one"
    );
    println!(
        "104,976 servers: restored == uninterrupted over 8 ticks, \
         {migrations} migrations before the capture, {after} after"
    );
    assert!(
        after > 0,
        "the lockstep migrated nothing, so it checks no migration path"
    );
}
