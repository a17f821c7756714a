//! The one scenario runner behind `repro chaos`, `repro liveops` and
//! `repro federate`.
//!
//! A single-zone scenario is a [`SimConfig`]: its `faults` say what goes
//! wrong and its `commands` what an operator does. A multi-zone scenario
//! is a [`FederateConfig`], whose `plan` schedules zone outages and broker
//! crashes. Every run is held to one predicate set, which reports failures
//! instead of panicking:
//!
//! 1. zero auditor violations;
//! 2. the placed-app set is unchanged, per zone;
//! 3. open-loop ticks equal the summed controller-crash window widths and
//!    recoveries equal the number of windows, both read from the zone's
//!    own crash plan;
//! 4. broker-down ticks, broker recoveries and zone rejoins match the
//!    [`ZoneOutagePlan`], and no supply-conservation violation occurs;
//! 5. no migration transaction is left open in the journal;
//! 6. every `Fenced` server is empty at zero budget and every `Retired`
//!    server is empty.
//!
//! [`twin`] is the bit-for-bit neutrality predicate and [`Legs`] the one
//! seed loop. Generators derive every scenario from its seed, so a failing
//! seed is its own repro.
//!
//! [`ZoneOutagePlan`]: willow_sim::ZoneOutagePlan

use std::fmt::Display;
use willow_core::server::{FenceState, ServerState};
use willow_sim::faults::{ControllerOutage, ZoneOutageKind};
use willow_sim::{
    FederateConfig, FederatedSimulation, FederationRunMetrics, RunMetrics, SimConfig, Simulation,
};
use willow_thermal::units::Watts;
use willow_workload::app::AppId;

/// A paper hot/cold zone at `utilization` running `ticks` periods, all
/// of them measured, on a `threads`-wide shard pool.
pub fn zone(seed: u64, utilization: f64, ticks: usize, threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_hot_cold(seed, utilization);
    cfg.ticks = ticks;
    cfg.warmup = 0;
    cfg.controller.threads = threads;
    cfg
}

/// Runs a single-zone scenario to its end; returns the simulation, its
/// metrics and every failed predicate (empty = pass).
pub fn run_zone(cfg: SimConfig) -> (Simulation, RunMetrics, Vec<String>) {
    let mut sim = Simulation::new(cfg).expect("scenario config must be valid");
    let before = placed_apps(&sim);
    let m = sim.run();
    let mut failures = Vec::new();
    check_zone(&sim, &before, &mut failures);
    (sim, m, failures)
}

/// Runs a federation scenario to its end; returns the federation, its
/// metrics and every failed predicate (empty = pass).
pub fn run_federation(
    cfg: FederateConfig,
) -> (FederatedSimulation, FederationRunMetrics, Vec<String>) {
    let mut fed = FederatedSimulation::new(cfg).expect("federation scenario must be valid");
    let before = zone_apps(&fed);
    let m = fed.run();
    let failures = check_federation(&fed, &before);
    (fed, m, failures)
}

/// Every zone's placed-app set, in zone order.
pub fn zone_apps(fed: &FederatedSimulation) -> Vec<Vec<AppId>> {
    fed.zones().iter().map(placed_apps).collect()
}

/// The predicate set over a federation, however it was driven; `before`
/// is [`zone_apps`] at tick 0.
pub fn check_federation(fed: &FederatedSimulation, before: &[Vec<AppId>]) -> Vec<String> {
    let mut f = Vec::new();
    for (i, (zone, apps)) in fed.zones().iter().zip(before).enumerate() {
        let mut zone_failures = Vec::new();
        check_zone(zone, apps, &mut zone_failures);
        f.extend(zone_failures.into_iter().map(|z| format!("zone {i}: {z}")));
    }
    let c = fed.broker().counters();
    equal(
        &mut f,
        "supply-conservation violations",
        c.conservation_violations,
        0,
    );
    let (crashes, outages) = fed.plan().map_or((&[][..], &[][..]), |p| {
        (&p.broker_crash[..], &p.outages[..])
    });
    equal(
        &mut f,
        "broker-down ticks",
        c.broker_down_ticks,
        widths(crashes),
    );
    equal(
        &mut f,
        "broker recoveries",
        fed.broker_recoveries(),
        crashes.len(),
    );
    // A zone with stale reports stays attached, so only crash and
    // isolation windows end in a rejoin.
    let detached = outages
        .iter()
        .filter(|o| o.kind != ZoneOutageKind::StaleReports);
    equal(&mut f, "zone rejoins", fed.zone_rejoins(), detached.count());
    f
}

/// The per-zone predicates over one finished simulation.
fn check_zone(sim: &Simulation, before: &[AppId], f: &mut Vec<String>) {
    let w = sim.willow();
    equal(f, "invariant violations", sim.invariant_violations(), 0);
    apps_conserved(f, before, &placed_apps(sim));
    let crash = sim
        .config()
        .faults
        .as_ref()
        .and_then(|p| p.controller_crash.as_ref());
    let windows = crash.map_or(&[][..], |c| &c.windows[..]);
    outages(
        f,
        sim.open_loop_ticks(),
        sim.controller_recoveries(),
        windows,
    );
    let open = w.journal().in_flight().count();
    equal(f, "open migration transactions", open, 0);
    fences(f, w.servers(), &w.power().tp);
}

/// Sorted ids of the applications placed on a simulation's servers.
fn placed_apps(sim: &Simulation) -> Vec<AppId> {
    let mut ids: Vec<AppId> = sim
        .willow()
        .servers()
        .iter()
        .flat_map(|s| s.apps.iter().map(|a| a.id))
        .collect();
    ids.sort_unstable();
    ids
}

/// Records `got {what} (want {want})` unless `got == want`.
fn equal<T: PartialEq + Display>(failures: &mut Vec<String>, what: &str, got: T, want: T) {
    if got != want {
        failures.push(format!("{got} {what} (want {want})"));
    }
}

/// Summed widths of `windows`, in ticks.
fn widths(windows: &[ControllerOutage]) -> u64 {
    windows.iter().map(|w| w.until - w.from).sum()
}

/// No application lost or duplicated between two sorted placed-app sets.
fn apps_conserved(failures: &mut Vec<String>, before: &[AppId], after: &[AppId]) {
    if before != after {
        failures.push(format!(
            "placement lost or duplicated apps: {} before vs {} after",
            before.len(),
            after.len()
        ));
    }
}

/// Exact outage accounting: the controller ran open-loop for exactly the
/// crash windows and recovered once per window. Commands never cost a
/// tick.
fn outages(
    failures: &mut Vec<String>,
    open_loop: usize,
    recoveries: usize,
    windows: &[ControllerOutage],
) {
    let open_loop = open_loop as u64;
    equal(failures, "open-loop ticks", open_loop, widths(windows));
    equal(failures, "recoveries", recoveries, windows.len());
}

/// Fence safety: a fenced server is empty at zero budget, a retired one
/// is empty. A retired row's leaf may host a replacement, so its budget
/// is not its own.
fn fences(failures: &mut Vec<String>, servers: &[ServerState], budgets: &[Watts]) {
    for (i, s) in servers.iter().enumerate() {
        let state = match s.fence {
            FenceState::Fenced => "fenced",
            FenceState::Retired => "retired",
            FenceState::Active | FenceState::Draining => continue,
        };
        if !s.apps.is_empty() {
            failures.push(format!("{state} server {i} still hosts apps"));
        }
        if s.fence == FenceState::Fenced && budgets[s.node.index()] != Watts::ZERO {
            failures.push(format!("fenced server {i} holds a nonzero budget"));
        }
    }
}

/// The neutrality predicate: a twin run that schedules nothing that can
/// act (an empty crash-window list, a never-due timeline, a quiet zone
/// plan) must reproduce the plain run bit for bit. Records `what` if not.
pub fn twin<M: PartialEq>(failures: &mut Vec<String>, plain: &M, other: &M, what: &str) {
    if plain != other {
        failures.push(what.to_owned());
    }
}

/// The verdict word of a leg's summary line.
pub fn verdict(failures: &[String]) -> &'static str {
    if failures.is_empty() {
        "ok"
    } else {
        "FAIL"
    }
}

/// The one seed loop: runs a harness's legs, prints each failure under its
/// leg's label and owns the exit status.
pub struct Legs {
    name: &'static str,
    failed: usize,
}

impl Legs {
    /// A loop for the harness `name` (the subcommand).
    pub fn new(name: &'static str) -> Self {
        Legs { name, failed: 0 }
    }

    /// Records one leg's failures.
    pub fn check(&mut self, label: &str, failures: Vec<String>) {
        for f in &failures {
            eprintln!("  {label}: {f}");
        }
        self.failed += usize::from(!failures.is_empty());
    }

    /// Runs `leg` on every seed in `0..seeds`.
    pub fn seeds(&mut self, seeds: u64, mut leg: impl FnMut(u64) -> Vec<String>) {
        for seed in 0..seeds {
            let failures = leg(seed);
            self.check(&format!("seed {seed}"), failures);
        }
    }

    /// Exits the process with status 1 if any leg failed; prints
    /// `{name}: {passed}` otherwise.
    pub fn finish(self, passed: &str) {
        if self.failed > 0 {
            eprintln!("{}: {} leg(s) FAILED", self.name, self.failed);
            std::process::exit(1);
        }
        println!("{}: {passed}", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short, healthy run whose end state the tests doctor.
    fn finished() -> Simulation {
        let (sim, _, failures) = run_zone(zone(7, 0.5, 20, 1));
        assert!(failures.is_empty(), "{failures:?}");
        sim
    }

    #[test]
    fn missing_app_fails() {
        let mut failures = Vec::new();
        apps_conserved(&mut failures, &[AppId(1), AppId(2)], &[AppId(1)]);
        assert_eq!(
            failures,
            ["placement lost or duplicated apps: 2 before vs 1 after"]
        );
    }

    #[test]
    fn one_violation_fails() {
        let mut failures = Vec::new();
        equal(&mut failures, "invariant violations", 1usize, 0);
        assert_eq!(failures, ["1 invariant violations (want 0)"]);
    }

    #[test]
    fn open_loop_off_by_one_fails() {
        let windows = [
            ControllerOutage { from: 5, until: 9 },
            ControllerOutage {
                from: 20,
                until: 23,
            },
        ];
        let mut failures = Vec::new();
        outages(&mut failures, 7, 2, &windows);
        assert!(failures.is_empty(), "{failures:?}");
        outages(&mut failures, 8, 2, &windows);
        assert_eq!(failures, ["8 open-loop ticks (want 7)"]);
    }

    #[test]
    fn differing_twin_fails() {
        let mut failures = Vec::new();
        twin(&mut failures, &3, &3, "twin diverged");
        assert!(failures.is_empty());
        twin(&mut failures, &3, &4, "twin diverged");
        assert_eq!(failures, ["twin diverged"]);
    }

    #[test]
    fn fenced_server_holding_a_budget_fails() {
        let sim = finished();
        let w = sim.willow();
        let mut servers = w.servers().to_vec();
        let mut budgets = w.power().tp.clone();
        servers[3].fence = FenceState::Fenced;
        servers[3].apps.clear();
        budgets[servers[3].node.index()] = Watts::ZERO;
        let mut failures = Vec::new();
        fences(&mut failures, &servers, &budgets);
        assert!(failures.is_empty(), "{failures:?}");
        budgets[servers[3].node.index()] = Watts(40.0);
        fences(&mut failures, &servers, &budgets);
        assert_eq!(failures, ["fenced server 3 holds a nonzero budget"]);
    }

    #[test]
    fn occupied_retired_server_fails() {
        let sim = finished();
        let mut servers = sim.willow().servers().to_vec();
        let host = servers.iter().position(|s| !s.apps.is_empty()).unwrap();
        servers[host].fence = FenceState::Retired;
        let mut failures = Vec::new();
        fences(&mut failures, &servers, &sim.willow().power().tp);
        assert_eq!(
            failures,
            [format!("retired server {host} still hosts apps")]
        );
    }
}
