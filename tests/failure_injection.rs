//! Failure-injection integration tests: cooling failures and maintenance
//! drains through the operator API.

use willow::core::config::ControllerConfig;
use willow::core::controller::Willow;
use willow::core::server::ServerSpec;
use willow::thermal::units::{Celsius, Watts};
use willow::topology::Tree;
use willow::workload::app::{AppId, Application, SIM_APP_CLASSES};

fn build() -> (Willow, usize) {
    let tree = Tree::paper_fig3();
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
    let w = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
    (w, id as usize)
}

fn demands(n: usize) -> Vec<Watts> {
    (0..n)
        .map(|i| SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power * 0.5)
        .collect()
}

/// A cooling failure raises a server's ambient to 50 °C mid-run: its
/// thermal cap collapses, its workload flees, and its temperature never
/// crosses the limit.
#[test]
fn cooling_failure_evacuates_the_server() {
    let (mut w, n_apps) = build();
    let d = demands(n_apps);
    for _ in 0..20 {
        let _ = w.step(&d, Watts(8000.0));
    }
    let victim = 0usize;
    let loaded_before = w.apps().on(victim).count();
    assert!(loaded_before > 0 || w.apps().placed() > 0);

    // Cooling failure: ambient jumps from 25 °C to 50 °C.
    w.set_server_ambient(victim, Celsius(50.0));
    let mut max_temp: f64 = 0.0;
    for _ in 0..60 {
        let r = w.step(&d, Watts(8000.0));
        max_temp = max_temp.max(r.server_temp[victim].0);
    }
    assert!(
        max_temp <= 70.0 + 1e-6,
        "victim must stay under its limit even after the cooling failure"
    );
    // The victim's sustainable cap is now (70−50)·c2/c1 = 200 W; with 0.5
    // utilization demand it may still host a little, but heavy apps must
    // have moved: its app power must fit the new cap.
    let victim_power = w.servers()[victim].app_power;
    assert!(
        victim_power.0 <= 200.0 + 1e-6 || !w.servers()[victim].active,
        "victim still hosting {victim_power} against a 200 W sustainable cap"
    );
}

/// Maintenance drain: the operator evacuates a server; every app survives
/// on other hosts and the drained server draws nothing until force-woken.
#[test]
fn drain_and_rewake_cycle() {
    let (mut w, n_apps) = build();
    let d = demands(n_apps);
    for _ in 0..10 {
        let _ = w.step(&d, Watts(8000.0));
    }
    let victim = 3usize;
    assert!(w.drain_server(victim), "ample surplus ⇒ drain must succeed");
    assert!(!w.servers()[victim].active);
    assert!(!w.apps().hosts_any(victim));
    // Conservation.
    let hosted: usize = w.apps().placed();
    assert_eq!(hosted, n_apps);
    // Drained server draws nothing.
    let r = w.step(&d, Watts(8000.0));
    assert_eq!(r.server_power[victim], Watts(0.0));

    w.force_wake(victim);
    assert!(w.servers()[victim].active);
    let _ = w.step(&d, Watts(8000.0));
}

/// A drain with nowhere to go must fail atomically: nothing moves, the
/// server stays up.
#[test]
fn impossible_drain_is_refused_atomically() {
    let (mut w, n_apps) = build();
    // Saturate everyone: no margins anywhere.
    let d: Vec<Watts> = (0..n_apps)
        .map(|i| SIM_APP_CLASSES[i % SIM_APP_CLASSES.len()].mean_power)
        .collect();
    for _ in 0..10 {
        let _ = w.step(&d, Watts(7000.0));
    }
    let victim = 2usize;
    let apps_before = w.apps().on(victim).count();
    if apps_before == 0 {
        return; // nothing hosted, trivially drainable — not the case under test
    }
    let drained = w.drain_server(victim);
    if !drained {
        assert_eq!(
            w.apps().on(victim).count(),
            apps_before,
            "failed drain must not move anything"
        );
        assert!(w.servers()[victim].active);
    }
    let hosted: usize = w.apps().placed();
    assert_eq!(hosted, n_apps);
}

/// Rolling maintenance across a whole pod: drain each server of pod 0 in
/// turn, waking the previous one first — the fleet absorbs it with zero
/// app loss and no thermal violations.
#[test]
fn rolling_pod_maintenance() {
    let (mut w, n_apps) = build();
    let d = demands(n_apps);
    for _ in 0..10 {
        let _ = w.step(&d, Watts(8000.0));
    }
    let mut previous: Option<usize> = None;
    for victim in 0..3usize {
        if let Some(p) = previous {
            w.force_wake(p);
        }
        let ok = w.drain_server(victim);
        assert!(ok, "drain of server {victim} failed");
        for _ in 0..8 {
            let r = w.step(&d, Watts(8000.0));
            for t in &r.server_temp {
                assert!(t.0 <= 70.0 + 1e-6);
            }
        }
        let hosted: usize = w.apps().placed();
        assert_eq!(hosted, n_apps);
        previous = Some(victim);
    }
}
