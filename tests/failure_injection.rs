//! Failure-injection integration tests: cooling failures through the
//! operator API and maintenance drains through the command plane.

use willow::core::command::{Command, CommandStatus};
use willow::core::config::ControllerConfig;
use willow::core::controller::Willow;
use willow::core::server::{FenceState, ServerSpec};
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

/// Drain `victim` through the command plane, stepping until the drain
/// reports `Applied` (at most `max_ticks` ticks). Every tick must keep
/// every app placed and every server under its thermal limit.
fn drain(w: &mut Willow, d: &[Watts], n_apps: usize, victim: usize, max_ticks: usize) {
    let id = w.submit_command(Command::Drain { server: victim });
    for _ in 0..max_ticks {
        let r = w.step(d, Watts(8000.0));
        assert_eq!(
            w.apps().placed(),
            n_apps,
            "a drain lost or duplicated an app"
        );
        for t in &r.server_temp {
            assert!(t.0 <= 70.0 + 1e-6);
        }
        if let Some(o) = r.command_outcomes.iter().find(|o| o.id == id) {
            assert_eq!(
                o.status,
                CommandStatus::Applied,
                "drain of {victim} refused"
            );
            return;
        }
    }
    panic!("drain of server {victim} did not finish in {max_ticks} ticks");
}

/// Maintenance drain through the command plane: every app survives on
/// other hosts, the drained server is fenced and draws nothing, and
/// `force_wake` cannot bring a fenced server back.
#[test]
fn drain_and_rewake_cycle() {
    let (mut w, n_apps) = build();
    let d = demands(n_apps);
    for _ in 0..10 {
        let _ = w.step(&d, Watts(8000.0));
    }
    let victim = 3usize;
    // Ample surplus: the drain completes on its first tick.
    drain(&mut w, &d, n_apps, victim, 1);
    assert_eq!(w.servers()[victim].fence, FenceState::Fenced);
    assert!(!w.servers()[victim].active);
    assert!(!w.apps().hosts_any(victim));
    // Drained server draws nothing.
    let r = w.step(&d, Watts(8000.0));
    assert_eq!(r.server_power[victim], Watts(0.0));
    assert_eq!(r.server_budget[victim], Watts(0.0));

    w.force_wake(victim);
    assert!(!w.servers()[victim].active, "a fenced server stays asleep");
    let r = w.step(&d, Watts(8000.0));
    assert_eq!(r.server_power[victim], Watts(0.0));
}

/// Rolling maintenance across a whole pod: drain each server of pod 0 in
/// turn — the fleet absorbs all three with zero app loss and no thermal
/// violations.
#[test]
fn rolling_pod_maintenance() {
    let (mut w, n_apps) = build();
    let d = demands(n_apps);
    for _ in 0..10 {
        let _ = w.step(&d, Watts(8000.0));
    }
    for victim in 0..3usize {
        drain(&mut w, &d, n_apps, victim, 8);
        for _ in 0..8 {
            let r = w.step(&d, Watts(8000.0));
            for t in &r.server_temp {
                assert!(t.0 <= 70.0 + 1e-6);
            }
            assert_eq!(r.server_power[victim], Watts(0.0));
        }
        assert_eq!(w.apps().placed(), n_apps);
        assert_eq!(w.servers()[victim].fence, FenceState::Fenced);
    }
}
