//! Shared fixtures for the control pipeline's test modules.

use super::Willow;
use crate::server::ServerSpec;
use willow_thermal::units::Watts;
use willow_topology::Tree;
use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};

/// Two pods of two servers each; app i on server i with ~`w` watts mean.
pub(super) fn small_setup(apps_per_server: usize) -> (Tree, Vec<ServerSpec>, usize) {
    let tree = Tree::uniform(&[2, 2]);
    let mut next_id = 0u32;
    let specs: Vec<ServerSpec> = tree
        .leaves()
        .map(|leaf| {
            let apps: Vec<Application> = (0..apps_per_server)
                .map(|_| {
                    let a = Application::new(AppId(next_id), 0, &SIM_APP_CLASSES[0]);
                    next_id += 1;
                    a
                })
                .collect();
            ServerSpec::simulation_default(leaf).with_apps(apps)
        })
        .collect();
    (tree, specs, next_id as usize)
}

pub(super) fn demands(n: usize, w: f64) -> Vec<Watts> {
    vec![Watts(w); n]
}

pub(super) fn placement(w: &Willow) -> Vec<Vec<AppId>> {
    (0..w.servers().len())
        .map(|si| w.apps().on(si).collect())
        .collect()
}

/// Apps on any server's list (each counted once per list it sits on).
pub(super) fn hosted(w: &Willow) -> usize {
    w.apps().placed()
}
