//! Centralized greedy baseline controller.
//!
//! The natural alternative to Willow's hierarchical, stability-aware
//! scheme: a central scheduler that re-solves the *entire* placement every
//! period with FFDLR, moving any application whose optimal host changed.
//! It balances budgets at least as well as Willow, but pays for it in
//! migration churn — exactly the cost Willow's margins, unidirectional
//! triggers, and local-first decomposition are designed to avoid. The
//! `ext_baseline` experiment quantifies the difference.
//!
//! The baseline shares Willow's substrates (thermal caps, proportional
//! budgets, cost model) so the comparison isolates the *control policy*.

use crate::apps::AppTable;
use crate::config::ControllerConfig;
use crate::migration::{MigrationReason, MigrationRecord, TickReport};
use crate::server::{ServerSpec, ServerState};
use crate::state::PowerState;
use willow_binpack::packer_for;
use willow_power::allocation::allocate_proportional;
use willow_thermal::units::Watts;
use willow_topology::{NodeId, Tree};
use willow_workload::app::AppId;

/// The centralized greedy re-packer. Mirrors the subset of [`crate::Willow`]'s
/// API the experiments need.
pub struct GreedyGlobal {
    tree: Tree,
    config: ControllerConfig,
    servers: Vec<ServerState>,
    apps: AppTable,
    power: PowerState,
    tick: u64,
}

impl GreedyGlobal {
    /// Build the baseline for `tree` with one spec per leaf.
    ///
    /// # Panics
    /// Panics on invalid config or specs (this is a test/benchmark
    /// comparator, not a hardened API).
    #[must_use]
    pub fn new(tree: Tree, specs: Vec<ServerSpec>, config: ControllerConfig) -> Self {
        config.validate().expect("valid config");
        assert_eq!(
            specs.len(),
            tree.leaves().count(),
            "one spec per leaf required"
        );
        let apps = AppTable::for_specs(&specs).expect("dense, unique app ids");
        let servers: Vec<ServerState> =
            specs.iter().map(|s| ServerState::new(s, &config)).collect();
        let power = PowerState::new(&tree);
        GreedyGlobal {
            tree,
            config,
            servers,
            apps,
            power,
            tick: 0,
        }
    }

    /// Immutable view of server states.
    #[must_use]
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    /// Every app's placement and demand.
    #[must_use]
    pub fn apps(&self) -> &AppTable {
        &self.apps
    }

    /// Drive one period: measure, allocate budgets, globally re-pack.
    pub fn step(&mut self, app_demand: &[Watts], supply: Watts) -> TickReport {
        let tick = self.tick;
        let mut report = TickReport {
            tick,
            supply_tick: true,
            ..TickReport::default()
        };

        // Measure (same smoothing as Willow).
        for (si, server) in self.servers.iter_mut().enumerate() {
            server.app_power = self.apps.observe(si, app_demand);
            let raw = server.raw_demand();
            let smoothed = server.smoother.observe(raw);
            self.power.cp[server.node.index()] = smoothed;
            server.pending_cost = Watts::ZERO;
        }
        self.power.aggregate_demands(&self.tree);

        // Budgets: same thermal caps + proportional division as Willow.
        let window = self.config.delta_s();
        for server in &self.servers {
            self.power.cap[server.node.index()] = server.thermal.power_limit(window);
        }
        self.power.aggregate_caps(&self.tree);
        let root = self.tree.root();
        self.power.tp[root.index()] = supply.min(self.power.cap[root.index()]);
        for level in (1..=self.tree.height()).rev() {
            for &node in self.tree.nodes_at_level(level) {
                let children = self.tree.children(node);
                let demands: Vec<Watts> =
                    children.iter().map(|c| self.power.cp[c.index()]).collect();
                let caps: Vec<Watts> = children.iter().map(|c| self.power.cap[c.index()]).collect();
                let budgets = allocate_proportional(self.power.tp[node.index()], &demands, &caps)
                    .expect("validated inputs");
                for (c, b) in children.iter().zip(budgets) {
                    self.power.tp[c.index()] = b;
                }
            }
        }

        // Global re-pack: every app is an item, every server's full budget
        // is a bin.
        // (server, list position, app)
        let mut items: Vec<(usize, usize, AppId)> = Vec::new();
        for si in 0..self.servers.len() {
            items.extend(
                self.apps
                    .on(si)
                    .enumerate()
                    .map(|(pos, app)| (si, pos, app)),
            );
        }
        let sizes: Vec<f64> = items
            .iter()
            .map(|&(_, _, a)| self.apps.demand(a).0)
            .collect();
        let bins: Vec<NodeId> = self.servers.iter().map(|s| s.node).collect();
        let caps: Vec<f64> = bins
            .iter()
            .map(|l| {
                (self.power.tp[l.index()] - self.servers[self.server_of(*l)].base_load)
                    .0
                    .max(0.0)
            })
            .collect();
        let packing = packer_for(self.config.packer).pack(&sizes, &caps);

        // Execute the diff: any app whose assigned bin differs from its
        // current host migrates.
        // (src server, list position, app, dst server)
        let mut moves: Vec<(usize, usize, AppId, usize)> = Vec::new();
        for (idx, &(si, pos, app)) in items.iter().enumerate() {
            if let Some(b) = packing.assignment[idx] {
                if b != si {
                    moves.push((si, pos, app, b));
                }
            }
        }
        // Moves run in descending list position; that order fixes where
        // each app lands on its target's list.
        moves.sort_by_key(|m| std::cmp::Reverse(m.1));
        for (src, _, app, dst) in moves {
            let demand = self.apps.demand(app);
            let from = self.servers[src].node;
            let to = self.servers[dst].node;
            self.apps.move_to(app, dst);
            self.servers[src].app_power = self.apps.power_on(src);
            self.servers[dst].app_power = self.apps.power_on(dst);
            let local = self.tree.are_siblings(from, to);
            report.migrations.push(MigrationRecord {
                tick,
                app,
                from,
                to,
                moved: demand,
                reason: MigrationReason::Demand,
                local,
                hops: self.tree.path_len(from, to).saturating_sub(1),
                pingpong: false,
            });
        }

        // Physics (same as Willow's).
        for server in &mut self.servers {
            let leaf = server.node.index();
            self.power.cp[leaf] = server.raw_demand();
        }
        self.power.aggregate_demands(&self.tree);
        let mut dropped = Watts::ZERO;
        for server in &mut self.servers {
            let leaf = server.node.index();
            let budget = self.power.tp[leaf];
            let demand = self.power.cp[leaf];
            let drawn = demand.min(budget);
            dropped += (demand - budget).non_negative();
            server.thermal.advance(drawn, self.config.delta_d);
            report.server_power.push(drawn);
            report.server_budget.push(budget);
            report.server_temp.push(server.thermal.temperature());
            report.server_active.push(server.active);
        }
        report.dropped_demand = dropped;
        for level in 0..=self.tree.height() {
            report
                .imbalance
                .push(self.power.level_imbalance(&self.tree, level));
        }
        self.tick += 1;
        report
    }

    fn server_of(&self, leaf: NodeId) -> usize {
        self.servers
            .iter()
            .position(|s| s.node == leaf)
            .expect("every leaf has a server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willow_workload::app::{Application, SIM_APP_CLASSES};

    fn setup() -> (GreedyGlobal, usize) {
        let tree = Tree::uniform(&[2, 2]);
        let mut id = 0u32;
        let specs: Vec<ServerSpec> = tree
            .leaves()
            .map(|leaf| {
                let apps: Vec<Application> = (0..2)
                    .map(|_| {
                        let a = Application::new(AppId(id), 0, &SIM_APP_CLASSES[0]);
                        id += 1;
                        a
                    })
                    .collect();
                ServerSpec::simulation_default(leaf).with_apps(apps)
            })
            .collect();
        (
            GreedyGlobal::new(tree, specs, ControllerConfig::default()),
            id as usize,
        )
    }

    #[test]
    fn conserves_apps_and_respects_budgets() {
        let (mut g, n_apps) = setup();
        let demands: Vec<Watts> = (0..n_apps).map(|i| Watts(10.0 + 3.0 * i as f64)).collect();
        for _ in 0..30 {
            let r = g.step(&demands, Watts(1500.0));
            assert_eq!(g.apps().placed(), n_apps);
            assert!(r.total_power().0 <= 1500.0 + 1e-6);
        }
    }

    #[test]
    fn repacks_aggressively() {
        // Alternating demand shifts make the global optimum flip; the
        // greedy baseline chases it with migrations where Willow's margins
        // would hold still.
        let (mut g, n_apps) = setup();
        let mut total_migs = 0;
        for t in 0..40u64 {
            let demands: Vec<Watts> = (0..n_apps)
                .map(|i| {
                    if (i as u64 + t / 4).is_multiple_of(2) {
                        Watts(60.0)
                    } else {
                        Watts(15.0)
                    }
                })
                .collect();
            let r = g.step(&demands, Watts(700.0));
            total_migs += r.migrations.len();
        }
        assert!(total_migs > 10, "greedy must churn: {total_migs}");
    }
}
