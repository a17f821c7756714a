//! Always-on runtime invariant auditor.
//!
//! The controller's safety case rests on a handful of structural
//! invariants that must hold after *every* demand period, no matter what
//! faults were injected or how degraded the control plane is:
//!
//! 1. **App conservation** — every application sits on exactly one
//!    server's list in the app table, its host column names that server,
//!    and only powered (active) servers host applications — so no
//!    sleeping or retired server does.
//! 2. **Budget hierarchy** — at every PMU node, the children's budgets
//!    sum to at most the node's own budget (power can be stranded, never
//!    invented). A leaf with a *stale* directive (its watchdog counts at
//!    least one miss) intentionally holds its previously applied budget,
//!    which may exceed the share the hierarchy just allocated it — such
//!    leaves are excluded from the sum and governed by invariant 3
//!    instead.
//! 3. **Tightening-only while stale** — a server that has not received a
//!    fresh directive since the previous audit (watchdog misses > 0 then
//!    and not reset since) must never see its applied budget increase.
//!    This subsumes the tripped-watchdog case: a degraded leaf must not
//!    loosen itself.
//! 4. **Physical sanity** — no NaN, infinite, or negative watts anywhere
//!    in the budget/demand/cap state, and finite accepted temperatures.
//!
//! [`Auditor::check`] verifies all four against a [`Willow`] in `O(apps +
//! nodes)` with no steady-state allocation, returning typed
//! [`InvariantViolation`]s. The chaos harness and the simulation engine
//! run it after every tick; [`Auditor::panic_on_violation`] turns any
//! violation into a panic for CI.
//!
//! The check reads the roster once: one sweep walks each server's app
//! list (invariant 1), polices its budget (invariant 3) and checks its
//! row's values (invariant 4). The row findings wait in a scratch list so
//! the report keeps the family order above — conservation, lost and
//! duplicated apps, budget hierarchy, then rows, then the node columns.
//! The node columns are first folded to one all-clear flag without
//! branches; only a column that fails it is walked entry by entry.

use crate::control::{Willow, NO_SERVER};
use willow_thermal::units::Watts;
use willow_topology::NodeId;
use willow_workload::app::AppId;

/// One violated runtime invariant, with enough context to debug it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvariantViolation {
    /// An application from the audited universe is hosted nowhere.
    AppLost {
        /// The missing application.
        app: AppId,
    },
    /// An application is hosted on more than one server.
    AppDuplicated {
        /// The duplicated application.
        app: AppId,
        /// How many servers host it.
        copies: u32,
    },
    /// An application sits on one server's list while the app table's
    /// host column names another.
    AppMisplaced {
        /// The application.
        app: AppId,
        /// The server whose list holds it.
        server: usize,
        /// The server its host column names.
        host: usize,
    },
    /// A hosted application was never part of the audited universe.
    AppUnknown {
        /// The unexpected application.
        app: AppId,
        /// The server hosting it.
        server: usize,
    },
    /// A server in deep sleep still hosts applications.
    SleepingServerHostsApps {
        /// The sleeping server.
        server: usize,
        /// How many applications it holds.
        apps: usize,
    },
    /// A PMU node's children were granted more budget than the node has.
    BudgetOverflow {
        /// The over-committed node.
        node: NodeId,
        /// Sum of the children's budgets.
        children: Watts,
        /// The node's own budget.
        budget: Watts,
    },
    /// A server's budget increased while its directive was stale.
    LoosenedWhileStale {
        /// The degraded server.
        server: usize,
        /// Budget at the previous audit.
        was: Watts,
        /// Budget now.
        now: Watts,
    },
    /// A power/temperature state entry is NaN or infinite.
    NonFinite {
        /// Which state vector (`"tp"`, `"cp"`, …).
        what: &'static str,
        /// Arena or server index into that vector.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A power state entry is negative.
    NegativeWatts {
        /// Which state vector.
        what: &'static str,
        /// Arena or server index into that vector.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::AppLost { app } => {
                write!(f, "{app} is hosted on no server")
            }
            InvariantViolation::AppDuplicated { app, copies } => {
                write!(f, "{app} is hosted on {copies} servers")
            }
            InvariantViolation::AppMisplaced { app, server, host } => {
                write!(f, "{app} is listed on server {server} but hosted on {host}")
            }
            InvariantViolation::AppUnknown { app, server } => {
                write!(f, "server {server} hosts unknown {app}")
            }
            InvariantViolation::SleepingServerHostsApps { server, apps } => {
                write!(f, "sleeping server {server} still hosts {apps} apps")
            }
            InvariantViolation::BudgetOverflow {
                node,
                children,
                budget,
            } => {
                write!(
                    f,
                    "children of {node} granted {children} out of a {budget} budget"
                )
            }
            InvariantViolation::LoosenedWhileStale { server, was, now } => {
                write!(
                    f,
                    "server {server} loosened {was} -> {now} without a fresh directive"
                )
            }
            InvariantViolation::NonFinite { what, index, value } => {
                write!(f, "{what}[{index}] is not finite: {value}")
            }
            InvariantViolation::NegativeWatts { what, index, value } => {
                write!(f, "{what}[{index}] is negative: {value}")
            }
        }
    }
}

/// Relative slack for the budget-hierarchy sum: floating-point
/// re-aggregation noise, not real over-commitment.
const BUDGET_EPS: f64 = 1e-9;

/// Tolerance below zero for "non-negative" watts.
const NEG_EPS: f64 = -1e-9;

/// Whether `value` is finite and not below [`NEG_EPS`]: NaN fails both
/// comparisons, +∞ the upper bound. Two comparisons with no side
/// effects, so a fold over a column compiles without branches.
#[inline]
fn sane_watts(value: f64) -> bool {
    (NEG_EPS..f64::INFINITY).contains(&value)
}

/// Record a violation if a power value is not finite or is negative.
#[inline]
fn check_watts(out: &mut Vec<InvariantViolation>, what: &'static str, index: usize, value: f64) {
    if !value.is_finite() {
        out.push(InvariantViolation::NonFinite { what, index, value });
    } else if value < NEG_EPS {
        out.push(InvariantViolation::NegativeWatts { what, index, value });
    }
}

/// Per-tick invariant checker over a [`Willow`] controller.
///
/// The audited application universe is fixed at construction (apps are
/// migrated, never created or destroyed). All working storage is reused
/// across [`Auditor::check`] calls, so a clean audit allocates nothing.
#[derive(Debug)]
pub struct Auditor {
    /// Indexed by `AppId.0`: whether the id is in the application
    /// universe. Constructors assign app ids densely from 0, so the table
    /// is as long as the universe is large.
    expected: Vec<bool>,
    /// Scratch, indexed by `AppId.0`: hosted copies seen this check. All
    /// zero between checks: the lost/duplicated scan resets what it reads.
    counts: Vec<u32>,
    /// Server index hosted at each arena node ([`NO_SERVER`] if none).
    server_of_node: Vec<u32>,
    /// Budget applied to each server at the previous audit.
    prev_tp: Vec<Watts>,
    /// Each server's watchdog miss count at the previous audit. The
    /// roster sweep brings it up to date before the budget check, which
    /// then reads this compact column rather than the rows.
    prev_missed: Vec<u32>,
    /// Violations found by the most recent `check`.
    violations: Vec<InvariantViolation>,
    /// Scratch: the roster sweep's row findings (invariants 3 and 4),
    /// appended to `violations` after the budget check.
    row_violations: Vec<InvariantViolation>,
    /// Panic on any violation (CI mode).
    panic_mode: bool,
    /// Violations across all checks so far.
    total: u64,
    /// Checks performed.
    checks: u64,
    tel: willow_telemetry::Counter,
}

impl Auditor {
    /// Build an auditor for `w`, fixing the app universe and seeding the
    /// tightening-only tracker from the current budgets.
    #[must_use]
    pub fn new(w: &Willow) -> Self {
        let ids = || (0..w.servers().len()).flat_map(|si| w.apps().on(si));
        let len = ids().map(|id| id.0 as usize + 1).max().unwrap_or(0);
        let mut expected = vec![false; len];
        for id in ids() {
            expected[id.0 as usize] = true;
        }
        let counts = vec![0; len];
        let mut server_of_node = vec![NO_SERVER; w.tree().len()];
        for (si, s) in w.servers().iter().enumerate() {
            server_of_node[s.node.index()] = si as u32;
        }
        let prev_tp = w
            .servers()
            .iter()
            .map(|s| w.power().tp[s.node.index()])
            .collect();
        let prev_missed = w.servers().iter().map(|s| s.watchdog.missed).collect();
        Auditor {
            expected,
            counts,
            server_of_node,
            prev_tp,
            prev_missed,
            violations: Vec::new(),
            row_violations: Vec::new(),
            panic_mode: false,
            total: 0,
            checks: 0,
            tel: willow_telemetry::Counter::default(),
        }
    }

    /// Enable or disable panic-on-violation (CI mode): any violation found
    /// by a subsequent [`Auditor::check`] panics with the full list.
    #[must_use]
    pub fn panic_on_violation(mut self, on: bool) -> Self {
        self.panic_mode = on;
        self
    }

    /// Count violations on `registry` as
    /// `willow_audit_violations_total`.
    pub fn attach_telemetry(&mut self, registry: &willow_telemetry::TelemetryRegistry) {
        self.tel = registry.counter(
            "willow_audit_violations_total",
            "Runtime invariant violations detected by the auditor",
        );
    }

    /// Violations found across all checks so far.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Checks performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Re-synchronize the auditor with `w` after an online topology
    /// change (live-ops server add/remove): resize the node-to-server map
    /// to the new arena and seed the tightening-only tracker for newly
    /// added servers from their current budgets and watchdog state.
    /// Existing servers keep their history, so the tightening-only rule
    /// keeps policing across the change. Call this before
    /// [`Auditor::check`] on any tick whose report flagged
    /// `topology_changed`.
    pub fn resync(&mut self, w: &Willow) {
        self.server_of_node.clear();
        self.server_of_node.resize(w.tree().len(), NO_SERVER);
        for (si, s) in w.servers().iter().enumerate() {
            // A retired server's arena slot may have been reused by a
            // later-added server; only live servers own their node.
            if s.fence != crate::server::FenceState::Retired {
                self.server_of_node[s.node.index()] = si as u32;
            }
        }
        for si in self.prev_tp.len()..w.servers().len() {
            self.prev_tp
                .push(w.power().tp[w.servers()[si].node.index()]);
            self.prev_missed.push(w.servers()[si].watchdog.missed);
        }
    }

    /// Audit `w` against all four invariant families. Returns the
    /// violations found this check (empty on a healthy controller).
    ///
    /// # Panics
    /// Panics on any violation when [`Auditor::panic_on_violation`] is
    /// enabled.
    pub fn check(&mut self, w: &Willow) -> &[InvariantViolation] {
        self.violations.clear();
        self.row_violations.clear();
        self.checks += 1;
        let apps = w.apps();
        let tree = w.tree();
        let power = w.power();

        // The roster sweep. Invariant 1 per server: each list walk is
        // bounded by the table's length, so a corrupted (cyclic) list
        // reports duplicates instead of hanging the audit. Invariants 3
        // and 4 per row go to the scratch list.
        for (si, server) in w.servers().iter().enumerate() {
            let hosted = || apps.on(si).take(apps.len() + 1);
            if !server.active && apps.hosts_any(si) {
                self.violations
                    .push(InvariantViolation::SleepingServerHostsApps {
                        server: si,
                        apps: hosted().count(),
                    });
            }
            for app in hosted() {
                let id = app.0 as usize;
                if !self.expected.get(id).copied().unwrap_or(false) {
                    self.violations
                        .push(InvariantViolation::AppUnknown { app, server: si });
                    continue;
                }
                self.counts[id] += 1;
                match apps.host(app) {
                    Some(host) if host != si => {
                        self.violations.push(InvariantViolation::AppMisplaced {
                            app,
                            server: si,
                            host,
                        });
                    }
                    _ => {}
                }
            }

            check_watts(&mut self.row_violations, "local_cp", si, server.local_cp.0);
            let t = server.accepted_temp.0;
            if !t.is_finite() {
                self.row_violations.push(InvariantViolation::NonFinite {
                    what: "accepted_temp",
                    index: si,
                    value: t,
                });
            }
            // 3. Tightening-only while stale: no fresh directive since the
            // previous audit (misses were > 0 and have not been reset)
            // means the applied budget must not have grown.
            let missed = server.watchdog.missed;
            let prev_missed = std::mem::replace(&mut self.prev_missed[si], missed);
            // A retired server has no budget to police, and its `node`
            // field may alias a slot recycled by a later-added live server
            // — reading `tp` through it would police the wrong machine.
            if server.fence == crate::server::FenceState::Retired {
                continue;
            }
            let tp = power.tp[server.node.index()];
            let was = std::mem::replace(&mut self.prev_tp[si], tp);
            let still_stale = prev_missed > 0 && missed >= prev_missed;
            if still_stale && tp.0 > was.0 + 1e-9 {
                self.row_violations
                    .push(InvariantViolation::LoosenedWhileStale {
                        server: si,
                        was,
                        now: tp,
                    });
            }
        }
        // Lost and duplicated apps, in ascending id order; the scan leaves
        // every count at zero for the next check.
        for (id, (count, &expected)) in self.counts.iter_mut().zip(&self.expected).enumerate() {
            let count = std::mem::take(count);
            if !expected {
                continue;
            }
            let app = AppId(id as u32);
            match count {
                1 => {}
                0 => self.violations.push(InvariantViolation::AppLost { app }),
                copies => self
                    .violations
                    .push(InvariantViolation::AppDuplicated { app, copies }),
            }
        }

        // 2. Budget hierarchy: Σ child TP ≤ node TP at every interior
        // node. Leaves holding a stale directive (missed > 0, as the sweep
        // just recorded) keep their previously applied budget by design,
        // which may legitimately exceed their freshly allocated share —
        // those are excluded here and policed by the tightening-only rule
        // instead.
        for node in tree.ids() {
            let children = tree.children(node);
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children
                .iter()
                .filter(|c| match self.server_of_node[c.index()] {
                    NO_SERVER => true,
                    si => self.prev_missed[si as usize] == 0,
                })
                .map(|c| power.tp[c.index()].0)
                .sum();
            let budget = power.tp[node.index()].0;
            if sum > budget + BUDGET_EPS * budget.abs().max(1.0) {
                self.violations.push(InvariantViolation::BudgetOverflow {
                    node,
                    children: Watts(sum),
                    budget: Watts(budget),
                });
            }
        }
        self.violations.append(&mut self.row_violations);

        // 4. Physical sanity of every power state vector: a branch-free
        // all-clear fold, and the exact per-entry pass only on failure.
        for (what, column) in [("tp", &power.tp), ("cp", &power.cp), ("cap", &power.cap)] {
            if column.iter().fold(true, |ok, v| ok & sane_watts(v.0)) {
                continue;
            }
            for (i, v) in column.iter().enumerate() {
                check_watts(&mut self.violations, what, i, v.0);
            }
        }

        self.total += self.violations.len() as u64;
        self.tel.add(self.violations.len() as u64);
        assert!(
            !self.panic_mode || self.violations.is_empty(),
            "invariant violations at tick {}: {:?}",
            w.tick_count(),
            self.violations
        );
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;
    use crate::server::ServerSpec;
    use crate::Disturbances;
    use willow_thermal::units::Celsius;
    use willow_topology::Tree;
    use willow_workload::app::{Application, SIM_APP_CLASSES};

    fn build(apps_per_server: usize) -> (Willow, usize) {
        build_with(apps_per_server, ControllerConfig::default())
    }

    fn build_with(apps_per_server: usize, config: ControllerConfig) -> (Willow, usize) {
        let tree = Tree::paper_fig3();
        let leaves: Vec<_> = tree.leaves().collect();
        let n_apps = leaves.len() * apps_per_server;
        let specs: Vec<ServerSpec> = leaves
            .iter()
            .enumerate()
            .map(|(i, &leaf)| {
                let apps: Vec<Application> = (0..apps_per_server)
                    .map(|k| {
                        let class = (i + k) % SIM_APP_CLASSES.len();
                        Application::new(
                            AppId((i * apps_per_server + k) as u32),
                            class,
                            &SIM_APP_CLASSES[class],
                        )
                    })
                    .collect();
                ServerSpec::simulation_default(leaf).with_apps(apps)
            })
            .collect();
        let w = Willow::new(tree, specs, config).unwrap();
        (w, n_apps)
    }

    /// Faulted disturbances exercising loss, sensor overrides, and failed
    /// migrations — the auditor must stay quiet through all of it.
    fn disturb(t: u64, n: usize) -> Disturbances {
        use crate::disturbance::MigrationOutcome;
        let mut d = Disturbances {
            crashed: vec![false; n],
            report_lost: vec![false; n],
            directive_lost: vec![false; n],
            sensor_override: vec![None; n],
            sensor_offset: vec![0.0; n],
            migration_outcomes: Vec::new(),
        };
        d.report_lost[(t as usize) % n] = true;
        d.directive_lost[(t as usize * 7) % n] = true;
        d.directive_lost[(t as usize * 7 + 1) % n] = true;
        if t.is_multiple_of(4) {
            d.sensor_override[3] = Some(Celsius(95.0));
        }
        d.migration_outcomes = (0..8)
            .map(|i| match (t + i) % 3 {
                0 => MigrationOutcome::Reject,
                1 => MigrationOutcome::Abort,
                _ => MigrationOutcome::Success,
            })
            .collect();
        d
    }

    #[test]
    fn faulted_run_stays_clean() {
        let (mut w, n_apps) = build(2);
        let n = w.servers().len();
        let mut auditor = Auditor::new(&w).panic_on_violation(true);
        let mut report = crate::migration::TickReport::default();
        for t in 0..240u64 {
            let demands: Vec<Watts> = (0..n_apps)
                .map(|i| Watts(15.0 + ((i as u64 + t) % 9) as f64 * 25.0))
                .collect();
            let supply = if t % 11 < 6 {
                Watts(9000.0)
            } else {
                Watts(3500.0)
            };
            let d = disturb(t, n);
            if (80..100).contains(&t) {
                // Controller outage mid-run: the auditor must hold
                // open-loop too.
                w.step_open_loop(&demands, &d, &mut report);
            } else {
                w.step_into(&demands, supply, &d, &mut report);
            }
            assert!(auditor.check(&w).is_empty(), "tick {t}");
        }
        assert_eq!(auditor.total_violations(), 0);
        assert_eq!(auditor.checks(), 240);
    }

    /// Holt's level undershoots zero after a demand cliff: with α = β =
    /// 0.9, the second period of zero demand after a steady load drives a
    /// row's level below zero. The row's floor keeps its `local_cp` and
    /// the hierarchy's `cp` non-negative, which the auditor checks.
    #[test]
    fn holt_demand_cliff_stays_non_negative() {
        let config = ControllerConfig {
            alpha: 0.9,
            smoother: crate::config::SmootherKind::Holt { beta: 0.9 },
            ..ControllerConfig::default()
        };
        let (mut w, n_apps) = build_with(2, config);
        let mut auditor = Auditor::new(&w);
        let mut report = crate::migration::TickReport::default();
        let mut undershoots = 0;
        for t in 0..12 {
            let demand = if t < 8 { Watts(60.0) } else { Watts::ZERO };
            let demands = vec![demand; n_apps];
            w.step_into(
                &demands,
                Watts(9000.0),
                &Disturbances::default(),
                &mut report,
            );
            let violations = auditor.check(&w);
            assert!(violations.is_empty(), "tick {t}: {violations:?}");
            undershoots += w
                .servers()
                .iter()
                .filter(|s| s.smoother.level().is_some_and(|l| l < Watts::ZERO))
                .count();
        }
        assert!(undershoots > 0, "no Holt level went below zero");
    }

    #[test]
    fn recovery_stays_clean() {
        let (mut w, n_apps) = build(2);
        let n = w.servers().len();
        let mut auditor = Auditor::new(&w);
        let mut report = crate::migration::TickReport::default();
        let demands: Vec<Watts> = (0..n_apps)
            .map(|i| Watts(20.0 + (i % 5) as f64 * 20.0))
            .collect();
        for _ in 0..20 {
            w.step_into(
                &demands,
                Watts(4000.0),
                &Disturbances::default(),
                &mut report,
            );
            assert!(auditor.check(&w).is_empty());
        }
        let ckpt = w.snapshot();
        for t in 20..40 {
            let d = disturb(t, n);
            w.step_open_loop(&demands, &d, &mut report);
            assert!(auditor.check(&w).is_empty());
        }
        let mut w = Willow::recover(ckpt, &w).unwrap();
        for _ in 0..40 {
            w.step_into(
                &demands,
                Watts(4000.0),
                &Disturbances::default(),
                &mut report,
            );
            assert!(auditor.check(&w).is_empty(), "post-recovery");
        }
        assert_eq!(auditor.total_violations(), 0);
    }
}
