//! # willow-core — the Willow control system
//!
//! Reproduction of the control scheme from *Kant, Murugan & Du, "Willow: A
//! Control System for Energy and Thermal Adaptive Computing", IPDPS 2011*.
//!
//! Willow adapts a data center's workload placement to a *varying* energy
//! and thermal profile: when parts of the hierarchy become energy-deficient
//! (supply dips, thermal caps tighten), virtual machines are migrated from
//! deficit zones to surplus zones; when servers idle below a threshold,
//! their workload is consolidated away so they can be put in deep sleep.
//!
//! ## Control structure (paper §IV)
//!
//! * **Hierarchical, unidirectional.** Budgets flow *down* the PMU tree
//!   (proportional to demand, clipped by hard thermal/circuit constraints);
//!   demand reports flow *up*; migrations are initiated only by the
//!   *tightening* of power constraints, never by their loosening.
//! * **Three time granularities.** Demand adaptation every `Δ_D`; supply
//!   (budget) adaptation every `Δ_S = η1·Δ_D`; consolidation decisions every
//!   `Δ_A = η2·Δ_D`, with `η2 > η1` (the paper uses η1 = 4, η2 = 7).
//! * **Local first.** Deficit demand is first packed into *sibling*
//!   surpluses (local migration); only what cannot be satisfied locally is
//!   passed up the hierarchy for non-local placement (one FFDLR bin-packing
//!   instance per PMU node, §IV-F). Demand that cannot be placed anywhere is
//!   shed (applications run degraded or shut down).
//! * **Stability margins.** A migration happens only if both the source and
//!   the target retain a surplus of at least `P_min` afterwards, with the
//!   migration cost charged as temporary demand to both ends — this is what
//!   prevents ping-pong control (paper Property 4).
//!
//! ## Crate layout
//!
//! * [`config`] — all tunables ([`config::ControllerConfig`]).
//! * [`server`] — per-server runtime state (hosted apps, thermal, smoother).
//! * [`state`] — per-node power state arrays (`CP`, `TP`, caps, reduction
//!   flags).
//! * [`migration`] — migration records, reasons, and per-tick reports.
//! * [`command`] — the live-ops command plane: typed operator commands
//!   (server add/remove, drain, policy hot-swap, pause/resume) processed
//!   at a fixed point in the tick.
//! * [`control`] — [`control::Willow`] itself: `step()` once per `Δ_D`
//!   with measured app demands and the current total supply, staged as a
//!   five-phase pipeline with config-selected policies.
//!
//! ## Minimal use
//!
//! ```
//! use willow_core::config::ControllerConfig;
//! use willow_core::control::Willow;
//! use willow_core::server::ServerSpec;
//! use willow_thermal::units::Watts;
//! use willow_topology::Tree;
//! use willow_workload::app::{AppId, Application, SIM_APP_CLASSES};
//!
//! let tree = Tree::paper_fig3();
//! // One small app on each of the 18 servers.
//! let specs: Vec<ServerSpec> = tree
//!     .leaves()
//!     .enumerate()
//!     .map(|(i, leaf)| {
//!         let app = Application::new(AppId(i as u32), 0, &SIM_APP_CLASSES[0]);
//!         ServerSpec::simulation_default(leaf).with_apps(vec![app])
//!     })
//!     .collect();
//! let mut willow = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
//!
//! // Drive one control period: ample supply, 40 % utilization demands.
//! let demand: Vec<Watts> = (0..18).map(|_| Watts(10.0)).collect();
//! let report = willow.step(&demand, Watts(10_000.0));
//! assert_eq!(report.dropped_demand, Watts(0.0));
//! ```

#![warn(missing_docs)]
// Unsafe is denied crate-wide and allowed only in the audited shard-pool
// island (`control::shard` and the stage loops it shards): the persistent
// worker pool erases the job closure's borrow lifetime behind a barrier,
// and parallel stages hand disjoint index ranges of the same vectors to
// different workers. Every `unsafe` block carries its disjointness /
// lifetime argument inline.
#![deny(unsafe_code)]

pub mod audit;
pub mod baseline;
pub mod command;
pub mod config;
pub mod control;
/// The historical name of [`control`]. Only `perfbench/` still imports
/// through it; the workspace uses `control` or the crate-root re-exports.
pub use self::control as controller;
pub mod convergence;
#[cfg(test)]
mod differential;
pub mod disturbance;
pub mod federation;
pub mod migration;
#[cfg(test)]
#[allow(dead_code)]
pub(crate) mod reference;
pub mod server;
pub mod shedding;
pub mod snapshot;
pub mod state;
pub mod txn;

pub use audit::{Auditor, InvariantViolation};
pub use command::{
    Command, CommandError, CommandId, CommandOutcome, CommandStatus, PendingCommand,
};
pub use config::ControllerConfig;
pub use control::{Backoff, Watchdog, Willow};
pub use disturbance::{Disturbances, MigrationOutcome};
pub use federation::{
    BrokerConfig, BrokerCounters, BrokerSnapshot, FederationError, SupplyBroker, ZoneCondition,
    ZoneLink,
};
pub use migration::{MigrationReason, MigrationRecord, TickReport};
pub use server::ServerSpec;
