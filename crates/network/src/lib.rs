//! Network substrate for Willow (paper §V-B5, Fig. 8).
//!
//! Migrations have a *direct* network impact (the VM's state crosses the
//! fabric) and an *indirect* one (after a migration the switch serving the
//! target node carries that application's query traffic). The paper models
//! a switch hierarchy congruent to the power-control hierarchy: level-1
//! switches sit with the servers, level-2 switches above them, and so on;
//! switches draw their power budget from the level above and their power is
//! `static + dynamic`, the dynamic part proportional to traffic. The paper
//! balances that traffic evenly across redundant paths; this crate does not
//! model the balancing, so every switch carries its whole path's load, as
//! every figure ran.
//!
//! * [`switch`] — the static+dynamic switch power model.
//! * [`fabric`] — per-epoch traffic accounting over the switch tree
//!   (query traffic root→server, migration traffic via the LCA path).
//! * [`migration`] — the migration cost model: watts of temporary power
//!   demand and units of fabric traffic per migrated watt.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod migration;
pub mod switch;
pub mod telemetry;

pub use fabric::Fabric;
pub use migration::MigrationCostModel;
pub use switch::SwitchPowerModel;
pub use telemetry::FabricTelemetry;
