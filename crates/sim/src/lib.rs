//! Data-center simulator for Willow (paper §V-B).
//!
//! This crate replaces the paper's MATLAB simulator: it wires the Willow
//! controller (`willow-core`) to the stochastic workload model
//! (`willow-workload`), the supply traces (`willow-power`) and the switch
//! fabric (`willow-network`), runs deterministic seeded experiments, and
//! aggregates the metrics behind every simulation figure of the paper
//! (Figs. 4–12).
//!
//! * [`commands`] — scheduled live-ops command timelines
//!   ([`SimCommand`], [`ScheduledCommand`]): operator drains, online
//!   server add/remove, packer hot-swaps and supply overrides submitted
//!   into the running controller at scheduled ticks.
//! * [`config`] — serializable experiment configuration ([`SimConfig`]).
//! * [`engine`] — the fixed-step simulation loop ([`Simulation`]).
//! * [`error`] — typed configuration/construction errors ([`SimError`]).
//! * [`faults`] — deterministic fault injection ([`FaultPlan`],
//!   [`FaultInjector`]): message loss, PMU crashes, sensor faults,
//!   migration failures, all pre-rolled from a dedicated seed; plus
//!   federation-level schedules ([`ZoneOutagePlan`]).
//! * [`federate`] — multi-zone federation driver
//!   ([`FederatedSimulation`]): N zone simulations in lockstep under a
//!   fault-tolerant supply broker.
//! * [`metrics`] — per-tick and aggregated run metrics.
//! * [`experiments`] — one runner per paper figure, returning printable row
//!   series (consumed by the `repro` binary in `willow-bench` and recorded
//!   in `EXPERIMENTS.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod config;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod faults;
pub mod federate;
pub mod messaging;
pub mod metrics;
pub mod parallel;
mod pipeline;
pub mod trace;

pub use commands::{parse_timeline, ScheduledCommand, SimCommand};
pub use config::SimConfig;
pub use engine::Simulation;
pub use error::SimError;
pub use faults::{FaultInjector, FaultPlan, ZoneOutage, ZoneOutageKind, ZoneOutagePlan};
pub use federate::{FederateConfig, FederatedSimulation, FederationRunMetrics};
pub use metrics::RunMetrics;
