//! Workload model for Willow (paper §IV-C, §IV-E, §V-B1, §V-C3).
//!
//! Willow targets *transactional* workloads: demand is driven by user
//! queries, applications are hosted in VMs, and there is little or no
//! server-to-server interaction, so power consumption on a server is simply
//! the sum of what its hosted applications draw, and migrating a VM moves
//! its demand wholesale (demands are never split across nodes, §IV-E).
//!
//! The paper's simulations place on each server "a random mix of 4 different
//! application types that have a relative average power requirement of 1, 2,
//! 5 and 9", drive each node's power demand with a Poisson distribution, and
//! smooth measured demand with exponential smoothing (Eq. 4). The physical
//! testbed instead uses three CPU-bound web applications with measured power
//! deltas of 8, 10 and 15 W (Table II) on hosts whose utilization→power curve
//! is close to linear (Table I).
//!
//! # Modules
//!
//! * [`app`] — application classes and instances (the migration unit).
//! * [`poisson`] — exact Poisson sampling built on `rand` alone.
//! * [`demand`] — per-application stochastic demand generation.
//! * [`smoothing`] — the exponential smoother of Eq. 4.
//! * [`power_model`] — utilization↔power curves, including the testbed curve
//!   reconstructed from the paper's §V-C5 arithmetic.
//! * [`mix`] — random placement of application mixes onto servers.
//! * [`trace`] — a trapezoidal diurnal utilization profile.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod demand;
pub mod mix;
pub mod poisson;
pub mod power_model;
pub mod smoothing;
pub mod trace;

pub use app::{AppClass, AppId, Application, SIM_APP_CLASSES, TESTBED_APP_CLASSES};
pub use demand::DemandModel;
pub use power_model::LinearPowerModel;
pub use smoothing::ExpSmoother;
