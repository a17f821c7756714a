//! Power budgeting substrate for Willow (paper §IV-D, Eqs. 5–9).
//!
//! In a power-limited data center every level of the hierarchy has a power
//! budget that is divided among its children *in proportion to their
//! demands*, subject to
//!
//! * **hard constraints** — thermal and circuit limits of individual
//!   components (the thermal part comes from inverting the RC model, see
//!   `willow-thermal`), and
//! * **soft constraints** — the proportional split among siblings.
//!
//! The deficit / surplus / imbalance definitions of Eqs. 5–9 are evaluated
//! where the controller keeps its per-node state (`willow-core`'s
//! `PowerState`), and the §IV-E migration-margin rule where it plans
//! migrations. This crate provides:
//!
//! * [`allocation`] — capped proportional (water-filling) budget division
//!   and the three surplus actions of §IV-D,
//! * [`supply`] — total-supply traces: the paper's energy-deficient
//!   (Fig. 15) and energy-plenty (Fig. 19) profiles plus seeded generators,
//! * [`storage`] — the battery-backed UPS that integrates out temporary
//!   supply deficits (§IV-C),
//! * [`renewable`] — solar/grid supply generators behind the EAC
//!   motivation (§I, §III).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod renewable;
pub mod storage;
pub mod supply;

pub use allocation::{
    allocate_proportional, allocate_proportional_into, AllocationError, AllocationScratch,
};
pub use renewable::SolarModel;
pub use storage::Battery;
pub use supply::SupplyTrace;
