//! RC thermal model for Willow (Kant, Murugan & Du, IPDPS 2011, §III-A).
//!
//! Every thermally constrained component (server, switch, …) is modelled by a
//! first-order linear ODE relating its power draw to its temperature:
//!
//! ```text
//! dT(t)/dt = c1·P(t) − c2·(T(t) − Ta)            (paper Eq. 1)
//! ```
//!
//! where `T` is the component temperature, `P` the instantaneous power draw,
//! `Ta` the ambient temperature right outside the component, and `c1`
//! (heating, °C/J) / `c2` (cooling, 1/s) are per-device thermal constants.
//!
//! Being first-order linear, the equation has the explicit solution used
//! throughout this crate (paper Eq. 2), and can be inverted to compute the
//! maximum power a device may draw over the next adjustment window without
//! exceeding its thermal limit (paper Eq. 3). Willow uses that inversion to
//! turn a *thermal* constraint into a *power* constraint, which the
//! hierarchical power controller then enforces like any other budget.
//!
//! # Modules
//!
//! * [`units`] — zero-cost newtypes for watts, degrees Celsius and seconds.
//! * [`model`] — [`ThermalParams`], [`DeviceThermal`] and the exact
//!   closed-form temperature update.
//! * [`limit`] — the power-limit solver (Eq. 3) and steady-state helpers.
//! * [`calibration`] — constant-selection sweeps reproducing the paper's
//!   Fig. 4 (simulation constants c1=0.08, c2=0.05) and Fig. 14
//!   (experimental fit c1=0.2, c2=0.1), plus a least-squares fitter that
//!   recovers `(c1, c2)` from an observed power/temperature trace.
//!
//! # Quick example
//!
//! ```
//! use willow_thermal::model::{DeviceThermal, ThermalParams};
//! use willow_thermal::units::{Celsius, Seconds, Watts};
//!
//! // The paper's simulation constants: a ~450 W server, 70 °C limit.
//! let mut dev = DeviceThermal::new(
//!     ThermalParams::SIMULATION,
//!     Celsius(25.0),        // ambient
//!     Celsius(70.0),        // thermal limit
//!     Watts(450.0),         // nameplate rating
//! );
//!
//! // Run at 20 W for ten minutes (the paper's constants imply short
//! // adjustment windows; sustained high power would exceed the limit).
//! dev.advance(Watts(20.0), Seconds(600.0));
//! assert!(dev.temperature() > Celsius(25.0));
//!
//! // How much power may it draw in the next window without overheating?
//! let p = dev.power_limit(Seconds(30.0));
//! assert!(p.0 > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod limit;
pub mod model;
pub mod units;

pub use limit::{power_limit, steady_state_power, steady_state_temperature};
pub use model::{DeviceThermal, ThermalParams};
pub use units::{Celsius, Seconds, Watts};
