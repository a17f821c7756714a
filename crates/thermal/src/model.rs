//! The first-order RC thermal model (paper Eqs. 1–2).
//!
//! The governing equation is
//!
//! ```text
//! dT/dt = c1·P(t) − c2·(T(t) − Ta)
//! ```
//!
//! For power held constant at `P` over a window `[0, t]` the explicit
//! solution (paper Eq. 2, specialized to constant power) is
//!
//! ```text
//! T(t) = Ta + (T(0) − Ta)·e^(−c2·t) + (c1/c2)·P·(1 − e^(−c2·t))
//! ```
//!
//! so the temperature relaxes exponentially toward the steady state
//! `Ta + c1·P/c2`. [`DeviceThermal::advance`] applies exactly this closed
//! form, which makes the integration unconditionally stable for any step
//! size — there is no Euler drift to worry about at the coarse control
//! granularities (hundreds of ms to seconds) Willow operates at.

use crate::limit::power_limit;
use crate::units::{Celsius, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// The per-device thermal constants `(c1, c2)` of paper Eq. 1.
///
/// `c1` converts power into heating rate (°C per joule, i.e. °C/(W·s));
/// `c2` is the cooling rate toward ambient (1/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Heating constant `c1` in °C/(W·s). Must be positive.
    pub c1: f64,
    /// Cooling constant `c2` in 1/s. Must be positive.
    pub c2: f64,
}

impl ThermalParams {
    /// The constants the paper selects for its simulations (§V-B2, Fig. 4):
    /// `c1 = 0.08`, `c2 = 0.05`. With ambient 25 °C and thermal limit 70 °C
    /// these present a maximum power limit of ≈450 W from a cold start.
    pub const SIMULATION: ThermalParams = ThermalParams { c1: 0.08, c2: 0.05 };

    /// The constants the paper fits on its physical testbed (§V-C2, Fig. 14):
    /// `c1 = 0.2`, `c2 = 0.1`. These correspond to a server drawing at most
    /// ≈320 W at 100 % CPU rather than the 450 W nameplate assumed in the
    /// simulations.
    pub const EXPERIMENTAL: ThermalParams = ThermalParams { c1: 0.2, c2: 0.1 };

    /// Constants consistent with *sustained* operation at `rating` watts:
    /// `c1 = c2·(T_limit − Ta)/rating`, so the steady-state temperature at
    /// full rated power is exactly the thermal limit.
    ///
    /// The paper's own constants (both the simulated `(0.08, 0.05)` and the
    /// experimentally fitted `(0.2, 0.1)`) imply steady-state power caps of
    /// 28 W and 22.5 W — far below the 450 W / ≈220 W the paper's own power
    /// figures show servers drawing for long stretches. The published
    /// constants only make sense for the *short-window* limit calculation of
    /// Fig. 4/Fig. 14; a persistent-temperature simulation needs constants
    /// whose ratio `c1/c2` matches `(T_limit − Ta)/P_max`. This constructor
    /// produces them (see `DESIGN.md`, "Conservative thermal estimate").
    ///
    /// # Panics
    /// Panics if `rating` is non-positive, `c2` is non-positive, or
    /// `t_limit ≤ ambient`.
    #[must_use]
    pub fn sustained(c2: f64, ambient: Celsius, t_limit: Celsius, rating: Watts) -> Self {
        assert!(c2.is_finite() && c2 > 0.0, "c2 must be positive");
        assert!(rating.0 > 0.0, "rating must be positive");
        let headroom = (t_limit - ambient).0;
        assert!(headroom > 0.0, "thermal limit must exceed ambient");
        ThermalParams {
            c1: c2 * headroom / rating.0,
            c2,
        }
    }

    /// Create a validated parameter set.
    ///
    /// # Errors
    /// Returns an error string if either constant is non-positive or
    /// non-finite; the model's closed form divides by `c2` and assumes decay.
    pub fn new(c1: f64, c2: f64) -> Result<Self, ThermalParamError> {
        if !(c1.is_finite() && c1 > 0.0) {
            return Err(ThermalParamError::InvalidC1(c1));
        }
        if !(c2.is_finite() && c2 > 0.0) {
            return Err(ThermalParamError::InvalidC2(c2));
        }
        Ok(ThermalParams { c1, c2 })
    }
}

/// Error returned by [`ThermalParams::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThermalParamError {
    /// `c1` was non-positive or non-finite.
    InvalidC1(f64),
    /// `c2` was non-positive or non-finite.
    InvalidC2(f64),
}

impl std::fmt::Display for ThermalParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalParamError::InvalidC1(v) => {
                write!(
                    f,
                    "thermal constant c1 must be finite and positive, got {v}"
                )
            }
            ThermalParamError::InvalidC2(v) => {
                write!(
                    f,
                    "thermal constant c2 must be finite and positive, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for ThermalParamError {}

/// The exponential decay factor `e^(−c2·dt)` appearing in every use of the
/// closed-form solution. `c2` and the control period are constants of a
/// run, so hot paths compute this once per device and use
/// [`step_temperature_with_decay`] (or
/// [`crate::limit::power_limit_with_decay`]) thereafter — bit-identical to
/// the uncached functions, which are defined in terms of this one.
#[must_use]
pub fn decay_factor(params: ThermalParams, dt: Seconds) -> f64 {
    (-params.c2 * dt.0).exp()
}

/// [`step_temperature`] with the decay factor `e^(−c2·dt)` supplied by the
/// caller (see [`decay_factor`]).
#[must_use]
pub fn step_temperature_with_decay(
    params: ThermalParams,
    t0: Celsius,
    ta: Celsius,
    p: Watts,
    decay: f64,
) -> Celsius {
    let cooling = ta + (t0 - ta) * decay;
    let heating = (params.c1 / params.c2) * p.0 * (1.0 - decay);
    Celsius(cooling.0 + heating)
}

/// Closed-form temperature after holding power `p` for `dt`, starting from
/// `t0` with ambient `ta` (paper Eq. 2 specialized to constant power).
#[must_use]
pub fn step_temperature(
    params: ThermalParams,
    t0: Celsius,
    ta: Celsius,
    p: Watts,
    dt: Seconds,
) -> Celsius {
    debug_assert!(dt.0 >= 0.0, "time must not run backwards");
    step_temperature_with_decay(params, t0, ta, p, decay_factor(params, dt))
}

/// The full thermal state of one device: constants, environment, limit,
/// nameplate rating and current temperature.
///
/// This is the object the Willow controller consults to translate a thermal
/// limit into the *hard power constraint* of §IV-D.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceThermal {
    params: ThermalParams,
    ambient: Celsius,
    limit: Celsius,
    rating: Watts,
    temperature: Celsius,
}

impl DeviceThermal {
    /// Create a device at thermal equilibrium with its ambient (i.e. idle and
    /// fully cooled, as after a deep-sleep period).
    #[must_use]
    pub fn new(params: ThermalParams, ambient: Celsius, limit: Celsius, rating: Watts) -> Self {
        DeviceThermal {
            params,
            ambient,
            limit,
            rating,
            temperature: ambient,
        }
    }

    /// Current component temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Ambient temperature right outside the component.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Thermal limit `T_limit`.
    #[must_use]
    pub fn limit(&self) -> Celsius {
        self.limit
    }

    /// Nameplate power rating (upper bound on any power limit).
    #[must_use]
    pub fn rating(&self) -> Watts {
        self.rating
    }

    /// The thermal constants.
    #[must_use]
    pub fn params(&self) -> ThermalParams {
        self.params
    }

    /// Advance the state by `dt` with constant power `p`, using the exact
    /// closed-form solution. Returns the new temperature.
    pub fn advance(&mut self, p: Watts, dt: Seconds) -> Celsius {
        self.temperature = step_temperature(self.params, self.temperature, self.ambient, p, dt);
        self.temperature
    }

    /// Maximum constant power the device may draw for the next `window`
    /// seconds such that its temperature does not exceed `T_limit` at the end
    /// of the window (paper Eq. 3), clamped to `[0, rating]`.
    ///
    /// This is the *hard constraint* fed into the supply-side budget
    /// allocation of §IV-D.
    #[must_use]
    pub fn power_limit(&self, window: Seconds) -> Watts {
        power_limit(
            self.params,
            self.temperature,
            self.ambient,
            self.limit,
            window,
        )
        .clamp(Watts::ZERO, self.rating)
    }

    /// Headroom to the thermal limit in kelvin. Negative if over limit.
    #[must_use]
    pub fn headroom(&self) -> f64 {
        (self.limit - self.temperature).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn sim_device() -> DeviceThermal {
        DeviceThermal::new(
            ThermalParams::SIMULATION,
            Celsius(25.0),
            Celsius(70.0),
            Watts(450.0),
        )
    }

    #[test]
    fn params_validation() {
        assert!(ThermalParams::new(0.08, 0.05).is_ok());
        assert!(matches!(
            ThermalParams::new(0.0, 0.05),
            Err(ThermalParamError::InvalidC1(_))
        ));
        assert!(matches!(
            ThermalParams::new(0.08, -0.1),
            Err(ThermalParamError::InvalidC2(_))
        ));
        assert!(ThermalParams::new(f64::NAN, 0.05).is_err());
        assert!(ThermalParams::new(0.08, f64::INFINITY).is_err());
    }

    #[test]
    fn paper_constants() {
        assert_eq!(ThermalParams::SIMULATION.c1, 0.08);
        assert_eq!(ThermalParams::SIMULATION.c2, 0.05);
        assert_eq!(ThermalParams::EXPERIMENTAL.c1, 0.2);
        assert_eq!(ThermalParams::EXPERIMENTAL.c2, 0.1);
    }

    #[test]
    fn time_constant_is_inverse_c2() {
        // At zero power the excess over ambient e-folds every 1/c2 = 20 s.
        let mut dev = sim_device();
        dev.advance(Watts(400.0), Seconds(500.0));
        let excess = dev.temperature().0 - dev.ambient().0;
        dev.advance(Watts::ZERO, Seconds(20.0));
        let after = dev.temperature().0 - dev.ambient().0;
        assert!((after / excess - (-1.0f64).exp()).abs() < EPS);
    }

    #[test]
    fn zero_power_decays_to_ambient() {
        let mut dev = sim_device();
        dev.advance(Watts(450.0), Seconds(100.0));
        assert!(dev.temperature().0 > 60.0);
        // After many time constants the device must be at ambient.
        dev.advance(Watts::ZERO, Seconds(10_000.0));
        assert!((dev.temperature().0 - 25.0).abs() < 1e-6);
    }

    #[test]
    fn zero_time_is_identity() {
        let mut dev = sim_device();
        let before = dev.temperature();
        dev.advance(Watts(300.0), Seconds::ZERO);
        assert_eq!(dev.temperature(), before);
    }

    #[test]
    fn constant_power_converges_to_steady_state() {
        let p = ThermalParams::SIMULATION;
        let mut dev = sim_device();
        let power = Watts(20.0);
        dev.advance(power, Seconds(100_000.0));
        let expected = 25.0 + p.c1 * power.0 / p.c2; // Ta + c1 P / c2
        assert!((dev.temperature().0 - expected).abs() < 1e-6);
    }

    #[test]
    fn temperature_is_monotone_in_power() {
        let dev = sim_device();
        let dt = Seconds(30.0);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 50.0, 100.0, 200.0, 400.0] {
            let t = step_temperature(dev.params(), dev.temperature(), dev.ambient(), Watts(p), dt);
            assert!(t.0 > last, "temperature must rise with power");
            last = t.0;
        }
    }

    #[test]
    fn closed_form_matches_fine_euler() {
        // The exact solution must agree with a fine explicit-Euler
        // integration of Eq. 1.
        let params = ThermalParams::SIMULATION;
        let ta = Celsius(25.0);
        let p = Watts(300.0);
        let total = 50.0;
        let exact = step_temperature(params, Celsius(40.0), ta, p, Seconds(total));

        let mut t = 40.0;
        let n = 2_000_000;
        let h = total / n as f64;
        for _ in 0..n {
            t += (params.c1 * p.0 - params.c2 * (t - ta.0)) * h;
        }
        assert!(
            (exact.0 - t).abs() < 1e-3,
            "exact {} vs euler {}",
            exact.0,
            t
        );
    }

    #[test]
    fn advance_composes() {
        // Advancing 2×15 s must equal advancing 30 s once (exact solution,
        // constant power).
        let mut a = sim_device();
        let mut b = sim_device();
        let p = Watts(250.0);
        a.advance(p, Seconds(15.0));
        a.advance(p, Seconds(15.0));
        b.advance(p, Seconds(30.0));
        assert!((a.temperature().0 - b.temperature().0).abs() < 1e-9);
    }

    #[test]
    fn over_limit_detection() {
        let mut dev = DeviceThermal::new(
            ThermalParams::SIMULATION,
            Celsius(45.0),
            Celsius(70.0),
            Watts(450.0),
        );
        assert!(dev.headroom() > 0.0);
        dev.advance(Watts(450.0), Seconds(100.0));
        assert!(dev.headroom() < 0.0);
    }

    #[test]
    fn sustained_constants_cap_at_rating() {
        use crate::limit::steady_state_power;
        let p = ThermalParams::sustained(0.1, Celsius(25.0), Celsius(70.0), Watts(450.0));
        let cap = steady_state_power(p, Celsius(25.0), Celsius(70.0));
        assert!((cap.0 - 450.0).abs() < 1e-9);
        // Hot zone at 40 °C sustains only 300 W — the Fig. 5 shape.
        let hot = steady_state_power(p, Celsius(40.0), Celsius(70.0));
        assert!((hot.0 - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "thermal limit must exceed ambient")]
    fn sustained_rejects_inverted_limits() {
        let _ = ThermalParams::sustained(0.1, Celsius(70.0), Celsius(25.0), Watts(450.0));
    }

    #[test]
    fn hot_ambient_raises_trajectory() {
        let cold = step_temperature(
            ThermalParams::SIMULATION,
            Celsius(25.0),
            Celsius(25.0),
            Watts(200.0),
            Seconds(60.0),
        );
        let hot = step_temperature(
            ThermalParams::SIMULATION,
            Celsius(40.0),
            Celsius(40.0),
            Watts(200.0),
            Seconds(60.0),
        );
        assert!(
            (hot.0 - cold.0 - 15.0).abs() < 1e-9,
            "pure offset for equal start-vs-ambient gap"
        );
    }
}
