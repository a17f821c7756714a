//! Exponential smoothing of measured power demand (paper Eq. 4).
//!
//! "Even with a suitable choice of Δ_D it may be necessary to do further
//! smoothing in order to determine trend in power consumption. Although it
//! is possible to use sophisticated ARIMA type of models, a simple
//! exponential smoothing is often adequate":
//!
//! ```text
//! CP_{l,i} = α·CP_{l,i} + (1 − α)·CP_old_{l,i}      0 < α < 1
//! ```
//!
//! `α` is one controller parameter, not a property of each smoothed
//! series: a [`Smoother`] holds only its state, and every update takes the
//! [`Gains`] its owner derives from configuration. With a trend gain `β`
//! the same state runs Holt's level + trend method, the simplest member of
//! the ARIMA family the paper mentions; it tracks ramps that plain
//! exponential smoothing persistently lags.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// The gains of one smoothing rule. Plain data: whoever builds it from
/// configuration checks the ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gains {
    /// Level gain `α ∈ (0, 1)`: close to 1 tracks raw measurements, close
    /// to 0 smooths heavily.
    pub alpha: f64,
    /// Trend gain `β ∈ (0, 1)` of Holt's method; `None` is Eq. 4's plain
    /// exponential smoothing, whose trend stays zero.
    pub beta: Option<f64>,
}

/// The state of one smoothed series: a level and a per-step trend.
///
/// Until the first observation arrives the level is `None`, so callers
/// never mistake "no data" for "zero demand".
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Smoother {
    level: Option<Watts>,
    trend: Watts,
}

impl Smoother {
    /// Feed one raw measurement under `gains`; returns the updated level.
    /// The first observation initializes the level directly, with zero
    /// trend.
    ///
    /// Non-finite measurements (NaN/±∞ from a glitching sensor) are
    /// discarded without touching the state — the recurrence would
    /// otherwise propagate a single NaN into every future output. A
    /// rejected observation returns the current level (zero watts if
    /// nothing finite has arrived yet).
    pub fn observe(&mut self, gains: Gains, raw: Watts) -> Watts {
        if !raw.0.is_finite() {
            return self.level.unwrap_or(Watts::ZERO);
        }
        let Gains { alpha, beta } = gains;
        let level = match (self.level, beta) {
            (None, _) => {
                self.trend = Watts::ZERO;
                raw
            }
            (Some(old), None) => raw * alpha + old * (1.0 - alpha),
            (Some(old), Some(beta)) => {
                let level = raw * alpha + (old + self.trend) * (1.0 - alpha);
                self.trend = (level - old) * beta + self.trend * (1.0 - beta);
                level
            }
        };
        self.level = Some(level);
        level
    }

    /// Current level, if any observation has been made.
    #[must_use]
    pub fn level(&self) -> Option<Watts> {
        self.level
    }

    /// Current per-step trend estimate, if any observation has been made
    /// (always zero without a trend gain).
    #[must_use]
    pub fn trend(&self) -> Option<Watts> {
        self.level.map(|_| self.trend)
    }

    /// Forecast `k` steps ahead: `level + k·trend`, floored at zero watts.
    #[must_use]
    pub fn forecast(&self, k: u32) -> Option<Watts> {
        self.level
            .map(|l| (l + self.trend * f64::from(k)).non_negative())
    }

    /// Forget all history (e.g. after a server is deactivated).
    pub fn reset(&mut self) {
        *self = Smoother::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 4 with level gain `alpha`.
    fn exp(alpha: f64) -> Gains {
        Gains { alpha, beta: None }
    }

    /// Holt's method with level gain `alpha` and trend gain `beta`.
    fn holt(alpha: f64, beta: f64) -> Gains {
        Gains {
            alpha,
            beta: Some(beta),
        }
    }

    #[test]
    fn first_observation_initializes() {
        let mut s = Smoother::default();
        assert_eq!(s.level(), None);
        assert_eq!(s.observe(exp(0.3), Watts(100.0)), Watts(100.0));
        assert_eq!(s.level(), Some(Watts(100.0)));
    }

    #[test]
    fn matches_eq4_recurrence() {
        let g = exp(0.25);
        let mut s = Smoother::default();
        s.observe(g, Watts(100.0));
        let v = s.observe(g, Watts(200.0));
        // α·200 + (1−α)·100 = 50 + 75 = 125
        assert!((v.0 - 125.0).abs() < 1e-12);
        let v2 = s.observe(g, Watts(0.0));
        // α·0 + 0.75·125 = 93.75
        assert!((v2.0 - 93.75).abs() < 1e-12);
        assert_eq!(s.trend(), Some(Watts::ZERO), "Eq. 4 keeps no trend");
    }

    #[test]
    fn converges_to_constant_input() {
        let g = exp(0.2);
        let mut s = Smoother::default();
        s.observe(g, Watts(0.0));
        let mut last = Watts(0.0);
        for _ in 0..200 {
            last = s.observe(g, Watts(50.0));
        }
        assert!((last.0 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn output_stays_within_input_range() {
        let mut s = Smoother::default();
        for &x in &[10.0, 90.0, 30.0, 70.0, 50.0] {
            let v = s.observe(exp(0.5), Watts(x));
            assert!(v.0 >= 10.0 && v.0 <= 90.0, "smoothed {v} escaped range");
        }
    }

    #[test]
    fn high_alpha_tracks_raw_more_closely() {
        let mut fast = Smoother::default();
        let mut slow = Smoother::default();
        fast.observe(exp(0.9), Watts(0.0));
        slow.observe(exp(0.1), Watts(0.0));
        let f = fast.observe(exp(0.9), Watts(100.0));
        let s = slow.observe(exp(0.1), Watts(100.0));
        assert!(f.0 > s.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut s = Smoother::default();
        s.observe(exp(0.3), Watts(42.0));
        s.reset();
        assert_eq!(s.level(), None);
        assert_eq!(s.observe(exp(0.3), Watts(7.0)), Watts(7.0));
    }

    #[test]
    fn holt_tracks_ramps_better_than_exponential() {
        // A steady 2 W/step ramp: Holt's level converges onto the ramp
        // while plain exponential smoothing lags it forever.
        let mut e = Smoother::default();
        let mut h = Smoother::default();
        let mut last_exp = Watts::ZERO;
        let mut last_holt = Watts::ZERO;
        let mut truth = Watts::ZERO;
        for k in 0..200 {
            truth = Watts(f64::from(k) * 2.0);
            last_exp = e.observe(exp(0.3), truth);
            last_holt = h.observe(holt(0.3, 0.2), truth);
        }
        let exp_lag = (truth - last_exp).0;
        let holt_lag = (truth - last_holt).0.abs();
        assert!(exp_lag > 3.0, "exponential must lag a ramp: {exp_lag}");
        assert!(
            holt_lag < exp_lag / 4.0,
            "holt lag {holt_lag} vs exp {exp_lag}"
        );
    }

    #[test]
    fn holt_forecast_extrapolates_trend() {
        let mut h = Smoother::default();
        for k in 0..50 {
            h.observe(holt(0.5, 0.5), Watts(f64::from(k) * 3.0));
        }
        let level = h.level().unwrap();
        let f5 = h.forecast(5).unwrap();
        assert!(f5 > level, "forecast must extend the upward trend");
        assert!((f5.0 - (level.0 + 5.0 * h.trend().unwrap().0)).abs() < 1e-9);
    }

    #[test]
    fn holt_forecast_floors_at_zero() {
        let mut h = Smoother::default();
        for k in (0..20).rev() {
            h.observe(holt(0.5, 0.5), Watts(f64::from(k)));
        }
        // Far-future forecast of a falling series is clamped at zero.
        assert_eq!(h.forecast(1000).unwrap(), Watts::ZERO);
    }

    #[test]
    fn holt_converges_on_constants() {
        let mut h = Smoother::default();
        let mut last = Watts::ZERO;
        for _ in 0..300 {
            last = h.observe(holt(0.3, 0.1), Watts(42.0));
        }
        assert!((last.0 - 42.0).abs() < 1e-6);
        assert!(h.trend().unwrap().0.abs() < 1e-6);
    }

    #[test]
    fn holt_reset_and_validation() {
        let mut h = Smoother::default();
        h.observe(holt(0.4, 0.4), Watts(10.0));
        h.observe(holt(0.4, 0.4), Watts(30.0));
        h.reset();
        assert_eq!(h.level(), None);
        assert_eq!(h.trend(), None);
        assert_eq!(h.forecast(3), None);
        assert_eq!(h, Smoother::default());
    }

    #[test]
    fn exp_smoother_rejects_non_finite_observations() {
        let g = exp(0.3);
        let mut s = Smoother::default();
        // Pre-state glitches leave the smoother uninitialized.
        assert_eq!(s.observe(g, Watts(f64::NAN)), Watts::ZERO);
        assert_eq!(s.level(), None);
        s.observe(g, Watts(100.0));
        // A NaN/∞ burst mid-stream must not poison the state.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(s.observe(g, Watts(bad)), Watts(100.0));
        }
        assert_eq!(s.level(), Some(Watts(100.0)));
        // Recovery: the next finite observation smooths off the old state.
        let v = s.observe(g, Watts(200.0));
        assert!((v.0 - 130.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn holt_smoother_rejects_non_finite_observations() {
        let g = holt(0.5, 0.3);
        let mut h = Smoother::default();
        assert_eq!(h.observe(g, Watts(f64::NEG_INFINITY)), Watts::ZERO);
        assert_eq!(h.level(), None);
        for k in 0..10 {
            h.observe(g, Watts(f64::from(k) * 2.0));
        }
        let (level, trend) = (h.level().unwrap(), h.trend().unwrap());
        assert!(level.0.is_finite() && trend.0.is_finite());
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(h.observe(g, Watts(bad)), level);
        }
        // Level, trend, and forecasts all survive the glitch untouched.
        assert_eq!(h.level(), Some(level));
        assert_eq!(h.trend(), Some(trend));
        assert!(h.forecast(5).unwrap().0.is_finite());
    }
}
