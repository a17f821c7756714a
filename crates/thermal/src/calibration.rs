//! Thermal-constant calibration (paper §V-B2 Fig. 4 and §V-C2 Fig. 14).
//!
//! The paper selects its simulation constants by sweeping candidate
//! `(c1, c2)` pairs and checking two anchor conditions (Fig. 4):
//!
//! 1. a cold, idle server at ambient 25 °C should present a power limit of
//!    roughly its nameplate rating (≈450 W), and
//! 2. a server at its 70 °C limit in a 45 °C hot zone should present almost
//!    no surplus.
//!
//! On the physical testbed the constants are instead *fitted* from a measured
//! power/temperature trace (Fig. 14, giving c1 = 0.2, c2 = 0.1). Since we
//! have no Extech power analyzer, [`fit_constants`] implements the same
//! least-squares procedure against traces generated by the model itself (or
//! noisy versions thereof); the testbed crate uses it to "re-measure" the
//! constants exactly the way the authors did.

use crate::limit::power_limit;
use crate::model::{step_temperature, ThermalParams};
use crate::units::{Celsius, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One point of a Fig. 4-style calibration curve: the power limit presented
/// by a device at a given temperature state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LimitPoint {
    /// Device temperature at the start of the window.
    pub temperature: Celsius,
    /// Power limit presented for the window (may be clamped by the caller).
    pub limit: Watts,
}

/// Sweep the power limit presented by a device across starting temperatures,
/// producing one curve of Fig. 4 for a fixed `(params, ambient)`.
#[must_use]
pub fn limit_curve(
    params: ThermalParams,
    ambient: Celsius,
    t_limit: Celsius,
    window: Seconds,
    temperatures: impl IntoIterator<Item = Celsius>,
) -> Vec<LimitPoint> {
    temperatures
        .into_iter()
        .map(|t0| LimitPoint {
            temperature: t0,
            limit: power_limit(params, t0, ambient, t_limit, window).non_negative(),
        })
        .collect()
}

/// Outcome of checking one `(c1, c2)` candidate against the paper's two
/// Fig. 4 anchor conditions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateScore {
    /// The candidate constants.
    pub params: ThermalParams,
    /// Power limit presented by a cold idle server (Ta = T0 = 25 °C).
    pub cold_limit: Watts,
    /// Power limit presented at the thermal limit in the hot zone
    /// (Ta = 45 °C, T0 = 70 °C).
    pub hot_limit: Watts,
    /// |cold_limit − rating| — smaller is better.
    pub cold_error: f64,
}

/// Evaluate candidate constants against the Fig. 4 anchors and return the
/// candidates sorted by how closely the cold-start limit matches `rating`.
///
/// The paper's chosen `(0.08, 0.05)` must come out on top when included in
/// the candidate set with the window the paper's anchors imply.
#[must_use]
pub fn score_candidates(
    candidates: impl IntoIterator<Item = ThermalParams>,
    rating: Watts,
    window: Seconds,
) -> Vec<CandidateScore> {
    let mut scored: Vec<CandidateScore> = candidates
        .into_iter()
        .map(|params| {
            let cold = power_limit(params, Celsius(25.0), Celsius(25.0), Celsius(70.0), window)
                .non_negative();
            let hot = power_limit(params, Celsius(70.0), Celsius(45.0), Celsius(70.0), window)
                .non_negative();
            CandidateScore {
                params,
                cold_limit: cold,
                hot_limit: hot,
                cold_error: (cold.0 - rating.0).abs(),
            }
        })
        .collect();
    scored.sort_by(|a, b| a.cold_error.total_cmp(&b.cold_error));
    scored
}

/// A single observation of the testbed trace: the device held power `power`
/// for `dt` and its temperature moved from `t_before` to `t_after`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceObservation {
    /// Temperature at the start of the hold.
    pub t_before: Celsius,
    /// Temperature at the end of the hold.
    pub t_after: Celsius,
    /// Constant power during the hold.
    pub power: Watts,
    /// Duration of the hold.
    pub dt: Seconds,
}

/// Least-squares fit of `(c1, c2)` from trace observations, emulating the
/// paper's experimental parameter estimation (§V-C2).
///
/// For short holds the ODE gives `ΔT/dt ≈ c1·P − c2·(T − Ta)`, which is
/// linear in `(c1, c2)`; we solve the 2×2 normal equations directly. The fit
/// refuses degenerate inputs (fewer than two observations, or observations
/// that do not excite both parameters).
pub fn fit_constants(
    observations: &[TraceObservation],
    ambient: Celsius,
) -> Result<ThermalParams, FitError> {
    if observations.len() < 2 {
        return Err(FitError::TooFewObservations(observations.len()));
    }
    // Regress y = c1·x1 + c2·x2 with
    //   y  = ΔT/dt,  x1 = P,  x2 = −(T̄ − Ta)
    // using the midpoint temperature T̄ to reduce discretization bias.
    let (mut s11, mut s12, mut s22, mut sy1, mut sy2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for obs in observations {
        if !obs.dt.is_positive() {
            return Err(FitError::NonPositiveDuration);
        }
        let y = (obs.t_after - obs.t_before).0 / obs.dt.0;
        let x1 = obs.power.0;
        let mid = 0.5 * (obs.t_before.0 + obs.t_after.0);
        let x2 = -(mid - ambient.0);
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        sy1 += y * x1;
        sy2 += y * x2;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 {
        return Err(FitError::Degenerate);
    }
    let c1 = (sy1 * s22 - sy2 * s12) / det;
    let c2 = (sy2 * s11 - sy1 * s12) / det;
    ThermalParams::new(c1, c2).map_err(|_| FitError::NonPhysical { c1, c2 })
}

/// Error from [`fit_constants`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitError {
    /// Need at least two observations to identify two parameters.
    TooFewObservations(usize),
    /// An observation had `dt <= 0`.
    NonPositiveDuration,
    /// The observations do not excite both parameters (singular system).
    Degenerate,
    /// The least-squares solution had a non-positive constant.
    NonPhysical {
        /// Fitted heating constant.
        c1: f64,
        /// Fitted cooling constant.
        c2: f64,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations(n) => {
                write!(f, "need ≥2 observations to fit (c1, c2), got {n}")
            }
            FitError::NonPositiveDuration => write!(f, "observation with non-positive duration"),
            FitError::Degenerate => write!(f, "observations do not excite both parameters"),
            FitError::NonPhysical { c1, c2 } => {
                write!(f, "fit produced non-physical constants c1={c1}, c2={c2}")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Generate a synthetic testbed trace: hold each power level for `hold`,
/// sampling temperature at `sample_dt` intervals, exactly as the paper's
/// baseline experiment holds CPU-bound load levels while a 2 Hz power
/// analyzer samples.
#[must_use]
pub fn synthesize_trace(
    params: ThermalParams,
    ambient: Celsius,
    start: Celsius,
    powers: &[Watts],
    hold: Seconds,
    sample_dt: Seconds,
) -> Vec<TraceObservation> {
    assert!(sample_dt.is_positive(), "sample interval must be positive");
    let mut out = Vec::new();
    let mut t = start;
    for &p in powers {
        let mut remaining = hold.0;
        while remaining > 1e-12 {
            let dt = Seconds(sample_dt.0.min(remaining));
            let next = step_temperature(params, t, ambient, p, dt);
            out.push(TraceObservation {
                t_before: t,
                t_after: next,
                power: p,
                dt,
            });
            t = next;
            remaining -= dt.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const AMBIENT: Celsius = Celsius(25.0);

    #[test]
    fn paper_candidate_wins_fig4_sweep() {
        // Sweep a grid of candidates including the paper's (0.08, 0.05);
        // with the anchor window it must rank first for a 450 W rating.
        let window = Seconds(1.2908);
        let mut candidates = Vec::new();
        for &c1 in &[0.02, 0.05, 0.08, 0.12, 0.2] {
            for &c2 in &[0.01, 0.02, 0.05, 0.1] {
                candidates.push(ThermalParams { c1, c2 });
            }
        }
        let scored = score_candidates(candidates, Watts(450.0), window);
        let best = scored[0];
        assert_eq!(best.params, ThermalParams::SIMULATION);
        assert!(
            best.hot_limit.0 < 30.0,
            "hot-zone surplus must be near zero"
        );
    }

    #[test]
    fn limit_curve_is_monotone_decreasing() {
        let curve = limit_curve(
            ThermalParams::SIMULATION,
            AMBIENT,
            Celsius(70.0),
            Seconds(30.0),
            (25..=70).step_by(5).map(|t| Celsius(t as f64)),
        );
        for w in curve.windows(2) {
            assert!(w[1].limit.0 <= w[0].limit.0);
        }
        assert_eq!(curve.len(), 10);
    }

    #[test]
    fn fit_recovers_exact_constants() {
        let truth = ThermalParams::EXPERIMENTAL;
        let trace = synthesize_trace(
            truth,
            AMBIENT,
            AMBIENT,
            &[
                Watts(80.0),
                Watts(160.0),
                Watts(240.0),
                Watts(320.0),
                Watts(0.0),
            ],
            Seconds(60.0),
            Seconds(0.5), // the paper's 2 Hz analyzer
        );
        let fit = fit_constants(&trace, AMBIENT).expect("fit");
        assert!(
            (fit.c1 - truth.c1).abs() < 1e-3,
            "c1: {} vs {}",
            fit.c1,
            truth.c1
        );
        assert!(
            (fit.c2 - truth.c2).abs() < 1e-3,
            "c2: {} vs {}",
            fit.c2,
            truth.c2
        );
    }

    #[test]
    fn fit_tolerates_measurement_noise() {
        // Deterministic pseudo-noise (no rand dependency in this crate):
        // perturb temperatures by a bounded, zero-mean sawtooth.
        let truth = ThermalParams::EXPERIMENTAL;
        let mut trace = synthesize_trace(
            truth,
            AMBIENT,
            AMBIENT,
            &[Watts(100.0), Watts(300.0), Watts(0.0)],
            Seconds(120.0),
            Seconds(0.5),
        );
        for (i, obs) in trace.iter_mut().enumerate() {
            let noise = ((i % 7) as f64 - 3.0) * 0.01; // ±0.03 °C
            obs.t_after = Celsius(obs.t_after.0 + noise);
        }
        let fit = fit_constants(&trace, AMBIENT).expect("fit");
        assert!((fit.c1 - truth.c1).abs() < 0.02);
        assert!((fit.c2 - truth.c2).abs() < 0.02);
    }

    #[test]
    fn fit_rejects_too_few() {
        assert!(matches!(
            fit_constants(&[], AMBIENT),
            Err(FitError::TooFewObservations(0))
        ));
    }

    #[test]
    fn fit_rejects_degenerate() {
        // Two identical zero-power, at-ambient observations: nothing moves,
        // the system is singular.
        let obs = TraceObservation {
            t_before: AMBIENT,
            t_after: AMBIENT,
            power: Watts::ZERO,
            dt: Seconds(1.0),
        };
        assert!(matches!(
            fit_constants(&[obs, obs], AMBIENT),
            Err(FitError::Degenerate)
        ));
    }

    #[test]
    fn fit_rejects_bad_duration() {
        let obs = TraceObservation {
            t_before: AMBIENT,
            t_after: Celsius(26.0),
            power: Watts(10.0),
            dt: Seconds(0.0),
        };
        let obs2 = TraceObservation {
            dt: Seconds(1.0),
            ..obs
        };
        assert!(matches!(
            fit_constants(&[obs, obs2], AMBIENT),
            Err(FitError::NonPositiveDuration)
        ));
    }

    #[test]
    fn synthesized_trace_has_expected_length() {
        let trace = synthesize_trace(
            ThermalParams::SIMULATION,
            AMBIENT,
            AMBIENT,
            &[Watts(10.0), Watts(20.0)],
            Seconds(10.0),
            Seconds(3.0),
        );
        // ceil(10/3) = 4 observations per hold, 2 holds.
        assert_eq!(trace.len(), 8);
        // Chain continuity: each observation starts where the last ended.
        for w in trace.windows(2) {
            assert_eq!(w[0].t_after, w[1].t_before);
        }
    }
}
