//! Utilization traces: a synthetic diurnal profile.
//!
//! §IV-C motivates Willow with workloads "of varying intensity"; real data
//! centers see strong diurnal patterns. This helper produces a per-period
//! utilization trace for `SimConfig::utilization_trace`-style replay.

/// A trapezoidal day: utilization holds at `night`, ramps linearly up to
/// `day` over `ramp` entries, holds at `day`, then ramps back down — one
/// full cycle every `period` entries, starting at night. The plateau and
/// trough get equal shares of the non-ramp time.
///
/// The ramps are exactly linear, which makes the shape the canonical
/// anticipatable load for trend-based forecasters (Holt's method locks
/// onto a linear ramp with zero asymptotic lag). Used by the
/// predictive-vs-reactive policy race.
///
/// ```
/// use willow_workload::trace::trapezoid_diurnal_profile;
///
/// let day = trapezoid_diurnal_profile(100, 0.2, 0.8, 100, 20);
/// assert_eq!(day.len(), 100);
/// assert_eq!(day[0], 0.2);           // night trough
/// assert_eq!(day[50], 0.8);          // midday plateau
/// assert!(day[40] > 0.2 && day[40] < 0.8); // morning ramp
/// ```
///
/// # Panics
/// Panics if `period == 0`, `2 * ramp > period`, either level is outside
/// `[0, 1]`, or `day < night`.
#[must_use]
pub fn trapezoid_diurnal_profile(
    len: usize,
    night: f64,
    day: f64,
    period: usize,
    ramp: usize,
) -> Vec<f64> {
    assert!(period > 0, "period must be positive");
    assert!(2 * ramp <= period, "ramps must fit inside one period");
    assert!((0.0..=1.0).contains(&night), "night must be a fraction");
    assert!((0.0..=1.0).contains(&day), "day must be a fraction");
    assert!(day >= night, "day level must not be below night level");
    // Split the flat time evenly: trough, ramp up, plateau, ramp down.
    let flat = period - 2 * ramp;
    let trough = flat / 2;
    let plateau_end = trough + ramp + (flat - trough);
    (0..len)
        .map(|t| {
            let t = t % period;
            if t < trough {
                night
            } else if t < trough + ramp {
                let frac = (t - trough) as f64 / ramp as f64;
                night + (day - night) * frac
            } else if t < plateau_end {
                day
            } else {
                let frac = (t - plateau_end) as f64 / ramp as f64;
                day - (day - night) * frac
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = trapezoid_diurnal_profile(10, 0.2, 0.8, 0, 0);
    }

    #[test]
    fn trapezoid_shape_and_repeat() {
        let day = trapezoid_diurnal_profile(200, 0.2, 0.8, 100, 20);
        // Trough, plateau, and exactly linear morning ramp.
        assert_eq!(day[0], 0.2);
        assert_eq!(day[29], 0.2);
        assert_eq!(day[60], 0.8);
        let slope = day[40] - day[39];
        for t in 31..50 {
            assert!(
                (day[t] - day[t - 1] - slope).abs() < 1e-12,
                "ramp kinks at {t}"
            );
        }
        // Second day repeats the first.
        assert_eq!(&day[..100], &day[100..]);
        // Degenerate ramp of zero is a square wave.
        let square = trapezoid_diurnal_profile(10, 0.1, 0.9, 10, 0);
        assert!(square.iter().all(|&u| u == 0.1 || u == 0.9));
    }

    #[test]
    #[should_panic(expected = "ramps must fit")]
    fn trapezoid_overlong_ramp_rejected() {
        let _ = trapezoid_diurnal_profile(10, 0.2, 0.8, 10, 6);
    }
}
