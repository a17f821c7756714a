//! Total-supply traces (paper §V-C4/§V-C5, Figs. 15 & 19).
//!
//! Willow assumes energy deficiencies are temporary and infrequent: the
//! supply side integrates out short dips through UPS/storage, so supply
//! changes arrive at the coarse granularity `Δ_S` and the *profile over
//! time* is what drives adaptation. This module provides the two profiles
//! the paper's experiments use — an energy-deficient trace with sharp
//! plunges at time units 7, 12 and 25, and an energy-plenty trace hovering
//! near the power needed for all servers at 100 % utilization — plus seeded
//! synthetic generators for larger simulations.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;

/// A total-power-budget time series sampled at the supply granularity `Δ_S`.
///
/// ```
/// use willow_power::SupplyTrace;
/// use willow_thermal::units::Watts;
///
/// let trace = SupplyTrace::paper_deficit(Watts(680.0), 30);
/// assert_eq!(trace.len(), 30);
/// assert_eq!(trace.at(7), Watts(680.0 * 0.55)); // the Fig. 15 plunge
/// assert_eq!(trace.at(99), trace.at(29));       // holds its last value
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplyTrace {
    values: Vec<Watts>,
}

impl SupplyTrace {
    /// Wrap raw values.
    ///
    /// # Panics
    /// Panics if any value is negative or non-finite.
    #[must_use]
    pub fn new(values: Vec<Watts>) -> Self {
        assert!(
            values.iter().all(|v| v.is_valid()),
            "supply values must be finite and non-negative"
        );
        SupplyTrace { values }
    }

    /// Constant supply for `len` periods.
    #[must_use]
    pub fn constant(value: Watts, len: usize) -> Self {
        SupplyTrace::new(vec![value; len])
    }

    /// The paper's energy-deficient profile (Fig. 15, 60 % utilization run):
    /// nominal supply with deep plunges starting at time units 7, 12 and 25,
    /// each lasting until units 10, 14 and 27 respectively. `nominal` is the
    /// supply adequate for the run; plunges drop to 55 % of nominal.
    #[must_use]
    pub fn paper_deficit(nominal: Watts, len: usize) -> Self {
        SupplyTrace::paper_deficit_with_depth(nominal, 0.55, len)
    }

    /// [`SupplyTrace::paper_deficit`] with an explicit plunge depth
    /// (fraction of nominal remaining during a plunge). The emulated
    /// testbed uses a shallower plunge than the simulator because its
    /// hosts' static power (≈170 W each) cannot be shed by migration.
    ///
    /// # Panics
    /// Panics unless `0 < depth ≤ 1`.
    #[must_use]
    pub fn paper_deficit_with_depth(nominal: Watts, depth: f64, len: usize) -> Self {
        assert!(depth > 0.0 && depth <= 1.0, "depth must be in (0, 1]");
        let deep = nominal * depth;
        let values = (0..len)
            .map(|t| match t {
                7..=9 | 12..=13 | 25..=26 => deep,
                // mild waviness outside the plunges, as in Fig. 15
                _ => nominal * (1.0 - 0.05 * ((t % 5) as f64 - 2.0).abs() / 2.0),
            })
            .collect();
        SupplyTrace::new(values)
    }

    /// The paper's energy-plenty profile (Fig. 19): supply close to the
    /// power needed to run every server at 100 % utilization (≈750 W for the
    /// three-host testbed), with mild variation and no deep plunges.
    #[must_use]
    pub fn paper_plenty(full_power: Watts, len: usize) -> Self {
        let values = (0..len)
            .map(|t| {
                let wiggle = 0.04 * (((t * 7) % 11) as f64 / 10.0 - 0.5);
                full_power * (1.0 + wiggle)
            })
            .collect();
        SupplyTrace::new(values)
    }

    /// Supply at period `t`; the trace holds its last value forever
    /// (supplies don't vanish when an experiment runs long).
    #[must_use]
    pub fn at(&self, t: usize) -> Watts {
        match self.values.get(t) {
            Some(&v) => v,
            None => self.values.last().copied().unwrap_or(Watts::ZERO),
        }
    }

    /// Number of explicit periods.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace has no explicit periods.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over the explicit values.
    pub fn iter(&self) -> impl Iterator<Item = Watts> + '_ {
        self.values.iter().copied()
    }

    /// Mean of the explicit values (zero for an empty trace).
    #[must_use]
    pub fn mean(&self) -> Watts {
        if self.values.is_empty() {
            return Watts::ZERO;
        }
        Watts(self.values.iter().map(|v| v.0).sum::<f64>() / self.values.len() as f64)
    }

    /// Smallest explicit value (zero for an empty trace).
    #[must_use]
    pub fn min(&self) -> Watts {
        self.values
            .iter()
            .copied()
            .fold(None, |acc: Option<Watts>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
            .unwrap_or(Watts::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = SupplyTrace::constant(Watts(500.0), 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.at(0), Watts(500.0));
        assert_eq!(t.at(9), Watts(500.0));
        assert_eq!(t.mean(), Watts(500.0));
    }

    #[test]
    fn holds_last_value_past_end() {
        let t = SupplyTrace::new(vec![Watts(10.0), Watts(20.0)]);
        assert_eq!(t.at(5), Watts(20.0));
    }

    #[test]
    fn empty_trace_yields_zero() {
        let t = SupplyTrace::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.at(0), Watts::ZERO);
        assert_eq!(t.mean(), Watts::ZERO);
        assert_eq!(t.min(), Watts::ZERO);
    }

    #[test]
    fn deficit_trace_plunges_at_paper_times() {
        let nominal = Watts(450.0);
        let t = SupplyTrace::paper_deficit(nominal, 30);
        let deep = nominal * 0.55;
        for unit in [7, 8, 9, 12, 13, 25, 26] {
            assert_eq!(t.at(unit), deep, "plunge expected at unit {unit}");
        }
        // Outside the plunges supply stays near nominal (≥ 95 %).
        for unit in [0, 5, 11, 20, 29] {
            assert!(
                t.at(unit).0 >= nominal.0 * 0.94,
                "unit {unit}: {}",
                t.at(unit)
            );
        }
        assert_eq!(t.min(), deep);
    }

    #[test]
    fn plenty_trace_stays_near_full_power() {
        let t = SupplyTrace::paper_plenty(Watts(750.0), 40);
        for v in t.iter() {
            assert!(v.0 > 750.0 * 0.97 && v.0 < 750.0 * 1.03, "{v}");
        }
        assert!((t.mean().0 - 750.0).abs() < 750.0 * 0.02);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_supply() {
        let _ = SupplyTrace::new(vec![Watts(-5.0)]);
    }
}
