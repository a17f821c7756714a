//! Fault disturbances applied to one control period.
//!
//! The controller itself stays deterministic and data-driven: a fault
//! injector (e.g. `willow-sim`'s `FaultInjector`) pre-rolls everything
//! random into a [`Disturbances`] value, and [`crate::Willow::step_with`]
//! consumes it. An empty value (the `Default`) means a fault-free period,
//! and `Willow::step` is exactly `step_with` with that default — so the
//! fault machinery adds no behavioral difference to fault-free runs.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Celsius;

/// Pre-rolled outcome of one migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationOutcome {
    /// The migration completes normally.
    Success,
    /// The destination refuses admission before any state is copied: the
    /// app stays put, nothing is charged, and the app enters retry backoff.
    Reject,
    /// The migration aborts mid-flight: the copy work already happened —
    /// both end nodes pay the temporary cost and the fabric carried the
    /// traffic — but the app stays at the source and source accounting is
    /// restored.
    Abort,
}

/// Everything that goes wrong in one demand period, pre-rolled as data.
///
/// All per-server vectors are indexed by *server index* (the order of
/// [`crate::Willow::servers`]); vectors shorter than the server count —
/// including empty ones — read as "no fault" for the missing entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Disturbances {
    /// Servers whose PMU is crashed this period: their demand report and
    /// budget directive are both lost and they are ineligible migration
    /// targets.
    pub crashed: Vec<bool>,
    /// Servers whose upward demand report is lost this period (the
    /// hierarchy keeps its stale view of the leaf's demand).
    pub report_lost: Vec<bool>,
    /// Servers whose downward budget directive is lost (only meaningful on
    /// supply ticks; the stale-directive watchdog reacts to these).
    pub directive_lost: Vec<bool>,
    /// Absolute sensor override per server (a stuck-at temperature sensor).
    pub sensor_override: Vec<Option<Celsius>>,
    /// Additive sensor error per server in °C (a noisy sensor). Applied
    /// only when no override is present.
    pub sensor_offset: Vec<f64>,
    /// Outcomes of this period's migration attempts, consumed in decision
    /// order. Attempts beyond the end of the list succeed.
    pub migration_outcomes: Vec<MigrationOutcome>,
}

impl Disturbances {
    /// A fault-free period.
    #[must_use]
    pub fn none() -> Self {
        Disturbances::default()
    }

    /// Overwrite `self` with `other`, reusing the existing buffers. The
    /// controller takes its per-tick copy of the caller's disturbances
    /// through this instead of `Clone`, so driving quiet (or same-sized)
    /// disturbance sets every period costs no heap allocation.
    pub fn assign_from(&mut self, other: &Disturbances) {
        self.crashed.clone_from(&other.crashed);
        self.report_lost.clone_from(&other.report_lost);
        self.directive_lost.clone_from(&other.directive_lost);
        self.sensor_override.clone_from(&other.sensor_override);
        self.sensor_offset.clone_from(&other.sensor_offset);
        self.migration_outcomes
            .clone_from(&other.migration_outcomes);
    }

    /// Is server `si`'s PMU crashed this period?
    #[must_use]
    pub fn crashed(&self, si: usize) -> bool {
        self.crashed.get(si).copied().unwrap_or(false)
    }

    /// Is server `si`'s demand report lost this period (crash implies yes)?
    #[must_use]
    pub fn report_lost(&self, si: usize) -> bool {
        self.report_lost.get(si).copied().unwrap_or(false) || self.crashed(si)
    }

    /// Is server `si`'s budget directive lost this period (crash implies
    /// yes)?
    #[must_use]
    pub fn directive_lost(&self, si: usize) -> bool {
        self.directive_lost.get(si).copied().unwrap_or(false) || self.crashed(si)
    }

    /// One past the highest server index whose directive can be lost:
    /// every server at or beyond it gets its directive (the fault vectors
    /// read as "no fault" past their ends). Zero for a quiet period with
    /// empty vectors, so a directive pass bounded by it visits no row.
    #[must_use]
    pub fn directive_span(&self) -> usize {
        self.directive_lost.len().max(self.crashed.len())
    }

    /// The temperature server `si`'s sensor *reads* when the true
    /// temperature is `actual`: the stuck-at override if present, otherwise
    /// the truth plus the noise offset.
    #[must_use]
    pub fn measured_temp(&self, si: usize, actual: Celsius) -> Celsius {
        if let Some(Some(stuck)) = self.sensor_override.get(si) {
            return *stuck;
        }
        Celsius(actual.0 + self.sensor_offset.get(si).copied().unwrap_or(0.0))
    }

    /// The outcome of migration attempt number `attempt` (0-based) this
    /// period. Attempts beyond the pre-rolled list succeed.
    #[must_use]
    pub fn migration_outcome(&self, attempt: usize) -> MigrationOutcome {
        self.migration_outcomes
            .get(attempt)
            .copied()
            .unwrap_or(MigrationOutcome::Success)
    }

    /// True when this value injects no fault at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        !self.crashed.iter().any(|&b| b)
            && !self.report_lost.iter().any(|&b| b)
            && !self.directive_lost.iter().any(|&b| b)
            && self.sensor_override.iter().all(Option::is_none)
            && self.sensor_offset.iter().all(|&x| x == 0.0)
            && self
                .migration_outcomes
                .iter()
                .all(|&o| o == MigrationOutcome::Success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_quiet_and_faultless() {
        let d = Disturbances::none();
        assert!(d.is_quiet());
        assert!(!d.crashed(0));
        assert!(!d.report_lost(7));
        assert!(!d.directive_lost(7));
        assert_eq!(d.directive_span(), 0);
        assert_eq!(d.measured_temp(3, Celsius(55.0)), Celsius(55.0));
        assert_eq!(d.migration_outcome(0), MigrationOutcome::Success);
        assert_eq!(d.migration_outcome(100), MigrationOutcome::Success);
    }

    #[test]
    fn crash_implies_both_message_losses() {
        let d = Disturbances {
            crashed: vec![false, true],
            ..Disturbances::default()
        };
        assert!(!d.is_quiet());
        assert!(d.report_lost(1));
        assert!(d.directive_lost(1));
        assert!(!d.report_lost(0));
        assert_eq!(d.directive_span(), 2);
    }

    #[test]
    fn sensor_override_beats_offset() {
        let d = Disturbances {
            sensor_override: vec![None, Some(Celsius(90.0))],
            sensor_offset: vec![2.5, 2.5],
            ..Disturbances::default()
        };
        assert_eq!(d.measured_temp(0, Celsius(50.0)), Celsius(52.5));
        assert_eq!(d.measured_temp(1, Celsius(50.0)), Celsius(90.0));
    }

    #[test]
    fn migration_outcomes_consumed_in_order() {
        let d = Disturbances {
            migration_outcomes: vec![MigrationOutcome::Reject, MigrationOutcome::Abort],
            ..Disturbances::default()
        };
        assert_eq!(d.migration_outcome(0), MigrationOutcome::Reject);
        assert_eq!(d.migration_outcome(1), MigrationOutcome::Abort);
        assert_eq!(d.migration_outcome(2), MigrationOutcome::Success);
    }
}
