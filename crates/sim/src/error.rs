//! Typed simulation errors.
//!
//! Replaces the stringly-typed validation errors of the early simulator:
//! every distinct way a [`crate::SimConfig`] or [`crate::faults::FaultPlan`]
//! can be inconsistent gets its own variant, so callers can match on the
//! cause instead of parsing prose.

use willow_core::config::ConfigError;
use willow_core::control::WillowError;

/// Everything that can go wrong building or validating a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Branching factors empty or containing zero.
    Branching,
    /// Target utilization outside [0, 1].
    Utilization(f64),
    /// Warm-up at least as long as the whole run.
    Warmup {
        /// Configured warm-up periods.
        warmup: usize,
        /// Configured total periods.
        ticks: usize,
    },
    /// Zero applications per server.
    AppsPerServer,
    /// Supply factor outside [0, 1].
    SupplyFactor(f64),
    /// Demand drift amplitude outside [0, 1).
    DemandDrift(f64),
    /// A utilization-trace entry outside [0, 1].
    UtilizationTrace(f64),
    /// A thermal zone with an empty or out-of-range server span.
    Zone {
        /// Zone start (inclusive).
        start: usize,
        /// Zone end (exclusive).
        end: usize,
        /// Servers available.
        servers: usize,
    },
    /// Controller configuration invariant violated.
    Controller(ConfigError),
    /// Controller construction failed (leaf coverage, duplicate apps, …).
    Willow(WillowError),
    /// A fault-plan probability outside its legal range.
    FaultProbability {
        /// Which probability field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault references a server index outside the topology.
    FaultServer {
        /// The offending server index.
        index: usize,
        /// Servers available.
        servers: usize,
    },
    /// A fault window with `from >= until` (empty or inverted).
    FaultWindow {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// A sensor fault with a non-finite stuck-at value or negative /
    /// non-finite noise sigma.
    FaultSensor(f64),
    /// A controller crash/restart schedule violating its structural rules
    /// (zero checkpoint period, window at tick 0, unsorted/overlapping
    /// windows).
    ControllerCrashPlan {
        /// Which rule was violated.
        reason: &'static str,
    },
    /// A scheduled supply-override command with a non-finite or negative
    /// factor.
    SupplyOverrideFactor(f64),
    /// A zone-outage schedule violating its structural rules (zero
    /// checkpoint period, broker/zone window at tick 0, unsorted or
    /// overlapping windows of the same kind).
    ZoneOutagePlan {
        /// Which rule was violated.
        reason: &'static str,
    },
    /// A zone outage references a zone index outside the federation.
    ZoneOutageZone {
        /// The offending zone index.
        index: usize,
        /// Zones in the federation.
        zones: usize,
    },
    /// A federation was configured with no zones, with per-zone
    /// configurations that disagree on a field that must match, or with
    /// broker tunables out of range.
    Federation {
        /// What is wrong with the federation shape.
        reason: &'static str,
    },
    /// A scheduled-command timeline entry failed to parse or validate.
    TimelineEntry {
        /// Index of the offending entry in the timeline array (0-based).
        index: usize,
        /// The field (or aspect) of the entry that is at fault.
        field: &'static str,
        /// Human-readable detail (serde message or validation rule).
        detail: String,
    },
    /// A scheduled-command timeline that is not a JSON array of entries.
    TimelineShape {
        /// What was found instead.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Branching => {
                write!(f, "branching factors must be non-empty and positive")
            }
            SimError::Utilization(u) => {
                write!(f, "utilization must be in [0,1], got {u}")
            }
            SimError::Warmup { warmup, ticks } => {
                write!(
                    f,
                    "warmup ({warmup}) must be shorter than the run ({ticks})"
                )
            }
            SimError::AppsPerServer => write!(f, "need at least one app per server"),
            SimError::SupplyFactor(s) => {
                write!(f, "supply factor must be in [0,1], got {s}")
            }
            SimError::DemandDrift(d) => {
                write!(f, "demand drift must be in [0,1), got {d}")
            }
            SimError::UtilizationTrace(u) => {
                write!(f, "utilization trace values must be in [0,1], got {u}")
            }
            SimError::Zone {
                start,
                end,
                servers,
            } => {
                write!(f, "zone [{start},{end}) out of range for {servers} servers")
            }
            SimError::Controller(e) => write!(f, "invalid controller config: {e}"),
            SimError::Willow(e) => write!(f, "cannot build controller: {e}"),
            SimError::FaultProbability { field, value } => {
                write!(f, "fault plan: {field} probability out of range: {value}")
            }
            SimError::FaultServer { index, servers } => {
                write!(
                    f,
                    "fault plan: server index {index} out of range for {servers} servers"
                )
            }
            SimError::FaultWindow { from, until } => {
                write!(f, "fault plan: empty window [{from},{until})")
            }
            SimError::FaultSensor(v) => {
                write!(f, "fault plan: invalid sensor fault value {v}")
            }
            SimError::ControllerCrashPlan { reason } => {
                write!(f, "fault plan: invalid controller-crash schedule: {reason}")
            }
            SimError::SupplyOverrideFactor(v) => {
                write!(f, "command timeline: supply override factor invalid: {v}")
            }
            SimError::ZoneOutagePlan { reason } => {
                write!(f, "zone-outage plan: {reason}")
            }
            SimError::ZoneOutageZone { index, zones } => {
                write!(
                    f,
                    "zone-outage plan: zone index {index} out of range for {zones} zones"
                )
            }
            SimError::Federation { reason } => write!(f, "federation: {reason}"),
            SimError::TimelineEntry {
                index,
                field,
                detail,
            } => {
                write!(f, "timeline entry {index}: invalid {field}: {detail}")
            }
            SimError::TimelineShape { detail } => {
                write!(f, "timeline must be a JSON array of entries: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Controller(e)
    }
}

impl From<WillowError> for SimError {
    fn from(e: WillowError) -> Self {
        SimError::Willow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let e = SimError::Utilization(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = SimError::FaultProbability {
            field: "report_loss",
            value: 2.0,
        };
        assert!(e.to_string().contains("report_loss"));
        let e = SimError::Zone {
            start: 10,
            end: 30,
            servers: 18,
        };
        assert!(e.to_string().contains("18 servers"));
    }

    #[test]
    fn conversions_wrap() {
        let e: SimError = ConfigError::Watchdog.into();
        assert!(matches!(e, SimError::Controller(_)));
    }
}
