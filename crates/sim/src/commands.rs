//! Scheduled live-ops command timelines.
//!
//! A simulation config may carry a *timeline* of operator commands — one
//! [`ScheduledCommand`] per entry — that the engine submits into the
//! running controller at the scheduled demand periods. Controller-level
//! commands (drain, add/remove server, packer hot-swap, pause/resume) are
//! translated to [`willow_core::Command`] and flow through the command
//! plane between the measure and supply stages; engine-level commands
//! (supply override, forced checkpoint) act on the simulation loop
//! itself. Commands that fall due while the controller is down are held
//! and submitted on the first tick after recovery, so an outage delays
//! but never drops an operator's request.

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use willow_core::config::PackerChoice;

/// One operator command in a simulation timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimCommand {
    /// Gracefully drain a server (evacuate all apps, then fence it).
    Drain {
        /// Server index to drain.
        server: usize,
    },
    /// Add a new server leaf under the named parent node. The name is
    /// resolved against the live tree at submission time; an unknown
    /// parent counts as a rejected command.
    AddServer {
        /// Name of the PMU node the new leaf attaches to (e.g. `"l1-2"`).
        parent: String,
        /// Unique name for the new server leaf.
        name: String,
    },
    /// Permanently retire a server (must be fenced and empty).
    RemoveServer {
        /// Server index to retire.
        server: usize,
    },
    /// Hot-swap the controller's packing heuristic.
    SwapPacker {
        /// Replacement packing strategy.
        packer: PackerChoice,
    },
    /// Pause adaptation (supply/demand/consolidation stages skipped).
    Pause,
    /// Resume adaptation after a pause.
    Resume,
    /// Scale the configured supply by `factor` from this tick onward
    /// (engine-level; stacks with supply traces, replaced by the next
    /// override).
    SupplyOverride {
        /// Multiplier applied to the configured supply (finite, ≥ 0).
        factor: f64,
    },
    /// Force a controller checkpoint at this tick (taken on the next tick
    /// the controller is up).
    Checkpoint,
}

/// A command bound to the demand period at which it is submitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScheduledCommand {
    /// Demand period the command is submitted at.
    pub tick: u64,
    /// The command.
    pub command: SimCommand,
}

impl SimCommand {
    /// Validate command parameters that are checkable statically (server
    /// indices and parent names are resolved against the live topology at
    /// submission time instead). Returns the offending supply factor, if
    /// any.
    #[must_use]
    pub fn invalid_factor(&self) -> Option<f64> {
        match self {
            SimCommand::SupplyOverride { factor } if !factor.is_finite() || *factor < 0.0 => {
                Some(*factor)
            }
            _ => None,
        }
    }
}

/// Parse a command timeline from JSON, pinpointing failures.
///
/// A bare `serde_json::from_str::<Vec<ScheduledCommand>>` reports only the
/// line/column of the first syntax or shape error; for operator-authored
/// timeline files that is not enough to fix the file. This parser walks
/// the document entry by entry and reports the offending **entry index**
/// and **field** for both parse failures (unknown command, wrong type,
/// missing field) and validation failures (non-finite/negative supply
/// factor, ticks out of order — the engine consumes the timeline with a
/// forward-only cursor, so entries must be sorted by tick).
///
/// # Errors
/// [`SimError::TimelineShape`] when the document is not a JSON array, or
/// [`SimError::TimelineEntry`] naming the first offending entry.
pub fn parse_timeline(text: &str) -> Result<Vec<ScheduledCommand>, SimError> {
    let doc = serde_json::parse(text).map_err(|e| SimError::TimelineShape {
        detail: e.to_string(),
    })?;
    let entries = match doc {
        serde::Value::Array(entries) => entries,
        other => {
            return Err(SimError::TimelineShape {
                detail: format!("found {}", json_kind(&other)),
            })
        }
    };
    let mut timeline = Vec::with_capacity(entries.len());
    let mut prev_tick = 0u64;
    for (index, entry) in entries.iter().enumerate() {
        let parsed = <ScheduledCommand as Deserialize>::from_value(entry).map_err(|e| {
            SimError::TimelineEntry {
                index,
                field: "entry",
                detail: e.to_string(),
            }
        })?;
        if let Some(factor) = parsed.command.invalid_factor() {
            return Err(SimError::TimelineEntry {
                index,
                field: "command.factor",
                detail: format!("supply override factor must be finite and >= 0, got {factor}"),
            });
        }
        if parsed.tick < prev_tick {
            return Err(SimError::TimelineEntry {
                index,
                field: "tick",
                detail: format!(
                    "ticks must be non-decreasing, got {} after {}",
                    parsed.tick, prev_tick
                ),
            });
        }
        prev_tick = parsed.tick;
        timeline.push(parsed);
    }
    Ok(timeline)
}

/// Human name for a JSON value's kind, for shape errors.
fn json_kind(v: &serde::Value) -> &'static str {
    match v {
        serde::Value::Null => "null",
        serde::Value::Bool(_) => "a boolean",
        serde::Value::I64(_) | serde::Value::U64(_) | serde::Value::F64(_) => "a number",
        serde::Value::Str(_) => "a string",
        serde::Value::Array(_) => "an array",
        serde::Value::Object(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_commands_round_trip_through_json() {
        let timeline = vec![
            ScheduledCommand {
                tick: 3,
                command: SimCommand::Drain { server: 2 },
            },
            ScheduledCommand {
                tick: 5,
                command: SimCommand::AddServer {
                    parent: "l1-2".to_string(),
                    name: "server19".to_string(),
                },
            },
            ScheduledCommand {
                tick: 6,
                command: SimCommand::RemoveServer { server: 2 },
            },
            ScheduledCommand {
                tick: 7,
                command: SimCommand::SwapPacker {
                    packer: PackerChoice::BestFitDecreasing,
                },
            },
            ScheduledCommand {
                tick: 8,
                command: SimCommand::Pause,
            },
            ScheduledCommand {
                tick: 9,
                command: SimCommand::Resume,
            },
            ScheduledCommand {
                tick: 10,
                command: SimCommand::SupplyOverride { factor: 0.5 },
            },
            ScheduledCommand {
                tick: 11,
                command: SimCommand::Checkpoint,
            },
        ];
        let json = serde_json::to_string(&timeline).expect("timeline serializes");
        let back: Vec<ScheduledCommand> = serde_json::from_str(&json).expect("timeline parses");
        assert_eq!(back, timeline);
    }

    #[test]
    fn parse_timeline_accepts_a_sound_document() {
        let text = r#"[
            {"tick": 3, "command": {"Drain": {"server": 2}}},
            {"tick": 5, "command": {"SupplyOverride": {"factor": 0.5}}},
            {"tick": 5, "command": "Checkpoint"}
        ]"#;
        let timeline = parse_timeline(text).unwrap();
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].command, SimCommand::Drain { server: 2 });
        assert_eq!(timeline[2].command, SimCommand::Checkpoint);
    }

    #[test]
    fn parse_timeline_names_the_offending_entry_and_field() {
        // Entry 1 has a typo'd command name: the error must say "entry 1".
        let bad_command = r#"[
            {"tick": 0, "command": "Pause"},
            {"tick": 1, "command": {"Drian": {"server": 2}}}
        ]"#;
        let err = parse_timeline(bad_command).unwrap_err();
        match &err {
            SimError::TimelineEntry { index, field, .. } => {
                assert_eq!(*index, 1);
                assert_eq!(*field, "entry");
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("timeline entry 1"), "{err}");

        // Entry 0 is missing its tick.
        let missing_tick = r#"[{"command": "Pause"}]"#;
        let err = parse_timeline(missing_tick).unwrap_err();
        assert!(matches!(err, SimError::TimelineEntry { index: 0, .. }));
        assert!(err.to_string().contains("tick"), "{err}");

        // Entry 1's supply factor is negative.
        let bad_factor = r#"[
            {"tick": 0, "command": "Pause"},
            {"tick": 4, "command": {"SupplyOverride": {"factor": -2.0}}}
        ]"#;
        let err = parse_timeline(bad_factor).unwrap_err();
        match &err {
            SimError::TimelineEntry { index, field, .. } => {
                assert_eq!(*index, 1);
                assert_eq!(*field, "command.factor");
            }
            other => panic!("wrong error: {other}"),
        }

        // Entry 2 goes backwards in time.
        let unsorted = r#"[
            {"tick": 5, "command": "Pause"},
            {"tick": 9, "command": "Resume"},
            {"tick": 7, "command": "Checkpoint"}
        ]"#;
        let err = parse_timeline(unsorted).unwrap_err();
        match &err {
            SimError::TimelineEntry { index, field, .. } => {
                assert_eq!(*index, 2);
                assert_eq!(*field, "tick");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn parse_timeline_rejects_non_array_documents() {
        let err = parse_timeline(r#"{"tick": 0, "command": "Pause"}"#).unwrap_err();
        assert!(matches!(err, SimError::TimelineShape { .. }));
        assert!(err.to_string().contains("an object"), "{err}");
        let err = parse_timeline("not json at all").unwrap_err();
        assert!(matches!(err, SimError::TimelineShape { .. }));
    }

    #[test]
    fn supply_factor_validation() {
        assert_eq!(
            SimCommand::SupplyOverride { factor: -0.1 }.invalid_factor(),
            Some(-0.1)
        );
        assert!(SimCommand::SupplyOverride { factor: f64::NAN }
            .invalid_factor()
            .is_some());
        assert_eq!(
            SimCommand::SupplyOverride { factor: 1.5 }.invalid_factor(),
            None
        );
        assert_eq!(SimCommand::Pause.invalid_factor(), None);
    }
}
