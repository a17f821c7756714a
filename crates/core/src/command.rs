//! Live-ops command plane: typed operator commands into a running
//! controller.
//!
//! Commands are submitted with [`crate::Willow::submit_command`], queued,
//! and processed at a fixed point in the tick — between the measure and
//! supply stages — so every transition is deterministic and replayable
//! from the trace. Each command is validated against its preconditions
//! before any state is touched and atomically rejected with a typed
//! [`CommandError`] on failure; the queue itself survives
//! checkpoint/restore (see [`crate::snapshot::WillowSnapshot`]).

use crate::config::PackerChoice;
use serde::{Deserialize, Serialize};
use willow_topology::{NodeId, TreeError};

/// Correlation id for a submitted command; echoed in the matching
/// [`CommandOutcome`] so operators can pair requests with responses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct CommandId(pub u64);

impl std::fmt::Display for CommandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// An operator command to a running controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Insert a new server leaf under the level-1 node `parent` and bring
    /// it online with the simulation-default server spec.
    AddServer {
        /// Level-1 PMU node the new leaf attaches to.
        parent: NodeId,
        /// Unique node name for the new leaf.
        name: String,
    },
    /// Permanently retire a server. The server must be fenced (drained
    /// and empty); its tree slot becomes reusable, its server slot a
    /// permanent tombstone. Aimed at a server whose drain is still
    /// running, the command stays pending and applies on the tick the
    /// drain fences it; aimed at an active server it is rejected
    /// [`CommandError::NotFenced`].
    RemoveServer {
        /// Server index (server order, not node id).
        server: usize,
    },
    /// Gracefully drain a server: evacuate every hosted app through the
    /// ordinary migration machinery, then fence it. Apps that cannot
    /// be placed yet are reported as stranded and retried next tick — the
    /// drain stays pending until the server is empty.
    Drain {
        /// Server index to drain.
        server: usize,
    },
    /// Hot-swap the packing heuristic via the policy seams.
    SwapPacker {
        /// Replacement packing strategy.
        packer: PackerChoice,
    },
    /// Pause adaptation: measurement, command processing and physics keep
    /// running every tick, but supply/demand/consolidation decisions are
    /// skipped until [`Command::Resume`].
    Pause,
    /// Resume adaptation after a [`Command::Pause`].
    Resume,
}

/// Why a command was rejected. Rejection is atomic: no controller state
/// changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandError {
    /// The server index does not exist.
    UnknownServer(usize),
    /// The server was already retired; its slot is a permanent tombstone.
    Retired(usize),
    /// Removal requires the server to be fenced first (drain it).
    NotFenced(usize),
    /// Removal requires the server to host no applications.
    NotEmpty(usize),
    /// The underlying topology edit was rejected.
    Topology(TreeError),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::UnknownServer(s) => write!(f, "unknown server index {s}"),
            CommandError::Retired(s) => write!(f, "server {s} is retired"),
            CommandError::NotFenced(s) => write!(f, "server {s} is not fenced; drain it first"),
            CommandError::NotEmpty(s) => write!(f, "server {s} still hosts applications"),
            CommandError::Topology(e) => write!(f, "topology edit rejected: {e}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<TreeError> for CommandError {
    fn from(e: TreeError) -> Self {
        CommandError::Topology(e)
    }
}

/// Terminal status of a processed command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandStatus {
    /// The command committed; all effects applied atomically this tick.
    Applied,
    /// The command was rejected; no state changed.
    Rejected(CommandError),
}

impl CommandStatus {
    /// True if the command committed.
    #[must_use]
    pub fn is_applied(&self) -> bool {
        matches!(self, CommandStatus::Applied)
    }
}

/// A queued command awaiting processing (or, for a drain, completion).
/// Pending commands are serialized into checkpoints so commands in flight
/// survive a controller crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingCommand {
    /// Correlation id assigned at submission.
    pub id: CommandId,
    /// The command itself.
    pub command: Command,
    /// Tick at which the command was submitted (latency accounting).
    pub issued_tick: u64,
}

/// The controller's response to a processed command, reported in the tick
/// it reached a terminal state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandOutcome {
    /// Correlation id of the originating submission.
    pub id: CommandId,
    /// The command that was processed.
    pub command: Command,
    /// Tick at which the terminal state was reached.
    pub tick: u64,
    /// Applied or rejected (with the typed error).
    pub status: CommandStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips_through_json() {
        let cmds = vec![
            Command::AddServer {
                parent: NodeId(3),
                name: "s-new".to_string(),
            },
            Command::RemoveServer { server: 2 },
            Command::Drain { server: 1 },
            Command::SwapPacker {
                packer: PackerChoice::BestFitDecreasing,
            },
            Command::Pause,
            Command::Resume,
        ];
        for cmd in cmds {
            let json = serde_json::to_string(&cmd).expect("command serializes");
            let back: Command = serde_json::from_str(&json).expect("command parses back");
            assert_eq!(back, cmd);
        }
    }

    #[test]
    fn outcome_round_trips_with_rejection() {
        let outcome = CommandOutcome {
            id: CommandId(7),
            command: Command::RemoveServer { server: 4 },
            tick: 19,
            status: CommandStatus::Rejected(CommandError::Topology(TreeError::NotALeaf(NodeId(0)))),
        };
        let json = serde_json::to_string(&outcome).expect("outcome serializes");
        let back: CommandOutcome = serde_json::from_str(&json).expect("outcome parses back");
        assert_eq!(back, outcome);
        assert!(!back.status.is_applied());
    }

    #[test]
    fn errors_display_and_convert() {
        let e: CommandError = TreeError::Empty.into();
        assert!(matches!(e, CommandError::Topology(_)));
        for e in [
            CommandError::UnknownServer(9),
            CommandError::Retired(1),
            CommandError::NotFenced(2),
            CommandError::NotEmpty(3),
            CommandError::Topology(TreeError::Empty),
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(CommandId(5).to_string(), "cmd#5");
    }
}
