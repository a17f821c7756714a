//! Facade crate re-exporting the whole Willow workspace.
//!
//! Willow (Kant, Murugan & Du, IPDPS 2011) is a hierarchical control
//! system for energy- and thermal-adaptive data centers. The workspace is
//! split into substrate crates; this facade re-exports them under short
//! names and bundles the runnable examples and integration tests.
//!
//! * [`core`] — the Willow controller itself (plus the greedy baseline).
//! * [`sim`] — the deterministic data-center simulator (paper §V-B).
//! * [`testbed`] — the emulated 3-host cluster (paper §V-C).
//! * [`thermal`], [`topology`], [`workload`], [`binpack`], [`power`],
//!   [`network`] — the substrates.
//!
//! For a one-stop import use [`prelude`]:
//!
//! ```
//! use willow::prelude::*;
//!
//! let tree = Tree::paper_fig3();
//! let specs: Vec<ServerSpec> = tree
//!     .leaves()
//!     .enumerate()
//!     .map(|(i, leaf)| {
//!         let app = Application::new(AppId(i as u32), 0, &SIM_APP_CLASSES[0]);
//!         ServerSpec::simulation_default(leaf).with_apps(vec![app])
//!     })
//!     .collect();
//! let mut willow = Willow::new(tree, specs, ControllerConfig::default()).unwrap();
//! let report = willow.step(&vec![Watts(12.0); 18], Watts(7_000.0));
//! assert_eq!(report.pingpongs(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use willow_binpack as binpack;
pub use willow_core as core;
pub use willow_network as network;
pub use willow_power as power;
pub use willow_sim as sim;
pub use willow_testbed as testbed;
pub use willow_thermal as thermal;
pub use willow_topology as topology;
pub use willow_workload as workload;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use willow_core::config::{
        AllocationPolicy, ControllerConfig, PackerChoice, ReducedTargetRule, SmootherKind,
        ThermalEstimate,
    };
    pub use willow_core::control::{ControlStats, Willow, WillowError};
    pub use willow_core::migration::{MigrationReason, MigrationRecord, TickReport};
    pub use willow_core::server::ServerSpec;
    pub use willow_power::{Battery, SolarModel, SupplyTrace};
    pub use willow_sim::{SimConfig, Simulation};
    pub use willow_testbed::{ClusterConfig, TestbedCluster};
    pub use willow_thermal::model::{DeviceThermal, ThermalParams};
    pub use willow_thermal::units::{Celsius, Kelvin, Seconds, Watts};
    pub use willow_topology::{NodeId, TopologySpec, Tree};
    pub use willow_workload::app::{
        AppId, Application, Priority, SIM_APP_CLASSES, TESTBED_APP_CLASSES,
    };
}
