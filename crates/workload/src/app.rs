//! Applications: the unit of demand and of migration.
//!
//! "Migrations are done at the application level and hence the demand is not
//! split between multiple nodes" (§IV-E). An [`Application`] is therefore an
//! indivisible parcel of power demand that Willow's bin-packing moves
//! between servers.

use serde::{Deserialize, Serialize};
use std::fmt;
use willow_thermal::units::Watts;

/// QoS priority class of an application (paper §I and §VI: in severe
/// deficiency low-priority tasks are shut down or degraded first; handling
/// multiple QoS classes is the paper's stated future work, implemented
/// here).
///
/// Ordering: `Low < Normal < High`. Shedding consumes demand from the
/// lowest class first.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Priority {
    /// Best-effort work: first to be degraded or shut down.
    Low,
    /// Standard transactional workloads.
    #[default]
    Normal,
    /// Latency/QoS-critical: shed only when nothing else remains.
    High,
}

impl Priority {
    /// All classes, lowest first (the shedding order).
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Dense index (Low = 0, Normal = 1, High = 2).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Globally unique application (VM) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// A class of application with a characteristic average power requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppClass {
    /// Class label, e.g. `"w9"` or `"A2"`.
    pub name: &'static str,
    /// Average power the application draws at full offered load.
    pub mean_power: Watts,
}

/// The paper's four simulated application types with relative average power
/// requirements 1, 2, 5 and 9 (§V-B1), scaled so a server hosting one of
/// each averages the paper's ≈450 W server consumption at full utilization:
/// one relative unit ≈ 450/17 W.
pub const SIM_APP_CLASSES: [AppClass; 4] = {
    const UNIT: f64 = 450.0 / 17.0;
    [
        AppClass {
            name: "w1",
            mean_power: Watts(UNIT),
        },
        AppClass {
            name: "w2",
            mean_power: Watts(2.0 * UNIT),
        },
        AppClass {
            name: "w5",
            mean_power: Watts(5.0 * UNIT),
        },
        AppClass {
            name: "w9",
            mean_power: Watts(9.0 * UNIT),
        },
    ]
};

/// The testbed's three CPU-bound web applications (Table II): running each
/// raises host power consumption by 8, 10 and 15 W respectively.
pub const TESTBED_APP_CLASSES: [AppClass; 3] = [
    AppClass {
        name: "A1",
        mean_power: Watts(8.0),
    },
    AppClass {
        name: "A2",
        mean_power: Watts(10.0),
    },
    AppClass {
        name: "A3",
        mean_power: Watts(15.0),
    },
];

/// A concrete application instance hosted somewhere in the data center.
/// 16 bytes: the controller keeps one per app in its app table and in
/// every checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Unique id.
    pub id: AppId,
    /// Index into the class table the instance was created from.
    pub class_index: u16,
    /// Average power requirement at full offered load.
    pub mean_power: Watts,
    /// QoS priority class (shed lowest first).
    #[serde(default)]
    pub priority: Priority,
}

impl Application {
    /// Instantiate an application of the given class at [`Priority::Normal`].
    ///
    /// # Panics
    /// Panics if `class_index` does not fit a `u16`.
    #[must_use]
    pub fn new(id: AppId, class_index: usize, class: &AppClass) -> Self {
        Application {
            id,
            class_index: u16::try_from(class_index).expect("class index fits a u16"),
            mean_power: class.mean_power,
            priority: Priority::default(),
        }
    }

    /// Builder-style: set the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Expected power demand when the data center runs at average
    /// utilization `u ∈ [0, 1]`: offered load scales the class mean.
    #[must_use]
    pub fn mean_demand_at(&self, u: f64) -> Watts {
        debug_assert!((0.0..=1.0).contains(&u), "utilization must be a fraction");
        self.mean_power * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The app table stores one per app, live and in every checkpoint.
    #[test]
    fn application_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Application>(), 16);
    }

    #[test]
    fn sim_classes_have_paper_ratios() {
        let p: Vec<f64> = SIM_APP_CLASSES.iter().map(|c| c.mean_power.0).collect();
        assert!((p[1] / p[0] - 2.0).abs() < 1e-12);
        assert!((p[2] / p[0] - 5.0).abs() < 1e-12);
        assert!((p[3] / p[0] - 9.0).abs() < 1e-12);
        // One of each sums to the paper's average server power.
        let total: f64 = p.iter().sum();
        assert!((total - 450.0).abs() < 1e-9);
    }

    #[test]
    fn testbed_classes_match_table2() {
        assert_eq!(TESTBED_APP_CLASSES[0].mean_power, Watts(8.0));
        assert_eq!(TESTBED_APP_CLASSES[1].mean_power, Watts(10.0));
        assert_eq!(TESTBED_APP_CLASSES[2].mean_power, Watts(15.0));
    }

    #[test]
    fn mean_demand_scales_linearly() {
        let app = Application::new(AppId(0), 3, &SIM_APP_CLASSES[3]);
        assert_eq!(app.mean_demand_at(0.0), Watts(0.0));
        assert_eq!(app.mean_demand_at(1.0), app.mean_power);
        let half = app.mean_demand_at(0.5);
        assert!((half.0 - app.mean_power.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app3");
    }

    #[test]
    fn priority_ordering_and_indices() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::Low.index(), 0);
        assert_eq!(Priority::Normal.index(), 1);
        assert_eq!(Priority::High.index(), 2);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::ALL[0], Priority::Low);
    }

    #[test]
    fn priority_builder() {
        let app = Application::new(AppId(0), 0, &SIM_APP_CLASSES[0]).with_priority(Priority::High);
        assert_eq!(app.priority, Priority::High);
        let plain = Application::new(AppId(1), 0, &SIM_APP_CLASSES[0]);
        assert_eq!(plain.priority, Priority::Normal);
    }
}
