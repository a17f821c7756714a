//! The three CPU-bound web applications of Table II.

use willow_thermal::units::Watts;
use willow_workload::app::{AppClass, AppId, Application, TESTBED_APP_CLASSES};

/// Table II: application name and power-consumption increase.
#[must_use]
pub fn table2() -> Vec<(&'static str, Watts)> {
    TESTBED_APP_CLASSES
        .iter()
        .map(|c| (c.name, c.mean_power))
        .collect()
}

/// A small factory that mints testbed application instances with unique
/// ids: `a1()`, `a2()`, `a3()` correspond to Table II's rows.
#[derive(Debug, Default)]
pub struct AppFactory {
    next: u32,
}

impl AppFactory {
    /// Fresh factory starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        AppFactory::default()
    }

    fn mint(&mut self, class_index: usize, class: &AppClass) -> Application {
        let app = Application::new(AppId(self.next), class_index, class);
        self.next += 1;
        app
    }

    /// An instance of application A1 (+8 W).
    pub fn a1(&mut self) -> Application {
        self.mint(0, &TESTBED_APP_CLASSES[0])
    }

    /// An instance of application A2 (+10 W).
    pub fn a2(&mut self) -> Application {
        self.mint(1, &TESTBED_APP_CLASSES[1])
    }

    /// An instance of application A3 (+15 W).
    pub fn a3(&mut self) -> Application {
        self.mint(2, &TESTBED_APP_CLASSES[2])
    }

    /// Number of applications minted so far (== the next id).
    #[must_use]
    pub fn count(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        assert_eq!(
            table2(),
            vec![("A1", Watts(8.0)), ("A2", Watts(10.0)), ("A3", Watts(15.0))]
        );
    }

    #[test]
    fn factory_mints_unique_ids() {
        let mut f = AppFactory::new();
        let a = f.a1();
        let b = f.a3();
        let c = f.a2();
        assert_eq!(a.id, AppId(0));
        assert_eq!(b.id, AppId(1));
        assert_eq!(c.id, AppId(2));
        assert_eq!(f.count(), 3);
        assert_eq!(b.mean_power, Watts(15.0));
        assert_eq!(c.class_index, 1);
        assert_eq!(c.mean_power, Watts(10.0));
    }
}
