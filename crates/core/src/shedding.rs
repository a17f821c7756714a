//! Priority-aware demand shedding (paper §I / §VI).
//!
//! When a node's demand exceeds its budget and no migration target exists,
//! "some of the applications that are hosted in the node are either shut
//! down completely or run in a degraded operational mode to stay within
//! the power budget" (§IV-E). The paper defers multiple QoS classes to
//! future work; this module implements the natural policy: shortfall is
//! absorbed by the lowest priority class first, spread proportionally to
//! demand *within* a class (every low-priority app degrades a little
//! before any normal-priority app degrades at all). The controller accounts
//! only the power shed per class, so that is all this module computes.

use willow_thermal::units::Watts;
use willow_workload::app::Priority;

/// Absorb `shortfall` watts by degrading applications, lowest priority
/// class first, and return the power shed from each class (indexed by
/// [`Priority::index`]: Low, Normal, High).
///
/// One pass totals each class's positive demands; the classes then absorb
/// the shortfall in order, each up to its total. Whatever exceeds every
/// class (e.g. a budget that does not even cover the server's
/// non-migratable base load) is attributed to no class, so the sum of the
/// result is `min(shortfall, Σ positive demands)`.
///
/// `apps` yields each hosted application's priority and demand, in the
/// server's list order.
///
/// # Panics
/// Panics (debug) if the shortfall is negative.
#[must_use]
pub fn shed_by_priority(
    apps: impl IntoIterator<Item = (Priority, Watts)>,
    shortfall: Watts,
) -> [Watts; 3] {
    debug_assert!(shortfall.0 >= -1e-9, "shortfall must be non-negative");
    let mut class_total = [Watts::ZERO; 3];
    for (priority, demand) in apps {
        if demand.0 > 0.0 {
            class_total[priority.index()] += demand;
        }
    }
    let mut by_class = [Watts::ZERO; 3];
    let mut remaining = shortfall.non_negative();
    for class in Priority::ALL {
        if remaining.0 <= 1e-12 {
            break;
        }
        let total = class_total[class.index()];
        if total.0 <= 0.0 {
            continue;
        }
        let class_shed = remaining.min(total);
        by_class[class.index()] = class_shed;
        remaining -= class_shed;
    }
    by_class
}

#[cfg(test)]
mod tests {
    use super::*;
    use willow_workload::app::{AppClass, AppId, Application};

    fn shed(apps: &[Application], demands: &[Watts], shortfall: Watts) -> [Watts; 3] {
        let pairs = apps.iter().map(|a| a.priority).zip(demands.iter().copied());
        shed_by_priority(pairs, shortfall)
    }

    fn app(id: u32, priority: Priority) -> Application {
        let class = AppClass {
            name: "t",
            mean_power: Watts(100.0),
        };
        Application::new(AppId(id), 0, &class).with_priority(priority)
    }

    fn total(by_class: [Watts; 3]) -> Watts {
        by_class.iter().copied().sum()
    }

    #[test]
    fn zero_shortfall_sheds_nothing() {
        let apps = vec![app(0, Priority::Low), app(1, Priority::High)];
        let demands = vec![Watts(30.0), Watts(40.0)];
        let by_class = shed(&apps, &demands, Watts::ZERO);
        assert_eq!(total(by_class), Watts::ZERO);
    }

    #[test]
    fn low_class_absorbs_first() {
        let apps = vec![
            app(0, Priority::Low),
            app(1, Priority::Normal),
            app(2, Priority::High),
        ];
        let demands = vec![Watts(20.0), Watts(30.0), Watts(40.0)];
        // Shortfall smaller than the Low tier: only Low degrades.
        let by_class = shed(&apps, &demands, Watts(15.0));
        assert!((by_class[0].0 - 15.0).abs() < 1e-9);
        assert_eq!(by_class[1], Watts::ZERO);
        assert_eq!(by_class[2], Watts::ZERO);
    }

    #[test]
    fn overflow_cascades_to_next_class() {
        let apps = vec![
            app(0, Priority::Low),
            app(1, Priority::Normal),
            app(2, Priority::High),
        ];
        let demands = vec![Watts(20.0), Watts(30.0), Watts(40.0)];
        // 20 (all of Low) + 10 of Normal.
        let by_class = shed(&apps, &demands, Watts(30.0));
        assert!((by_class[0].0 - 20.0).abs() < 1e-9);
        assert!((by_class[1].0 - 10.0).abs() < 1e-9);
        assert_eq!(by_class[2], Watts::ZERO);
    }

    #[test]
    fn high_class_is_last_resort() {
        let apps = vec![app(0, Priority::High)];
        let demands = vec![Watts(50.0)];
        let by_class = shed(&apps, &demands, Watts(20.0));
        assert!((by_class[2].0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn shed_is_capped_at_sheddable_demand() {
        let apps = vec![app(0, Priority::Low)];
        let demands = vec![Watts(10.0)];
        // Shortfall exceeds everything sheddable (e.g. base load exceeds
        // the budget): only the app's own demand is attributed.
        let by_class = shed(&apps, &demands, Watts(25.0));
        assert!((by_class[0].0 - 10.0).abs() < 1e-9);
        assert_eq!(total(by_class), by_class[0]);
    }

    #[test]
    fn conservation() {
        let apps = vec![
            app(0, Priority::Low),
            app(1, Priority::Normal),
            app(2, Priority::Normal),
            app(3, Priority::High),
        ];
        let demands = vec![Watts(5.0), Watts(25.0), Watts(15.0), Watts(55.0)];
        let sheddable: f64 = demands.iter().map(|w| w.0).filter(|&d| d > 0.0).sum();
        for shortfall in [0.0, 3.0, 20.0, 60.0, 100.0, 200.0] {
            let by_class = shed(&apps, &demands, Watts(shortfall));
            let shed = total(by_class).0;
            let expected = shortfall.min(sheddable);
            assert!(
                (shed - expected).abs() < 1e-9,
                "shortfall {shortfall}: shed {shed} ≠ min(shortfall, {sheddable})"
            );
            assert!(by_class.iter().all(|w| w.0 >= 0.0));
        }
    }

    #[test]
    fn empty_apps_everything_unattributed() {
        let by_class = shed(&[], &[], Watts(40.0));
        assert_eq!(total(by_class), Watts::ZERO);
    }
}
