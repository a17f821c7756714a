//! Random placement of application mixes onto servers (paper §V-B1).
//!
//! "On each server we placed a random mix of 4 different application types
//! that have a relative average power requirement of 1, 2, 5 and 9. The
//! average power demand in a server is the sum of all the average power
//! requirements of the applications that are hosted in it."

use crate::app::{AppClass, AppId, Application};
use rand::Rng;

/// Configuration for random app placement.
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// Number of applications placed on each server.
    pub apps_per_server: usize,
    /// The class table to draw from (uniformly).
    pub classes: Vec<AppClass>,
}

/// Deal applications onto `n_servers` servers; returns one `Vec<Application>`
/// per server with globally unique ids (server-major order).
///
/// # Panics
/// Panics if the class table is empty or `apps_per_server == 0`.
#[must_use]
pub fn place_random_mix<R: Rng + ?Sized>(
    rng: &mut R,
    config: &MixConfig,
    n_servers: usize,
) -> Vec<Vec<Application>> {
    assert!(!config.classes.is_empty(), "need at least one app class");
    assert!(
        config.apps_per_server > 0,
        "need at least one app per server"
    );
    let mut next_id = 0u32;
    (0..n_servers)
        .map(|_| {
            (0..config.apps_per_server)
                .map(|_| {
                    let class_index = rng.gen_range(0..config.classes.len());
                    let app =
                        Application::new(AppId(next_id), class_index, &config.classes[class_index]);
                    next_id += 1;
                    app
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's simulation setup: four apps per server drawn from the
    /// {1, 2, 5, 9}-relative-power classes.
    fn paper_mix() -> MixConfig {
        MixConfig {
            apps_per_server: 4,
            classes: crate::app::SIM_APP_CLASSES.to_vec(),
        }
    }

    #[test]
    fn placement_shape_and_unique_ids() {
        let mut rng = StdRng::seed_from_u64(4);
        let placement = place_random_mix(&mut rng, &paper_mix(), 18);
        assert_eq!(placement.len(), 18);
        let mut ids: Vec<u32> = placement
            .iter()
            .flat_map(|s| s.iter().map(|a| a.id.0))
            .collect();
        assert_eq!(ids.len(), 72);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 72, "ids must be globally unique");
    }

    #[test]
    fn all_classes_appear_eventually() {
        let mut rng = StdRng::seed_from_u64(12);
        let placement = place_random_mix(&mut rng, &paper_mix(), 50);
        let mut seen = [false; 4];
        for app in placement.iter().flatten() {
            seen[usize::from(app.class_index)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform draw must hit every class");
    }

    #[test]
    fn deterministic_placement_under_seed() {
        let cfg = paper_mix();
        let a = place_random_mix(&mut StdRng::seed_from_u64(5), &cfg, 18);
        let b = place_random_mix(&mut StdRng::seed_from_u64(5), &cfg, 18);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one app class")]
    fn empty_class_table_rejected() {
        let cfg = MixConfig {
            apps_per_server: 4,
            classes: vec![],
        };
        let _ = place_random_mix(&mut StdRng::seed_from_u64(0), &cfg, 1);
    }
}
