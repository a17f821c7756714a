//! Stochastic demand generation (paper §V-B1).
//!
//! "The power demand in each node was assumed to have a Poisson
//! distribution" with the mean set by the hosted applications' average power
//! requirements scaled by the data center's average utilization. We sample
//! *per application* so that migrating an application moves exactly its own
//! share of the node's demand, and keep a configurable quantum so Poisson
//! counts convert to watts at sub-watt resolution.
//!
//! [`DemandStream`] is the simulator's whole demand process: a slow AR(1)
//! drift per app on top of those Poisson draws, tick after tick, from one
//! seeded generator.

use crate::app::Application;
use crate::poisson::sample_poisson;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use willow_thermal::units::Watts;

/// AR(1) persistence of the per-app load drift, per demand period.
pub const DRIFT_RHO: f64 = 0.9;

/// Converts between watt-valued means and the integer counts the Poisson
/// sampler produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandModel {
    /// Watts represented by one Poisson count. Smaller quanta give smoother
    /// (higher-resolution, lower-relative-variance) demand processes.
    pub quantum: Watts,
}

impl Default for DemandModel {
    fn default() -> Self {
        // 1 W per count: relative std-dev of a 100 W app is 10 %, matching
        // the visible fluctuation scale in the paper's time-series figures.
        DemandModel {
            quantum: Watts(1.0),
        }
    }
}

impl DemandModel {
    /// Create a model with a given quantum.
    ///
    /// # Panics
    /// Panics unless the quantum is finite and strictly positive.
    #[must_use]
    pub fn new(quantum: Watts) -> Self {
        assert!(
            quantum.0.is_finite() && quantum.0 > 0.0,
            "demand quantum must be positive"
        );
        DemandModel { quantum }
    }

    /// Sample the instantaneous power demand of one application when the
    /// offered load corresponds to utilization `u ∈ [0, 1]`.
    pub fn sample_app_demand<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        app: &Application,
        u: f64,
    ) -> Watts {
        self.watts(self.sample_app_count(rng, app, u))
    }

    /// The Poisson count behind [`DemandModel::sample_app_demand`]: the
    /// same draw, in quanta.
    pub fn sample_app_count<R: Rng + ?Sized>(&self, rng: &mut R, app: &Application, u: f64) -> u64 {
        sample_poisson(rng, app.mean_demand_at(u) / self.quantum)
    }

    /// `count` quanta in watts.
    #[must_use]
    pub fn watts(&self, count: u64) -> Watts {
        Watts(count as f64) * self.quantum.0
    }
}

/// The simulator's demand process (§V-B1), one tick per call: for every
/// app in id order, one step of a slow, stationary, zero-mean AR(1)
/// intensity drift, then one Poisson draw at the drifted utilization, all
/// from one seeded generator.
///
/// A tick's draws depend only on the seed, the app column and the
/// utilization schedule, never on what the controller did, so the stream
/// can run ahead of the controller (on another thread) and still make the
/// same draws in the same order.
#[derive(Debug)]
pub struct DemandStream {
    /// The applications, shared with the app table that owns them.
    apps: Arc<[Application]>,
    rng: StdRng,
    /// Each app's AR(1) drift state.
    drift: Vec<f64>,
    /// Utilization per tick; past its end the last entry holds, and an
    /// empty schedule means `utilization` throughout.
    schedule: Vec<f64>,
    utilization: f64,
    /// Relative drift amplitude.
    amp: f64,
    model: DemandModel,
    /// The tick the next call draws.
    tick: usize,
}

impl DemandStream {
    /// A stream over `apps` drawing from `rng` (whose state carries on
    /// from whatever drew before, e.g. the placement), at `schedule[t]`
    /// in tick `t` (the last entry past its end, `utilization` if it is
    /// empty), with relative drift amplitude `drift`.
    #[must_use]
    pub fn new(
        apps: Arc<[Application]>,
        rng: StdRng,
        utilization: f64,
        schedule: Vec<f64>,
        drift: f64,
    ) -> Self {
        DemandStream {
            drift: vec![0.0; apps.len()],
            apps,
            rng,
            schedule,
            utilization,
            amp: drift,
            model: DemandModel::default(),
            tick: 0,
        }
    }

    /// Number of apps (demands per tick).
    #[must_use]
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the stream has no app.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The model that turns counts into watts.
    #[must_use]
    pub fn model(&self) -> DemandModel {
        self.model
    }

    /// The next tick's demand of every app, in id order, into `out`.
    pub fn next_into(&mut self, out: &mut Vec<Watts>) {
        out.resize(self.apps.len(), Watts::ZERO);
        let model = self.model;
        self.draw(out, |w, count| *w = model.watts(count));
    }

    /// [`DemandStream::next_into`] as Poisson counts, for a reader that
    /// turns them into watts with [`DemandModel::watts`] of
    /// [`DemandStream::model`].
    ///
    /// # Panics
    /// Panics if `out` does not hold one entry per app, or on a count
    /// above `u32::MAX` (a mean of billions of quanta).
    pub fn next_counts_into(&mut self, out: &mut [u32]) {
        assert_eq!(out.len(), self.apps.len(), "one count per app");
        self.draw(out, |c, count| {
            *c = u32::try_from(count).expect("a Poisson count fits in u32");
        });
    }

    /// Draw one tick: for each app, a drift step and a Poisson count,
    /// handed to `put` with the app's slot in `out`.
    fn draw<T>(&mut self, out: &mut [T], mut put: impl FnMut(&mut T, u64)) {
        let t = self.tick;
        let u = self
            .schedule
            .get(t)
            .or(self.schedule.last())
            .copied()
            .unwrap_or(self.utilization);
        let amp = self.amp;
        let innovation = (1.0 - DRIFT_RHO * DRIFT_RHO).sqrt();
        for ((app, x), slot) in self.apps.iter().zip(&mut self.drift).zip(out) {
            *x = DRIFT_RHO * *x + innovation * (self.rng.gen::<f64>() * 2.0 - 1.0);
            let eff_u = (u * (1.0 + amp * *x)).clamp(0.0, 1.0);
            put(slot, self.model.sample_app_count(&mut self.rng, app, eff_u));
        }
        self.tick = t + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppId, SIM_APP_CLASSES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app(class: usize) -> Application {
        Application::new(AppId(class as u32), class, &SIM_APP_CLASSES[class])
    }

    #[test]
    fn sample_mean_tracks_app_mean() {
        let model = DemandModel::default();
        let a = app(3); // w9, ≈238 W mean
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| model.sample_app_demand(&mut rng, &a, 0.6).0)
            .sum();
        let mean = total / n as f64;
        let expected = a.mean_demand_at(0.6).0;
        assert!(
            (mean - expected).abs() < expected * 0.02,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn zero_utilization_draws_nothing() {
        let model = DemandModel::default();
        let a = app(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(model.sample_app_demand(&mut rng, &a, 0.0), Watts(0.0));
        }
    }

    #[test]
    fn quantum_scales_resolution() {
        // With a coarse 10 W quantum every sample is a multiple of 10 W.
        let model = DemandModel::new(Watts(10.0));
        let a = app(3);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let d = model.sample_app_demand(&mut rng, &a, 0.8);
            let rem = d.0 % 10.0;
            assert!(rem.abs() < 1e-9 || (10.0 - rem).abs() < 1e-9, "demand {d}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let model = DemandModel::default();
        let apps = [app(0), app(3)];
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..16)
                .flat_map(|_| apps.iter())
                .map(|a| model.sample_app_demand(&mut rng, a, 0.4).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    /// The counts a reader scales with the model's `watts` are the inline
    /// stream's watts, bit for bit, through and past the schedule's end.
    #[test]
    fn counts_scale_to_the_inline_demands() {
        let apps: Arc<[Application]> = (0..40).map(|i| app(i % 4)).collect();
        let stream = || {
            let rng = StdRng::seed_from_u64(5);
            DemandStream::new(apps.clone(), rng, 0.5, vec![0.1, 0.9], 0.3)
        };
        let (mut inline, mut counted) = (stream(), stream());
        let (mut watts, mut counts) = (Vec::new(), vec![0; 40]);
        for _ in 0..4 {
            inline.next_into(&mut watts);
            counted.next_counts_into(&mut counts);
            let model = counted.model();
            let scaled: Vec<Watts> = counts.iter().map(|&c| model.watts(c.into())).collect();
            assert_eq!(watts, scaled);
        }
        // Past the schedule's end the last entry holds: 0.9, not 0.5.
        let total: f64 = watts.iter().map(|w| w.0).sum();
        let mean: f64 = apps.iter().map(|a| a.mean_demand_at(0.9).0).sum();
        assert!((total - mean).abs() < 0.2 * mean, "{total} vs {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let _ = DemandModel::new(Watts(0.0));
    }
}
