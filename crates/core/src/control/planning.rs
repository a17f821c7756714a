//! The horizon-aware planning seam: per-node demand/supply forecasts,
//! read by the predictive supply policy in stages 2 and 4.
//!
//! The paper's controller is purely reactive — each stage decides from the
//! current tick's measurements. The predictive (MPC-style) policy and the
//! broker's zone-demand forecasting both need a *forecast*, not just an
//! instantaneous scalar. Every planning series is one [`Smoother`] state
//! updated under [`PLANNING_GAINS`] ([`PLANNING_ALPHA`]/[`PLANNING_BETA`]):
//! Holt's level + trend is the simplest estimator that anticipates a ramp,
//! and its state is two `Copy` scalars. [`PlanningContext`] holds the
//! controller's series — root supply, root aggregate demand, and one per
//! roster server. The measure stage updates it once per tick; stages 2
//! and 4 read it through `&self`. Only the predictive supply policy reads
//! a forecast, so only a predictive controller holds a context: a
//! reactive one takes no Holt step and checkpoints no series, and a
//! checkpoint whose planning state disagrees with its policy fails to
//! restore.
//!
//! The per-server series are a column here rather than a field of the
//! server's roster row: only the measure stage and the predictive
//! consolidation read them, while every stage and the auditor stream the
//! rows. On the 104,976-server quiet fleet, rows widened by the series
//! made every one of those passes slower (see CHANGES.md).
//!
//! **Horizon semantics.** Leaf and root-demand series observe once per
//! demand period, so `forecast(h)` is `h` demand periods (`h·Δ_D`) ahead.
//! The supply series observes once per *supply* tick (when a supply value
//! is actually applied), so its horizon unit is `η1·Δ_D`. Forecasts are
//! `None` until a series has seen its first observation — callers must
//! treat "no forecast" as "fall back to reactive", never as zero.
//!
//! **Determinism and cost.** The context is plain serialized state
//! (captured in `WillowSnapshot`, restored verbatim), updates are
//! per-server-disjoint (safe to fold into the sharded measure loop) and
//! allocate nothing in steady state.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_workload::smoothing::{Gains, Smoother};

/// Level gain of the planning forecasters. Matches the controller's
/// default demand-smoothing `α`; fixed (not configurable) because the
/// planning context must stay identical across configs for the default
/// policies' bit-for-bit neutrality to be testable in one place.
pub const PLANNING_ALPHA: f64 = 0.5;

/// Trend gain of the planning forecasters. Deliberately below the level
/// gain: trends should build over a few periods, not chase single-tick
/// noise into wild extrapolations.
pub const PLANNING_BETA: f64 = 0.3;

/// The one smoothing rule every planning series follows: Holt's method
/// with the planning gains.
pub const PLANNING_GAINS: Gains = Gains {
    alpha: PLANNING_ALPHA,
    beta: Some(PLANNING_BETA),
};

/// Headroom factor the predictive supply policy keeps above current root
/// demand when pre-tightening toward a forecast supply dip. Tightening the
/// root budget all the way to the forecast level sheds demand *before* the
/// dip arrives (self-inflicted drops), while tightening exactly to current
/// demand leaves `excess = margin` everywhere and churns deficit items;
/// 10% headroom keeps the pre-dip budget strictly above demand-plus-margin
/// for any realistically loaded root while still evacuating
/// thermally-capped servers a supply period early.
pub const PREDICTIVE_HEADROOM: f64 = 1.1;

/// The controller's complete planning state, updated once per tick by the
/// measure stage and read, never written, by stages 2 and 4.
///
/// Serialized whole inside `WillowSnapshot` (restore continues forecasts
/// bit-for-bit); `recover` keeps the checkpoint's context — forecaster
/// state is controller *memory*, like the pending-command queue, not
/// field-observable physical truth.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlanningContext {
    /// Root supply, observed once per applied supply tick. Horizon unit:
    /// supply periods (`η1·Δ_D`).
    pub supply: Smoother,
    /// Aggregate smoothed demand at the tree root, observed every tick.
    /// Horizon unit: demand periods (`Δ_D`).
    pub root_demand: Smoother,
    /// Per-server demand series, indexed by roster (server) order like
    /// `Willow::servers` — including retired slots, which observe zero.
    /// Horizon unit: demand periods (`Δ_D`).
    pub leaves: Vec<Smoother>,
}

impl Clone for PlanningContext {
    fn clone(&self) -> Self {
        PlanningContext {
            supply: self.supply,
            root_demand: self.root_demand,
            leaves: self.leaves.clone(),
        }
    }

    /// Field by field, so a checkpoint's `leaves` buffer is reused: a
    /// derived `clone_from` would rebuild it on every capture.
    fn clone_from(&mut self, source: &Self) {
        self.supply = source.supply;
        self.root_demand = source.root_demand;
        self.leaves.clone_from(&source.leaves);
    }
}

impl PlanningContext {
    /// A fresh context for a roster of `n` servers, no history yet.
    #[must_use]
    pub fn for_servers(n: usize) -> Self {
        PlanningContext {
            supply: Smoother::default(),
            root_demand: Smoother::default(),
            leaves: vec![Smoother::default(); n],
        }
    }

    /// Grow the per-server series alongside a roster addition (the
    /// live-ops `AddServer` path). The new series starts with no history.
    pub fn push_server(&mut self) {
        self.leaves.push(Smoother::default());
    }

    /// Forecast the root supply `h` *supply periods* ahead.
    #[must_use]
    pub fn predicted_supply(&self, h: u32) -> Option<Watts> {
        self.supply.forecast(h)
    }

    /// Forecast the root aggregate demand `h` demand periods ahead.
    #[must_use]
    pub fn predicted_root_demand(&self, h: u32) -> Option<Watts> {
        self.root_demand.forecast(h)
    }

    /// Forecast server `si`'s demand `h` demand periods ahead. `None` for
    /// out-of-roster indices or series without observations.
    #[must_use]
    pub fn predicted_leaf_demand(&self, si: usize, h: u32) -> Option<Watts> {
        self.leaves.get(si).and_then(|s| s.forecast(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holt_model_extrapolates_ramps() {
        let mut ctx = PlanningContext::for_servers(0);
        for k in 0..40 {
            ctx.root_demand
                .observe(PLANNING_GAINS, Watts(f64::from(k) * 5.0));
        }
        let last = Watts(39.0 * 5.0);
        let one = ctx.predicted_root_demand(1).unwrap();
        let four = ctx.predicted_root_demand(4).unwrap();
        assert!(one > last, "upward trend must extrapolate upward");
        assert!(four > one, "longer horizons extend the trend further");
        // The converged Holt trend on a 5 W/step ramp is ~5 W/step.
        assert!((four.0 - one.0 - 15.0).abs() < 1.0, "trend ≈ 5 W/step");
    }

    #[test]
    fn model_reset_forgets() {
        let mut s = Smoother::default();
        s.observe(PLANNING_GAINS, Watts(50.0));
        assert_eq!(s.forecast(1), Some(Watts(50.0)));
        s.reset();
        assert_eq!(s.level(), None);
        assert_eq!(s.forecast(1), None);
    }

    #[test]
    fn context_tracks_roster_growth() {
        let mut ctx = PlanningContext::for_servers(2);
        assert_eq!(ctx.leaves.len(), 2);
        ctx.push_server();
        assert_eq!(ctx.leaves.len(), 3);
        assert_eq!(ctx.predicted_leaf_demand(2, 1), None);
        ctx.leaves[2].observe(PLANNING_GAINS, Watts(75.0));
        assert_eq!(ctx.predicted_leaf_demand(2, 1), Some(Watts(75.0)));
        assert_eq!(ctx.predicted_leaf_demand(7, 1), None, "out of roster");
    }

    #[test]
    fn context_round_trips_through_json() {
        let mut ctx = PlanningContext::for_servers(3);
        for t in 0..20 {
            ctx.root_demand
                .observe(PLANNING_GAINS, Watts(f64::from(t) * 10.0));
            for s in &mut ctx.leaves {
                s.observe(PLANNING_GAINS, Watts(f64::from(t)));
            }
            if t % 4 == 0 {
                ctx.supply
                    .observe(PLANNING_GAINS, Watts(1000.0 - f64::from(t)));
            }
        }
        let json = serde_json::to_string(&ctx).expect("serialize");
        let back: PlanningContext = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(ctx, back);
        // The restored context continues forecasting identically.
        assert_eq!(back.predicted_root_demand(3), ctx.predicted_root_demand(3));
        assert_eq!(back.predicted_supply(1), ctx.predicted_supply(1));
    }

    #[test]
    fn default_context_is_an_inert_placeholder() {
        let ctx = PlanningContext::for_servers(0);
        assert!(ctx.leaves.is_empty());
        assert_eq!(
            ctx.leaves.capacity(),
            0,
            "the placeholder allocates nothing"
        );
        assert_eq!(ctx.predicted_supply(1), None);
        assert_eq!(ctx.predicted_root_demand(1), None);
    }

    #[test]
    fn clone_from_matches_clone() {
        let mut src = PlanningContext::for_servers(4);
        src.supply.observe(PLANNING_GAINS, Watts(900.0));
        src.leaves[1].observe(PLANNING_GAINS, Watts(30.0));
        let mut dst = PlanningContext::for_servers(2);
        dst.clone_from(&src);
        assert_eq!(dst, src.clone());
    }
}
