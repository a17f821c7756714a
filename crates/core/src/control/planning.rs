//! The horizon-aware planning seam: per-node demand/supply history and
//! forecasts, read by the predictive supply policy in stages 2 and 4.
//!
//! The paper's controller is purely reactive — each stage decides from the
//! current tick's measurements. The ROADMAP's predictive (MPC-style)
//! policy and the broker's zone-demand forecasting both need the same
//! structural ingredient: decision seams that can see *history* and a
//! *forecast*, not just an instantaneous scalar. This module provides it:
//!
//! * [`HistoryRing`] — a fixed-capacity ring of recent observations,
//!   overwritten in place (zero allocations after construction);
//! * [`Forecaster`] — the horizon-`h` prediction interface, with
//!   [`ForecastModel`] adapting the existing `willow-workload` smoothers
//!   ([`ExpSmoother`] forecasts flat, [`HoltSmoother`] extrapolates its
//!   trend);
//! * [`PlanSeries`] — one tracked series: a ring plus a model, fed
//!   together;
//! * [`PlanningContext`] — the controller's full planning state: root
//!   supply, root aggregate demand, and one series per roster server. The
//!   measure stage updates it once per tick; stages 2 and 4 receive it as
//!   `&PlanningContext`.
//!
//! **Horizon semantics.** Leaf and root-demand series observe once per
//! demand period, so `predict(h)` is `h` demand periods (`h·Δ_D`) ahead.
//! The supply series observes once per *supply* tick (when a supply value
//! is actually applied), so its horizon unit is `η1·Δ_D`. Predictions are
//! `None` until a series has seen its first observation — callers must
//! treat "no forecast" as "fall back to reactive", never as zero.
//!
//! **Determinism and cost.** The context is plain serialized state
//! (captured in `WillowSnapshot`, restored verbatim), updates are
//! per-server-disjoint (safe to fold into the sharded measure loop), and
//! the default policies ignore the context entirely — attaching it changes
//! no reactive trajectory bit and allocates nothing in steady state.

use serde::{Deserialize, Serialize};
use willow_thermal::units::Watts;
use willow_workload::smoothing::{ExpSmoother, HoltSmoother};

/// Observations retained per tracked series. Sixteen demand periods cover
/// four supply periods (`η1 = 4`) and two consolidation periods
/// (`η2 = 7`) of context — enough for any built-in policy's look-behind —
/// while keeping the per-server footprint at 128 bytes.
pub const HISTORY_DEPTH: usize = 16;

/// Level gain of the planning forecasters. Matches the controller's
/// default demand-smoothing `α`; fixed (not configurable) because the
/// planning context must stay identical across configs for the default
/// policies' bit-for-bit neutrality to be testable in one place.
pub const PLANNING_ALPHA: f64 = 0.5;

/// Trend gain of the planning forecasters. Deliberately below the level
/// gain: trends should build over a few periods, not chase single-tick
/// noise into wild extrapolations.
pub const PLANNING_BETA: f64 = 0.3;

/// Headroom factor the predictive supply policy keeps above current root
/// demand when pre-tightening toward a forecast supply dip. Tightening the
/// root budget all the way to the forecast level sheds demand *before* the
/// dip arrives (self-inflicted drops), while tightening exactly to current
/// demand leaves `excess = margin` everywhere and churns deficit items;
/// 10% headroom keeps the pre-dip budget strictly above demand-plus-margin
/// for any realistically loaded root while still evacuating
/// thermally-capped servers a supply period early.
pub const PREDICTIVE_HEADROOM: f64 = 1.1;

/// A fixed-capacity ring of recent power observations. Pushing overwrites
/// the oldest entry once full; the buffer is sized at construction and
/// never reallocates.
///
/// The [`Default`] ring has capacity zero and silently drops pushes — it
/// exists so [`PlanningContext`] can be `std::mem::take`n around the
/// pipeline stages without allocating a real replacement. Every ring that
/// is actually observed comes from [`HistoryRing::new`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryRing {
    /// Backing store, pre-filled at construction.
    buf: Vec<Watts>,
    /// Next write position.
    head: usize,
    /// Valid entries (`≤ buf.len()`).
    len: usize,
}

impl HistoryRing {
    /// A ring holding up to `capacity` observations.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — use [`HistoryRing::default`] for the
    /// deliberate empty placeholder.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history ring capacity must be positive");
        HistoryRing {
            buf: vec![Watts::ZERO; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Record one observation, overwriting the oldest once full. A
    /// zero-capacity (placeholder) ring drops the observation.
    pub fn push(&mut self, value: Watts) {
        if self.buf.is_empty() {
            return;
        }
        self.buf[self.head] = value;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Observations currently held (saturates at the capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first observation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum observations the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The observation `age` pushes ago: `get(0)` is the newest, up to
    /// `get(len() - 1)` for the oldest retained. `None` beyond that.
    #[must_use]
    pub fn get(&self, age: usize) -> Option<Watts> {
        if age >= self.len {
            return None;
        }
        let cap = self.buf.len();
        Some(self.buf[(self.head + cap - 1 - age) % cap])
    }

    /// The most recent observation, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Watts> {
        self.get(0)
    }

    /// Forget every observation (capacity is retained).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// The prediction interface of the planning seam: feed observations in
/// series order, ask for a horizon-`h` forecast. The horizon's time unit
/// is whatever interval the series is observed at (see the module docs).
pub trait Forecaster {
    /// Feed one observation.
    fn observe(&mut self, raw: Watts);
    /// Forecast `h` observation intervals ahead (`h ≥ 1`). `None` until
    /// the model has something to extrapolate from.
    fn predict(&self, h: u32) -> Option<Watts>;
    /// Forget all history.
    fn reset(&mut self);
}

/// A serializable [`Forecaster`] over the `willow-workload` smoothers.
/// The same adapter idiom as `DemandSmoother` in `crate::server`: a
/// closed enum rather than a boxed trait object, so the model state can
/// live inside [`WillowSnapshot`](crate::snapshot::WillowSnapshot) and
/// restore bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ForecastModel {
    /// Plain exponential smoothing: the forecast is flat at the current
    /// smoothed level, for any horizon (no trend model).
    Exponential(ExpSmoother),
    /// Holt level + trend: the forecast extrapolates the trend linearly,
    /// floored at zero watts.
    Holt(HoltSmoother),
}

impl Default for ForecastModel {
    /// The planning default: Holt with the fixed planning gains — the
    /// whole point of the seam is anticipating ramps, which need a trend.
    fn default() -> Self {
        ForecastModel::Holt(HoltSmoother::new(PLANNING_ALPHA, PLANNING_BETA))
    }
}

impl Forecaster for ForecastModel {
    fn observe(&mut self, raw: Watts) {
        match self {
            ForecastModel::Exponential(s) => {
                s.observe(raw);
            }
            ForecastModel::Holt(s) => {
                s.observe(raw);
            }
        }
    }

    fn predict(&self, h: u32) -> Option<Watts> {
        debug_assert!(h >= 1, "a zero horizon is the latest observation");
        match self {
            ForecastModel::Exponential(s) => s.value(),
            ForecastModel::Holt(s) => s.forecast(h),
        }
    }

    fn reset(&mut self) {
        match self {
            ForecastModel::Exponential(s) => s.reset(),
            ForecastModel::Holt(s) => s.reset(),
        }
    }
}

/// One tracked series: raw history (for policies that want to look back)
/// plus a forecast model (for policies that want to look forward), fed
/// together by a single [`PlanSeries::observe`] call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanSeries {
    /// The last [`HISTORY_DEPTH`] observations.
    pub history: HistoryRing,
    /// The forecast model, fed the same observations.
    pub model: ForecastModel,
}

impl PlanSeries {
    /// A standard planning series: [`HISTORY_DEPTH`]-deep ring and the
    /// default Holt model.
    #[must_use]
    pub fn standard() -> Self {
        PlanSeries {
            history: HistoryRing::new(HISTORY_DEPTH),
            model: ForecastModel::default(),
        }
    }

    /// Record one observation into both the ring and the model.
    pub fn observe(&mut self, value: Watts) {
        self.history.push(value);
        self.model.observe(value);
    }

    /// Forecast `h` observation intervals ahead (see [`Forecaster`]).
    #[must_use]
    pub fn predict(&self, h: u32) -> Option<Watts> {
        self.model.predict(h)
    }

    /// The most recent observation, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Watts> {
        self.history.latest()
    }

    /// Forget all history and model state (capacity retained).
    pub fn reset(&mut self) {
        self.history.clear();
        self.model.reset();
    }
}

/// The controller's complete planning state, updated once per tick by the
/// measure stage and handed read-only to stages 2 and 4.
///
/// Serialized whole inside `WillowSnapshot` (restore continues forecasts
/// bit-for-bit); `recover` keeps the checkpoint's context — forecaster
/// state is controller *memory*, like the pending-command queue, not
/// field-observable physical truth.
///
/// The [`Default`] context is the empty placeholder `std::mem::take`
/// leaves behind while a pipeline stage borrows the real one; it holds
/// zero-capacity series and no leaves, and is never observed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanningContext {
    /// Root supply, observed once per applied supply tick. Horizon unit:
    /// supply periods (`η1·Δ_D`).
    pub supply: PlanSeries,
    /// Aggregate smoothed demand at the tree root, observed every tick.
    /// Horizon unit: demand periods (`Δ_D`).
    pub root_demand: PlanSeries,
    /// Per-server demand series, indexed by roster (server) order like
    /// `Willow::servers` — including retired slots, which observe zero.
    /// Horizon unit: demand periods (`Δ_D`).
    pub leaves: Vec<PlanSeries>,
}

impl PlanningContext {
    /// A fresh context for a roster of `n` servers, no history yet.
    #[must_use]
    pub fn for_servers(n: usize) -> Self {
        PlanningContext {
            supply: PlanSeries::standard(),
            root_demand: PlanSeries::standard(),
            leaves: (0..n).map(|_| PlanSeries::standard()).collect(),
        }
    }

    /// Grow the per-server series alongside a roster addition (the
    /// live-ops `AddServer` path). The new series starts with no history.
    pub fn push_server(&mut self) {
        self.leaves.push(PlanSeries::standard());
    }

    /// Forecast the root supply `h` *supply periods* ahead.
    #[must_use]
    pub fn predicted_supply(&self, h: u32) -> Option<Watts> {
        self.supply.predict(h)
    }

    /// Forecast the root aggregate demand `h` demand periods ahead.
    #[must_use]
    pub fn predicted_root_demand(&self, h: u32) -> Option<Watts> {
        self.root_demand.predict(h)
    }

    /// Forecast server `si`'s demand `h` demand periods ahead. `None` for
    /// out-of-roster indices or series without observations.
    #[must_use]
    pub fn predicted_leaf_demand(&self, si: usize, h: u32) -> Option<Watts> {
        self.leaves.get(si).and_then(|s| s.predict(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_then_wraps() {
        let mut r = HistoryRing::new(3);
        assert!(r.is_empty());
        assert_eq!(r.latest(), None);
        r.push(Watts(1.0));
        r.push(Watts(2.0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), Some(Watts(2.0)));
        assert_eq!(r.get(1), Some(Watts(1.0)));
        assert_eq!(r.get(2), None);
        r.push(Watts(3.0));
        r.push(Watts(4.0)); // overwrites 1.0
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.get(0), Some(Watts(4.0)));
        assert_eq!(r.get(1), Some(Watts(3.0)));
        assert_eq!(r.get(2), Some(Watts(2.0)));
        assert_eq!(r.get(3), None, "overwritten entries are gone");
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn placeholder_ring_drops_pushes() {
        let mut r = HistoryRing::default();
        r.push(Watts(5.0));
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.latest(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_construction_rejected() {
        let _ = HistoryRing::new(0);
    }

    #[test]
    fn exponential_model_forecasts_flat() {
        let mut m = ForecastModel::Exponential(ExpSmoother::new(0.5));
        assert_eq!(m.predict(1), None);
        m.observe(Watts(100.0));
        m.observe(Watts(200.0));
        let level = m.predict(1).unwrap();
        assert_eq!(m.predict(10), Some(level), "no trend: flat at any horizon");
    }

    #[test]
    fn holt_model_extrapolates_ramps() {
        let mut s = PlanSeries::standard();
        for k in 0..40 {
            s.observe(Watts(f64::from(k) * 5.0));
        }
        let last = s.latest().unwrap();
        let one = s.predict(1).unwrap();
        let four = s.predict(4).unwrap();
        assert!(one > last, "upward trend must extrapolate upward");
        assert!(four > one, "longer horizons extend the trend further");
        // The converged Holt trend on a 5 W/step ramp is ~5 W/step.
        assert!((four.0 - one.0 - 15.0).abs() < 1.0, "trend ≈ 5 W/step");
    }

    #[test]
    fn model_reset_forgets() {
        let mut s = PlanSeries::standard();
        s.observe(Watts(50.0));
        s.reset();
        assert!(s.history.is_empty());
        assert_eq!(s.predict(1), None);
    }

    #[test]
    fn context_tracks_roster_growth() {
        let mut ctx = PlanningContext::for_servers(2);
        assert_eq!(ctx.leaves.len(), 2);
        ctx.push_server();
        assert_eq!(ctx.leaves.len(), 3);
        assert_eq!(ctx.predicted_leaf_demand(2, 1), None);
        ctx.leaves[2].observe(Watts(75.0));
        assert_eq!(ctx.predicted_leaf_demand(2, 1), Some(Watts(75.0)));
        assert_eq!(ctx.predicted_leaf_demand(7, 1), None, "out of roster");
    }

    #[test]
    fn context_round_trips_through_json() {
        let mut ctx = PlanningContext::for_servers(3);
        for t in 0..20 {
            ctx.root_demand.observe(Watts(f64::from(t) * 10.0));
            for s in &mut ctx.leaves {
                s.observe(Watts(f64::from(t)));
            }
            if t % 4 == 0 {
                ctx.supply.observe(Watts(1000.0 - f64::from(t)));
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
        let ctx = PlanningContext::default();
        assert!(ctx.leaves.is_empty());
        assert_eq!(ctx.supply.history.capacity(), 0);
        assert_eq!(ctx.predicted_supply(1), None);
        assert_eq!(ctx.predicted_root_demand(1), None);
    }
}
