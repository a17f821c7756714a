//! Allocation-free-on-hot-path telemetry for the Willow reproduction.
//!
//! The registry hands out cheap cloneable handles — [`Counter`], [`Gauge`],
//! [`Histogram`] — whose record paths are plain relaxed atomic operations on
//! cells preallocated at registration time: no locks, no heap traffic, so
//! instrumented control ticks keep PR 2's zero-allocation invariant. The
//! registry itself holds a `Mutex` that is touched only on the cold paths
//! (registration, rendering, snapshotting).
//!
//! A registry built with [`TelemetryRegistry::disabled`] (also the `Default`)
//! hands out no-op handles, so instrumented code pays one branch per record
//! when telemetry is off.
//!
//! Two sinks are provided: [`TelemetryRegistry::render_prometheus`] emits
//! Prometheus text exposition format, and [`TelemetryRegistry::snapshot`]
//! produces a serde-serializable [`TelemetrySnapshot`] that merges into the
//! simulator's JSONL trace stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exponent of the lowest bucket boundary for duration histograms:
/// 2^-30 s ≈ 0.93 ns, below any measurable span.
pub const DURATION_MIN_EXP: i32 = -30;

/// Bucket count for duration histograms: exponents −30..=14, so the last
/// bounded bucket ends at 2^15 s ≈ 9.1 h.
pub const DURATION_BUCKETS: usize = 45;

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// Preallocated storage for one histogram: power-of-two buckets selected by
/// IEEE-754 exponent extraction, so recording needs no `log2` call and no
/// branch-per-bucket scan.
struct HistogramCells {
    /// Exponent of the first bucket boundary; bucket `i` (except the last)
    /// holds values in `[2^(min_exp+i), 2^(min_exp+i+1))`, clamped at both
    /// ends.
    min_exp: i32,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Running sum of recorded values, stored as f64 bits and updated with a
    /// CAS loop (recording is cross-thread safe even though the simulator is
    /// single-threaded today).
    sum_bits: AtomicU64,
}

impl HistogramCells {
    fn new(min_exp: i32, n_buckets: usize) -> Self {
        assert!(n_buckets >= 2, "histogram needs at least 2 buckets");
        Self {
            min_exp,
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Bucket index for `v`. Non-finite and non-positive values land in
    /// bucket 0 (they carry no magnitude information at these scales).
    fn bucket_index(&self, v: f64) -> usize {
        if v.is_nan() || v <= 0.0 || v.is_infinite() {
            return 0;
        }
        // Biased exponent − 1023 = floor(log2 v) for normal values;
        // subnormals give −1023 and clamp to the first bucket.
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (exp - self.min_exp).clamp(0, self.buckets.len() as i32 - 1) as usize
    }

    fn record(&self, v: f64) {
        // Keep the sum finite no matter what is recorded: a NaN or infinity
        // would otherwise poison every later snapshot.
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.buckets[self.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper boundary of bucket `i` (`+Inf` for the last bucket).
    fn upper_bound(&self, i: usize) -> f64 {
        if i + 1 == self.buckets.len() {
            f64::INFINITY
        } else {
            exp2(self.min_exp + i as i32 + 1)
        }
    }
}

/// `2^e` without libm.
fn exp2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

macro_rules! impl_handle_debug {
    ($ty:ident) => {
        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($ty))
                    .field("enabled", &self.0.is_some())
                    .finish()
            }
        }
    };
}
impl_handle_debug!(Counter);
impl_handle_debug!(Gauge);
impl_handle_debug!(Histogram);

/// Monotonic counter handle. `Default` (and handles from a disabled registry)
/// are no-ops.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-value gauge handle storing an `f64` as atomic bits. Non-finite
/// values are recorded as 0 so serialized output never carries NaN/Inf.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Store `v`, or 0 if `v` is not finite.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            let v = if v.is_finite() { v } else { 0.0 };
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The last stored value (0 for a disabled handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Fixed-bucket log2 histogram handle.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// Record one value. Non-finite values count as 0 and negative ones
    /// clamp to 0.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(cells) = &self.0 {
            cells.record(v);
        }
    }

    /// Record the elapsed seconds since `start` (a [`TelemetryRegistry::now`]
    /// result). Both the handle and the start may be disabled/`None`; the
    /// call is then a no-op, so spans cost one branch when telemetry is off.
    #[inline]
    pub fn record_since(&self, start: Option<Instant>) {
        if let (Some(cells), Some(t0)) = (&self.0, start) {
            cells.record(t0.elapsed().as_secs_f64());
        }
    }

    /// Values recorded so far (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of the values recorded so far (0 for a disabled handle).
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.sum())
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCells>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    cell: Cell,
}

struct Shared {
    entries: Mutex<Vec<Entry>>,
}

/// The metric registry. Cloning shares the underlying cells; the `Default`
/// registry is disabled.
#[derive(Clone, Default)]
pub struct TelemetryRegistry {
    shared: Option<Arc<Shared>>,
}

impl TelemetryRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                entries: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op and
    /// [`render_prometheus`](Self::render_prometheus) returns an empty
    /// string.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// Whether this registry records (see [`TelemetryRegistry::disabled`]).
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// `Some(Instant::now())` when enabled, `None` when disabled — the start
    /// token for [`Histogram::record_since`]. Keeping the token a plain
    /// `Option<Instant>` (rather than a guard borrowing the registry) lets
    /// spans bracket `&mut self` phase calls.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        if self.shared.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Register (or re-attach to) a monotonic counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.intern(name, help, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Cell::Counter(c)) => Counter(Some(c)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Counter(None),
        }
    }

    /// Register (or re-attach to) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.intern(name, help, || {
            Cell::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
        }) {
            Some(Cell::Gauge(c)) => Gauge(Some(c)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Gauge(None),
        }
    }

    /// Register (or re-attach to) a log2 histogram whose first bucket
    /// boundary is `2^min_exp`, with `n_buckets` buckets (the last one
    /// unbounded).
    pub fn histogram(&self, name: &str, help: &str, min_exp: i32, n_buckets: usize) -> Histogram {
        match self.intern(name, help, || {
            Cell::Histogram(Arc::new(HistogramCells::new(min_exp, n_buckets)))
        }) {
            Some(Cell::Histogram(c)) => {
                assert!(
                    c.min_exp == min_exp && c.buckets.len() == n_buckets,
                    "metric `{name}` re-registered with different bucket layout"
                );
                Histogram(Some(c))
            }
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Histogram(None),
        }
    }

    /// A histogram pre-shaped for span durations in seconds
    /// (sub-nanosecond first bucket through multi-hour last bucket).
    pub fn duration_histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram(name, help, DURATION_MIN_EXP, DURATION_BUCKETS)
    }

    fn intern(&self, name: &str, help: &str, make: impl FnOnce() -> Cell) -> Option<Cell> {
        let shared = self.shared.as_ref()?;
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
                && !name.as_bytes()[0].is_ascii_digit(),
            "invalid metric name `{name}`"
        );
        let mut entries = shared.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return Some(e.cell.clone());
        }
        let cell = make();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            cell: cell.clone(),
        });
        Some(cell)
    }

    /// Prometheus text exposition of every registered metric, in
    /// registration order. Empty string when disabled.
    pub fn render_prometheus(&self) -> String {
        let Some(shared) = &self.shared else {
            return String::new();
        };
        let entries = shared.entries.lock().unwrap();
        let mut out = String::new();
        for e in entries.iter() {
            if !e.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            }
            let _ = writeln!(out, "# TYPE {} {}", e.name, e.cell.kind());
            match &e.cell {
                Cell::Counter(c) => {
                    let _ = writeln!(out, "{} {}", e.name, c.load(Ordering::Relaxed));
                }
                Cell::Gauge(c) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        e.name,
                        f64::from_bits(c.load(Ordering::Relaxed))
                    );
                }
                Cell::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cumulative += b.load(Ordering::Relaxed);
                        let ub = h.upper_bound(i);
                        if ub.is_finite() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{:e}\"}} {}",
                                e.name, ub, cumulative
                            );
                        } else {
                            let _ =
                                writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, cumulative);
                        }
                    }
                    let _ = writeln!(out, "{}_sum {}", e.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", e.name, h.count.load(Ordering::Relaxed));
                }
            }
        }
        out
    }

    /// Serializable snapshot of every registered metric, in registration
    /// order. Empty when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(shared) = &self.shared else {
            return TelemetrySnapshot::default();
        };
        let entries = shared.entries.lock().unwrap();
        TelemetrySnapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    value: match &e.cell {
                        Cell::Counter(c) => MetricValue::Counter {
                            value: c.load(Ordering::Relaxed),
                        },
                        Cell::Gauge(c) => MetricValue::Gauge {
                            value: f64::from_bits(c.load(Ordering::Relaxed)),
                        },
                        Cell::Histogram(h) => MetricValue::Histogram {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum(),
                            min_exp: h.min_exp,
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                        },
                    },
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// Point-in-time values of every registered metric; serializes into the
/// simulator's JSONL trace stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

/// One metric's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Its value, tagged with its kind.
    #[serde(flatten)]
    pub value: MetricValue,
}

/// Snapshot payload per metric kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MetricValue {
    /// A [`Counter`]'s total.
    Counter {
        /// The total.
        value: u64,
    },
    /// A [`Gauge`]'s last value.
    Gauge {
        /// The last value.
        value: f64,
    },
    /// A [`Histogram`]'s power-of-two buckets.
    Histogram {
        /// Values recorded.
        count: u64,
        /// Sum of the values recorded.
        sum: f64,
        /// Exponent of the first bucket boundary: bucket `i` (except the
        /// last) holds values in `[2^(min_exp+i), 2^(min_exp+i+1))`, and
        /// the end buckets also take everything below and above.
        min_exp: i32,
        /// Count per bucket.
        buckets: Vec<u64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let reg = TelemetryRegistry::disabled();
        let c = reg.counter("ticks_total", "ticks");
        let g = reg.gauge("deficit_watts", "deficit");
        let h = reg.duration_histogram("tick_seconds", "tick time");
        c.inc();
        g.set(5.0);
        h.record(1.0);
        h.record_since(reg.now());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(reg.now().is_none());
        assert!(reg.render_prometheus().is_empty());
        assert!(reg.snapshot().metrics.is_empty());
    }

    #[test]
    fn default_handles_match_disabled_registry() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 0);
        let h = Histogram::default();
        h.record(1.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = TelemetryRegistry::new();
        let c = reg.counter("migrations_total", "migrations");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("deficit_watts", "deficit");
        g.set(17.25);
        assert_eq!(g.get(), 17.25);
        g.set(f64::NAN);
        assert_eq!(g.get(), 0.0, "non-finite gauge values are sanitized");
    }

    #[test]
    fn reregistration_shares_the_cell() {
        let reg = TelemetryRegistry::new();
        let a = reg.counter("ticks_total", "ticks");
        let b = reg.counter("ticks_total", "ticks");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = TelemetryRegistry::new();
        let _ = reg.counter("x_total", "");
        let _ = reg.gauge("x_total", "");
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let reg = TelemetryRegistry::new();
        // Buckets: (..2), [2,4), [4,8), [8,..).
        let h = reg.histogram("latency", "", 0, 4);
        for v in [
            1.0,
            2.0,
            3.9,
            4.0,
            100.0,
            0.0,
            -7.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let MetricValue::Histogram {
            count,
            sum,
            buckets,
            ..
        } = &snap.metrics[0].value
        else {
            panic!("expected histogram");
        };
        assert_eq!(*count, 9);
        // 1.0, 0.0, -7.0, NaN and Inf (sanitized to 0) land in bucket 0.
        assert_eq!(buckets, &vec![5, 2, 1, 1]);
        // Non-finite records contribute 0 to the sum; negatives clamp to 0.
        assert!((sum - (1.0 + 2.0 + 3.9 + 4.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_finite() {
        let reg = TelemetryRegistry::new();
        let c = reg.counter("msgs_total", "messages sent");
        c.add(3);
        let h = reg.histogram("lat_seconds", "latency", -1, 3);
        h.record(0.75);
        h.record(3.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE msgs_total counter"));
        assert!(text.contains("msgs_total 3"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count 2"));
        assert!(!text.contains("NaN"));
        // The last bounded bucket boundary is 2^1.
        assert!(text.contains("le=\"2e0\""));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = TelemetryRegistry::new();
        reg.counter("a_total", "").add(7);
        reg.gauge("b_watts", "").set(-3.5);
        let h = reg.duration_histogram("c_seconds", "");
        h.record(1e-6);
        h.record(0.25);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn record_since_observes_elapsed_time() {
        let reg = TelemetryRegistry::new();
        let h = reg.duration_histogram("span_seconds", "");
        let t0 = reg.now();
        assert!(t0.is_some());
        h.record_since(t0);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
    }
}
