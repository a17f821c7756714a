//! Sampled telemetry handles for the controller's hot path.

/// Telemetry spans and gauges are *sampled*: each phase's wall time (and
/// the per-level deficit / fabric gauges) is recorded at most once per
/// this many ticks. Clock reads cost ~20 ns each; timing five phases
/// every tick would burn ~40 % of a small-topology tick, where sampling
/// keeps the instrumented overhead under the 3 % budget while the
/// histograms still accumulate one representative sample per phase per
/// window. Counters are exact — they are plain atomic adds.
pub const SPAN_SAMPLE_PERIOD: u64 = 16;

/// Sampling slots: five phase spans plus the gauge refresh.
pub(super) const SLOT_MEASURE: usize = 0;
pub(super) const SLOT_SUPPLY: usize = 1;
pub(super) const SLOT_DEMAND: usize = 2;
pub(super) const SLOT_CONSOLIDATE: usize = 3;
pub(super) const SLOT_PHYSICS: usize = 4;
pub(super) const SLOT_GAUGES: usize = 5;

/// Telemetry handles for the controller's hot path. All handles come from
/// one registry via [`Willow::attach_telemetry`](super::Willow::attach_telemetry);
/// the `Default` value is fully disabled, so an unattached controller pays
/// one branch per record. Handles are plain atomics — recording allocates
/// nothing, preserving the zero-allocation steady-state tick invariant
/// with telemetry enabled.
#[derive(Debug, Default)]
pub(crate) struct ControllerTelemetry {
    /// Kept for span start tokens (`TelemetryRegistry::now`).
    pub(super) registry: willow_telemetry::TelemetryRegistry,
    pub(super) span_measure: willow_telemetry::Histogram,
    pub(super) span_supply: willow_telemetry::Histogram,
    pub(super) span_demand: willow_telemetry::Histogram,
    pub(super) span_consolidate: willow_telemetry::Histogram,
    pub(super) span_physics: willow_telemetry::Histogram,
    pub(super) migrations: willow_telemetry::Counter,
    pub(super) migration_aborts: willow_telemetry::Counter,
    pub(super) migration_rejects: willow_telemetry::Counter,
    pub(super) watchdog_trips: willow_telemetry::Counter,
    /// The demand stage's packing work, mirroring
    /// [`ControlStats`](super::ControlStats): instances solved, deficit
    /// items offered and candidate bins offered.
    pub(super) packing_instances: willow_telemetry::Counter,
    pub(super) items_offered: willow_telemetry::Counter,
    pub(super) bins_offered: willow_telemetry::Counter,
    pub(super) commands_applied: willow_telemetry::Counter,
    pub(super) commands_rejected: willow_telemetry::Counter,
    /// Ticks between command submission and its terminal outcome.
    pub(super) command_latency: willow_telemetry::Histogram,
    /// One budget-deficit gauge per tree level (index = level).
    pub(super) level_deficit: Vec<willow_telemetry::Gauge>,
    pub(super) fabric: willow_network::FabricTelemetry,
    /// Last window each slot was sampled in (`0` = never); see
    /// [`SPAN_SAMPLE_PERIOD`].
    pub(super) sampled_window: [u64; 6],
}

impl ControllerTelemetry {
    pub(super) fn register(registry: &willow_telemetry::TelemetryRegistry, height: u8) -> Self {
        let span = |phase: &str| {
            registry.duration_histogram(
                &format!("willow_controller_phase_{phase}_seconds"),
                "Wall time of this controller phase (sampled once per window)",
            )
        };
        ControllerTelemetry {
            span_measure: span("measure"),
            span_supply: span("supply"),
            span_demand: span("demand"),
            span_consolidate: span("consolidate"),
            span_physics: span("physics"),
            migrations: registry.counter(
                "willow_controller_migrations_total",
                "Migrations executed (both reasons)",
            ),
            migration_aborts: registry.counter(
                "willow_controller_migration_aborts_total",
                "Migration attempts aborted mid-flight",
            ),
            migration_rejects: registry.counter(
                "willow_controller_migration_rejects_total",
                "Migration attempts refused admission by the destination",
            ),
            watchdog_trips: registry.counter(
                "willow_controller_watchdog_trips_total",
                "Stale-directive watchdog trips",
            ),
            packing_instances: registry.counter(
                "willow_controller_demand_packing_instances_total",
                "Bin-packing instances solved by the demand stage",
            ),
            items_offered: registry.counter(
                "willow_controller_demand_items_offered_total",
                "Deficit items offered across all packing instances",
            ),
            bins_offered: registry.counter(
                "willow_controller_demand_bins_offered_total",
                "Candidate bins (eligible surpluses) offered across all packing instances",
            ),
            commands_applied: registry.counter(
                "willow_commands_applied_total",
                "Live-ops commands that committed",
            ),
            commands_rejected: registry.counter(
                "willow_commands_rejected_total",
                "Live-ops commands rejected with a typed error",
            ),
            // Buckets 2^0 .. 2^11 ticks: most commands land within one
            // tick; multi-tick drains under faults fill the tail.
            command_latency: registry.histogram(
                "willow_command_latency_ticks",
                "Ticks between a command's submission and its terminal outcome",
                0,
                12,
            ),
            level_deficit: (0..=height)
                .map(|level| {
                    registry.gauge(
                        &format!("willow_controller_level_deficit_watts_l{level}"),
                        "Summed budget deficit [CP - TP]+ across this tree level",
                    )
                })
                .collect(),
            fabric: willow_network::FabricTelemetry::register(registry),
            registry: registry.clone(),
            sampled_window: [0; 6],
        }
    }

    /// True when `slot` has not been sampled yet in `tick`'s window; marks
    /// it sampled. Always false when the registry is disabled.
    pub(super) fn due(&mut self, slot: usize, tick: u64) -> bool {
        if !self.registry.is_enabled() {
            return false;
        }
        // +1 so the very first window differs from the never-sampled 0.
        let window = tick / SPAN_SAMPLE_PERIOD + 1;
        if self.sampled_window[slot] == window {
            return false;
        }
        self.sampled_window[slot] = window;
        true
    }

    /// Span start token for `slot`: a clock read on the window's first
    /// opportunity, `None` (making `record_since` a no-op) otherwise.
    pub(super) fn span_start(&mut self, slot: usize, tick: u64) -> Option<std::time::Instant> {
        if self.due(slot, tick) {
            self.registry.now()
        } else {
            None
        }
    }
}
