//! Benchmark & reproduction harness for the Willow workspace.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (`cargo run -p willow-bench --bin repro -- all`); its output
//! is recorded against the paper in `EXPERIMENTS.md`. Its subcommands run
//! the beyond-the-paper checks: `ablate` scores the policy grid, the knob
//! sweeps behind the ablations listed in `DESIGN.md` and the supply-policy
//! race; `chaos`, `liveops` and `federate` run seeded fault, command and
//! zone-outage scenarios through one runner that holds every run to one
//! predicate set (the binary's `scenario` module); `telemetry` exercises
//! the observability layer. Timing lives in `perfbench/`.
//!
//! This library hosts the small rounding helpers `repro` uses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Round to one decimal for stable textual output.
#[must_use]
pub fn r1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// Round to three decimals.
#[must_use]
pub fn r3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding() {
        assert_eq!(r1(1.26), 1.3);
        assert_eq!(r3(0.27549), 0.275);
    }
}
