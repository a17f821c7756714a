//! Benchmark & reproduction harness for the Willow workspace.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (`cargo run -p willow-bench --bin repro -- all`); its output
//! is recorded against the paper in `EXPERIMENTS.md`. Its subcommands run
//! the beyond-the-paper checks: `ablate` scores the policy grid, the knob
//! sweeps behind the ablations listed in `DESIGN.md` and the supply-policy
//! race; `chaos`, `liveops`, `federate` and `telemetry` exercise the
//! robustness and observability layers. Timing lives in `perfbench/`.
//!
//! This library hosts the small formatting helpers `repro` uses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Format a numeric series as an aligned two-column table.
#[must_use]
pub fn format_series<X: std::fmt::Display, Y: std::fmt::Display>(
    header: (&str, &str),
    rows: impl IntoIterator<Item = (X, Y)>,
) -> String {
    let mut out = format!("{:>12}  {:>14}\n", header.0, header.1);
    for (x, y) in rows {
        out.push_str(&format!("{x:>12}  {y:>14}\n"));
    }
    out
}

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

    #[test]
    fn series_formatting() {
        let s = format_series(("u", "power"), vec![(10, 100.5), (20, 200.0)]);
        assert!(s.contains("u"));
        assert!(s.lines().count() == 3);
    }
}
