//! Strategy selection: one constructor mapping a serializable strategy
//! name to a boxed [`Packer`].
//!
//! Every consumer that lets a config choose the packing heuristic —
//! Willow's demand-adaptation pipeline, the centralized greedy baseline,
//! the `repro ablate` policy grid — goes through [`packer_for`], so adding
//! a heuristic is one new enum variant and one new match arm here instead
//! of a parallel match in every controller.

use crate::{BestFitDecreasing, Ffdlr, FirstFitDecreasing, NextFit, Packer};
use serde::{Deserialize, Serialize};

/// Which bin-packing algorithm a migration planner uses (paper §IV-F; the
/// paper chooses FFDLR, the alternatives exist for the packer ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackerStrategy {
    /// Friesen–Langston FFDLR (the paper's choice).
    Ffdlr,
    /// First-Fit Decreasing.
    FirstFitDecreasing,
    /// Best-Fit Decreasing.
    BestFitDecreasing,
    /// Next-Fit (weak baseline).
    NextFit,
}

/// The packing heuristic for `strategy`. Every packer is a zero-sized
/// type, so the box never allocates and callers may construct it per use.
#[must_use]
pub fn packer_for(strategy: PackerStrategy) -> Box<dyn Packer> {
    match strategy {
        PackerStrategy::Ffdlr => Box::new(Ffdlr),
        PackerStrategy::FirstFitDecreasing => Box::new(FirstFitDecreasing),
        PackerStrategy::BestFitDecreasing => Box::new(BestFitDecreasing),
        PackerStrategy::NextFit => Box::new(NextFit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_constructs_its_packer() {
        for (strategy, name) in [
            (PackerStrategy::Ffdlr, "ffdlr"),
            (PackerStrategy::FirstFitDecreasing, "ffd"),
            (PackerStrategy::BestFitDecreasing, "bfd"),
            (PackerStrategy::NextFit, "next-fit"),
        ] {
            assert_eq!(packer_for(strategy).name(), name);
        }
    }
}
