//! Classic packing baselines: Next-Fit, First-Fit Decreasing and Best-Fit
//! Decreasing, generalized to variable-sized bins.
//!
//! They are the alternatives [`crate::PackerStrategy`] offers to the FFDLR
//! choice the paper makes: comparison points on the packer axis of the
//! `repro ablate` policy grid.

use crate::packing::{
    desc_order_into, first_fit_decreasing, sealed::Heuristic, PackScratch, Packer, FIT_EPSILON,
};

/// Next-Fit: keep one open bin; if the item does not fit, move to the next
/// bin and never look back. `O(n + m)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NextFit;

impl Packer for NextFit {
    fn name(&self) -> &'static str {
        "next-fit"
    }
}

impl Heuristic for NextFit {
    fn place(
        &self,
        items: &[f64],
        bins: &[f64],
        _scratch: &mut PackScratch,
        assignment: &mut [Option<usize>],
    ) {
        let mut current = 0usize;
        let mut remaining: Option<f64> = bins.first().copied();
        for (i, &size) in items.iter().enumerate() {
            while let Some(rem) = remaining {
                if size <= rem + FIT_EPSILON {
                    assignment[i] = Some(current);
                    remaining = Some(rem - size);
                    break;
                }
                current += 1;
                remaining = bins.get(current).copied();
            }
        }
    }
}

/// First-Fit Decreasing: sort items descending, then First-Fit, with bins
/// visited in descending capacity order (the natural generalization to
/// variable bins: big demands try big surpluses first). The bins are
/// opened in that order only as far as the items need; FFDLR's phase 1
/// is the same first fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitDecreasing;

impl Packer for FirstFitDecreasing {
    fn name(&self) -> &'static str {
        "ffd"
    }
}

impl Heuristic for FirstFitDecreasing {
    fn place(
        &self,
        items: &[f64],
        bins: &[f64],
        s: &mut PackScratch,
        assignment: &mut [Option<usize>],
    ) {
        first_fit_decreasing(items, bins, s, assignment);
    }
}

/// Best-Fit Decreasing: sort items descending; place each into the bin with
/// the least remaining capacity that still fits ("tightest fit").
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitDecreasing;

impl Packer for BestFitDecreasing {
    fn name(&self) -> &'static str {
        "bfd"
    }
}

impl Heuristic for BestFitDecreasing {
    fn place(
        &self,
        items: &[f64],
        bins: &[f64],
        s: &mut PackScratch,
        assignment: &mut [Option<usize>],
    ) {
        desc_order_into(items, &mut s.item_order);
        s.free.clear();
        s.free.extend_from_slice(bins);
        for &i in &s.item_order {
            let size = items[i];
            let best = s
                .free
                .iter()
                .enumerate()
                .filter(|(_, &f)| size <= f + FIT_EPSILON)
                .min_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)));
            if let Some((b, _)) = best {
                assignment[i] = Some(b);
                s.free[b] -= size;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_packers() -> Vec<Box<dyn Packer>> {
        vec![
            Box::new(NextFit),
            Box::new(FirstFitDecreasing),
            Box::new(BestFitDecreasing),
        ]
    }

    #[test]
    fn empty_instances() {
        for p in all_packers() {
            let out = p.pack(&[], &[]);
            assert!(out.assignment.is_empty());
            let out = p.pack(&[1.0], &[]);
            assert_eq!(out.unplaced, vec![0]);
            let out = p.pack(&[], &[1.0]);
            assert!(out.assignment.is_empty());
        }
    }

    #[test]
    fn all_results_are_capacity_feasible() {
        let items = [7.0, 5.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0];
        let bins = [10.0, 8.0, 6.0, 3.0];
        for p in all_packers() {
            let out = p.pack(&items, &bins);
            assert!(out.is_valid(&items, &bins), "{} invalid", p.name());
        }
    }

    #[test]
    fn oversized_item_is_unplaced_everywhere() {
        let items = [100.0, 1.0];
        let bins = [10.0, 10.0];
        for p in all_packers() {
            let out = p.pack(&items, &bins);
            assert!(out.unplaced.contains(&0), "{}", p.name());
            // Next-Fit burns through all bins failing to place item 0 and
            // then has nowhere left for item 1; every other packer places it.
            if p.name() != "next-fit" {
                assert!(!out.unplaced.contains(&1), "{}", p.name());
            }
        }
    }

    #[test]
    fn exact_fits_are_accepted() {
        let items = [5.0, 5.0];
        let bins = [5.0, 5.0];
        for p in all_packers() {
            let out = p.pack(&items, &bins);
            assert!(out.unplaced.is_empty(), "{} rejected exact fit", p.name());
        }
    }

    #[test]
    fn next_fit_never_revisits() {
        // 3 then 8: NF opens bin0 (cap 10, rem 7), 8 doesn't fit, moves to
        // bin1; the later 5 can then not use bin0 again.
        let out = NextFit.pack(&[3.0, 8.0, 5.0], &[10.0, 8.0]);
        assert_eq!(out.assignment, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn ffd_beats_next_fit_on_classic_instance() {
        // Classic: sizes where arrival order fragments but FFD packs tight.
        let items = [4.0, 4.0, 6.0, 6.0];
        let bins = [10.0, 10.0, 10.0];
        let ffd = FirstFitDecreasing.pack(&items, &bins);
        assert_eq!(ffd.bins_used(), 2, "FFD pairs 6+4 twice");
        let nf = NextFit.pack(&items, &bins);
        assert_eq!(nf.bins_used(), 3, "NF wastes a bin");
    }

    #[test]
    fn bfd_prefers_tightest_bin() {
        let out = BestFitDecreasing.pack(&[5.0], &[9.0, 6.0, 5.0]);
        assert_eq!(out.assignment, vec![Some(2)]);
    }

    #[test]
    fn ffd_targets_largest_bins_first() {
        let out = FirstFitDecreasing.pack(&[5.0], &[6.0, 9.0]);
        assert_eq!(out.assignment, vec![Some(1)]);
    }

    #[test]
    fn zero_size_items_place_anywhere() {
        for p in all_packers() {
            let out = p.pack(&[0.0, 0.0], &[0.0]);
            assert!(out.unplaced.is_empty(), "{}", p.name());
        }
    }

    /// Every packer (the three baselines plus FFDLR) must reject malformed
    /// instances — negative, NaN or infinite sizes on either side.
    #[test]
    fn invalid_instances_rejected_by_every_packer() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let bad_instances: [(&str, Vec<f64>, Vec<f64>); 5] = [
            ("negative item", vec![-1.0], vec![10.0]),
            ("NaN item", vec![f64::NAN], vec![10.0]),
            ("infinite item", vec![f64::INFINITY], vec![10.0]),
            ("negative bin", vec![1.0], vec![-10.0]),
            ("NaN bin", vec![1.0], vec![f64::NAN]),
        ];
        let mut packers = all_packers();
        packers.push(Box::new(crate::Ffdlr));
        // Silence the default hook: the expected panics would otherwise spam
        // the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut accepted = Vec::new();
        for p in &packers {
            for (what, items, bins) in &bad_instances {
                if catch_unwind(AssertUnwindSafe(|| p.pack(items, bins))).is_ok() {
                    accepted.push(format!("{} accepted {}", p.name(), what));
                }
            }
        }
        std::panic::set_hook(prev);
        assert!(accepted.is_empty(), "{accepted:?}");
    }
}
