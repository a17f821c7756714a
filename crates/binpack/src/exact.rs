//! Exact (exponential) reference solver for small instances.
//!
//! Used only by tests to verify the FFDLR approximation bound of
//! `(3/2)·OPT + 1` bins; do not call on instances with more than ~10 items.

use crate::packing::validate_instance;

/// Minimum number of bins needed to place *all* items, or `None` if no
/// complete placement exists. Exhaustive branch-and-bound over item→bin
/// assignments with symmetry pruning on equal remaining capacities.
#[must_use]
pub fn optimal_bins_used(items: &[f64], bins: &[f64]) -> Option<usize> {
    validate_instance(items, bins);
    if items.is_empty() {
        return Some(0);
    }
    // Order items descending to fail fast.
    let mut sorted: Vec<f64> = items.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut state = Search {
        items: sorted,
        original: bins.to_vec(),
        free: bins.to_vec(),
        best: None,
    };
    state.run(0, 0);
    state.best
}

struct Search {
    items: Vec<f64>,
    original: Vec<f64>,
    free: Vec<f64>,
    best: Option<usize>,
}

impl Search {
    fn run(&mut self, idx: usize, used: usize) {
        if let Some(b) = self.best {
            if used >= b {
                return; // cannot improve on the incumbent
            }
        }
        if idx == self.items.len() {
            self.best = Some(self.best.map_or(used, |b| b.min(used)));
            return;
        }
        let size = self.items[idx];
        let mut tried: Vec<f64> = Vec::new();
        for b in 0..self.free.len() {
            if size > self.free[b] + 1e-12 {
                continue;
            }
            // Symmetry pruning: two bins with identical remaining capacity
            // lead to identical subtrees.
            if tried.iter().any(|&t| (t - self.free[b]).abs() < 1e-12) {
                continue;
            }
            tried.push(self.free[b]);
            let newly_used = usize::from((self.free[b] - self.original[b]).abs() < 1e-12);
            self.free[b] -= size;
            self.run(idx + 1, used + newly_used);
            self.free[b] += size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ffdlr, Packer};

    #[test]
    fn trivial_instances() {
        assert_eq!(optimal_bins_used(&[], &[]), Some(0));
        assert_eq!(optimal_bins_used(&[1.0], &[1.0]), Some(1));
        assert_eq!(optimal_bins_used(&[2.0], &[1.0]), None);
    }

    #[test]
    fn packs_pairs_optimally() {
        // 4 items of 5 into two bins of 10: OPT = 2.
        assert_eq!(
            optimal_bins_used(&[5.0, 5.0, 5.0, 5.0], &[10.0, 10.0, 10.0]),
            Some(2)
        );
    }

    #[test]
    fn variable_bins() {
        // 7 + 3 fit the 10-bin; 6 needs its own; OPT = 2.
        assert_eq!(
            optimal_bins_used(&[7.0, 6.0, 3.0], &[10.0, 6.0, 6.0]),
            Some(2)
        );
    }

    #[test]
    fn infeasible_total() {
        assert_eq!(optimal_bins_used(&[5.0, 5.0, 5.0], &[6.0, 6.0]), None);
    }

    #[test]
    fn zero_size_items_use_no_extra_bin_when_sharing() {
        // A zero-size item shares any opened bin; OPT for [3, 0] with one
        // 3-bin is 1.
        assert_eq!(optimal_bins_used(&[3.0, 0.0], &[3.0]), Some(1));
    }

    #[test]
    fn ffdlr_respects_bound_on_small_instances() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![5.0, 4.0, 3.0, 2.0], vec![7.0, 7.0, 7.0, 7.0]),
            (vec![9.0, 8.0, 2.0, 1.0], vec![10.0, 10.0, 10.0]),
            (vec![6.0, 6.0, 6.0], vec![6.0, 6.0, 6.0, 18.0]),
            (vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0], vec![3.0, 3.0, 2.0, 2.0]),
        ];
        for (items, bins) in cases {
            let opt = optimal_bins_used(&items, &bins);
            let packing = Ffdlr.pack(&items, &bins);
            if let Some(opt) = opt {
                assert!(packing.unplaced.is_empty(), "FFDLR failed a feasible case");
                let bound = (3 * opt).div_ceil(2) + 1;
                assert!(
                    packing.bins_used() <= bound,
                    "FFDLR used {} bins, bound {} (opt {})",
                    packing.bins_used(),
                    bound,
                    opt
                );
            }
        }
    }
}
