//! FFDLR — First-Fit Decreasing using Largest bins, then Repack
//! (Friesen & Langston, *Variable sized bin packing*, SIAM J. Comput. 1986;
//! paper §IV-F).
//!
//! The scheme as the paper describes it:
//!
//! 1. normalize bin and demand sizes so the largest bin has size 1;
//! 2. pack the demands (first-fit decreasing) into largest-size bins;
//! 3. repeat until all demands are matched with a surplus;
//! 4. at the end, repack the contents of all bins into the smallest possible
//!    bins.
//!
//! Step 4 matters to Willow beyond the approximation bound: repacking groups
//! into the *smallest* feasible surplus runs every receiving server as close
//! to full utilization as possible, so the emptied large surpluses (idle
//! servers) can be deactivated during consolidation. The solution is within
//! `(3/2)·OPT + 1` bins of optimal.
//!
//! No bin order is sorted. For `n` items, `m` bins and `r ≤ min(n, m)`
//! bins opened by phase 1 (one group each), phase 1 costs
//! `O(n log n + m + n·r + r log m)` (sort the items, heapify the bins,
//! open them lazily; each item scans at most the `r` opened bins) and the
//! repack `O(r log r + r·m + n·r)` (one selection pass over the bins per
//! group, then each item finds its group). A controller instance offers
//! a few deficits to thousands of surpluses, so `r` is small and the cost
//! is a few linear passes over the bins instead of two `O(m log m)`
//! sorts.

use crate::packing::{
    first_fit_decreasing, sealed::Heuristic, smallest_bin, PackScratch, Packer, FIT_EPSILON,
};

/// The FFDLR packer. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ffdlr;

impl Packer for Ffdlr {
    fn name(&self) -> &'static str {
        "ffdlr"
    }
}

impl Heuristic for Ffdlr {
    fn place(
        &self,
        items: &[f64],
        bins: &[f64],
        s: &mut PackScratch,
        assignment: &mut [Option<usize>],
    ) {
        // Phase 1: first-fit decreasing over bins in decreasing capacity
        // order ("pack into the first bin of size 1", i.e. largest first).
        // Normalization by the largest bin is implicit: only relative order
        // and fit tests matter and both are scale-invariant. Each item's
        // phase-1 bin goes into `assignment`, and each opened bin is one
        // group, with its total summed in placement order.
        first_fit_decreasing(items, bins, s, assignment);

        // Phase 2: repack each group into the smallest bin that holds its
        // total. Processing groups in decreasing total and always taking
        // the smallest feasible unused bin is always feasible: the phase-1
        // assignment itself is a witness matching, and exchanging any two
        // bins that serve smaller-total groups preserves fit. `pack_into`
        // runs this body only when some item fits, so phase 1 formed at
        // least one group.
        s.open
            .sort_unstable_by(|a, b| b.load.total_cmp(&a.load).then(a.bin.cmp(&b.bin)));
        s.used.clear();
        s.used.resize(bins.len(), false);
        for group in &mut s.open {
            let (orig_bin, total) = (group.bin, group.load);
            // The exchange argument above makes the smallest-feasible lookup
            // succeed for *exact* arithmetic, but `total` is a fresh
            // left-to-right sum while phase 1 subtracted sizes sequentially:
            // at large magnitudes the two can differ by several ULPs, enough
            // to exceed FIT_EPSILON and fail every fit test. The fallbacks
            // must never hand a group to a bin another group already claimed
            // (double-booking overfills the bin by a whole group, not an
            // ULP), so each step checks `used` and the last resort sheds the
            // group instead. Each lookup selects the smallest qualifying
            // bin (ties to the lower index) in one pass over the bins.
            let used = &s.used;
            let target = smallest_bin(bins, |b| !used[b] && total <= bins[b] + FIT_EPSILON)
                // Phase 1 is a physical witness that the group fits its
                // original bin, whatever the re-summed total claims.
                .or_else(|| (!used[orig_bin]).then_some(orig_bin))
                // Any unused bin at least as large as the witness bin also
                // holds the group.
                .or_else(|| smallest_bin(bins, |b| !used[b] && bins[b] >= bins[orig_bin]));
            // When every bin that could hold the group is taken, `target` is
            // `None`: shed the group (leave its items unplaced) rather than
            // overbook.
            if let Some(target) = target {
                s.used[target] = true;
            }
            group.target = target;
        }
        // Move every item from its phase-1 bin to its group's target.
        for a in assignment.iter_mut() {
            *a = a.and_then(|b| s.open.iter().find(|g| g.bin == b)?.target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cases() {
        assert!(Ffdlr.pack(&[], &[]).assignment.is_empty());
        assert_eq!(Ffdlr.pack(&[2.0], &[]).unplaced, vec![0]);
        assert!(Ffdlr.pack(&[], &[2.0]).assignment.is_empty());
    }

    #[test]
    fn results_are_feasible() {
        let items = [9.0, 7.0, 5.0, 4.0, 4.0, 3.0, 2.0, 1.0, 1.0];
        let bins = [12.0, 10.0, 8.0, 6.0, 4.0];
        let out = Ffdlr.pack(&items, &bins);
        assert!(out.is_valid(&items, &bins));
    }

    #[test]
    fn repack_moves_group_to_smallest_feasible_bin() {
        // One 5.0 item; bins 20 and 6. Phase 1 puts it in the 20-bin,
        // repack must move it to the 6-bin, freeing the large server.
        let out = Ffdlr.pack(&[5.0], &[20.0, 6.0]);
        assert_eq!(out.assignment, vec![Some(1)]);
    }

    #[test]
    fn repack_preserves_feasibility_with_multiple_groups() {
        // Two groups after phase 1; ensure both land in distinct bins that
        // fit them.
        let items = [8.0, 7.0, 2.0];
        let bins = [10.0, 10.0, 9.0];
        let out = Ffdlr.pack(&items, &bins);
        assert!(out.is_valid(&items, &bins));
        assert!(out.unplaced.is_empty());
        // The two groups (8+2=10 and 7) must use bins (10) and (9 or 10).
        assert_eq!(out.bins_used(), 2);
    }

    #[test]
    fn unplaceable_demand_is_dropped_not_split() {
        // 11 fits nowhere; Willow never splits a demand (§IV-E).
        let items = [11.0, 3.0];
        let bins = [10.0, 4.0];
        let out = Ffdlr.pack(&items, &bins);
        assert_eq!(out.unplaced, vec![0]);
        assert!(out.assignment[1].is_some());
    }

    #[test]
    fn prefers_fewer_bins_than_next_fit() {
        use crate::baselines::NextFit;
        let items = [6.0, 4.0, 6.0, 4.0];
        let bins = [10.0, 10.0, 10.0, 10.0];
        let ffdlr = Ffdlr.pack(&items, &bins);
        let nf = NextFit.pack(&items, &bins);
        assert!(ffdlr.bins_used() <= nf.bins_used());
        assert_eq!(ffdlr.bins_used(), 2);
    }

    #[test]
    fn deterministic() {
        let items = [5.0, 5.0, 3.0, 2.0];
        let bins = [7.0, 7.0, 7.0];
        assert_eq!(Ffdlr.pack(&items, &bins), Ffdlr.pack(&items, &bins));
    }

    /// Regression: the phase-2 fallback must never assign a group to a bin
    /// another group already claimed.
    ///
    /// This instance (found by randomized search at magnitudes where
    /// `ulp > FIT_EPSILON`) is built so that bin 1's group passes phase 1 by
    /// exact sequential subtraction, but its fresh phase-2 sum lands 2 ULPs
    /// above bin 1's capacity — beyond `FIT_EPSILON` — so the group migrates
    /// into bin 0, and bin 0's own (smaller-total) group then finds every
    /// bin either infeasible or taken. The old fallback
    /// (`unwrap_or(orig_bin)`) double-booked bin 0 with both groups,
    /// overfilling it by a whole group (~363 MW on this instance) and
    /// failing `is_valid`; the fix sheds the unplaceable group instead.
    #[test]
    fn fallback_never_double_books() {
        // Exact bit patterns matter: the instance lives on a float edge.
        let c1 = f64::from_bits(0x41b5_a872_0557_81a9); // ≈ 3.6336e8
        let c0 = f64::from_bits(c1.to_bits() + 4); // c1 + 4 ULP
        let items = [
            f64::from_bits(c1.to_bits() + 1), // c1 + 1 ULP: only fits bin 0
            f64::from_bits(0x41aa_0ce7_d527_8231),
            f64::from_bits(0x4191_f9a4_4ca8_e76d),
            f64::from_bits(0x4183_7077_e06f_901d),
            f64::from_bits(0x416f_1f2b_dd31_5156),
            f64::from_bits(0x4157_fa9c_ddad_ec98),
            f64::from_bits(0x4149_adbb_8ee9_f76e),
            f64::from_bits(0x4139_6f0d_eba5_169e),
            f64::from_bits(0x4123_09c8_5a72_09b7),
            f64::from_bits(0x4109_df23_0334_b40d),
            f64::from_bits(0x4108_b75c_a1ce_9dc7),
        ];
        let bins = [c0, c1];
        // items[1..] partition c1 exactly under sequential subtraction, but
        // their fresh left-to-right sum rounds 2 ULPs high.
        assert!(items[1..].iter().sum::<f64>() > c1 + FIT_EPSILON);

        let out = Ffdlr.pack(&items, &bins);
        assert!(
            out.is_valid(&items, &bins),
            "fallback produced an overfull packing: loads {:?} vs caps {:?}",
            out.bin_loads(&items, bins.len()),
            bins
        );
        // The safe outcome: the phase-1 group of bin 1 occupies bin 0, and
        // the item that only fits bin 0 is shed rather than double-booked.
        assert_eq!(out.unplaced, vec![0]);
        assert!(out.assignment[1..].iter().all(|a| a.is_some()));
    }

    #[test]
    fn exact_fill_runs_servers_full() {
        // Groups can exactly fill the small bins, leaving big ones empty.
        let items = [3.0, 3.0, 4.0];
        let bins = [50.0, 10.0, 7.0, 4.0];
        let out = Ffdlr.pack(&items, &bins);
        assert!(out.is_valid(&items, &bins));
        // The 50-bin must stay empty after repacking.
        assert!(out.assignment.iter().all(|a| *a != Some(0)));
    }
}
