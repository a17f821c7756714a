//! Property-based tests for the bin-packing substrate.

use proptest::prelude::*;
use willow_binpack::{
    optimal_bins_used, BestFitDecreasing, Ffdlr, FirstFitDecreasing, NextFit, Packer, Packing,
};

fn packers() -> Vec<Box<dyn Packer>> {
    vec![
        Box::new(NextFit),
        Box::new(FirstFitDecreasing),
        Box::new(BestFitDecreasing),
        Box::new(Ffdlr),
    ]
}

prop_compose! {
    fn instance()(
        items in prop::collection::vec(0.0f64..100.0, 0..24),
        bins in prop::collection::vec(0.0f64..150.0, 0..12),
    ) -> (Vec<f64>, Vec<f64>) {
        (items, bins)
    }
}

proptest! {
    /// Every packer produces a capacity-feasible assignment.
    #[test]
    fn all_packers_feasible((items, bins) in instance()) {
        for p in packers() {
            let out = p.pack(&items, &bins);
            prop_assert!(out.is_valid(&items, &bins), "{} produced invalid packing", p.name());
        }
    }

    /// Feasibility must also hold at magnitudes where one ULP exceeds the
    /// absolute fit tolerance (ulp(1e8) ≈ 1.5e-8 > FIT_EPSILON) — the regime
    /// where FFDLR's phase-2 re-summation can disagree with phase 1 by more
    /// than the tolerance and the old repack fallback double-booked bins.
    #[test]
    fn all_packers_feasible_at_float_edge_magnitudes(
        items in prop::collection::vec(1.0e6f64..5.0e8, 0..24),
        bins in prop::collection::vec(1.0e6f64..8.0e8, 0..12),
    ) {
        for p in packers() {
            let out = p.pack(&items, &bins);
            prop_assert!(out.is_valid(&items, &bins), "{} produced invalid packing", p.name());
        }
    }

    /// Conservation: every item is either placed exactly once or listed as
    /// unplaced, and sizes add up.
    #[test]
    fn conservation((items, bins) in instance()) {
        for p in packers() {
            let out = p.pack(&items, &bins);
            prop_assert_eq!(out.assignment.len(), items.len());
            let total: f64 = items.iter().sum();
            let accounted = out.placed_size(&items) + out.unplaced_size(&items);
            prop_assert!((total - accounted).abs() < 1e-6);
        }
    }

    /// An item strictly larger than every bin is never placed; an item that
    /// fits in some bin alone is always placed by the decreasing packers
    /// when it is the only item.
    #[test]
    fn single_item_placement(size in 0.0f64..100.0, bins in prop::collection::vec(0.0f64..150.0, 1..8)) {
        let max_bin = bins.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in packers() {
            let out = p.pack(&[size], &bins);
            if size <= max_bin {
                prop_assert!(out.unplaced.is_empty(), "{} failed trivially feasible", p.name());
            } else {
                prop_assert_eq!(&out.unplaced, &vec![0usize], "{} placed impossible item", p.name());
            }
        }
    }

    /// FFDLR never leaves an item unplaced that FFD places — phase 1 *is*
    /// FFD, repacking never drops items.
    #[test]
    fn ffdlr_places_at_least_ffd((items, bins) in instance()) {
        let ffd = FirstFitDecreasing.pack(&items, &bins);
        let ffdlr = Ffdlr.pack(&items, &bins);
        prop_assert!(ffdlr.unplaced.len() <= ffd.unplaced.len());
    }

    /// FFDLR's repacking step never uses more bins than FFD's phase-1
    /// packing (it only merges groups downward into smaller bins).
    #[test]
    fn ffdlr_bins_at_most_ffd((items, bins) in instance()) {
        let ffd = FirstFitDecreasing.pack(&items, &bins);
        let ffdlr = Ffdlr.pack(&items, &bins);
        if ffdlr.unplaced.len() == ffd.unplaced.len() {
            prop_assert!(ffdlr.bins_used() <= ffd.bins_used());
        }
    }

    /// The Friesen–Langston guarantee on feasible instances small enough to
    /// solve exactly: FFDLR uses at most ⌈(3/2)·OPT⌉ + 1 bins.
    #[test]
    fn ffdlr_approximation_bound(
        items in prop::collection::vec(1.0f64..50.0, 1..7),
        bins in prop::collection::vec(1.0f64..100.0, 1..7),
    ) {
        if let Some(opt) = optimal_bins_used(&items, &bins) {
            let packing = Ffdlr.pack(&items, &bins);
            // The instance is fully packable, so FFD (phase 1) may still
            // fail — the classical guarantee assumes enough bin supply; only
            // check the bound when FFDLR placed everything.
            if packing.unplaced.is_empty() {
                let bound = (3 * opt).div_ceil(2) + 1;
                prop_assert!(
                    packing.bins_used() <= bound,
                    "used {} > bound {} (opt {})",
                    packing.bins_used(), bound, opt
                );
            }
        }
    }

    /// Determinism: same instance, same result.
    #[test]
    fn determinism((items, bins) in instance()) {
        for p in packers() {
            prop_assert_eq!(p.pack(&items, &bins), p.pack(&items, &bins));
        }
    }

    /// Why the order of the bins handed to FFDLR, FFD and BFD only matters
    /// in ties: each chooses bins by capacity (FFD and FFDLR's first pass
    /// by initial capacity, BFD by remaining capacity, FFDLR's repack by
    /// smallest fit) and uses the bin index only to break exact ties. With
    /// pairwise-distinct capacities (and, at random reals, no tied
    /// remainders or group totals), permuting the bins leaves every item in
    /// a bin of the same capacity.
    #[test]
    fn sorting_packers_ignore_bin_order(
        (items, bins) in instance(),
        keys in prop::collection::vec(0u64..u64::MAX, 12),
    ) {
        let mut caps = bins.clone();
        caps.sort_by(f64::total_cmp);
        prop_assume!(caps.windows(2).all(|w| w[0] != w[1]));
        let mut perm: Vec<usize> = (0..bins.len()).collect();
        perm.sort_by_key(|&b| keys[b]);
        let permuted: Vec<f64> = perm.iter().map(|&b| bins[b]).collect();
        let sorting: [Box<dyn Packer>; 3] =
            [Box::new(Ffdlr), Box::new(FirstFitDecreasing), Box::new(BestFitDecreasing)];
        for p in sorting {
            let capacity_of = |packing: Packing, bins: &[f64]| -> Vec<Option<u64>> {
                packing.assignment.iter().map(|a| a.map(|b| bins[b].to_bits())).collect()
            };
            prop_assert_eq!(
                capacity_of(p.pack(&items, &bins), &bins),
                capacity_of(p.pack(&items, &permuted), &permuted),
                "{} depends on bin order", p.name()
            );
        }
    }

    /// Packing round-trip sanity for `Packing::from_assignment`.
    #[test]
    fn packing_unplaced_matches_assignment(assignment in prop::collection::vec(prop::option::of(0usize..5), 0..20)) {
        let p = Packing::from_assignment(assignment.clone());
        for (i, a) in assignment.iter().enumerate() {
            prop_assert_eq!(p.unplaced.contains(&i), a.is_none());
        }
    }
}
