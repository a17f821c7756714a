//! The packing result type and the [`Packer`] trait all algorithms share.

use std::fmt;

/// The single absolute fit tolerance shared by every packer and by
/// [`Packing::is_valid`].
///
/// Sizes are physical watt quantities produced by subtraction chains in the
/// controller, so exact-fill instances routinely sit one rounding error away
/// from their bin capacity. Every fit test in this crate is therefore
/// `size <= capacity + FIT_EPSILON`. Using one shared constant matters for
/// FFDLR in particular: its phase 2 re-sums each phase-1 group from scratch,
/// and if phase 2 tested with a *tighter* tolerance than phase 1 (or the
/// validator), a group that legitimately fit during construction could
/// spuriously fail its own re-fit test. Historically phase 1 used `1e-12`
/// and phase 2 used `1e-9`; they are now unified here.
pub const FIT_EPSILON: f64 = 1e-9;

/// Result of packing `items` into `bins` (both referenced by index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    /// `assignment[i] = Some(b)` places item `i` into bin `b`; `None` means
    /// the item could not be placed anywhere (Willow passes such demands up
    /// the hierarchy, or ultimately sheds them).
    pub assignment: Vec<Option<usize>>,
    /// Indices of unplaced items, in input order (redundant with
    /// `assignment` but convenient).
    pub unplaced: Vec<usize>,
}

impl Packing {
    /// Construct from an assignment vector.
    #[must_use]
    pub fn from_assignment(assignment: Vec<Option<usize>>) -> Self {
        let unplaced = assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_none().then_some(i))
            .collect();
        Packing {
            assignment,
            unplaced,
        }
    }

    /// Number of distinct bins that received at least one item.
    #[must_use]
    pub fn bins_used(&self) -> usize {
        let mut bins: Vec<usize> = self.assignment.iter().copied().flatten().collect();
        bins.sort_unstable();
        bins.dedup();
        bins.len()
    }

    /// Load placed into each of `n_bins` bins.
    #[must_use]
    pub fn bin_loads(&self, items: &[f64], n_bins: usize) -> Vec<f64> {
        let mut loads = vec![0.0; n_bins];
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some(b) = a {
                loads[*b] += items[i];
            }
        }
        loads
    }

    /// Validate capacity feasibility of this packing against the instance:
    /// every bin's load must not exceed its capacity (within
    /// [`FIT_EPSILON`]) and every assignment index must be in range.
    #[must_use]
    pub fn is_valid(&self, items: &[f64], bins: &[f64]) -> bool {
        if self.assignment.len() != items.len() {
            return false;
        }
        if self.assignment.iter().flatten().any(|&b| b >= bins.len()) {
            return false;
        }
        self.bin_loads(items, bins.len())
            .iter()
            .zip(bins)
            .all(|(load, cap)| *load <= cap + FIT_EPSILON)
    }

    /// Total size successfully placed.
    #[must_use]
    pub fn placed_size(&self, items: &[f64]) -> f64 {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| items[i])
            .sum()
    }

    /// Total size left unplaced.
    #[must_use]
    pub fn unplaced_size(&self, items: &[f64]) -> f64 {
        self.unplaced.iter().map(|&i| items[i]).sum()
    }
}

impl fmt::Display for Packing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packing: {} placed, {} unplaced, {} bins used",
            self.assignment.len() - self.unplaced.len(),
            self.unplaced.len(),
            self.bins_used()
        )
    }
}

/// Reusable working memory for [`Packer::pack_into`]: the item and bin
/// orders, each bin's free capacity, and FFDLR's phase-1 groups kept as
/// flat per-bin columns. Every buffer is cleared (capacity retained) and
/// refilled per instance, so once a scratch has seen instances as large as
/// the current one, packing allocates nothing. A fresh scratch and a warm
/// one give the same result: nothing is carried between instances.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Item indices in visiting order (descending size for the decreasing
    /// packers).
    pub(crate) item_order: Vec<usize>,
    /// Bin indices in visiting order (descending capacity for FFD and
    /// FFDLR's phase 1, ascending for FFDLR's repack).
    pub(crate) bin_order: Vec<usize>,
    /// Remaining capacity per bin; starts at the bin's capacity and only
    /// goes down.
    pub(crate) free: Vec<f64>,
    /// FFDLR: per bin, the total of its phase-1 group summed in placement
    /// order (`None`: the bin received nothing).
    pub(crate) group_total: Vec<Option<f64>>,
    /// FFDLR: the non-empty groups as `(phase-1 bin, total)`, in repack
    /// order.
    pub(crate) groups: Vec<(usize, f64)>,
    /// FFDLR: per bin, whether a repacked group already claimed it.
    pub(crate) used: Vec<bool>,
    /// FFDLR: per phase-1 bin, the bin its group repacks into (`None`: the
    /// group is shed).
    pub(crate) target: Vec<Option<usize>>,
}

/// The heuristic bodies behind [`Packer::pack_into`], in a module no other
/// crate can name: only this crate's packers implement [`Packer`], and no
/// caller can run a body without the entry point's validation.
pub(crate) mod sealed {
    use super::PackScratch;

    /// One packing heuristic's body.
    pub trait Heuristic {
        /// Place `items` into `bins`, writing `assignment` (all-`None` on
        /// entry, one entry per item). Called only on a validated instance
        /// with at least one item, one bin, and an item that fits the
        /// largest bin, so the body always places something.
        fn place(
            &self,
            items: &[f64],
            bins: &[f64],
            scratch: &mut PackScratch,
            assignment: &mut [Option<usize>],
        );
    }
}

/// A bin-packing algorithm over variable-sized bins.
///
/// Implementations must be deterministic and must uphold:
/// * every placed item fits (bin loads never exceed capacities),
/// * items and bins are addressed by their input indices,
/// * zero-size items are always placeable (into any bin, if one exists).
///
/// Every packer runs through the one entry point, [`Packer::pack_into`].
/// The trait is sealed: the four packers of this crate are its only
/// implementations.
///
/// # Panics
/// Packing panics on negative or non-finite sizes/capacities — demands and
/// surpluses are physical watt quantities and the caller must have clamped
/// them already.
pub trait Packer: sealed::Heuristic {
    /// Name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Pack `items` (sizes) into `bins` (capacities), writing one entry per
    /// item into `assignment` (`Some(b)`: item placed in bin `b`) and
    /// using `scratch` as working memory. In three steps:
    ///
    /// 1. reset `assignment` to all-`None`;
    /// 2. validate the instance (every instance, hopeless ones included);
    /// 3. return straight away when no item can be placed: no items, no
    ///    bins, or the smallest item larger than the largest bin by more
    ///    than [`FIT_EPSILON`]. Otherwise run the heuristic.
    ///
    /// Step 3 is exact for every packer: a bin's free capacity starts at
    /// its capacity and only goes down, so an item that fits no bin at the
    /// start fits none later. When even the smallest item fits nowhere,
    /// nothing is ever placed (and FFDLR forms no group to repack), which
    /// is the all-`None` answer step 1 already wrote.
    fn pack_into(
        &self,
        items: &[f64],
        bins: &[f64],
        scratch: &mut PackScratch,
        assignment: &mut Vec<Option<usize>>,
    ) {
        assignment.clear();
        assignment.resize(items.len(), None);
        validate_instance(items, bins);
        let smallest = items.iter().copied().fold(f64::INFINITY, f64::min);
        let largest = bins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // No items leave `smallest` at +inf and no bins leave `largest` at
        // -inf, so both empty cases return here too.
        if smallest > largest + FIT_EPSILON {
            return;
        }
        self.place(items, bins, scratch, assignment);
    }

    /// Pack into a fresh [`Packing`]: [`Packer::pack_into`] with its own
    /// scratch, for callers off the hot path.
    fn pack(&self, items: &[f64], bins: &[f64]) -> Packing {
        let mut assignment = Vec::new();
        self.pack_into(items, bins, &mut PackScratch::default(), &mut assignment);
        Packing::from_assignment(assignment)
    }
}

/// Shared input validation for all packers.
pub(crate) fn validate_instance(items: &[f64], bins: &[f64]) {
    assert!(
        items.iter().all(|s| s.is_finite() && *s >= 0.0),
        "item sizes must be finite and non-negative"
    );
    assert!(
        bins.iter().all(|c| c.is_finite() && *c >= 0.0),
        "bin capacities must be finite and non-negative"
    );
}

/// Fill `order` with the indices of `sizes` sorted by size descending
/// (ties broken by index, so the order is total and the unstable sort is
/// deterministic and allocation-free).
pub(crate) fn desc_order_into(sizes: &[f64], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..sizes.len());
    order.sort_unstable_by(|&a, &b| sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_extracts_unplaced() {
        let p = Packing::from_assignment(vec![Some(0), None, Some(1), None]);
        assert_eq!(p.unplaced, vec![1, 3]);
        assert_eq!(p.bins_used(), 2);
    }

    #[test]
    fn loads_and_sizes() {
        let items = [5.0, 3.0, 2.0];
        let p = Packing::from_assignment(vec![Some(0), Some(0), None]);
        assert_eq!(p.bin_loads(&items, 2), vec![8.0, 0.0]);
        assert_eq!(p.placed_size(&items), 8.0);
        assert_eq!(p.unplaced_size(&items), 2.0);
    }

    #[test]
    fn validity_checks_capacities_and_ranges() {
        let items = [5.0, 3.0];
        assert!(Packing::from_assignment(vec![Some(0), Some(1)]).is_valid(&items, &[5.0, 3.0]));
        // Overfull bin.
        assert!(!Packing::from_assignment(vec![Some(0), Some(0)]).is_valid(&items, &[7.0, 3.0]));
        // Out-of-range bin index.
        assert!(!Packing::from_assignment(vec![Some(2), None]).is_valid(&items, &[7.0, 3.0]));
        // Wrong assignment length.
        assert!(!Packing::from_assignment(vec![Some(0)]).is_valid(&items, &[7.0]));
    }

    #[test]
    fn desc_order_is_stable_on_ties() {
        let mut order = vec![7; 9];
        desc_order_into(&[1.0, 3.0, 3.0, 2.0], &mut order);
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn display_summarizes() {
        let p = Packing::from_assignment(vec![Some(0), None]);
        assert_eq!(p.to_string(), "packing: 1 placed, 1 unplaced, 1 bins used");
    }
}
