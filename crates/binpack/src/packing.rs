//! The packing result type and the [`Packer`] trait all algorithms share.

use std::cmp::Ordering;
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

/// Reusable working memory for [`Packer::pack_into`]: the item order,
/// first fit's bin heap and the bins it opened, BFD's free capacities and
/// FFDLR's repack claims. Every buffer is cleared (capacity retained) and
/// refilled per instance, so once a scratch has seen instances as large as
/// the current one, packing allocates nothing. A fresh scratch and a warm
/// one give the same result: nothing is carried between instances.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Item indices in visiting order (descending size for the decreasing
    /// packers).
    pub(crate) item_order: Vec<usize>,
    /// First fit: the bins not opened yet that can hold the smallest
    /// item, as a binary heap whose root comes first in descending
    /// capacity order.
    pub(crate) heap: Vec<usize>,
    /// First fit: the bins opened so far, in descending capacity order
    /// (FFDLR's repack reorders them into its group order).
    pub(crate) open: Vec<OpenBin>,
    /// BFD: remaining capacity per bin; starts at the bin's capacity and
    /// only goes down.
    pub(crate) free: Vec<f64>,
    /// FFDLR: per bin, whether a repacked group already claimed it.
    pub(crate) used: Vec<bool>,
}

/// A bin first fit opened, and what it holds. Only bins an item went into
/// are opened, so each is also one of FFDLR's phase-1 groups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenBin {
    /// The bin's index.
    pub(crate) bin: usize,
    /// The bin's capacity less every size placed in it, subtracted in
    /// placement order.
    pub(crate) free: f64,
    /// The sizes placed in it, summed in placement order (the order a
    /// fresh left-to-right sum over the group would take; float sums
    /// depend on order): FFDLR's group total.
    pub(crate) load: f64,
    /// FFDLR: the bin the group repacks into (`None`: the group is shed).
    pub(crate) target: Option<usize>,
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

/// The descending order of `sizes`: larger first, ties broken by lower
/// index, so the order is total.
fn desc_cmp(sizes: &[f64], a: usize, b: usize) -> Ordering {
    sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b))
}

/// Fill `order` with the indices of `sizes` sorted by [`desc_cmp`] (a
/// total order, so the unstable sort is deterministic and
/// allocation-free).
pub(crate) fn desc_order_into(sizes: &[f64], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..sizes.len());
    order.sort_unstable_by(|&a, &b| desc_cmp(sizes, a, b));
}

/// First-fit decreasing: each item, largest first, goes into the first bin
/// in descending capacity order (ties to the lower index) that holds it.
/// FFD is this alone; FFDLR's phase 1 is this.
///
/// No bin order is sorted. The bins that can hold the smallest item go
/// into a binary heap in O(m) (free capacity only goes down, so no other
/// bin ever holds an item), and a bin is opened (popped, in descending
/// order) only when no bin opened before it holds the current item. An
/// unopened bin is empty, so its free capacity is its capacity, and none
/// is larger than the heap's root: when the root does not hold the item,
/// no unopened bin does. Each item therefore lands exactly where a scan
/// of the fully sorted bins would put it, at O(opened) per item plus
/// O(log m) per opening.
pub(crate) fn first_fit_decreasing(
    items: &[f64],
    bins: &[f64],
    s: &mut PackScratch,
    assignment: &mut [Option<usize>],
) {
    desc_order_into(items, &mut s.item_order);
    let smallest = s.item_order.last().map_or(0.0, |&i| items[i]);
    s.heap.clear();
    // The filter hides the length, so reserve it: a scratch then grows
    // once per larger instance, not by doubling.
    s.heap.reserve(bins.len());
    s.heap
        .extend((0..bins.len()).filter(|&b| smallest <= bins[b] + FIT_EPSILON));
    for at in (0..s.heap.len() / 2).rev() {
        sift_down(&mut s.heap, at, bins);
    }
    s.open.clear();
    for &i in &s.item_order {
        let size = items[i];
        if let Some(open) = s.open.iter_mut().find(|o| size <= o.free + FIT_EPSILON) {
            open.free -= size;
            open.load += size;
            assignment[i] = Some(open.bin);
        } else if let Some(&bin) = s.heap.first().filter(|&&b| size <= bins[b] + FIT_EPSILON) {
            s.heap.swap_remove(0);
            sift_down(&mut s.heap, 0, bins);
            s.open.push(OpenBin {
                bin,
                free: bins[bin] - size,
                load: size,
                target: None,
            });
            assignment[i] = Some(bin);
        }
    }
}

/// Restore the heap property below `at` in a heap of bin indices whose
/// root comes first in [`desc_cmp`] order.
fn sift_down(heap: &mut [usize], mut at: usize, bins: &[f64]) {
    loop {
        let left = 2 * at + 1;
        let Some(&l) = heap.get(left) else { return };
        let child = match heap.get(left + 1) {
            Some(&r) if desc_cmp(bins, r, l).is_lt() => left + 1,
            _ => left,
        };
        if desc_cmp(bins, heap[child], heap[at]).is_gt() {
            return;
        }
        heap.swap(at, child);
        at = child;
    }
}

/// The first bin in ascending capacity order (ties to the lower index)
/// that satisfies `pred`: a selection over all bins, the answer a scan of
/// the ascending sort would give.
pub(crate) fn smallest_bin(bins: &[f64], pred: impl Fn(usize) -> bool) -> Option<usize> {
    (0..bins.len())
        .filter(|&b| pred(b))
        .min_by(|&a, &b| bins[a].total_cmp(&bins[b]).then(a.cmp(&b)))
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
    fn first_fit_opens_only_the_bins_it_fills() {
        // Capacity ties go to the lower index; bin 3 (0.5) cannot hold the
        // smallest item, so it never enters the heap.
        let bins = [3.0, 5.0, 5.0, 0.5, 4.0];
        let mut s = PackScratch::default();
        let mut assignment = vec![None; 3];
        first_fit_decreasing(&[2.0, 4.5, 2.5], &bins, &mut s, &mut assignment);
        assert_eq!(assignment, vec![Some(2), Some(1), Some(2)]);
        let opened: Vec<(usize, f64, f64)> =
            s.open.iter().map(|o| (o.bin, o.free, o.load)).collect();
        assert_eq!(opened, vec![(1, 0.5, 4.5), (2, 0.5, 4.5)]);
        let mut unopened = s.heap.clone();
        unopened.sort_unstable();
        assert_eq!(unopened, vec![0, 4]);
    }

    #[test]
    fn smallest_bin_breaks_ties_by_index() {
        let bins = [4.0, 2.0, 9.0, 2.0];
        assert_eq!(smallest_bin(&bins, |_| true), Some(1));
        assert_eq!(smallest_bin(&bins, |b| b != 1), Some(3));
        assert_eq!(smallest_bin(&bins, |b| bins[b] > 5.0), Some(2));
        assert_eq!(smallest_bin(&bins, |_| false), None);
    }

    #[test]
    fn display_summarizes() {
        let p = Packing::from_assignment(vec![Some(0), None]);
        assert_eq!(p.to_string(), "packing: 1 placed, 1 unplaced, 1 bins used");
    }
}
