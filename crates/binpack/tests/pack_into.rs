//! The packing entry point, [`Packer::pack_into`], over two seeded
//! corpora, a general one and a controller-shaped one (a few items into
//! thousands of mostly zero or tied bins): every packer's answers through
//! one warm scratch are pinned by a digest per corpus,
//! equal a fresh [`Packer::pack`], place nothing when even the smallest
//! item fits no bin, and cost no heap allocation once the scratch is warm.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use willow_binpack::{
    BestFitDecreasing, Ffdlr, FirstFitDecreasing, NextFit, PackScratch, Packer, FIT_EPSILON,
};

/// Forwards to the system allocator while counting allocation calls per
/// thread, so tests running in parallel do not leak counts into each
/// other's measured windows.
struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread may still allocate while its thread-locals are
    // being torn down; such allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const PACKERS: [&dyn Packer; 4] = [&Ffdlr, &FirstFitDecreasing, &BestFitDecreasing, &NextFit];

/// SplitMix64: a fixed stream, independent of any library's generator.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn sizes(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform(lo, hi)).collect()
    }

    fn pick(&mut self, n: usize, from: &[f64]) -> Vec<f64> {
        (0..n).map(|_| from[self.below(from.len())]).collect()
    }
}

/// Instance `k` of the corpus: its shape cycles through random, hopeless,
/// empty, zero-capacity, tied-capacity, many-item, fit-boundary and
/// large-magnitude instances.
fn instance(stream: &mut Stream, k: usize) -> (Vec<f64>, Vec<f64>) {
    match k % 8 {
        // Random: the general case.
        0 => {
            let (n, m) = (stream.below(24), stream.below(12));
            (stream.sizes(n, 0.0, 100.0), stream.sizes(m, 0.0, 150.0))
        }
        // Hopeless: every item exceeds every bin.
        1 => {
            let (n, m) = (1 + stream.below(24), 1 + stream.below(12));
            (stream.sizes(n, 50.0, 100.0), stream.sizes(m, 0.0, 50.0))
        }
        // Empty: no items, no bins, or neither.
        2 => {
            let n = stream.below(6);
            let m = stream.below(6);
            match stream.below(3) {
                0 => (Vec::new(), stream.sizes(m, 0.0, 50.0)),
                1 => (stream.sizes(n, 0.0, 50.0), Vec::new()),
                _ => (Vec::new(), Vec::new()),
            }
        }
        // Zero-capacity bins; zero-size items still fit them.
        3 => {
            let (n, m) = (1 + stream.below(12), 1 + stream.below(6));
            (stream.pick(n, &[0.0, 0.0, 1.0, 4.5]), vec![0.0; m])
        }
        // Tied capacities and sizes: only the index tie-breaks decide.
        4 => {
            let (n, m) = (1 + stream.below(24), 1 + stream.below(12));
            (
                stream.pick(n, &[5.0, 10.0, 15.0]),
                stream.pick(m, &[10.0, 20.0, 30.0]),
            )
        }
        // Many items into many bins.
        5 => (stream.sizes(200, 0.0, 10.0), stream.sizes(40, 0.0, 60.0)),
        // The fit boundary: the smallest item within or just beyond
        // FIT_EPSILON of the largest bin.
        6 => {
            let m = 1 + stream.below(6);
            let bins = stream.sizes(m, 1.0, 50.0);
            let largest = bins.iter().copied().fold(0.0, f64::max);
            let over = [0.5, 2.0][stream.below(2)] * FIT_EPSILON;
            let n = stream.below(6);
            let mut items = stream.sizes(n, largest + 1.0, largest + 9.0);
            items.push(largest + over);
            (items, bins)
        }
        // Magnitudes where one ULP exceeds FIT_EPSILON.
        _ => {
            let (n, m) = (stream.below(24), stream.below(12));
            (stream.sizes(n, 1.0e6, 5.0e8), stream.sizes(m, 1.0e6, 8.0e8))
        }
    }
}

fn corpus() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut stream = Stream(0x005e_ed0f_b1a5);
    (0..512).map(|k| instance(&mut stream, k)).collect()
}

/// Controller-shaped instance: one to three deficits offered to every
/// eligible leaf under a PMU, so 100 to 7,000 bins. Most surpluses are
/// zero (busy or capped servers) or repeat a few values (identically
/// loaded servers), so only the index tie-breaks order them; some items
/// sit within or just beyond [`FIT_EPSILON`] of a bin, and some are zero.
fn controller_instance(stream: &mut Stream) -> (Vec<f64>, Vec<f64>) {
    const TIED: [f64; 4] = [12.5, 40.0, 85.0, 85.0];
    let m = 100 + stream.below(6_901);
    let bins: Vec<f64> = (0..m)
        .map(|_| match stream.below(8) {
            0..=3 => 0.0,
            4 | 5 => TIED[stream.below(TIED.len())],
            _ => stream.uniform(0.0, 120.0),
        })
        .collect();
    let n = 1 + stream.below(3);
    let items = (0..n)
        .map(|_| match stream.below(4) {
            0 => stream.uniform(0.0, 150.0),
            1 => 0.0,
            _ => {
                let edge = [-0.5, 0.5, 1.0, 2.0][stream.below(4)] * FIT_EPSILON;
                (bins[stream.below(m)] + edge).max(0.0)
            }
        })
        .collect();
    (items, bins)
}

fn controller_corpus() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut stream = Stream(0x000c_017a_b1e5);
    (0..96).map(|_| controller_instance(&mut stream)).collect()
}

/// True when even the smallest item exceeds the largest bin by more than
/// [`FIT_EPSILON`] (and there is an item and a bin).
fn hopeless(items: &[f64], bins: &[f64]) -> bool {
    let smallest = items.iter().copied().fold(f64::INFINITY, f64::min);
    let largest = bins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    !items.is_empty() && !bins.is_empty() && smallest > largest + FIT_EPSILON
}

/// FNV-1a over one packer's assignment (`u64::MAX` for an unplaced item),
/// continued from `hash`.
fn fold_assignment(mut hash: u64, assignment: &[Option<usize>]) -> u64 {
    for word in std::iter::once(assignment.len() as u64)
        .chain(assignment.iter().map(|a| a.map_or(u64::MAX, |b| b as u64)))
    {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every packer over `corpus` through one scratch and one assignment
/// buffer, warm from the first instance on. Each answer must equal a
/// fresh `pack`; returns the digest of all of them, so a packer whose
/// answers move on any instance changes it.
fn answers_digest(corpus: &[(Vec<f64>, Vec<f64>)]) -> u64 {
    let mut scratch = PackScratch::default();
    let mut assignment = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for packer in PACKERS {
        for (items, bins) in corpus {
            packer.pack_into(items, bins, &mut scratch, &mut assignment);
            assert_eq!(
                assignment,
                packer.pack(items, bins).assignment,
                "{} through a warm scratch differs from a fresh pack",
                packer.name()
            );
            digest = fold_assignment(digest, &assignment);
        }
    }
    digest
}

#[test]
fn corpus_answers_are_pinned() {
    assert_eq!(
        answers_digest(&corpus()),
        0xa203_7d9f_a95e_da8f,
        "the corpus answers moved"
    );
}

/// A few items into thousands of mostly zero or tied bins, the shape of
/// the controller's instances.
#[test]
fn controller_shaped_answers_are_pinned() {
    assert_eq!(
        answers_digest(&controller_corpus()),
        0x67ac_70bb_9225_41f1,
        "the controller-shaped answers moved"
    );
}

/// Instances whose smallest item exceeds the largest bin by more than
/// FIT_EPSILON place nothing, under every packer; the boundary shape puts
/// instances on both sides of that line.
#[test]
fn hopeless_corpus_instances_place_nothing() {
    let corpus = corpus();
    let mut scratch = PackScratch::default();
    let mut assignment = vec![Some(7); 3];
    let hopeless_count = corpus.iter().filter(|(i, b)| hopeless(i, b)).count();
    assert!(
        hopeless_count >= 64,
        "only {hopeless_count} hopeless instances"
    );
    for packer in PACKERS {
        for (items, bins) in corpus.iter().filter(|(i, b)| hopeless(i, b)) {
            packer.pack_into(items, bins, &mut scratch, &mut assignment);
            assert_eq!(assignment.len(), items.len());
            assert!(
                assignment.iter().all(Option::is_none),
                "{} placed an item of a hopeless instance",
                packer.name()
            );
        }
    }
}

/// Once the scratch and the assignment buffer have seen the largest
/// instance, packing both corpora again makes no heap allocation.
#[test]
fn warm_pack_into_allocates_nothing() {
    let mut corpus = corpus();
    corpus.extend(controller_corpus());
    let mut scratch = PackScratch::default();
    let mut assignment = Vec::new();
    for packer in PACKERS {
        for (items, bins) in &corpus {
            packer.pack_into(items, bins, &mut scratch, &mut assignment);
        }
    }
    let before = allocations();
    for packer in PACKERS {
        for (items, bins) in &corpus {
            packer.pack_into(items, bins, &mut scratch, &mut assignment);
        }
    }
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "a warm pack_into allocated {allocs} times");
}

proptest! {
    /// Random instances that straddle the fit line: a warm scratch gives
    /// the same answer as a fresh `pack`, and an instance whose smallest
    /// item fits no bin places nothing.
    #[test]
    fn warm_scratch_matches_fresh_and_hopeless_places_nothing(
        items in prop::collection::vec(0.0f64..100.0, 0..24),
        bins in prop::collection::vec(0.0f64..100.0, 0..12),
        shift in 0.0f64..60.0,
        warm in prop::collection::vec(0.0f64..100.0, 0..24),
    ) {
        let items: Vec<f64> = items.iter().map(|s| s + shift).collect();
        let mut scratch = PackScratch::default();
        let mut assignment = Vec::new();
        for packer in PACKERS {
            // Dirty the scratch with another instance first.
            packer.pack_into(&warm, &bins, &mut scratch, &mut assignment);
            packer.pack_into(&items, &bins, &mut scratch, &mut assignment);
            prop_assert_eq!(&assignment, &packer.pack(&items, &bins).assignment);
            if hopeless(&items, &bins) {
                prop_assert!(assignment.iter().all(Option::is_none), "{}", packer.name());
            }
        }
    }
}
