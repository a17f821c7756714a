//! Persistent worker pool and shard arithmetic for the parallel pipeline
//! stages.
//!
//! The control tick fires several short (tens of microseconds) parallel
//! regions per tick; spawning OS threads per region would cost more than
//! the regions themselves, so [`ShardPool`] keeps `threads − 1` workers
//! parked on a condvar for the life of the controller and the control
//! thread itself executes the last shard. Determinism is structural, not
//! synchronized: every parallel region writes only shard-disjoint indices
//! (see `RawSlice`) or per-shard scratch that the caller folds serially
//! in shard order afterwards, so results are bit-for-bit identical to the
//! serial path at any thread count.

// The one sanctioned unsafe island in this crate — see `lib.rs`.
#![allow(unsafe_code)]

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Resolve a configured thread count: `0` means auto-detect from available
/// parallelism, anything else is taken literally (minimum 1).
#[must_use]
pub fn resolve_threads(configured: usize) -> usize {
    match configured {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Half-open index range of shard `k` of `shards` over `len` items: an even
/// split with the first `len % shards` shards one item longer. Fixed purely
/// by `(len, shards)`, never by runtime timing, so shard boundaries are
/// reproducible.
#[must_use]
pub fn shard_range(len: usize, shards: usize, k: usize) -> std::ops::Range<usize> {
    debug_assert!(k < shards);
    let base = len / shards;
    let rem = len % shards;
    let start = k * base + k.min(rem);
    start..start + base + usize::from(k < rem)
}

/// Type-erased pointer to the job closure, with the borrow lifetime erased.
/// Sound because [`ShardPool::run`] blocks until every worker has finished
/// executing the closure, so the erased borrow strictly outlives all uses.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// The pointee is Sync (workers only get &dyn Fn) and the pointer itself is
// just an address; run()'s barrier keeps the borrow alive while shared.
unsafe impl Send for JobPtr {}

struct JobSlot {
    /// Bumped once per job; workers compare against their last-seen value
    /// to pick up new work exactly once.
    epoch: u64,
    job: Option<JobPtr>,
    /// Workers still executing the current job.
    remaining: usize,
    /// Set when any worker's shard panicked; the panic is re-raised on the
    /// control thread after the barrier completes.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    start: Condvar,
    done: Condvar,
}

/// A fixed-size pool executing one `Fn(shard_index)` job across all shards.
///
/// `threads == 1` degenerates to a plain call on the current thread (no
/// workers spawned, no synchronization), which is what keeps the serial
/// path allocation- and overhead-free.
pub struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ShardPool {
    /// Create a pool executing jobs across `threads` shards (the calling
    /// thread counts as one; `threads − 1` workers are spawned).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads.saturating_sub(1))
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("willow-shard-{shard}"))
                    .spawn(move || Self::worker(&shared, shard))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            shared,
            workers,
            threads,
        }
    }

    /// Number of shards every job is split into.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(shard)` once for every shard in `0..threads()`, returning
    /// after all shards completed. The calling thread runs the last shard;
    /// workers run the rest concurrently. A panic in any shard is re-raised
    /// here — but only after every shard finished, so the erased borrow in
    /// `JobPtr` is never outlived even on the unwind path.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 {
            f(0);
            return;
        }
        let ptr: *const (dyn Fn(usize) + Sync) = f;
        // Erase the borrow lifetime; the barrier below re-establishes it.
        #[allow(clippy::missing_transmute_annotations)]
        let job = JobPtr(unsafe { std::mem::transmute(ptr) });
        {
            let mut slot = self.shared.slot.lock().unwrap();
            debug_assert_eq!(slot.remaining, 0, "previous job fully drained");
            slot.job = Some(job);
            slot.remaining = self.threads - 1;
            slot.epoch = slot.epoch.wrapping_add(1);
            self.shared.start.notify_all();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(self.threads - 1);
        }));
        let worker_panicked = {
            let mut slot = self.shared.slot.lock().unwrap();
            while slot.remaining != 0 {
                slot = self.shared.done.wait(slot).unwrap();
            }
            slot.job = None;
            std::mem::take(&mut slot.panicked)
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "a shard worker panicked");
    }

    fn worker(shared: &Shared, shard: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut slot = shared.slot.lock().unwrap();
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if slot.epoch != seen {
                        seen = slot.epoch;
                        break slot.job.expect("epoch bump publishes a job");
                    }
                    slot = shared.start.wait(slot).unwrap();
                }
            };
            // SAFETY: run() keeps the closure borrow alive until
            // `remaining` hits zero, which only happens below. Panics are
            // caught so the barrier always completes (a missing decrement
            // would deadlock run()) and re-raised on the control thread.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*job.0)(shard);
            }));
            let mut slot = shared.slot.lock().unwrap();
            if outcome.is_err() {
                slot.panicked = true;
            }
            slot.remaining -= 1;
            if slot.remaining == 0 {
                shared.done.notify_one();
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Shared handle to a mutable slice that hands out disjoint sub-ranges to
/// concurrent shards.
///
/// # Safety contract
/// Callers must guarantee that concurrent [`RawSlice::range_mut`] calls use
/// pairwise-disjoint ranges (in this module: each shard touches only its
/// [`shard_range`], and ranges for distinct shards never overlap), and that
/// the backing slice outlives the parallel region (guaranteed because
/// [`ShardPool::run`] is a barrier).
pub(crate) struct RawSlice<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Sync for RawSlice<T> {}
unsafe impl<T: Send> Send for RawSlice<T> {}

impl<T> RawSlice<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        RawSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Mutable view of `start..end`.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every range any other
    /// thread obtains from this handle during the same parallel region.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }

    /// Mutable reference to element `i` — for scattered (non-range) writes
    /// such as arena-slot-indexed stores.
    ///
    /// # Safety
    /// `i` must be in bounds, and no other thread may touch index `i`
    /// during the same parallel region (in this module: writes to slot `i`
    /// are gated on an ownership predicate that holds for exactly one
    /// shard, e.g. `leaf_server[i] == si` with `si` shard-local).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shard_ranges_tile_the_input() {
        for len in [0usize, 1, 7, 8, 100, 104_976] {
            for shards in [1usize, 2, 3, 4, 8] {
                let mut covered = 0;
                let mut next = 0;
                for k in 0..shards {
                    let r = shard_range(len, shards, k);
                    assert_eq!(r.start, next, "shards are contiguous");
                    next = r.end;
                    covered += r.len();
                    // Even split: lengths differ by at most one.
                    assert!(r.len() >= len / shards);
                    assert!(r.len() <= len / shards + 1);
                }
                assert_eq!(covered, len);
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = ShardPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..50 {
                pool.run(&|k| {
                    hits[k].fetch_add(1, Ordering::Relaxed);
                });
            }
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 50);
            }
        }
    }

    #[test]
    fn pool_with_raw_slice_matches_serial() {
        let n = 10_001usize;
        let serial: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let pool = ShardPool::new(4);
        let mut out = vec![0u64; n];
        let raw = RawSlice::new(&mut out);
        pool.run(&|k| {
            let r = shard_range(n, 4, k);
            // SAFETY: shard ranges are pairwise disjoint.
            let chunk = unsafe { raw.range_mut(r.clone()) };
            for (i, slot) in r.zip(chunk.iter_mut()) {
                *slot = i as u64 * 3 + 1;
            }
        });
        assert_eq!(out, serial);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ShardPool::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|k| {
                assert!(k != 0, "injected shard panic");
            });
        }));
        assert!(err.is_err(), "worker panic reaches the caller");
        // The barrier completed despite the panic; the pool stays usable.
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|k| {
            hits[k].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
    }
}
