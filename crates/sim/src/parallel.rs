//! Parallel parameter sweeps over independent simulation runs.
//!
//! Each simulation is deterministic and single-threaded; a sweep (9
//! utilizations × several seeds) is embarrassingly parallel. This module
//! fans contiguous input stripes out across `std::thread::scope` threads —
//! each worker exclusively owns its input and output stripe (via
//! `chunks_mut`), so no locks or atomics are needed — preserving input
//! order in the output.

/// Map `f` over `inputs` in parallel, preserving order.
///
/// Spawns up to `min(inputs.len(), available_parallelism)` worker threads,
/// each owning one contiguous stripe of the input and output; falls back
/// to sequential execution for empty or single-element inputs.
///
/// # Panics
/// Propagates panics from `f` (the scope join panics).
pub fn parallel_map<T, U, F>(inputs: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = inputs.len();
    if n <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    // Inputs move into `Option` slots so each worker can take ownership
    // out of its own stripe; the disjoint `chunks_mut` borrows make the
    // stripes race-free by construction.
    let mut work: Vec<Option<T>> = inputs.into_iter().map(Some).collect();
    let mut results: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    let stripe = n.div_ceil(workers);
    let f = &f;

    std::thread::scope(|scope| {
        for (ins, outs) in work.chunks_mut(stripe).zip(results.chunks_mut(stripe)) {
            scope.spawn(move || {
                for (slot, out) in ins.iter_mut().zip(outs.iter_mut()) {
                    let input = slot.take().expect("stripe visited once");
                    *out = Some(f(input));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|o| o.expect("all work completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let seen = StdMutex::new(HashSet::new());
        let _ = parallel_map((0..64).collect(), |x: i32| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // A little work so threads overlap.
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        let threads = seen.lock().unwrap().len();
        if std::thread::available_parallelism()
            .map(|p| p.get() > 1)
            .unwrap_or(false)
        {
            assert!(
                threads > 1,
                "expected multiple worker threads, saw {threads}"
            );
        }
    }

    #[test]
    fn works_with_heavy_outputs() {
        let out = parallel_map((0..16).collect(), |x: usize| vec![x; 1000]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), 1000);
            assert!(v.iter().all(|&e| e == i));
        }
    }
}
