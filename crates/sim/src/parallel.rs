//! Order-stable parallel map over grid cells.
//!
//! Cells of an experiment grid are independent (same trace, different
//! strategy × parameter pair) and each runs for seconds, so
//! [`crate::Simulation::run_with_factory`] and the derived studies of
//! [`crate::experiments`] (Table V's β sweep, the ablations) map them
//! over scoped threads spawned per call, as many as the scenario's
//! `grid_parallelism` allows. Results come back in input order whichever lane
//! finishes first, so a parallel grid is byte-identical to a sequential
//! one. Nothing inside a cell runs here: the allocators, transaction
//! classification and the per-shard commits are one sequential pass each,
//! and Pilot's scoring pass sizes its own lanes
//! (`mosaic_core::MosaicFramework::propose`).

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many lanes run the cells of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One item at a time, on the calling thread.
    Sequential,
    /// One lane per available CPU (capped at the number of items).
    #[default]
    Auto,
    /// An explicit lane count (clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete lane count for `items` work items.
    pub fn workers(&self, items: usize) -> usize {
        let limit = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => (*n).max(1),
        };
        limit.min(items).max(1)
    }
}

/// Applies `f` to every item and returns the results **in input order**.
///
/// Each lane is a scoped thread that claims items through an atomic
/// cursor, so a long item does not stall the others.
///
/// # Panics
///
/// Every lane is joined first; then the first panicking lane's payload
/// is re-raised unchanged.
pub(crate) fn ordered_map<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let lanes = parallelism.workers(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes).map(|_| scope.spawn(lane)).collect();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed by one lane"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = ordered_map(&items, Parallelism::Threads(8), |&x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let work = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let seq = ordered_map(&items, Parallelism::Sequential, work);
        let par = ordered_map(&items, Parallelism::Auto, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(ordered_map(&empty, Parallelism::Auto, |&x| x).is_empty());
        assert_eq!(ordered_map(&[7u8], Parallelism::Auto, |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_are_bounded_by_items() {
        assert_eq!(Parallelism::Auto.workers(1), 1);
        assert_eq!(Parallelism::Threads(16).workers(4), 4);
        assert_eq!(Parallelism::Threads(0).workers(9), 1);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
    }

    /// Each item waits until all three have started, so this deadlocks
    /// unless three lanes really run at the same time.
    #[test]
    fn lanes_run_at_the_same_time() {
        let barrier = Barrier::new(3);
        let out = ordered_map(&[10, 20, 30], Parallelism::Threads(3), |&x| {
            barrier.wait();
            x + 1
        });
        assert_eq!(out, [11, 21, 31]);
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_payload() {
        let values: Vec<u64> = (0..500).collect();
        for bad in [0u64, 250, 499] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                ordered_map(&values, Parallelism::Threads(4), |&v| {
                    assert!(v != bad, "boom at {v}");
                    v
                })
            }))
            .expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a String payload");
            assert!(message.contains(&format!("boom at {bad}")), "{message}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any input, any lane count: the parallel map equals the
        /// sequential one, element for element.
        #[test]
        fn parallel_output_equals_sequential(
            values in proptest::collection::vec(any::<u64>(), 0..200),
            workers in 2usize..9,
        ) {
            let work = |&v: &u64| v.wrapping_mul(v) % 97;
            prop_assert_eq!(
                ordered_map(&values, Parallelism::Threads(workers), work),
                ordered_map(&values, Parallelism::Sequential, work)
            );
        }
    }
}
