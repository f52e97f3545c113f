//! The persistent worker pool must be invisible to callers: a pool
//! reused across many successive parallel calls produces byte-identical
//! results to a fresh pool and to the sequential path, and a panicking
//! worker closure propagates to the caller without deadlocking the
//! barrier or poisoning the pool for later calls.

use mosaic_metrics::parallel::{
    for_each_indexed_mut, ordered_map, thread_pool_reset, thread_pool_workers, Parallelism,
};
use proptest::prelude::*;

/// One mixed workload over both helpers: an `ordered_map` pass feeding a
/// `for_each_indexed_mut` pass whose per-item result depends on the
/// item's index, then an order-sensitive fold
/// (`total = total * 31 + term`), so any lane mix-up, dropped item or
/// misplaced slot in the pool changes the bytes.
fn workload(values: &[u64], parallelism: Parallelism) -> (Vec<u64>, u64) {
    let mut squares = ordered_map(values, parallelism, |&v| v.wrapping_mul(v));
    for_each_indexed_mut(&mut squares, parallelism, |i, sq| {
        *sq = (*sq % 97) ^ i as u64;
    });
    let total = squares.iter().fold(0u64, |total, &term| {
        total.wrapping_mul(31).wrapping_add(term)
    });
    (squares, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Many successive calls on one reused pool == fresh pool per call
    /// == sequential, for arbitrary inputs and worker counts.
    #[test]
    fn reused_pool_is_byte_identical(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        workers in 2usize..9,
        calls in 1usize..5,
    ) {
        let sequential = workload(&values, Parallelism::Sequential);

        // Fresh pool: reset, then run once.
        thread_pool_reset();
        let fresh = workload(&values, Parallelism::Threads(workers));
        prop_assert_eq!(&fresh, &sequential);

        // Reused pool: keep calling on the same (now warm) pool.
        for call in 0..calls {
            let reused = workload(&values, Parallelism::Threads(workers));
            prop_assert_eq!(&reused, &sequential, "call = {}", call);
        }
    }
}

/// A panicking item closure must propagate to the caller (no deadlocked
/// barrier) from either helper, and the pool must stay usable — later
/// calls on the same thread still match the sequential oracle.
#[test]
fn worker_panic_propagates_and_pool_survives() {
    thread_pool_reset();
    let values: Vec<u64> = (0..500).collect();
    let par = Parallelism::Threads(4);

    // Warm the pool and remember its size.
    let baseline = workload(&values, par);
    let spawned = thread_pool_workers();
    assert!(spawned > 0, "pool should be warm");

    for panicking_item in [0u64, 250, 499] {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ordered_map(&values, par, |&v| {
                assert!(v != panicking_item, "boom at {v}");
                v
            })
        }));
        assert!(caught.is_err(), "panic at {panicking_item} must propagate");

        let mut scratch = values.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_indexed_mut(&mut scratch, par, |i, _| {
                assert!(i as u64 != panicking_item, "boom at {i}");
            })
        }));
        assert!(caught.is_err(), "panic at {panicking_item} must propagate");
    }

    // Same pool, no respawn, still correct.
    assert_eq!(
        thread_pool_workers(),
        spawned,
        "panic must not kill workers"
    );
    let after = workload(&values, par);
    assert_eq!(after, baseline, "pool must stay correct after a panic");
    assert_eq!(after, workload(&values, Parallelism::Sequential));
}
