//! The ledger's memory is O(accounts + pending pool): over a fixed account
//! set, live heap bytes stop growing once every account has been touched,
//! however many epochs run. A counting global allocator measures them, so
//! this file is its own test binary holding a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mosaic::prelude::*;

/// Forwards to the system allocator and keeps the live byte count.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SHARDS: u16 = 4;
const ACCOUNTS: u64 = 256;
const EPOCHS: u64 = 10_000;
const WARM_UP: u64 = 1_000;
const MIGRATIONS_PER_EPOCH: u64 = 3;
/// Room for allocations outside the ledger (the test harness's own);
/// a ledger that keeps even one byte per epoch outgrows it within the run.
const SLACK_BYTES: isize = 4096;

#[test]
fn ledger_live_heap_does_not_grow_with_epochs() {
    let params = SystemParams::builder()
        .shards(SHARDS)
        .tau(10)
        .build()
        .unwrap();
    let mut phi = AccountShardMap::new(SHARDS);
    phi.extend_assignments((0..ACCOUNTS).map(|a| {
        (
            AccountId::new(a),
            ShardId::new((a % u64::from(SHARDS)) as u16),
        )
    }))
    .unwrap();
    let mut ledger = Ledger::new(params, phi).unwrap();

    let mut window = Vec::new();
    let mut committed = 0;
    let mut baseline = None;
    for epoch in 0..EPOCHS {
        for m in 0..MIGRATIONS_PER_EPOCH {
            let account = AccountId::new((epoch * 7 + m * 31) % ACCOUNTS);
            let from = ledger.phi().shard_of(account);
            let to = ShardId::new((from.as_u16() + 1) % SHARDS);
            let at = ledger.current_epoch();
            ledger.submit_migration(MigrationRequest::new(account, from, to, at, 1.0).unwrap());
        }
        window.clear();
        window.extend((0..64).map(|i| {
            let from = (epoch + i * 13) % ACCOUNTS;
            let to = (epoch * 5 + i * 29 + 1) % ACCOUNTS;
            Transaction::new(
                TxId::new(epoch * 64 + i),
                AccountId::new(from),
                AccountId::new(to),
                BlockHeight::new(epoch * 10 + i % 10),
            )
        }));
        committed += ledger.process_epoch(&window).committed.len();

        let done = epoch + 1;
        if done == WARM_UP {
            baseline = Some(LIVE.load(Ordering::Relaxed));
        } else if let Some(base) = baseline.filter(|_| done % WARM_UP == 0) {
            let live = LIVE.load(Ordering::Relaxed);
            assert!(
                live - base <= SLACK_BYTES,
                "live heap grew by {} B from epoch {WARM_UP} to {done}",
                live - base
            );
        }
    }
    assert_eq!(committed as u64, EPOCHS * MIGRATIONS_PER_EPOCH);
    assert_eq!(ledger.beacon().committed_len(), committed);
    ledger.check_invariants().unwrap();
}
