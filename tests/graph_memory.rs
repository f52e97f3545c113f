//! Learning a training prefix costs memory in proportion to the graph it
//! builds: while a `GrowingGraph` absorbs a `pilot-epochs`-shaped prefix
//! (50 000 accounts, 2 100 blocks of 50 transactions, in τ = 50-block
//! chunks) and folds it into its CSR, the live heap it adds never
//! exceeds a fixed multiple of the final CSR's bytes. A counting global
//! allocator measures the peak, so this file is its own test binary
//! holding a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mosaic::txgraph::GrowingGraph;
use mosaic::workload::{EpochWindowStream, WorkloadConfig};

/// Forwards to the system allocator and keeps the live byte count and
/// its peak.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(by: isize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks per training chunk (the workload's τ).
const TAU: u64 = 50;

/// Peak live heap while learning, over the final CSR's bytes: 1.854 for
/// the growing graph that patched every edge into per-row overflow
/// blocks, 1.679 for the one that logs the prefix. A log that outgrew its
/// eighth of the CSR, or a fold that copied the CSR out of place, would
/// exceed it.
const MAX_PEAK_OVER_CSR: f64 = 1.855;

#[test]
fn learning_a_training_prefix_peaks_within_a_multiple_of_the_csr() {
    let config = WorkloadConfig {
        initial_accounts: 50_000,
        blocks: 2_100,
        txs_per_block: 50,
        activity_exponent: 0.8,
        communities: 256,
        intra_community_bias: 0.75,
        hub_fraction: 0.01,
        hub_traffic_share: 0.2,
        new_accounts_per_block: 0.5,
        drift_per_block: 0.05,
        seed: 44_224,
    };
    let mut stream = EpochWindowStream::generated(&config);
    let mut chunks = Vec::new();
    for end in (TAU..=config.blocks).step_by(TAU as usize) {
        let mut chunk = Vec::new();
        stream.read_to(end, &mut chunk).unwrap();
        chunks.push(chunk);
    }
    drop(stream);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut graph = GrowingGraph::new();
    for chunk in &chunks {
        graph.absorb(chunk);
    }
    let csr = graph.graph();
    let peak = (PEAK.load(Ordering::Relaxed) - base) as f64;
    let nodes = csr.node_count();
    let csr_bytes = 12 * csr.adjncy().len() + 8 * csr.xadj().len() + 16 * nodes;
    let ratio = peak / csr_bytes as f64;
    assert_eq!(
        csr.total_edge_weight(),
        105_000,
        "a pilot-epochs-sized prefix"
    );
    assert!(
        ratio <= MAX_PEAK_OVER_CSR,
        "peak live heap {peak} B is {ratio:.3}× the final CSR's {csr_bytes} B \
         ({nodes} nodes, {} entries)",
        csr.adjncy().len()
    );
}
