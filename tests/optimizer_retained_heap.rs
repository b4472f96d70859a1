//! Retained-heap regression test for fresh optimizer searches on one
//! long-lived [`AnalysisSession`] — the `repro serve` shape, where every search
//! leaves its scratch groups in the session cache.
//!
//! A counting global allocator tracks live heap bytes. This file holds exactly
//! one test so that no concurrently running test shares the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use prob_consensus::optimize::{
    optimize, DeploymentSpace, FailureDomains, NodeType, OptimizerConfig, Placement, TargetSpec,
};
use prob_consensus::query::AnalysisSession;

/// Live heap bytes: allocations minus deallocations, reallocations by their delta.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Searches measured after the warm-up.
const SEARCHES: usize = 50;

/// Bound on live heap bytes one fresh search may leave behind in the session.
const MAX_RETAINED_BYTES_PER_SEARCH: isize = 6_000;

/// The `repro serve` optimize-request shape: 100 spot nodes over 10 shocked
/// racks, same-rack vs cross-rack placement of a 10-node persistence quorum,
/// 8 nines. Only the spot fault probability varies between searches, so every
/// search misses the cache.
fn search(session: &AnalysisSession, spot_fault_probability: f64) {
    let space = DeploymentSpace {
        instances: vec![NodeType::new("spot", spot_fault_probability, 0.1)],
        nodes: vec![100],
        domains: Some(FailureDomains {
            racks: 10,
            shock_probability: 0.01,
        }),
        placements: vec![Placement::SameRack, Placement::CrossRack],
        target: TargetSpec::PersistenceQuorum { quorum_size: 10 },
    };
    let config = OptimizerConfig::new(8.0)
        .with_screen_samples(20_000)
        .with_refine_samples(80_000)
        .with_seed(2026);
    let report = optimize(session, &space, &config).expect("well-formed space");
    assert_eq!(report.evaluated.len(), 2);
}

#[test]
fn fresh_searches_retain_a_bounded_heap_in_the_session() {
    let session = AnalysisSession::new();
    // Warm-up: the thread pool, its thread-locals and the session's lazily
    // sized structures, at a fault probability the measured searches never use.
    search(&session, 0.2);
    search(&session, 0.21);
    let misses_before = session.cache_stats().misses;
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    for i in 0..SEARCHES {
        search(&session, 0.05 + 0.002 * i as f64);
    }
    let retained = LIVE_BYTES.load(Ordering::SeqCst) - before;
    // Two fresh candidates per search, each a cache miss in both tiers' plans.
    assert!(session.cache_stats().misses >= misses_before + 2 * SEARCHES as u64);
    let per_search = retained / SEARCHES as isize;
    assert!(
        per_search <= MAX_RETAINED_BYTES_PER_SEARCH,
        "each fresh search retained {per_search} B (bound {MAX_RETAINED_BYTES_PER_SEARCH} B)"
    );
}
