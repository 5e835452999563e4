//! Counted claim: resolving a graph partitioning to per-tuple partition
//! sets allocates per resolve, not per tuple.
//! `WorkloadGraph::tuple_partitions` builds one `PartitionSet` per group
//! and hands each tuple a copy, and `WorkloadGraph::placement` collects
//! those copies into two columns sized up front (the tuple list and one set
//! per tuple), so the count stays flat however many tuples the graph holds.
//!
//! The binary installs a counting global allocator. It counts per thread,
//! so the test harness's own threads cannot add to a measured count.

use schism_core::{build_graph, SchismConfig};
use schism_workload::ycsb::{self, YcsbConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn resolving_to_tuples_allocates_per_resolve_not_per_tuple() {
    // YCSB-E: scans coalesce tuples into groups, and the zipfian head gets
    // replica stars, so groups, replicas and tuples all differ in number.
    let w = ycsb::generate(&YcsbConfig {
        records: 40_000,
        num_txns: 8_000,
        ..YcsbConfig::workload_e()
    });
    let mut cfg = SchismConfig::new(4);
    cfg.threads = 1;
    let wg = build_graph(&w, &w.trace, &cfg);
    let n = wg.tuples().len();
    assert!(n >= 10_000, "graph holds only {n} tuples");
    assert!(wg.stats.groups < n, "sanity: some tuples coalesced");
    assert!(wg.stats.nodes > wg.stats.groups, "sanity: replica nodes");

    let assignment: Vec<u32> = (0..wg.num_nodes() as u32).map(|v| v % 4).collect();
    let (copies, allocations) = allocations_of(|| {
        wg.tuple_partitions(&assignment)
            .map(|(_, ps)| ps.len() as usize)
            .sum::<usize>()
    });
    println!(
        "tuple_partitions: {n} tuples, {} groups, {} nodes: {allocations} allocations",
        wg.stats.groups, wg.stats.nodes
    );
    assert!(copies > n, "sanity: some tuple resolved to replicas");
    assert!(
        allocations <= 2,
        "resolving {n} tuples allocated {allocations} times"
    );

    let (placement, allocations) = allocations_of(|| wg.placement(&assignment));
    println!("placement: {n} tuples: {allocations} allocations");
    assert_eq!(placement.len(), n);
    assert!(
        allocations <= 3,
        "collecting {n} tuples into the placement allocated {allocations} times"
    );
}
