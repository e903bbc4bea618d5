//! Allocation ceiling for the partitioner: a counting global allocator
//! totals the heap allocations `partition_ddg` makes at MII for the 70
//! SPECfp95 loops on the 8 clustered Table 1 machines (560 calls).
//!
//! The count is deterministic — the same inputs take the same code path
//! and ask for the same buffers — so per-node or per-candidate
//! allocation creeping back into coarsening, matching or refinement
//! fails here even when wall-clock noise would hide it.
//!
//! Measured: 669,670 allocations (1,195 per call) when each coarsening
//! level kept one `Vec` per node, and each level built a fresh blossom
//! matcher and fresh refinement tables; 178,082 (318 per call) with flat
//! levels and one set of buffers reused across levels. The ceiling leaves
//! about 10% headroom over the latter. Putting back a single per-node
//! `Vec` in the per-level usage table gives about 252,000.
//!
//! The test is alone in its binary: the counter is process-wide, and a
//! second test running on another thread would add its allocations.

use gpsched_ddg::mii;
use gpsched_machine::table1_configs;
use gpsched_partition::{partition_ddg, PartitionOptions};
use gpsched_workloads::spec_suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation request (`alloc`, `alloc_zeroed`, `realloc`)
/// and forwards it to the system allocator.
struct Counting;

/// Allocation requests so far; a statistic that publishes no other data,
/// so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// About 10% above the measured 178,082.
const CEILING: u64 = 196_000;

#[test]
fn specfp95_partitioning_stays_under_the_allocation_ceiling() {
    let machines: Vec<_> = table1_configs()
        .into_iter()
        .map(|(_, m)| m)
        .filter(|m| !m.is_unified())
        .collect();
    assert_eq!(machines.len(), 8);
    let suite = spec_suite();
    let mut allocations = 0u64;
    let mut calls = 0u64;
    for program in &suite {
        for ddg in &program.loops {
            for machine in &machines {
                let ii = mii::mii(ddg, machine);
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let r = partition_ddg(ddg, machine, ii, &PartitionOptions::default());
                allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
                calls += 1;
                drop(r);
            }
        }
    }
    assert_eq!(calls, 70 * 8);
    println!(
        "partition_ddg: {allocations} allocations in {calls} calls ({} per call)",
        allocations / calls
    );
    assert!(
        allocations <= CEILING,
        "partition_ddg made {allocations} allocations, above the ceiling {CEILING}"
    );
}
