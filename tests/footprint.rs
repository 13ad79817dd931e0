//! Memory footprint of one network: the bytes a `NetView::build` keeps
//! live on the 64x64/204-fault net class of the `svc_cold` benchmark,
//! and the share of them its four `BoundarySet`s hold. A counting global
//! allocator tracks live heap bytes; the single test in this binary
//! reads it around each build, so no other test's allocations interleave.
//!
//! Run with `cargo test --test footprint -- --nocapture` to see the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use meshpath::info::BoundarySet;
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Live heap bytes (requested sizes, not the allocator's rounding).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;
/// Budget for everything one `NetView::build` retains.
const NET_BUDGET_MIB: f64 = 2.0;
/// Budget for the four orientations' `BoundarySet`s.
const BOUNDS_BUDGET_MIB: f64 = 0.4;

/// Heap bytes `f`'s result keeps live once `f` has returned.
fn retained<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    let after = LIVE.load(Ordering::Relaxed);
    (out, after.saturating_sub(before) as f64 / MIB)
}

#[test]
fn a_cold_net_and_its_boundaries_fit_their_budgets() {
    // The micro bench's `*_64x64_204f` fixture: 5 % uniform faults.
    let mesh = Mesh::square(64);
    let mut rng = StdRng::seed_from_u64(0xc01d);
    let faults = FaultSet::random(mesh, mesh.len() / 20, FaultInjection::Uniform, &mut rng);
    let sets: Vec<MccSet> =
        Orientation::ALL.iter().map(|&o| MccSet::build(&faults, o, BorderPolicy::Open)).collect();

    let input = faults.clone();
    let (net, net_mib) = retained(|| NetView::build(input));
    let (bounds, bounds_mib) = retained(|| sets.iter().map(BoundarySet::build).collect::<Vec<_>>());
    println!(
        "NetView::build retains {net_mib:.3} MiB; its four BoundarySets {bounds_mib:.3} MiB \
         ({:.0} %)",
        100.0 * bounds_mib / net_mib
    );
    assert!(net_mib <= NET_BUDGET_MIB, "NetView::build retains {net_mib:.3} MiB");
    assert!(bounds_mib <= BOUNDS_BUDGET_MIB, "four BoundarySets retain {bounds_mib:.3} MiB");
    drop((net, bounds));
}
