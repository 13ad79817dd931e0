//! Memory footprint of one network: the bytes a `NetView::build` keeps
//! live on the 64x64/204-fault net class of the `svc_cold` benchmark,
//! the share of them its four `BoundarySet`s hold, that RB2 routing adds
//! none (it reads only the B2 model the build made), and what the B1 and
//! B3 models add once something asks for them. A counting global
//! allocator tracks live heap bytes; the single test in this binary
//! reads it around each step, so no other test's allocations interleave.
//!
//! Run with `cargo test --test footprint -- --nocapture` to see the
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use meshpath::info::BoundarySet;
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// Budget for everything one `NetView::build` retains, before and after
/// RB2 routes on it.
const NET_BUDGET_MIB: f64 = 0.8;
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
    // The forbidden regions Algorithm 2 reads: two bytes a profile entry
    // (the first line included), four a list end per MCC and axis.
    let regions: usize = bounds
        .iter()
        .map(|b| b.profiles().iter().map(|p| 2 * p.len()).sum::<usize>() + 8 * b.iter().count())
        .sum();
    println!("of which the stored regions {:.3} MiB ({regions} B)", regions as f64 / MIB);
    assert!(net_mib <= NET_BUDGET_MIB, "NetView::build retains {net_mib:.3} MiB");
    assert!(bounds_mib <= BOUNDS_BUDGET_MIB, "four BoundarySets retain {bounds_mib:.3} MiB");

    let ((), routed_mib) = retained(|| {
        let (rb2, mut state) = (Rb2::default(), HopState::default());
        let mut rng = StdRng::seed_from_u64(30);
        let mut node = || loop {
            let c = Coord::new(rng.gen_range(0..64), rng.gen_range(0..64));
            if faults.is_healthy(c) {
                return c;
            }
        };
        for _ in 0..1000 {
            let (s, d) = (node(), node());
            rb2.route_with(&net, s, d, &mut state);
        }
    });
    println!("1000 RB2 routes leave {routed_mib:.3} MiB more behind");
    assert!(
        net_mib + routed_mib <= NET_BUDGET_MIB,
        "after 1000 RB2 routes the net retains {:.3} MiB",
        net_mib + routed_mib
    );

    for kind in [ModelKind::B1, ModelKind::B3] {
        let ((), mib) = retained(|| {
            for o in Orientation::ALL {
                net.model(o, kind);
            }
        });
        println!("the four {} models add {mib:.3} MiB on first use", kind.name());
    }
    drop((net, bounds));
}
