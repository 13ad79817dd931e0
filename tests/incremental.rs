//! Incremental-vs-rebuild equivalence: any sequence of
//! `NetState::add_fault` / `remove_fault` mutations must leave the
//! published snapshot **bit-identical** to a from-scratch
//! `Network::build` of the final fault set — MCC labels (raw predicate
//! masks), component extraction (ids, shapes and the per-row bit words
//! the planner's feasibility fill reads), all three information models (stats
//! *and* per-node knowledge bits), the forbidden regions, fault blocks, and the route results
//! of RB1/RB2/RB3 — regardless of whether each step took the
//! incremental path or the merge/split full-rebuild fallback.

use meshpath::fault::Labeling;
use meshpath::info::{BoundarySet, Region};
use meshpath::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full structural equality of a snapshot against a fresh build.
fn assert_equivalent(view: &NetView, faults: &FaultSet) {
    let full = NetView::build(faults.clone());
    let mesh = *view.mesh();
    assert_eq!(view.faults(), faults, "fault sets diverged");
    for o in Orientation::ALL {
        let (a, b) = (view.mccs(o), full.mccs(o));
        let (la, lb): (&Labeling, &Labeling) = (a.labeling(), b.labeling());
        assert_eq!(la.unsafe_count(), lb.unsafe_count(), "unsafe count, {o:?}");
        assert_eq!(la.faulty_count(), lb.faulty_count(), "faulty count, {o:?}");
        for oc in mesh.iter() {
            assert_eq!(la.masks()[oc], lb.masks()[oc], "label mask at {oc:?}, {o:?}");
            assert_eq!(a.mcc_at(oc), b.mcc_at(oc), "component id at {oc:?}, {o:?}");
        }
        // Row words: equal to the fresh build's, and exactly the union of
        // the components' cells.
        let words_per_row = (mesh.width() as usize).div_ceil(64);
        let mut from_cells = vec![0u64; words_per_row * mesh.height() as usize];
        for oc in a.iter().flat_map(|m| m.cells()) {
            from_cells[oc.y as usize * words_per_row + oc.x as usize / 64] |= 1 << (oc.x % 64);
        }
        for y in 0..mesh.height() as i32 {
            assert_eq!(a.row_words(y), b.row_words(y), "row words of row {y}, {o:?}");
            let start = y as usize * words_per_row;
            assert_eq!(
                a.row_words(y),
                &from_cells[start..start + words_per_row],
                "row words vs Mcc::cells() on row {y}, {o:?}"
            );
        }
        assert_eq!(a.len(), b.len(), "component count, {o:?}");
        for (ma, mb) in a.iter().zip(b.iter()) {
            assert_eq!(ma.id(), mb.id());
            assert_eq!(ma.cell_count(), mb.cell_count(), "cells of {:?}, {o:?}", ma.id());
            assert_eq!(ma.corner(), mb.corner(), "corner of {:?}, {o:?}", ma.id());
            assert_eq!(ma.opposite(), mb.opposite(), "opposite of {:?}, {o:?}", ma.id());
            assert_eq!(ma.cols(), mb.cols(), "spans of {:?}, {o:?}", ma.id());
        }
        for kind in ModelKind::ALL {
            let (ia, ib) = (view.model(o, kind), full.model(o, kind));
            assert_eq!(ia.stats(), ib.stats(), "{kind:?} stats, {o:?}");
            for oc in mesh.iter() {
                for id in 0..a.len() as u32 {
                    assert_eq!(
                        ia.knows(oc, MccId(id)),
                        ib.knows(oc, MccId(id)),
                        "{kind:?} knowledge of {id} at {oc:?}, {o:?}"
                    );
                }
            }
            for id in 0..a.len() as u32 {
                assert_eq!(ia.succ_y(MccId(id)), ib.succ_y(MccId(id)), "{kind:?} succ_y {id}");
                assert_eq!(ia.succ_x(MccId(id)), ib.succ_x(MccId(id)), "{kind:?} succ_x {id}");
            }
        }
        // The forbidden regions Algorithm 2 reads, one copy per orientation.
        for id in (0..a.len() as u32).map(MccId) {
            for axis in 0..2 {
                let region = |bounds: &BoundarySet| {
                    let Region { base, at, len } = bounds.get(id).regions()[axis];
                    (base, bounds.profiles()[axis][at as usize..(at + len) as usize].to_vec())
                };
                let (ra, rb) = (region(view.bounds(o)), region(full.bounds(o)));
                assert_eq!(ra, rb, "region {axis} of {id:?}, {o:?}");
            }
        }
    }
    assert_eq!(
        view.blocks().disabled_count(),
        full.blocks().disabled_count(),
        "fault-block extraction diverged"
    );

    // Route results: every router must walk the exact same path on the
    // incremental snapshot as on the fresh build.
    let n = mesh.width() as i32;
    let mut rng = StdRng::seed_from_u64(0x1234_5678 ^ faults.count() as u64);
    let mut compared = 0;
    let mut attempts = 0;
    while compared < 6 && attempts < 200 {
        attempts += 1;
        let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..mesh.height() as i32));
        let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..mesh.height() as i32));
        if s == d || !faults.is_healthy(s) || !faults.is_healthy(d) {
            continue;
        }
        compared += 1;
        for router in [&Rb1::default() as &dyn Router, &Rb2::default(), &Rb3::default()] {
            let inc = router.route(view, s, d);
            let fresh = router.route(&full, s, d);
            assert_eq!(inc, fresh, "{} diverged on {s:?}->{d:?}", router.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mutation_sequences_match_from_scratch_builds(
        draw in (
            (6u32..13, 0u64..0xffff),
            proptest::collection::hash_set((0i32..12, 0i32..12), 1..10),
            proptest::collection::hash_set((0i32..12, 0i32..12), 1..8),
        )
    ) {
        let ((side, seed), initial, ops) = draw;
        let mesh = Mesh::square(side);
        let clip = |&(x, y): &(i32, i32)| Coord::new(x % side as i32, y % side as i32);
        let initial: Vec<Coord> = initial.iter().map(clip).collect();
        let mut faults = FaultSet::from_coords(mesh, initial.clone());
        let mut state = NetState::new(faults.clone());
        let mut incremental_steps = 0u32;

        // Interleave adds and removes: each drawn coordinate toggles
        // (fault it if healthy, repair it if faulty), which exercises
        // both directions plus merge/split fallbacks as clusters grow
        // and shrink. A seeded shuffle decorrelates op order from the
        // set iteration order.
        let mut toggles: Vec<Coord> = ops.iter().map(clip).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..toggles.len()).rev() {
            toggles.swap(i, rng.gen_range(0..=i));
        }
        for c in toggles {
            let view = if faults.is_faulty(c) {
                faults.repair(c);
                state.remove_fault(c).expect("repairing a known fault")
            } else {
                faults.inject(c);
                state.add_fault(c).expect("failing a healthy node")
            };
            incremental_steps += u32::from(state.last_update_was_incremental());
            assert_equivalent(&view, &faults);
        }
        // Not an assertion (dense draws may always merge), but the
        // counter keeps the incremental path honest under inspection.
        let _ = incremental_steps;
    }
}

/// A deterministic long mixed sequence on a larger mesh, with the
/// incremental path verified to actually fire (the proptest above
/// cannot assert that per-case).
#[test]
fn long_mixed_sequence_stays_equivalent_and_incremental() {
    let mesh = Mesh::square(20);
    let mut faults = FaultSet::from_coords(mesh, [Coord::new(3, 3), Coord::new(16, 16)]);
    let mut state = NetState::new(faults.clone());
    let mut incremental = 0;
    let script = [
        (true, Coord::new(10, 4)),
        (true, Coord::new(10, 5)),  // grows a cluster (incremental)
        (true, Coord::new(9, 6)),   // staircase interaction
        (true, Coord::new(4, 3)),   // extends the (3,3) component
        (true, Coord::new(3, 4)),   // may fill the diagonal (merge path)
        (false, Coord::new(10, 4)), // repair inside a cluster
        (true, Coord::new(17, 15)), // near (16,16)
        (false, Coord::new(3, 3)),  // repair the original fault
        (false, Coord::new(9, 6)),
        (true, Coord::new(0, 0)), // border-pressed component
        (false, Coord::new(0, 0)),
    ];
    for (add, c) in script {
        let view = if add {
            faults.inject(c);
            state.add_fault(c).expect("valid add")
        } else {
            faults.repair(c);
            state.remove_fault(c).expect("valid remove")
        };
        incremental += u32::from(state.last_update_was_incremental());
        assert_equivalent(&view, &faults);
    }
    assert!(incremental >= 6, "most isolated updates must take the incremental path");
}
