//! Property-based tests (proptest) for the core invariants:
//!
//! * the labeling fixpoint is stable and orientation-consistent;
//! * every MCC is a rising staircase with usable column geometry;
//! * MCC minimality: monotone feasibility over *safe* nodes equals
//!   monotone feasibility over *healthy* nodes for safe endpoints
//!   (Wang's theorem, the foundation of the paper's shortest-path claim);
//! * boundary walks (main and split) and contours stay on safe nodes;
//! * region predicates partition correctly.

use meshpath::fault::{BorderPolicy, Labeling, MccSet};
use meshpath::info::{BoundarySet, InfoModel, ModelKind};
use meshpath::prelude::*;
use meshpath::route::monotone::monotone_feasible;
use proptest::prelude::*;

/// Strategy: a mesh side plus a set of distinct fault coordinates.
fn mesh_and_faults() -> impl Strategy<Value = (u32, Vec<(i32, i32)>)> {
    (6u32..20).prop_flat_map(|side| {
        let coords = proptest::collection::hash_set(
            (0..side as i32, 0..side as i32).prop_map(|(x, y)| (x, y)),
            0..((side * side / 5) as usize).max(1),
        );
        (Just(side), coords.prop_map(|s| s.into_iter().collect()))
    })
}

fn build(side: u32, coords: &[(i32, i32)], o: Orientation) -> MccSet {
    let mesh = Mesh::square(side);
    let faults = FaultSet::from_coords(mesh, coords.iter().map(|&(x, y)| Coord::new(x, y)));
    MccSet::build(&faults, o, BorderPolicy::Open)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labeling_fixpoint_is_stable((side, coords) in mesh_and_faults()) {
        let mesh = Mesh::square(side);
        let faults = FaultSet::from_coords(mesh, coords.iter().map(|&(x, y)| Coord::new(x, y)));
        let lab = Labeling::compute(&faults, Orientation::IDENTITY, BorderPolicy::Open);
        // Re-applying either rule at the fixpoint changes nothing, and
        // unsafe counts tally.
        let mut unsafe_count = 0usize;
        for oc in mesh.iter() {
            let st = lab.status(oc);
            if st.is_unsafe() {
                unsafe_count += 1;
            }
            if st == NodeStatus::Safe {
                let pb = |c: Coord| mesh.contains(c)
                    && (lab.status(c) == NodeStatus::Faulty || lab.is_useless(c));
                let mb = |c: Coord| mesh.contains(c)
                    && (lab.status(c) == NodeStatus::Faulty || lab.is_cant_reach(c));
                prop_assert!(!(pb(oc.step(Dir::PlusX)) && pb(oc.step(Dir::PlusY))));
                prop_assert!(!(mb(oc.step(Dir::MinusX)) && mb(oc.step(Dir::MinusY))));
            }
        }
        prop_assert_eq!(unsafe_count, lab.unsafe_count());
    }

    #[test]
    fn mccs_are_rising_staircases((side, coords) in mesh_and_faults()) {
        for o in Orientation::ALL {
            let set = build(side, &coords, o);
            let mut cells_total = 0usize;
            for m in set.iter() {
                prop_assert!(m.is_staircase(), "non-staircase MCC under {o:?}");
                cells_total += m.cell_count();
                // Column invariants.
                let cols = m.cols();
                for w in cols.windows(2) {
                    prop_assert!(w[0].lo <= w[1].lo);
                    prop_assert!(w[0].hi <= w[1].hi);
                    prop_assert!(w[1].lo <= w[0].hi + 1);
                }
                // The corners sit diagonally outside the component.
                prop_assert!(!m.contains(m.corner()));
                prop_assert!(!m.contains(m.opposite()));
            }
            prop_assert_eq!(cells_total, set.labeling().unsafe_count());
        }
    }

    #[test]
    fn mcc_minimality_for_safe_endpoints((side, coords) in mesh_and_faults()) {
        // For safe endpoints, a Manhattan path through healthy nodes
        // exists iff one through safe nodes does: the MCC model removes
        // only nodes that cannot lie on any monotone path.
        let mesh = Mesh::square(side);
        let faults = FaultSet::from_coords(mesh, coords.iter().map(|&(x, y)| Coord::new(x, y)));
        let set = MccSet::build(&faults, Orientation::IDENTITY, BorderPolicy::Open);
        let lab = set.labeling();
        let n = side as i32;
        // Sample the diagonal corners plus a few fixed pairs to keep the
        // case count bounded.
        let candidates = [
            (Coord::new(0, 0), Coord::new(n - 1, n - 1)),
            (Coord::new(0, 0), Coord::new(n - 1, 0)),
            (Coord::new(0, 0), Coord::new(0, n - 1)),
            (Coord::new(1, 2), Coord::new(n - 2, n - 2)),
            (Coord::new(2, 0), Coord::new(n - 2, n - 3)),
        ];
        for (s, d) in candidates {
            if !mesh.contains(s) || !mesh.contains(d) || d.x < s.x || d.y < s.y {
                continue;
            }
            if lab.status(s).is_unsafe() || lab.status(d).is_unsafe() {
                continue;
            }
            let healthy = monotone_feasible(s, d, |c| faults.is_faulty(c));
            let safe = monotone_feasible(s, d, |c| lab.status(c).is_unsafe());
            prop_assert_eq!(healthy, safe, "minimality broken for {:?}->{:?}", s, d);
        }
    }

    #[test]
    fn boundary_walks_stay_on_safe_nodes((side, coords) in mesh_and_faults()) {
        let set = build(side, &coords, Orientation::IDENTITY);
        let bounds = BoundarySet::build(&set);
        for b in bounds.iter() {
            let main = [b.west_y(), b.east_y(), b.south_x(), b.north_x()];
            prop_assert_eq!(b.splits_y().count(), b.west_y().hits().len());
            prop_assert_eq!(b.splits_x().count(), b.south_x().hits().len());
            for w in main.into_iter().chain(b.splits_y()).chain(b.splits_x()) {
                let nodes: Vec<Coord> = w.nodes().collect();
                prop_assert_eq!(nodes.len(), w.len());
                prop_assert_eq!(nodes.first().copied(), w.start(), "a walk decodes from its start");
                for &c in &nodes {
                    prop_assert!(set.labeling().is_safe_node(c), "walk entered unsafe {c:?}");
                }
                // Consecutive nodes are mesh neighbors.
                for pair in nodes.windows(2) {
                    prop_assert!(pair[0].is_neighbor(pair[1]));
                }
            }
            // The contour: distinct safe nodes, each next to a cell of the MCC.
            let mcc = set.get(b.id());
            for pair in b.edge_nodes().windows(2) {
                prop_assert!(pair[0] < pair[1], "contour sorted and distinct");
            }
            for &c in b.edge_nodes() {
                prop_assert!(set.labeling().is_safe_node(c), "contour node {c:?} unsafe");
                prop_assert!(c.neighbors().into_iter().any(|n| mcc.contains(n)), "{c:?} off the MCC");
            }
        }
    }

    #[test]
    fn shadow_and_critical_are_disjoint_from_cells((side, coords) in mesh_and_faults()) {
        let set = build(side, &coords, Orientation::IDENTITY);
        let mesh = Mesh::square(side);
        for m in set.iter() {
            for c in mesh.iter() {
                let in_cell = m.contains(c);
                prop_assert!(!(in_cell && m.shadow_y(c)));
                prop_assert!(!(in_cell && m.critical_y(c)));
                prop_assert!(!(in_cell && m.shadow_x(c)));
                prop_assert!(!(in_cell && m.critical_x(c)));
                // Shadow and critical never overlap on the same axis.
                prop_assert!(!(m.shadow_y(c) && m.critical_y(c)));
                prop_assert!(!(m.shadow_x(c) && m.critical_x(c)));
            }
        }
    }

    #[test]
    fn knowledge_is_monotone_across_models((side, coords) in mesh_and_faults()) {
        let set = build(side, &coords, Orientation::IDENTITY);
        let b1 = InfoModel::build(&set, ModelKind::B1);
        let b2 = InfoModel::build(&set, ModelKind::B2);
        let b3 = InfoModel::build(&set, ModelKind::B3);
        let mesh = Mesh::square(side);
        for m in set.iter() {
            for c in mesh.iter() {
                if b1.knows(c, m.id()) {
                    prop_assert!(b3.knows(c, m.id()), "B1 carrier missing from B3 at {c:?}");
                    prop_assert!(b2.knows(c, m.id()), "B1 carrier missing from B2 at {c:?}");
                }
            }
        }
    }

    #[test]
    fn orientation_round_trips((side, coords) in mesh_and_faults()) {
        let mesh = Mesh::square(side);
        let faults = FaultSet::from_coords(mesh, coords.iter().map(|&(x, y)| Coord::new(x, y)));
        for o in Orientation::ALL {
            let lab = Labeling::compute(&faults, o, BorderPolicy::Open);
            for c in mesh.iter() {
                // Faulty is orientation-invariant.
                prop_assert_eq!(
                    lab.status_real(c) == NodeStatus::Faulty,
                    faults.is_faulty(c)
                );
            }
        }
    }
}
