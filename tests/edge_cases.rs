//! Deterministic edge-case battery: degenerate geometries that the
//! randomized suites only hit occasionally.

use meshpath::prelude::*;

fn net(side: u32, faults: &[(i32, i32)]) -> NetView {
    let mesh = Mesh::square(side);
    NetView::build(FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y))))
}

fn all_routers() -> [Box<dyn Router>; 4] {
    [Box::new(ECube), Box::new(Rb1::default()), Box::new(Rb2::default()), Box::new(Rb3::default())]
}

#[test]
fn adjacent_endpoints() {
    let n = net(8, &[(4, 4)]);
    for router in all_routers() {
        let res = router.route(&n, Coord::new(2, 2), Coord::new(2, 3));
        assert!(res.delivered);
        assert_eq!(res.hops(), 1, "{}", router.name());
    }
}

#[test]
fn source_equals_destination() {
    let n = net(8, &[]);
    for router in all_routers() {
        let res = router.route(&n, Coord::new(3, 3), Coord::new(3, 3));
        assert!(res.delivered);
        assert_eq!(res.hops(), 0, "{}", router.name());
    }
}

#[test]
fn due_east_with_row_blocker() {
    // d due east, a fault on the row: the type-II machinery must detour
    // exactly two extra hops.
    let n = net(10, &[(5, 4)]);
    let (s, d) = (Coord::new(1, 4), Coord::new(8, 4));
    let res = Rb2::default().route(&n, s, d);
    assert!(res.delivered);
    assert_eq!(res.hops(), s.manhattan(d) + 2);
}

#[test]
fn due_north_with_column_blocker() {
    let n = net(10, &[(4, 5)]);
    let (s, d) = (Coord::new(4, 1), Coord::new(4, 8));
    let res = Rb2::default().route(&n, s, d);
    assert!(res.delivered);
    assert_eq!(res.hops(), s.manhattan(d) + 2);
}

#[test]
fn corner_to_corner_with_center_block() {
    // A 3x3 block dead center: corner-to-corner traffic stays Manhattan
    // (it can hug either side).
    let faults: Vec<(i32, i32)> = (5..8).flat_map(|x| (5..8).map(move |y| (x, y))).collect();
    let n = net(13, &faults);
    let (s, d) = (Coord::new(0, 0), Coord::new(12, 12));
    for router in all_routers() {
        let res = router.route(&n, s, d);
        assert!(res.delivered, "{}", router.name());
        validate_path(&n, s, d, &res).expect("valid");
    }
    let res = Rb2::default().route(&n, s, d);
    assert_eq!(res.hops(), s.manhattan(d));
}

#[test]
fn wall_with_single_gap() {
    // A full wall except one gap: every router must thread the gap.
    let faults: Vec<(i32, i32)> = (0..12).filter(|&x| x != 7).map(|x| (x, 6)).collect();
    let n = net(12, &faults);
    let (s, d) = (Coord::new(2, 1), Coord::new(2, 10));
    let oracle = DistanceField::healthy(n.faults(), d);
    for router in all_routers() {
        let res = router.route(&n, s, d);
        assert!(res.delivered, "{}", router.name());
        validate_path(&n, s, d, &res).expect("valid");
        assert!(res.path().any(|c| c == Coord::new(7, 6)), "{} must use the gap", router.name());
    }
    let res = Rb2::default().route(&n, s, d);
    assert_eq!(res.hops(), oracle.dist(s), "RB2 threads the gap optimally");
}

#[test]
fn destination_in_a_pocket() {
    // d is reachable only from the east; naive monotone approaches from
    // the west must be re-planned around.
    let n = net(14, &[(8, 0), (9, 1), (10, 1), (11, 1)]);
    let (s, d) = (Coord::new(0, 0), Coord::new(10, 0));
    let oracle = DistanceField::healthy(n.faults(), d);
    assert!(oracle.reachable(s));
    let res = Rb2::default().route(&n, s, d);
    assert!(res.delivered);
    assert_eq!(res.hops(), oracle.dist(s));
}

#[test]
fn mcc_touching_every_border() {
    // Border-hugging clusters: corners off-mesh on all four sides.
    let n = net(10, &[(0, 5), (5, 0), (9, 4), (4, 9), (0, 0), (9, 9)]);
    let (s, d) = (Coord::new(2, 2), Coord::new(7, 7));
    for router in all_routers() {
        let res = router.route(&n, s, d);
        assert!(res.delivered, "{}", router.name());
        validate_path(&n, s, d, &res).expect("valid");
    }
}

#[test]
fn dense_diagonal_stripe() {
    // A dense anti-diagonal stripe with one opening forces long detours
    // but never traps anyone.
    let faults: Vec<(i32, i32)> = (0..14).filter(|&i| i != 9).map(|i| (i, 13 - i)).collect();
    let n = net(14, &faults);
    let (s, d) = (Coord::new(1, 1), Coord::new(12, 12));
    let oracle = DistanceField::healthy(n.faults(), d);
    assert!(oracle.reachable(s));
    for router in all_routers() {
        let res = router.route(&n, s, d);
        assert!(res.delivered, "{}", router.name());
    }
    let res = Rb2::default().route(&n, s, d);
    assert_eq!(res.hops(), oracle.dist(s));
}

#[test]
fn one_by_n_mesh_is_a_line() {
    // Degenerate topology: a 1-wide mesh routes along the line or fails
    // honestly when a fault cuts it.
    let mesh = Mesh::new(1, 10);
    let clear = NetView::build(FaultSet::none(mesh));
    let res = Rb2::default().route(&clear, Coord::new(0, 0), Coord::new(0, 9));
    assert!(res.delivered);
    assert_eq!(res.hops(), 9);

    let cut = NetView::build(FaultSet::from_coords(mesh, [Coord::new(0, 5)]));
    let res = Rb2::default().route(&cut, Coord::new(0, 0), Coord::new(0, 4));
    assert!(res.delivered);
    let res = Rb2::default().route(&cut, Coord::new(0, 0), Coord::new(0, 9));
    assert!(!res.delivered, "severed line must report non-delivery");
}

#[test]
fn two_by_two_mesh() {
    let mesh = Mesh::square(2);
    let n = NetView::build(FaultSet::none(mesh));
    for router in all_routers() {
        let res = router.route(&n, Coord::new(0, 0), Coord::new(1, 1));
        assert!(res.delivered, "{}", router.name());
        assert_eq!(res.hops(), 2);
    }
}

#[test]
fn all_quadrant_directions_are_symmetric() {
    // The same geometry rotated into each quadrant gives the same path
    // length (orientation machinery at work).
    let n = net(11, &[(5, 5)]);
    let center = Coord::new(5, 1);
    let opposite = Coord::new(5, 9);
    let up = Rb2::default().route(&n, center, opposite);
    let down = Rb2::default().route(&n, opposite, center);
    assert!(up.delivered && down.delivered);
    assert_eq!(up.hops(), down.hops(), "routing must be direction-symmetric here");

    let west = Coord::new(1, 5);
    let east = Coord::new(9, 5);
    let we = Rb2::default().route(&n, west, east);
    let ew = Rb2::default().route(&n, east, west);
    assert_eq!(we.hops(), ew.hops());
    assert_eq!(we.hops(), up.hops(), "X and Y blockers are symmetric");
}

#[test]
fn a_live_guard_keeps_the_walk_out_of_the_border_corridor() {
    // The target is critical for a fault, so step 3 takes the longer
    // remainder instead of dimension order. Dimension order (-X first in
    // the first case, -Y in its mirror) walks into the corridor between
    // the staircase and the border fault, a dead end that costs 2 hops;
    // the shortest route is 8.
    let d = Coord::new(0, 0);
    let cases = [
        (
            &[(0, 1), (1, 3), (2, 4)][..],
            Coord::new(3, 5),
            "...S..\n..#*..\n.#**..\n.**...\n#*....\nD*....",
        ),
        (
            &[(1, 0), (3, 1), (4, 2)],
            Coord::new(5, 3),
            "......\n......\n..***S\n.**.#.\n**.#..\nD#....",
        ),
    ];
    for (faults, s, picture) in cases {
        let n = net(6, faults);
        for scope in [KnowledgeScope::Global, KnowledgeScope::Local] {
            let res = Rb2 { scope }.route(&n, s, d);
            let path: Vec<Coord> = res.path().collect();
            let art = GridRender::new(*n.mesh())
                .path('*', &path)
                .layer('#', |c| n.faults().is_faulty(c))
                .mark('S', s)
                .mark('D', d)
                .to_string();
            assert_eq!((res.hops(), art.as_str()), (8, picture), "{scope:?}\n{art}");
        }
    }
}
