//! Quickstart: build a faulty mesh, route with every algorithm, and
//! compare against the BFS ground truth. Asserts that every router
//! delivers and that RB2's route is exactly as long as the BFS distance.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use meshpath::prelude::*;

fn main() {
    // A 20x20 mesh with a staircase cluster and a lone fault.
    let mesh = Mesh::square(20);
    let faults = FaultSet::from_coords(
        mesh,
        [
            Coord::new(9, 11),
            Coord::new(10, 10),
            Coord::new(11, 9),
            Coord::new(10, 11),
            Coord::new(4, 15),
        ],
    );
    let net = NetView::build(faults);

    let (s, d) = (Coord::new(10, 2), Coord::new(10, 18));
    let oracle = DistanceField::healthy(net.faults(), d);
    println!("mesh 20x20, 5 faults; routing {s} -> {d}");
    println!("Manhattan distance : {}", s.manhattan(d));
    println!("true shortest path : {} hops (BFS)", oracle.dist(s));
    println!();

    let routers: [&dyn Router; 4] = [&ECube, &Rb1::default(), &Rb2::default(), &Rb3::default()];
    let mut best: Option<(&str, RouteResult)> = None;
    for router in routers {
        let res = router.route(&net, s, d);
        validate_path(&net, s, d, &res).expect("route must be a valid walk");
        assert!(res.delivered, "{} must deliver", router.name());
        if router.name() == "RB2" {
            assert_eq!(res.hops(), oracle.dist(s), "RB2 must take a shortest path");
        }
        println!(
            "{:7} delivered={} hops={:3} detour_hops={:3} shortest={}",
            router.name(),
            res.delivered,
            res.hops(),
            res.detour_hops,
            res.hops() == oracle.dist(s),
        );
        if best.as_ref().is_none_or(|(_, b)| res.hops() < b.hops()) {
            best = Some((router.name(), res));
        }
    }

    // Render the best route.
    let (name, res) = best.expect("at least one router ran");
    println!("\nbest route ({name}):");
    let nodes: Vec<Coord> = res.path().collect();
    let art = GridRender::new(mesh)
        .layer('#', |c| net.faults().is_faulty(c))
        .path('*', &nodes)
        .mark('S', s)
        .mark('D', d)
        .to_string();
    for line in art.lines() {
        println!("  {line}");
    }
}
