//! RCU publication correctness for `RouteService` under concurrency:
//!
//! * the repeated-spawn stress test races query threads against a
//!   churn thread and checks, for **every** reply, that its epoch is
//!   one the writer actually published and that the reply is
//!   bit-identical to re-routing on a `NetState` rebuilt at that
//!   epoch's fault set (readers may lag the writer, but can never see
//!   a torn or unpublished snapshot), and that each reader thread's
//!   reply epochs never decrease;
//! * the proptest pins `route_many` ≡ per-query `route`, in order,
//!   for arbitrary meshes, fault sets and query batches.

use std::collections::HashMap;
use std::sync::Mutex;

use meshpath::prelude::*;
use proptest::prelude::*;

/// Queries raced against churn must answer at published epochs, with
/// replies identical to a fresh rebuild of that epoch's network.
///
/// The writer logs `epoch -> fault set` as it publishes; query threads
/// record `(query, reply)` observations. After the race, every
/// observation is replayed against a `NetState` reconstructed from the
/// log. Repeated across several service spawns so thread-local
/// snapshot caches from earlier services (same OS threads, fresh
/// service ids) cannot leak between runs.
#[test]
fn raced_replies_match_their_published_epoch() {
    let side = 10i32;
    let churn_sites = [Coord::new(2, 3), Coord::new(7, 6), Coord::new(4, 8)];
    for spawn in 0..3 {
        let mesh = Mesh::square(side as u32);
        let base = Coord::new(spawn + 3, 5);
        let service = RouteService::new(FaultSet::from_coords(mesh, [base]));

        // Writer-side publication log: epoch -> full fault list.
        let log: Mutex<HashMap<u64, Vec<Coord>>> = Mutex::new(HashMap::from([(0, vec![base])]));

        let observations: Vec<(Coord, Coord, Result<RouteReply, RouteError>)> =
            std::thread::scope(|scope| {
                let queriers: Vec<_> = (0..3)
                    .map(|t| {
                        let service = &service;
                        scope.spawn(move || {
                            let mut seen = Vec::new();
                            let mut last = 0;
                            for i in 0i32..400 {
                                let s = Coord::new((i * 7 + t) % side, (i * 3) % side);
                                let d = Coord::new((i * 5 + 9) % side, (i * 11 + t) % side);
                                if s == d {
                                    continue;
                                }
                                let reply = service.route(s, d);
                                if let Ok(r) = &reply {
                                    assert!(
                                        r.epoch >= last,
                                        "epoch went back: {last} -> {}",
                                        r.epoch
                                    );
                                    last = r.epoch;
                                }
                                seen.push((s, d, reply));
                            }
                            seen
                        })
                    })
                    .collect();
                let churn = scope.spawn(|| {
                    for round in 0..30 {
                        let c = churn_sites[round % churn_sites.len()];
                        let epoch = service.add_fault(c).expect("healthy site");
                        log.lock().unwrap().insert(epoch, vec![base, c]);
                        let epoch = service.remove_fault(c).expect("fault just added");
                        log.lock().unwrap().insert(epoch, vec![base]);
                    }
                });
                churn.join().expect("churn thread");
                queriers.into_iter().flat_map(|h| h.join().expect("query thread")).collect()
            });

        // Replay every observation against its epoch's reconstruction.
        let log = log.into_inner().unwrap();
        let rebuilt: HashMap<u64, RouteService> = log
            .iter()
            .map(|(&epoch, coords)| {
                let faults =
                    FaultSet::from_coords(Mesh::square(side as u32), coords.iter().copied());
                (epoch, RouteService::new(faults))
            })
            .collect();
        assert!(observations.len() > 1000, "the race must actually query");
        for (s, d, reply) in observations {
            let epoch = match &reply {
                Ok(r) => r.epoch,
                // Validation errors carry no epoch; every fault set in
                // this test has the same mesh, and only fault-dependent
                // errors need an epoch to be checked against.
                Err(RouteError::OffMesh(_)) => continue,
                Err(_) => {
                    // The pair must be invalid at *some* published
                    // epoch (source/destination hit a churn site).
                    assert!(
                        log.values().any(|coords| coords.contains(&s) || coords.contains(&d)),
                        "{s:?}->{d:?} errored but no published epoch faults an endpoint"
                    );
                    continue;
                }
            };
            let fresh = rebuilt
                .get(&epoch)
                .unwrap_or_else(|| panic!("reply epoch {epoch} was never published"))
                .route(s, d);
            match (&reply, &fresh) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.result, b.result, "{s:?}->{d:?} diverges at epoch {epoch}")
                }
                (a, b) => panic!("{s:?}->{d:?} at epoch {epoch}: raced {a:?} vs fresh {b:?}"),
            }
        }
    }
}

/// A generated proptest case: mesh side, fault coordinates, and a
/// query batch of raw `(x, y)` endpoint pairs.
type BatchInstance = (u32, Vec<(i32, i32)>, Vec<((i32, i32), (i32, i32))>);

/// Strategy: a mesh side, fault coordinates, and a query batch.
fn batch_instance() -> impl Strategy<Value = BatchInstance> {
    (6u32..16).prop_flat_map(|side| {
        let coord = (0..side as i32, 0..side as i32);
        let faults = proptest::collection::hash_set(coord, 0..((side * side / 6) as usize).max(1));
        // Endpoints straddle the mesh boundary on purpose: validation
        // errors must round-trip through route_many too.
        let end = (-1..side as i32 + 1, -1..side as i32 + 1);
        let pairs = proptest::collection::vec((end.clone(), end), 0..40);
        (Just(side), faults.prop_map(|s| s.into_iter().collect()), pairs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `route_many` answers exactly what per-query `route` answers, in
    /// the order of the input pairs.
    #[test]
    fn route_many_equals_per_query_route((side, faults, pairs) in batch_instance()) {
        let mesh = Mesh::square(side);
        let faults = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        let service = RouteService::new(faults);
        let pairs: Vec<(Coord, Coord)> = pairs
            .iter()
            .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect();
        let batch = service.route_many(&pairs);
        prop_assert_eq!(batch.len(), pairs.len());
        for (&(s, d), reply) in pairs.iter().zip(&batch) {
            let single = service.route(s, d);
            match (reply, single) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.epoch, b.epoch);
                    prop_assert_eq!(&a.result, &b.result);
                }
                (Err(a), Err(b)) => prop_assert_eq!(*a, b),
                (a, b) => prop_assert!(false, "{:?}->{:?}: batch {:?} vs single {:?}", s, d, a, b),
            }
        }
    }
}
