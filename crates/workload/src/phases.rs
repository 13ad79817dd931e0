//! Collective phases: scheduled all-to-all and (l,k)-permutation
//! rounds with a phase barrier between rounds.

use meshpath_mesh::{derive_seed, Coord};
use meshpath_route::NetView;
use meshpath_traffic::{PhaseOutcome, WorkloadMsg, WorkloadSource};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which collective each round of a `CollectivePhases` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CollectiveKind {
    /// Round `r`: participant `i` sends to participant
    /// `(i + r + 1) mod n` — the classic shifted all-to-all schedule,
    /// covering every ordered pair over `n - 1` rounds.
    AllToAll,
    /// Round `r`: an (l,k)-routing instance built from `l` seeded
    /// random permutations of the participants (each participant
    /// sources `l` messages and sinks `l <= k`; fixed points are
    /// skipped). Requires `1 <= l <= k`.
    Permutation {
        /// Messages sourced per participant per round.
        l: u32,
        /// Receive bound (`l <= k`); the instance built here sinks at
        /// most `l` per participant, so `k` only bounds `l`.
        k: u32,
        /// Seed for the per-round permutation draws.
        seed: u64,
    },
}

/// State of the round currently in flight.
struct Round {
    index: u32,
    released_at: u64,
    completed_at: u64,
    outstanding: u64,
    delivered: u64,
    aborted: u64,
}

/// A barrier-synchronised collective workload: `rounds` rounds of the
/// chosen `CollectiveKind` over the mesh's healthy nodes, where round
/// `r + 1` is released only once every round-`r` flow has resolved
/// (delivered or aborted). Per-phase completion times come back as
/// [`PhaseOutcome`]s in the run's `WorkloadOutcome`, which is what lets
/// RB1/RB2/RB3 be compared against XY/E-cube on collective traffic.
///
/// The schedule is a pure function of the participant list and (for
/// permutations) the seed, and the barrier depends only on the *set* of
/// resolved flows — so collective runs are bit-identical at every shard
/// count.
pub(crate) struct CollectivePhases {
    kind: CollectiveKind,
    /// Healthy nodes in row-major order at workload-build time.
    participants: Vec<Coord>,
    rounds: u32,
    len: u32,
    started: u32,
    next_flow: u32,
    cur: Option<Round>,
    done: Vec<PhaseOutcome>,
}

impl CollectivePhases {
    /// A collective over the healthy nodes of `view` (row-major order).
    ///
    /// Panics if `len == 0`, or on a `Permutation` kind violating
    /// `1 <= l <= k`.
    pub(crate) fn new(view: &NetView, kind: CollectiveKind, rounds: u32, len: u32) -> Self {
        assert!(len > 0, "zero-flit collective packets");
        if let CollectiveKind::Permutation { l, k, .. } = kind {
            assert!(1 <= l && l <= k, "(l,k)-permutation requires 1 <= l <= k, got ({l},{k})");
        }
        let participants: Vec<Coord> =
            view.mesh().iter().filter(|&c| view.faults().is_healthy(c)).collect();
        CollectivePhases {
            kind,
            participants,
            rounds,
            len,
            started: 0,
            next_flow: 0,
            cur: None,
            done: Vec::new(),
        }
    }

    /// Source → destination pairs of round `r` (fixed points already
    /// skipped), in release order.
    fn round_pairs(&self, r: u32) -> Vec<(Coord, Coord)> {
        let n = self.participants.len();
        let mut pairs = Vec::new();
        if n < 2 {
            return pairs;
        }
        match self.kind {
            CollectiveKind::AllToAll => {
                let shift = (r as usize + 1) % n;
                for (i, &src) in self.participants.iter().enumerate() {
                    let dst = self.participants[(i + shift) % n];
                    if dst != src {
                        pairs.push((src, dst));
                    }
                }
            }
            CollectiveKind::Permutation { l, seed, .. } => {
                for j in 0..l {
                    let mut rng =
                        StdRng::seed_from_u64(derive_seed(seed, u64::from(r), u64::from(j)));
                    let mut perm: Vec<usize> = (0..n).collect();
                    perm.shuffle(&mut rng);
                    for (i, &p) in perm.iter().enumerate() {
                        if p != i {
                            pairs.push((self.participants[i], self.participants[p]));
                        }
                    }
                }
            }
        }
        pairs
    }

    fn resolve_one(&mut self, at: u64, delivered: bool) {
        let round = self.cur.as_mut().expect("delivery for a round not in flight");
        debug_assert!(round.outstanding > 0);
        round.outstanding -= 1;
        round.completed_at = round.completed_at.max(at);
        if delivered {
            round.delivered += 1;
        } else {
            round.aborted += 1;
        }
        if round.outstanding == 0 {
            let round = self.cur.take().expect("just borrowed");
            self.done.push(PhaseOutcome {
                index: round.index,
                released_at: round.released_at,
                completed_at: round.completed_at,
                delivered: round.delivered,
                aborted: round.aborted,
            });
        }
    }
}

impl WorkloadSource for CollectivePhases {
    fn release(&mut self, cycle: u64) -> Vec<WorkloadMsg> {
        // The barrier: nothing releases while a round is in flight.
        while self.cur.is_none() && self.started < self.rounds {
            let r = self.started;
            self.started += 1;
            let pairs = self.round_pairs(r);
            if pairs.is_empty() {
                // A degenerate round (n < 2) completes instantly.
                self.done.push(PhaseOutcome {
                    index: r,
                    released_at: cycle,
                    completed_at: cycle,
                    delivered: 0,
                    aborted: 0,
                });
                continue;
            }
            let msgs: Vec<WorkloadMsg> = pairs
                .into_iter()
                .map(|(src, dst)| {
                    let flow = self.next_flow;
                    self.next_flow += 1;
                    WorkloadMsg { at: cycle, flow, src, dst, len: self.len }
                })
                .collect();
            self.cur = Some(Round {
                index: r,
                released_at: cycle,
                completed_at: cycle,
                outstanding: msgs.len() as u64,
                delivered: 0,
                aborted: 0,
            });
            return msgs;
        }
        Vec::new()
    }

    fn on_delivered(&mut self, _flow: u32, at: u64) {
        self.resolve_one(at, true);
    }

    fn on_aborted(&mut self, _flow: u32) -> Vec<u32> {
        // An aborted flow resolves its round slot (the barrier must not
        // wedge on a dead participant); collectives have no dependents.
        let at = self.cur.as_ref().map_or(0, |r| r.completed_at);
        self.resolve_one(at, false);
        Vec::new()
    }

    fn exhausted(&self, _cycle: u64) -> bool {
        self.started == self.rounds && self.cur.is_none()
    }

    fn phases(&self) -> Vec<PhaseOutcome> {
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultSet, Mesh};

    fn view(side: u32, faults: &[Coord]) -> NetView {
        let mesh = Mesh::new(side, side);
        NetView::build(FaultSet::from_coords(mesh, faults.iter().copied()))
    }

    #[test]
    fn all_to_all_rounds_cover_every_ordered_pair_once() {
        let v = view(3, &[]);
        let n = 9usize;
        let mut phases = CollectivePhases::new(&v, CollectiveKind::AllToAll, (n - 1) as u32, 4);
        assert_eq!(phases.participants.len(), n);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n - 1 {
            let msgs = phases.release(0);
            assert_eq!(msgs.len(), n, "each participant sends once per round");
            let flows: Vec<u32> = msgs.iter().map(|m| m.flow).collect();
            for m in &msgs {
                assert_ne!(m.src, m.dst);
                assert!(seen.insert((m.src, m.dst)), "pair repeated");
            }
            assert!(phases.release(1).is_empty(), "barrier holds while in flight");
            for f in flows {
                phases.on_delivered(f, 3);
            }
        }
        assert_eq!(seen.len(), n * (n - 1), "all ordered pairs covered");
        assert!(phases.exhausted(4));
        assert_eq!(phases.phases().len(), n - 1);
        assert!(phases.phases().iter().all(|p| p.delivered == n as u64 && p.aborted == 0));
    }

    #[test]
    fn permutation_rounds_are_seeded_and_respect_the_l_bound() {
        let v = view(4, &[Coord::new(1, 1)]);
        let kind = CollectiveKind::Permutation { l: 2, k: 3, seed: 7 };
        let mut a = CollectivePhases::new(&v, kind, 2, 4);
        let mut b = CollectivePhases::new(&v, kind, 2, 4);
        assert_eq!(a.participants.len(), 15);
        let ra = a.release(0);
        let rb = b.release(0);
        assert_eq!(ra.len(), rb.len(), "same seed, same schedule");
        assert!(ra.iter().zip(&rb).all(|(x, y)| (x.src, x.dst, x.len) == (y.src, y.dst, y.len)));
        // Each participant sources at most l and sinks at most l.
        let mut sourced = std::collections::HashMap::new();
        let mut sunk = std::collections::HashMap::new();
        for m in &ra {
            *sourced.entry(m.src).or_insert(0u32) += 1;
            *sunk.entry(m.dst).or_insert(0u32) += 1;
            assert!(v.faults().is_healthy(m.src) && v.faults().is_healthy(m.dst));
        }
        assert!(sourced.values().all(|&c| c <= 2));
        assert!(sunk.values().all(|&c| c <= 2));
    }

    #[test]
    fn aborts_do_not_wedge_the_barrier() {
        let v = view(2, &[]);
        let mut phases = CollectivePhases::new(&v, CollectiveKind::AllToAll, 2, 2);
        let msgs = phases.release(0);
        assert_eq!(msgs.len(), 4);
        phases.on_delivered(msgs[0].flow, 6);
        assert!(phases.on_aborted(msgs[1].flow).is_empty());
        phases.on_delivered(msgs[2].flow, 9);
        phases.on_aborted(msgs[3].flow);
        assert!(!phases.exhausted(9), "round 1 not yet released");
        let next = phases.release(10);
        assert_eq!(next.len(), 4, "barrier released after the aborts resolved");
        let p = phases.phases();
        assert_eq!(p.len(), 1);
        assert_eq!((p[0].delivered, p[0].aborted), (2, 2));
        assert_eq!(p[0].cycles(), 9, "completion spans release to last resolution");
    }

    #[test]
    #[should_panic(expected = "1 <= l <= k")]
    fn permutation_bounds_are_enforced() {
        let v = view(2, &[]);
        let _ =
            CollectivePhases::new(&v, CollectiveKind::Permutation { l: 3, k: 2, seed: 0 }, 1, 1);
    }
}
