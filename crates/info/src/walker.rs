//! The wall-following boundary walker.
//!
//! The paper's boundary construction descends a straight line until it
//! "intersects with another MCC", then "make\[s\] a right/left turn" and
//! "go\[es\] along the edges" of the obstacle to its initialization or
//! opposite corner, where it rejoins the straight descent. This module
//! implements that as a wall follower over the safe-node grid: descend in
//! a main direction; on hitting an unsafe cell, rotate (engage), hug the
//! obstacle with the hand-on-wall rule, and disengage back into descent
//! once the wall falls away while heading in the main direction.
//!
//! The walker is shape-agnostic (it only queries safe/unsafe), which makes
//! it robust to obstacle clusters that the shape-based contour of a single
//! MCC would not describe (e.g. diagonally touching components). Where
//! such clusters force a different detour than the idealized per-MCC
//! contour, the walk stays conservative: it hugs the union and, like
//! every walk, steps on safe nodes only.
//!
//! **What a walk stores.** A walk is a start node plus unit steps, so a
//! `WalkStore` keeps exactly that: every walk's steps two bits a step in
//! one `u64` stream, one fixed-size record per walk (start, step range, hit
//! range, how it ended) and one flat hit list. The walker appends straight
//! into the store; [`Walk`] is a borrowed view whose [`nodes`](Walk::nodes)
//! decodes the steps in walk order.
//!
//! **What a step costs.** A walk that re-enters a `(node, heading, mode)`
//! state is a closed loop and stops. The test is one byte per node — bit
//! `2 * heading + following` of `Walker`'s `seen` table, a load, an
//! `and` and a store a step — in a scratch every walk of one
//! [`BoundarySet::build_reusing`](crate::BoundarySet::build_reusing) call
//! shares; a finished walk clears exactly the bytes it set by replaying
//! the steps it just wrote, so a walk costs its length, not the mesh.

use meshpath_fault::{Labeling, MccId, MccSet};
use meshpath_mesh::{Coord, Dir};

/// Which way the walk turns when it hits an obstacle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Turn {
    /// Rotate clockwise on engage (wall ends up on the walk's left).
    Right,
    /// Rotate counter-clockwise on engage (wall ends up on the right).
    Left,
}

impl Turn {
    #[inline]
    fn rotate(self, d: Dir) -> Dir {
        match self {
            Turn::Right => d.clockwise(),
            Turn::Left => d.counter_clockwise(),
        }
    }

    /// The wall-side direction relative to heading `d`.
    #[inline]
    fn wall_side(self, d: Dir) -> Dir {
        match self {
            // Engaging right puts the wall on the left: left = ccw.
            Turn::Right => d.counter_clockwise(),
            Turn::Left => d.clockwise(),
        }
    }
}

/// Parameters of one boundary walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct WalkConfig {
    /// Straight descent direction (`-Y` for the X-boundaries of the
    /// Y-forbidden region, `-X` for the Y-boundaries of the X-region).
    pub main: Dir,
    /// Turn made on hitting an obstacle. The paper's `-X` boundary turns
    /// right; the `+X` boundary turns left (and the `-Y`/`+Y` boundaries
    /// turn left/right respectively).
    pub turn: Turn,
}

impl WalkConfig {
    /// The `-X` boundary of the Y-forbidden region: descend south, turn
    /// right, hug obstacles on the left.
    pub(crate) const WEST_Y: WalkConfig = WalkConfig { main: Dir::MinusY, turn: Turn::Right };
    /// The `+X` boundary: descend south, turn left.
    pub(crate) const EAST_Y: WalkConfig = WalkConfig { main: Dir::MinusY, turn: Turn::Left };
    /// The `-Y` boundary of the X-forbidden region: head west, turn left.
    pub(crate) const SOUTH_X: WalkConfig = WalkConfig { main: Dir::MinusX, turn: Turn::Left };
    /// The `+Y` boundary: head west, turn right.
    pub(crate) const NORTH_X: WalkConfig = WalkConfig { main: Dir::MinusX, turn: Turn::Right };
}

/// Steps per word of `WalkStore`'s step stream.
const STEPS_PER_WORD: usize = 32;

/// Steps `first..first + count` of a step stream, decoded a word at a
/// time.
#[derive(Clone)]
struct Steps<'a> {
    /// The words after the current one.
    words: std::slice::Iter<'a, u64>,
    /// The current word, shifted so the next step sits in its low bits,
    /// and how many steps it still holds.
    word: u64,
    in_word: usize,
    /// Steps left.
    left: usize,
}

impl<'a> Steps<'a> {
    fn new(steps: &'a [u64], first: usize, count: usize) -> Self {
        if count == 0 {
            return Steps { words: [].iter(), word: 0, in_word: 0, left: 0 };
        }
        let (w, k) = (first / STEPS_PER_WORD, first % STEPS_PER_WORD);
        Steps {
            words: steps[w + 1..].iter(),
            word: steps[w] >> (2 * k),
            in_word: STEPS_PER_WORD - k,
            left: count,
        }
    }
}

impl Iterator for Steps<'_> {
    type Item = Dir;

    #[inline]
    fn next(&mut self) -> Option<Dir> {
        if self.left == 0 {
            return None;
        }
        if self.in_word == 0 {
            self.word = *self.words.next()?;
            self.in_word = STEPS_PER_WORD;
        }
        let d = Dir::ALL[self.word as usize & 3];
        self.word >>= 2;
        self.in_word -= 1;
        self.left -= 1;
        Some(d)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// A word's steps in one tight loop: what `for_each` and every other
    /// internal iteration over a walk run.
    fn fold<B, F: FnMut(B, Dir) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        let mut in_word = self.in_word.min(self.left);
        loop {
            for _ in 0..in_word {
                acc = f(acc, Dir::ALL[self.word as usize & 3]);
                self.word >>= 2;
            }
            self.left -= in_word;
            match self.words.next() {
                Some(&word) if self.left > 0 => {
                    self.word = word;
                    in_word = self.left.min(STEPS_PER_WORD);
                }
                _ => return acc,
            }
        }
    }
}

/// The nodes of a [`Walk`], in walk order.
#[derive(Clone)]
pub struct Nodes<'a> {
    steps: Steps<'a>,
    /// The node last yielded, or the start before it is.
    pos: Coord,
    at_start: bool,
}

impl Iterator for Nodes<'_> {
    type Item = Coord;

    #[inline]
    fn next(&mut self) -> Option<Coord> {
        if !std::mem::take(&mut self.at_start) {
            self.pos = self.pos.step(self.steps.next()?);
        }
        Some(self.pos)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.steps.left + self.at_start as usize;
        (n, Some(n))
    }

    fn fold<B, F: FnMut(B, Coord) -> B>(self, init: B, mut f: F) -> B {
        let mut pos = self.pos;
        let acc = if self.at_start { f(init, pos) } else { init };
        self.steps.fold(acc, |acc, d| {
            pos = pos.step(d);
            f(acc, pos)
        })
    }
}

impl ExactSizeIterator for Nodes<'_> {}

/// A store index as the `u32` a record holds.
pub(crate) fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a walk store holds under 4 G steps and hits")
}

/// Where one walk sits in its `WalkStore`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WalkRec {
    /// The first node (the origin for an empty walk).
    start: Coord,
    /// Index of the walk's first step in the step stream.
    step0: u32,
    /// Nodes visited: 0 for an empty walk, else one more than its steps.
    nodes: u32,
    /// Index of the walk's first hit, and how many it has.
    hit0: u32,
    hits: u32,
    /// True when the walk ended by leaving the mesh in the main direction.
    reached_edge: bool,
}

/// The walks of one [`BoundarySet`](crate::BoundarySet), in the order they
/// were appended: their steps two bits a step in one stream, one record
/// per walk and one flat hit list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct WalkStore {
    /// Step `i` is bits `2 * (i % 32)..` of word `i / 32`: the index of
    /// its direction in [`Dir::ALL`]. Bits past the last step are zero.
    steps: Vec<u64>,
    /// Steps stored over all walks: a walk of `n > 0` nodes holds `n - 1`.
    step_count: usize,
    walks: Vec<WalkRec>,
    hits: Vec<(MccId, Coord)>,
}

impl WalkStore {
    /// Walks stored.
    pub(crate) fn len(&self) -> usize {
        self.walks.len()
    }

    /// Walk `i`, in append order.
    pub(crate) fn get(&self, i: usize) -> Walk<'_> {
        let rec = self.walks[i];
        let hits = &self.hits[rec.hit0 as usize..][..rec.hits as usize];
        Walk { steps: &self.steps, hits, rec }
    }

    fn push_step(&mut self, d: Dir) {
        let i = self.step_count;
        if i.is_multiple_of(STEPS_PER_WORD) {
            self.steps.push(0);
        }
        self.steps[i / STEPS_PER_WORD] |= (d as u64) << (2 * (i % STEPS_PER_WORD));
        self.step_count += 1;
    }

    /// Records the walk from `start` whose steps and hits were appended
    /// from `step0` and `hit0` on; returns its index.
    fn close(&mut self, start: Coord, step0: usize, hit0: usize, reached_edge: bool) -> usize {
        self.walks.push(WalkRec {
            start,
            step0: index(step0),
            nodes: index(self.step_count - step0 + 1),
            hit0: index(hit0),
            hits: index(self.hits.len() - hit0),
            reached_edge,
        });
        self.walks.len() - 1
    }

    /// Appends a walk of no nodes; returns its index.
    pub(crate) fn push_empty(&mut self) -> usize {
        self.walks.push(WalkRec {
            start: Coord::new(0, 0),
            step0: index(self.step_count),
            nodes: 0,
            hit0: index(self.hits.len()),
            hits: 0,
            reached_edge: false,
        });
        self.walks.len() - 1
    }

    /// Appends a copy of `w` (typically of another store) with every hit
    /// MCC mapped through `map`; returns its index.
    pub(crate) fn push_copy(&mut self, w: Walk<'_>, map: impl Fn(MccId) -> MccId) -> usize {
        let Some(start) = w.start() else {
            return self.push_empty();
        };
        let (step0, hit0) = (self.step_count, self.hits.len());
        for d in w.steps() {
            self.push_step(d);
        }
        self.hits.extend(w.hits.iter().map(|&(v, h)| (map(v), h)));
        self.close(start, step0, hit0, w.rec.reached_edge)
    }

    /// Drops the spare capacity of a finished store.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.walks.shrink_to_fit();
        self.hits.shrink_to_fit();
    }
}

/// One boundary walk, borrowed from its `WalkStore`.
#[derive(Clone, Copy)]
pub struct Walk<'a> {
    steps: &'a [u64],
    hits: &'a [(MccId, Coord)],
    rec: WalkRec,
}

impl<'a> Walk<'a> {
    /// The first node; `None` for an empty walk (an unsafe or off-mesh
    /// start).
    pub fn start(&self) -> Option<Coord> {
        (self.rec.nodes > 0).then_some(self.rec.start)
    }

    /// Nodes visited.
    pub fn len(&self) -> usize {
        self.rec.nodes as usize
    }

    /// True when the walk visited no node.
    pub fn is_empty(&self) -> bool {
        self.rec.nodes == 0
    }

    /// The direction of every step, in walk order.
    fn steps(&self) -> Steps<'a> {
        Steps::new(self.steps, self.rec.step0 as usize, self.len().saturating_sub(1))
    }

    /// Every safe node visited, in walk order (the start first).
    pub fn nodes(&self) -> Nodes<'a> {
        Nodes { steps: self.steps(), pos: self.rec.start, at_start: !self.is_empty() }
    }

    /// MCCs hit during straight descent, in hit order, with the position
    /// the walk occupied when it hit.
    pub fn hits(&self) -> &'a [(MccId, Coord)] {
        self.hits
    }

    /// True when the walk ended by leaving the mesh in the main direction
    /// (normal termination at the mesh edge).
    #[cfg(test)]
    pub(crate) fn reached_edge(&self) -> bool {
        self.rec.reached_edge
    }
}

/// The boundary walker of one [`MccSet`], with the scratch its walks share.
pub(crate) struct Walker<'a> {
    set: &'a MccSet,
    /// Per node, the `(heading, following)` states the walk in progress
    /// has been in there (bit `2 * heading + following`); all zero
    /// between walks.
    seen: Vec<u8>,
}

impl<'a> Walker<'a> {
    /// A walker over the safe nodes of `set`.
    pub(crate) fn new(set: &'a MccSet) -> Self {
        Walker { set, seen: vec![0; set.mesh().len()] }
    }

    /// Runs a boundary walk from `start`, appends it to `store` and
    /// returns its index there.
    ///
    /// Appends an empty walk when `start` is not a safe in-mesh node (e.g.
    /// the corner of a border-touching MCC).
    pub(crate) fn walk(&mut self, store: &mut WalkStore, start: Coord, cfg: WalkConfig) -> usize {
        self.walk_until(store, start, cfg, usize::MAX)
    }

    /// Like [`walk`](Self::walk), but stops after `max_disengage`
    /// disengagements (used for the B3 split propagations, which merge
    /// into the obstacle's own boundary after rounding it once).
    pub(crate) fn walk_until(
        &mut self,
        store: &mut WalkStore,
        start: Coord,
        cfg: WalkConfig,
        max_disengage: usize,
    ) -> usize {
        let set = self.set;
        let labeling: &Labeling = set.labeling();
        let mesh = *set.mesh();
        if !labeling.is_safe_node(start) {
            return store.push_empty();
        }

        let free = |c: Coord| labeling.is_safe_node(c);
        let (step0, hit0) = (store.step_count, store.hits.len());
        let mut pos = start;
        let mut heading = cfg.main;
        let mut following = false;
        let mut disengagements = 0usize;
        let mut reached_edge = false;

        // Generous cap: every (pos, heading, mode) triple visited at most once.
        let cap = mesh.len() * 8;
        'walk: for _ in 0..cap {
            let state = &mut self.seen[mesh.id(pos).index()];
            let bit = 1u8 << (2 * heading as u8 + following as u8);
            if *state & bit != 0 {
                break; // closed loop (fully enclosed walk)
            }
            *state |= bit;
            if !following {
                let next = pos.step(cfg.main);
                if !mesh.contains(next) {
                    reached_edge = true;
                    break;
                }
                if free(next) {
                    pos = next;
                    store.push_step(cfg.main);
                    continue;
                }
                // Hit an obstacle: record which MCC (unsafe in-mesh cell).
                if let Some(id) = set.mcc_at(next) {
                    store.hits.push((id, pos));
                }
                // Engage: rotate until a free direction appears.
                let mut d = cfg.turn.rotate(cfg.main);
                let mut rotations = 1;
                while !free(pos.step(d)) {
                    d = cfg.turn.rotate(d);
                    rotations += 1;
                    if rotations == 4 {
                        break 'walk; // enclosed on all sides
                    }
                }
                heading = d;
                pos = pos.step(d);
                store.push_step(d);
                following = true;
                continue;
            }

            // Following a wall. Disengage back into descent when heading in
            // the main direction with the wall side open.
            if heading == cfg.main && free(pos.step(cfg.turn.wall_side(cfg.main))) {
                following = false;
                disengagements += 1;
                if disengagements >= max_disengage {
                    break;
                }
                continue;
            }
            // Hand-on-wall preference: wall side, straight, away, back.
            let prefs = [
                cfg.turn.wall_side(heading),
                heading,
                cfg.turn.rotate(heading),
                heading.opposite(),
            ];
            let mut moved = false;
            for d in prefs {
                if free(pos.step(d)) {
                    heading = d;
                    pos = pos.step(d);
                    store.push_step(d);
                    moved = true;
                    break;
                }
            }
            if !moved {
                break; // isolated pocket
            }
        }
        // Every state bit set above sits on a node of the walk: replay
        // the steps just written to clear them.
        let mut node = start;
        self.seen[mesh.id(node).index()] = 0;
        for d in Steps::new(&store.steps, step0, store.step_count - step0) {
            node = node.step(d);
            self.seen[mesh.id(node).index()] = 0;
        }
        store.close(start, step0, hit0, reached_edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_fault::{BorderPolicy, MccSet};
    use meshpath_mesh::{FaultInjection, FaultSet, FxHashSet, Mesh, Orientation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set(mesh: Mesh, faults: &[(i32, i32)]) -> MccSet {
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open)
    }

    /// A walk decoded out of its store.
    #[derive(Debug, Default)]
    struct Owned {
        nodes: Vec<Coord>,
        hits: Vec<(MccId, Coord)>,
        reached_edge: bool,
    }

    fn walk(set: &MccSet, start: Coord, cfg: WalkConfig) -> Owned {
        walk_until(set, start, cfg, usize::MAX)
    }

    fn walk_until(set: &MccSet, start: Coord, cfg: WalkConfig, max_disengage: usize) -> Owned {
        let mut store = WalkStore::default();
        let i = Walker::new(set).walk_until(&mut store, start, cfg, max_disengage);
        let w = store.get(i);
        Owned {
            nodes: w.nodes().collect(),
            hits: w.hits().to_vec(),
            reached_edge: w.reached_edge(),
        }
    }

    /// Why a walk stopped.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Exit {
        UnsafeStart,
        Edge,
        ClosedLoop,
        Enclosed,
        Bounded,
        Pocket,
    }

    /// The walk with its loop test as a hash set of `(pos, heading,
    /// following)` triples, and the exit it took: the reference
    /// [`Walker::walk_until`] is held to, node for node.
    fn walk_until_by_hash_set(
        set: &MccSet,
        start: Coord,
        cfg: WalkConfig,
        max_disengage: usize,
    ) -> (Owned, Exit) {
        let labeling = set.labeling();
        let mesh = *set.mesh();
        let mut out = Owned::default();
        if !labeling.is_safe_node(start) {
            return (out, Exit::UnsafeStart);
        }
        let free = |c: Coord| labeling.is_safe_node(c);
        let (mut pos, mut heading, mut following) = (start, cfg.main, false);
        let mut disengagements = 0usize;
        let mut seen: FxHashSet<(Coord, Dir, bool)> = FxHashSet::default();
        out.nodes.push(pos);
        for _ in 0..mesh.len() * 8 {
            if !seen.insert((pos, heading, following)) {
                return (out, Exit::ClosedLoop);
            }
            if !following {
                let next = pos.step(cfg.main);
                if !mesh.contains(next) {
                    out.reached_edge = true;
                    return (out, Exit::Edge);
                }
                if free(next) {
                    pos = next;
                    out.nodes.push(pos);
                    continue;
                }
                if let Some(id) = set.mcc_at(next) {
                    out.hits.push((id, pos));
                }
                let mut d = cfg.turn.rotate(cfg.main);
                let mut rotations = 1;
                while !free(pos.step(d)) {
                    d = cfg.turn.rotate(d);
                    rotations += 1;
                    if rotations == 4 {
                        return (out, Exit::Enclosed);
                    }
                }
                heading = d;
                pos = pos.step(d);
                out.nodes.push(pos);
                following = true;
                continue;
            }
            if heading == cfg.main && free(pos.step(cfg.turn.wall_side(cfg.main))) {
                following = false;
                disengagements += 1;
                if disengagements >= max_disengage {
                    return (out, Exit::Bounded);
                }
                continue;
            }
            let prefs = [
                cfg.turn.wall_side(heading),
                heading,
                cfg.turn.rotate(heading),
                heading.opposite(),
            ];
            match prefs.into_iter().find(|&d| free(pos.step(d))) {
                Some(d) => {
                    heading = d;
                    pos = pos.step(d);
                    out.nodes.push(pos);
                }
                None => return (out, Exit::Pocket),
            }
        }
        unreachable!("a walk revisits a state long before the step cap");
    }

    const CONFIGS: [WalkConfig; 4] =
        [WalkConfig::WEST_Y, WalkConfig::EAST_Y, WalkConfig::SOUTH_X, WalkConfig::NORTH_X];

    /// Holds one shared `Walker`, appending into one store, to the
    /// hash-set reference from every node of the mesh under the four
    /// configurations, bounded and not. Returns the exits the walks took.
    fn assert_walks_match_reference(s: &MccSet) -> Vec<Exit> {
        let mut walker = Walker::new(s);
        let mut store = WalkStore::default();
        let mut exits = Vec::new();
        for start in s.mesh().iter() {
            for cfg in CONFIGS {
                for max in [usize::MAX, 1] {
                    let steps_before = store.step_count;
                    let got = walker.walk_until(&mut store, start, cfg, max);
                    let got = store.get(got);
                    let (want, exit) = walk_until_by_hash_set(s, start, cfg, max);
                    assert_eq!(got.start(), want.nodes.first().copied(), "{start:?} {cfg:?} {max}");
                    assert!(
                        got.nodes().eq(want.nodes.iter().copied()),
                        "nodes from {start:?} {cfg:?} max {max}"
                    );
                    assert_eq!(got.hits(), want.hits, "hits from {start:?} {cfg:?} max {max}");
                    assert_eq!(got.reached_edge(), want.reached_edge, "{start:?} {cfg:?} {max}");
                    assert_eq!(
                        store.step_count - steps_before,
                        want.nodes.len().saturating_sub(1),
                        "one stored step a hop"
                    );
                    if !exits.contains(&exit) {
                        exits.push(exit);
                    }
                }
            }
        }
        assert_eq!(store.len(), s.mesh().len() * CONFIGS.len() * 2);
        assert!(walker.seen.iter().all(|&b| b == 0), "scratch is clean between walks");
        exits
    }

    #[test]
    fn every_exit_matches_the_hash_set_walker() {
        let mesh = Mesh::square(12);
        let mut exits = Vec::new();
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..60 {
            let fs = FaultSet::random(mesh, 10 + case, FaultInjection::Uniform, &mut rng);
            let border = [BorderPolicy::Open, BorderPolicy::Blocking][case % 2];
            let s = MccSet::build(&fs, Orientation::ALL[case % 4], border);
            exits.extend(assert_walks_match_reference(&s));
        }
        // `Pocket` cannot happen: a following walk can always step back.
        for exit in [Exit::Edge, Exit::ClosedLoop, Exit::Enclosed, Exit::Bounded] {
            assert!(exits.contains(&exit), "no walk of the batch ended by {exit:?}");
        }
        assert!(!exits.contains(&Exit::Pocket));
    }

    mod reference {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// `walk` / `walk_until(.., 1)` equal the hash-set walker node
            /// for node on random fault sets dense enough to hold enclosed
            /// pockets, closed loops and rim-wedged clusters.
            #[test]
            fn walks_equal_the_hash_set_walker(
                ((w, h, density), (seed, o_ix, b_ix)) in
                    ((4u32..15, 4u32..15, 0usize..45), (0u64..u64::MAX, 0usize..4, 0usize..2))
            ) {
                let mesh = Mesh::new(w, h);
                let mut rng = StdRng::seed_from_u64(seed);
                let fs = FaultSet::random(
                    mesh,
                    mesh.len() * density / 100,
                    FaultInjection::Uniform,
                    &mut rng,
                );
                let border = [BorderPolicy::Open, BorderPolicy::Blocking][b_ix];
                let s = MccSet::build(&fs, Orientation::ALL[o_ix], border);
                assert_walks_match_reference(&s);
            }
        }
    }

    #[test]
    fn straight_descent_to_edge() {
        let s = set(Mesh::square(8), &[(4, 6)]);
        let w = walk(&s, Coord::new(2, 5), WalkConfig::WEST_Y);
        assert!(w.reached_edge);
        assert!(w.hits.is_empty());
        let expect: Vec<Coord> = (0..=5).rev().map(|y| Coord::new(2, y)).collect();
        assert_eq!(w.nodes, expect);
    }

    #[test]
    fn west_walk_rounds_a_single_cell() {
        // Obstacle at (5,5); descend column 5 from (5,7). The walk must
        // turn right (west), hug to the obstacle's corner (4,4), and
        // resume descent on column 4.
        let s = set(Mesh::square(10), &[(5, 5)]);
        let w = walk(&s, Coord::new(5, 7), WalkConfig::WEST_Y);
        assert!(w.reached_edge);
        assert_eq!(w.hits.len(), 1);
        assert!(w.nodes.contains(&Coord::new(4, 6)));
        assert!(w.nodes.contains(&Coord::new(4, 4))); // the corner v
        assert!(w.nodes.contains(&Coord::new(4, 0)));
        assert!(!w.nodes.contains(&Coord::new(5, 4))); // never east of wall
    }

    #[test]
    fn east_walk_rounds_via_opposite_corner() {
        let s = set(Mesh::square(10), &[(5, 5)]);
        let w = walk(&s, Coord::new(5, 7), WalkConfig::EAST_Y);
        assert!(w.reached_edge);
        assert!(w.nodes.contains(&Coord::new(6, 6))); // the opposite corner v'
        assert!(w.nodes.contains(&Coord::new(6, 0)));
        assert!(!w.nodes.contains(&Coord::new(4, 4)));
    }

    #[test]
    fn east_walk_climbs_a_staircase_top() {
        // Obstacle cells (5,5),(6,5),(6,6): the east walk from (5,7) must
        // round the NE corner (7,7) and descend column 7.
        let s = set(Mesh::square(10), &[(5, 5), (6, 5), (6, 6)]);
        let w = walk(&s, Coord::new(5, 7), WalkConfig::EAST_Y);
        assert!(w.reached_edge);
        assert!(w.nodes.contains(&Coord::new(7, 7)));
        assert!(w.nodes.contains(&Coord::new(7, 4)));
        assert!(w.nodes.contains(&Coord::new(7, 0)));
    }

    #[test]
    fn south_x_walk_heads_west_and_hugs_south() {
        // Obstacle at (4,5); walk west along row 5 from (7,5): left turn
        // (south), hug to the obstacle's corner (3,4), resume west on row 4.
        let s = set(Mesh::square(10), &[(4, 5)]);
        let w = walk(&s, Coord::new(7, 5), WalkConfig::SOUTH_X);
        assert!(w.reached_edge);
        assert!(w.nodes.contains(&Coord::new(5, 4)));
        assert!(w.nodes.contains(&Coord::new(3, 4))); // corner v
        assert!(w.nodes.contains(&Coord::new(0, 4)));
    }

    #[test]
    fn north_x_walk_rounds_via_opposite_corner() {
        let s = set(Mesh::square(10), &[(4, 5)]);
        let w = walk(&s, Coord::new(7, 5), WalkConfig::NORTH_X);
        assert!(w.reached_edge);
        assert!(w.nodes.contains(&Coord::new(5, 6)));
        assert!(w.nodes.contains(&Coord::new(3, 6))); // past v' = (5,6)
        assert!(w.nodes.contains(&Coord::new(0, 6)));
    }

    #[test]
    fn unsafe_start_yields_empty_walk() {
        let s = set(Mesh::square(8), &[(3, 3)]);
        let w = walk(&s, Coord::new(3, 3), WalkConfig::WEST_Y);
        assert!(w.nodes.is_empty());
        assert!(!w.reached_edge);
    }

    #[test]
    fn split_walk_stops_after_one_disengage() {
        // Two obstacles stacked: the bounded walk rounds only the first.
        let s = set(Mesh::square(12), &[(5, 8), (4, 3)]);
        let w = walk_until(&s, Coord::new(5, 10), WalkConfig::WEST_Y, 1);
        assert!(!w.reached_edge);
        assert_eq!(w.hits.len(), 1);
        // It rounded (5,8) to its corner (4,7) and stopped there.
        assert!(w.nodes.contains(&Coord::new(4, 7)));
        assert!(!w.nodes.contains(&Coord::new(3, 2)));
    }

    #[test]
    fn walls_of_the_mesh_do_not_trap_the_walker() {
        // Obstacle touching the west edge: the west walk cannot pass on
        // the west side and must terminate without looping forever.
        let s = set(Mesh::square(8), &[(0, 4), (1, 4)]);
        let w = walk(&s, Coord::new(0, 6), WalkConfig::WEST_Y);
        assert!(!w.nodes.is_empty());
        // Termination is the property under test; the exact path may hug
        // around the east side of the obstacle.
    }
}
