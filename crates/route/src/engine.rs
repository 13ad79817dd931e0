//! Route execution support: results, detour wall-following, validation.
//! The per-hop decision interface itself lives in [`crate::hop`]; this
//! module keeps the shared walk machinery the deciders build on.

use meshpath_mesh::{Coord, Dir, FxHashSet, HopSeq, Mesh};

use crate::env::Network;

/// The outcome of routing one message: the walk it took, as its source
/// and hop directions, plus the engine's per-message statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteResult {
    /// Where the walk starts. Real coordinates.
    pub src: Coord,
    /// Every hop taken, in order.
    pub dirs: HopSeq,
    /// True when the destination was reached within the hop budget.
    pub delivered: bool,
    /// Number of re-planning events (blocked phases, observed obstacles).
    pub replans: u32,
    /// Number of BFS-fallback plans (outside the paper's Eq.-3 options).
    pub fallbacks: u32,
    /// Hops spent in wall-following detours.
    pub detour_hops: u32,
}

impl RouteResult {
    /// Path length in hops.
    #[inline]
    pub fn hops(&self) -> u32 {
        self.dirs.len() as u32
    }

    /// Every node visited, source first (`hops() + 1` nodes), walked
    /// lazily from [`src`](RouteResult::src) along
    /// [`dirs`](RouteResult::dirs).
    pub fn path(&self) -> impl Iterator<Item = Coord> + '_ {
        let walk = self.dirs.iter().scan(self.src, |at, dir| {
            *at = at.step(dir);
            Some(*at)
        });
        std::iter::once(self.src).chain(walk)
    }
}

/// Hop budget: generous, but finite (protects the harness from livelock).
pub(crate) fn hop_budget(net: &Network) -> usize {
    net.mesh().len() * 8
}

/// Checks that a result is a real walk: starts at `s`, stays on the
/// mesh, visits no faulty node and, when delivered, ends at `d`. (Hops
/// are directions, so every hop joins neighbors by construction.)
pub fn validate_path(net: &Network, s: Coord, d: Coord, res: &RouteResult) -> Result<(), String> {
    if res.src != s {
        return Err(format!("path must start at {s:?}"));
    }
    let mut end = s;
    // Stops at the first node off the mesh, so the walk's coordinates
    // never run further than one step past an edge.
    for c in res.path() {
        if !net.mesh().contains(c) {
            return Err(format!("path leaves the mesh at {c:?}"));
        }
        if net.faults().is_faulty(c) {
            return Err(format!("path visits faulty node {c:?}"));
        }
        end = c;
    }
    if res.delivered && end != d {
        return Err(format!("delivered path must end at {d:?}"));
    }
    Ok(())
}

/// Which side the obstacle is kept on during a wall-following detour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wall {
    /// Obstacle on the left of the heading.
    Left,
    /// Obstacle on the right.
    Right,
}

impl Wall {
    #[inline]
    fn wall_dir(self, heading: Dir) -> Dir {
        match self {
            Wall::Left => heading.counter_clockwise(),
            Wall::Right => heading.clockwise(),
        }
    }

    #[inline]
    fn anti_dir(self, heading: Dir) -> Dir {
        self.wall_dir(heading).opposite()
    }
}

/// Wall-following detour state (Algorithm 3 step 3, E-cube f-rings).
#[derive(Clone, Debug)]
pub(crate) struct Detour {
    heading: Dir,
    wall: Wall,
    /// `(position, heading)` pairs already taken within this detour; a
    /// repeat means the wall orbit is closed (dead-end pocket) and the
    /// walk escalates to the least-visited escape.
    seen: FxHashSet<(Coord, Dir)>,
    /// Set once the wall orbit closed; the owner should drop this detour
    /// after the current step.
    pub(crate) exhausted: bool,
}

impl Detour {
    /// Starts a detour around an obstacle met while trying to move in
    /// `toward`. Matches the paper's "select `-X` or `-Y` direction to
    /// route around the MCC in clockwise direction": blocked `+Y` turns
    /// `-X` with the obstacle on the right; blocked `+X` turns `-Y` with
    /// the obstacle on the left; negative desired directions (E-cube on
    /// un-normalized frames) mirror those.
    pub(crate) fn around(toward: Dir) -> Detour {
        let (heading, wall) = match toward {
            Dir::PlusY => (Dir::MinusX, Wall::Right),
            Dir::PlusX => (Dir::MinusY, Wall::Left),
            Dir::MinusY => (Dir::PlusX, Wall::Right),
            Dir::MinusX => (Dir::PlusY, Wall::Left),
        };
        Detour { heading, wall, seen: FxHashSet::default(), exhausted: false }
    }

    /// One wall-following step from `pos`. When the wall orbit closes (a
    /// dead-end pocket) the step degrades to the least-visited escape walk
    /// and marks the detour [`exhausted`](Detour::exhausted). Returns
    /// `None` only when every neighbor is blocked.
    pub(crate) fn step(
        &mut self,
        pos: Coord,
        free: impl Fn(Coord) -> bool,
        visited: &Visited,
    ) -> Option<Coord> {
        if !self.exhausted {
            let prefs = [
                self.wall.wall_dir(self.heading),
                self.heading,
                self.wall.anti_dir(self.heading),
                self.heading.opposite(),
            ];
            for d in prefs {
                let v = pos.step(d);
                if free(v) {
                    if self.seen.insert((pos, d)) {
                        self.heading = d;
                        return Some(v);
                    }
                    // Closed orbit: fall through to the escape walk.
                    self.exhausted = true;
                    break;
                }
            }
            if !self.exhausted {
                // All four sides blocked.
                return None;
            }
        }
        least_visited_step(pos, free, visited)
    }
}

/// The last-resort escape walk: steps to the least-visited free neighbor.
///
/// A rotor-router-style walk visits every node of a finite connected
/// region infinitely often, so a route that falls back to it cannot
/// livelock in a dead-end pocket — it pays hops instead (which the
/// relative-error metric reports honestly).
pub(crate) fn least_visited_step(
    pos: Coord,
    free: impl Fn(Coord) -> bool,
    visited: &Visited,
) -> Option<Coord> {
    Dir::ALL.into_iter().map(|d| pos.step(d)).filter(|&v| free(v)).min_by_key(|&v| visited.count(v))
}

/// Tracks how often each node was visited: used to decide when leaving a
/// detour is safe (re-entering a previously visited node invites a
/// livelock) and to drive the least-visited escape walk.
///
/// A generation-stamped count per node id, laid out for the mesh when a
/// walk begins ([`Visited::begin`]) — like the planner's `FloodScratch`:
/// a hop is one array write, and a new message invalidates every count
/// by moving to the next generation instead of clearing a grown map.
#[derive(Debug)]
pub(crate) struct Visited {
    /// The message's first node, visited once before any hop (kept
    /// apart so a state is usable before a mesh is known).
    start: Coord,
    /// The mesh `marks` is indexed for; `None` until a walk begins.
    mesh: Option<Mesh>,
    /// `generation << 32 | hops onto the node` per node id; a count is
    /// live when its generation is the current one.
    marks: Vec<u64>,
    /// Never 0, so a zeroed mark is never live.
    generation: u32,
}

impl Visited {
    pub(crate) fn new(start: Coord) -> Self {
        Visited { start, mesh: None, marks: Vec::new(), generation: 1 }
    }

    /// Resets to a fresh message starting at `start`, keeping the
    /// table's allocation (the batch-reuse path; see
    /// [`HopState::reset`]).
    ///
    /// [`HopState::reset`]: crate::HopState::reset
    pub(crate) fn reset(&mut self, start: Coord) {
        self.start = start;
        self.mesh = None;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: counts of 2^32 messages ago would read as live.
            self.marks.fill(0);
            self.generation = 1;
        }
    }

    /// Lays the table out for a walk over `mesh` (counts of the current
    /// message survive when it already is).
    pub(crate) fn begin(&mut self, mesh: &Mesh) {
        if self.mesh == Some(*mesh) {
            return;
        }
        debug_assert!(self.mesh.is_none(), "a message walks one mesh");
        self.mesh = Some(*mesh);
        if self.marks.len() < mesh.len() {
            // No mark is live when the layout changes, so growing is a
            // fresh zeroed allocation: a one-message state pays for the
            // pages its walk marks, not for the mesh.
            self.marks = vec![0; mesh.len()];
        }
    }

    /// Counts a hop onto in-mesh `c`.
    ///
    /// # Panics
    /// Panics when no walk has [begun](Visited::begin).
    pub(crate) fn insert(&mut self, c: Coord) {
        let id = self.mesh.expect("a walk begins before it hops").id(c).index();
        let mark = &mut self.marks[id];
        if (*mark >> 32) as u32 != self.generation {
            *mark = u64::from(self.generation) << 32;
        }
        *mark += 1;
    }

    /// How often the message has been at `c` (0 outside the mesh).
    #[inline]
    pub(crate) fn count(&self, c: Coord) -> u32 {
        let hops = match self.mesh.and_then(|m| m.try_id(c)) {
            Some(id) => {
                let mark = self.marks[id.index()];
                if (mark >> 32) as u32 == self.generation {
                    mark as u32
                } else {
                    0
                }
            }
            None => 0,
        };
        hops + u32::from(c == self.start)
    }

    pub(crate) fn contains(&self, c: Coord) -> bool {
        self.count(c) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::FaultSet;

    #[test]
    fn detour_walks_around_a_block() {
        // Obstacle nodes (3,3),(4,3); walker south of it at (3,2) wants
        // +Y: detour starts heading -X with the wall on the right.
        let blocked = [Coord::new(3, 3), Coord::new(4, 3)];
        let free = |c: Coord| c.x >= 0 && c.y >= 0 && c.x < 8 && c.y < 8 && !blocked.contains(&c);
        let mut det = Detour::around(Dir::PlusY);
        let mut pos = Coord::new(3, 2);
        let visited = Visited::new(pos);
        let mut trail = vec![pos];
        for _ in 0..10 {
            pos = det.step(pos, free, &visited).expect("not trapped");
            trail.push(pos);
            // Stop once north of the obstacle row.
            if pos.y > 3 {
                break;
            }
        }
        assert!(trail.contains(&Coord::new(2, 2)));
        assert!(pos.y > 3, "detour must eventually clear the wall: {trail:?}");
    }

    #[test]
    fn detour_none_when_trapped() {
        let free = |_: Coord| false;
        let mut det = Detour::around(Dir::PlusX);
        let visited = Visited::new(Coord::new(0, 0));
        assert_eq!(det.step(Coord::new(0, 0), free, &visited), None);
    }

    #[test]
    fn closed_orbit_degrades_to_escape_walk() {
        // A 2x2 pocket: the wall-follow orbits it, detects the repeat and
        // switches to least-visited escape instead of returning None.
        let free = |c: Coord| (0..2).contains(&c.x) && (0..2).contains(&c.y);
        let mut det = Detour::around(Dir::PlusY);
        let mut visited = Visited::new(Coord::new(0, 0));
        visited.begin(&Mesh::square(2));
        let mut pos = Coord::new(0, 0);
        let mut steps = 0;
        for _ in 0..12 {
            match det.step(pos, free, &visited) {
                Some(w) => {
                    pos = w;
                    visited.insert(pos);
                    steps += 1;
                }
                None => break,
            }
        }
        assert!(steps >= 6, "escape walk must keep moving inside the pocket");
        assert!(det.exhausted, "orbit detection must have fired");
    }

    #[test]
    fn visited_counts_per_message_and_forgets_on_reset() {
        let (a, b) = (Coord::new(1, 0), Coord::new(2, 1));
        let mut visited = Visited::new(a);
        // Before a walk begins only the start counts.
        assert_eq!((visited.count(a), visited.count(b)), (1, 0));
        visited.begin(&Mesh::new(3, 2));
        for c in [b, a, b] {
            visited.insert(c);
        }
        assert_eq!((visited.count(a), visited.count(b)), (2, 2));
        assert!(!visited.contains(Coord::new(0, 1)));
        assert_eq!(visited.count(Coord::new(3, 0)), 0, "off the mesh, not the next row");
        // A reused state starts the next message clean, on any mesh.
        visited.reset(b);
        visited.begin(&Mesh::new(4, 2));
        assert_eq!((visited.count(a), visited.count(b)), (0, 1));
        visited.insert(a);
        assert_eq!(visited.count(a), 1);
    }

    /// A result walking `dirs` from `src`, no statistics.
    fn walk(src: Coord, dirs: &[Dir], delivered: bool) -> RouteResult {
        RouteResult {
            src,
            dirs: dirs.iter().copied().collect(),
            delivered,
            replans: 0,
            fallbacks: 0,
            detour_hops: 0,
        }
    }

    #[test]
    fn validate_rejects_broken_paths() {
        use Dir::{MinusX, PlusX, PlusY};
        let net = Network::build(FaultSet::from_coords(Mesh::square(5), [Coord::new(2, 2)]));
        let s = Coord::new(0, 0);
        let off_mesh = walk(s, &[PlusX, MinusX, MinusX, PlusX, PlusX], true);
        assert_eq!(
            validate_path(&net, s, Coord::new(1, 0), &off_mesh),
            Err("path leaves the mesh at (-1,0)".to_string())
        );
        // Far off the mesh: an error at the first step out, not an
        // overflowing coordinate walk.
        let far_off = walk(Coord::new(4, 4), &[PlusY; 300], false);
        assert!(validate_path(&net, Coord::new(4, 4), s, &far_off).is_err());
        let ends_elsewhere = walk(s, &[PlusX, PlusY], true);
        assert_eq!(
            validate_path(&net, s, Coord::new(4, 4), &ends_elsewhere),
            Err("delivered path must end at (4,4)".to_string())
        );
        let wrong_start = walk(Coord::new(1, 0), &[PlusY], true);
        assert!(validate_path(&net, s, Coord::new(1, 1), &wrong_start).is_err());
        let through_fault = walk(s, &[PlusX, PlusX, PlusY, PlusY], false);
        assert!(validate_path(&net, s, Coord::new(2, 2), &through_fault).is_err());
        let ok = walk(s, &[PlusX, PlusY], true);
        assert!(validate_path(&net, s, Coord::new(1, 1), &ok).is_ok());
        // An undelivered walk may stop anywhere healthy.
        assert!(validate_path(&net, s, Coord::new(4, 4), &walk(s, &[PlusX, PlusY], false)).is_ok());
    }

    #[test]
    fn route_result_hops_and_path() {
        let r = walk(Coord::new(0, 0), &[], false);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.path().collect::<Vec<_>>(), [Coord::new(0, 0)]);
        let r = walk(Coord::new(2, 1), &[Dir::PlusY, Dir::MinusX, Dir::MinusY], false);
        assert_eq!(r.hops(), 3);
        assert_eq!(
            r.path().collect::<Vec<_>>(),
            [Coord::new(2, 1), Coord::new(2, 2), Coord::new(1, 2), Coord::new(1, 1)]
        );
    }

    /// A cache entry is a `RouteResult`: growth here is `peak_rss_mb`
    /// on the warm-service workload.
    #[test]
    fn route_result_stays_within_64_bytes() {
        assert!(std::mem::size_of::<RouteResult>() <= 64, "{}", std::mem::size_of::<RouteResult>());
    }
}
