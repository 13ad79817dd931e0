//! Route execution support: results, detour wall-following, validation.
//! The per-hop decision interface itself lives in [`crate::hop`]; this
//! module keeps the shared walk machinery the deciders build on.

use meshpath_mesh::{Coord, Dir, FxHashSet, HopSeq};

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
    /// Floods whose answer the route took: plans that follow the flood's
    /// path or have neither it nor a pivot, and every blocked phase's flood.
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

/// Hop budget: a backstop, since every route delivers or is refused first.
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
    /// Manhattan distance to the goal from the node where the walk began:
    /// the walk leaves its wall only onto a node strictly closer.
    pub(crate) hit: u32,
    /// `(position, heading)` pairs already taken within this detour; a
    /// repeat means the wall orbit is closed.
    seen: FxHashSet<(Coord, Dir)>,
}

impl Detour {
    /// Starts a detour, `hit` hops from the goal, around an obstacle met
    /// while trying to move in `toward`. Matches the paper's "select `-X`
    /// or `-Y` direction to route around the MCC in clockwise direction":
    /// blocked `+Y` turns `-X` with the obstacle on the right; blocked
    /// `+X` turns `-Y` with the obstacle on the left; negative desired
    /// directions (E-cube on un-normalized frames) mirror those.
    pub(crate) fn around(toward: Dir, hit: u32) -> Detour {
        let (heading, wall) = match toward {
            Dir::PlusY => (Dir::MinusX, Wall::Right),
            Dir::PlusX => (Dir::MinusY, Wall::Left),
            Dir::MinusY => (Dir::PlusX, Wall::Right),
            Dir::MinusX => (Dir::PlusY, Wall::Left),
        };
        Detour { heading, wall, hit, seen: FxHashSet::default() }
    }

    /// One wall-following step from `pos`. `None` when every side is
    /// blocked or the wall orbit closed (a `(position, heading)` taken
    /// before): the walk cannot reach past its wall.
    pub(crate) fn step(&mut self, pos: Coord, free: impl Fn(Coord) -> bool) -> Option<Coord> {
        let prefs = [
            self.wall.wall_dir(self.heading),
            self.heading,
            self.wall.anti_dir(self.heading),
            self.heading.opposite(),
        ];
        let d = prefs.into_iter().find(|&d| free(pos.step(d)))?;
        self.seen.insert((pos, d)).then(|| {
            self.heading = d;
            pos.step(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultSet, Mesh};

    #[test]
    fn detour_walks_around_a_block() {
        // Obstacle nodes (3,3),(4,3); walker south of it at (3,2) wants
        // +Y: detour starts heading -X with the wall on the right.
        let blocked = [Coord::new(3, 3), Coord::new(4, 3)];
        let free = |c: Coord| c.x >= 0 && c.y >= 0 && c.x < 8 && c.y < 8 && !blocked.contains(&c);
        let mut det = Detour::around(Dir::PlusY, 5);
        let mut pos = Coord::new(3, 2);
        let mut trail = vec![pos];
        for _ in 0..10 {
            pos = det.step(pos, free).expect("not trapped");
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
        let mut det = Detour::around(Dir::PlusX, 1);
        assert_eq!(det.step(Coord::new(0, 0), free), None);
    }

    #[test]
    fn a_closed_orbit_refuses() {
        // A 2x2 pocket: the wall-follow orbits it once, then meets a
        // `(position, heading)` it took before and gives up.
        let free = |c: Coord| (0..2).contains(&c.x) && (0..2).contains(&c.y);
        let mut det = Detour::around(Dir::PlusY, 9);
        let mut pos = Coord::new(0, 0);
        let mut trail = vec![pos];
        while let Some(w) = det.step(pos, free) {
            pos = w;
            trail.push(pos);
            assert!(trail.len() <= 5, "the orbit never closed: {trail:?}");
        }
        assert_eq!(trail.len(), 5, "one full orbit of the pocket: {trail:?}");
        assert_eq!((trail[0], trail[4]), (pos, pos));
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
