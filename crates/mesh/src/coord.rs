//! Signed 2-D coordinates and the Manhattan metric.

use std::fmt;
use std::ops::{Add, Sub};

use crate::dir::Dir;

/// A node address `(x, y)` in a 2-D mesh.
///
/// Coordinates are signed (`i32`) even though mesh nodes live in
/// `[0, n) x [0, n)`: the routing algorithms of the paper reason about
/// *virtual corners* of fault regions that can lie one step outside the
/// mesh (e.g. the initialization corner of an MCC touching the mesh edge),
/// and signed arithmetic keeps those expressions total.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Position along the X dimension.
    pub x: i32,
    /// Position along the Y dimension.
    pub y: i32,
}

impl Coord {
    /// Creates a coordinate from its two components.
    #[inline]
    pub const fn new(x: i32, y: i32) -> Self {
        Coord { x, y }
    }

    /// The Manhattan (geographic) distance `|xu - xv| + |yu - yv|`,
    /// written `M(u, v)` in the paper.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// The neighbor of this coordinate in direction `dir`
    /// (may fall outside any particular mesh).
    #[inline]
    pub fn step(self, dir: Dir) -> Coord {
        let (dx, dy) = dir.offset();
        Coord::new(self.x + dx, self.y + dy)
    }

    /// All four neighbor coordinates, in `[+X, -X, +Y, -Y]` order.
    #[inline]
    pub fn neighbors(self) -> [Coord; 4] {
        [
            self.step(Dir::PlusX),
            self.step(Dir::MinusX),
            self.step(Dir::PlusY),
            self.step(Dir::MinusY),
        ]
    }

    /// The direction of a single-step move from `self` to `to`, if the two
    /// coordinates are mesh neighbors.
    pub fn dir_to(self, to: Coord) -> Option<Dir> {
        match (to.x - self.x, to.y - self.y) {
            (1, 0) => Some(Dir::PlusX),
            (-1, 0) => Some(Dir::MinusX),
            (0, 1) => Some(Dir::PlusY),
            (0, -1) => Some(Dir::MinusY),
            _ => None,
        }
    }

    /// True when `other` is one of the four mesh neighbors of `self`.
    #[inline]
    pub fn is_neighbor(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }
}

impl Add<(i32, i32)> for Coord {
    type Output = Coord;
    #[inline]
    fn add(self, (dx, dy): (i32, i32)) -> Coord {
        Coord::new(self.x + dx, self.y + dy)
    }
}

impl Sub for Coord {
    type Output = (i32, i32);
    #[inline]
    fn sub(self, rhs: Coord) -> (i32, i32) {
        (self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Coord {
    #[inline]
    fn from((x, y): (i32, i32)) -> Self {
        Coord::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_basics() {
        let a = Coord::new(0, 0);
        let b = Coord::new(3, 4);
        assert_eq!(a.manhattan(b), 7);
        assert_eq!(b.manhattan(a), 7);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn manhattan_handles_negative_coordinates() {
        let a = Coord::new(-2, -3);
        let b = Coord::new(1, 1);
        assert_eq!(a.manhattan(b), 7);
    }

    #[test]
    fn step_and_dir_to_are_inverse() {
        let u = Coord::new(5, 5);
        for dir in Dir::ALL {
            let v = u.step(dir);
            assert_eq!(u.dir_to(v), Some(dir));
            assert_eq!(u.manhattan(v), 1);
        }
    }

    #[test]
    fn dir_to_rejects_non_neighbors() {
        let u = Coord::new(0, 0);
        assert_eq!(u.dir_to(Coord::new(1, 1)), None);
        assert_eq!(u.dir_to(Coord::new(2, 0)), None);
        assert_eq!(u.dir_to(u), None);
    }

    #[test]
    fn neighbors_order_matches_paper_convention() {
        let u = Coord::new(2, 2);
        let n = u.neighbors();
        assert_eq!(n[0], Coord::new(3, 2)); // +X
        assert_eq!(n[1], Coord::new(1, 2)); // -X
        assert_eq!(n[2], Coord::new(2, 3)); // +Y
        assert_eq!(n[3], Coord::new(2, 1)); // -Y
    }
}
