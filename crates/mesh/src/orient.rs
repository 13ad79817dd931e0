//! Quadrant normalization.
//!
//! The paper fixes, "without loss of generality", `xs = ys = 0` and
//! `xd, yd >= 0`: the destination lies in the `(+X, +Y)` quadrant of the
//! source. For an arbitrary source/destination pair this is realized by
//! reflecting the mesh along zero, one or both axes. [`Orientation`]
//! captures the four reflections; the MCC labeling, boundary construction
//! and routing all operate in *oriented* coordinates and results are mapped
//! back at the edges of the system.

use crate::coord::Coord;
use crate::dir::Dir;
use crate::mesh::Mesh;

/// One of the four axis reflections of a 2-D mesh.
///
/// `flip_x` mirrors `x -> width-1-x`, `flip_y` mirrors `y -> height-1-y`.
/// The identity orientation is the paper's canonical frame (destination
/// north-east of the source).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Orientation {
    /// Mirror the X axis.
    pub flip_x: bool,
    /// Mirror the Y axis.
    pub flip_y: bool,
}

impl Orientation {
    /// The identity orientation (destination already NE of source).
    pub const IDENTITY: Orientation = Orientation { flip_x: false, flip_y: false };

    /// All four orientations, identity first.
    pub const ALL: [Orientation; 4] = [
        Orientation { flip_x: false, flip_y: false },
        Orientation { flip_x: true, flip_y: false },
        Orientation { flip_x: false, flip_y: true },
        Orientation { flip_x: true, flip_y: true },
    ];

    /// A dense index in `0..4` (identity is 0), for orientation-keyed tables.
    #[inline]
    pub fn index(self) -> usize {
        (self.flip_x as usize) | ((self.flip_y as usize) << 1)
    }

    /// The orientation that maps `d` into the `(+X, +Y)` quadrant of `s`.
    ///
    /// Ties (equal coordinate) resolve to "no flip", so a destination due
    /// east or due north of the source uses the identity orientation.
    pub fn normalizing(s: Coord, d: Coord) -> Orientation {
        Orientation { flip_x: d.x < s.x, flip_y: d.y < s.y }
    }

    /// Applies the reflection to a coordinate.
    ///
    /// The map is an involution: `apply(mesh, apply(mesh, c)) == c`. It is
    /// defined for coordinates outside the mesh as well (virtual corners),
    /// reflecting about the same mesh frame.
    #[inline]
    pub fn apply(self, mesh: &Mesh, c: Coord) -> Coord {
        let x = if self.flip_x { mesh.width() as i32 - 1 - c.x } else { c.x };
        let y = if self.flip_y { mesh.height() as i32 - 1 - c.y } else { c.y };
        Coord::new(x, y)
    }

    /// Applies the reflection to a direction.
    #[inline]
    pub fn apply_dir(self, dir: Dir) -> Dir {
        match dir {
            Dir::PlusX | Dir::MinusX if self.flip_x => dir.opposite(),
            Dir::PlusY | Dir::MinusY if self.flip_y => dir.opposite(),
            _ => dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_involutive() {
        let m = Mesh::new(10, 6);
        for o in Orientation::ALL {
            for c in m.iter() {
                assert_eq!(o.apply(&m, o.apply(&m, c)), c);
            }
            // Also for a virtual coordinate outside the mesh.
            let v = Coord::new(-1, 7);
            assert_eq!(o.apply(&m, o.apply(&m, v)), v);
        }
    }

    #[test]
    fn normalizing_puts_destination_north_east() {
        let m = Mesh::square(9);
        let cases = [
            (Coord::new(4, 4), Coord::new(7, 8)),
            (Coord::new(4, 4), Coord::new(1, 8)),
            (Coord::new(4, 4), Coord::new(7, 0)),
            (Coord::new(4, 4), Coord::new(0, 0)),
            (Coord::new(4, 4), Coord::new(4, 4)),
            (Coord::new(4, 4), Coord::new(4, 0)),
        ];
        for (s, d) in cases {
            let o = Orientation::normalizing(s, d);
            let (s2, d2) = (o.apply(&m, s), o.apply(&m, d));
            assert!(d2.x >= s2.x && d2.y >= s2.y, "{s:?}->{d:?} not normalized");
        }
    }

    #[test]
    fn normalization_preserves_manhattan_distance() {
        let m = Mesh::new(12, 7);
        let s = Coord::new(9, 2);
        let d = Coord::new(3, 6);
        let o = Orientation::normalizing(s, d);
        assert_eq!(o.apply(&m, s).manhattan(o.apply(&m, d)), s.manhattan(d));
    }

    #[test]
    fn apply_dir_flips_only_the_mirrored_axis() {
        let o = Orientation { flip_x: true, flip_y: false };
        assert_eq!(o.apply_dir(Dir::PlusX), Dir::MinusX);
        assert_eq!(o.apply_dir(Dir::MinusX), Dir::PlusX);
        assert_eq!(o.apply_dir(Dir::PlusY), Dir::PlusY);
        assert_eq!(o.apply_dir(Dir::MinusY), Dir::MinusY);
    }

    #[test]
    fn apply_dir_is_consistent_with_apply() {
        let m = Mesh::square(8);
        let u = Coord::new(3, 4);
        for o in Orientation::ALL {
            for d in Dir::ALL {
                let stepped_then_mapped = o.apply(&m, u.step(d));
                let mapped_then_stepped = o.apply(&m, u).step(o.apply_dir(d));
                assert_eq!(stepped_then_mapped, mapped_then_stepped);
            }
        }
    }

    #[test]
    fn index_is_dense_and_stable() {
        let mut seen = [false; 4];
        for o in Orientation::ALL {
            seen[o.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(Orientation::IDENTITY.index(), 0);
    }
}
