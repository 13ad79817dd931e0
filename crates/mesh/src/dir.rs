//! The four mesh directions and the two axes.

use std::fmt;

/// One of the two dimensions of a 2-D mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    /// The X dimension.
    X,
    /// The Y dimension.
    Y,
}

impl Axis {
    /// The other axis.
    #[inline]
    pub fn other(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }

    /// The positive direction along this axis.
    #[inline]
    pub fn plus(self) -> Dir {
        match self {
            Axis::X => Dir::PlusX,
            Axis::Y => Dir::PlusY,
        }
    }

    /// The negative direction along this axis.
    #[inline]
    pub fn minus(self) -> Dir {
        match self {
            Axis::X => Dir::MinusX,
            Axis::Y => Dir::MinusY,
        }
    }
}

/// A unit move in the mesh: `+X`, `-X`, `+Y` or `-Y`.
///
/// The paper's labeling rules and routing decisions are all phrased in
/// terms of these four directions (`(x+1, y)` is the `+X` neighbor, and so
/// on).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Towards increasing `x`.
    PlusX,
    /// Towards decreasing `x`.
    MinusX,
    /// Towards increasing `y`.
    PlusY,
    /// Towards decreasing `y`.
    MinusY,
}

impl Dir {
    /// All four directions, in `[+X, -X, +Y, -Y]` order.
    pub const ALL: [Dir; 4] = [Dir::PlusX, Dir::MinusX, Dir::PlusY, Dir::MinusY];

    /// The coordinate offset `(dx, dy)` of a unit step in this direction.
    #[inline]
    pub(crate) const fn offset(self) -> (i32, i32) {
        match self {
            Dir::PlusX => (1, 0),
            Dir::MinusX => (-1, 0),
            Dir::PlusY => (0, 1),
            Dir::MinusY => (0, -1),
        }
    }

    /// The opposite direction.
    #[inline]
    pub const fn opposite(self) -> Dir {
        match self {
            Dir::PlusX => Dir::MinusX,
            Dir::MinusX => Dir::PlusX,
            Dir::PlusY => Dir::MinusY,
            Dir::MinusY => Dir::PlusY,
        }
    }

    /// The axis this direction moves along.
    #[inline]
    pub const fn axis(self) -> Axis {
        match self {
            Dir::PlusX | Dir::MinusX => Axis::X,
            Dir::PlusY | Dir::MinusY => Axis::Y,
        }
    }

    /// The direction obtained by a 90-degree clockwise turn, where
    /// "clockwise" is in the standard mathematical plane with `+X` east and
    /// `+Y` north (so clockwise of north is east).
    #[inline]
    pub const fn clockwise(self) -> Dir {
        match self {
            Dir::PlusY => Dir::PlusX,
            Dir::PlusX => Dir::MinusY,
            Dir::MinusY => Dir::MinusX,
            Dir::MinusX => Dir::PlusY,
        }
    }

    /// The direction obtained by a 90-degree counter-clockwise turn.
    #[inline]
    pub const fn counter_clockwise(self) -> Dir {
        match self {
            Dir::PlusX => Dir::PlusY,
            Dir::PlusY => Dir::MinusX,
            Dir::MinusX => Dir::MinusY,
            Dir::MinusY => Dir::PlusX,
        }
    }
}

impl fmt::Debug for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::PlusX => "+X",
            Dir::MinusX => "-X",
            Dir::PlusY => "+Y",
            Dir::MinusY => "-Y",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites_are_involutive() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn clockwise_cycles_in_four() {
        for d in Dir::ALL {
            assert_eq!(d.clockwise().clockwise().clockwise().clockwise(), d);
            assert_eq!(d.clockwise().clockwise(), d.opposite());
        }
    }

    #[test]
    fn counter_clockwise_inverts_clockwise() {
        for d in Dir::ALL {
            assert_eq!(d.clockwise().counter_clockwise(), d);
            assert_eq!(d.counter_clockwise().clockwise(), d);
        }
    }

    #[test]
    fn axis_round_trip() {
        assert_eq!(Axis::X.plus(), Dir::PlusX);
        assert_eq!(Axis::Y.minus(), Dir::MinusY);
        for d in Dir::ALL {
            if matches!(d, Dir::PlusX | Dir::PlusY) {
                assert_eq!(d.axis().plus(), d);
            } else {
                assert_eq!(d.axis().minus(), d);
            }
        }
    }

    #[test]
    fn offsets_are_unit_steps() {
        for d in Dir::ALL {
            let (dx, dy) = d.offset();
            assert_eq!(dx.abs() + dy.abs(), 1);
        }
    }
}
