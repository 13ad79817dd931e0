//! Rectangular regions `[x : x', y : y']`.

use crate::coord::Coord;

/// The paper's rectangular region `[x0 : x1, y0 : y1]` with the four
/// vertexes `(x0,y0)`, `(x0,y1)`, `(x1,y1)`, `(x1,y0)`.
///
/// Degenerate rectangles (`x0 == x1` or `y0 == y1`) represent line
/// segments, matching the paper's notation for boundary lines. Bounds are
/// inclusive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rect {
    /// Smallest x (inclusive).
    pub x0: i32,
    /// Largest x (inclusive).
    pub x1: i32,
    /// Smallest y (inclusive).
    pub y0: i32,
    /// Largest y (inclusive).
    pub y1: i32,
}

impl Rect {
    /// Creates a rectangle, normalizing the corner order.
    pub fn new(a: Coord, b: Coord) -> Self {
        Rect { x0: a.x.min(b.x), x1: a.x.max(b.x), y0: a.y.min(b.y), y1: a.y.max(b.y) }
    }

    /// The rectangle spanned by a single point.
    pub fn point(c: Coord) -> Self {
        Rect::new(c, c)
    }

    /// True when `c` lies inside the rectangle (inclusive bounds).
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        self.x0 <= c.x && c.x <= self.x1 && self.y0 <= c.y && c.y <= self.y1
    }

    /// Grows the rectangle to include `c`.
    pub fn expand(&mut self, c: Coord) {
        self.x0 = self.x0.min(c.x);
        self.x1 = self.x1.max(c.x);
        self.y0 = self.y0.min(c.y);
        self.y1 = self.y1.max(c.y);
    }

    /// Width in nodes (inclusive bounds).
    #[inline]
    pub fn width(&self) -> u32 {
        (self.x1 - self.x0 + 1) as u32
    }

    /// Height in nodes (inclusive bounds).
    #[inline]
    pub fn height(&self) -> u32 {
        (self.y1 - self.y0 + 1) as u32
    }

    /// Number of nodes covered.
    pub fn area(&self) -> u64 {
        self.width() as u64 * self.height() as u64
    }

    /// Iterator over all coordinates in the rectangle, row-major.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| Coord::new(x, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(Coord::new(5, 1), Coord::new(2, 4));
        assert_eq!(r, Rect { x0: 2, x1: 5, y0: 1, y1: 4 });
        assert!(r.contains(Coord::new(3, 2)));
        assert!(!r.contains(Coord::new(6, 2)));
    }

    #[test]
    fn degenerate_rect_is_a_segment() {
        let seg = Rect::new(Coord::new(3, 0), Coord::new(3, 9));
        assert_eq!(seg.width(), 1);
        assert_eq!(seg.height(), 10);
        assert_eq!(seg.area(), 10);
        assert!(seg.contains(Coord::new(3, 5)));
        assert!(!seg.contains(Coord::new(4, 5)));
    }

    #[test]
    fn iter_covers_area() {
        let r = Rect::new(Coord::new(1, 1), Coord::new(3, 2));
        assert_eq!(r.iter().count() as u64, r.area());
        assert_eq!(r.area(), 6);
    }

    #[test]
    fn expand_grows_bounds() {
        let mut r = Rect::point(Coord::new(2, 2));
        r.expand(Coord::new(0, 5));
        assert_eq!(r, Rect { x0: 0, x1: 2, y0: 2, y1: 5 });
    }
}
