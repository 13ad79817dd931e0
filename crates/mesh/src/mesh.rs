//! Mesh dimensions, node indexing and neighbor arithmetic.

use crate::coord::Coord;
use crate::dir::Dir;

/// A dense node identifier: `id = y * width + x`.
///
/// `NodeId` is a `u32` to keep per-node tables compact (a `100 x 100` mesh
/// has 10 000 nodes; `u32` supports meshes up to `65536 x 65536`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dimensions of a 2-D mesh (`width x height` nodes).
///
/// The paper uses square `n x n` meshes; rectangular meshes are supported
/// because nothing in the algorithms requires squareness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh {
    width: u32,
    height: u32,
}

impl Mesh {
    /// Creates a `width x height` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero or if the node count would
    /// overflow `u32`.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            (width as u64) * (height as u64) <= u32::MAX as u64,
            "mesh too large for u32 node ids"
        );
        Mesh { width, height }
    }

    /// Creates the square `n x n` mesh used throughout the paper.
    pub fn square(n: u32) -> Self {
        Mesh::new(n, n)
    }

    /// Mesh width (number of columns).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height (number of rows).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Always false: meshes have at least one node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when `c` addresses a node of this mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= 0 && c.y >= 0 && (c.x as u32) < self.width && (c.y as u32) < self.height
    }

    /// Maps an in-mesh coordinate to its dense id.
    ///
    /// # Panics
    /// Panics (debug) if `c` is outside the mesh.
    #[inline]
    pub fn id(&self, c: Coord) -> NodeId {
        debug_assert!(self.contains(c), "coordinate {c:?} outside {self:?}");
        NodeId((c.y as u32) * self.width + (c.x as u32))
    }

    /// Maps an in-mesh coordinate to its dense id, or `None` when outside.
    #[inline]
    pub fn try_id(&self, c: Coord) -> Option<NodeId> {
        self.contains(c).then(|| self.id(c))
    }

    /// Inverse of [`Mesh::id`].
    #[inline]
    pub fn coord(&self, id: NodeId) -> Coord {
        let x = id.0 % self.width;
        let y = id.0 / self.width;
        debug_assert!(y < self.height, "node id {id:?} outside {self:?}");
        Coord::new(x as i32, y as i32)
    }

    /// The in-mesh neighbor of `c` in direction `dir`, if any.
    #[inline]
    pub(crate) fn neighbor(&self, c: Coord, dir: Dir) -> Option<Coord> {
        let n = c.step(dir);
        self.contains(n).then_some(n)
    }

    /// Iterator over the in-mesh neighbors of `c` (2 to 4 of them).
    pub fn neighbors(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        Dir::ALL.into_iter().filter_map(move |d| self.neighbor(c, d))
    }

    /// Iterator over all node coordinates in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width as i32, self.height as i32);
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Iterator over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip() {
        let m = Mesh::new(7, 5);
        for c in m.iter() {
            assert_eq!(m.coord(m.id(c)), c);
        }
        assert_eq!(m.iter().count(), m.len());
    }

    #[test]
    fn contains_rejects_out_of_bounds() {
        let m = Mesh::square(4);
        assert!(m.contains(Coord::new(0, 0)));
        assert!(m.contains(Coord::new(3, 3)));
        assert!(!m.contains(Coord::new(-1, 0)));
        assert!(!m.contains(Coord::new(0, 4)));
        assert!(!m.contains(Coord::new(4, 0)));
    }

    #[test]
    fn corner_nodes_have_two_neighbors() {
        let m = Mesh::square(5);
        assert_eq!(m.neighbors(Coord::new(0, 0)).count(), 2);
        assert_eq!(m.neighbors(Coord::new(4, 4)).count(), 2);
        assert_eq!(m.neighbors(Coord::new(0, 2)).count(), 3);
        assert_eq!(m.neighbors(Coord::new(2, 2)).count(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Mesh::new(0, 3);
    }
}
