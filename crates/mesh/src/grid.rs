//! Dense per-node storage: `Grid<T>` and the bit-packed `BitGrid`.

use std::ops::{Index, IndexMut};

use crate::coord::Coord;
use crate::mesh::{Mesh, NodeId};

/// A dense map from mesh nodes to values of type `T`, stored row-major.
///
/// Grids deliberately index by [`Coord`] and [`NodeId`] rather than
/// exposing raw offsets; this keeps hot loops allocation-free while staying
/// bounds-checked (per the workspace `forbid(unsafe_code)` policy).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grid<T> {
    mesh: Mesh,
    cells: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every cell set to `fill`.
    pub fn new(mesh: Mesh, fill: T) -> Self {
        Grid { mesh, cells: vec![fill; mesh.len()] }
    }
}

impl<T> Grid<T> {
    /// Builds a grid by evaluating `f` at every coordinate (row-major).
    pub fn from_fn(mesh: Mesh, mut f: impl FnMut(Coord) -> T) -> Self {
        let mut cells = Vec::with_capacity(mesh.len());
        for c in mesh.iter() {
            cells.push(f(c));
        }
        Grid { mesh, cells }
    }

    /// The mesh this grid is defined over.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Value at `c`, or `None` when `c` is outside the mesh.
    #[inline]
    pub fn get(&self, c: Coord) -> Option<&T> {
        self.mesh.try_id(c).map(|id| &self.cells[id.index()])
    }

    /// Mutable value at `c`, or `None` when `c` is outside the mesh.
    #[inline]
    pub fn get_mut(&mut self, c: Coord) -> Option<&mut T> {
        self.mesh.try_id(c).map(|id| &mut self.cells[id.index()])
    }

    /// Iterator over `(coordinate, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, &T)> {
        self.mesh.iter().zip(self.cells.iter())
    }

    /// The raw row-major cell slice.
    pub fn as_slice(&self) -> &[T] {
        &self.cells
    }
}

impl<T> Index<Coord> for Grid<T> {
    type Output = T;
    #[inline]
    fn index(&self, c: Coord) -> &T {
        &self.cells[self.mesh.id(c).index()]
    }
}

impl<T> IndexMut<Coord> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, c: Coord) -> &mut T {
        &mut self.cells[self.mesh.id(c).index()]
    }
}

impl<T> Index<NodeId> for Grid<T> {
    type Output = T;
    #[inline]
    fn index(&self, id: NodeId) -> &T {
        &self.cells[id.index()]
    }
}

impl<T> IndexMut<NodeId> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.cells[id.index()]
    }
}

/// A bit-packed set of mesh nodes.
///
/// Used for fault sets, visited sets and "nodes involved in propagation"
/// counters, where a full `Grid<bool>` would waste 8x the memory and the
/// popcount-based [`BitGrid::count`] matters for the statistics pipeline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitGrid {
    mesh: Mesh,
    words: Vec<u64>,
    ones: usize,
}

impl BitGrid {
    /// Creates an empty bit grid over `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        BitGrid { mesh, words: vec![0; mesh.len().div_ceil(64)], ones: 0 }
    }

    /// The mesh this set is defined over.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// True when the node at `c` is in the set. Out-of-mesh coordinates
    /// report `false`.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        match self.mesh.try_id(c) {
            Some(id) => self.contains_id(id),
            None => false,
        }
    }

    /// True when node `id` is in the set.
    #[inline]
    pub(crate) fn contains_id(&self, id: NodeId) -> bool {
        let i = id.index();
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts the node at `c`; returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics (debug) when `c` lies outside the mesh.
    pub fn insert(&mut self, c: Coord) -> bool {
        self.insert_id(self.mesh.id(c))
    }

    /// Inserts node `id`; returns whether it was newly inserted.
    pub(crate) fn insert_id(&mut self, id: NodeId) -> bool {
        let i = id.index();
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Inserts the nodes of row `y` from column `x0` to column `x1`
    /// (inclusive, clamped to the mesh) that `mask` holds too; returns how
    /// many were newly inserted. Costs the words the span covers, not its
    /// nodes: each is one `or` of `range & mask & !self` and a popcount.
    ///
    /// # Panics
    /// Panics when `y` is not a row of the mesh or `mask` is over another
    /// mesh.
    pub fn insert_row_masked(&mut self, y: i32, x0: i32, x1: i32, mask: &BitGrid) -> usize {
        assert_eq!(self.mesh, mask.mesh, "BitGrid meshes differ");
        let width = self.mesh.width() as i32;
        assert!(0 <= y && (y as u32) < self.mesh.height(), "row {y} outside {:?}", self.mesh);
        let (x0, x1) = (x0.max(0), x1.min(width - 1));
        if x0 > x1 {
            return 0;
        }
        let (lo, hi) = ((y * width + x0) as usize, (y * width + x1) as usize);
        let (first, last) = (lo / 64, hi / 64);
        let mut added = 0usize;
        for i in first..=last {
            let mut range = u64::MAX;
            if i == first {
                range &= u64::MAX << (lo % 64);
            }
            if i == last {
                range &= u64::MAX >> (63 - hi % 64);
            }
            let new = range & mask.words[i] & !self.words[i];
            self.words[i] |= new;
            added += new.count_ones() as usize;
        }
        self.ones += added;
        added
    }

    /// Removes the node at `c`; returns whether it was present.
    pub fn remove(&mut self, c: Coord) -> bool {
        let i = self.mesh.id(c).index();
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & mask != 0 {
            *word &= !mask;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Number of nodes in the set (O(1)).
    #[inline]
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Iterator over the coordinates in the set, in row-major order.
    ///
    /// Skips zero words, so a sweep costs O(nodes / 64 + members) — on a
    /// large, mostly-empty set (the common fault-set shape at scale) this
    /// is ~64x cheaper than testing every node.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| {
                let id = NodeId((wi as u32) * 64 + w.trailing_zeros());
                self.mesh.coord(id)
            })
        })
    }

    /// In-place union; both grids must share a mesh.
    pub fn union_with(&mut self, other: &BitGrid) {
        self.union_with_all([other]);
    }

    /// In-place union with every grid of `others`, all over this grid's
    /// mesh: one `or` a word a grid, and the count taken once at the end.
    pub fn union_with_all<'a>(&mut self, others: impl IntoIterator<Item = &'a BitGrid>) {
        for other in others {
            assert_eq!(self.mesh, other.mesh, "BitGrid meshes differ");
            for (a, b) in self.words.iter_mut().zip(&other.words) {
                *a |= *b;
            }
        }
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_index_round_trip() {
        let m = Mesh::new(4, 3);
        let mut g = Grid::new(m, 0u32);
        g[Coord::new(2, 1)] = 42;
        assert_eq!(g[Coord::new(2, 1)], 42);
        assert_eq!(g[m.id(Coord::new(2, 1))], 42);
        assert_eq!(g.get(Coord::new(9, 9)), None);
    }

    #[test]
    fn grid_from_fn_row_major() {
        let m = Mesh::new(3, 2);
        let g = Grid::from_fn(m, |c| c.x + 10 * c.y);
        assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn bitgrid_insert_remove_count() {
        let m = Mesh::square(10);
        let mut b = BitGrid::new(m);
        assert!(b.insert(Coord::new(3, 3)));
        assert!(!b.insert(Coord::new(3, 3)));
        assert!(b.insert(Coord::new(9, 9)));
        assert_eq!(b.count(), 2);
        assert!(b.remove(Coord::new(3, 3)));
        assert!(!b.remove(Coord::new(3, 3)));
        assert_eq!(b.count(), 1);
        assert!(b.contains(Coord::new(9, 9)));
        assert!(!b.contains(Coord::new(-1, 0)));
    }

    #[test]
    fn bitgrid_union() {
        let m = Mesh::square(8);
        let mut a = BitGrid::new(m);
        let mut b = BitGrid::new(m);
        a.insert(Coord::new(0, 0));
        a.insert(Coord::new(1, 1));
        b.insert(Coord::new(1, 1));
        b.insert(Coord::new(2, 2));
        a.union_with(&b);
        assert_eq!(a.count(), 3);
        assert!(a.contains(Coord::new(2, 2)));
    }

    mod row_insert {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The masked range insert sets what a loop of `insert` over
            /// the masked, in-mesh part of the span sets, and counts the
            /// same new bits. Width 150 puts zero, one or two word
            /// boundaries inside a span; widths 10, 64 and 65 put rows at
            /// every word alignment.
            #[test]
            fn masked_row_insert_equals_a_loop_of_insert(
                ((w_ix, y, x0, len), (mask_seed, pre_seed)) in
                    ((0usize..4, 0i32..5, -3i32..150, 0i32..160), (0u64..u64::MAX, 0u64..u64::MAX))
            ) {
                let mesh = Mesh::new([10, 64, 65, 150][w_ix], 5);
                let x1 = x0 + len - 1;
                // Two sparse-ish pseudo-random sets: the mask, and what the
                // target already holds.
                let scatter = |seed: u64| {
                    let mut g = BitGrid::new(mesh);
                    let mut state = seed | 1;
                    for c in mesh.iter() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        if state & 3 != 0 {
                            g.insert(c);
                        }
                    }
                    g
                };
                let (mask, before) = (scatter(mask_seed), scatter(pre_seed));
                let mut by_loop = before.clone();
                let mut added = 0;
                for x in x0..=x1 {
                    let c = Coord::new(x, y);
                    if mask.contains(c) && by_loop.insert(c) {
                        added += 1;
                    }
                }
                let mut by_words = before.clone();
                prop_assert_eq!(by_words.insert_row_masked(y, x0, x1, &mask), added);
                prop_assert_eq!(&by_words, &by_loop, "row {} span {}..={}", y, x0, x1);
            }
        }

        #[test]
        fn spans_cross_zero_one_and_two_word_boundaries() {
            let mesh = Mesh::new(150, 2);
            let mut full = BitGrid::new(mesh);
            mesh.iter().for_each(|c| {
                full.insert(c);
            });
            for (x0, x1) in [(3, 40), (3, 100), (3, 149), (63, 64), (64, 127), (0, 149)] {
                let mut g = BitGrid::new(mesh);
                assert_eq!(g.insert_row_masked(1, x0, x1, &full), (x1 - x0 + 1) as usize);
                let want: Vec<Coord> = (x0..=x1).map(|x| Coord::new(x, 1)).collect();
                assert_eq!(g.iter().collect::<Vec<_>>(), want);
                assert_eq!(g.insert_row_masked(1, x0, x1, &full), 0, "second insert adds nothing");
            }
        }
    }

    #[test]
    fn bitgrid_iter_matches_contains() {
        let m = Mesh::new(5, 7);
        let mut b = BitGrid::new(m);
        for c in [Coord::new(0, 6), Coord::new(4, 0), Coord::new(2, 3)] {
            b.insert(c);
        }
        let collected: Vec<_> = b.iter().collect();
        assert_eq!(collected.len(), 3);
        assert!(collected.windows(2).all(|w| w[0] < w[1] || w[0].y < w[1].y));
    }
}
