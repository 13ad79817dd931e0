//! Monotone (Manhattan) path feasibility.
//!
//! A *monotone* path in the oriented frame uses only `+X`/`+Y` moves, so
//! its length equals the Manhattan distance — the paper's "path with the
//! Manhattan distance". Feasibility between two points is a simple dynamic
//! program over the spanning rectangle. This module provides it twice:
//!
//! * [`monotone_feasible`] over an arbitrary blockage
//!   predicate (safe-node labelings, raw fault sets), one cell at a time —
//!   the reference the property tests compare against;
//! * `mcc_cells_feasible` / `known_mcc_cells_feasible` over the row
//!   bit words of an [`MccSet`], one 64-cell word at a time — what the
//!   planner runs.
//!
//! ## The row fill
//!
//! Keep one bit per column of the rectangle: `reach`, the cells of the
//! current row a monotone path from `s` can stand on. A cell of the next
//! row is reachable when it is free and either the cell below it is
//! reachable or its west neighbour in the same row is. With `free` the
//! row's unblocked cells and `seeds = reach & free` the cells entered
//! from below, the second rule spreads every seed east to the end of its
//! run of free cells. Binary addition does exactly that: `free + seeds`
//! carries from a seed up through the run of ones above it, clearing the
//! run and setting the first zero past it, so `(free + seeds) ^ free` is
//! the seed's run from the seed upward plus that one terminator bit, and
//! `& free` drops the terminator:
//!
//! ```text
//! seeds = reach & free
//! reach = (((free + seeds) ^ free) | seeds) & free
//! ```
//!
//! The `| seeds` is for two seeds in one run: the lower seed's carry
//! arrives at the upper seed's bit as `1 + 1 + carry = 1` carry `1` — the
//! ripple goes on, but that bit itself does not change and the XOR misses
//! it. Rows wider than a word chain the carry from word to word (a carry
//! out of bit 63 is a run continuing at bit 0 of the next word); the
//! rectangle's column mask ends the last run.
//!
//! The MCC model's minimality manifests here as a testable theorem: for
//! safe endpoints, monotone feasibility over *safe* nodes equals monotone
//! feasibility over *healthy* nodes (property-tested in the crate's
//! integration suite).

use meshpath_fault::{MccId, MccSet};
use meshpath_mesh::Coord;

/// The row fill (module docs) over the rectangle `s..=d`.
/// `blocked(y, w, cols)` returns the blocked cells of word `w` of row
/// `y`; only the bits in `cols` — the rectangle's columns within that
/// word — are read.
fn row_fill_feasible(s: Coord, d: Coord, mut blocked: impl FnMut(i32, usize, u64) -> u64) -> bool {
    let (first, last) = (s.x as usize / 64, d.x as usize / 64);
    let n = last - first + 1;
    // Rectangles up to STACK_WORDS words wide (any rectangle of a
    // 256-wide mesh) never touch the heap.
    const STACK_WORDS: usize = 4;
    let mut stack = [0u64; STACK_WORDS];
    let mut heap = Vec::new();
    let reach: &mut [u64] = if n <= STACK_WORDS {
        &mut stack[..n]
    } else {
        heap.resize(n, 0);
        &mut heap
    };
    let west = !0u64 << (s.x % 64);
    let east = !0u64 >> (63 - d.x % 64);
    // Row `s.y` is entered at `s` alone, every later row from the one below.
    reach[0] = 1 << (s.x % 64);
    for y in s.y..=d.y {
        let mut carry = false;
        let mut any = 0;
        for (i, r) in reach.iter_mut().enumerate() {
            let cols = if i == 0 { west } else { !0 } & if i == n - 1 { east } else { !0 };
            let free = !blocked(y, first + i, cols) & cols;
            let seeds = *r & free;
            let (sum, c1) = free.overflowing_add(seeds);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *r = ((sum ^ free) | seeds) & free;
            any |= *r;
        }
        if any == 0 {
            return false;
        }
    }
    reach[n - 1] >> (d.x % 64) & 1 == 1
}

/// True when `d` is in the `(+X, +Y)` quadrant of `s` and both are nodes
/// of `set`'s mesh (oriented frame).
fn spans_a_rectangle(set: &MccSet, s: Coord, d: Coord) -> bool {
    s.x <= d.x && s.y <= d.y && set.mesh().contains(s) && set.mesh().contains(d)
}

/// [`monotone_feasible`] from `s` to `d` with **every** cell of every MCC
/// of `set` blocked, by row fill over [`MccSet::row_words`]: O(rows) word
/// operations for rectangles up to 64 columns wide.
///
/// Whatever a node knows is a subset of this blockage, so `true` here is
/// `true` for `known_mcc_cells_feasible` under any `known`.
pub(crate) fn mcc_cells_feasible(set: &MccSet, s: Coord, d: Coord) -> bool {
    spans_a_rectangle(set, s, d) && row_fill_feasible(s, d, |y, w, _| set.row_words(y)[w])
}

/// [`monotone_feasible`] from `s` to `d` with the cells of the MCCs for
/// which `known` holds blocked. Same row fill; `known` is asked once per
/// run of MCC cells in a row word of the rectangle (horizontally adjacent
/// unsafe cells are one component), never for a safe cell.
pub(crate) fn known_mcc_cells_feasible(
    set: &MccSet,
    s: Coord,
    d: Coord,
    mut known: impl FnMut(MccId) -> bool,
) -> bool {
    spans_a_rectangle(set, s, d)
        && row_fill_feasible(s, d, |y, w, cols| {
            let mut cells = set.row_words(y)[w] & cols;
            let mut blocked = 0;
            while cells != 0 {
                let low = cells & cells.wrapping_neg();
                let run = cells & !cells.wrapping_add(low);
                let x = (w * 64) as i32 + low.trailing_zeros() as i32;
                let id = set.mcc_at(Coord::new(x, y)).expect("row bits mark MCC cells");
                if known(id) {
                    blocked |= run;
                }
                cells ^= run;
            }
            blocked
        })
}

/// True when a monotone (`+X`/`+Y` only) path from `s` to `d` exists
/// through nodes where `blocked` is false. Requires `d` to be in the
/// `(+X, +Y)` quadrant of `s` (oriented frame); returns `false` otherwise.
///
/// Endpoints must themselves be unblocked.
pub fn monotone_feasible(s: Coord, d: Coord, blocked: impl Fn(Coord) -> bool) -> bool {
    if d.x < s.x || d.y < s.y || blocked(s) || blocked(d) {
        return false;
    }
    let w = (d.x - s.x + 1) as usize;
    let h = (d.y - s.y + 1) as usize;
    // reach[i] for the current row: reachable at x = s.x + i. Rows up to
    // STACK_ROW wide (any rectangle of a 64-wide mesh) never touch the heap.
    const STACK_ROW: usize = 64;
    let mut stack = [false; STACK_ROW];
    let mut heap = Vec::new();
    let reach: &mut [bool] = if w <= STACK_ROW {
        &mut stack[..w]
    } else {
        heap.resize(w, false);
        &mut heap
    };
    for j in 0..h {
        let y = s.y + j as i32;
        let mut from_left = false;
        for (i, slot) in reach.iter_mut().enumerate() {
            let c = Coord::new(s.x + i as i32, y);
            let from_below = *slot; // value from the previous row
            let start = i == 0 && j == 0;
            *slot = (start || from_left || from_below) && !blocked(c);
            from_left = *slot;
        }
    }
    reach[w - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_fault::BorderPolicy;
    use meshpath_mesh::{FaultInjection, FaultSet, Mesh, Orientation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Mesh widths 1..=200, with the widths around the one- and two-word
    /// row boundaries drawn as often as forty ordinary ones.
    fn widths() -> impl Strategy<Value = u32> {
        const EDGES: [u32; 6] = [63, 64, 65, 127, 128, 129];
        (0u32..240).prop_map(|i| if i < 200 { i + 1 } else { EDGES[i as usize % EDGES.len()] })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The row fill equals the scalar DP on both planner passes —
        /// every MCC cell blocking, and only the cells of a random subset
        /// of "known" MCCs blocking — over random rectangles of real MCC
        /// sets in all four orientations.
        #[test]
        fn row_fill_equals_the_scalar_dp(
            ((width, height), (density, o_ix), seed) in
                ((widths(), 1u32..24), (0usize..30, 0usize..4), 0u64..u64::MAX)
        ) {
            let mesh = Mesh::new(width, height);
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = FaultSet::random(
                mesh,
                mesh.len() * density / 100,
                FaultInjection::Uniform,
                &mut rng,
            );
            let set = MccSet::build(&faults, Orientation::ALL[o_ix], BorderPolicy::Open);
            let share = rng.gen_range(0.0..1.0);
            let known: Vec<bool> = (0..set.len()).map(|_| rng.gen_bool(share)).collect();
            for _ in 0..48 {
                let (x0, x1) = (rng.gen_range(0..width as i32), rng.gen_range(0..width as i32));
                let (y0, y1) = (rng.gen_range(0..height as i32), rng.gen_range(0..height as i32));
                let s = Coord::new(x0.min(x1), y0.min(y1));
                let d = Coord::new(x0.max(x1), y0.max(y1));
                prop_assert_eq!(
                    mcc_cells_feasible(&set, s, d),
                    monotone_feasible(s, d, |c| set.mcc_at(c).is_some()),
                    "every cell blocking, {:?} -> {:?}", s, d
                );
                prop_assert_eq!(
                    known_mcc_cells_feasible(&set, s, d, |id| known[id.index()]),
                    monotone_feasible(s, d, |c| set.mcc_at(c).is_some_and(|id| known[id.index()])),
                    "known cells blocking, {:?} -> {:?}", s, d
                );
            }
        }
    }

    #[test]
    fn row_fill_rejects_what_is_not_a_rectangle_of_the_mesh() {
        let set = MccSet::build(
            &FaultSet::none(Mesh::new(70, 4)),
            Orientation::IDENTITY,
            BorderPolicy::Open,
        );
        assert!(mcc_cells_feasible(&set, Coord::new(0, 0), Coord::new(69, 3)));
        assert!(mcc_cells_feasible(&set, Coord::new(69, 3), Coord::new(69, 3)));
        // Wrong quadrant, outside the mesh.
        assert!(!mcc_cells_feasible(&set, Coord::new(3, 3), Coord::new(2, 3)));
        assert!(!mcc_cells_feasible(&set, Coord::new(0, 0), Coord::new(70, 3)));
        assert!(!known_mcc_cells_feasible(&set, Coord::new(-1, 0), Coord::new(5, 3), |_| true));
    }

    fn blocked_set(cells: &[(i32, i32)]) -> impl Fn(Coord) -> bool + '_ {
        move |c| cells.contains(&(c.x, c.y))
    }

    #[test]
    fn empty_grid_is_feasible() {
        assert!(monotone_feasible(Coord::new(0, 0), Coord::new(5, 3), |_| false));
        assert!(monotone_feasible(Coord::new(2, 2), Coord::new(2, 2), |_| false));
    }

    #[test]
    fn wrong_quadrant_is_infeasible() {
        assert!(!monotone_feasible(Coord::new(3, 3), Coord::new(2, 5), |_| false));
        assert!(!monotone_feasible(Coord::new(3, 3), Coord::new(5, 2), |_| false));
    }

    #[test]
    fn single_blocker_on_a_line() {
        // Degenerate rectangle: any blocker on the segment kills it.
        let b = [(3, 0)];
        assert!(!monotone_feasible(Coord::new(0, 0), Coord::new(5, 0), blocked_set(&b)));
        assert!(monotone_feasible(Coord::new(0, 1), Coord::new(5, 1), blocked_set(&b)));
    }

    #[test]
    fn rows_wider_than_the_stack_buffer() {
        // 100 columns: the row buffer spills to the heap.
        let (s, d) = (Coord::new(0, 0), Coord::new(99, 2));
        let wall = |c: Coord| c.x == 70 && c.y < 2;
        assert!(monotone_feasible(s, d, wall));
        assert!(!monotone_feasible(s, d, |c: Coord| c.x == 70));
    }

    #[test]
    fn diagonal_wall_blocks() {
        // Anti-diagonal wall across the rectangle blocks every staircase.
        let b = [(0, 2), (1, 1), (2, 0)];
        assert!(!monotone_feasible(Coord::new(0, 0), Coord::new(2, 2), blocked_set(&b)));
        // Removing one brick opens a path.
        let b2 = [(0, 2), (2, 0)];
        assert!(monotone_feasible(Coord::new(0, 0), Coord::new(2, 2), blocked_set(&b2)));
    }

    #[test]
    fn feasible_iff_the_bfs_distance_is_manhattan() {
        // Every blockage pattern of a 4x4 mesh; the endpoints stay open.
        let mesh = Mesh::new(4, 4);
        let (s, d) = (Coord::new(0, 0), Coord::new(3, 3));
        for mask in 0u32..(1 << 14) {
            let blocked = |c: Coord| {
                let idx = (c.y * 4 + c.x) as u32;
                idx != 0 && idx != 15 && (mask >> (idx - 1)) & 1 == 1
            };
            let bfs = crate::oracle::DistanceField::with_predicate(mesh, d, |c| !blocked(c));
            assert_eq!(
                monotone_feasible(s, d, blocked),
                bfs.dist(s) == s.manhattan(d),
                "mask {mask:#06x}"
            );
        }
    }
}
