//! Monotone (Manhattan) path feasibility.
//!
//! A *monotone* path in the oriented frame uses only `+X`/`+Y` moves, so
//! its length equals the Manhattan distance — the paper's "path with the
//! Manhattan distance". Feasibility between two points is a simple dynamic
//! program over the spanning rectangle; this module provides it over
//! arbitrary blockage predicates (safe-node labelings, known-MCC cell
//! unions, raw fault sets).
//!
//! The MCC model's minimality manifests here as a testable theorem: for
//! safe endpoints, monotone feasibility over *safe* nodes equals monotone
//! feasibility over *healthy* nodes (property-tested in the crate's
//! integration suite).

use meshpath_mesh::Coord;

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
    // reach[i] for the current row: reachable at x = s.x + i. The planner
    // asks this several times per plan; rows up to STACK_ROW wide (any
    // rectangle of a 64-wide mesh) never touch the heap.
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

/// Like [`monotone_feasible`], but additionally returns one monotone path
/// (as coordinates `s..=d`) when feasible.
pub fn monotone_path(s: Coord, d: Coord, blocked: impl Fn(Coord) -> bool) -> Option<Vec<Coord>> {
    if d.x < s.x || d.y < s.y || blocked(s) || blocked(d) {
        return None;
    }
    let w = (d.x - s.x + 1) as usize;
    let h = (d.y - s.y + 1) as usize;
    let mut reach = vec![false; w * h];
    for j in 0..h {
        for i in 0..w {
            let c = Coord::new(s.x + i as i32, s.y + j as i32);
            if blocked(c) {
                continue;
            }
            let start = i == 0 && j == 0;
            let from_left = i > 0 && reach[j * w + i - 1];
            let from_below = j > 0 && reach[(j - 1) * w + i];
            reach[j * w + i] = start || from_left || from_below;
        }
    }
    if !reach[w * h - 1] {
        return None;
    }
    // Walk back from d, preferring +Y predecessors (deterministic).
    let mut rev = vec![d];
    let (mut i, mut j) = (w - 1, h - 1);
    while i != 0 || j != 0 {
        if j > 0 && reach[(j - 1) * w + i] {
            j -= 1;
        } else {
            debug_assert!(i > 0 && reach[j * w + i - 1], "broken DP backtrack");
            i -= 1;
        }
        rev.push(Coord::new(s.x + i as i32, s.y + j as i32));
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn rows_wider_than_the_stack_buffer_agree_with_the_path_dp() {
        // 100 columns: the row buffer spills to the heap.
        let (s, d) = (Coord::new(0, 0), Coord::new(99, 2));
        let wall = |c: Coord| c.x == 70 && c.y < 2;
        assert!(monotone_feasible(s, d, wall));
        assert!(monotone_path(s, d, wall).is_some());
        let full_wall = |c: Coord| c.x == 70;
        assert!(!monotone_feasible(s, d, full_wall));
        assert!(monotone_path(s, d, full_wall).is_none());
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
    fn path_is_monotone_and_avoids_blocks() {
        let b = [(1, 1), (2, 3), (3, 0)];
        let s = Coord::new(0, 0);
        let d = Coord::new(4, 4);
        let p = monotone_path(s, d, blocked_set(&b)).expect("feasible");
        assert_eq!(p.first(), Some(&s));
        assert_eq!(p.last(), Some(&d));
        assert_eq!(p.len() as u32, s.manhattan(d) + 1);
        for w in p.windows(2) {
            let (dx, dy) = w[1] - w[0];
            assert!((dx == 1 && dy == 0) || (dx == 0 && dy == 1), "non-monotone step");
            assert!(!blocked_set(&b)(w[1]));
        }
    }

    #[test]
    fn feasible_and_path_agree() {
        // Exhaustive 4x4 blockage patterns over a small rectangle.
        let s = Coord::new(0, 0);
        let d = Coord::new(3, 3);
        for mask in 0u32..(1 << 14) {
            let blocked = |c: Coord| {
                let idx = (c.y * 4 + c.x) as u32;
                // Never block the endpoints (bits 0 and 15 unused).
                idx != 0 && idx != 15 && (mask >> (idx - 1)) & 1 == 1
            };
            assert_eq!(
                monotone_feasible(s, d, blocked),
                monotone_path(s, d, blocked).is_some(),
                "mask {mask:#x}"
            );
        }
    }
}
