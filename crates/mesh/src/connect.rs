//! Connectivity of the healthy sub-mesh.
//!
//! The paper assumes "(a) the entire network is connected" and its
//! simulator "only conduct\[s\] the test in the cases when the entire mesh is
//! not disconnected by faults". These helpers implement that filter and the
//! component statistics used by the experiment harness.

use crate::coord::Coord;
use crate::faults::FaultSet;
use crate::grid::Grid;

/// Labels every healthy node with a component id (`u32::MAX` marks faulty
/// nodes). Returns the label grid and the number of components.
pub fn components(faults: &FaultSet) -> (Grid<u32>, usize) {
    let mesh = *faults.mesh();
    const UNSET: u32 = u32::MAX;
    let mut labels = Grid::new(mesh, UNSET);
    let mut next = 0u32;
    let mut queue: Vec<Coord> = Vec::new();
    for start in mesh.iter() {
        if faults.is_faulty(start) || labels[start] != UNSET {
            continue;
        }
        labels[start] = next;
        queue.push(start);
        while let Some(u) = queue.pop() {
            for v in mesh.neighbors(u) {
                if !faults.is_faulty(v) && labels[v] == UNSET {
                    labels[v] = next;
                    queue.push(v);
                }
            }
        }
        next += 1;
    }
    (labels, next as usize)
}

/// True when all healthy nodes form a single connected component (a
/// fault-saturated mesh with zero healthy nodes counts as connected).
pub fn is_connected(faults: &FaultSet) -> bool {
    components(faults).1 <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;

    #[test]
    fn fault_free_mesh_is_one_component() {
        let f = FaultSet::none(Mesh::square(6));
        assert!(is_connected(&f));
        assert_eq!(components(&f).1, 1);
    }

    #[test]
    fn fault_wall_splits_the_mesh() {
        let mesh = Mesh::square(5);
        // Vertical wall at x = 2 splits left from right.
        let f = FaultSet::from_coords(mesh, (0..5).map(|y| Coord::new(2, y)));
        assert!(!is_connected(&f));
        assert_eq!(components(&f).1, 2);
    }

    #[test]
    fn single_fault_keeps_connectivity() {
        let mesh = Mesh::square(5);
        let f = FaultSet::from_coords(mesh, [Coord::new(2, 2)]);
        assert!(is_connected(&f));
    }

    #[test]
    fn isolated_corner() {
        let mesh = Mesh::square(4);
        // Cut off the (0,0) corner with faults at (1,0) and (0,1).
        let f = FaultSet::from_coords(mesh, [Coord::new(1, 0), Coord::new(0, 1)]);
        assert_eq!(components(&f).1, 2);
    }

    #[test]
    fn fully_faulty_mesh_counts_as_connected() {
        let mesh = Mesh::square(2);
        let f = FaultSet::from_coords(mesh, mesh.iter());
        assert!(is_connected(&f));
        assert_eq!(components(&f).1, 0);
    }
}
