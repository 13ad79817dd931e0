//! Fault-configuration statistics backing Fig. 5(a) and 5(b).

use meshpath_mesh::FaultSet;

use crate::mcc::MccSet;

/// Summary of one fault configuration under one orientation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfigStats {
    /// Nodes in the mesh.
    pub total_nodes: usize,
    /// Injected faults.
    pub faults: usize,
    /// Faulty + useless + can't-reach nodes.
    pub disabled: usize,
    /// Non-faulty nodes swallowed by MCCs.
    pub healthy_disabled: usize,
    /// Number of MCCs.
    pub mcc_count: usize,
    /// Cells of the largest MCC.
    pub largest_mcc: usize,
}

impl FaultConfigStats {
    /// Percentage of disabled area to the total area (Fig. 5a's y-axis).
    pub fn disabled_pct(&self) -> f64 {
        100.0 * self.disabled as f64 / self.total_nodes as f64
    }
}

/// Statistics for an already-built [`MccSet`].
pub fn stats_of(faults: &FaultSet, set: &MccSet) -> FaultConfigStats {
    FaultConfigStats {
        total_nodes: faults.mesh().len(),
        faults: faults.count(),
        disabled: set.labeling().unsafe_count(),
        healthy_disabled: set.labeling().healthy_unsafe_count(),
        mcc_count: set.len(),
        largest_mcc: set.iter().map(|m| m.cell_count()).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::BorderPolicy;
    use meshpath_mesh::{Coord, Mesh, Orientation};

    fn config_stats(faults: &FaultSet, orientation: Orientation) -> FaultConfigStats {
        stats_of(faults, &MccSet::build(faults, orientation, BorderPolicy::Open))
    }

    #[test]
    fn stats_of_simple_config() {
        let mesh = Mesh::square(10);
        let fs =
            FaultSet::from_coords(mesh, [Coord::new(2, 3), Coord::new(3, 2), Coord::new(7, 7)]);
        let s = config_stats(&fs, Orientation::IDENTITY);
        assert_eq!(s.total_nodes, 100);
        assert_eq!(s.faults, 3);
        // The anti-diagonal pair fills to a 2x2 block; plus the lone fault.
        assert_eq!(s.disabled, 5);
        assert_eq!(s.healthy_disabled, 2);
        assert_eq!(s.mcc_count, 2);
        assert_eq!(s.largest_mcc, 4);
        assert!((s.disabled_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_fault_stats() {
        let fs = FaultSet::none(Mesh::square(10));
        let s = config_stats(&fs, Orientation::IDENTITY);
        assert_eq!(s.disabled, 0);
        assert_eq!(s.mcc_count, 0);
        assert_eq!(s.largest_mcc, 0);
        assert_eq!(s.disabled_pct(), 0.0);
    }
}
