//! [`WorkloadSpec`]: the declarative, cloneable descriptor the
//! analysis CLI (and sweep configs) build [`WorkloadSource`]s from.

use meshpath_route::NetView;
use meshpath_traffic::source::TraceSource;
use meshpath_traffic::{TraceEntry, WorkloadSource};

use crate::dag::{DagSpec, FlowDag};
use crate::phases::{CollectiveKind, CollectivePhases};

/// A workload, described declaratively so sweep configs can clone one
/// per sweep point and hand each run its own [`WorkloadSource`].
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// Replay a recorded packet trace up to the recording run's
    /// generation horizon.
    Trace {
        /// The recorded entries (any order; replay sorts stably by
        /// cycle).
        entries: Vec<TraceEntry>,
        /// The recording run's generation horizon (its
        /// `warmup + measure` for synthetic recordings).
        horizon: u64,
    },
    /// A dependency-driven flow DAG.
    Dag(DagSpec),
    /// `rounds` barrier-separated all-to-all rounds of `len`-flit
    /// packets over the healthy nodes.
    AllToAll {
        /// Number of rounds.
        rounds: u32,
        /// Packet length in flits.
        len: u32,
    },
    /// `rounds` barrier-separated (l,k)-permutation rounds of
    /// `len`-flit packets over the healthy nodes.
    Permutation {
        /// Messages sourced per participant per round (`1 <= l <= k`).
        l: u32,
        /// Receive bound.
        k: u32,
        /// Number of rounds.
        rounds: u32,
        /// Packet length in flits.
        len: u32,
        /// Seed for the per-round permutation draws.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Short display name for tables and `--json` output.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Trace { .. } => "trace",
            WorkloadSpec::Dag(_) => "dag",
            WorkloadSpec::AllToAll { .. } => "alltoall",
            WorkloadSpec::Permutation { .. } => "permutation",
        }
    }

    /// Builds the runnable source against the run's epoch-0 view
    /// (collectives draw their participant list from it).
    ///
    /// Panics if a [`WorkloadSpec::Dag`] spec fails validation — specs
    /// reaching a run are expected to have been validated at parse
    /// time (`FlowDag::new` is the validating constructor).
    pub fn build(&self, view: &NetView) -> Box<dyn WorkloadSource> {
        match self {
            WorkloadSpec::Trace { entries, horizon } => {
                Box::new(TraceSource::new(entries.clone(), *horizon))
            }
            WorkloadSpec::Dag(spec) => {
                Box::new(FlowDag::new(spec.clone()).expect("invalid DAG spec reached a run"))
            }
            WorkloadSpec::AllToAll { rounds, len } => {
                Box::new(CollectivePhases::new(view, CollectiveKind::AllToAll, *rounds, *len))
            }
            WorkloadSpec::Permutation { l, k, rounds, len, seed } => {
                Box::new(CollectivePhases::new(
                    view,
                    CollectiveKind::Permutation { l: *l, k: *k, seed: *seed },
                    *rounds,
                    *len,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::FlowSpec;
    use meshpath_mesh::{Coord, FaultSet, Mesh};

    #[test]
    fn every_variant_builds_a_source() {
        let view = NetView::build(FaultSet::from_coords(Mesh::square(4), []));
        let specs = [
            WorkloadSpec::Trace { entries: Vec::new(), horizon: 5 },
            WorkloadSpec::Dag(DagSpec {
                flows: vec![FlowSpec::root("a", Coord::new(0, 0), Coord::new(3, 3), 2)],
            }),
            WorkloadSpec::AllToAll { rounds: 2, len: 4 },
            WorkloadSpec::Permutation { l: 1, k: 1, rounds: 2, len: 4, seed: 3 },
        ];
        for spec in &specs {
            let mut src = spec.clone().build(&view);
            // A fresh source is never exhausted before cycle 0's
            // release (except the empty trace, which still waits for
            // its horizon).
            assert!(!src.exhausted(0));
            let _ = src.release(0);
        }
    }
}
