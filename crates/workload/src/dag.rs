//! Dependency-driven flow DAGs: named messages released only once all
//! their predecessors have delivered.

use std::collections::HashMap;
use std::fmt;

use meshpath_mesh::Coord;
use meshpath_traffic::{WorkloadMsg, WorkloadSource};

/// One flow of a [`DagSpec`]: a named message plus the names of the
/// flows that must deliver before it may be injected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow name (referenced by dependents; restricted to
    /// `[A-Za-z0-9_.-]` so it survives the JSONL tooling).
    pub name: String,
    /// Source node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Packet length in flits (>= 1).
    pub len: u32,
    /// Names of the flows that must deliver first.
    pub deps: Vec<String>,
    /// Earliest release cycle (0 = as soon as the dependencies allow).
    pub earliest: u64,
}

impl FlowSpec {
    /// A dependency-free flow releasing at cycle 0.
    pub fn root(name: &str, src: Coord, dst: Coord, len: u32) -> Self {
        FlowSpec { name: name.to_string(), src, dst, len, deps: Vec::new(), earliest: 0 }
    }

    /// A flow releasing once every flow in `deps` has delivered.
    pub fn after(name: &str, src: Coord, dst: Coord, len: u32, deps: &[&str]) -> Self {
        FlowSpec {
            name: name.to_string(),
            src,
            dst,
            len,
            deps: deps.iter().map(|d| d.to_string()).collect(),
            earliest: 0,
        }
    }
}

/// A flow DAG: the declarative form [`FlowDag`] is built (and
/// validated) from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagSpec {
    /// The flows, in declaration order; a flow's id in the run's
    /// `WorkloadOutcome` is its index here.
    pub flows: Vec<FlowSpec>,
}

impl DagSpec {
    /// The name of flow `id` (its index), for reporting.
    pub fn name(&self, id: u32) -> &str {
        &self.flows[id as usize].name
    }
}

/// Why a [`DagSpec`] is not a runnable DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// Two flows share a name.
    DuplicateName(String),
    /// A dependency names no declared flow.
    UnknownDep {
        /// The flow declaring the dependency.
        flow: String,
        /// The name that resolves to nothing.
        dep: String,
    },
    /// The dependency graph has a cycle through this flow.
    Cycle(String),
    /// A flow has a zero-flit packet.
    EmptyPacket(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateName(n) => write!(f, "duplicate flow name {n:?}"),
            DagError::UnknownDep { flow, dep } => {
                write!(f, "flow {flow:?} depends on unknown flow {dep:?}")
            }
            DagError::Cycle(n) => write!(f, "dependency cycle through flow {n:?}"),
            DagError::EmptyPacket(n) => write!(f, "flow {n:?} has a zero-flit packet"),
        }
    }
}

impl std::error::Error for DagError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlowState {
    /// Waiting on dependencies (or its earliest-release cycle).
    Pending,
    /// Released to the fabric, packet not yet resolved.
    Released,
    Delivered,
    Aborted,
}

struct Flow {
    src: Coord,
    dst: Coord,
    len: u32,
    earliest: u64,
    /// Flow ids that depend on this one.
    dependents: Vec<u32>,
    /// Unresolved dependency count; releasable at 0.
    waiting_on: u32,
    state: FlowState,
    delivered_at: u64,
    /// The latest-delivering predecessor `(delivered_at, id)` — the
    /// critical-path back-pointer. The id tiebreak makes the path
    /// independent of same-cycle feedback order.
    cp_parent: Option<(u64, u32)>,
}

/// The dependency-driven scheduler: releases each flow's message once
/// all its predecessors have delivered (and `earliest` has passed),
/// cascades aborts through the dependency edges so a dead predecessor
/// never wedges the schedule, and tracks the delivery critical path.
///
/// Scheduling is coordinator-side and order-insensitive over
/// same-cycle feedback (ready flows are released in id order, the
/// critical-path tiebreak is by id), so a DAG run is bit-identical at
/// every shard count.
pub struct FlowDag {
    spec: DagSpec,
    flows: Vec<Flow>,
}

impl FlowDag {
    /// Builds and validates the scheduler: names must be unique,
    /// dependencies declared, packets non-empty and the graph acyclic.
    pub fn new(spec: DagSpec) -> Result<Self, DagError> {
        let mut ids: HashMap<&str, u32> = HashMap::with_capacity(spec.flows.len());
        for (i, f) in spec.flows.iter().enumerate() {
            if f.len == 0 {
                return Err(DagError::EmptyPacket(f.name.clone()));
            }
            if ids.insert(f.name.as_str(), i as u32).is_some() {
                return Err(DagError::DuplicateName(f.name.clone()));
            }
        }
        let mut flows: Vec<Flow> = spec
            .flows
            .iter()
            .map(|f| Flow {
                src: f.src,
                dst: f.dst,
                len: f.len,
                earliest: f.earliest,
                dependents: Vec::new(),
                waiting_on: 0,
                state: FlowState::Pending,
                delivered_at: 0,
                cp_parent: None,
            })
            .collect();
        for (i, f) in spec.flows.iter().enumerate() {
            for dep in &f.deps {
                let Some(&d) = ids.get(dep.as_str()) else {
                    return Err(DagError::UnknownDep { flow: f.name.clone(), dep: dep.clone() });
                };
                flows[d as usize].dependents.push(i as u32);
                flows[i].waiting_on += 1;
            }
        }
        // Acyclicity: Kahn's algorithm over the waiting_on counts.
        let mut indeg: Vec<u32> = flows.iter().map(|f| f.waiting_on).collect();
        let mut queue: Vec<u32> =
            (0..flows.len() as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &d in &flows[i as usize].dependents {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        if seen != flows.len() {
            let stuck = indeg.iter().position(|&d| d > 0).expect("a cycle leaves indegrees");
            return Err(DagError::Cycle(spec.flows[stuck].name.clone()));
        }
        Ok(FlowDag { spec, flows })
    }

    /// The validated spec (flow `id` = index, for name lookups).
    pub fn spec(&self) -> &DagSpec {
        &self.spec
    }

    fn abort_cascade(&mut self, id: u32, out: &mut Vec<u32>) {
        // Depth-first over dependents; every flow is aborted at most
        // once (state check), so the cascade is idempotent and
        // insensitive to the order aborts arrive in.
        let mut stack = vec![id];
        while let Some(i) = stack.pop() {
            for k in 0..self.flows[i as usize].dependents.len() {
                let d = self.flows[i as usize].dependents[k];
                if self.flows[d as usize].state == FlowState::Pending {
                    self.flows[d as usize].state = FlowState::Aborted;
                    out.push(d);
                    stack.push(d);
                }
            }
        }
    }
}

impl WorkloadSource for FlowDag {
    fn release(&mut self, cycle: u64) -> Vec<WorkloadMsg> {
        let mut out = Vec::new();
        // Id order: the ready set may have been assembled from
        // same-cycle feedback in any order.
        for id in 0..self.flows.len() as u32 {
            let f = &mut self.flows[id as usize];
            if f.state == FlowState::Pending && f.waiting_on == 0 && f.earliest <= cycle {
                f.state = FlowState::Released;
                out.push(WorkloadMsg { at: cycle, flow: id, src: f.src, dst: f.dst, len: f.len });
            }
        }
        out
    }

    fn on_delivered(&mut self, flow: u32, at: u64) {
        let f = &mut self.flows[flow as usize];
        debug_assert_eq!(f.state, FlowState::Released);
        f.state = FlowState::Delivered;
        f.delivered_at = at;
        for k in 0..self.flows[flow as usize].dependents.len() {
            let d = self.flows[flow as usize].dependents[k];
            let dep = &mut self.flows[d as usize];
            dep.waiting_on -= 1;
            // Latest predecessor wins; id breaks same-cycle ties.
            if dep.cp_parent.is_none_or(|(t, i)| (at, flow) > (t, i)) {
                dep.cp_parent = Some((at, flow));
            }
        }
    }

    fn on_aborted(&mut self, flow: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if self.flows[flow as usize].state == FlowState::Aborted {
            return out;
        }
        self.flows[flow as usize].state = FlowState::Aborted;
        self.abort_cascade(flow, &mut out);
        out
    }

    fn exhausted(&self, _cycle: u64) -> bool {
        // Released-but-unresolved flows hold the run open: a DAG run
        // measures flow completion, so it drains to the last delivery
        // (unlike a synthetic run, which abandons unmeasured
        // stragglers at its horizon).
        self.flows.iter().all(|f| matches!(f.state, FlowState::Delivered | FlowState::Aborted))
    }

    fn critical_path(&self) -> Vec<u32> {
        let last = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.state == FlowState::Delivered)
            .max_by_key(|(i, f)| (f.delivered_at, *i as u32));
        let Some((last, _)) = last else {
            return Vec::new();
        };
        let mut path = vec![last as u32];
        let mut cur = last;
        while let Some((_, p)) = self.flows[cur].cp_parent {
            path.push(p);
            cur = p as usize;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn diamond() -> DagSpec {
        DagSpec {
            flows: vec![
                FlowSpec::root("a", c(0, 0), c(3, 3), 2),
                FlowSpec::after("b", c(3, 3), c(0, 3), 2, &["a"]),
                FlowSpec::after("c", c(3, 3), c(3, 0), 2, &["a"]),
                FlowSpec::after("d", c(0, 3), c(0, 0), 2, &["b", "c"]),
            ],
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut dup = diamond();
        dup.flows[2].name = "b".into();
        assert_eq!(FlowDag::new(dup).err(), Some(DagError::DuplicateName("b".into())));

        let mut unknown = diamond();
        unknown.flows[3].deps.push("ghost".into());
        assert_eq!(
            FlowDag::new(unknown).err(),
            Some(DagError::UnknownDep { flow: "d".into(), dep: "ghost".into() })
        );

        let mut cyclic = diamond();
        cyclic.flows[0].deps.push("d".into());
        assert!(matches!(FlowDag::new(cyclic), Err(DagError::Cycle(_))));

        let mut empty = diamond();
        empty.flows[1].len = 0;
        assert_eq!(FlowDag::new(empty).err(), Some(DagError::EmptyPacket("b".into())));
    }

    #[test]
    fn releases_follow_delivery_feedback() {
        let mut dag = FlowDag::new(diamond()).expect("valid");
        let r0 = dag.release(0);
        assert_eq!(r0.len(), 1, "only the root is ready");
        assert_eq!(r0[0].flow, 0);
        assert!(dag.release(1).is_empty());
        dag.on_delivered(0, 9);
        let r9 = dag.release(9);
        assert_eq!(r9.iter().map(|m| m.flow).collect::<Vec<_>>(), vec![1, 2], "id order");
        dag.on_delivered(2, 15);
        dag.on_delivered(1, 17);
        let r17 = dag.release(17);
        assert_eq!(r17.len(), 1);
        assert_eq!(r17[0].flow, 3);
        assert!(!dag.exhausted(17), "flow d is still in flight");
        dag.on_delivered(3, 25);
        assert!(dag.exhausted(25));
        assert_eq!(dag.critical_path(), vec![0, 1, 3], "through the later-delivering branch");
    }

    #[test]
    fn aborts_cascade_transitively_and_idempotently() {
        let mut dag = FlowDag::new(diamond()).expect("valid");
        let _ = dag.release(0);
        // The root dies: everything downstream aborts with it.
        let deps = dag.on_aborted(0);
        assert_eq!(deps, vec![1, 2, 3]);
        assert!(dag.on_aborted(0).is_empty(), "idempotent");
        assert!(dag.exhausted(1), "a fully-aborted DAG never wedges the run");
        assert!(dag.critical_path().is_empty());
        assert!(dag.release(5).is_empty(), "aborted flows never release");
    }

    #[test]
    fn partial_abort_keeps_the_live_branch() {
        let mut dag = FlowDag::new(diamond()).expect("valid");
        let _ = dag.release(0);
        dag.on_delivered(0, 5);
        let _ = dag.release(5);
        // Branch b dies; c still delivers, d (needs both) aborts.
        let deps = dag.on_aborted(1);
        assert_eq!(deps, vec![3]);
        dag.on_delivered(2, 12);
        assert!(dag.exhausted(12));
        assert_eq!(dag.critical_path(), vec![0, 2]);
    }
}
