//! The routing environment: one fault configuration, fully analyzed,
//! plus the incremental per-fault update machinery behind
//! [`NetState`](crate::NetState).

use std::sync::OnceLock;

use meshpath_fault::{BlockSet, BorderPolicy, MccId, MccSet};
use meshpath_info::{BoundarySet, InfoModel, ModelKind};
use meshpath_mesh::{components, Coord, FaultSet, FxHashSet, Grid, Mesh, Orientation, Rect};

/// Everything the routers need about one fault configuration:
///
/// * the fault set itself (local fault detection),
/// * the MCC labeling and components for all four orientations,
/// * the boundary walks of every MCC for all four orientations,
/// * the B2 information model for all four orientations,
/// * the rectangular fault blocks (E-cube baseline).
///
/// What is built when: [`build`](Network::build) and the incremental
/// update build all of the above. The B1 and B3 models of an orientation
/// are built from its retained MCCs and walks on the first
/// [`model`](Network::model) call that asks for them — RB1, RB3 and the
/// Fig. 5 analysis pay for them, an RB2 network never does. The healthy
/// components are flooded on the first
/// [`component_of`](Network::component_of).
///
/// Building a `Network` is the per-configuration setup cost; routing any
/// number of source/destination pairs afterwards reuses it. Programs
/// normally hold a `Network` through an epoch-versioned
/// [`NetView`](crate::NetView) snapshot.
pub struct Network {
    faults: FaultSet,
    mccs: Vec<MccSet>,
    /// The B2 model per orientation (what RB2 reads).
    b2: Vec<InfoModel>,
    /// The B1 and B3 models per orientation, built on first use.
    b1: [OnceLock<InfoModel>; 4],
    b3: [OnceLock<InfoModel>; 4],
    /// Boundary walks per orientation (the substrate of the models,
    /// retained so B1/B3 can be built later and incremental updates can
    /// reuse untouched walks).
    bounds: Vec<BoundarySet>,
    blocks: BlockSet,
    /// Healthy-component label per node (`u32::MAX` on faulty nodes),
    /// flooded on the first [`component_of`](Network::component_of).
    components: OnceLock<Grid<u32>>,
}

/// One single-fault delta applied by the incremental update path.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FaultChange {
    /// The coordinate was injected (newly faulty).
    Added(Coord),
    /// The coordinate was repaired (newly healthy).
    Removed(Coord),
}

/// One orientation of a single-fault delta, relabelled and re-extracted.
struct Relabelled {
    new_set: MccSet,
    /// Oriented cells whose predicate mask changed.
    changed: Vec<Coord>,
    /// Old components the relabeled cells touch (at most one).
    affected_old: Vec<MccId>,
    /// Old component id -> its id in `new_set` (`None`: it dissolved).
    remap: Vec<Option<MccId>>,
}

impl Network {
    /// Analyzes `faults` under all orientations, with the B2 model; B1
    /// and B3 wait for their first [`model`](Network::model) call.
    pub fn build(faults: FaultSet) -> Self {
        let mut mccs = Vec::with_capacity(4);
        let mut bounds = Vec::with_capacity(4);
        for o in Orientation::ALL {
            let set = MccSet::build(&faults, o, BorderPolicy::Open);
            bounds.push(BoundarySet::build(&set));
            mccs.push(set);
        }
        let blocks = BlockSet::build(&faults);
        Network::assemble(faults, mccs, bounds, blocks)
    }

    /// The network over already-built MCCs and walks: builds the B2
    /// models and leaves B1, B3 and the components to first use.
    fn assemble(
        faults: FaultSet,
        mccs: Vec<MccSet>,
        bounds: Vec<BoundarySet>,
        blocks: BlockSet,
    ) -> Self {
        let b2 = mccs
            .iter()
            .zip(&bounds)
            .map(|(set, b)| InfoModel::build_with(set, b, ModelKind::B2))
            .collect();
        Network {
            faults,
            mccs,
            b2,
            b1: Default::default(),
            b3: Default::default(),
            bounds,
            blocks,
            components: OnceLock::new(),
        }
    }

    /// The incremental single-fault update: relabels only the delta
    /// (seeded fixpoint for injections, component-scoped recompute for
    /// repairs), re-extracts components, and rebuilds boundary walks
    /// only for components whose footprint or interaction set the delta
    /// touched. Returns `None` when the delta **merges** existing
    /// components (injection) or **splits** one (repair) in any
    /// orientation — the caller then falls back to a full
    /// [`Network::build`], so all four orientations are relabelled and
    /// tested first (under a millisecond) and a fallback has built no
    /// boundary or model by the time it is known. Like a build, it builds
    /// the B2 models and leaves B1 and B3 to first use. The result is
    /// bit-identical to a from-scratch build (pinned by the equivalence
    /// proptest).
    pub(crate) fn incrementally_updated(
        &self,
        new_faults: &FaultSet,
        change: FaultChange,
    ) -> Option<Network> {
        let deltas: Vec<Relabelled> = Orientation::ALL
            .into_iter()
            .map(|o| self.relabelled(o, new_faults, change))
            .collect::<Option<_>>()?;
        let mesh = *self.mesh();
        let mut mccs = Vec::with_capacity(4);
        let mut bounds = Vec::with_capacity(4);
        for (o, Relabelled { new_set, changed, affected_old, remap }) in
            Orientation::ALL.into_iter().zip(deltas)
        {
            let old_bounds = &self.bounds[o.index()];
            let mut inverse: Vec<Option<MccId>> = vec![None; new_set.len()];
            for (oi, nid) in remap.iter().enumerate() {
                if let Some(nid) = nid {
                    inverse[nid.index()] = Some(MccId(oi as u32));
                }
            }

            // Dirty test: a component's boundary record is reusable
            // only when its stored footprint stays clear of every
            // relabeled cell (walks re-read those labels) and no
            // component it interacted with (merge lists cover walk
            // hits and corner absorptions) is the affected one
            // (their shapes feed the walk geometry).
            // The poisoned cells are a few 5x5 squares; a footprint node
            // is hashed only inside their bounding rectangle.
            let mut poison: FxHashSet<Coord> = FxHashSet::default();
            let mut reach: Option<Rect> = None;
            for &cc in &changed {
                let square =
                    Rect::new(Coord::new(cc.x - 2, cc.y - 2), Coord::new(cc.x + 2, cc.y + 2));
                poison.extend(square.iter());
                let reach = reach.get_or_insert(square);
                reach.expand(Coord::new(square.x0, square.y0));
                reach.expand(Coord::new(square.x1, square.y1));
            }
            let dirty_new: Option<MccId> = match change {
                FaultChange::Added(c) => new_set.mcc_at(o.apply(&mesh, c)),
                FaultChange::Removed(_) => remap[affected_old[0].index()],
            };
            let dirty = |old_id: MccId| -> bool {
                let b = old_bounds.get(old_id);
                affected_old.iter().any(|a| b.merged_y().contains(a) || b.merged_x().contains(a))
                    || reach.is_some_and(|reach| {
                        b.footprint().any(|n| reach.contains(n) && poison.contains(&n))
                    })
            };
            let new_bounds = BoundarySet::build_reusing(
                &new_set,
                |new_id| {
                    if Some(new_id) == dirty_new {
                        return None;
                    }
                    let old_id = inverse[new_id.index()]?;
                    if affected_old.contains(&old_id) || dirty(old_id) {
                        return None;
                    }
                    Some(old_bounds.get(old_id))
                },
                |v| remap[v.index()],
            );
            bounds.push(new_bounds);
            mccs.push(new_set);
        }
        let blocks = BlockSet::build(new_faults);
        Some(Network::assemble(new_faults.clone(), mccs, bounds, blocks))
    }

    /// The cheap half of an incremental update under orientation `o`:
    /// the patched labeling's components and the old-to-new id map, or
    /// `None` when the delta merged or split components.
    fn relabelled(
        &self,
        o: Orientation,
        new_faults: &FaultSet,
        change: FaultChange,
    ) -> Option<Relabelled> {
        let old_set = self.mccs(o);

        // 1. Patch the labeling and collect the relabeled cells
        //    (oriented frame) plus the old components they touch.
        let (new_lab, changed, affected_old) = match change {
            FaultChange::Added(c) => {
                let (lab, changed) = old_set.labeling().with_fault_added(new_faults, c);
                let mut affected: Vec<MccId> = Vec::new();
                let mut note = |id: Option<MccId>| {
                    if let Some(id) = id {
                        if !affected.contains(&id) {
                            affected.push(id);
                        }
                    }
                };
                for &cc in &changed {
                    note(old_set.mcc_at(cc));
                    for nb in cc.neighbors() {
                        note(old_set.mcc_at(nb));
                    }
                }
                if affected.len() >= 2 {
                    return None; // components merged: full rebuild
                }
                (lab, changed, affected)
            }
            FaultChange::Removed(c) => {
                let oc = o.apply(self.mesh(), c);
                let id = old_set.mcc_at(oc).expect("a faulty cell is always in an MCC");
                let comp: Vec<Coord> = old_set.get(id).cells().collect();
                let (lab, changed) = old_set.labeling().with_fault_removed(new_faults, c, &comp);
                (lab, changed, vec![id])
            }
        };

        // 2. Re-extract components (cheap scan; identical ids and
        //    shapes to a from-scratch build by construction).
        let new_set = MccSet::from_labeling(new_lab, new_faults);

        // 3. Map surviving old components to their new ids via a
        //    representative cell; detect repair-induced splits.
        let mut remap: Vec<Option<MccId>> = vec![None; old_set.len()];
        for old in old_set.iter() {
            if let FaultChange::Removed(_) = change {
                if old.id() == affected_old[0] {
                    let mut survivors: Vec<MccId> = Vec::new();
                    for cc in old.cells() {
                        if let Some(nid) = new_set.mcc_at(cc) {
                            if !survivors.contains(&nid) {
                                survivors.push(nid);
                            }
                        }
                    }
                    if survivors.len() > 1 {
                        return None; // component split: full rebuild
                    }
                    remap[old.id().index()] = survivors.first().copied();
                    continue;
                }
            }
            let rep = old.cells().next().expect("components are non-empty");
            let nid = new_set.mcc_at(rep).expect("untouched cells stay unsafe");
            remap[old.id().index()] = Some(nid);
        }
        Some(Relabelled { new_set, changed, affected_old, remap })
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        self.faults.mesh()
    }

    /// The fault set.
    #[inline]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// MCC analysis for one orientation.
    #[inline]
    pub fn mccs(&self, o: Orientation) -> &MccSet {
        &self.mccs[o.index()]
    }

    /// Information model of `kind` for one orientation. B2 is built with
    /// the network; B1 and B3 are built here on their first call, once
    /// however many threads ask, and every later call returns that model.
    #[inline]
    pub fn model(&self, o: Orientation, kind: ModelKind) -> &InfoModel {
        let i = o.index();
        let lazy = match kind {
            ModelKind::B1 => &self.b1[i],
            ModelKind::B2 => return &self.b2[i],
            ModelKind::B3 => &self.b3[i],
        };
        lazy.get_or_init(|| InfoModel::build_with(&self.mccs[i], &self.bounds[i], kind))
    }

    /// Rectangular fault blocks (E-cube baseline).
    #[inline]
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// The healthy component holding `c` (`None` for a faulty or off-mesh
    /// node): two healthy nodes have a healthy path between them exactly
    /// when their labels agree. The labels are flooded once per
    /// configuration, on first use; every later call is one grid read —
    /// which is how the route service and the traffic path table answer
    /// a cut pair without routing it.
    pub fn component_of(&self, c: Coord) -> Option<u32> {
        let labels = self.components.get_or_init(|| components(&self.faults).0);
        labels.get(c).copied().filter(|&l| l != u32::MAX)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use meshpath_mesh::FaultInjection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `a` equals `b` on `set`: knowledge at every (node, MCC), the stats
    /// and the Eq.-4 successors.
    pub(crate) fn assert_same_model(a: &InfoModel, b: &InfoModel, set: &MccSet) {
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.stats(), b.stats(), "{:?} stats", a.kind());
        for id in (0..set.len() as u32).map(MccId) {
            assert_eq!(a.succ_y(id), b.succ_y(id), "{:?} succ_y of {id:?}", a.kind());
            assert_eq!(a.succ_x(id), b.succ_x(id), "{:?} succ_x of {id:?}", a.kind());
            for n in set.mesh().iter() {
                assert_eq!(a.knows(n, id), b.knows(n, id), "{:?}: {n:?} of {id:?}", a.kind());
            }
        }
    }

    /// Four threads racing for every orientation's B3 model get one model,
    /// built once, equal to a stand-alone build.
    #[test]
    fn racing_threads_share_one_first_use_build() {
        let mesh = Mesh::square(24);
        let mut rng = StdRng::seed_from_u64(30);
        let view =
            crate::NetView::build(FaultSet::random(mesh, 40, FaultInjection::Uniform, &mut rng));
        // The threads start together, each at a different orientation.
        let start = std::sync::Barrier::new(4);
        let asked: Vec<Vec<(Orientation, &InfoModel)>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (view, start) = (&view, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..4)
                            .map(|k| Orientation::ALL[(k + t) % 4])
                            .map(|o| (o, view.model(o, ModelKind::B3)))
                            .collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("no panic")).collect()
        });
        for (o, model) in asked.into_iter().flatten() {
            assert!(std::ptr::eq(model, view.model(o, ModelKind::B3)), "{o:?}: two B3 models");
        }
        for o in Orientation::ALL {
            let first = view.model(o, ModelKind::B3);
            let set = view.mccs(o);
            assert_same_model(first, &InfoModel::build(set, ModelKind::B3), set);
        }
    }

    /// Every incremental update leaves each orientation's boundary set
    /// equal, field for field, to a from-scratch build's: reused records
    /// are copied into the layout a fresh build writes.
    #[test]
    fn incremental_boundaries_equal_a_fresh_build() {
        let mesh = Mesh::square(24);
        let mut rng = StdRng::seed_from_u64(28);
        let mut faults = FaultSet::random(mesh, 40, FaultInjection::Uniform, &mut rng);
        let mut net = Network::build(faults.clone());
        let mut incremental = 0;
        for _ in 0..60 {
            let c = Coord::new(rng.gen_range(0..24), rng.gen_range(0..24));
            let change = if faults.is_faulty(c) {
                faults.repair(c);
                FaultChange::Removed(c)
            } else {
                faults.inject(c);
                FaultChange::Added(c)
            };
            let fresh = Network::build(faults.clone());
            net = match net.incrementally_updated(&faults, change) {
                Some(updated) => {
                    incremental += 1;
                    for o in Orientation::ALL {
                        let (a, b) = (&updated.bounds[o.index()], &fresh.bounds[o.index()]);
                        assert!(a == b, "{change:?} under {o:?}: boundaries differ");
                    }
                    updated
                }
                None => fresh,
            };
        }
        assert!(incremental >= 40, "only {incremental} of 60 updates were incremental");
    }

    #[test]
    fn build_populates_all_orientations() {
        let mesh = Mesh::square(12);
        let faults =
            FaultSet::from_coords(mesh, [Coord::new(4, 4), Coord::new(5, 3), Coord::new(8, 9)]);
        let net = Network::build(faults);
        for o in Orientation::ALL {
            assert!(net.mccs(o).len() >= 2);
            for kind in ModelKind::ALL {
                // Models exist and carry consistent safe-node counts.
                assert_eq!(
                    net.model(o, kind).stats().safe_nodes,
                    net.mccs(o).labeling().safe_count()
                );
            }
        }
        assert!(net.blocks().disabled_count() >= 3);
    }

    #[test]
    fn component_labels_separate_a_walled_in_node() {
        let mesh = Mesh::square(6);
        // (0,0) is healthy but cut off by (1,0) and (0,1).
        let net = Network::build(FaultSet::from_coords(mesh, [Coord::new(1, 0), Coord::new(0, 1)]));
        let pocket = net.component_of(Coord::new(0, 0)).expect("healthy");
        let main = net.component_of(Coord::new(5, 5)).expect("healthy");
        assert_ne!(pocket, main);
        assert_eq!(net.component_of(Coord::new(2, 2)), Some(main));
        assert_eq!(net.component_of(Coord::new(1, 0)), None, "faulty nodes carry no label");
        assert_eq!(net.component_of(Coord::new(-1, 0)), None, "off-mesh nodes carry no label");
    }
}
