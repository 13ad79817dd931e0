//! Epoch-versioned network snapshots: [`NetView`] (the immutable,
//! cheaply-shareable analysis of one fault configuration) and
//! [`NetState`] (the owner that applies incremental fault updates and
//! publishes a fresh snapshot per mutation).
//!
//! ## Why snapshots
//!
//! The paper's B1/B2/B3 structures are *distributed, locally
//! maintained* fault information: real deployments add and remove
//! faults while routing continues. A bare `&Network` cannot express
//! that — every borrower pins one immutable configuration forever.
//! [`NetView`] wraps the analysis in an [`Arc`] with an `epoch`
//! counter, so:
//!
//! * any number of threads can route against the current snapshot
//!   without locks (cloning a view is one atomic increment);
//! * a mutation never disturbs in-flight queries — they keep their
//!   epoch's snapshot; new queries see the new epoch;
//! * consumers that cache per-configuration data (compiled route
//!   tables, escape forests) key it by `epoch` instead of guessing.
//!
//! ## What is built when
//!
//! [`NetView::build`] and every published update build, per orientation,
//! the MCCs, their boundary walks and the B2 model — what RB2, the
//! default router, reads — plus the fault blocks. The B1 and B3 models
//! are built on the first [`Network::model`] call that asks for them, once
//! per snapshot however many threads race for them; a view that only
//! RB2 routes on never holds them.
//!
//! ## Incremental updates
//!
//! [`NetState::add_fault`] / [`NetState::remove_fault`] patch the
//! labeling with a delta-seeded fixpoint, re-extract components, and
//! rebuild boundary walks only for components the delta touched
//! (footprint or interaction); the update falls back to a full
//! [`Network::build`] when the touched region merges or splits
//! components. Either way the published snapshot is bit-identical to a
//! from-scratch build of the final fault set — pinned by the
//! `incremental` equivalence proptest in the workspace test suite.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use meshpath_mesh::{Coord, FaultSet};

use crate::env::{FaultChange, Network};

/// An immutable, epoch-versioned snapshot of one analyzed fault
/// configuration. Cloning is O(1) (`Arc`); all [`Network`] accessors
/// are available through `Deref`.
#[derive(Clone)]
pub struct NetView {
    net: Arc<Network>,
    epoch: u64,
}

impl NetView {
    /// Wraps an analyzed network as the epoch-0 snapshot.
    pub fn new(net: Network) -> Self {
        NetView { net: Arc::new(net), epoch: 0 }
    }

    /// Analyzes `faults` and wraps the result (epoch 0) — the usual
    /// entry point: `NetView::build(faults)` replaces the former
    /// `Network::build(faults)` at call sites that route.
    pub fn build(faults: FaultSet) -> Self {
        NetView::new(Network::build(faults))
    }

    /// The snapshot's epoch: 0 for a fresh build, incremented by every
    /// [`NetState`] mutation that published this view.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying analysis (also reachable via `Deref`).
    #[inline]
    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl Deref for NetView {
    type Target = Network;

    #[inline]
    fn deref(&self) -> &Network {
        &self.net
    }
}

impl fmt::Debug for NetView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetView")
            .field("epoch", &self.epoch)
            .field("mesh", self.mesh())
            .field("faults", &self.faults().count())
            .finish()
    }
}

/// Why a [`NetState`] mutation was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateError {
    /// The coordinate lies outside the mesh.
    OffMesh(Coord),
    /// `add_fault` on a node that is already faulty.
    AlreadyFaulty(Coord),
    /// `remove_fault` on a node that is not faulty.
    NotFaulty(Coord),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::OffMesh(c) => write!(f, "{c:?} lies outside the mesh"),
            UpdateError::AlreadyFaulty(c) => write!(f, "{c:?} is already faulty"),
            UpdateError::NotFaulty(c) => write!(f, "{c:?} is not faulty"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The mutable owner of a network: applies fault injections/repairs
/// **incrementally** and publishes a new [`NetView`] snapshot (epoch +1)
/// per mutation. Existing views are never disturbed.
pub struct NetState {
    view: NetView,
    /// Whether the last successful mutation took the incremental path
    /// (`false` = merge/split forced a full rebuild).
    last_incremental: bool,
}

impl NetState {
    /// Analyzes `faults` as epoch 0.
    pub fn new(faults: FaultSet) -> Self {
        NetState { view: NetView::build(faults), last_incremental: false }
    }

    /// Adopts an existing snapshot (keeping its epoch) without
    /// re-analyzing — e.g. to continue mutating a view that a
    /// simulation or service already built.
    pub fn adopt(view: NetView) -> Self {
        NetState { view, last_incremental: false }
    }

    /// The current snapshot (cheap clone; hand it to readers).
    #[inline]
    pub fn view(&self) -> NetView {
        self.view.clone()
    }

    /// The current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Whether the last successful mutation was applied incrementally
    /// (as opposed to the merge/split full-rebuild fallback).
    #[inline]
    pub fn last_update_was_incremental(&self) -> bool {
        self.last_incremental
    }

    /// Marks `c` faulty and publishes the new snapshot. Incremental:
    /// only the labeling delta and the touched components' boundary
    /// structures are recomputed, unless the new fault merges existing
    /// components (then a full rebuild runs). Returns the new view.
    pub fn add_fault(&mut self, c: Coord) -> Result<NetView, UpdateError> {
        if !self.view.mesh().contains(c) {
            return Err(UpdateError::OffMesh(c));
        }
        if self.view.faults().is_faulty(c) {
            return Err(UpdateError::AlreadyFaulty(c));
        }
        let mut faults = self.view.faults().clone();
        faults.inject(c);
        self.publish(faults, FaultChange::Added(c));
        Ok(self.view())
    }

    /// Repairs the fault at `c` and publishes the new snapshot
    /// (incremental, with a full-rebuild fallback when the repair
    /// splits a component). Returns the new view.
    pub fn remove_fault(&mut self, c: Coord) -> Result<NetView, UpdateError> {
        if !self.view.mesh().contains(c) {
            return Err(UpdateError::OffMesh(c));
        }
        if !self.view.faults().is_faulty(c) {
            return Err(UpdateError::NotFaulty(c));
        }
        let mut faults = self.view.faults().clone();
        faults.repair(c);
        self.publish(faults, FaultChange::Removed(c));
        Ok(self.view())
    }

    fn publish(&mut self, faults: FaultSet, change: FaultChange) {
        let (net, incremental) = match self.view.network().incrementally_updated(&faults, change) {
            Some(net) => (net, true),
            None => (Network::build(faults), false),
        };
        self.last_incremental = incremental;
        self.view = NetView { net: Arc::new(net), epoch: self.view.epoch() + 1 };
    }
}

impl fmt::Debug for NetState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetState").field("view", &self.view).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{Mesh, Orientation};

    /// Structural equality of two networks: labels, component count,
    /// model stats — the cheap projection the unit tests use (the full
    /// equivalence lives in the workspace proptest).
    fn assert_net_eq(a: &Network, b: &Network) {
        for o in Orientation::ALL {
            assert_eq!(a.mccs(o).len(), b.mccs(o).len());
            for oc in a.mesh().iter() {
                assert_eq!(
                    a.mccs(o).labeling().status(oc),
                    b.mccs(o).labeling().status(oc),
                    "status mismatch at {oc:?} orientation {o:?}"
                );
                assert_eq!(a.mccs(o).mcc_at(oc), b.mccs(o).mcc_at(oc), "mcc id at {oc:?}");
            }
            for kind in meshpath_info::ModelKind::ALL {
                assert_eq!(a.model(o, kind).stats(), b.model(o, kind).stats());
            }
        }
        assert_eq!(a.blocks().disabled_count(), b.blocks().disabled_count());
    }

    #[test]
    fn add_and_remove_track_full_rebuild() {
        let mesh = Mesh::square(12);
        let mut state = NetState::new(FaultSet::from_coords(mesh, [Coord::new(3, 3)]));
        assert_eq!(state.epoch(), 0);
        let steps = [Coord::new(8, 8), Coord::new(7, 9), Coord::new(1, 1)];
        let mut faults = FaultSet::from_coords(mesh, [Coord::new(3, 3)]);
        for (i, &c) in steps.iter().enumerate() {
            let v = state.add_fault(c).expect("valid add");
            faults.inject(c);
            assert_eq!(v.epoch(), i as u64 + 1);
            assert_net_eq(v.network(), &Network::build(faults.clone()));
        }
        let v = state.remove_fault(Coord::new(8, 8)).expect("valid remove");
        faults.repair(Coord::new(8, 8));
        assert_net_eq(v.network(), &Network::build(faults.clone()));
        assert_eq!(v.epoch(), 4);
    }

    #[test]
    fn merge_falls_back_to_full_rebuild() {
        // Two separate faults; injecting the bridge cell merges their
        // MCCs (anti-diagonal fill), forcing the fallback path — which
        // must still produce the exact from-scratch analysis.
        let mesh = Mesh::square(10);
        let mut state =
            NetState::new(FaultSet::from_coords(mesh, [Coord::new(4, 5), Coord::new(6, 5)]));
        let v = state.add_fault(Coord::new(5, 5)).expect("valid add");
        assert!(!state.last_update_was_incremental(), "a merge must trigger the fallback");
        let full = Network::build(FaultSet::from_coords(
            mesh,
            [Coord::new(4, 5), Coord::new(5, 5), Coord::new(6, 5)],
        ));
        assert_net_eq(v.network(), &full);
        assert_eq!(v.mccs(Orientation::IDENTITY).len(), 1);
    }

    #[test]
    fn isolated_updates_stay_incremental() {
        let mesh = Mesh::square(16);
        let mut state = NetState::new(FaultSet::from_coords(mesh, [Coord::new(2, 2)]));
        state.add_fault(Coord::new(12, 12)).expect("valid");
        assert!(state.last_update_was_incremental(), "an isolated fault needs no rebuild");
        state.remove_fault(Coord::new(12, 12)).expect("valid");
        assert!(state.last_update_was_incremental(), "an isolated repair needs no rebuild");
    }

    /// B1 and B3 of an updated view equal a fresh build's, whether or not
    /// the view they were updated from had built its own.
    #[test]
    fn first_use_models_of_an_updated_view_equal_a_fresh_build() {
        use crate::env::tests::assert_same_model;
        use meshpath_info::ModelKind;

        let mesh = Mesh::square(16);
        let start = [Coord::new(3, 3), Coord::new(9, 6), Coord::new(12, 12)];
        for (add, c) in [(true, Coord::new(6, 10)), (false, Coord::new(9, 6))] {
            for read_old in [false, true] {
                let mut state = NetState::new(FaultSet::from_coords(mesh, start));
                if read_old {
                    for o in Orientation::ALL {
                        state.view().model(o, ModelKind::B1);
                        state.view().model(o, ModelKind::B3);
                    }
                }
                let mut faults = FaultSet::from_coords(mesh, start);
                let view = if add {
                    faults.inject(c);
                    state.add_fault(c)
                } else {
                    faults.repair(c);
                    state.remove_fault(c)
                }
                .expect("valid update");
                assert!(state.last_update_was_incremental(), "{c:?} should update in place");
                let fresh = Network::build(faults);
                for o in Orientation::ALL {
                    for kind in [ModelKind::B1, ModelKind::B3] {
                        assert_same_model(view.model(o, kind), fresh.model(o, kind), fresh.mccs(o));
                    }
                }
            }
        }
    }

    #[test]
    fn update_errors_are_typed() {
        let mesh = Mesh::square(8);
        let mut state = NetState::new(FaultSet::from_coords(mesh, [Coord::new(2, 2)]));
        assert_eq!(
            state.add_fault(Coord::new(99, 0)).err(),
            Some(UpdateError::OffMesh(Coord::new(99, 0)))
        );
        assert_eq!(
            state.add_fault(Coord::new(2, 2)).err(),
            Some(UpdateError::AlreadyFaulty(Coord::new(2, 2)))
        );
        assert_eq!(
            state.remove_fault(Coord::new(3, 3)).err(),
            Some(UpdateError::NotFaulty(Coord::new(3, 3)))
        );
        assert_eq!(state.epoch(), 0, "failed mutations must not publish");
    }

    #[test]
    fn views_are_immutable_snapshots() {
        let mesh = Mesh::square(8);
        let mut state = NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        state.add_fault(Coord::new(4, 4)).expect("valid");
        let v1 = state.view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v1.epoch(), 1);
        assert!(v0.faults().is_healthy(Coord::new(4, 4)), "old snapshots never change");
        assert!(v1.faults().is_faulty(Coord::new(4, 4)));
    }
}
