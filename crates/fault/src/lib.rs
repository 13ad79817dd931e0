//! # meshpath-fault
//!
//! Fault models for 2-D meshes, centered on Wang's **minimal connected
//! component (MCC)** model as used by Jiang & Wu (IPDPS 2007).
//!
//! The MCC model refines the classic rectangular fault block model by
//! including a non-faulty node in a fault region only if *using it in a
//! routing would definitely make the route non-shortest* (relative to the
//! source/destination quadrant). Concretely, Section 2 of the paper defines
//! an iterative labeling:
//!
//! * a safe node whose `+X` **and** `+Y` neighbors are faulty or *useless*
//!   becomes **useless** (once a routing enters it, the next move must take
//!   a `-X`/`-Y` direction);
//! * a safe node whose `-X` **and** `-Y` neighbors are faulty or
//!   *can't-reach* becomes **can't-reach** (entering it required a
//!   `-X`/`-Y` move);
//! * iterate to fixpoint. Faulty, useless and can't-reach nodes are
//!   *unsafe*; 4-connected groups of unsafe nodes form the MCCs.
//!
//! This crate provides:
//!
//! * [`NodeStatus`] / [`Labeling`] — the fixpoint labeling, computed per
//!   [`Orientation`] (the paper's WLOG destination-NE-of-source frame).
//!   Section 2's "only those affected nodes update their status" is
//!   [`Labeling::with_fault_added`] / [`Labeling::with_fault_removed`]:
//!   a worklist seeded at the changed fault (or its old component).
//! * [`Mcc`] / [`MccSet`] — extraction of the components, their
//!   rising-staircase shape, and the initialization/opposite corners the
//!   routing algorithms pivot around.
//! * [`blocks`] — the classic rectangular fault block model, used by the
//!   fault-tolerant E-cube baseline of the evaluation.
//! * [`stats`] — disabled-area and MCC-count statistics (Fig. 5a/5b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod labeling;
pub mod mcc;
pub mod stats;

pub use blocks::BlockSet;
pub use labeling::{BorderPolicy, Labeling, NodeStatus};
pub use mcc::{Mcc, MccId, MccSet};
pub use meshpath_mesh::Orientation;
