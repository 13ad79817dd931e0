//! # meshpath-info
//!
//! The fault-information models of Jiang & Wu (IPDPS 2007):
//!
//! * **B1** (prior work, Algorithm 1): per MCC, the identified shape
//!   propagates along one boundary line per axis — the `-X` boundary
//!   descending from the initialization corner `c` and the `-Y` boundary
//!   heading west from `c` — turning around intervening MCCs and joining
//!   their boundaries.
//! * **B2** (proposed, Algorithm 4): additionally builds the `+X`/`+Y`
//!   boundaries from the opposite corner `c'` and **broadcasts** the
//!   triple into the forbidden region enclosed between the two boundary
//!   polylines, so that every node inside the region can make
//!   shortest-path decisions.
//! * **B3** (practical extension, Algorithm 6): both boundaries plus
//!   *relation records* (`F(v) -> F(c)`, Eq. 4) that let boundary nodes
//!   reconstruct blocking sequences without any interior broadcast.
//!
//! The construction machinery:
//!
//! * `walker` — a wall-following polyline walker implementing the
//!   paper's "make a right/left turn and go along the edges of `F(v)`".
//! * [`boundary`] — the four per-MCC boundary polylines, hit records,
//!   merge lists and forbidden regions.
//! * [`model`] — [`InfoModel`]: per-node knowledge tables (each distinct
//!   carrier set stored once, indexed per MCC), involved-node accounting
//!   (Fig. 5c), and Eq.-4 successor resolution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod model;
mod walker;

pub use boundary::{BoundarySet, MccBoundaries, Region};
pub use model::{InfoModel, ModelKind, PropagationStats};
pub use walker::{Nodes, Walk};
