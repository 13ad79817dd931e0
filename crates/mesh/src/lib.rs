//! # meshpath-mesh
//!
//! 2-D mesh topology substrate for the `meshpath` workspace.
//!
//! This crate provides the geometric and structural vocabulary every other
//! crate builds on:
//!
//! * [`Coord`] — signed 2-D coordinates (signed so that virtual corners one
//!   step outside the mesh, which the routing algorithms reason about, are
//!   representable).
//! * [`Dir`] and [`Axis`] — the four mesh directions `+X/-X/+Y/-Y` used by
//!   the paper's labeling and routing rules.
//! * [`HopSeq`] — a walk as its hop directions, two bits a hop: the
//!   workspace's one route representation.
//! * [`Orientation`] — the four axis reflections realizing the paper's
//!   "without loss of generality assume `xs = ys = 0` and `xd, yd >= 0`"
//!   normalization.
//! * [`Mesh`] — mesh dimensions, bounds checks, node indexing and neighbor
//!   arithmetic.
//! * [`Grid`] / [`BitGrid`] — dense per-node storage.
//! * [`Rect`] — the `[x : x', y : y']` rectangular regions of the paper.
//! * [`FaultSet`] — fault injection (uniform and clustered) and queries.
//! * [`connect`] — connectivity among non-faulty nodes (BFS, components).
//!
//! The mesh model follows Section 2 of Jiang & Wu, *On Achieving the
//! Shortest-Path Routing in 2-D Meshes* (IPDPS 2007): an `n x n` 2-D mesh
//! where each interior node has degree 4 and nodes along each dimension are
//! connected as a linear array.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connect;
pub mod coord;
pub mod dir;
pub mod faults;
pub mod grid;
pub mod hash;
pub mod hop_seq;
pub mod mesh;
pub mod orient;
pub mod region;
pub mod render;

pub use connect::{components, is_connected};
pub use coord::Coord;
pub use dir::{Axis, Dir};
pub use faults::{FaultInjection, FaultSet};
pub use grid::{BitGrid, Grid};
pub use hash::{derive_seed, FxHashMap, FxHashSet};
pub use hop_seq::HopSeq;
pub use mesh::{Mesh, NodeId};
pub use orient::Orientation;
pub use region::Rect;
