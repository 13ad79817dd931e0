//! # meshpath-route
//!
//! The routing algorithms of Jiang & Wu (IPDPS 2007) and their baselines:
//!
//! * [`Alg2`](alg2) — *Manhattan routing*: minimal forwarding whose
//!   candidate directions are pruned by the boundary triples; `+X` first
//!   unless a triple guards the phase's target.
//! * [`Rb1`] — Algorithm 3: Manhattan routing over the B1
//!   model with E-cube style clockwise detours when blocked.
//! * [`Rb2`] — Algorithm 5: multi-phase shortest-path
//!   routing over the B2 model; identifies the closest blocking sequence
//!   (Eq. 1), computes the detour distance recursively (Eqs. 2–3), and
//!   forwards through intermediate destinations at MCC corners.
//! * [`Rb3`] — Algorithm 7: the same machinery over the B3
//!   model (boundary knowledge + Eq. 4/5 relation chains).
//! * [`ECube`] — the fault-tolerant dimension-order
//!   baseline of Boppana & Chalasani over rectangular fault blocks.
//! * [`oracle`] — BFS ground truth (the optimum the paper's Fig. 5(d)/(e)
//!   normalize against) and a monotone-path feasibility DP.
//!
//! All routers make **per-hop local decisions**: a node sees its own and
//! its neighbors' labeling status plus whatever the information model
//! stored at it, nothing else (a [`KnowledgeScope`]
//! switch enables idealized global knowledge for reference runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg2;
pub mod engine;
pub mod env;
pub mod hop;
pub mod monotone;
pub mod oracle;
pub mod routers;
pub mod seq;
pub mod view;

pub use engine::{validate_path, RouteResult};
pub use env::Network;
pub use hop::{drive, Decision, HopCtx, HopState, Router, RoutingKind, XyRouter};
pub use routers::{ECube, Rb1, Rb2, Rb3};
pub use seq::KnowledgeScope;
pub use view::{NetState, NetView, UpdateError};
