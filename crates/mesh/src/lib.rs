//! # hsim-mesh
//!
//! 3D block-structured mesh infrastructure for the hydro mini-app and
//! the cooperative runner: global grids, rank-local subdomains with
//! ghost layers, the structure-of-arrays zone slab every rank's state
//! lives in, the paper's three domain decompositions, and
//! halo-exchange plans.
//!
//! Decompositions (paper §6.1, Figures 9–10):
//!
//! * [`decomp::block`] — the traditional near-cubic decomposition
//!   ("'square' domains", Figure 9). Good surface-to-volume, but the
//!   neighbor count and communication volume grow quickly with rank
//!   count on a single node.
//! * [`decomp::hierarchical`] — the paper's two-level scheme (Figure
//!   10b): first one near-cubic block per GPU, then each block
//!   subdivided along a *single* dimension for the extra MPI ranks,
//!   which keeps the halo neighbor count minimal.
//! * [`decomp::weighted`] — the heterogeneous scheme (Figure 10c): one
//!   block per GPU with thin y-slabs carved off for the CPU ranks, slab
//!   thickness set by the load balancer subject to a one-plane minimum
//!   granularity.

#![forbid(unsafe_code)]

pub mod decomp;
pub mod domain;
pub mod grid;
pub mod halo;
pub mod soa;

pub use decomp::{Decomposition, OwnerKind};
pub use domain::Subdomain;
pub use grid::GlobalGrid;
pub use halo::{Exchange, HaloPlan};
pub use soa::{Side, SoaBlock};
