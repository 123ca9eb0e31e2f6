//! # hsim-mesh
//!
//! 3D block-structured mesh infrastructure for the hydro mini-app and
//! the cooperative runner: global grids, rank-local subdomains with
//! ghost layers, the structure-of-arrays zone slab every rank's state
//! lives in, the paper's three domain decompositions, and
//! halo-exchange plans.
//!
//! Decompositions (paper §6.1, Figures 9–10) are one two-level
//! [`decomp::nested()`] partition:
//!
//! * level 1 cuts near-cubic blocks — over all three axes for the
//!   traditional "square" domains of Figure 9 (good surface-to-volume,
//!   but the neighbor count and communication volume grow quickly with
//!   rank count on a single node), over y and z only, one per GPU, for
//!   the GPU modes;
//! * level 2 cuts each block along a *single* dimension, which keeps
//!   the halo neighbor count minimal: equal z-pieces for the extra MPI
//!   ranks of a GPU (Figure 10b), or thin y-slabs for the CPU ranks
//!   (Figure 10c, [`decomp::weighted`]), slab thickness set by the load
//!   balancer subject to a one-plane minimum granularity.

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
