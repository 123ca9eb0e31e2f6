//! # hsim-mpi
//!
//! An in-process MPI: the substrate standing in for the message-passing
//! runtime of the paper's testbed. Ranks live inside one process —
//! one OS thread each, or all of them stepped on the caller's thread
//! when they have nothing to run in parallel (see [`Driver`]);
//! point-to-point messages travel through one inbox per rank and carry
//! the sender's **virtual timestamp**, so simulated time propagates exactly
//! the way causality does in a real bulk-synchronous MPI code:
//!
//! * `send` charges the sender's clock a send overhead and stamps the
//!   message with its departure time;
//! * `recv` waits (in virtual time) until the message's arrival time
//!   `departure + α + bytes/β` — the Lamport `max` of the two ranks'
//!   clocks;
//! * collectives are built from point-to-point trees, so their virtual
//!   cost scales `O(log p)` like real implementations.
//!
//! The paper's experiments all run on a single node (§7), so the
//! default [`CommCost`] models shared-memory MPI transport.
//!
//! ```
//! use hsim_mpi::{CommCost, World};
//!
//! let totals = World::run(4, CommCost::on_node(), |comm| {
//!     let rank_value = comm.rank() as f64;
//!     comm.allreduce_sum(rank_value).unwrap()
//! });
//! assert!(totals.iter().all(|&t| t == 6.0));
//! ```

#![forbid(unsafe_code)]

pub mod comm;
pub mod cost;
pub mod error;
pub mod payload;
pub mod world;

pub use comm::Comm;
pub use cost::CommCost;
pub use error::MpiError;
pub use payload::{Body, Payload};
pub use world::{Driver, World};
