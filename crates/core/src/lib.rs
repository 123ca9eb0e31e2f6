//! # hsim-core
//!
//! The paper's contribution: **cooperative CPU+GPU execution of a
//! multi-physics simulation on a heterogeneous node**, reproduced on a
//! fully simulated node (devices, MPI, and time are all virtual — see
//! the substrate crates).
//!
//! The crate assembles everything below it:
//!
//! * [`node`] — the machine model: RZHasGPU (2× 8-core Haswell +
//!   4 K80s, the paper's testbed) and a Sierra-EA preset.
//! * [`mode`] — the four ways to use the node (paper Figures 1–4):
//!   CPU-only, Default (1 MPI/GPU), MPS (n MPI/GPU), Heterogeneous.
//! * [`balance`] — the §6.2 load balancer: FLOPS-based initial split,
//!   measured per-role times, granularity-constrained adjustment
//!   between iterations.
//! * [`coupler`] — halo exchange + reductions over simulated MPI, with
//!   host-staging charges for GPU ranks (and a GPU-direct toggle,
//!   §5.3's future work).
//! * [`runner`] — the cooperative runner: decompose per mode (one
//!   nested partition, whose owners are the rank table: rank `r` runs
//!   on core `r` and drives the GPU its piece names, if any — "the CPU
//!   core/GPU binding needs to be carefully set up to avoid
//!   performance degradation", §5), spawn ranks, run hydro cycles, apply the host-bandwidth model,
//!   report per-rank time breakdowns. Rank set-up applies the Figure 8
//!   memory scheme and charges a GPU rank its mesh's unified-memory
//!   fault-in. One loop over *segments*
//!   ([`runner::run_with_fraction`]): the decomposition is static
//!   within a segment and may change at the boundary between two. A
//!   boundary is a controller tick (the online [`Rebalancer`] may
//!   re-split) or the permanent loss of a CPU rank from a [`faults`]
//!   plan (its slab folds back into its parent GPU block — graceful
//!   degradation toward the Default mode); a run with neither is one
//!   segment. Every boundary that moves zones is charged the same
//!   α–β redistribution cost, controller or not. Transient
//!   device/transfer faults are retried inside a segment. Each
//!   segment's ranks run one rank body, `runner::rank_body` (set up,
//!   step a cycle, report), under either rank driver, and the run loop
//!   merges their outputs once (`RunAcc::fold`).
//! * `period` — the period board of a segment that only prices its
//!   kernels: each rank marks and posts its cycle (`PeriodBoard`,
//!   `Seat`), and once every rank has seen one common advance the
//!   cycles ahead are added up, not stepped (`Seat::add_up`).
//! * [`figures`] — sweep configurations for every evaluation figure
//!   (12–18) and the one sweep engine that runs them
//!   ([`figures::run_figure_with`]).
//! * [`spec`] — the run-spec table: every key, name table and value
//!   syntax by which text becomes a [`runner::RunConfig`], shared by
//!   the command line and the serve front end.
//! * [`calib`] — every tunable constant of the cost model, documented.
//! * [`confhash`] — canonical byte encoding + FNV-1a content hash of
//!   a [`runner::RunConfig`], the exact cache key for served results.

pub mod balance;
pub mod calib;
pub mod confhash;
pub mod coupler;
pub mod figures;
pub mod mode;
pub mod node;
mod period;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod spec;

/// Fault-injection plans and sites (re-exported so callers can build
/// [`runner::RunConfig::faults`] without a direct dependency).
pub use hsim_faults as faults;

pub use balance::{LoadBalancer, RebalanceConfig, Rebalancer};
pub use figures::{FigureSpec, SweepPoint};
pub use mode::ExecMode;
pub use node::NodeConfig;
pub use report::{ParticleReport, RankReport, RunResult};
pub use runner::{run, run_balanced, RunConfig};
pub use scenario::{Scenario, ScenarioOutcome};
