//! # hsim-hydro
//!
//! The multi-physics proxy: a complete 3D compressible-hydrodynamics
//! mini-app standing in for the hydro package of ARES (which is
//! proprietary). It is written entirely against the `hsim-raja`
//! portability layer — every loop is a `forall` kernel whose execution
//! target (CPU core or simulated GPU) is chosen by the control code at
//! runtime, exactly as in the paper's §5.1.
//!
//! **Scheme.** First-order Godunov finite volume with Rusanov (local
//! Lax–Friedrichs) fluxes and a two-stage (Heun) time integrator on a
//! zone-centered structured grid: simple, robust, conservative by
//! construction, and shock-capturing — everything the 3D Sedov blast
//! wave problem (§7, Figure 11) needs.
//!
//! **Kernel granularity.** Fluxes and updates are separate kernels per
//! conserved variable per axis, plus EOS/primitive kernels, boundary
//! kernels, and the CFL reduction: ~85 launches per cycle, matching
//! the paper's "hydrodynamics calculation with 80 kernels" (Figure 11
//! caption). Fine-grained kernels are also what makes kernel-launch
//! overhead and MPS overlap matter, which the evaluation probes.
//!
//! **Fidelity.** Bodies run under `Fidelity::Full` (tests, examples)
//! and are skipped under `CostOnly` (large sweeps) — virtual time is
//! identical because kernel cost depends only on sizes and shapes.

pub mod bc;
pub mod cycle;
pub mod diffusion;
pub mod eos;
pub mod flux;
pub mod fused;
pub mod kernels;
pub mod muscl;
pub mod noh;
pub mod sedov;
pub mod sod;
pub mod state;
pub mod taylor_green;
pub mod workload;

pub use cycle::{step, step_with, CoupleError, Coupler, CycleError, CycleStats, SoloCoupler};
pub use diffusion::{diffuse_step, diffusion_dt, DiffusionConfig};
pub use muscl::{sweep_muscl, Reconstruction};
pub use noh::NohConfig;
pub use sedov::{sedov_shock_radius, SedovConfig};
pub use sod::{exact_solution, GasState, SodConfig};
pub use state::{HydroState, NCONS};
pub use taylor_green::TaylorGreenConfig;
pub use workload::PerturbedConfig;
