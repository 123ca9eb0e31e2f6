//! # heterosim
//!
//! Cooperative CPU+GPU computation in a multi-physics simulation: a
//! simulated-node reproduction of *"Experiences Using CPUs and GPUs
//! for Cooperative Computation in a Multi-Physics Simulation"* (Olga
//! Pearce, ICPP 2018 Companion / P2S2).
//!
//! This facade crate re-exports the workspace members under one
//! namespace:
//!
//! * [`time`] — virtual clocks and statistics,
//! * [`gpu`] — the CUDA-like device simulator (contexts, streams,
//!   MPS, memory),
//! * [`mpi`] — the in-process MPI runtime,
//! * [`mesh`] — grids, subdomains, decompositions, halo plans,
//! * [`raja`] — the portability layer (`forall`, policies, pools),
//! * [`hydro`] — the hydro mini-app (Sedov, Sod, Noh, Taylor–Green),
//! * [`particles`] — Lagrangian tracer/drag particles advected
//!   through the hydro field,
//! * [`core`] — the cooperative heterogeneous runner (the paper's
//!   contribution),
//! * [`serve`] — simulation-as-a-service: content-hash result cache,
//!   bounded admission, live `/metrics`,
//! * `bench` (hsim_bench) — figure sweeps and plotting.
//!
//! ## Quickstart
//!
//! ```
//! use heterosim::core::{run, ExecMode, RunConfig};
//!
//! let cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
//! let result = run(&cfg).expect("single-node run");
//! assert!(result.runtime.as_secs_f64() > 0.0);
//! println!("{}", result.breakdown_table());
//! ```

pub use hsim_bench as bench;
pub use hsim_core as core;
pub use hsim_gpu as gpu;
pub use hsim_hydro as hydro;
pub use hsim_mesh as mesh;
pub use hsim_mpi as mpi;
pub use hsim_particles as particles;
pub use hsim_raja as raja;
pub use hsim_serve as serve;
pub use hsim_time as time;
