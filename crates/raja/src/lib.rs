//! # hsim-raja
//!
//! A RAJA-style performance-portability layer (paper §4): single-source
//! loop bodies executed under interchangeable **execution policies**,
//! so the same kernel runs on a CPU core or is offloaded to the
//! (simulated) GPU — the mechanism that lets the paper's ARES use "the
//! same source code for both the CPU and the GPU".
//!
//! The pieces:
//!
//! * [`forall`] / [`Executor`] — the `RAJA::forall` equivalent: a loop
//!   body plus an execution target. Bodies always *run* on the host
//!   (they are plain Rust closures — single source); what the policy
//!   changes is **where the virtual time is charged**: a CPU policy
//!   charges the rank's clock by the CPU cost model, the `SimGpu`
//!   policy charges launch overhead and enqueues the kernel on the
//!   shared device timeline. Each executor keeps its launches in a
//!   [`hsim_telemetry::KernelTable`]: host kernels are counted and
//!   timed at launch, device kernels counted at launch and timed at
//!   the sync that resolves them.
//! * [`cpu::CpuModel`] — per-core roofline cost (Haswell preset) plus
//!   the §5.1 **decorated-lambda dispatch penalty**: the nvcc bug that
//!   wraps `__host__ __device__` lambdas in `std::function` on the
//!   host, adding a virtual call per iteration. Light kernels suffer
//!   100–300×; heavier hydro kernels proportionally less.
//! * [`pool::WorkPool`] — a work-sharing thread pool (chunked dynamic
//!   scheduling over an atomic cursor) used for genuinely parallel
//!   host execution of `Sync` bodies, mirroring the OpenMP backend.
//!   Every region — including borrowed-closure regions — runs on the
//!   *persistent* workers through a lifetime-erased job slot with an
//!   acquire/release completion handoff; no region spawns threads.
//!   Pools are shared (one per run) and reductions are chunk-ordered,
//!   so results are bit-identical on any pool geometry.
//! * [`simgpu::SharedDevice`] — the CUDA-backend contact point: rank
//!   threads submit kernels and meet at a device sync, where the
//!   rate-sharing timeline resolves overlap (this is where MPS clients
//!   from different ranks overlap in virtual time).
//! * [`dispatch`] — the runtime policy selection of the paper's
//!   Figure 7: ARES-level execution-policy intents mapped to an
//!   architecture-appropriate backend at runtime.
//! * [`sched_model`] — exhaustive schedule model-checking of the
//!   pool's handoff protocol (a mini-loom over a small-step model).

pub mod cpu;
pub mod dispatch;
pub mod forall;
pub mod indexset;
pub mod multipolicy;
pub mod pool;
pub mod rows;
pub mod sched_model;
pub mod simgpu;

pub use cpu::CpuModel;
pub use dispatch::{select_policy, Arch, AresPolicy, PolicyKind};
pub use forall::{Executor, Fidelity, Target};
pub use indexset::{Tile2, TileSet2};
pub use multipolicy::{MultiPolicy, PolicyChoice};
pub use pool::{RegionSlots, WorkPool};
pub use rows::{TileRows, TiledSlabMut};
pub use simgpu::{GpuClient, SharedDevice};
