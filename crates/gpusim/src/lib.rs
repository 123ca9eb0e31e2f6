//! # hsim-gpu
//!
//! A CUDA-like GPU **device simulator**: the substrate standing in for
//! the NVIDIA K80s (and their driver stack) of the paper's RZHasGPU
//! testbed, which this environment does not have.
//!
//! The simulator is *functional where it matters and timed everywhere*:
//!
//! * [`spec::DeviceSpec`] — device capability sheet (SMs, FP64 rate,
//!   memory bandwidth/capacity, launch overhead); presets for the Tesla
//!   K80 and Volta V100 match the paper's testbed and target machine.
//! * [`kernel`] — kernel descriptors and the **occupancy model**: a
//!   kernel's achievable fraction of device throughput as a function of
//!   its innermost-dimension extent and total element count. This single
//!   curve drives the paper's Figures 13–17 (when MPS overlap pays off).
//! * [`timeline`] — a rate-sharing device timeline: concurrent kernels
//!   are malleable jobs whose rates water-fill the device's capacity,
//!   each capped by its occupancy. One client's stream ⇒ its kernels
//!   serialize; MPS ⇒ kernels from co-resident clients overlap exactly
//!   when single kernels underfill the device.
//! * [`device`] — one GPU as a run drives it: a launch queue with a
//!   stream per client (an MPS launch pays the higher overhead of
//!   paper §2), its counters and its unified memory.
//! * [`memory`] — **unified memory**, where the paper's Figure 8 puts a
//!   GPU rank's mesh: the page-migration charge of faulting it onto
//!   the device, with a thrash term past the device's capacity.
//! * [`xfer`] — PCIe staging-cost model for host↔device copies.

pub mod device;
pub mod error;
pub mod kernel;
pub mod memory;
pub mod spec;
pub mod timeline;
pub mod xfer;

pub use device::{Device, Executed, Queued};
pub use error::GpuError;
pub use kernel::{occupancy, KernelDesc, KernelShape};
pub use spec::DeviceSpec;
pub use timeline::{Job, JobOutcome, RateSharingTimeline};
