//! The device memory subsystem: the three data classes of the paper's
//! Figure 8.
//!
//! | data class     | CPU-only process | GPU-driving process        |
//! |----------------|------------------|----------------------------|
//! | control code   | host malloc      | host malloc                |
//! | mesh data      | host malloc      | unified memory ([`unified`]) |
//! | temporary data | host malloc      | device pool ([`pool`], cnmem-style) |
//!
//! Neither draws from [`device_alloc`], a capacity-checked first-fit
//! device heap that each [`Device`](crate::Device) owns: unified memory
//! tracks its own page residency against the device's capacity, and a
//! pool owns its slab. No run allocates from the heap.

pub mod device_alloc;
pub mod pool;
pub mod unified;

pub use device_alloc::{DeviceAllocation, DeviceHeap};
pub use pool::{MemoryPool, PoolAllocation};
pub use unified::{Residency, UnifiedMemory, UnifiedRegionId};
