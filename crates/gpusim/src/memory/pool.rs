//! cnmem-style stack pool for temporary data.
//!
//! ARES routes temporaries through a cnmem memory pool (paper Figure 8)
//! because per-kernel `cudaMalloc`/`cudaFree` would serialize on the
//! driver. A pool grabs one slab up front and then hands out
//! allocations with stack (LIFO) discipline, which is exactly the
//! lifetime pattern of per-kernel scratch arrays. `reset` reclaims
//! everything at a cycle boundary.

use crate::error::GpuError;

/// Handle to one pool allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAllocation {
    pub offset: u64,
    pub size: u64,
    /// Position in the LIFO stack, used to validate free order.
    seq: usize,
}

/// Every allocation's size is rounded up to this many bytes.
const ALIGNMENT: u64 = 256;

/// A bump allocator with LIFO free discipline over a fixed slab.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    slab: u64,
    top: u64,
    high_water: u64,
    live: Vec<PoolAllocation>,
    /// Count of times a request did not fit (reporting).
    failures: u64,
}

impl MemoryPool {
    /// A pool over a slab of at least `slab_bytes`: the slab is rounded
    /// up like an allocation, so a request of `slab_bytes` fits.
    pub fn new(slab_bytes: u64) -> Self {
        MemoryPool {
            slab: align(slab_bytes),
            top: 0,
            high_water: 0,
            live: Vec::new(),
            failures: 0,
        }
    }

    /// Allocate `size` bytes from the top of the stack.
    pub fn alloc(&mut self, size: u64) -> Result<PoolAllocation, GpuError> {
        let size = align(size);
        if self.top + size > self.slab {
            self.failures += 1;
            return Err(GpuError::OutOfMemory {
                requested: size,
                free: self.slab - self.top,
            });
        }
        let a = PoolAllocation {
            offset: self.top,
            size,
            seq: self.live.len(),
        };
        self.top += size;
        self.high_water = self.high_water.max(self.top);
        self.live.push(a);
        Ok(a)
    }

    /// Free the most recent live allocation. Freeing out of order is a
    /// discipline error (cnmem would leak or corrupt; we fail fast).
    pub fn free(&mut self, a: PoolAllocation) -> Result<(), GpuError> {
        match self.live.last() {
            Some(top) if *top == a => {
                self.live.pop();
                self.top = a.offset;
                Ok(())
            }
            _ => Err(GpuError::PoolDiscipline),
        }
    }

    /// Drop every live allocation (cycle boundary).
    pub fn reset(&mut self) {
        self.live.clear();
        self.top = 0;
    }

    pub fn in_use(&self) -> u64 {
        self.top
    }

    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    pub fn failures(&self) -> u64 {
        self.failures
    }
}

fn align(size: u64) -> u64 {
    size.div_ceil(ALIGNMENT).max(1) * ALIGNMENT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_alloc_free_roundtrip() {
        let mut p = MemoryPool::new(4096);
        let a = p.alloc(256).unwrap();
        let b = p.alloc(256).unwrap();
        assert_eq!(p.in_use(), 512);
        p.free(b).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.high_water(), 512);
    }

    #[test]
    fn out_of_order_free_is_rejected() {
        let mut p = MemoryPool::new(4096);
        let a = p.alloc(256).unwrap();
        let _b = p.alloc(256).unwrap();
        assert_eq!(p.free(a).unwrap_err(), GpuError::PoolDiscipline);
    }

    #[test]
    fn exhaustion_counts_failures() {
        let mut p = MemoryPool::new(1024);
        let _a = p.alloc(1024).unwrap();
        assert!(p.alloc(1).is_err());
        assert_eq!(p.failures(), 1);
    }

    #[test]
    fn reset_reclaims_everything() {
        let mut p = MemoryPool::new(4096);
        let _a = p.alloc(1024).unwrap();
        let _b = p.alloc(1024).unwrap();
        p.reset();
        assert_eq!(p.in_use(), 0);
        // Full slab available again.
        assert!(p.alloc(4096).is_ok());
    }

    #[test]
    fn offsets_stack_upward() {
        let mut p = MemoryPool::new(4096);
        let a = p.alloc(100).unwrap(); // rounds to 256
        let b = p.alloc(100).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 256);
    }

    #[test]
    fn an_unaligned_slab_holds_a_request_of_its_size() {
        // 16 B × 1377 zones: not a multiple of the alignment.
        let mut p = MemoryPool::new(16 * 1377);
        assert!(p.alloc(16 * 1377).is_ok());
    }

    #[test]
    fn freeing_into_empty_pool_fails() {
        let mut p = MemoryPool::new(4096);
        let a = p.alloc(64).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.free(a).unwrap_err(), GpuError::PoolDiscipline);
    }
}
