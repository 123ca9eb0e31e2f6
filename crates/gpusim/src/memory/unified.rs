//! Unified memory (cudaMallocManaged) with page-residency tracking.
//!
//! ARES allocates mesh data in unified memory when a rank drives a GPU
//! (paper Figure 8) so the same pointers work on both processors. UM
//! performance is governed by *page migration*: touching a page from
//! the side where it is not resident faults it across the interconnect.
//! The paper reports that touching GPU memory from CPU-only processes
//! "degraded the performance of the application" (§5.2) — the
//! [`UnifiedMemory::touch_host`] charge is that degradation, made
//! explicit.

use crate::error::GpuError;
use crate::spec::DeviceSpec;
use hsim_time::SimDuration;

/// Where a UM page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    Host,
    Device,
}

/// Handle to one managed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnifiedRegionId(pub usize);

#[derive(Debug)]
struct Region {
    bytes: u64,
    pages: Vec<Residency>,
    live: bool,
}

/// Page-granular unified memory manager for one device.
#[derive(Debug)]
pub struct UnifiedMemory {
    page_size: u64,
    migration_cost: SimDuration,
    device_capacity: u64,
    device_resident_pages: u64,
    regions: Vec<Region>,
}

impl UnifiedMemory {
    pub fn new(spec: &DeviceSpec) -> Self {
        UnifiedMemory {
            page_size: spec.um_page_size,
            migration_cost: spec.um_page_migration,
            device_capacity: spec.mem_capacity,
            device_resident_pages: 0,
            regions: Vec::new(),
        }
    }

    /// Allocate a managed region. Pages start host-resident (CUDA's
    /// first-touch-on-host behaviour for managed memory).
    pub fn alloc(&mut self, bytes: u64) -> UnifiedRegionId {
        let pages = bytes.div_ceil(self.page_size.max(1)) as usize;
        self.regions.push(Region {
            bytes,
            pages: vec![Residency::Host; pages],
            live: true,
        });
        UnifiedRegionId(self.regions.len() - 1)
    }

    /// Release a region; device-resident pages are returned to the
    /// device's free pool.
    pub fn free(&mut self, id: UnifiedRegionId) -> Result<(), GpuError> {
        let region = self
            .regions
            .get_mut(id.0)
            .filter(|r| r.live)
            .ok_or(GpuError::InvalidContext)?;
        let dev_pages = region
            .pages
            .iter()
            .filter(|&&p| p == Residency::Device)
            .count() as u64;
        self.device_resident_pages = self.device_resident_pages.saturating_sub(dev_pages);
        region.live = false;
        region.pages.clear();
        Ok(())
    }

    /// Touch the whole region from the device: migrate host-resident
    /// pages in. Returns the total migration charge.
    pub fn touch_device(&mut self, id: UnifiedRegionId) -> Result<SimDuration, GpuError> {
        let capacity_pages = self.device_capacity / self.page_size.max(1);
        let region = self
            .regions
            .get_mut(id.0)
            .filter(|r| r.live)
            .ok_or(GpuError::InvalidContext)?;
        let mut migrated = 0u64;
        for p in region.pages.iter_mut() {
            if *p == Residency::Host {
                *p = Residency::Device;
                migrated += 1;
            }
        }
        self.device_resident_pages += migrated;
        let mut cost = self.migration_cost * migrated;
        // Oversubscription: pages beyond device capacity thrash — the
        // driver evicts and refaults. Charge each excess page one extra
        // round trip per touch.
        if self.device_resident_pages > capacity_pages {
            let excess = self.device_resident_pages - capacity_pages;
            cost += self.migration_cost * (2 * excess);
        }
        Ok(cost)
    }

    /// Touch the whole region from the host: migrate device-resident
    /// pages out. Returns the migration charge.
    pub fn touch_host(&mut self, id: UnifiedRegionId) -> Result<SimDuration, GpuError> {
        let region = self
            .regions
            .get_mut(id.0)
            .filter(|r| r.live)
            .ok_or(GpuError::InvalidContext)?;
        let mut migrated = 0u64;
        for p in region.pages.iter_mut() {
            if *p == Residency::Device {
                *p = Residency::Host;
                migrated += 1;
            }
        }
        self.device_resident_pages = self.device_resident_pages.saturating_sub(migrated);
        Ok(self.migration_cost * migrated)
    }

    /// Touch a sub-range `[offset, offset + len)` of the region from
    /// the host (e.g. halo faces staged for MPI). Only the covered
    /// pages migrate.
    pub fn touch_host_range(
        &mut self,
        id: UnifiedRegionId,
        offset: u64,
        len: u64,
    ) -> Result<SimDuration, GpuError> {
        let page_size = self.page_size.max(1);
        let region = self
            .regions
            .get_mut(id.0)
            .filter(|r| r.live)
            .ok_or(GpuError::InvalidContext)?;
        if len == 0 || offset >= region.bytes {
            return Ok(SimDuration::ZERO);
        }
        let end = (offset + len).min(region.bytes);
        let p0 = (offset / page_size) as usize;
        let p1 = end.div_ceil(page_size) as usize;
        let mut migrated = 0u64;
        let p1 = p1.min(region.pages.len());
        for p in region.pages[p0..p1].iter_mut() {
            if *p == Residency::Device {
                *p = Residency::Host;
                migrated += 1;
            }
        }
        self.device_resident_pages = self.device_resident_pages.saturating_sub(migrated);
        Ok(self.migration_cost * migrated)
    }

    /// Bytes currently resident on the device.
    pub fn device_resident_bytes(&self) -> u64 {
        self.device_resident_pages * self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um() -> UnifiedMemory {
        UnifiedMemory::new(&DeviceSpec::tesla_k80())
    }

    #[test]
    fn pages_start_host_resident() {
        let mut m = um();
        let r = m.alloc(1 << 20);
        assert_eq!(m.device_resident_bytes(), 0);
        // First device touch migrates everything.
        let cost = m.touch_device(r).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(m.device_resident_bytes(), 1 << 20);
    }

    #[test]
    fn second_device_touch_is_free() {
        let mut m = um();
        let r = m.alloc(1 << 20);
        m.touch_device(r).unwrap();
        let cost = m.touch_device(r).unwrap();
        assert_eq!(cost, SimDuration::ZERO, "already resident");
    }

    #[test]
    fn host_touch_migrates_back_and_charges() {
        let mut m = um();
        let r = m.alloc(1 << 20);
        m.touch_device(r).unwrap();
        let cost = m.touch_host(r).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(m.device_resident_bytes(), 0);
        // Ping-pong: device touch costs again.
        assert!(m.touch_device(r).unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn range_touch_migrates_only_covered_pages() {
        let mut m = um();
        let page = DeviceSpec::tesla_k80().um_page_size;
        let r = m.alloc(page * 10);
        m.touch_device(r).unwrap();
        // Touch two pages' worth from the host.
        let cost = m.touch_host_range(r, 0, page * 2).unwrap();
        assert_eq!(cost, DeviceSpec::tesla_k80().um_page_migration * 2);
        assert_eq!(m.device_resident_bytes(), page * 8);
    }

    #[test]
    fn range_touch_past_end_is_clamped() {
        let mut m = um();
        let page = DeviceSpec::tesla_k80().um_page_size;
        let r = m.alloc(page);
        m.touch_device(r).unwrap();
        let cost = m.touch_host_range(r, 0, page * 100).unwrap();
        assert_eq!(cost, DeviceSpec::tesla_k80().um_page_migration);
        assert_eq!(
            m.touch_host_range(r, page * 5, 1).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn oversubscription_charges_thrash_penalty() {
        let spec = DeviceSpec::tesla_k80();
        let mut m = UnifiedMemory::new(&spec);
        // Two regions that together exceed 12 GB.
        let a = m.alloc(8 * (1 << 30));
        let b = m.alloc(8 * (1 << 30));
        let cost_a = m.touch_device(a).unwrap();
        let cost_b = m.touch_device(b).unwrap();
        let pages_each = spec.pages_for(8 * (1 << 30));
        // First region fits: plain migration.
        assert_eq!(cost_a, spec.um_page_migration * pages_each);
        // Second region oversubscribes by 4 GB: strictly more than
        // plain migration.
        assert!(cost_b > spec.um_page_migration * pages_each);
    }

    #[test]
    fn free_returns_device_pages() {
        let mut m = um();
        let r = m.alloc(1 << 20);
        m.touch_device(r).unwrap();
        m.free(r).unwrap();
        assert_eq!(m.device_resident_bytes(), 0);
        assert!(m.touch_device(r).is_err(), "freed region rejects touches");
        assert!(m.free(r).is_err(), "double free rejected");
    }
}
