//! Unified memory (cudaMallocManaged): what faulting a rank's mesh onto
//! its device costs.
//!
//! ARES allocates mesh data in unified memory when a rank drives a GPU
//! (paper Figure 8) so the same pointers work on both processors. UM
//! performance is governed by *page migration*: a managed region's
//! pages start host-resident, and the first device touch faults every
//! one of them across the interconnect. Pages resident past the
//! device's capacity thrash: the driver evicts and refaults them.

use crate::spec::DeviceSpec;
use hsim_time::SimDuration;

/// One device's unified-memory account: how many pages are resident.
#[derive(Debug)]
pub struct UnifiedMemory {
    page_size: u64,
    migration_cost: SimDuration,
    capacity: u64,
    resident_pages: u64,
}

impl UnifiedMemory {
    pub fn new(spec: &DeviceSpec) -> Self {
        UnifiedMemory {
            page_size: spec.um_page_size,
            migration_cost: spec.um_page_migration,
            capacity: spec.mem_capacity,
            resident_pages: 0,
        }
    }

    /// Allocate a managed region of `bytes` and touch it from the
    /// device. Returns the migration charge: one migration per page,
    /// plus one extra round trip per page resident past capacity.
    pub fn alloc_and_touch(&mut self, bytes: u64) -> SimDuration {
        let capacity_pages = self.capacity / self.page_size.max(1);
        let migrated = bytes.div_ceil(self.page_size.max(1));
        self.resident_pages += migrated;
        let mut cost = self.migration_cost * migrated;
        if self.resident_pages > capacity_pages {
            let excess = self.resident_pages - capacity_pages;
            cost += self.migration_cost * (2 * excess);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The charge for faulting in `bytes` that leave `resident` pages
    /// on a device of `spec`, written out from the model's definition.
    fn charge(spec: &DeviceSpec, bytes: u64, resident: u64) -> SimDuration {
        let capacity_pages = spec.mem_capacity / spec.um_page_size;
        let excess = resident.saturating_sub(capacity_pages);
        spec.um_page_migration * spec.pages_for(bytes) + spec.um_page_migration * (2 * excess)
    }

    #[test]
    fn first_touch_migrates_every_page() {
        let spec = DeviceSpec::tesla_k80();
        let mut m = UnifiedMemory::new(&spec);
        let bytes = (1 << 20) + 1;
        assert_eq!(spec.pages_for(bytes), 17);
        assert_eq!(m.alloc_and_touch(bytes), spec.um_page_migration * 17);
        assert_eq!(m.alloc_and_touch(bytes), charge(&spec, bytes, 34));
    }

    #[test]
    fn oversubscription_charges_thrash_penalty() {
        let spec = DeviceSpec::tesla_k80();
        let mut m = UnifiedMemory::new(&spec);
        // Two regions that together exceed 12 GiB.
        let bytes = 8 * (1 << 30);
        let pages = spec.pages_for(bytes);
        // The first fits: plain migration.
        assert_eq!(m.alloc_and_touch(bytes), spec.um_page_migration * pages);
        // The second oversubscribes by 4 GiB: each of those pages pays
        // two more migrations.
        let excess = 4 * (1 << 30) / spec.um_page_size;
        let thrash = spec.um_page_migration * (2 * excess);
        assert_eq!(
            m.alloc_and_touch(bytes),
            spec.um_page_migration * pages + thrash
        );
    }

    #[test]
    fn four_mps_ranks_cross_a_k80_on_the_fourth() {
        // Four MPS clients of one K80, each a sixteenth of a
        // 448 M-zone grid at 15 mesh fields of 8 B: 3.36 GB a rank.
        let spec = DeviceSpec::tesla_k80();
        let mut m = UnifiedMemory::new(&spec);
        let bytes = 28_000_000 * 8 * 15;
        let pages = spec.pages_for(bytes);
        let plain = spec.um_page_migration * pages;
        for k in 1..=4 {
            let cost = m.alloc_and_touch(bytes);
            assert_eq!(cost, charge(&spec, bytes, k * pages), "region {k}");
            assert_eq!(cost == plain, k < 4, "region {k}");
        }
    }
}
