//! Kernel descriptors and the occupancy model.
//!
//! A simulated kernel is described by how much work it does per element
//! and by its *shape* — how the iteration space maps onto the device.
//! The paper's discussion of Figures 13–17 hinges on one effect: when
//! the **innermost loop dimension** (the x-extent of the domain) is
//! small, a single rank's kernels cannot fill the GPU, and overlapping
//! kernels from several MPS clients recovers the lost throughput. The
//! [`occupancy`] function is the quantitative form of that observation.

use crate::spec::DeviceSpec;
use hsim_time::SimDuration;

/// The iteration-space shape of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShape {
    /// Total number of elements (zones or nodes) traversed.
    pub elems: u64,
    /// Extent of the innermost (unit-stride) dimension.
    pub inner_extent: u32,
}

impl KernelShape {
    pub fn new(elems: u64, inner_extent: u32) -> Self {
        KernelShape {
            elems,
            inner_extent,
        }
    }
}

/// Static description of a kernel's per-element work.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name (for registries and traces).
    pub name: &'static str,
    /// FP64 operations per element.
    pub flops_per_elem: f64,
    /// Bytes moved to/from device memory per element.
    pub bytes_per_elem: f64,
}

impl KernelDesc {
    pub fn new(name: &'static str, flops_per_elem: f64, bytes_per_elem: f64) -> Self {
        KernelDesc {
            name,
            flops_per_elem,
            bytes_per_elem,
        }
    }

    /// Roofline time at *full* device efficiency: the greater of the
    /// compute time and the memory time for `shape.elems` elements.
    pub fn roofline_time(&self, spec: &DeviceSpec, elems: u64) -> SimDuration {
        let n = elems as f64;
        let t_compute = n * self.flops_per_elem / (spec.fp64_gflops * 1e9);
        let t_memory = n * self.bytes_per_elem / (spec.mem_bandwidth_gbs * 1e9);
        SimDuration::from_secs_f64(t_compute.max(t_memory))
    }
}

/// Fraction of peak device throughput one kernel launch can achieve,
/// in `(0, 1]`.
///
/// Two multiplicative terms:
///
/// * **inner-dimension efficiency** `x / (x + h)` where `h` is the
///   spec's half-extent: short unit-stride runs underfill warps and
///   kill coalescing. For the K80 preset `h = 14`, so x = 40 ⇒ 0.74,
///   x = 320 ⇒ 0.96 — matching the paper's observation that x ≲ 100
///   problems leave room for MPS overlap while x ≳ 300 problems do not.
/// * **size ramp** `n / (n + s)` with `s = saturation_elems`: kernels
///   with few total elements cannot occupy all SMs regardless of shape.
///
/// The floor of 0.02 keeps degenerate launches (1-element kernels) from
/// producing absurd durations.
pub fn occupancy(spec: &DeviceSpec, shape: KernelShape) -> f64 {
    let x = shape.inner_extent.max(1) as f64;
    let inner_eff = x / (x + spec.inner_half_extent);
    let n = shape.elems.max(1) as f64;
    let size_eff = n / (n + spec.saturation_elems);
    (inner_eff * size_eff).max(0.02)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    #[test]
    fn occupancy_increases_with_inner_extent() {
        let spec = k80();
        let big_n = 10_000_000;
        let e40 = occupancy(&spec, KernelShape::new(big_n, 40));
        let e320 = occupancy(&spec, KernelShape::new(big_n, 320));
        let e600 = occupancy(&spec, KernelShape::new(big_n, 600));
        assert!(e40 < e320 && e320 < e600);
        assert!(e600 <= 1.0);
        // Large-x kernels should be near peak: MPS has nothing to reclaim.
        assert!(e320 > 0.9, "x=320 efficiency {e320}");
        // Small-x kernels leave >20% idle: room for overlap.
        assert!(e40 < 0.8, "x=40 efficiency {e40}");
    }

    #[test]
    fn occupancy_increases_with_total_elems() {
        let spec = k80();
        let small = occupancy(&spec, KernelShape::new(50_000, 320));
        let large = occupancy(&spec, KernelShape::new(50_000_000, 320));
        assert!(small < large);
    }

    #[test]
    fn occupancy_has_a_floor() {
        let spec = k80();
        let e = occupancy(&spec, KernelShape::new(1, 1));
        assert!(e >= 0.02);
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        let spec = k80();
        // Memory-bound kernel: 1 flop, 24 bytes per element.
        let mem = KernelDesc::new("memb", 1.0, 24.0);
        // Compute-bound kernel: 100 flops, 1 byte.
        let cmp = KernelDesc::new("cmpb", 100.0, 1.0);
        let n = 1_000_000;
        let t_mem = mem.roofline_time(&spec, n);
        let t_cmp = cmp.roofline_time(&spec, n);
        let expect_mem = 1e6 * 24.0 / (240.0 * 1e9);
        let expect_cmp = 1e6 * 100.0 / (700.0 * 1e9);
        // Durations quantize to whole nanoseconds: allow 1 ns slack.
        assert!((t_mem.as_secs_f64() - expect_mem).abs() < 1.5e-9);
        assert!((t_cmp.as_secs_f64() - expect_cmp).abs() < 1.5e-9);
    }
}
