//! CPU cost model, including the decorated-lambda dispatch penalty.
//!
//! The paper (§5.1): "when running such code on the CPU ... the
//! performance is substantially worse ... (execution time can be 100x
//! to 300x slower). The issue is that nvcc passes the lambda back to
//! the host compiler wrapped in a std::function object. The effect is
//! that each time the lambda is invoked (e.g., at each loop iteration)
//! a virtual function dispatch is required."
//!
//! We model that as an *additive per-iteration* cost: a SAXPY-class
//! body (sub-nanosecond per element) slows by orders of magnitude,
//! while a 100-flop hydro kernel slows by a factor of ~2–3 — which is
//! consistent with the paper still being able to give 1–2 % of zones
//! to 12 CPU cores.

use hsim_gpu::KernelDesc;
use hsim_time::SimDuration;

/// Per-core roofline cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Core clock in GHz.
    pub ghz: f64,
    /// Sustained FP64 operations per cycle per core (FMA + vector
    /// issue, derated for real code).
    pub flops_per_cycle: f64,
    /// Sustained memory bandwidth per core in GB/s (a single Haswell
    /// core cannot saturate the socket).
    pub bw_gbs_per_core: f64,
    /// Per-iteration virtual-dispatch cost in ns while the nvcc
    /// decorated-lambda bug is active; 0 when "fixed".
    pub dispatch_ns: f64,
    /// Whether kernels are compiled with `__host__ __device__`
    /// decorations (single-source builds: yes).
    pub bug_active: bool,
}

impl CpuModel {
    /// One core of the Xeon E5-2667 v3 (Haswell, 3.2 GHz) in the
    /// paper's RZHasGPU node, with the CUDA 8.0 EA lambda bug active.
    pub fn haswell_e5_2667v3() -> Self {
        CpuModel {
            ghz: 3.2,
            flops_per_cycle: 4.0,
            bw_gbs_per_core: 6.0,
            dispatch_ns: 10.0,
            bug_active: true,
        }
    }

    /// The same core with the compiler issue resolved (the paper's
    /// projection scenario).
    pub fn haswell_fixed() -> Self {
        CpuModel {
            bug_active: false,
            ..Self::haswell_e5_2667v3()
        }
    }

    /// Seconds one core spends per element of `desc` (roofline of
    /// compute and memory, plus the dispatch penalty when active).
    pub fn elem_time_secs(&self, desc: &KernelDesc) -> f64 {
        let t_compute = desc.flops_per_elem / (self.ghz * 1e9 * self.flops_per_cycle);
        let t_memory = desc.bytes_per_elem / (self.bw_gbs_per_core * 1e9);
        let dispatch = if self.bug_active {
            self.dispatch_ns * 1e-9
        } else {
            0.0
        };
        t_compute.max(t_memory) + dispatch
    }

    /// Duration of one kernel over `elems` elements on one core.
    pub fn kernel_time(&self, desc: &KernelDesc, elems: u64) -> SimDuration {
        SimDuration::from_nanos_f64(self.elem_time_secs(desc) * 1e9 * elems as f64)
    }

    /// Duration with the loop split over `threads` cores at parallel
    /// efficiency `eff` (OpenMP-like backend).
    pub fn kernel_time_parallel(
        &self,
        desc: &KernelDesc,
        elems: u64,
        threads: usize,
    ) -> SimDuration {
        let threads = threads.max(1) as f64;
        // Parallel efficiency falls off mildly with thread count
        // (barrier + NUMA effects).
        let eff = 1.0 / (1.0 + 0.02 * (threads - 1.0));
        self.kernel_time(desc, elems).mul_f64(1.0 / (threads * eff))
    }

    /// Effective per-core throughput on `desc` in elements/second.
    pub fn elems_per_sec(&self, desc: &KernelDesc) -> f64 {
        1.0 / self.elem_time_secs(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saxpy() -> KernelDesc {
        // y[i] += a * x[i]: 2 flops, 24 bytes (2 loads + 1 store).
        KernelDesc::new("saxpy", 2.0, 24.0)
    }

    fn hydro_kernel() -> KernelDesc {
        KernelDesc::new("hydro", 80.0, 64.0)
    }

    /// The slowdown factor the lambda bug causes for `desc`.
    fn bug_slowdown(desc: &KernelDesc) -> f64 {
        CpuModel::haswell_e5_2667v3().elem_time_secs(desc)
            / CpuModel::haswell_fixed().elem_time_secs(desc)
    }

    #[test]
    fn saxpy_suffers_the_paper_slowdown_range() {
        // Tight-register SAXPY variant: compute-bound body.
        let tight = KernelDesc::new("tight", 2.0, 0.0);
        let factor = bug_slowdown(&tight);
        assert!(
            (50.0..400.0).contains(&factor),
            "SAXPY-class slowdown {factor} should be ~100-300x"
        );
        // Memory-streaming SAXPY is less extreme but still severe.
        let f2 = bug_slowdown(&saxpy());
        assert!(f2 > 2.0, "{f2}");
    }

    #[test]
    fn hydro_kernels_suffer_modest_slowdown() {
        let factor = bug_slowdown(&hydro_kernel());
        assert!(
            (1.3..4.0).contains(&factor),
            "hydro-class slowdown {factor} should be small multiples"
        );
    }

    #[test]
    fn fixed_compiler_has_no_penalty() {
        let cpu = CpuModel::haswell_fixed();
        assert!(
            cpu.kernel_time(&saxpy(), 1000)
                < CpuModel::haswell_e5_2667v3().kernel_time(&saxpy(), 1000)
        );
    }

    #[test]
    fn kernel_time_scales_linearly() {
        let cpu = CpuModel::haswell_fixed();
        let t1 = cpu.kernel_time(&hydro_kernel(), 1_000_000);
        let t2 = cpu.kernel_time(&hydro_kernel(), 2_000_000);
        let r = t2.ratio(t1);
        assert!((r - 2.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn parallel_execution_scales_with_derating() {
        let cpu = CpuModel::haswell_fixed();
        let serial = cpu.kernel_time(&hydro_kernel(), 10_000_000);
        let p12 = cpu.kernel_time_parallel(&hydro_kernel(), 10_000_000, 12);
        let speedup = serial.ratio(p12);
        assert!(speedup > 8.0 && speedup < 12.0, "speedup {speedup}");
    }

    #[test]
    fn memory_bound_kernels_hit_the_bandwidth_roof() {
        let cpu = CpuModel::haswell_fixed();
        let memb = KernelDesc::new("memb", 1.0, 60.0);
        // 60 B / 6 GB/s = 10 ns per element.
        let t = cpu.kernel_time(&memb, 1_000_000);
        assert!((t.as_millis_f64() - 10.0).abs() < 0.1, "{t}");
    }
}
