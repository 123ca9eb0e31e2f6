//! The heterogeneous node model.

use hsim_gpu::DeviceSpec;
use hsim_mpi::CommCost;
use hsim_raja::CpuModel;

/// Static description of one heterogeneous node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    pub name: &'static str,
    /// Total CPU cores (across sockets).
    pub cores: usize,
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-GPU capability sheet.
    pub gpu_spec: DeviceSpec,
    /// Per-core CPU cost model (including the §5.1 lambda-bug state).
    pub cpu: CpuModel,
    /// On-node MPI transport.
    pub comm: CommCost,
}

impl NodeConfig {
    /// The paper's testbed (§7): one RZHasGPU node — two 8-core Intel
    /// Xeon E5-2667 v3 sockets, four NVIDIA Tesla K80 GPUs, 128 GB,
    /// TOSS 2.
    pub fn rzhasgpu() -> Self {
        NodeConfig {
            name: "rzhasgpu",
            cores: 16,
            gpus: 4,
            gpu_spec: DeviceSpec::tesla_k80(),
            cpu: CpuModel::haswell_e5_2667v3(),
            comm: CommCost::on_node(),
        }
    }

    /// RZHasGPU with the decorated-lambda compiler bug resolved — the
    /// paper's projection scenario ("once the compiler issue is
    /// resolved, we expect to be able to assign significantly more
    /// work to the CPU cores").
    pub fn rzhasgpu_fixed_compiler() -> Self {
        NodeConfig {
            cpu: CpuModel::haswell_fixed(),
            ..Self::rzhasgpu()
        }
    }

    /// A Sierra early-access node (§2): two POWER9 CPUs (22 usable
    /// cores each here modeled as 40 total) and four Volta GPUs.
    pub fn sierra_ea() -> Self {
        NodeConfig {
            name: "sierra-ea",
            cores: 40,
            gpus: 4,
            gpu_spec: DeviceSpec::volta_v100(),
            cpu: CpuModel {
                ghz: 3.45,
                flops_per_cycle: 4.0,
                bw_gbs_per_core: 8.0,
                ..CpuModel::haswell_e5_2667v3()
            },
            comm: CommCost::on_node(),
        }
    }

    /// Cores left for CPU workers in the Heterogeneous mode (one core
    /// drives each GPU).
    pub fn worker_cores(&self) -> usize {
        self.cores.saturating_sub(self.gpus)
    }

    /// CPU worker cores attached to each GPU block in the weighted
    /// decomposition.
    pub fn workers_per_gpu(&self) -> usize {
        self.worker_cores().checked_div(self.gpus).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rzhasgpu_matches_the_paper() {
        let n = NodeConfig::rzhasgpu();
        assert_eq!(n.cores, 16);
        assert_eq!(n.gpus, 4);
        assert_eq!(n.worker_cores(), 12);
        assert_eq!(n.workers_per_gpu(), 3);
        assert!(n.cpu.bug_active);
    }

    #[test]
    fn gpus_dominate_the_flops() {
        // §2: "GPUs comprising 95% of the FLOPs of the machine" (for
        // Sierra; RZHasGPU is similar in spirit).
        // Peak FP64 GFLOP/s, no lambda-bug penalty on the CPU side.
        let gpu_share = |n: &NodeConfig| {
            let gpu = n.gpus as f64 * n.gpu_spec.fp64_gflops;
            let cpu = n.worker_cores() as f64 * n.cpu.ghz * n.cpu.flops_per_cycle;
            gpu / (gpu + cpu)
        };
        let share = gpu_share(&NodeConfig::rzhasgpu());
        assert!(share > 0.90, "GPU share {share}");
        let share_s = gpu_share(&NodeConfig::sierra_ea());
        assert!(share_s > 0.95, "Sierra GPU share {share_s}");
    }

    #[test]
    fn fixed_compiler_preset_differs_only_in_the_bug() {
        let a = NodeConfig::rzhasgpu();
        let b = NodeConfig::rzhasgpu_fixed_compiler();
        assert!(!b.cpu.bug_active);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.gpu_spec, b.gpu_spec);
    }
}
