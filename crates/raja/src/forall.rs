//! The `forall` executor: single-source loops under runtime-selected
//! execution targets.
//!
//! This is the Rust analogue of the paper's Figure 5/6: the
//! application writes one loop body; the executor decides where it
//! "runs" (which clock pays for it) based on the rank's role. Bodies
//! are plain closures and always execute on the host thread when
//! fidelity is [`Fidelity::Full`] — single source, exactly as RAJA
//! promises — while the *virtual cost* lands on the CPU core or the
//! GPU device according to the target.

use std::sync::Arc;

use hsim_gpu::{GpuError, KernelDesc, KernelShape};
use hsim_telemetry::KernelTable;
use hsim_time::clock::ChargeKind;
use hsim_time::{RankClock, SimTime};

use crate::cpu::CpuModel;
use crate::indexset::{Tile2, TileSet2};
use crate::multipolicy::{MultiPolicy, PolicyChoice};
use crate::pool::WorkPool;
use crate::simgpu::GpuClient;

/// Fixed chunk size for pool-executed kernels and reductions. A pure
/// constant (not a function of worker count) so reduction results are
/// bit-identical on any pool geometry: partials are combined in chunk
/// order regardless of which worker produced them.
const PAR_CHUNK: usize = 1024;

/// Whether kernel bodies actually execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Run the arithmetic (tests, examples, small meshes).
    Full,
    /// Charge time only (large figure sweeps; timing never depends on
    /// field values, so results are identical).
    CostOnly,
}

/// Where a rank's kernels execute.
pub enum Target {
    /// Sequential on the rank's own core (the paper's CPU-only MPI
    /// processes).
    CpuSeq,
    /// OpenMP-like across the pool's cores (used where one rank may
    /// own several cores). The pool is shared — typically one per run,
    /// handed to every CPU rank's executor — so parallel regions reuse
    /// the same persistent workers instead of constructing per-region
    /// resources.
    CpuParallel { pool: Arc<WorkPool> },
    /// Offloaded to a (shared) simulated GPU.
    Gpu(GpuClient),
}

impl Target {
    /// An OpenMP-like target over `threads` total cores, backed by a
    /// freshly spawned pool (the caller participates, so `threads - 1`
    /// workers are spawned). To share one pool across executors, build
    /// the `Arc<WorkPool>` yourself and clone it into each target.
    pub fn cpu_parallel(threads: usize) -> Self {
        Target::CpuParallel {
            pool: Arc::new(WorkPool::new(threads.saturating_sub(1))),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Target::CpuSeq => "cpu-seq",
            Target::CpuParallel { .. } => "cpu-omp",
            Target::Gpu(_) => "gpu",
        }
    }

    pub fn is_gpu(&self) -> bool {
        matches!(self, Target::Gpu(_))
    }
}

/// The per-rank kernel executor.
pub struct Executor {
    pub target: Target,
    pub cpu: CpuModel,
    pub fidelity: Fidelity,
    /// Every launch this executor made, per kernel name.
    pub kernels: KernelTable,
    /// Runtime policy selection (paper §5.1 future work): when
    /// enabled, kernels below the threshold run on the host core even
    /// on GPU-driving ranks, avoiding launch overhead.
    pub multipolicy: MultiPolicy,
}

impl Executor {
    pub fn new(target: Target, cpu: CpuModel, fidelity: Fidelity) -> Self {
        Executor {
            target,
            cpu,
            fidelity,
            kernels: KernelTable::new(),
            multipolicy: MultiPolicy::disabled(),
        }
    }

    /// Enable MultiPolicy with the given host threshold.
    pub fn with_multipolicy(mut self, policy: MultiPolicy) -> Self {
        self.multipolicy = policy;
        self
    }

    /// Execute a 1D kernel over `[0, n)`.
    ///
    /// `inner_extent` is the unit-stride extent the iteration space
    /// presents to the device (for 1D loops it is `n` itself, clamped
    /// to u32).
    ///
    /// The `FnMut` body always executes serially on the host thread —
    /// it may mutate captured state freely (the single-source
    /// contract). Bodies that are `Fn + Send + Sync` can use
    /// [`Executor::forall_par`] instead, which executes on the shared
    /// work pool when the target is [`Target::CpuParallel`].
    pub fn forall<F>(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        n: usize,
        inner_extent: u32,
        mut body: F,
    ) -> Result<(), GpuError>
    where
        F: FnMut(usize),
    {
        let shape = KernelShape::new(n as u64, inner_extent);
        self.charge_launch(clock, desc, shape)?;
        if self.fidelity == Fidelity::Full {
            for i in 0..n {
                body(i);
            }
        }
        Ok(())
    }

    /// Execute a 1D kernel over `[0, n)` with a thread-safe body.
    ///
    /// Identical virtual cost to [`Executor::forall`]; the difference
    /// is execution: under [`Fidelity::Full`] with a
    /// [`Target::CpuParallel`] target the body runs on the persistent
    /// work pool (chunked dynamic scheduling), not serially on the
    /// host thread. Disjoint-index writes therefore need interior
    /// mutability (atomics or cell-based views), exactly as on a real
    /// OpenMP backend.
    pub fn forall_par<F>(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        n: usize,
        inner_extent: u32,
        body: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize) + Send + Sync,
    {
        let shape = KernelShape::new(n as u64, inner_extent);
        self.charge_launch(clock, desc, shape)?;
        if self.fidelity == Fidelity::Full {
            match &self.target {
                Target::CpuParallel { pool } => pool.for_each(0, n, PAR_CHUNK, body),
                _ => {
                    for i in 0..n {
                        body(i);
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute a 3D kernel over `ext[0] × ext[1] × ext[2]` (i fastest).
    pub fn forall3<F>(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        ext: [usize; 3],
        mut body: F,
    ) -> Result<(), GpuError>
    where
        F: FnMut(usize, usize, usize),
    {
        let elems = (ext[0] * ext[1] * ext[2]) as u64;
        let shape = KernelShape::new(elems, ext[0].min(u32::MAX as usize) as u32);
        self.charge_launch(clock, desc, shape)?;
        if self.fidelity == Fidelity::Full {
            for k in 0..ext[2] {
                for j in 0..ext[1] {
                    for i in 0..ext[0] {
                        body(i, j, k);
                    }
                }
            }
        }
        Ok(())
    }

    /// 3D min-reduction (the CFL timestep). In [`Fidelity::CostOnly`]
    /// the body is skipped and `default` is returned.
    ///
    /// Under [`Target::CpuParallel`] the reduction executes on the
    /// work pool with chunk-ordered partials, so the result is
    /// bit-identical to any other pool geometry (and to the serial
    /// visit order, which the linear index decomposition preserves).
    pub fn forall3_min<F>(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        ext: [usize; 3],
        default: f64,
        body: F,
    ) -> Result<f64, GpuError>
    where
        F: Fn(usize, usize, usize) -> f64 + Send + Sync,
    {
        self.charge3_min(clock, desc, ext)?;
        let mut acc = f64::INFINITY;
        if self.fidelity == Fidelity::Full {
            match &self.target {
                Target::CpuParallel { pool } => {
                    let (nx, ny) = (ext[0], ext[1]);
                    acc = pool.min(0, ext[0] * ext[1] * ext[2], PAR_CHUNK, |idx| {
                        body(idx % nx, (idx / nx) % ny, idx / (nx * ny))
                    });
                }
                _ => {
                    for k in 0..ext[2] {
                        for j in 0..ext[1] {
                            for i in 0..ext[0] {
                                acc = acc.min(body(i, j, k));
                            }
                        }
                    }
                }
            }
        } else {
            acc = default;
        }
        Ok(acc)
    }

    /// Charge the virtual cost and kernel-table record of a 3D
    /// min-reduction without running a body — the accounting half of
    /// [`Executor::forall3_min`]: the launch, then on a GPU target the
    /// 8-byte readback of the scalar result.
    ///
    /// A reduction folded into a fused tiled pass
    /// ([`Executor::run_tiles_min`]) charges its legacy launch here.
    pub fn charge3_min(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        ext: [usize; 3],
    ) -> Result<(), GpuError> {
        self.charge3(clock, desc, ext)?;
        // Reductions on the GPU also stage the scalar result back.
        if let Target::Gpu(client) = &self.target {
            clock.charge(ChargeKind::Memory, client.spec().xfer_time(8));
        }
        Ok(())
    }

    /// Charge the virtual cost and kernel-table record of a 3D launch
    /// without running a body — byte-for-byte the accounting half of
    /// [`Executor::forall3`].
    ///
    /// Fused cache-blocked kernels use this to replay the *legacy*
    /// launch sequence (same descriptors, shapes, and order, so
    /// virtual time, launch counts, telemetry spans, and figure output
    /// are unchanged) while the arithmetic itself executes once via
    /// [`Executor::run_tiles`].
    pub fn charge3(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        ext: [usize; 3],
    ) -> Result<(), GpuError> {
        let elems = (ext[0] * ext[1] * ext[2]) as u64;
        let shape = KernelShape::new(elems, ext[0].min(u32::MAX as usize) as u32);
        self.charge_launch(clock, desc, shape)?;
        Ok(())
    }

    /// Execute a fused tile body over every tile of `tiles`, charging
    /// nothing (cost is accounted by the [`Executor::charge3`] calls
    /// that precede it).
    ///
    /// Under [`Fidelity::Full`] with [`Target::CpuParallel`], tiles are
    /// handed out whole to the persistent pool (chunk size 1), so each
    /// tile's rows are written by exactly one worker; every other
    /// target runs tiles serially in handout order on the host thread.
    /// Tile bodies write disjoint rows, so results are identical for
    /// any worker count. Under [`Fidelity::CostOnly`] bodies are
    /// skipped entirely.
    pub fn run_tiles<F>(&mut self, tiles: &TileSet2, body: F)
    where
        F: Fn(Tile2) + Send + Sync,
    {
        self.run_tiles_min(tiles, |tile| {
            body(tile);
            f64::INFINITY
        });
    }

    /// [`Executor::run_tiles`] with a per-tile value: each tile body
    /// returns one `f64`, and the result is the `min` over all tiles
    /// (`f64::INFINITY` for no tiles, and under [`Fidelity::CostOnly`],
    /// where bodies are skipped). `min` is exact and order-free, so the
    /// result does not depend on the tiling or the worker count.
    /// Charges nothing, like `run_tiles`.
    pub fn run_tiles_min<F>(&mut self, tiles: &TileSet2, body: F) -> f64
    where
        F: Fn(Tile2) -> f64 + Send + Sync,
    {
        if self.fidelity != Fidelity::Full {
            return f64::INFINITY;
        }
        match &self.target {
            // One tile per chunk: each tile's rows are written by
            // exactly one worker.
            Target::CpuParallel { pool } => pool.min(0, tiles.len(), 1, |t| body(tiles.tile(t))),
            _ => tiles.iter().map(body).fold(f64::INFINITY, f64::min),
        }
    }

    /// Charge the virtual cost of one launch according to the target,
    /// and record it in the kernel table.
    ///
    /// A host-executed kernel is counted and timed here; a
    /// device-executed one is counted here and timed at the sync that
    /// resolves it (see [`GpuClient::sync`]), so every dispatch is
    /// counted and timed exactly once.
    fn charge_launch(
        &mut self,
        clock: &mut RankClock,
        desc: &KernelDesc,
        shape: KernelShape,
    ) -> Result<(), GpuError> {
        let t0 = clock.now();
        let dur = match &self.target {
            Target::CpuSeq => self.cpu.kernel_time(desc, shape.elems),
            Target::CpuParallel { pool } => {
                let dur = self
                    .cpu
                    .kernel_time_parallel(desc, shape.elems, pool.parallelism());
                // An injected worker panic: each wasted attempt re-runs
                // the region; the pool's poison path is exercised for
                // real once recovery has paid for it.
                if let Some(hit) = hsim_faults::check(hsim_faults::Site::PoolPanic) {
                    let span = (hsim_telemetry::Category::Runtime, "fault_pool_retry");
                    hsim_faults::recover(clock, hit, Some((ChargeKind::Compute, dur)), span)
                        .map_err(launch_failed)?;
                    pool.inject_worker_panic();
                }
                dur
            }
            // MultiPolicy: tiny kernel — cheaper on the host core than
            // paying the launch path.
            Target::Gpu(_) if self.multipolicy.recommend(shape) == PolicyChoice::Host => {
                self.cpu.kernel_time(desc, shape.elems)
            }
            Target::Gpu(client) => {
                if let Some(hit) = hsim_faults::check(hsim_faults::Site::GpuLaunch) {
                    let span = (hsim_telemetry::Category::Launch, "fault_launch_retry");
                    hsim_faults::recover(clock, hit, None, span).map_err(launch_failed)?;
                }
                let overhead = client.launch(desc, shape, clock.now());
                clock.charge(ChargeKind::Launch, overhead);
                self.kernels.record_gpu_launch(desc.name, shape.elems)?;
                if hsim_telemetry::is_enabled() {
                    hsim_telemetry::time_stat(hsim_telemetry::TimeStat::LaunchTime, overhead);
                    let cat = hsim_telemetry::Category::Launch;
                    hsim_telemetry::rank_span(cat, desc.name, t0, clock.now());
                }
                return Ok(());
            }
        };
        clock.charge(ChargeKind::Compute, dur);
        self.kernels.record_host(desc.name, shape.elems, dur)?;
        // Telemetry is asked once per launch; a run without a collector
        // pays that one question.
        if hsim_telemetry::is_enabled() {
            hsim_telemetry::kernel_launch(dur, None);
            let cat = hsim_telemetry::Category::CpuKernel;
            hsim_telemetry::rank_span(cat, desc.name, t0, clock.now());
        }
        Ok(())
    }

    /// Synchronize with the GPU (no-op for CPU targets): the rank's
    /// clock advances to its stream's completion time, and the kernels
    /// the sync resolved are timed in the kernel table.
    pub async fn sync(&mut self, clock: &mut RankClock) -> Result<SimTime, GpuError> {
        if let Target::Gpu(client) = &self.target {
            let end = client.sync(clock.now(), &mut self.kernels).await?;
            clock.wait_until(end);
        }
        Ok(clock.now())
    }
}

/// An injected launch or worker fault recovery gave up on.
fn launch_failed(e: hsim_faults::Escalation) -> GpuError {
    GpuError::LaunchFailed { reason: e.reason() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simgpu::SharedDevice;
    use hsim_gpu::DeviceSpec;
    use hsim_time::task::block_on;

    /// The one client of an exclusive K80.
    fn k80_client() -> GpuClient {
        let (_dev, mut clients) = SharedDevice::new(0, DeviceSpec::tesla_k80(), 1, false).unwrap();
        clients.remove(0)
    }

    fn desc() -> KernelDesc {
        KernelDesc::new("axpy", 2.0, 24.0)
    }

    #[test]
    fn cpu_seq_runs_body_and_charges_compute() {
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let mut x = vec![1.0f64; 100];
        exec.forall(&mut clock, &desc(), 100, 100, |i| x[i] *= 2.0)
            .unwrap();
        assert!(x.iter().all(|&v| v == 2.0));
        assert!(clock.bucket(ChargeKind::Compute) > hsim_time::SimDuration::ZERO);
        assert_eq!(
            clock.bucket(ChargeKind::Launch),
            hsim_time::SimDuration::ZERO
        );
    }

    #[test]
    fn cost_only_skips_bodies_but_charges_time() {
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        let mut touched = false;
        exec.forall(&mut clock, &desc(), 1000, 1000, |_| touched = true)
            .unwrap();
        assert!(!touched);
        assert!(clock.now() > SimTime::ZERO);
    }

    #[test]
    fn parallel_cpu_is_faster_than_seq() {
        let mut seq = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut par = Executor::new(
            Target::cpu_parallel(8),
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut c1 = RankClock::new(0);
        let mut c2 = RankClock::new(1);
        seq.forall(&mut c1, &desc(), 1_000_000, 1000, |_| {})
            .unwrap();
        par.forall(&mut c2, &desc(), 1_000_000, 1000, |_| {})
            .unwrap();
        assert!(c2.now() < c1.now());
    }

    #[test]
    fn forall3_iterates_x_fastest() {
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let mut order = Vec::new();
        exec.forall3(&mut clock, &desc(), [2, 2, 1], |i, j, k| {
            order.push((i, j, k));
        })
        .unwrap();
        assert_eq!(order, vec![(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]);
    }

    #[test]
    fn min_reduction_matches_serial_and_default() {
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let m = exec
            .forall3_min(&mut clock, &desc(), [4, 4, 4], 99.0, |i, j, k| {
                (i + j + k) as f64 - 3.0
            })
            .unwrap();
        assert_eq!(m, -3.0);
        let mut cost_only = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let d = cost_only
            .forall3_min(&mut clock, &desc(), [4, 4, 4], 99.0, |_, _, _| 0.0)
            .unwrap();
        assert_eq!(d, 99.0);
    }

    #[test]
    fn gpu_target_charges_launch_and_sync_waits() {
        let client = k80_client();
        let mut exec = Executor::new(
            Target::Gpu(client),
            CpuModel::haswell_e5_2667v3(),
            Fidelity::Full,
        );
        let mut clock = RankClock::new(0);
        let mut x = vec![0.0f64; 1000];
        exec.forall(&mut clock, &desc(), 1000, 10, |i| x[i] = i as f64)
            .unwrap();
        // Body ran on the host (single source) …
        assert_eq!(x[999], 999.0);
        // … launch overhead charged, compute not (it's on the device).
        assert!(clock.bucket(ChargeKind::Launch) > hsim_time::SimDuration::ZERO);
        assert_eq!(
            clock.bucket(ChargeKind::Compute),
            hsim_time::SimDuration::ZERO
        );
        let before = clock.now();
        block_on(exec.sync(&mut clock)).unwrap();
        assert!(clock.now() >= before);
        assert!(clock.bucket(ChargeKind::Wait) > hsim_time::SimDuration::ZERO);
    }

    #[test]
    fn kernel_table_counts_at_launch_and_times_host_kernels_at_once() {
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        for _ in 0..3 {
            exec.forall(&mut clock, &desc(), 10, 10, |_| {}).unwrap();
        }
        let axpy = exec.kernels.get("axpy").unwrap();
        assert_eq!((axpy.launches, axpy.gpu_launches, axpy.elems), (3, 0, 30));
        assert_eq!(axpy.total_ns, clock.bucket(ChargeKind::Compute).as_nanos());
        assert_eq!(axpy.occupancy_mean(), 1.0);
    }

    #[test]
    fn kernel_table_times_device_kernels_at_the_sync() {
        let mut exec = Executor::new(
            Target::Gpu(k80_client()),
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        exec.forall(&mut clock, &desc(), 100_000, 100, |_| {})
            .unwrap();
        let launched = *exec.kernels.get("axpy").unwrap();
        assert_eq!((launched.launches, launched.gpu_launches), (1, 1));
        assert_eq!((launched.total_ns, launched.occupancy), (0, 0));
        let issued = clock.now();
        let end = block_on(exec.sync(&mut clock)).unwrap();
        let ran = exec.kernels.get("axpy").unwrap();
        assert_eq!(ran.launches, 1);
        // The one kernel ran from its arrival to the stream's end.
        assert_eq!(ran.total_ns, (end - issued).as_nanos());
        assert!(ran.occupancy_mean() > 0.0 && ran.occupancy_mean() <= 1.0);
    }

    #[test]
    fn multipolicy_routes_tiny_kernels_to_the_host() {
        let client = k80_client();
        let mut exec = Executor::new(
            Target::Gpu(client),
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        )
        .with_multipolicy(crate::MultiPolicy::with_threshold(10_000));
        let mut clock = RankClock::new(0);
        // Tiny kernel: charged as host compute, no launch.
        exec.forall(&mut clock, &desc(), 100, 10, |_| {}).unwrap();
        assert!(clock.bucket(ChargeKind::Compute) > hsim_time::SimDuration::ZERO);
        assert_eq!(
            clock.bucket(ChargeKind::Launch),
            hsim_time::SimDuration::ZERO
        );
        // Big kernel: launched on the device.
        exec.forall(&mut clock, &desc(), 100_000, 100, |_| {})
            .unwrap();
        assert!(clock.bucket(ChargeKind::Launch) > hsim_time::SimDuration::ZERO);
        block_on(exec.sync(&mut clock)).unwrap();
    }

    #[test]
    fn multipolicy_beats_naive_offload_for_many_tiny_kernels() {
        let cpu = CpuModel::haswell_fixed();
        let run = |threshold: u64| -> u64 {
            let client = k80_client();
            let mut exec = Executor::new(Target::Gpu(client), cpu.clone(), Fidelity::CostOnly)
                .with_multipolicy(crate::MultiPolicy::with_threshold(threshold));
            let mut clock = RankClock::new(0);
            for _ in 0..200 {
                exec.forall(&mut clock, &desc(), 64, 8, |_| {}).unwrap();
            }
            block_on(exec.sync(&mut clock)).unwrap();
            clock.now().as_nanos()
        };
        let naive = run(0);
        let multi = run(1_000);
        assert!(
            multi < naive / 2,
            "MultiPolicy {multi}ns should beat naive offload {naive}ns for tiny kernels"
        );
    }

    #[test]
    fn injected_launch_fault_retries_then_recovers_or_escalates() {
        let run = |spec: &str| -> (Result<(), GpuError>, hsim_time::SimDuration) {
            let client = k80_client();
            let mut exec = Executor::new(
                Target::Gpu(client),
                CpuModel::haswell_e5_2667v3(),
                Fidelity::CostOnly,
            );
            let mut clock = RankClock::new(0);
            hsim_faults::install(0, Arc::new(hsim_faults::FaultPlan::parse(spec).unwrap()));
            let r = exec.forall(&mut clock, &desc(), 1000, 10, |_| {});
            hsim_faults::uninstall();
            if r.is_ok() {
                block_on(exec.sync(&mut clock)).unwrap();
            }
            (r, clock.bucket(ChargeKind::Wait))
        };
        // Transient: recovered, with the backoff charged as wait time.
        let (r, wait) = run("gpu.launch@rank0.cycle0");
        r.unwrap();
        assert!(wait >= hsim_faults::backoff_delay(0));
        // Determinism: the same plan charges the same virtual time.
        let (_, wait2) = run("gpu.launch@rank0.cycle0");
        assert_eq!(wait, wait2);
        // Permanent: a typed error, not a panic.
        let (r, _) = run("gpu.launch@rank0.cycle0:perm");
        assert!(matches!(r, Err(GpuError::LaunchFailed { .. })));
        // Transient beyond the retry budget escalates too.
        let (r, _) = run("gpu.launch@rank0.cycle0:count=99");
        assert!(matches!(r, Err(GpuError::LaunchFailed { .. })));
    }

    #[test]
    fn injected_pool_panic_recovers_and_charges_the_wasted_region() {
        let mut exec = Executor::new(
            Target::cpu_parallel(4),
            CpuModel::haswell_fixed(),
            Fidelity::Full,
        );
        let mut clock = RankClock::new(0);
        let baseline = {
            let mut c = RankClock::new(0);
            exec.forall_par(&mut c, &desc(), 10_000, 100, |_| {})
                .unwrap();
            c.bucket(ChargeKind::Compute)
        };
        hsim_faults::install(
            0,
            Arc::new(hsim_faults::FaultPlan::parse("pool.panic@rank0.cycle0").unwrap()),
        );
        let cells: Vec<std::sync::atomic::AtomicU64> = (0..10_000)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        exec.forall_par(&mut clock, &desc(), cells.len(), 100, |i| {
            cells[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })
        .unwrap();
        hsim_faults::uninstall();
        // The real body still ran exactly once per index …
        assert!(cells
            .iter()
            .all(|c| c.load(std::sync::atomic::Ordering::Relaxed) == 1));
        // … and the poisoned attempt was paid for: double compute plus
        // a backoff wait.
        assert_eq!(clock.bucket(ChargeKind::Compute), baseline + baseline);
        assert!(clock.bucket(ChargeKind::Wait) >= hsim_faults::backoff_delay(0));
    }

    #[test]
    fn charge3_matches_forall3_accounting_exactly() {
        let ext = [24usize, 16, 8];
        let mut a = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut ca = RankClock::new(0);
        a.forall3(&mut ca, &desc(), ext, |_, _, _| {}).unwrap();
        let mut b = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut cb = RankClock::new(0);
        b.charge3(&mut cb, &desc(), ext).unwrap();
        assert_eq!(ca.now(), cb.now());
        assert_eq!(a.kernels, b.kernels);
    }

    #[test]
    fn run_tiles_covers_the_plane_once_and_charges_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let tiles = crate::indexset::TileSet2::new(13, 7, [4, 4]);
        for mut exec in [
            Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full),
            Executor::new(
                Target::cpu_parallel(4),
                CpuModel::haswell_fixed(),
                Fidelity::Full,
            ),
        ] {
            let clock = RankClock::new(0);
            let cells: Vec<AtomicU64> = (0..13 * 7).map(|_| AtomicU64::new(0)).collect();
            exec.run_tiles(&tiles, |t| {
                for k in t.k0..t.k1 {
                    for j in t.j0..t.j1 {
                        cells[k * 13 + j].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            // No virtual time moved and no launches were recorded.
            assert_eq!(clock.now(), SimTime::ZERO);
            assert_eq!(exec.kernels.total_launches(), 0);
        }
    }

    #[test]
    fn run_tiles_min_is_the_min_over_tiles_on_any_pool() {
        let tiles = crate::indexset::TileSet2::new(13, 7, [4, 3]);
        let value = |t: Tile2| ((t.j0 * 31 + t.k0 * 7) as f64 * 0.01).sin();
        let expect = tiles.iter().map(value).fold(f64::INFINITY, f64::min);
        for threads in [1usize, 2, 4] {
            let target = match threads {
                1 => Target::CpuSeq,
                n => Target::cpu_parallel(n),
            };
            let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
            let m = exec.run_tiles_min(&tiles, value);
            assert_eq!(m.to_bits(), expect.to_bits(), "{threads} threads");
            assert_eq!(exec.kernels.total_launches(), 0);
        }
        let mut cost_only = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let m = cost_only.run_tiles_min(&tiles, |_| panic!("body must not run under CostOnly"));
        assert_eq!(m, f64::INFINITY);
    }

    #[test]
    fn charge3_min_matches_forall3_min_accounting_exactly() {
        let ext = [24usize, 16, 8];
        let gpu = || {
            let client = k80_client();
            Target::Gpu(client)
        };
        for (a, b) in [(Target::CpuSeq, Target::CpuSeq), (gpu(), gpu())] {
            let mut a = Executor::new(a, CpuModel::haswell_fixed(), Fidelity::Full);
            let mut ca = RankClock::new(0);
            a.forall3_min(&mut ca, &desc(), ext, 1.0, |_, _, _| 0.5)
                .unwrap();
            let mut b = Executor::new(b, CpuModel::haswell_fixed(), Fidelity::Full);
            let mut cb = RankClock::new(0);
            b.charge3_min(&mut cb, &desc(), ext).unwrap();
            assert_eq!(ca.now(), cb.now());
            for kind in [ChargeKind::Compute, ChargeKind::Launch, ChargeKind::Memory] {
                assert_eq!(ca.bucket(kind), cb.bucket(kind), "{kind:?}");
            }
            assert_eq!(a.kernels, b.kernels);
        }
    }

    #[test]
    fn run_tiles_skips_bodies_under_cost_only() {
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let tiles = crate::indexset::TileSet2::new(4, 4, [2, 2]);
        exec.run_tiles(&tiles, |_| panic!("body must not run under CostOnly"));
    }

    #[test]
    fn target_labels() {
        assert_eq!(Target::CpuSeq.label(), "cpu-seq");
        assert_eq!(Target::cpu_parallel(4).label(), "cpu-omp");
        assert!(!Target::CpuSeq.is_gpu());
    }

    #[test]
    fn forall_par_executes_on_the_pool_under_cpu_parallel() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut exec = Executor::new(
            Target::cpu_parallel(4),
            CpuModel::haswell_fixed(),
            Fidelity::Full,
        );
        let mut clock = RankClock::new(0);
        let cells: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        exec.forall_par(&mut clock, &desc(), cells.len(), 100, |i| {
            cells[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert!(clock.bucket(ChargeKind::Compute) > hsim_time::SimDuration::ZERO);
    }

    #[test]
    fn parallel_min_is_pool_geometry_invariant() {
        // Several chunks' worth of elements: min must match the serial
        // target bit-for-bit (associative) on every pool geometry.
        let ext = [40, 20, 9];
        let body = |i: usize, j: usize, k: usize| ((i * 31 + j * 7 + k) as f64 * 0.01).sin();
        let mut serial = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let m0 = serial
            .forall3_min(&mut clock, &desc(), ext, 9.9, body)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let mut exec = Executor::new(
                Target::cpu_parallel(threads),
                CpuModel::haswell_fixed(),
                Fidelity::Full,
            );
            let m = exec
                .forall3_min(&mut clock, &desc(), ext, 9.9, body)
                .unwrap();
            assert_eq!(m.to_bits(), m0.to_bits(), "min @ {threads} threads");
        }
    }
}
