//! The cooperative runner: the paper's §5 control code.
//!
//! For a given [`ExecMode`] the runner partitions the grid — one piece
//! per rank, rank `r` on core `r`, a GPU-owned piece's rank driving
//! that GPU — sets up the Figure 8 memory scheme, spawns one simulated
//! MPI rank per piece, runs the Sedov hydro for a
//! fixed number of cycles, applies the node-level host-bandwidth
//! model, and reports per-rank virtual-time breakdowns.

use std::error::Error;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

use hsim_hydro::diffusion::{self, DiffusionConfig};
use hsim_hydro::{step_with, HydroState, Reconstruction};
use hsim_mesh::decomp::{fold_lost_rank, nested, Blocks, Pieces};
use hsim_mesh::{Decomposition, GlobalGrid, HaloPlan, OwnerKind, SoaBlock, Subdomain};
use hsim_mpi::{Comm, World};
use hsim_particles::{Particle, ParticlesConfig, PhaseState};
use hsim_raja::simgpu::Departure;
use hsim_raja::{Executor, Fidelity, GpuClient, SharedDevice, Target, WorkPool};
use hsim_telemetry::{Category, Collector, Counter, Gauge, KernelTable, Summary, TimeStat};
use hsim_time::clock::ChargeKind;
use hsim_time::sync::lock;
use hsim_time::{Overflow, RankClock, SimDuration, SimTime};

use crate::balance::{LoadBalancer, RebalanceConfig, RebalanceDecision, Rebalancer};
use crate::calib;
use crate::coupler::{lend_clock, MpiCoupler};
use crate::mode::ExecMode;
use crate::node::NodeConfig;
use crate::period::PeriodBoard;
use crate::report::{slowest, slowest_cpu_compute, ParticleReport, RankReport, RunResult};
use crate::scenario::{self, ScenarioDiag};

pub use crate::scenario::Problem;

/// Everything one cooperative run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Global grid zones (nx, ny, nz).
    pub grid: (usize, usize, usize),
    pub mode: ExecMode,
    pub node: NodeConfig,
    /// Hydro cycles to run. Virtual time is that of every one of them;
    /// host time is proportional to the count only where cycles are
    /// stepped one by one — under [`Fidelity::Full`], with telemetry
    /// or a trace, with particles — while a run that only prices its
    /// kernels steps until one cycle has moved every clock and stream
    /// by one common advance `D` since the previous cycle end of the
    /// segment, with nothing in flight, and adds up the rest (a count
    /// the clock cannot hold, or more than 2³⁰ cycles to add up at
    /// once, is an error).
    pub cycles: u64,
    pub fidelity: Fidelity,
    /// §5.3 future work: GPUs exchange halos without host staging.
    pub gpu_direct: bool,
    /// Run the thermal-diffusion package after each hydro cycle
    /// (multi-physics configuration; None = hydro only, as in the
    /// paper's Sedov study).
    pub diffusion: Option<DiffusionConfig>,
    /// MultiPolicy host threshold for GPU ranks (0 = disabled; the
    /// paper's future-work runtime policy selection).
    pub multipolicy_threshold: u64,
    /// Ask for the Gantt ([`RunResult::timeline`]) of the per-cycle
    /// busy/wait spans. Collects what `telemetry` collects.
    pub trace: bool,
    /// Collect full telemetry (metrics and structured spans) into
    /// [`RunResult::telemetry`]; the kernel table is kept either way
    /// ([`RunResult::kernels`]). Off by default: the
    /// per-launch hot path then stays allocation-free.
    pub telemetry: bool,
    /// The physics problem to initialize (default: Sedov).
    pub problem: Problem,
    /// Deterministic seeded fault plan (None = fault-free). Transient
    /// faults recover in virtual time (bounded retry with exponential
    /// backoff charged to the sim clocks); a permanent CPU-rank loss
    /// degrades gracefully: the run stops at the loss cycle, folds the
    /// lost slab back into a box-mergeable neighbor (preferring its
    /// parent GPU block, so Heterogeneous degrades toward Default;
    /// charged as a host-staged redistribution, though only the
    /// absorbing rank's state is rebuilt), and finishes on the smaller
    /// world. Permanent device-side faults are typed errors, never
    /// panics.
    pub faults: Option<hsim_faults::FaultPlan>,
    /// Host threads per parallel region for CPU ranks. With the
    /// default of 1, CPU ranks execute (and are costed) sequentially
    /// exactly as the paper's study; > 1 builds **one** shared
    /// [`WorkPool`] for the whole run and hands it to every CPU rank's
    /// executor, so thread-safe kernels and reductions run on
    /// persistent workers and virtual time is charged by the OpenMP
    /// cost model at this width.
    pub host_threads: usize,
    /// Online measured-speed rebalancing (paper §6.2 made in-run):
    /// every `every` cycles the run pauses at a segment boundary, the
    /// [`Rebalancer`] folds the segment's measured CPU and device busy
    /// times into its EWMA speed estimator, and — when the predicted
    /// cycle-time improvement clears the hysteresis threshold — the
    /// heterogeneous decomposition is re-split at the new fraction
    /// (charged as a host-staged redistribution by the α–β collective
    /// model; the host itself moves the ranks' live states). Only
    /// meaningful for [`ExecMode::Heterogeneous`]; a permanent
    /// `rank.loss` freezes the controller at the foldback split.
    pub rebalance: Option<RebalanceConfig>,
    /// y–z tile shape for the fused cache-blocked hydro kernels
    /// (`None` = pick via the one-shot [`calib::auto_tile_for`] probe,
    /// which is keyed on `host_threads` — the best shape for the
    /// parallel-tile path need not match the serial one). Results are
    /// bitwise-independent of the tile shape; this only moves
    /// wall-clock throughput.
    pub tile: Option<[usize; 2]>,
    /// Lagrangian tracer/drag particle phase advected through the
    /// hydro field each cycle (`None` = hydro only). Particles are
    /// owned by the rank whose subdomain contains them and migrate
    /// through the coupler's all-to-all collective, so rebalance
    /// re-splits and loss foldbacks move particles with their zones.
    pub particles: Option<ParticlesConfig>,
}

impl RunConfig {
    /// A figure-sweep configuration: RZHasGPU, cost-only fidelity,
    /// the standard cycle count.
    pub fn sweep(grid: (usize, usize, usize), mode: ExecMode) -> Self {
        RunConfig {
            grid,
            mode,
            node: NodeConfig::rzhasgpu(),
            cycles: calib::SWEEP_CYCLES,
            fidelity: Fidelity::CostOnly,
            gpu_direct: false,
            diffusion: None,
            multipolicy_threshold: 0,
            trace: false,
            telemetry: false,
            problem: Problem::default(),
            faults: None,
            rebalance: None,
            host_threads: 1,
            tile: None,
            particles: None,
        }
    }

    fn global_grid(&self) -> GlobalGrid {
        GlobalGrid::new(self.grid.0, self.grid.1, self.grid.2)
    }

    /// The mode's level-1 split (paper §6.1): CPU-only cuts one block
    /// per core over x, y and z, the GPU modes one x-pinned block per
    /// GPU.
    fn blocks(&self) -> Blocks {
        match self.mode {
            ExecMode::CpuOnly => Blocks::Cubes(self.node.cores),
            _ => Blocks::Pinned(self.node.gpus),
        }
    }

    /// Why no run of this configuration can start, checked before any
    /// rank does: a grid with a zero dimension, one whose zone count
    /// does not fit in `u64`, one that cannot host the mode's partition
    /// even at the floor (one y-plane per CPU rank), a particle set
    /// whose bytes overflow `isize` (every rank builds the global set),
    /// or a diffusivity that is not a finite κ ≥ 0 (a NaN would poison
    /// every zone's energy, an infinite one ask for unboundedly many
    /// substeps).
    fn check(&self) -> Result<(), String> {
        let (nx, ny, nz) = self.grid;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(format!("grid {nx},{ny},{nz}: grid dims must be positive"));
        }
        let zones = (nx as u64).checked_mul(ny as u64);
        if zones.and_then(|z| z.checked_mul(nz as u64)).is_none() {
            return Err(format!("grid {nx},{ny},{nz}: the zone count overflows u64"));
        }
        // The floor is the one fraction every block that hosts the
        // mode's ranks can carve; a thicker slab a run asks for may
        // still not fit, and fails the run.
        let d = build_decomposition(self, 0.0)
            .map_err(|e| format!("{}: grid {nx},{ny},{nz}: {e}", self.mode.key()))?;
        if d.domains.iter().any(|s| mesh_bytes(s.zones()).is_none()) {
            return Err(format!(
                "grid {nx},{ny},{nz}: a rank's mesh bytes overflow u64"
            ));
        }
        if let Some(p) = &self.particles {
            let each = std::mem::size_of::<Particle>() as u64;
            let bytes = p.count.checked_mul(each);
            if bytes.map_or(true, |b| b > isize::MAX as u64) {
                return Err(format!(
                    "particles: {} particles of {each} bytes overflow the address space",
                    p.count
                ));
            }
        }
        match &self.diffusion {
            Some(d) if !(d.kappa.is_finite() && d.kappa >= 0.0) => Err(format!(
                "diffusion: kappa must be finite and non-negative, got {}",
                d.kappa
            )),
            _ => Ok(()),
        }
    }
}

/// Build the mode's decomposition (paper §6.1): its level-1 blocks,
/// each kept whole (CPU-only, Default), cut into `per_gpu` equal
/// z-pieces (MPS) or carving a CPU slab of `cpu_fraction` of its
/// y-extent (Heterogeneous). The partition's owners are the run's rank
/// table, so no core may host two of its ranks (§5).
pub fn build_decomposition(cfg: &RunConfig, cpu_fraction: f64) -> Result<Decomposition, String> {
    let pieces = match cfg.mode {
        ExecMode::CpuOnly => Pieces::Cpu,
        ExecMode::Default => Pieces::Gpu(1),
        ExecMode::Mps { per_gpu } => Pieces::Gpu(per_gpu),
        ExecMode::Heterogeneous { .. } => Pieces::Slab {
            cpus: cfg.node.workers_per_gpu(),
            fraction: cpu_fraction,
        },
    };
    let d = nested(cfg.global_grid(), cfg.blocks(), pieces)?;
    if d.len() > cfg.node.cores {
        return Err(format!(
            "{} ranks oversubscribe the node's {} cores",
            d.len(),
            cfg.node.cores
        ));
    }
    Ok(d)
}

/// The minimum realizable CPU fraction of the heterogeneous
/// decomposition: one y-plane per CPU rank of block 0, the thickest
/// (the remainder of every cut goes to the leading pieces).
pub fn hetero_min_fraction(cfg: &RunConfig) -> Result<f64, String> {
    let blocks = cfg.blocks().cut(cfg.global_grid())?;
    let ext = blocks[0].extent(1).max(1);
    Ok(cfg.node.workers_per_gpu() as f64 / ext as f64)
}

/// Execute one cooperative run.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let fraction_request = match cfg.mode {
        ExecMode::Heterogeneous { cpu_fraction } => {
            cpu_fraction.unwrap_or_else(|| LoadBalancer::initial_guess(&cfg.node))
        }
        _ => 0.0,
    };
    run_with_fraction(cfg, fraction_request)
}

/// What happens at the end of a segment of a run.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    /// A controller tick: the [`Rebalancer`] sees the segment's
    /// measured busy times and may re-split the decomposition.
    Tick,
    /// The permanent loss of this rank: its slab folds back into a
    /// box-mergeable neighbor and the run finishes on the survivors.
    Loss(usize),
    /// The run is over.
    End,
}

/// Execute one run with an explicit heterogeneous CPU fraction
/// (ignored by the other modes).
///
/// The paper's control code, "static within an iteration, but the
/// decomposition can be adjusted between iterations" (§6.1–6.2), as
/// one loop over *segments*: contiguous cycle ranges on a fixed
/// decomposition, each ended by a boundary. A run with no
/// controller and no rank loss is a single segment. Every boundary
/// that moves zones — a re-split or a foldback, controlled or not — is
/// *charged* as a host-staged redistribution: a tree-barrier collective
/// plus the α–β wire time of what moved. The host stages nothing: the
/// ranks' live states are the one representation of zone values and
/// `hand_over` moves them across, while every segment still opens on
/// a fresh world, clocks and devices, as a restart would.
///
/// "Static within an iteration" is also why a segment that only prices
/// its kernels need not step all its cycles: once one cycle moved
/// every clock and stream by the same integer amount with nothing in
/// flight, the rest of the segment is that cycle's growth added up
/// (`period::PeriodBoard`).
///
/// A loss folds the lost CPU rank's slab back (preferring its parent
/// GPU block, so Heterogeneous degrades toward Default) and *freezes*
/// the controller if there is one: the folded world is no longer a
/// uniform weighted split. A lost GPU driver is fatal — its device
/// block has nowhere to fold back to. Every controller input is a
/// virtual-time measurement, so two same-seed runs re-split
/// identically, byte for byte — the property the chaos gate asserts.
pub fn run_with_fraction(cfg: &RunConfig, cpu_fraction: f64) -> Result<RunResult, String> {
    // Ranks that execute kernel bodies are resumed by a worker per
    // host core, so their kernels run in parallel and no core runs two
    // while another idles (§5: one rank per core). Ranks that only
    // price them exchange nothing but virtual timestamps, so this
    // thread resumes them all and the run spawns nothing.
    let workers = match cfg.fidelity {
        Fidelity::Full => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Fidelity::CostOnly => 1,
    };
    run_driven(cfg, cpu_fraction, workers).map(|(result, _)| result)
}

/// [`run_with_fraction`] with an explicit number of rank workers. The
/// result is the same at any count — which the tests of this module
/// assert, and the only reason the count is an argument. Beside the
/// result comes the number of cycles the ranks stepped, the rest having
/// been added up (see [`PeriodBoard`]): the tests' view of that choice,
/// which no output shows.
pub(crate) fn run_driven(
    cfg: &RunConfig,
    cpu_fraction: f64,
    workers: usize,
) -> Result<(RunResult, u64), String> {
    cfg.check()?;
    let fault_plan = Arc::new(cfg.faults.clone().unwrap_or_default());
    let mut losses: Vec<(usize, u64)> = fault_plan
        .rank_losses()
        .into_iter()
        .filter(|&(_, cycle)| cycle < cfg.cycles)
        .collect();
    losses.sort_unstable();
    if losses.len() > 1 {
        return Err(
            "fault plan injects more than one permanent rank loss; graceful degradation \
             folds back a single lost rank per run"
                .to_string(),
        );
    }
    let loss = losses.first().copied();
    let mut rb = match &cfg.rebalance {
        Some(_) if !matches!(cfg.mode, ExecMode::Heterogeneous { .. }) => {
            return Err(format!(
                "the rebalance controller re-splits the weighted heterogeneous \
                 decomposition; mode {:?} has no CPU fraction to adjust",
                cfg.mode
            ));
        }
        Some(rcfg) if rcfg.every == 0 => {
            return Err("rebalance: every must be positive".to_string());
        }
        Some(rcfg) => {
            let mut rb = Rebalancer::new(cpu_fraction, rcfg);
            rb.set_min_fraction(hetero_min_fraction(cfg)?);
            Some(rb)
        }
        None => None,
    };

    let mut decomp = build_decomposition(cfg, rb.as_ref().map_or(cpu_fraction, |rb| rb.fraction))?;
    decomp.validate()?;
    if let Some(rb) = rb.as_mut() {
        rb.note_realized(decomp.cpu_zone_fraction());
    }
    if let Some((lost, _)) = loss {
        if lost >= decomp.len() {
            return Err(format!(
                "injected rank loss {lost} out of range ({} ranks)",
                decomp.len()
            ));
        }
        // Owner layout is invariant across re-splits, so the check
        // against the initial decomposition holds at the loss cycle.
        if decomp.owners[lost].is_gpu_driver() {
            return Err(format!(
                "injected loss of rank {lost} is fatal: it drives a GPU and its device \
                 block cannot be folded back onto the remaining ranks"
            ));
        }
    }
    let mut acc = RunAcc::new(cfg, decomp.len());
    // An MPS rejection recovery gives up on is an error before any rank
    // starts; one it recovers from is paid at the rank's set-up.
    if matches!(cfg.mode, ExecMode::Mps { .. }) {
        for ev in fault_plan.of_site(hsim_faults::Site::MpsConnect) {
            if ev.rank < decomp.len() {
                ev.attempts().map_err(|e| e.to_string())?;
            }
        }
    }
    // Resolve the tile here, on the calling thread, before any rank
    // installs its collector: the one-shot wall-clock probe's kernel
    // launches belong to no run's telemetry. A run that only prices
    // its kernels never reads the tile, so it does not probe for one.
    let tile = cfg.tile.unwrap_or_else(|| match cfg.fidelity {
        Fidelity::Full => calib::auto_tile_for(cfg.host_threads),
        Fidelity::CostOnly => hsim_hydro::state::DEFAULT_TILE,
    });

    // Segment boundaries: a controller tick every `every` cycles, plus
    // the loss cycle — where the loss wins a tie with a tick.
    let mut boundaries: Vec<(u64, Boundary)> = Vec::new();
    if let Some(rcfg) = &cfg.rebalance {
        boundaries.extend(
            (1..)
                .map(|k| k * rcfg.every)
                .take_while(|&c| c < cfg.cycles)
                .map(|c| (c, Boundary::Tick)),
        );
    }
    if let Some((lost, at)) = loss {
        boundaries.retain(|&(c, _)| c != at);
        boundaries.push((at, Boundary::Loss(lost)));
        boundaries.sort_unstable_by_key(|&(c, _)| c);
    }
    boundaries.push((cfg.cycles, Boundary::End));

    // Pre-loss rank ids of the live world: a re-split keeps them, the
    // foldback drops the lost one.
    let mut orig_ids: Vec<usize> = (0..decomp.len()).collect();
    let mut first = 0u64;
    for (last, action) in boundaries {
        let seg = Segment {
            cfg,
            fault_plan: &fault_plan,
            decomp: &decomp,
            orig_ids: &orig_ids,
            first_cycle: first,
            last_cycle: last,
            cold: acc.end.left.is_empty(),
            tile,
        };
        let (outs, device_busy) = run_segment(seg, workers, std::mem::take(&mut acc.end))?;
        first = last;
        acc.fold(&orig_ids, outs, device_busy)
            .map_err(|e| e.to_string())?;

        match (action, rb.as_mut()) {
            (Boundary::Tick, Some(rb)) => {
                if let RebalanceDecision::Resplit { fraction, .. } =
                    rb.observe(acc.window_cpu, acc.window_gpu)
                {
                    let next = build_decomposition(cfg, fraction)?;
                    next.validate()?;
                    acc.charge_move(cfg, &decomp, &next, |j| j, "balance_resplit");
                    decomp = next;
                    rb.note_realized(decomp.cpu_zone_fraction());
                }
            }
            (Boundary::Loss(lost), rb) => {
                // At most one loss per run, so the live world still
                // carries the original numbering: `lost` indexes it.
                let folded = fold_lost_rank(&decomp, lost)?;
                let survivor = |j: usize| if j < lost { j } else { j + 1 };
                acc.charge_move(cfg, &decomp, &folded, survivor, "balance_freeze");
                orig_ids.remove(lost);
                decomp = folded;
                acc.count(Counter::FaultsInjected, 1);
                acc.count(Counter::FaultRankLosses, 1);
                if let Some(rb) = rb {
                    rb.freeze_at(decomp.cpu_zone_fraction());
                    acc.count(Counter::BalanceFrozen, 1);
                }
            }
            (Boundary::Tick, None) | (Boundary::End, _) => {}
        }
    }

    let stepped = acc.stepped;
    let result = acc.finish(cfg, &decomp, &orig_ids, rb)?;
    Ok((result, stepped))
}

/// Everything the run loop folds its segments into.
#[derive(Default)]
struct RunAcc {
    /// Per-original-rank report buckets, summed across segments.
    ranks: Vec<Option<RankReport>>,
    device_busy: Vec<SimDuration>,
    /// Every rank's kernel table, over all segments.
    kernels: KernelTable,
    collectors: Vec<Collector>,
    /// What happens on the coordinating thread — boundary spans,
    /// main-thread fault and balance counters — lands on its own
    /// collector (rank id one past the world) beside the rank
    /// collectors; `None` when nothing is collected.
    coordinator: Option<Collector>,
    /// Each segment's slowest rank (a boundary resynchronizes every
    /// survivor) plus the boundary charges.
    runtime: SimDuration,
    migrated: u64,
    /// The latest segment's slowest CPU-worker compute and slowest
    /// device busy time: the controller's inputs.
    window_cpu: SimDuration,
    window_gpu: SimDuration,
    /// What the latest segment left behind.
    end: EndState,
    /// Cycles the ranks stepped one by one, over all segments.
    stepped: u64,
}

impl RunAcc {
    fn new(cfg: &RunConfig, n_ranks: usize) -> Self {
        RunAcc {
            ranks: (0..n_ranks).map(|_| None).collect(),
            coordinator: (cfg.telemetry || cfg.trace).then(|| Collector::new(n_ranks)),
            ..RunAcc::default()
        }
    }

    fn count(&mut self, counter: Counter, n: u64) {
        if let Some(c) = self.coordinator.as_mut() {
            c.metrics.count(counter, n);
        }
    }

    /// Fold one segment's rank outputs and device busy times in;
    /// `orig_ids` maps its ranks to their accumulators. A lost rank's
    /// report, kernel table and collector — what it sent and launched
    /// before the loss — stay in the run's accumulators.
    fn fold(
        &mut self,
        orig_ids: &[usize],
        outs: Vec<RankOut>,
        device_busy: Vec<SimDuration>,
    ) -> Result<(), Overflow> {
        self.runtime += slowest(outs.iter().map(|out| out.report.total));
        self.window_cpu = slowest_cpu_compute(outs.iter().map(|out| &out.report));
        self.window_gpu = slowest(device_busy.iter().copied());
        // `t` is identical on every rank: dt is an exact collective.
        let t = outs.last().map_or(0.0, |out| out.t);
        self.stepped += outs.first().map_or(0, |out| out.stepped);
        let (mut left, mut particles) = (Vec::with_capacity(outs.len()), None);
        for (out, &orig) in outs.into_iter().zip(orig_ids) {
            match &mut self.ranks[orig] {
                Some(acc) => acc.absorb(out.report),
                slot => *slot = Some(out.report),
            }
            self.kernels.merge(&out.kernels)?;
            self.collectors.extend(out.collector);
            left.push(out.left);
            if let Some(phase) = out.phase {
                self.migrated += phase.migrated;
                particles.get_or_insert_with(Vec::new).extend(phase.parts);
            }
        }
        if let Some(all) = particles.as_mut() {
            all.sort_unstable_by_key(|p: &Particle| p.id);
        }
        self.device_busy
            .resize(device_busy.len(), SimDuration::ZERO);
        for (acc, busy) in self.device_busy.iter_mut().zip(device_busy) {
            *acc += busy;
        }
        self.end = EndState { left, particles, t };
        Ok(())
    }

    /// Charge the redistribution from `old` to `new` at a boundary:
    /// every zone and particle that changes owner is staged through
    /// the host, priced as a tree-barrier collective plus the α–β wire
    /// time, and recorded as a `span` on the coordinator timeline.
    /// `old_rank` maps a rank of `new` to the same rank in `old`.
    fn charge_move(
        &mut self,
        cfg: &RunConfig,
        old: &Decomposition,
        new: &Decomposition,
        old_rank: impl Fn(usize) -> usize,
        span: &'static str,
    ) {
        let particles =
            (self.end.particles.as_deref()).map_or(0, |parts| particles_moved(old, new, parts));
        let bytes = redistribution_bytes(zones_moved(old, new, old_rank))
            + particles * hsim_particles::WIRE_BYTES;
        let t0 = SimTime::from_nanos(self.runtime.as_nanos());
        self.runtime += cfg.node.comm.redistribution_time(bytes, new.len());
        if let Some(c) = self.coordinator.as_mut() {
            c.metrics.count(Counter::BalanceBytesMoved, bytes);
            let t1 = SimTime::from_nanos(self.runtime.as_nanos());
            c.rank_span(Category::Runtime, span, t0, t1);
        }
    }

    /// Renumber the survivors into the final world's rank order, run
    /// the telemetry epilogue and assemble the [`RunResult`]; a lost
    /// rank's bytes count in the run's total, its report is not listed.
    fn finish(
        mut self,
        cfg: &RunConfig,
        decomp: &Decomposition,
        orig_ids: &[usize],
        rb: Option<Rebalancer>,
    ) -> Result<RunResult, String> {
        let bytes_sent = self.ranks.iter().flatten().map(|r| r.bytes_sent).sum();
        let mut ranks = Vec::with_capacity(orig_ids.len());
        for (new_rank, &orig) in orig_ids.iter().enumerate() {
            let mut rep = self.ranks[orig]
                .take()
                .ok_or_else(|| format!("rank {orig} produced no report"))?;
            rep.rank = new_rank;
            ranks.push(rep);
        }

        let mut summary = self.coordinator.take().map(|coordinator| {
            self.collectors.push(coordinator);
            let mut s = Summary::from_collectors(self.collectors);
            // The gauge reports the final (re-split or folded) world.
            s.metrics
                .gauge_set(Gauge::CpuFraction, decomp.cpu_zone_fraction());
            if let Some(rb) = &rb {
                s.metrics.gauge_set(Gauge::BalanceFraction, rb.fraction);
                s.metrics.count(Counter::BalanceResplits, rb.resplits());
                s.metrics.count(Counter::BalanceHolds, rb.holds());
            }
            s
        });
        if let Some(s) = summary.as_mut() {
            s.count_kernels(&self.kernels).map_err(|e| e.to_string())?;
        }
        let grid = cfg.global_grid();
        // The final sums run over the ranks' tallies in rank order.
        let tallies = || {
            self.end.left.iter().filter_map(|left| match left {
                Left::Tally(tally) => tally.as_ref(),
                Left::State(_) => None,
            })
        };
        let full = cfg.fidelity == Fidelity::Full;
        let diag = full.then(|| ScenarioDiag::merge(grid.nx, tallies().map(|(_, diag)| diag)));
        Ok(RunResult {
            mode_key: cfg.mode.key(),
            mode_label: cfg.mode.label(),
            grid: cfg.grid,
            zones: grid.zones(),
            runtime: self.runtime,
            cpu_fraction: decomp.cpu_zone_fraction(),
            cycles: cfg.cycles,
            ranks,
            device_busy: self.device_busy,
            kernels: self.kernels,
            bytes_sent,
            telemetry: summary,
            mass: full.then(|| tallies().map(|(mass, _)| mass).sum()),
            balance_history: rb.map(|rb| rb.history).unwrap_or_default(),
            particles: self.end.particles.as_deref().map(|p| ParticleReport {
                count: p.len() as u64,
                momentum: hsim_particles::momentum(p),
                migrated: self.migrated,
                checksum: hsim_particles::checksum(p),
            }),
            scenario: scenario::outcome(cfg.problem, &grid, self.end.t, diag.as_ref()),
        })
    }
}

/// The zones two boxes share, as a ghostless box.
fn overlap(a: &Subdomain, b: &Subdomain) -> Option<Subdomain> {
    let lo = std::array::from_fn(|ax| a.lo[ax].max(b.lo[ax]));
    let hi = std::array::from_fn(|ax| a.hi[ax].min(b.hi[ax]));
    (0..3)
        .all(|ax| lo[ax] < hi[ax])
        .then(|| Subdomain::new(lo, hi, 0))
}

/// Zones whose owner changes between two decompositions, matched
/// through `old_rank` (rank of `new` → the same rank in `old`). A zone
/// moves when it sits in the new rank's box but not the same rank's
/// old box.
fn zones_moved(old: &Decomposition, new: &Decomposition, old_rank: impl Fn(usize) -> usize) -> u64 {
    let shared = |a, b| overlap(a, b).map_or(0, |both| both.zones());
    new.domains
        .iter()
        .enumerate()
        .map(|(j, d)| d.zones() - shared(d, &old.domains[old_rank(j)]))
        .sum()
}

/// Bytes a re-split redistribution stages through the host: every
/// moved zone carries its conserved variables.
fn redistribution_bytes(moved_zones: u64) -> u64 {
    moved_zones * hsim_hydro::NCONS as u64 * std::mem::size_of::<f64>() as u64
}

/// Particles whose owning subdomain *box* changes between two
/// decompositions of the same grid — box identity (not rank index)
/// so the count is invariant to the foldback's rank renumbering.
fn particles_moved(old: &Decomposition, new: &Decomposition, parts: &[Particle]) -> u64 {
    let owner_box = |d: &Decomposition, zone: [usize; 3]| {
        d.domains
            .iter()
            .find(|s| hsim_particles::sub_contains(s, zone))
            .map(|s| (s.lo, s.hi))
    };
    parts
        .iter()
        .filter(|p| {
            let zone = hsim_particles::zone_of(&old.grid, p.pos);
            match (owner_box(old, zone), owner_box(new, zone)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            }
        })
        .count() as u64
}

/// Makes the state of a box no old state is moved to: zeroed, at the
/// boundary's time and cycle, on the run's tile.
type Fresh<'a> = &'a dyn Fn(&Subdomain) -> HydroState;

/// Carry the ranks' states across a boundary onto the boxes of `new`.
/// A box that did not change — found by its [`Subdomain`], not by
/// rank, so the survivors a foldback renumbers are found too — keeps
/// its state, *moved*: no allocation, no copy. A box that did change
/// gets a `fresh` state whose owned zones are copied, row by row, out
/// of the old boxes it overlaps (the boxes partition the grid before
/// and after, so each is written once). Only owned zones cross: a
/// moved state keeps last cycle's ghosts and scratch, a rebuilt one has
/// zeros, and neither is read before it is rewritten
/// (`tests::segmentation_is_invisible_to_the_physics`). On a cold
/// start there is nothing to go on from: every box gets `fresh`.
fn hand_over(mut old: Vec<HydroState>, new: &Decomposition, fresh: Fresh) -> Vec<HydroState> {
    let kept: Vec<Option<HydroState>> = new
        .domains
        .iter()
        .map(|sub| Some(old.swap_remove(old.iter().position(|s| s.sub == *sub)?)))
        .collect();
    // Of a box that is gone only the conserved block is still read.
    let gone: Vec<(Subdomain, SoaBlock)> = old.into_iter().map(|s| (s.sub, s.u)).collect();
    let rebuild = |sub: &Subdomain| {
        let mut state = fresh(sub);
        // Cost-only states hold no zone values.
        if state.fidelity == Fidelity::CostOnly {
            return state;
        }
        for (from, u) in &gone {
            let Some(Subdomain { lo, hi, .. }) = overlap(from, sub) else {
                continue;
            };
            // Global zones → a block's allocated coordinates.
            let within = |of: &Subdomain, zone: [usize; 3]| -> [usize; 3] {
                std::array::from_fn(|ax| zone[ax] - of.lo[ax] + of.ghost)
            };
            for var in 0..hsim_hydro::NCONS {
                let rows = u.pack_box(var, within(from, lo), within(from, hi));
                let (lo, hi) = (within(sub, lo), within(sub, hi));
                state.u.unpack_box(var, lo, hi, &rows);
            }
        }
        state
    };
    kept.into_iter()
        .zip(&new.domains)
        .map(|(kept, sub)| kept.unwrap_or_else(|| rebuild(sub)))
        .collect()
}

/// One contiguous span of cycles over a fixed decomposition: the
/// whole run when nothing interrupts it, else the span between two
/// boundaries.
#[derive(Clone, Copy)]
struct Segment<'a> {
    cfg: &'a RunConfig,
    fault_plan: &'a Arc<hsim_faults::FaultPlan>,
    decomp: &'a Decomposition,
    /// Pre-loss rank ids, keying fault-plan lookups and report merges.
    orig_ids: &'a [usize],
    /// Global cycle numbers `[first, last)`.
    first_cycle: u64,
    last_cycle: u64,
    /// No segment came before: every state is fresh, and each rank
    /// writes the problem's initial condition into its own.
    cold: bool,
    /// The resolved fused-kernel tile shape, the same for every
    /// segment of a run.
    tile: [usize; 2],
}

/// What a segment leaves behind (before the first: nothing) for the
/// next to go on from ([`hand_over`]), or after the last for the result.
#[derive(Default)]
struct EndState {
    /// What each rank left, in rank order.
    left: Vec<Left>,
    /// The live particle set, merged across ranks and sorted by id
    /// (`None` when the particle phase is off). The next segment
    /// re-filters it by subdomain ownership, so a re-split or foldback
    /// re-homes particles for free.
    particles: Option<Vec<Particle>>,
    t: f64,
}

/// Run one segment on a fresh world: every rank's output, in rank
/// order, and each device's busy time. Rank failures surface as typed
/// errors — never panics or hangs (a dead rank disconnects its peers'
/// receives from it, its device's rendezvous stops counting it, and
/// the period board stops waiting for its posts).
///
/// The ranks step the segment's cycles one by one, except where all a
/// cycle leaves behind is clocks and counts: in a cost-only segment
/// with no collector and no particles every rank posts each stepped
/// cycle on a [`PeriodBoard`], and once the
/// segment has gone periodic the cycles ahead — up to the segment's end
/// or the next cycle the fault plan names for any rank, which is
/// stepped — are added, not stepped. Host time is then that of the two
/// cycles it takes to see the period (a transient and one common
/// advance), whatever `cfg.cycles` is. Full fidelity, telemetry,
/// `--trace` and particles step every cycle, as does a segment that
/// never repeats itself.
fn run_segment(
    seg: Segment<'_>,
    workers: usize,
    restore: EndState,
) -> Result<(Vec<RankOut>, Vec<SimDuration>), String> {
    // Across the boundary come every rank's state, moved onto this
    // segment's boxes, and the merged particle set. Every state is
    // allocated here, on the calling thread, a cold start's too: then
    // all of a run's states live in this thread's malloc arena, and the
    // next run's go where they were freed. Allocated on the rank
    // threads, which glibc deals arenas anew in every segment, a run's
    // states could land beside the previous run's freed ones, and a
    // process that ran back to back kept a second set resident.
    let states = restore.left.into_iter().filter_map(|left| match left {
        Left::State(state) => Some(state),
        Left::Tally(_) => None,
    });
    let fresh = |sub: &Subdomain| HydroState {
        tile: seg.tile,
        t: restore.t,
        cycle: seg.first_cycle,
        ..HydroState::new(seg.decomp.grid, *sub, seg.cfg.fidelity)
    };
    let states = hand_over(states.collect(), seg.decomp, &fresh);
    let ranks = Ranks::new(seg, states, restore.particles.as_deref())?;
    let outputs = World::run_fallible(
        workers,
        seg.decomp.len(),
        seg.cfg.node.comm.clone(),
        rank_task(|comm| rank_body(&ranks, comm)),
    );
    // Prefer the root cause (the injected fault's typed message) over
    // collateral peer-disconnect failures.
    let mut errors = outputs.iter().filter_map(|res| res.as_ref().err());
    let root = (errors.clone().find(|e| e.contains("injected")))
        .or_else(|| (errors.clone()).find(|e| !e.to_lowercase().contains("disconnected")))
        .or_else(|| errors.next());
    if let Some(root) = root {
        return Err(root.clone());
    }
    // Every launch a segment gave a device ran.
    for device in &ranks.devices {
        device.stranded().map_err(|e| e.to_string())?;
    }
    let mut outs = Vec::with_capacity(outputs.len());
    outs.extend(outputs.into_iter().flatten());
    Ok((outs, ranks.devices.iter().map(|d| d.busy()).collect()))
}

/// How a rank body fails: with whatever typed error stopped it. The
/// rank's name is added once, by [`rank_body`].
type Failed = Box<dyn Error>;

/// A GPU rank's client, its device, and whether it is the one client
/// that accounts for the device where cycles are added up.
type Gpu = (GpuClient, Arc<SharedDevice>, bool);

/// What the ranks of a segment share, by reference.
struct Ranks<'a> {
    seg: Segment<'a>,
    /// The mode's devices, in device order.
    devices: Vec<Arc<SharedDevice>>,
    /// Per rank, what it starts from — its GPU client if it drives one,
    /// and its state — taken once, by that rank.
    handouts: Mutex<Vec<(Option<Gpu>, Option<HydroState>)>>,
    /// The merged particle set the previous segment left (`None` on a
    /// cold start or with the particle phase off).
    particles: Option<&'a [Particle]>,
    plan: HaloPlan,
    host_pool: Option<Arc<WorkPool>>,
    /// One collector per rank serves both consumers: the telemetry
    /// exports and the `--trace` Gantt read the same span store.
    collect: bool,
    /// Where cycles may be added up (see [`PeriodBoard`]).
    board: Option<PeriodBoard>,
}

impl<'a> Ranks<'a> {
    /// Set up a segment's world: the mode's devices and clients, the
    /// states and the particles the previous segment left.
    fn new(
        seg: Segment<'a>,
        states: Vec<HydroState>,
        particles: Option<&'a [Particle]>,
    ) -> Result<Self, String> {
        let (cfg, node) = (seg.cfg, &seg.cfg.node);
        let mut devices: Vec<Arc<SharedDevice>> = Vec::new();
        let owners = &seg.decomp.owners;
        let mut gpus: Vec<Option<Gpu>> = owners.iter().map(|_| None).collect();
        // The ranks whose pieces GPU `g` owns are its clients, in rank
        // order; under MPS they share it concurrently.
        let mps = matches!(cfg.mode, ExecMode::Mps { .. });
        for g in 0..node.gpus {
            let ranks: Vec<usize> = (0..owners.len())
                .filter(|&r| owners[r] == OwnerKind::Gpu(g))
                .collect();
            if ranks.is_empty() {
                continue;
            }
            let (shared, clients) = SharedDevice::new(g, node.gpu_spec.clone(), ranks.len(), mps)
                .map_err(|e| e.to_string())?;
            for (i, (r, client)) in ranks.into_iter().zip(clients).enumerate() {
                gpus[r] = Some((client, Arc::clone(&shared), i == 0));
            }
            devices.push(shared);
        }
        let collect = cfg.telemetry || cfg.trace;
        // Spans are per cycle and particle positions are real even where
        // kernels are priced: such runs have more to a cycle than a mark.
        let priced_only = cfg.fidelity == Fidelity::CostOnly && !collect && cfg.particles.is_none();
        Ok(Ranks {
            seg,
            devices,
            handouts: Mutex::new(gpus.into_iter().zip(states.into_iter().map(Some)).collect()),
            particles,
            plan: HaloPlan::build(seg.decomp),
            // One host work pool for the whole *process* (never per
            // region, never per rank, and since the serve layer shares
            // runs it is not even per run): CPU ranks share its
            // persistent workers for parallel kernels and reductions.
            // None = the paper's sequential CPU ranks. `WorkPool::shared`
            // serializes concurrent regions via its region lock, so
            // simultaneous served runs are safe.
            host_pool: (cfg.host_threads > 1).then(|| WorkPool::shared(cfg.host_threads - 1)),
            collect,
            board: priced_only.then(|| PeriodBoard::new(seg.decomp.len())),
        })
    }
}

/// What one rank of a segment returns.
struct RankOut {
    report: RankReport,
    kernels: KernelTable,
    collector: Option<Collector>,
    left: Left,
    t: f64,
    /// The rank's particle phase at segment end: its live particles,
    /// and how many it shipped to peers during the segment.
    phase: Option<PhaseState>,
    /// Cycles this rank stepped.
    stepped: u64,
}

/// What one rank leaves behind at the end of a segment.
#[allow(clippy::large_enum_variant)] // one per rank per segment, moved twice
enum Left {
    /// A boundary follows: the rank's live state.
    State(HydroState),
    /// The run is over: the rank's total owned mass and scenario
    /// diagnostics, its terms of the result's sums (`None` under
    /// cost-only fidelity, whose states hold no physics). The rank
    /// body sums and frees its state itself, in parallel with its
    /// peers.
    Tally(Option<(f64, ScenarioDiag)>),
}

/// What a rank body installs in thread-local storage: its telemetry
/// collector and its fault injector. They belong to the rank, not to
/// the thread — ranks share the driver's workers, one of which is the
/// caller's thread and may have a collector or an injector of its own
/// — so they are installed for exactly as long as the rank is being
/// polled.
#[derive(Default)]
struct RankLocals {
    collector: Option<Collector>,
    injector: Option<hsim_faults::Injector>,
}

impl RankLocals {
    /// Trade places with whatever the calling thread has installed.
    fn swap(&mut self) {
        // Two absent collectors or injectors trade nothing: a run
        // without telemetry or faults moves neither on every poll.
        if self.collector.is_some() || hsim_telemetry::is_enabled() {
            self.collector = hsim_telemetry::swap(self.collector.take());
        }
        if self.injector.is_some() || hsim_faults::armed() {
            self.injector = hsim_faults::swap(self.injector.take());
        }
    }
}

/// A rank body with its [`RankLocals`]: swapped in before every poll
/// and out after it (also when the poll unwinds), the thread's own put
/// back in between. Whatever the body leaves installed when it ends —
/// on an error path, say — ends with it.
struct RankTask<F> {
    locals: RankLocals,
    body: Pin<Box<F>>,
}

impl<F: Future> Future for RankTask<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        struct Installed<'a>(&'a mut RankLocals);
        impl Drop for Installed<'_> {
            fn drop(&mut self) {
                self.0.swap();
            }
        }
        let task = self.get_mut();
        task.locals.swap();
        let _installed = Installed(&mut task.locals);
        task.body.as_mut().poll(cx)
    }
}

/// Make every rank that `body` starts a [`RankTask`].
fn rank_task<F: Future>(body: impl Fn(Comm) -> F) -> impl Fn(Comm) -> RankTask<F> {
    move |comm| RankTask {
        locals: RankLocals::default(),
        body: Box::pin(body(comm)),
    }
}

/// The rank body, resumable at every wait on a peer, a device or the
/// period board: a wait parks the rank, and a worker of the driver
/// resumes it later, on whichever thread. Every error it returns names
/// the rank by its original id, which the fault plan keys on.
async fn rank_body(ranks: &Ranks<'_>, mut comm: Comm) -> Result<RankOut, String> {
    let orig = ranks.seg.orig_ids[comm.rank()];
    let out = run_rank(ranks, &mut comm).await;
    out.map_err(|e| format!("rank {orig}: {e}"))
}

async fn run_rank(ranks: &Ranks<'_>, comm: &mut Comm) -> Result<RankOut, Failed> {
    let seg = &ranks.seg;
    // However this body ends, its peers at the board stop waiting for
    // its posts.
    let mut seat = ranks.board.as_ref().map(|board| board.seat(comm.rank()));
    let mut me = set_up(ranks, comm).await?;
    let (mut cycle, mut stepped) = (seg.first_cycle, 0);
    while cycle < seg.last_cycle {
        let dt = me.step(cycle).await?;
        cycle += 1;
        stepped += 1;
        let Some(seat) = seat.as_mut() else {
            continue;
        };
        let added = seat
            .add_up(&mut me, dt, cycle..seg.last_cycle, seg.fault_plan)
            .await?;
        if added > 0 {
            // `t` is reported, so it is summed as stepping sums it.
            (0..added).for_each(|_| me.state.t += dt);
            me.state.cycle += added;
            cycle += added;
            // The injector reads the last cycle gone through.
            hsim_faults::set_cycle(cycle - 1);
        }
    }
    // The particle advect is launched after the cycle's last sync: the
    // segment's last one runs at a sync of its own before the rank
    // leaves its device.
    if (me.gpu.as_ref()).is_some_and(|(client, ..)| client.stream_mark().queued > 0) {
        me.exec.sync(&mut me.clock).await?;
    }
    Ok(me.report(stepped))
}

/// One rank of a segment, set up: what its cycles read and advance.
pub(crate) struct Rank<'a> {
    ranks: &'a Ranks<'a>,
    pub(crate) coupler: MpiCoupler<'a>,
    pub(crate) clock: RankClock,
    /// The clock at the set-up barrier, where the cycle loop's account
    /// starts.
    at_t0: RankClock,
    pub(crate) exec: Executor,
    state: HydroState,
    phase: Option<PhaseState>,
    /// The rank's share of the node-level host-bandwidth penalty that
    /// every cycle pays.
    penalty: SimDuration,
    /// However this body ends, its device's rendezvous learns that this
    /// client joins no further sync epoch.
    _departure: Option<Departure>,
    pub(crate) gpu: Option<Gpu>,
}

/// Set a rank up: its clock, collector and injector, its memory
/// (Figure 8), its executor, its state and particles — then meet the
/// other ranks at the set-up barrier.
async fn set_up<'a>(ranks: &'a Ranks<'a>, comm: &'a mut Comm) -> Result<Rank<'a>, Failed> {
    let (seg, cfg) = (&ranks.seg, ranks.seg.cfg);
    let rank = comm.rank();
    let orig = seg.orig_ids[rank];
    let sub = seg.decomp.domains[rank];
    let (gpu, state) = std::mem::take(&mut lock(&ranks.handouts)[rank]);
    let mut state = state.ok_or("set up twice")?;
    let departure = gpu
        .as_ref()
        .map(|(client, ..)| client.departure())
        .transpose()?;
    let mut clock = RankClock::new(rank);
    if ranks.collect {
        hsim_telemetry::install(Collector::new(rank));
    }
    // Arm the injector under this rank's *original* id, so the plan
    // keeps naming the same rank across the foldback. An empty plan
    // fires nothing: it arms none.
    if !seg.fault_plan.events.is_empty() {
        hsim_faults::install(orig, Arc::clone(seg.fault_plan));
        hsim_faults::set_cycle(seg.first_cycle);
    }

    // The Figure 8 memory scheme. A GPU-driving rank keeps its control
    // data in host memory, its mesh in unified memory (paying the
    // fault-in below) and its temporaries in a cnmem-style device pool;
    // a CPU rank host-allocates all three, never touching device memory
    // (§5.2). Only the fault-in is priced: a pool that hands out the
    // same temporaries every cycle costs nothing.
    let target = match (&gpu, &ranks.host_pool) {
        (Some((client, device, _)), _) => {
            fault_in(&mut clock, device, sub.zones())?;
            Target::Gpu(client.clone())
        }
        (None, Some(pool)) => Target::CpuParallel { pool: pool.clone() },
        (None, None) => Target::CpuSeq,
    };
    let exec = Executor::new(target, cfg.node.cpu.clone(), cfg.fidelity).with_multipolicy(
        hsim_raja::MultiPolicy::with_threshold(cfg.multipolicy_threshold),
    );
    // The state the boundary handed over, or on a cold start the
    // problem's initial condition, written here so that the ranks share
    // the work.
    if seg.cold {
        cfg.problem.init(&mut state);
    }
    // The particle phase: fresh deterministic placement on a cold
    // start, ownership re-filter of the global snapshot after a boundary
    // (re-splits and foldbacks re-home particles through exactly this
    // path). A global set the allocator refuses is the run's error.
    let grid = &seg.decomp.grid;
    let phase = match (cfg.particles, ranks.particles) {
        (None, _) => None,
        (Some(pcfg), Some(all)) => Some(PhaseState::from_global(pcfg, all, grid, &sub)),
        (Some(pcfg), None) => {
            let all = hsim_particles::init_global(&pcfg, grid)?;
            Some(PhaseState::from_global(pcfg, &all, grid, &sub))
        }
    };
    // Node-level host-bandwidth model (the Figure 12 kink): aggregate
    // host traffic beyond the active cores' capacity costs extra,
    // distributed over ranks in proportion to their zones.
    let total_zones = seg.decomp.grid.zones() as f64;
    let capacity = seg.decomp.len() as f64 * calib::HOST_ZONES_PER_CORE;
    let excess = (total_zones - capacity).max(0.0);
    let share = sub.zones() as f64 / total_zones;
    let penalty = SimDuration::from_nanos_f64(excess * calib::HOST_PENALTY_NS_PER_ZONE * share);

    // A rejected MPS client reconnects at the set-up of the first
    // segment, whatever cycle the plan names.
    if seg.first_cycle == 0 && matches!(cfg.mode, ExecMode::Mps { .. }) {
        let rejected = seg.fault_plan.of_site(hsim_faults::Site::MpsConnect);
        for ev in rejected.filter(|ev| ev.rank == orig) {
            let span = (Category::Runtime, "fault_mps_retry");
            hsim_faults::recover(&mut clock, *ev, None, span)?;
        }
    }

    // Setup complete: synchronize and zero the runtime baseline. The
    // figures report cycle-loop time (setup — UM fault-in, allocation —
    // amortizes to noise over a real run's length).
    lend_clock(comm, &mut clock).ibarrier().await?;
    let at_t0 = clock.clone();
    hsim_telemetry::rank_span(Category::Runtime, "setup", SimTime::ZERO, at_t0.now());
    Ok(Rank {
        ranks,
        coupler: MpiCoupler::new(
            comm,
            &ranks.plan,
            seg.decomp,
            gpu.as_ref().map(|_| cfg.node.gpu_spec.clone()),
            cfg.gpu_direct,
        ),
        clock,
        at_t0,
        exec,
        state,
        phase,
        penalty,
        _departure: departure,
        gpu,
    })
}

/// The bytes of the mesh of a box of `zones` zones: ghost-padded
/// fields sized at owned extent (sizing, not bookkeeping). `None` if
/// that overflows `u64`, which [`RunConfig::check`] refuses.
fn mesh_bytes(zones: u64) -> Option<u64> {
    zones.checked_mul(8 * calib::MESH_FIELDS)
}

/// Fault a GPU rank's mesh into unified memory, charged to its clock.
fn fault_in(clock: &mut RankClock, dev: &SharedDevice, zones: u64) -> Result<(), Failed> {
    let mesh = mesh_bytes(zones).ok_or("the rank's mesh bytes overflow u64")?;
    let t_um = clock.now();
    // Injected device OOM: a transient allocation failure backs off and
    // retries; a permanent one is a typed error.
    if let Some(hit) = hsim_faults::check(hsim_faults::Site::GpuOom) {
        let span = (Category::Runtime, "fault_oom_retry");
        hsim_faults::recover(clock, hit, None, span)?;
    }
    let cost = dev.um_alloc_and_touch(mesh);
    clock.charge(ChargeKind::Memory, cost);
    hsim_telemetry::count(Counter::UmMigrations, 1);
    hsim_telemetry::count(Counter::UmBytesMigrated, mesh);
    hsim_telemetry::time_stat(TimeStat::MigrationTime, cost);
    hsim_telemetry::rank_span(Category::UmMigration, "um_fault_in", t_um, clock.now());
    Ok(())
}

impl Rank<'_> {
    /// Step cycle `cycle`: hydro, diffusion and particles, then the
    /// host's share of it. Returns the cycle's timestep.
    async fn step(&mut self, cycle: u64) -> Result<f64, Failed> {
        let cfg = self.ranks.seg.cfg;
        hsim_faults::set_cycle(cycle);
        let cycle_start = self.clock.now();
        let wait_before = self.clock.bucket(ChargeKind::Wait);
        let (state, exec, clock) = (&mut self.state, &mut self.exec, &mut self.clock);
        let coupler = &mut self.coupler;
        let (cfl, fallback, recon) = (calib::CFL, calib::COST_ONLY_DT, Reconstruction::FirstOrder);
        let stats = step_with(state, exec, clock, coupler, cfl, fallback, recon).await?;
        if let Some(diff) = &cfg.diffusion {
            diffusion::advance(state, exec, clock, coupler, diff, stats.dt).await?;
        }
        if let Some(phase) = self.phase.as_mut() {
            hsim_particles::advect(phase, state, exec, clock, stats.dt, cycle)?;
            let (decomp, rank) = (self.ranks.seg.decomp, coupler.comm.rank());
            hsim_particles::migrate(phase, decomp, rank, coupler, clock).await?;
        }
        // Serial host control code between kernels.
        let control = stats.launches as f64 * calib::CONTROL_NS_PER_LAUNCH;
        clock.charge(ChargeKind::Control, SimDuration::from_nanos_f64(control));
        // Host-bandwidth saturation penalty.
        clock.charge(ChargeKind::Memory, self.penalty);
        if self.ranks.collect {
            // One busy span + one idle span per cycle: the idle share is
            // the Wait-bucket growth (GPU sync + peers).
            let wait_delta = clock.bucket(ChargeKind::Wait) - wait_before;
            let cycle_end = clock.now();
            let busy_end =
                SimTime::from_nanos(cycle_end.as_nanos().saturating_sub(wait_delta.as_nanos()));
            let cat = if self.ranks.seg.decomp.owners[coupler.comm.rank()].is_gpu_driver() {
                Category::GpuKernel
            } else {
                Category::CpuKernel
            };
            hsim_telemetry::rank_span(cat, "cycle", cycle_start, busy_end);
            hsim_telemetry::rank_span(Category::Idle, "wait", busy_end, cycle_end);
        }
        Ok(stats.dt)
    }

    /// The device this rank accounts for where cycles are added up: its
    /// own, if it is the one client that leads it.
    pub(crate) fn led(&self) -> Option<&SharedDevice> {
        let (_, device, leads) = self.gpu.as_ref()?;
        leads.then_some(&**device)
    }

    /// The rank's account of the segment, and what it leaves behind.
    fn report(self, stepped: u64) -> RankOut {
        let seg = &self.ranks.seg;
        // The cycle loop's account: each bucket's growth since the
        // set-up barrier on the rank's one clock, so the six partition
        // `total`.
        let cycles = self.clock.since(&self.at_t0);
        let rank = self.coupler.comm.rank();
        let report = RankReport {
            rank,
            role: seg.decomp.owners[rank],
            zones: self.state.sub.zones(),
            setup: self.at_t0.now() - SimTime::ZERO,
            total: cycles.now() - SimTime::ZERO,
            compute: cycles.bucket(ChargeKind::Compute),
            launch: cycles.bucket(ChargeKind::Launch),
            memory: cycles.bucket(ChargeKind::Memory),
            comm: cycles.bucket(ChargeKind::Comm),
            control: cycles.bucket(ChargeKind::Control),
            wait: cycles.bucket(ChargeKind::Wait),
            launches: self.exec.kernels.total_launches(),
            bytes_sent: self.coupler.comm.bytes_sent(),
        };
        debug_assert_eq!(report.account_residual(), SimDuration::ZERO);
        hsim_faults::uninstall();
        let t = self.state.t;
        let left = if seg.last_cycle < seg.cfg.cycles {
            Left::State(self.state)
        } else {
            let full = seg.cfg.fidelity == Fidelity::Full;
            let state = &self.state;
            Left::Tally(full.then(|| (state.total_mass(), ScenarioDiag::of_rank(state))))
        };
        RankOut {
            report,
            kernels: self.exec.kernels,
            collector: hsim_telemetry::uninstall(),
            left,
            t,
            phase: self.phase,
            stepped,
        }
    }
}

/// The §6.2 loop: run, measure CPU vs GPU busy time, adjust the split,
/// repeat until the fraction converges ("static within an iteration,
/// but the decomposition can be adjusted between iterations").
///
/// Returns the final run and the balancer with its history. Outside
/// the heterogeneous mode there is no split to adjust; a fault plan
/// is keyed to ranks and cycles a re-measured split would move; the
/// online controller ([`RunConfig::rebalance`]) is a single in-run
/// loop: each of those is one static [`run`] and an empty history.
pub fn run_balanced(cfg: &RunConfig) -> Result<(RunResult, LoadBalancer), String> {
    cfg.check()?;
    let hetero = matches!(cfg.mode, ExecMode::Heterogeneous { .. });
    if !hetero || cfg.faults.is_some() || cfg.rebalance.is_some() {
        let result = run(cfg)?;
        let mut lb = LoadBalancer::with_fraction(result.cpu_fraction);
        lb.history.clear();
        return Ok((result, lb));
    }
    let mut lb = match cfg.mode {
        ExecMode::Heterogeneous {
            cpu_fraction: Some(f),
        } => LoadBalancer::with_fraction(f),
        _ => LoadBalancer::new(&cfg.node),
    };
    lb.set_min_fraction(hetero_min_fraction(cfg)?);
    let mut result = run_with_fraction(cfg, lb.fraction)?;
    let mut rebalances = 0u64;
    for _ in 0..calib::BALANCE_MAX_ITERS {
        let cpu_time = result.slowest_cpu_compute();
        let gpu_time = result.slowest_device_busy();
        if cpu_time.is_zero() || gpu_time.is_zero() {
            break;
        }
        let before = lb.fraction;
        lb.observe(cpu_time, gpu_time);
        if (lb.fraction - before).abs() < calib::BALANCE_TOL {
            break;
        }
        rebalances += 1;
        result = run_with_fraction(cfg, lb.fraction)?;
    }
    if let Some(s) = result.telemetry.as_mut() {
        s.metrics.count(Counter::Rebalances, rebalances);
    }
    Ok((result, lb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::{PeriodBoard, Posted};
    use crate::scenario::Scenario;
    use hsim_raja::SharedDevice;

    fn sweep_cfg(grid: (usize, usize, usize), mode: ExecMode) -> RunConfig {
        let mut cfg = RunConfig::sweep(grid, mode);
        cfg.cycles = 3;
        cfg
    }

    #[test]
    fn all_modes_run_cost_only() {
        for mode in [
            ExecMode::CpuOnly,
            ExecMode::Default,
            ExecMode::mps4(),
            ExecMode::hetero(),
        ] {
            let cfg = sweep_cfg((64, 48, 32), mode);
            let r = run(&cfg).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(r.runtime > SimDuration::ZERO, "{mode:?}");
            assert_eq!(r.zones, 64 * 48 * 32);
            let ranks = build_decomposition(&cfg, 0.0).unwrap().len();
            assert_eq!(r.ranks.len(), ranks);
        }
    }

    #[test]
    fn an_uncarvable_grid_is_the_run_error_not_a_panic() {
        let modes = [
            ExecMode::CpuOnly,
            ExecMode::Default,
            ExecMode::mps4(),
            ExecMode::hetero(),
        ];
        for mode in modes {
            let huge = 4_000_000_000;
            // The last: 8·10¹⁸ zones fit u64, a rank's mesh bytes do not.
            let big = 2_000_000;
            for grid in [
                (32, 1, 32),
                (0, 48, 32),
                (huge, huge, huge),
                (big, big, big),
            ] {
                let cfg = sweep_cfg(grid, mode);
                let why = run(&cfg).expect_err("an uncarvable grid runs");
                assert_eq!(run_balanced(&cfg).expect_err("balanced"), why);
                assert!(
                    why.contains(&format!("grid {},{},{}", grid.0, grid.1, grid.2)),
                    "{why}"
                );
            }
        }
        let cpu = run(&sweep_cfg((32, 1, 32), ExecMode::CpuOnly)).unwrap_err();
        assert!(
            cpu.starts_with("cpuonly: ") && cpu.contains("more ranks than zones"),
            "{cpu}"
        );
        for mode in &modes[1..] {
            let why = run(&sweep_cfg((32, 1, 32), *mode)).unwrap_err();
            assert!(why.starts_with(&format!("{}: ", mode.key())), "{why}");
            assert!(why.contains("cannot split 4 ranks over y=1, z=32"), "{why}");
        }
        // A block that cannot host its MPS clients or the one plane each
        // of its CPU ranks needs is refused by the same check, by name;
        // so is a mode with more ranks than the node has cores.
        let refused = [
            (
                (64, 64, 2),
                ExecMode::mps4(),
                "mps4: grid 64,64,2: GPU block 0 extent 1 along axis 2 cannot host 4 ranks",
            ),
            (
                (64, 3, 64),
                ExecMode::hetero(),
                "hetero: grid 64,3,64: GPU block 0: carve axis extent 2 cannot host 3 CPU planes",
            ),
            (
                (80, 240, 320),
                ExecMode::Mps { per_gpu: 8 },
                "mps8: grid 80,240,320: 32 ranks oversubscribe the node's 16 cores",
            ),
        ];
        for (grid, mode, want) in refused {
            let cfg = sweep_cfg(grid, mode);
            let why = cfg.check().unwrap_err();
            assert!(why.starts_with(want), "{why}");
            assert_eq!(run(&cfg).unwrap_err(), why);
        }
        // A requested fraction too thick for a block is the run's
        // error, not the configuration's.
        let thick = sweep_cfg((64, 8, 64), ExecMode::hetero());
        thick.check().unwrap();
        let why = run_with_fraction(&thick, 0.9).unwrap_err();
        assert!(why.starts_with("GPU block 0: carve axis extent 4"), "{why}");
    }

    #[test]
    fn a_diffusivity_other_than_a_finite_non_negative_kappa_starts_no_rank() {
        // A rank that started with κ = ∞ would ask for u32::MAX
        // substeps; one with NaN would write NaN into every zone and
        // return.
        for kappa in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            let out = watched(move || {
                let mut cfg = sweep_cfg((8, 8, 8), ExecMode::hetero());
                cfg.fidelity = Fidelity::Full;
                cfg.cycles = 1;
                cfg.diffusion = Some(DiffusionConfig { kappa });
                (run(&cfg), run_balanced(&cfg).map(drop))
            });
            let why = out.0.expect_err("a bad kappa runs");
            assert!(why.starts_with("diffusion: kappa"), "{kappa}: {why}");
            assert_eq!(out.1, Err(why));
        }
    }

    #[test]
    fn a_particle_set_larger_than_the_address_space_starts_no_rank() {
        // Every rank would build the global set and panic in
        // `Vec::with_capacity`.
        let each = std::mem::size_of::<Particle>() as u64;
        for count in [u64::MAX, 1 << 62, isize::MAX as u64 / each + 1] {
            let out = watched(move || {
                let mut cfg = sweep_cfg((8, 8, 8), ExecMode::hetero());
                cfg.cycles = 1;
                cfg.particles = Some(ParticlesConfig {
                    count,
                    ..ParticlesConfig::default()
                });
                (run(&cfg), run_balanced(&cfg).map(drop))
            });
            let why = out.0.expect_err("an unallocatable particle set runs");
            assert!(why.starts_with(&format!("particles: {count} ")), "{why}");
            assert_eq!(out.1, Err(why));
        }
    }

    #[test]
    fn a_particle_set_the_allocator_refuses_is_the_run_error_not_an_abort() {
        // 10^15 particles fit `isize` bytes, so `check` passes them;
        // every rank's global set aborted the process in its allocation.
        let mut cfg = sweep_cfg((16, 16, 16), ExecMode::CpuOnly);
        cfg.cycles = 1;
        let count = 1_000_000_000_000_000;
        cfg.particles = Some(ParticlesConfig {
            count,
            ..ParticlesConfig::default()
        });
        let why = run(&cfg).expect_err("an unallocatable particle set runs");
        let reason = hsim_particles::Unallocatable { count }.to_string();
        assert!(why.ends_with(&format!(": {reason}")), "{why}");
    }

    #[test]
    fn a_kappa_needing_more_substeps_than_a_cycle_counts_is_an_error() {
        // Each of u32::MAX substeps would have run for real; the run
        // did not end.
        let out = watched(|| {
            let mut cfg = sweep_cfg((16, 16, 16), ExecMode::CpuOnly);
            cfg.fidelity = Fidelity::Full;
            cfg.cycles = 1;
            cfg.diffusion = Some(DiffusionConfig { kappa: 1e300 });
            (run(&cfg), run_balanced(&cfg).map(drop))
        });
        let why = out.0.expect_err("a kappa of 1e300 runs");
        assert!(
            why.contains("diffusion: kappa 1e300 needs") && why.contains("more than 4294967295"),
            "{why}"
        );
        assert_eq!(out.1, Err(why));
    }

    #[test]
    fn decompositions_match_modes() {
        let node = NodeConfig::rzhasgpu();
        let cfg = sweep_cfg((64, 48, 32), ExecMode::hetero());
        // "our heterogeneous approach … uses 4 MPI processes to drive
        // the GPU[s], and the remaining 12 cores" → 16 ranks.
        let d = build_decomposition(&cfg, 0.05).unwrap();
        assert_eq!(d.len(), 16);
        assert_eq!(d.gpu_ranks(), [0, 1, 2, 3]);
        assert_eq!(d.gpu_ranks().len(), node.gpus);
        let ranks = |mode| build_decomposition(&sweep_cfg((64, 48, 32), mode), 0.0).unwrap();
        assert_eq!(ranks(ExecMode::Default).len(), 4);
        assert_eq!(ranks(ExecMode::CpuOnly).cpu_ranks().len(), 16);
        let mps = ranks(ExecMode::mps4());
        assert_eq!(mps.len(), 16);
        // GPU-major: ranks 4g..4g+4 are GPU g's MPS clients.
        for (r, &owner) in mps.owners.iter().enumerate() {
            assert_eq!(owner, OwnerKind::Gpu(r / 4));
        }
        // Eight clients per GPU need 32 of the node's 16 cores.
        let mps8 = sweep_cfg((64, 48, 32), ExecMode::Mps { per_gpu: 8 });
        let why = build_decomposition(&mps8, 0.0).unwrap_err();
        assert_eq!(why, "32 ranks oversubscribe the node's 16 cores");
    }

    #[test]
    fn gpu_modes_report_device_busy_and_launch_overhead() {
        let cfg = sweep_cfg((64, 48, 32), ExecMode::Default);
        let r = run(&cfg).unwrap();
        assert_eq!(r.device_busy.len(), 4);
        assert!(r.slowest_device_busy() > SimDuration::ZERO);
        for rank in &r.ranks {
            assert!(rank.launch > SimDuration::ZERO, "launch overhead charged");
            assert!(rank.compute.is_zero(), "GPU rank computes on device");
        }
    }

    #[test]
    fn cpu_only_mode_computes_on_cores() {
        let cfg = sweep_cfg((32, 32, 32), ExecMode::CpuOnly);
        let r = run(&cfg).unwrap();
        assert!(r.device_busy.is_empty());
        for rank in &r.ranks {
            assert!(rank.compute > SimDuration::ZERO);
            assert!(rank.launch.is_zero());
        }
    }

    #[test]
    fn hetero_assigns_thin_slabs_to_cpu() {
        let cfg = sweep_cfg((320, 240, 160), ExecMode::hetero());
        let r = run(&cfg).unwrap();
        assert!(
            r.cpu_fraction > 0.0 && r.cpu_fraction < 0.2,
            "{}",
            r.cpu_fraction
        );
        let cpu_zones: u64 = r
            .ranks
            .iter()
            .filter(|x| !x.role.is_gpu_driver())
            .map(|x| x.zones)
            .sum();
        assert!(cpu_zones > 0);
    }

    #[test]
    fn mps_uses_elevated_launch_overhead() {
        let cfg_mps = sweep_cfg((64, 64, 64), ExecMode::mps4());
        let cfg_def = sweep_cfg((64, 64, 64), ExecMode::Default);
        let r_mps = run(&cfg_mps).unwrap();
        let r_def = run(&cfg_def).unwrap();
        // Per-rank launch counts are comparable; MPS pays more per
        // launch, so *total* launch time across the node is higher.
        let mps_launch: SimDuration = r_mps.ranks.iter().map(|r| r.launch).sum();
        let def_launch: SimDuration = r_def.ranks.iter().map(|r| r.launch).sum();
        assert!(
            mps_launch > def_launch,
            "MPS launch {mps_launch} vs Default {def_launch}"
        );
    }

    #[test]
    fn host_penalty_kinks_default_mode() {
        // Beyond 4 × 9.25 M zones the Default mode pays extra; the
        // other 16-rank modes do not. Compare per-zone cost below and
        // above the kink.
        let small = run(&sweep_cfg((320, 320, 240), ExecMode::Default)).unwrap(); // 24.6 M
        let large = run(&sweep_cfg((320, 320, 480), ExecMode::Default)).unwrap(); // 49 M
        let per_zone_small = small.runtime.as_secs_f64() / small.zones as f64;
        let per_zone_large = large.runtime.as_secs_f64() / large.zones as f64;
        assert!(
            per_zone_large > per_zone_small * 1.1,
            "kink missing: {per_zone_small} vs {per_zone_large}"
        );
        let mps_small = run(&sweep_cfg((320, 320, 240), ExecMode::mps4())).unwrap();
        let mps_large = run(&sweep_cfg((320, 320, 480), ExecMode::mps4())).unwrap();
        let ps = mps_small.runtime.as_secs_f64() / mps_small.zones as f64;
        let pl = mps_large.runtime.as_secs_f64() / mps_large.zones as f64;
        assert!(pl < ps * 1.08, "MPS should stay linear: {ps} vs {pl}");
    }

    #[test]
    fn run_balanced_converges_for_hetero() {
        let cfg = sweep_cfg((320, 480, 160), ExecMode::hetero());
        let (result, lb) = run_balanced(&cfg).unwrap();
        assert!(lb.history.len() >= 2, "balancer iterated");
        assert!(result.cpu_fraction > 0.0);
        // The balanced fraction should be small (the compiler bug caps
        // the CPU share at a few percent).
        assert!(result.cpu_fraction < 0.12, "{}", result.cpu_fraction);
    }

    #[test]
    fn full_fidelity_multirank_run_is_physical() {
        // A small functional run through the whole stack: mass is
        // conserved across a cooperative MPS-mode run.
        let mut cfg = sweep_cfg((16, 16, 16), ExecMode::mps4());
        cfg.fidelity = Fidelity::Full;
        cfg.cycles = 2;
        let r = run(&cfg).unwrap();
        assert_eq!(r.ranks.len(), 16);
        assert!(r.runtime > SimDuration::ZERO);
    }

    #[test]
    fn shared_host_pool_run_is_green_and_charged_parallel() {
        // Full-fidelity hetero run with one shared pool across all
        // CPU ranks: physics completes, and the OpenMP cost model
        // makes CPU compute cheaper than the sequential run.
        let mut cfg = sweep_cfg((32, 48, 32), ExecMode::hetero());
        cfg.fidelity = Fidelity::Full;
        cfg.cycles = 2;
        let serial = run(&cfg).unwrap();
        cfg.host_threads = 4;
        let pooled = run(&cfg).unwrap();
        assert_eq!(pooled.ranks.len(), serial.ranks.len());
        let cpu_compute = |r: &RunResult| {
            r.ranks
                .iter()
                .filter(|x| !x.role.is_gpu_driver())
                .map(|x| x.compute)
                .fold(SimDuration::ZERO, SimDuration::max)
        };
        assert!(
            cpu_compute(&pooled) < cpu_compute(&serial),
            "pooled CPU ranks must be charged parallel time: {} vs {}",
            cpu_compute(&pooled),
            cpu_compute(&serial)
        );
    }

    #[test]
    fn alternate_problems_run_through_the_cooperative_stack() {
        for problem in [
            Scenario::Sod.problem(),
            Problem::Perturbed,
            Scenario::Noh.problem(),
            Scenario::TaylorGreen.problem(),
        ] {
            let mut cfg = sweep_cfg((16, 16, 16), ExecMode::mps4());
            cfg.fidelity = Fidelity::Full;
            cfg.cycles = 2;
            cfg.problem = problem;
            let r = run(&cfg).unwrap_or_else(|e| panic!("{problem:?}: {e}"));
            assert!(r.runtime > SimDuration::ZERO);
        }
    }

    #[test]
    fn particle_phase_rides_the_run_and_costs_time() {
        let mut cfg = sweep_cfg((16, 16, 16), ExecMode::CpuOnly);
        cfg.cycles = 3;
        let bare = run(&cfg).unwrap();
        assert!(bare.particles.is_none());

        cfg.particles = Some(ParticlesConfig::default());
        let with = run(&cfg).unwrap();
        let p = with.particles.as_ref().expect("particle report present");
        assert_eq!(p.count, ParticlesConfig::default().count);
        assert!(
            with.runtime > bare.runtime,
            "the advect kernel must be charged: {} vs {}",
            with.runtime,
            bare.runtime
        );
    }

    #[test]
    fn every_particle_advect_a_gpu_rank_launches_runs() {
        // The advect follows each cycle's last sync: each GPU rank of
        // each segment syncs once more, so its last advect runs before
        // the rank leaves the device (unsynced it is a stranded-launch
        // error). Three syncs a cycle, plus one a segment.
        use hsim_telemetry::Counter;
        for mode in [ExecMode::Default, ExecMode::mps4(), ExecMode::hetero()] {
            let mut cfg = sweep_cfg((32, 48, 32), mode);
            cfg.cycles = 4;
            cfg.telemetry = true;
            let synced = |cfg: &RunConfig| {
                let r = run(cfg).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
                let summary = r.telemetry.expect("telemetry on");
                summary.metrics.counter(Counter::DeviceSyncs)
            };
            let gpu_ranks = match mode {
                ExecMode::Mps { per_gpu } => 4 * per_gpu as u64,
                _ => 4,
            };
            assert_eq!(
                synced(&cfg),
                gpu_ranks * 3 * 4,
                "{mode:?} without particles"
            );
            cfg.particles = Some(ParticlesConfig::default());
            assert_eq!(synced(&cfg), gpu_ranks * (3 * 4 + 1), "{mode:?}");
        }
    }

    #[test]
    fn diffusion_package_adds_cost_and_stays_green() {
        let mut cfg = sweep_cfg((64, 48, 32), ExecMode::Default);
        let base = run(&cfg).unwrap();
        cfg.diffusion = Some(hsim_hydro::DiffusionConfig::default());
        let multi = run(&cfg).unwrap();
        assert!(
            multi.runtime > base.runtime,
            "a second physics package must cost time: {} vs {}",
            multi.runtime,
            base.runtime
        );
        assert!(multi.kernels.total_launches() > base.kernels.total_launches());
    }

    #[test]
    fn multipolicy_helps_tiny_problems_on_gpu_ranks() {
        // A tiny problem: boundary/face kernels fall below the
        // break-even size, where launch overhead exceeds host
        // execution even on the bug-afflicted CPU. A *tuned* threshold
        // must help; a wildly oversized one (everything to the slow
        // host) must hurt — both directions are asserted.
        let node = NodeConfig::rzhasgpu();
        let tuned = hsim_raja::MultiPolicy::break_even(
            &node.gpu_spec,
            &node.cpu,
            &hsim_hydro::kernels::FLUX,
        );
        let mut cfg = sweep_cfg((16, 12, 12), ExecMode::Default);
        let naive = run(&cfg).unwrap();
        cfg.multipolicy_threshold = tuned;
        let multi = run(&cfg).unwrap();
        assert!(
            multi.runtime < naive.runtime,
            "tuned MultiPolicy should help tiny problems: {} vs {}",
            multi.runtime,
            naive.runtime
        );
        cfg.multipolicy_threshold = 1_000_000;
        let oversized = run(&cfg).unwrap();
        assert!(
            oversized.runtime > naive.runtime,
            "routing everything to the slow host must hurt: {} vs {}",
            oversized.runtime,
            naive.runtime
        );
    }

    /// How many spans of the run the `--trace` Gantt draws.
    fn per_cycle_spans(r: &RunResult) -> usize {
        let spans = &r.telemetry.as_ref().expect("a span store").spans;
        spans.iter().filter(|s| crate::report::per_cycle(s)).count()
    }

    #[test]
    fn traced_run_records_spans_for_every_rank_and_cycle() {
        let mut cfg = sweep_cfg((64, 48, 32), ExecMode::hetero());
        cfg.trace = true;
        let r = run(&cfg).unwrap();
        // Two spans (busy + wait) per rank per cycle.
        assert_eq!(
            per_cycle_spans(&r) as u64,
            2 * cfg.cycles * r.ranks.len() as u64,
            "span count"
        );
        let gantt = r.timeline(60).unwrap();
        assert!(gantt.contains('G') && gantt.contains('C'), "{gantt}");
        // Untraced runs carry no span store.
        cfg.trace = false;
        assert!(run(&cfg).unwrap().telemetry.is_none());
    }

    #[test]
    fn gpu_direct_reduces_hetero_runtime() {
        let mut cfg = sweep_cfg((128, 128, 128), ExecMode::Default);
        let base = run(&cfg).unwrap();
        cfg.gpu_direct = true;
        let direct = run(&cfg).unwrap();
        assert!(
            direct.runtime <= base.runtime,
            "gpu-direct {} vs staged {}",
            direct.runtime,
            base.runtime
        );
    }

    /// A small full-fidelity Heterogeneous Sedov run with a fault plan.
    fn fault_cfg(spec: &str) -> RunConfig {
        let mut cfg = sweep_cfg((32, 48, 32), ExecMode::hetero());
        cfg.fidelity = Fidelity::Full;
        cfg.cycles = 4;
        cfg.faults = Some(hsim_faults::FaultPlan::parse(spec).expect(spec));
        cfg
    }

    #[test]
    fn rank_loss_folds_back_and_conserves_mass() {
        let mut intact_cfg = fault_cfg("rank.loss@rank4.cycle2");
        intact_cfg.faults = None;
        let intact = run(&intact_cfg).unwrap();
        let degraded = run(&fault_cfg("rank.loss@rank4.cycle2")).unwrap();
        assert_eq!(intact.ranks.len(), 16);
        assert_eq!(degraded.ranks.len(), 15, "lost rank folded away");
        assert!(
            degraded.cpu_fraction < intact.cpu_fraction,
            "foldback hands the slab back to the GPU: {} vs {}",
            degraded.cpu_fraction,
            intact.cpu_fraction
        );
        // Physics does not depend on the decomposition, so the
        // folded run conserves mass up to the changed summation order
        // of the per-rank reductions.
        let (mi, md) = (intact.mass.unwrap(), degraded.mass.unwrap());
        assert!(
            ((mi - md) / mi).abs() < 1e-12,
            "mass drift across recovery: {mi} vs {md}"
        );
        // The survivors pick up the lost rank's zones.
        let zones: u64 = degraded.ranks.iter().map(|r| r.zones).sum();
        assert_eq!(zones, degraded.zones);
        assert!(degraded.runtime > SimDuration::ZERO);
    }

    #[test]
    fn degraded_recovery_trace_is_deterministic_and_reports_the_loss() {
        let mut cfg = fault_cfg("xfer.delay@rank5.cycle1:ns=200000;rank.loss@rank4.cycle2");
        cfg.telemetry = true;
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        let (sa, sb) = (a.telemetry.unwrap(), b.telemetry.unwrap());
        assert_eq!(
            sa.to_metrics_json(&a.kernels),
            sb.to_metrics_json(&b.kernels),
            "same seed and plan must replay the same recovery"
        );
        assert_eq!(sa.metrics.counter(Counter::FaultRankLosses), 1);
        assert_eq!(sa.metrics.counter(Counter::FaultsInjected), 2);
        assert!(sa.metrics.counter(Counter::FaultsRecovered) >= 1);
        // The gauge reflects the *rebalanced* post-loss decomposition.
        let mut intact = fault_cfg("rank.loss@rank4.cycle2");
        intact.faults = None;
        intact.telemetry = true;
        let si = run(&intact).unwrap().telemetry.unwrap();
        assert!(
            sa.metrics.gauge(Gauge::CpuFraction) < si.metrics.gauge(Gauge::CpuFraction),
            "telemetry must report the foldback decomposition"
        );
    }

    #[test]
    fn losing_a_gpu_driver_is_a_typed_error() {
        let err = run(&fault_cfg("rank.loss@rank0.cycle1")).unwrap_err();
        assert!(err.contains("GPU"), "{err}");
    }

    #[test]
    fn more_than_one_rank_loss_is_rejected_up_front() {
        let err = run(&fault_cfg("rank.loss@rank4.cycle1;rank.loss@rank5.cycle2")).unwrap_err();
        assert!(err.contains("more than one"), "{err}");
    }

    #[test]
    fn transient_faults_recover_without_touching_physics() {
        let mut base_cfg = fault_cfg("rank.loss@rank4.cycle2");
        base_cfg.faults = None;
        let base = run(&base_cfg).unwrap();
        for spec in [
            "gpu.oom@rank0.cycle0:count=2",
            "gpu.launch@rank1.cycle1",
            "xfer.corrupt@rank4.cycle1",
            "pool.panic@rank5.cycle2",
        ] {
            let mut cfg = fault_cfg(spec);
            cfg.telemetry = true;
            // The pool-panic site only exists inside a parallel region.
            if spec.starts_with("pool.panic") {
                cfg.host_threads = 4;
            }
            let faulted = run(&cfg).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(faulted.ranks.len(), base.ranks.len(), "{spec}");
            assert_eq!(
                faulted.mass, base.mass,
                "{spec}: recovery must not perturb the solution"
            );
            let s = faulted.telemetry.unwrap();
            assert_eq!(s.metrics.counter(Counter::FaultsInjected), 1, "{spec}");
            assert_eq!(s.metrics.counter(Counter::FaultsRecovered), 1, "{spec}");
            assert!(s.metrics.counter(Counter::FaultRetries) >= 1, "{spec}");
        }
    }

    /// A cost-only heterogeneous run with the online controller on.
    fn online_cfg(grid: (usize, usize, usize), cycles: u64, every: u64) -> RunConfig {
        let mut cfg = RunConfig::sweep(grid, ExecMode::hetero());
        cfg.cycles = cycles;
        cfg.rebalance = Some(RebalanceConfig {
            every,
            hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
        });
        cfg
    }

    #[test]
    fn online_rebalance_converges_from_a_bad_start() {
        // Start at a deliberately oversized CPU share: the controller
        // must walk it down toward the measured balance point (the
        // compiler bug caps the converged share at a few percent, per
        // `run_balanced_converges_for_hetero`).
        let mut cfg = online_cfg((320, 480, 160), 12, 2);
        cfg.telemetry = true;
        let r = run_with_fraction(&cfg, 0.30).unwrap();
        assert!(
            r.balance_history.len() >= 6,
            "one entry per boundary: {:?}",
            r.balance_history
        );
        let start = r.balance_history[0];
        let last = *r.balance_history.last().unwrap();
        assert!(
            last < start / 2.0 && last < 0.12,
            "controller must shed CPU work: {:?}",
            r.balance_history
        );
        assert_eq!(last, r.cpu_fraction, "history tracks the realized split");
        let s = r.telemetry.unwrap();
        assert!(s.metrics.counter(Counter::BalanceResplits) >= 1);
        assert!(s.metrics.counter(Counter::BalanceBytesMoved) > 0);
        assert_eq!(s.metrics.counter(Counter::BalanceFrozen), 0);
        assert!((s.metrics.gauge(Gauge::BalanceFraction) - last).abs() < 1e-12);
    }

    #[test]
    fn run_balanced_runs_the_online_controller_once_not_inside_the_restart_loop() {
        let mut cfg = online_cfg((320, 480, 160), 12, 2);
        cfg.mode = ExecMode::Heterogeneous {
            cpu_fraction: Some(0.30),
        };
        cfg.telemetry = true;
        let direct = run(&cfg).unwrap();
        let (balanced, lb) = run_balanced(&cfg).unwrap();
        assert_eq!(balanced.csv_row(), direct.csv_row());
        assert_eq!(balanced.breakdown_table(), direct.breakdown_table());
        let count = |r: &RunResult, c| {
            let s = r.telemetry.as_ref().expect("telemetry is on");
            s.metrics.counter(c)
        };
        let resplits = |r: &RunResult| count(r, Counter::BalanceResplits);
        assert!(resplits(&direct) >= 1);
        assert_eq!(resplits(&balanced), resplits(&direct));
        // `rebalances` counts restart-loop re-runs, and there were none.
        assert_eq!(count(&balanced, Counter::Rebalances), 0);
        assert!(lb.history.is_empty(), "the balancer tried nothing");
    }

    #[test]
    fn online_rebalance_never_breaks_the_granularity_guard() {
        // ny = 24 → per-GPU-block y extent 12 → min fraction 3/12:
        // the Figs 13–14 bottleneck. The GPU-hungry optimum sits far
        // below it, so every boundary must clamp.
        let cfg = online_cfg((64, 24, 16), 8, 2);
        let guard = hetero_min_fraction(&cfg).unwrap();
        assert!((guard - 0.25).abs() < 1e-12, "{guard}");
        let r = run_with_fraction(&cfg, 0.45).unwrap();
        for (i, f) in r.balance_history.iter().enumerate() {
            assert!(*f >= guard - 1e-12, "boundary {i} split below 12/ny: {f}");
        }
        assert!((r.cpu_fraction - guard).abs() < 1e-12, "{}", r.cpu_fraction);
    }

    #[test]
    fn online_rebalance_rejects_non_heterogeneous_modes() {
        let mut cfg = sweep_cfg((64, 48, 32), ExecMode::Default);
        cfg.rebalance = Some(RebalanceConfig::default());
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("CPU fraction"), "{err}");
    }

    #[test]
    fn a_controller_that_ticks_every_zero_cycles_is_an_error_not_a_hang() {
        // `RebalanceConfig::parse` refuses `every=0`; the public struct
        // must not hand the run loop a boundary at every cycle 0.
        let cfg = online_cfg((64, 48, 32), 4, 0);
        let err = watched(move || run_driven(&cfg, 0.30, 1).map(|_| ()))
            .expect_err("a controller that never advances is refused");
        assert!(err.contains("every must be positive"), "{err}");
    }

    #[test]
    fn online_rebalance_survives_a_rank_loss_frozen_and_deterministic() {
        // Boundaries: rebalance@2, loss@3 (freeze), frozen@4 — the
        // controller adjusts, recovery folds back, and the rest of the
        // run holds the post-loss split. All inputs are virtual-time
        // measurements, so same-seed reruns are byte-identical even
        // with the controller live (the property the chaos gate CI
        // job asserts end to end).
        let mut cfg = online_cfg((32, 48, 32), 6, 2);
        cfg.fidelity = Fidelity::Full;
        cfg.telemetry = true;
        cfg.faults = Some(hsim_faults::FaultPlan::parse("rank.loss@rank4.cycle3").unwrap());
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.balance_history, b.balance_history);
        let (sa, sb) = (a.telemetry.clone().unwrap(), b.telemetry.clone().unwrap());
        assert_eq!(
            sa.to_metrics_json(&a.kernels),
            sb.to_metrics_json(&b.kernels),
            "same seed and plan must replay the same controlled recovery"
        );
        assert_eq!(a.ranks.len(), 15, "lost rank folded away");
        assert_eq!(sa.metrics.counter(Counter::BalanceFrozen), 1);
        assert_eq!(sa.metrics.counter(Counter::FaultRankLosses), 1);

        // Post-freeze boundaries hold: the last history entries equal
        // the post-loss split.
        let post_loss = *a.balance_history.last().unwrap();
        assert!((a.cpu_fraction - post_loss).abs() < 1e-12);

        // Physics does not depend on the decomposition: mass matches
        // the intact, uncontrolled run up to reduction order.
        let mut intact = cfg.clone();
        intact.faults = None;
        intact.rebalance = None;
        intact.telemetry = false;
        let mi = run(&intact).unwrap().mass.unwrap();
        let ma = a.mass.unwrap();
        assert!(
            ((mi - ma) / mi).abs() < 1e-12,
            "mass drift across controlled recovery: {mi} vs {ma}"
        );
    }

    #[test]
    fn a_controller_that_never_ticks_is_invisible() {
        // One loop, one account: with `every` ≥ the run length the
        // controller adds no boundary, so a loss foldback (and the
        // zero-boundary run) must charge exactly what the uncontrolled
        // run charges — the foldback's α–β redistribution included.
        for fidelity in [Fidelity::CostOnly, Fidelity::Full] {
            for faults in [Some("rank.loss@rank4.cycle2"), None] {
                let mut cfg = sweep_cfg((32, 48, 32), ExecMode::hetero());
                cfg.fidelity = fidelity;
                cfg.cycles = 4;
                cfg.tile = Some([8, 8]);
                cfg.particles = Some(ParticlesConfig::default());
                cfg.faults = faults.map(|spec| hsim_faults::FaultPlan::parse(spec).unwrap());
                let bare = run(&cfg).unwrap();
                cfg.rebalance = Some(RebalanceConfig {
                    every: cfg.cycles,
                    hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
                });
                let idle = run(&cfg).unwrap();
                let case = format!("{fidelity:?}, faults {faults:?}");
                assert_eq!(bare.runtime, idle.runtime, "{case}");
                assert_eq!(
                    format!("{:?}", bare.ranks),
                    format!("{:?}", idle.ranks),
                    "{case}"
                );
                assert_eq!(bare.mass, idle.mass, "{case}");
                assert_eq!(bare.cpu_fraction, idle.cpu_fraction, "{case}");
                assert_eq!(bare.particles, idle.particles, "{case}");
            }
        }
    }

    /// Everything a run emits, as text: the bytes `POST /run` serves
    /// (`hsim_serve::render_response`: CSV header and row, a blank
    /// line, the breakdown table), every rank report and the rest of
    /// the result, then the trace and the metrics documents. An error
    /// is its message.
    fn emitted(cfg: &RunConfig, fraction: f64, workers: usize) -> String {
        let r = match run_driven(cfg, fraction, workers) {
            Ok((r, _)) => r,
            Err(e) => return format!("error: {e}"),
        };
        let s = r.telemetry.as_ref().expect("telemetry is on");
        format!(
            "{}\n{}\n\n{}\n{:?}\n{:?} {:?} {:?} {:?} {:?}\n{}\n{}",
            RunResult::csv_header(),
            r.csv_row(),
            r.breakdown_table(),
            r.ranks,
            r.device_busy,
            r.mass,
            r.particles,
            r.balance_history,
            r.scenario,
            s.to_chrome_json(),
            s.to_metrics_json(&r.kernels),
        )
    }

    #[test]
    fn every_worker_count_emits_the_same_bytes() {
        let controller = Some(RebalanceConfig {
            every: 2,
            hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
        });
        let mut checked = 0;
        for mode in [
            ExecMode::CpuOnly,
            ExecMode::Default,
            ExecMode::mps4(),
            ExecMode::hetero(),
        ] {
            let hetero = matches!(mode, ExecMode::Heterogeneous { .. });
            let mut base = sweep_cfg((64, 48, 32), mode);
            base.cycles = 5;
            base.telemetry = true;
            base.trace = true;
            base.tile = Some([8, 8]);
            let mut cases = vec![("plain".to_string(), base.clone())];
            let mut multi = base.clone();
            multi.particles = Some(ParticlesConfig::default());
            multi.diffusion = Some(DiffusionConfig::default());
            cases.push(("particles + diffusion".to_string(), multi));
            if hetero {
                let mut online = base.clone();
                online.rebalance = controller;
                cases.push(("rebalance every=2".to_string(), online));
            }
            // Every fault site: recovered, past its retry budget (a
            // typed error, the injected root cause winning over the
            // peers' disconnects), and the permanent rank loss with
            // and without the controller.
            for spec in [
                "gpu.launch@rank1.cycle1",
                "gpu.launch@rank1.cycle1:perm",
                "gpu.oom@rank0.cycle0:count=2",
                "gpu.oom@rank0.cycle0:perm",
                "mps.connect@rank1.cycle0",
                "xfer.delay@rank1.cycle2:ns=200000",
                "xfer.corrupt@rank2.cycle1",
                "pool.panic@rank5.cycle2",
                "rank.loss@rank5.cycle3",
            ] {
                let mut faulted = base.clone();
                faulted.particles = Some(ParticlesConfig::default());
                faulted.faults = Some(hsim_faults::FaultPlan::parse(spec).expect(spec));
                cases.push((spec.to_string(), faulted.clone()));
                if hetero && spec.starts_with("rank.loss") {
                    faulted.rebalance = controller;
                    cases.push((format!("{spec} + rebalance"), faulted));
                }
            }
            for (label, cfg) in cases {
                let fraction = if cfg.rebalance.is_some() { 0.30 } else { 0.05 };
                let one = emitted(&cfg, fraction, 1);
                checked += 1;
                for workers in 2..=4 {
                    assert!(
                        emitted(&cfg, fraction, workers) == one,
                        "{mode:?}, {label}: {workers} workers disagree with one"
                    );
                }
            }
        }
        assert_eq!(checked, 4 * 11 + 2);

        // Kernel bodies do not care how many workers resume them
        // either, nor whether the CPU ranks' bodies run on the host
        // work pool: the metrics hold no host time.
        let mut full = sweep_cfg((16, 24, 16), ExecMode::hetero());
        full.fidelity = Fidelity::Full;
        full.cycles = 2;
        full.telemetry = true;
        full.tile = Some([8, 8]);
        full.particles = Some(ParticlesConfig::default());
        let mut pooled = full.clone();
        pooled.host_threads = 2;
        for (label, cfg) in [("one host thread", full), ("host_threads 2", pooled)] {
            let one = emitted(&cfg, 0.25, 1);
            assert!(!one.starts_with("error"), "{label}: {one}");
            for workers in 2..=4 {
                let again = emitted(&cfg, 0.25, workers);
                assert!(again == one, "{label}: {workers} workers");
            }
        }
    }

    /// Everything a cost-only run reports — its kernel table's exact
    /// sums among it — and the cycles it stepped. An error is its
    /// message.
    fn reported(cfg: &RunConfig, fraction: f64) -> (String, u64) {
        match run_driven(cfg, fraction, 1) {
            Err(e) => (format!("error: {e}"), 0),
            Ok((r, stepped)) => {
                let text = format!(
                    "{}\n{:?}\n{:?}\n{:?}\n{:?} {:?} {:?} {:?}",
                    r.csv_row(),
                    r.runtime,
                    r.ranks,
                    r.kernels,
                    r.device_busy,
                    r.cpu_fraction,
                    r.balance_history,
                    r.scenario,
                );
                (text, stepped)
            }
        }
    }

    /// `cfg` as shipped against `cfg` stepped through every cycle — a
    /// run that collects telemetry steps by rule, and reports what the
    /// same run without telemetry reports. Returns the cycles each
    /// stepped.
    fn assert_added_up_equals_stepped(cfg: &RunConfig, fraction: f64, case: &str) -> (u64, u64) {
        let mut oracle = cfg.clone();
        oracle.telemetry = true;
        let (stepped, every) = reported(&oracle, fraction);
        let (shipped, some) = reported(cfg, fraction);
        assert!(
            shipped == stepped,
            "{case}:\n{shipped}\n-- stepped --\n{stepped}"
        );
        assert!(some <= every, "{case}: stepped {some} of {every}");
        (some, every)
    }

    /// Random runs on small grids, where some kernels last an exact
    /// half-nanosecond: a device that resolved its epochs in absolute
    /// `f64` seconds rounded those up or down with the time of day, and
    /// one such run in twenty-five did not add up to its stepped twin.
    #[test]
    fn a_periodic_segment_added_up_equals_the_segment_stepped() {
        use proptest::strategy::Strategy;
        let mut rng = proptest::test_runner::TestRng::from_name("added up == stepped");
        let mut draw = |below: u64| (0..below).sample(&mut rng);
        let (mut added_up, mut cases) = (0, 0);
        for _ in 0..256 {
            // 16…96 × 16…96 × 16…64, in eights.
            let mut side = |most: u64| 8 * (2 + draw(most - 1)) as usize;
            let grid = (side(12), side(12), side(8));
            let mode = [
                ExecMode::CpuOnly,
                ExecMode::Default,
                ExecMode::Mps { per_gpu: 2 },
                ExecMode::mps4(),
                ExecMode::hetero(),
                ExecMode::hetero(),
            ][draw(6) as usize];
            let hetero = matches!(mode, ExecMode::Heterogeneous { .. });
            let mut cfg = RunConfig::sweep(grid, mode);
            cfg.cycles = 1 + draw(40);
            let fraction = 0.05 + 0.05 * draw(7) as f64;
            if draw(2) == 1 {
                cfg.diffusion = Some(DiffusionConfig::default());
            }
            cfg.gpu_direct = draw(4) == 0;
            let every = [0, 2, 5, 7][draw(4) as usize];
            if hetero && every > 0 {
                cfg.rebalance = Some(RebalanceConfig {
                    every,
                    hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
                });
            }
            let ranks = build_decomposition(&cfg, 0.0).unwrap().len() as u64;
            let mut plan = Vec::new();
            if draw(3) == 0 {
                let site = [
                    "gpu.launch",
                    "gpu.oom",
                    "xfer.delay",
                    "xfer.corrupt",
                    "pool.panic",
                ][draw(5) as usize];
                plan.push(format!(
                    "{site}@rank{}.cycle{}",
                    draw(ranks),
                    draw(cfg.cycles)
                ));
            }
            if draw(4) == 0 {
                plan.push(format!(
                    "rank.loss@rank{}.cycle{}",
                    draw(ranks),
                    draw(cfg.cycles + 1)
                ));
            }
            if !plan.is_empty() {
                cfg.faults = Some(hsim_faults::FaultPlan::parse(&plan.join(";")).unwrap());
            }
            let case = format!(
                "{mode:?} {grid:?} cycles {} fraction {fraction} diffusion {:?} direct {} \
                 rebalance {:?} faults {plan:?}",
                cfg.cycles, cfg.diffusion, cfg.gpu_direct, cfg.rebalance
            );
            let (some, all) = assert_added_up_equals_stepped(&cfg, fraction, &case);
            cases += 1;
            added_up += u64::from(some < all);
            // Left alone, a segment shows its period within two cycles.
            if plan.is_empty() && cfg.rebalance.is_none() && all > 0 {
                assert!(some <= 2, "{case}: stepped {some} of {all}");
            }
        }
        // The optimisation must not have turned itself off.
        assert!(
            added_up * 2 > cases,
            "{added_up} of {cases} runs added cycles up"
        );
    }

    /// The four paper modes on the grid of the sweeps' reference point.
    fn paper_modes() -> [ExecMode; 4] {
        [
            ExecMode::CpuOnly,
            ExecMode::Default,
            ExecMode::mps4(),
            ExecMode::Heterogeneous {
                cpu_fraction: Some(0.05),
            },
        ]
    }

    #[test]
    fn a_sweep_point_steps_a_few_of_its_ten_cycles() {
        // The first cycle is judged by nothing: the ranks leave set-up
        // at different instants, and the devices start idle. The second
        // moves every clock and stream by one common step from the
        // first's end, and the verdict on it is read at its own end.
        for (mode, expect) in paper_modes().into_iter().zip([2, 2, 2, 2]) {
            let cfg = RunConfig::sweep((320, 240, 160), mode);
            assert_eq!(cfg.cycles, 10);
            let (some, all) = assert_added_up_equals_stepped(&cfg, 0.05, &format!("{mode:?}"));
            assert_eq!((some, all), (expect, 10), "{mode:?}");
            // At four workers too.
            let four = run_driven(&cfg, 0.05, 4).unwrap();
            let one = run_driven(&cfg, 0.05, 1).unwrap();
            assert_eq!(four.1, expect, "{mode:?}");
            assert_eq!(format!("{:?}", four.0.ranks), format!("{:?}", one.0.ranks));
        }
    }

    #[test]
    fn ten_thousand_cycles_are_one_cycle_plus_a_period_9999_times() {
        // The serve front end's bound on `cycles`, per mode: affine in
        // integer nanoseconds on every field of the report.
        for mode in paper_modes() {
            let at = |cycles| {
                let mut cfg = RunConfig::sweep((320, 240, 160), mode);
                cfg.cycles = cycles;
                run_driven(&cfg, 0.05, 1).unwrap()
            };
            let ((one, _), (two, _), (many, stepped)) = (at(1), at(2), at(10_000));
            assert!(stepped <= 2, "{mode:?}: stepped {stepped}");
            let affine = |f: &dyn Fn(&RunResult) -> u64| {
                assert_eq!(f(&many), f(&one) + 9_999 * (f(&two) - f(&one)), "{mode:?}");
            };
            affine(&|r| r.runtime.as_nanos());
            for d in 0..one.device_busy.len() {
                affine(&|r| r.device_busy[d].as_nanos());
            }
            for i in 0..one.ranks.len() {
                assert_eq!(many.ranks[i].setup, one.ranks[i].setup, "{mode:?}");
                affine(&|r| r.ranks[i].total.as_nanos());
                affine(&|r| r.ranks[i].compute.as_nanos());
                affine(&|r| r.ranks[i].launch.as_nanos());
                affine(&|r| r.ranks[i].memory.as_nanos());
                affine(&|r| r.ranks[i].comm.as_nanos());
                affine(&|r| r.ranks[i].control.as_nanos());
                affine(&|r| r.ranks[i].wait.as_nanos());
                affine(&|r| r.ranks[i].launches);
                affine(&|r| r.ranks[i].bytes_sent);
                assert_eq!(many.ranks[i].account_residual(), SimDuration::ZERO);
            }
            let t_end = |r: &RunResult| r.scenario.as_ref().unwrap().t_end;
            let walked = (0..10_000).fold(0.0, |t, _| t + calib::COST_ONLY_DT);
            assert_eq!(t_end(&many).to_bits(), f64::to_bits(walked), "{mode:?}");

            // Affine in itself says the sums are right, not the period:
            // a long run against the same run stepped, on a grid whose
            // kernels end on half-nanoseconds. (Stepping 10 000 with a
            // collector takes minutes; CI's `perf-smoke` holds 2000 to
            // `cmp` in release.)
            let mut long = RunConfig::sweep((64, 48, 32), mode);
            long.cycles = 300;
            long.diffusion = Some(DiffusionConfig::default());
            let (some, all) = assert_added_up_equals_stepped(&long, 0.05, &format!("{mode:?}"));
            assert!(some <= 2 && all == 300, "{mode:?}: stepped {some} of {all}");
        }
    }

    #[test]
    fn half_nanosecond_kernels_add_up_exactly() {
        // The two runs that showed the fence while the device resolved
        // its epochs in absolute time: `boundary_fill` over 1800 zones
        // is 119 ns at occupancy 2/53 = 3153.5 ns, and which way such an
        // end rounded depended on when it ran. Under the rule then (two
        // equal cycles) the first never went periodic, and the second
        // did while a later cycle differed in `device_busy`. Under the
        // current rule — one cycle's common advance `D` since the
        // previous cycle end of the segment, nothing in flight — each
        // steps two cycles, reads periodic on the second and adds the
        // rest up exactly.
        let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::Mps { per_gpu: 2 });
        cfg.cycles = 7;
        cfg.diffusion = Some(DiffusionConfig::default());
        let (some, all) = assert_added_up_equals_stepped(&cfg, 0.0, "mps2, 7 cycles");
        assert_eq!((some, all), (2, 7));
        let mut cfg = RunConfig::sweep((40, 96, 48), ExecMode::hetero());
        cfg.cycles = 23;
        cfg.diffusion = Some(DiffusionConfig::default());
        let (some, all) = assert_added_up_equals_stepped(&cfg, 0.0625, "hetero, 23 cycles");
        assert_eq!((some, all), (2, 23));
    }

    /// The heterogeneous 64×48×32 point the fallback tests share, and
    /// the CSV row the commit before the period check printed for it.
    fn fallback_cfg() -> RunConfig {
        let mut cfg = RunConfig::sweep((64, 48, 32), paper_modes()[3]);
        cfg.tile = Some([8, 8]);
        cfg
    }
    const FALLBACK_ROW: &str = "2,hetero,64,48,32,98304,10,0.027271,0.1250,18480,27855440";

    fn row_and_stepped(cfg: &RunConfig) -> (String, u64) {
        let (r, stepped) = run_driven(cfg, 0.05, 1).unwrap();
        (r.csv_row(), stepped)
    }

    #[test]
    fn telemetry_steps_every_cycle() {
        let mut cfg = fallback_cfg();
        assert_eq!(row_and_stepped(&cfg), (FALLBACK_ROW.to_string(), 2));
        cfg.telemetry = true;
        assert_eq!(row_and_stepped(&cfg), (FALLBACK_ROW.to_string(), 10));
        // A span per rank and cycle is still there.
        let (r, _) = run_driven(&cfg, 0.05, 1).unwrap();
        let s = r.telemetry.unwrap();
        assert_eq!(s.metrics.counter(Counter::Cycles), 10 * 16);
    }

    #[test]
    fn a_gantt_trace_steps_every_cycle() {
        let mut cfg = fallback_cfg();
        cfg.trace = true;
        assert_eq!(row_and_stepped(&cfg), (FALLBACK_ROW.to_string(), 10));
        let (r, _) = run_driven(&cfg, 0.05, 1).unwrap();
        assert_eq!(per_cycle_spans(&r), 2 * 10 * 16);
    }

    #[test]
    fn particles_step_every_cycle() {
        let mut cfg = fallback_cfg();
        cfg.particles = Some(ParticlesConfig {
            count: 256,
            ..ParticlesConfig::default()
        });
        let row = "2,hetero,64,48,32,98304,10,0.027347,0.1250,18639,27861880";
        assert_eq!(row_and_stepped(&cfg), (row.to_string(), 10));
    }

    #[test]
    fn full_fidelity_steps_every_cycle() {
        let mut cfg = fallback_cfg();
        cfg.grid = (32, 48, 32);
        cfg.fidelity = Fidelity::Full;
        let row = "2,hetero,32,48,32,49152,10,0.017352,0.1250,18480,13929040";
        for workers in [1, 4] {
            let (r, stepped) = run_driven(&cfg, 0.05, workers).unwrap();
            assert_eq!((r.csv_row(), stepped), (row.to_string(), 10), "{workers}");
        }
    }

    #[test]
    fn a_cycle_the_fault_plan_names_is_stepped_and_the_ones_before_it_added() {
        // Cycle 0 is judged by nothing, cycle 1 against cycle 0's end
        // and found periodic, 2–6 are added, cycle 7 — named by the
        // plan, for whichever rank — is stepped with its fault, and
        // cycle 8, judged against 7's end, is periodic again: 9 is
        // added. The same plan past the run's end changes nothing.
        let mut cfg = fallback_cfg();
        let plan = |spec| Some(hsim_faults::FaultPlan::parse(spec).unwrap());
        cfg.faults = plan("xfer.delay@rank1.cycle7:ns=5000000");
        let row = "2,hetero,64,48,32,98304,10,0.031681,0.1250,18480,27855440";
        assert_eq!(row_and_stepped(&cfg), (row.to_string(), 4));
        assert_added_up_equals_stepped(&cfg, 0.05, "delay at 7");
        cfg.faults = plan("xfer.delay@rank1.cycle70:ns=5000000");
        assert_eq!(row_and_stepped(&cfg), (FALLBACK_ROW.to_string(), 2));
        // Over 40 cycles the same: 0 and 1 show the period, the named
        // cycle is stepped, and the one after it reads a verdict on
        // its own advance and adds the rest — 2 + 1 + 1.
        cfg.cycles = 40;
        cfg.faults = plan("xfer.delay@rank1.cycle7:ns=5000000");
        let (some, all) = assert_added_up_equals_stepped(&cfg, 0.05, "delay at 7 of 40");
        assert_eq!((some, all), (4, 40));
        // A fault the run absorbs (the driver waits for its device
        // anyway) leaves every advance what it was, but a named cycle
        // says nothing about the cycles after it: the verdict is read
        // one cycle on.
        cfg.faults = plan("gpu.launch@rank1.cycle7");
        let (some, all) = assert_added_up_equals_stepped(&cfg, 0.05, "launch retry at 7");
        assert_eq!((some, all), (4, 40));
        // A named cycle right after a verdict leaves one cycle to add
        // before it (cycle 2), and its own verdict is not acted on:
        // 0, 1, 3 and 4 are stepped.
        cfg.faults = plan("xfer.delay@rank1.cycle3:ns=5000000");
        let (some, all) = assert_added_up_equals_stepped(&cfg, 0.05, "delay at 3 of 40");
        assert_eq!((some, all), (4, 40));
    }

    /// `f` on a thread of its own, or a failure after 120 s.
    fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the run hangs")
    }

    #[test]
    fn a_kernel_longer_than_the_clock_can_resolve_ends() {
        // At these sizes one device job's rounding residue falls below
        // one ulp of the device clock; the timeline stepped by zero for
        // ever before it retired such a residue.
        let lines = [
            (ExecMode::Default, 30_000),
            (ExecMode::Default, 40_000),
            (ExecMode::hetero(), 20_000),
            (ExecMode::hetero(), 30_000),
            (ExecMode::hetero(), 80_000),
        ];
        for (mode, nx) in lines {
            let r = watched(move || {
                let mut cfg = RunConfig::sweep((nx, 20_000, 20_000), mode);
                cfg.cycles = 1;
                run(&cfg)
            });
            let r = r.unwrap_or_else(|e| panic!("{mode:?} at {nx}: {e}"));
            assert!(r.runtime > SimDuration::ZERO, "{mode:?} at {nx}");
        }
    }

    #[test]
    fn a_rank_that_ends_early_hangs_nobody_where_cycles_are_added_up() {
        use hsim_mpi::{CommCost, MpiError};
        // Rank 1 posts cycle 1 and dies in cycle 2 — by error or by
        // panic — while its peers post cycle 2 and wait for the verdict
        // on it. Its seat leaves the board as it drops: they read "not
        // periodic" and find out at the next collective.
        for workers in [1, 2, 4] {
            for panics in [false, true] {
                let out = watched(move || {
                    let board = &PeriodBoard::new(3);
                    World::run_fallible(workers, 3, CommCost::free(), |mut comm| async move {
                        let rank = comm.rank();
                        let seat = board.seat(rank);
                        for cycle in 1..=3 {
                            let summed = comm.iallreduce(1.0, |a, b| a + b).await;
                            summed.map_err(|e| format!("rank {rank}: cycle {cycle}: {e}"))?;
                            if rank == 1 && cycle == 2 {
                                if panics {
                                    panic!("rank body panicked");
                                }
                                return Err("rank 1: typed failure".to_string());
                            }
                            let posted = Posted {
                                cycle,
                                steady: true,
                                elapsed: SimDuration::from_nanos(5),
                                messages: comm.messages(),
                            };
                            assert_eq!(seat.post(posted).await, cycle == 1, "{cycle}");
                        }
                        Ok(())
                    })
                });
                // Rank 0 loses rank 1, and rank 2 — the tree's leaf — rank 0.
                for (rank, peer) in [(0, 1), (2, 0)] {
                    let gone = MpiError::Disconnected { peer };
                    let lost = Err(format!("rank {rank}: cycle 3: {gone}"));
                    assert_eq!(out[rank], lost, "{workers} workers");
                }
                let own = if panics {
                    "rank body panicked"
                } else {
                    "typed failure"
                };
                assert_eq!(out[1], Err(format!("rank 1: {own}")), "{workers} workers");
            }
        }

        // Through a whole run: cycles 3–6 are added, rank 1 dies in
        // cycle 7, and the injected error surfaces.
        for workers in [1, 2, 4] {
            let mut cfg = sweep_cfg((32, 48, 32), ExecMode::mps4());
            cfg.cycles = 10;
            cfg.faults =
                Some(hsim_faults::FaultPlan::parse("gpu.launch@rank1.cycle7:perm").unwrap());
            let err = watched(move || run_driven(&cfg, 0.0, workers).map(|_| ()))
                .expect_err("a permanent launch fault is fatal");
            assert!(err.starts_with("rank 1: "), "{workers} workers: {err}");
            assert!(err.contains("injected permanent launch fault"), "{err}");
        }
    }

    #[test]
    fn more_cycles_than_the_clock_holds_are_a_typed_error() {
        for mode in paper_modes() {
            let mut cfg = RunConfig::sweep((16, 24, 16), mode);
            cfg.cycles = u64::MAX / 2;
            let err = run_driven(&cfg, 0.25, 1).unwrap_err();
            assert!(
                err.contains(&hsim_time::Overflow.to_string()),
                "{mode:?}: {err}"
            );
        }
    }

    /// The physics a run leaves behind, to the bit: mass, scenario
    /// error, final time and the particle phase.
    fn physics_bits(cfg: &RunConfig, fraction: f64, workers: usize) -> (String, RunResult) {
        let (r, _) = run_driven(cfg, fraction, workers).unwrap_or_else(|e| panic!("{e}"));
        let p = r.particles.as_ref().expect("the particle phase is on");
        let s = r.scenario.as_ref().expect("a first-class scenario");
        let bits = format!(
            "mass {:016x} error {:016x?} t {:016x} particles {} {:016x} {:016x?}",
            r.mass.expect("full fidelity").to_bits(),
            s.error.map(f64::to_bits),
            s.t_end.to_bits(),
            p.count,
            p.checksum,
            p.momentum.map(f64::to_bits),
        );
        (bits, r)
    }

    #[test]
    fn segmentation_is_invisible_to_the_physics() {
        // The physics of a zone does not depend on who owns it, and a
        // boundary carries every owned zone across unchanged — so a run
        // cut into segments must end, to the bit, where the uncut run
        // on the same final decomposition ends (same decomposition,
        // same order of every sum). Stale ghosts and scratch in a state
        // that crossed a boundary must not matter: every face ghost is
        // rewritten before the cycle's first read, and nothing reads an
        // edge or corner ghost.
        //
        // Re-split + foldback ends on a 15-rank world no uncut run
        // reaches; it is compared with the values the host-staged
        // checkpoint/restart produced at the commit that deleted it.
        let recorded = [
            "mass 3fdc71c71c71c71e error None t 3f4a36e2eb1c432e particles 512 fc62256d7644962d \
             [3f98777743c60313, 3f95b9c17c467c84, bf59af364a839c71]",
            "mass 3fcffffffffffffd error Some(3f545e1305bb8aa4) t 3f4a36e2eb1c432e particles 512 \
             e05261d20735d079 [3f73e3f0529e72bf, 0000000000000000, 0000000000000000]",
            "mass 3fdc71c71c71c71f error Some(3f7a36e2eb1c3bd5) t 3f4a36e2eb1c432e particles 512 \
             4ddfc6382b4431de [bfc44fb7ae1c71c6, 0000000000000000, 0000000000000000]",
            "mass 3fdc71c71c71c714 error Some(3f96c1490adb6800) t 3f4a36e2eb1c432e particles 512 \
             6dd1ca74f4f33cfd [3f9bc1edbbd3cff7, 3f52d9fe2181ca07, 0000000000000000]",
        ];
        for (scenario, recorded) in scenario::Scenario::ALL.into_iter().zip(recorded) {
            let mut base = sweep_cfg((32, 48, 32), ExecMode::hetero());
            base.fidelity = Fidelity::Full;
            base.cycles = 8;
            base.tile = Some([8, 8]);
            base.problem = scenario.problem();
            base.particles = Some(ParticlesConfig::default());
            base.diffusion = Some(DiffusionConfig::default());
            let ticking = |hysteresis| {
                let mut cfg = base.clone();
                cfg.rebalance = Some(RebalanceConfig {
                    every: 2,
                    hysteresis,
                });
                cfg
            };
            for workers in [4, 1] {
                let case = format!("{scenario:?}, {workers} workers");
                // (a) Three ticks that all hold.
                let (uncut, _) = physics_bits(&base, 0.125, workers);
                let (held, r) = physics_bits(&ticking(0.9), 0.125, workers);
                assert_eq!(r.balance_history.len(), 4, "{case}");
                assert!(r.balance_history.iter().all(|&f| f == 0.125), "{case}");
                assert_eq!(held, uncut, "{case}: held ticks");

                // (b) One forced re-split, against the uncut run at
                // the split it converges to.
                let (resplit, r) = physics_bits(&ticking(0.02), 0.30, workers);
                assert!(r.balance_history[0] > r.cpu_fraction, "{case}");
                let (uncut, u) = physics_bits(&base, r.cpu_fraction, workers);
                let zones = |r: &RunResult| r.ranks.iter().map(|x| x.zones).collect::<Vec<_>>();
                assert_eq!(zones(&r), zones(&u), "{case}: same final decomposition");
                assert_eq!(resplit, uncut, "{case}: forced re-split");

                // (c) The re-split, then the loss of rank 5.
                let mut lossy = ticking(0.02);
                lossy.faults =
                    Some(hsim_faults::FaultPlan::parse("rank.loss@rank5.cycle5").unwrap());
                let (folded, r) = physics_bits(&lossy, 0.30, workers);
                assert_eq!(r.ranks.len(), 15, "{case}");
                assert_eq!(folded, recorded, "{case}: re-split + rank loss");
            }
        }
    }

    #[test]
    fn a_rank_that_dies_mid_cycle_does_not_hang_its_mps_peers() {
        // Rank 1 dies of a permanent launch fault and never joins its
        // device's next sync epoch, where the device's other three
        // clients already wait, parked. Its departure must complete
        // that epoch; the survivors then fail at the dead rank's inbox
        // and the injected root cause wins, as for any other loss.
        for workers in [1, 2, 2, 4, 4] {
            let mut cfg = sweep_cfg((32, 48, 32), ExecMode::mps4());
            cfg.fidelity = Fidelity::Full;
            cfg.faults =
                Some(hsim_faults::FaultPlan::parse("gpu.launch@rank1.cycle1:perm").unwrap());
            let err = watched(move || run_driven(&cfg, 0.0, workers).map(|_| ()))
                .expect_err("a permanent launch fault is fatal");
            assert!(err.starts_with("rank 1: "), "{err}");
            assert!(err.contains("injected permanent launch fault"), "{err}");
        }
    }

    #[test]
    fn an_error_after_a_foldback_names_the_rank_by_its_original_id() {
        // Rank 4 is lost at cycle 1; rank 9 is rank 8 of the folded
        // world when a permanent worker panic at cycle 3 ends it. The
        // plan names it 9, and so does the error.
        for workers in [1, 4] {
            let mut cfg = sweep_cfg((64, 48, 32), ExecMode::hetero());
            cfg.cycles = 4;
            cfg.host_threads = 2;
            let plan = "rank.loss@rank4.cycle1;pool.panic@rank9.cycle3:perm";
            cfg.faults = Some(hsim_faults::FaultPlan::parse(plan).unwrap());
            let err = watched(move || run_driven(&cfg, 0.05, workers).map(|_| ()))
                .expect_err("a permanent worker panic is fatal");
            assert!(err.starts_with("rank 9: "), "{workers} workers: {err}");
            assert!(err.contains("injected permanent worker panic"), "{err}");
        }
    }

    /// Every owned zone of `state`, tagged by variable and global
    /// index — or checked against its tag.
    fn tags(state: &mut HydroState, check: bool) {
        let (grid, sub) = (state.grid, state.sub);
        for var in 0..hsim_hydro::NCONS {
            for k in 0..sub.extent(2) {
                for j in 0..sub.extent(1) {
                    for i in 0..sub.extent(0) {
                        let [x, y, z] = [sub.lo[0] + i, sub.lo[1] + j, sub.lo[2] + k];
                        let tag =
                            (var * grid.zones() as usize + x + grid.nx * (y + grid.ny * z)) as f64;
                        if check {
                            assert_eq!(state.u.get(var, i, j, k), tag, "var {var} at {x},{y},{z}");
                        } else {
                            state.u.set(var, i, j, k, tag);
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// The hand-over alone, between any two decompositions the run
        /// loop can put on either side of a boundary: the owned boxes
        /// partition the grid before and after, so every owned zone
        /// must arrive, and a box that did not change must arrive
        /// *moved* — same allocations, which is what makes a boundary
        /// that holds cost the host nothing.
        #[test]
        fn hand_over_carries_every_owned_zone_and_moves_unchanged_boxes(
            from in 0usize..3,
            to in 0usize..3,
            lose_from in 0usize..16,
            lose_to in 0usize..16,
        ) {
            let grid = (16, 48, 16);
            let decomp = |which: usize, lose: usize| {
                let d = match which {
                    0 => build_decomposition(&sweep_cfg(grid, ExecMode::CpuOnly), 0.0),
                    1 => build_decomposition(&sweep_cfg(grid, ExecMode::hetero()), 0.25),
                    _ => build_decomposition(&sweep_cfg(grid, ExecMode::hetero()), 0.5),
                }
                .unwrap();
                // Four draws in sixteen lose no rank; a GPU driver
                // cannot be lost.
                match lose {
                    lose if lose < 12 && !d.owners[lose + 4].is_gpu_driver() => {
                        fold_lost_rank(&d, lose + 4).unwrap()
                    }
                    _ => d,
                }
            };
            let (old, new) = (decomp(from, lose_from), decomp(to, lose_to));
            old.validate().unwrap();
            new.validate().unwrap();

            let slabs = |s: &HydroState| [&s.u, &s.u0, &s.prim].map(|b| b.slab().as_ptr());
            let mut before = Vec::new();
            let states: Vec<HydroState> = old
                .domains
                .iter()
                .map(|sub| {
                    let mut state = HydroState::new(old.grid, *sub, Fidelity::Full);
                    // Nothing but owned zones may be consulted.
                    state.u.slab_mut().fill(f64::NAN);
                    tags(&mut state, false);
                    (state.tile, state.t, state.cycle) = ([4, 2], 0.75, 9);
                    before.push((*sub, slabs(&state)));
                    state
                })
                .collect();

            // What the run loop hands a box it has no state for: zeros
            // at the boundary's time and cycle, on the run's tile.
            let fresh = |sub: &Subdomain| HydroState {
                tile: [4, 2],
                t: 0.75,
                cycle: 9,
                ..HydroState::new(new.grid, *sub, Fidelity::Full)
            };
            let after = hand_over(states, &new, &fresh);
            proptest::prop_assert_eq!(after.len(), new.len());
            for (mut state, sub) in after.into_iter().zip(&new.domains) {
                proptest::prop_assert_eq!(state.sub, *sub);
                proptest::prop_assert_eq!((state.tile, state.t, state.cycle), ([4, 2], 0.75, 9));
                tags(&mut state, true);
                if let Some((_, was)) = before.iter().find(|(b, _)| b == sub) {
                    proptest::prop_assert_eq!(slabs(&state), *was, "an unchanged box is moved");
                }
            }
            // A cold start has nothing to hand over: every box is fresh.
            let cold = hand_over(Vec::new(), &new, &fresh);
            proptest::prop_assert_eq!(cold.len(), new.len());
            for (state, sub) in cold.iter().zip(&new.domains) {
                proptest::prop_assert_eq!(state.sub, *sub);
                proptest::prop_assert_eq!((state.tile, state.t, state.cycle), ([4, 2], 0.75, 9));
            }
        }
    }

    #[test]
    fn an_mps_client_that_syncs_twice_in_an_epoch_is_a_deadlock_error() {
        use hsim_mpi::{CommCost, MpiError};
        use hsim_time::task::Waiting;
        let stuck = MpiError::Deadlock {
            waiting: vec![(
                0,
                Waiting::DeviceSync {
                    device: 3,
                    epoch: 1,
                },
            )],
        };
        for workers in [1, 2, 4] {
            let out = watched(move || {
                let spec = NodeConfig::rzhasgpu().gpu_spec;
                let (_shared, clients) = SharedDevice::new(3, spec, 2, true).unwrap();
                let clients = &clients;
                World::run_fallible(workers, 2, CommCost::free(), |comm| async move {
                    let client = &clients[comm.rank()];
                    let kernels = &mut KernelTable::new();
                    client.sync(SimTime::ZERO, kernels).await.unwrap();
                    if comm.rank() == 0 {
                        // Epoch 1 needs both clients; rank 1 never comes.
                        client.sync(SimTime::ZERO, kernels).await.unwrap();
                    }
                    Ok(comm.rank())
                })
            });
            assert_eq!(out[0], Err(format!("rank 0: {stuck}")), "{workers} workers");
            assert_eq!(out[1], Ok(1));
        }
    }

    #[test]
    fn permanent_mps_rejection_is_a_typed_error() {
        let mut cfg = sweep_cfg((16, 16, 16), ExecMode::mps4());
        cfg.fidelity = Fidelity::Full;
        cfg.cycles = 2;
        cfg.faults = Some(hsim_faults::FaultPlan::parse("mps.connect@rank1.cycle0:perm").unwrap());
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("MPS"), "{err}");
    }
}
