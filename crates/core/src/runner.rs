//! The cooperative runner: the paper's §5 control code.
//!
//! For a given [`ExecMode`] the runner decomposes the grid, binds
//! ranks to cores and GPUs, sets up the Figure 8 memory scheme, spawns
//! one simulated MPI rank per binding, runs the Sedov hydro for a
//! fixed number of cycles, applies the node-level host-bandwidth
//! model, and reports per-rank virtual-time breakdowns.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use parking_lot::Mutex;

use hsim_gpu::memory::MemoryPool;
use hsim_gpu::Device;
use hsim_hydro::diffusion::{self, DiffusionConfig};
use hsim_hydro::noh::{self, NohConfig};
use hsim_hydro::sedov::{self, SedovConfig};
use hsim_hydro::taylor_green::{self, TaylorGreenConfig};
use hsim_hydro::workload::{self, PerturbedConfig};
use hsim_hydro::{sod, step_with, HydroState, Reconstruction};
use hsim_mesh::decomp::block::{block_decomp, block_decomp_yz};
use hsim_mesh::decomp::hierarchical::hierarchical_decomp_yz;
use hsim_mesh::decomp::weighted::{fold_lost_rank, weighted_hetero_decomp, WeightedConfig};
use hsim_mesh::{Decomposition, GlobalGrid, HaloPlan, OwnerKind, SoaBlock, Subdomain};
use hsim_mpi::{Comm, Driver, World};
use hsim_particles::{Particle, ParticlesConfig, PhaseState};
use hsim_raja::{Executor, Fidelity, GpuClient, SharedDevice, Target, WorkPool};
use hsim_telemetry::{Category, Collector, Counter, Gauge, Summary, TimeStat};
use hsim_time::clock::ChargeKind;
use hsim_time::{RankClock, SimDuration, SimTime};

use crate::balance::{LoadBalancer, RebalanceConfig, RebalanceDecision, Rebalancer};
use crate::binding::{build_bindings, validate_bindings, RankRole};
use crate::calib;
use crate::coupler::{lend_clock, MpiCoupler};
use crate::memscheme;
use crate::mode::ExecMode;
use crate::node::NodeConfig;
use crate::report::{slowest, slowest_cpu_compute, ParticleReport, RankReport, RunResult};
use crate::scenario::{self, ScenarioDiag};

/// The physics problem a run initializes.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// The paper's workload: the 3D Sedov blast wave (§7, Fig 11).
    Sedov(SedovConfig),
    /// The Sod shock tube (validation problem with an exact solution).
    Sod(sod::SodConfig),
    /// The planar Noh implosion: an infinite-strength stagnation shock
    /// with an exact solution (the hardest shock regime).
    Noh(NohConfig),
    /// The Taylor–Green vortex array: smooth shock-free flow whose
    /// kinetic-energy decay measures pure numerical dissipation.
    TaylorGreen(TaylorGreenConfig),
    /// Seeded random multi-mode perturbations (balancer stress test).
    Perturbed(PerturbedConfig),
}

impl Default for Problem {
    fn default() -> Self {
        Problem::Sedov(SedovConfig::default())
    }
}

impl Problem {
    /// Parse a problem name — a [`scenario::Scenario`] name or
    /// `perturbed` — at its default configuration.
    pub fn parse(s: &str) -> Option<Problem> {
        match s {
            "perturbed" => Some(Problem::Perturbed(PerturbedConfig::default())),
            _ => scenario::Scenario::parse(s).ok().map(|sc| sc.problem()),
        }
    }

    fn init(&self, state: &mut HydroState) {
        match self {
            Problem::Sedov(cfg) => sedov::init(state, cfg),
            Problem::Sod(cfg) => sod::init(state, cfg),
            Problem::Noh(cfg) => noh::init(state, cfg),
            Problem::TaylorGreen(cfg) => taylor_green::init(state, cfg),
            Problem::Perturbed(cfg) => workload::init(state, cfg),
        }
    }
}

/// Everything one cooperative run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Global grid zones (nx, ny, nz).
    pub grid: (usize, usize, usize),
    pub mode: ExecMode,
    pub node: NodeConfig,
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
    /// Record per-cycle spans per rank (busy vs waiting) for Gantt
    /// rendering.
    pub trace: bool,
    /// Collect full telemetry (metrics, kernel profiles, structured
    /// spans) into [`RunResult::telemetry`]. Off by default: the
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
}

/// Build the mode's decomposition (paper §6.1).
pub fn build_decomposition(cfg: &RunConfig, cpu_fraction: f64) -> Result<Decomposition, String> {
    let grid = cfg.global_grid();
    let node = &cfg.node;
    match cfg.mode {
        ExecMode::CpuOnly => {
            let mut d = block_decomp(grid, node.cores, 1);
            for o in &mut d.owners {
                *o = OwnerKind::Cpu;
            }
            Ok(d)
        }
        ExecMode::Default => Ok(block_decomp_yz(grid, node.gpus, 1)),
        ExecMode::Mps { per_gpu } => hierarchical_decomp_yz(grid, node.gpus, per_gpu, 2, 1),
        ExecMode::Heterogeneous { .. } => {
            let wc = WeightedConfig {
                n_gpus: node.gpus,
                cpu_per_gpu: node.workers_per_gpu(),
                cpu_fraction,
                carve_axis: 1,
                ghost: 1,
                pin_x: true,
            };
            weighted_hetero_decomp(grid, &wc)
        }
    }
}

/// The minimum realizable CPU fraction of the heterogeneous
/// decomposition (one carve-axis plane per CPU rank).
pub fn hetero_min_fraction(cfg: &RunConfig) -> f64 {
    let grid = cfg.global_grid();
    let node = &cfg.node;
    let top = block_decomp_yz(grid, node.gpus, 1);
    let ext = top.domains[0].extent(1).max(1);
    node.workers_per_gpu() as f64 / ext as f64
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
/// A loss folds the lost CPU rank's slab back (preferring its parent
/// GPU block, so Heterogeneous degrades toward Default) and *freezes*
/// the controller if there is one: the folded world is no longer a
/// uniform weighted split. A lost GPU driver is fatal — its device
/// block has nowhere to fold back to. Every controller input is a
/// virtual-time measurement, so two same-seed runs re-split
/// identically, byte for byte — the property the chaos gate asserts.
pub fn run_with_fraction(cfg: &RunConfig, cpu_fraction: f64) -> Result<RunResult, String> {
    // Ranks that execute kernel bodies get a thread each and run in
    // parallel; ranks that only price them exchange nothing but
    // virtual timestamps, so they are stepped on this thread and the
    // run spawns nothing.
    let driver = match cfg.fidelity {
        Fidelity::Full => Driver::Threads,
        Fidelity::CostOnly => Driver::Stepped,
    };
    run_driven(cfg, cpu_fraction, driver)
}

/// [`run_with_fraction`] under an explicit rank driver. The result is
/// the same under either — which the tests of this module assert,
/// and the only reason the choice is an argument.
fn run_driven(cfg: &RunConfig, cpu_fraction: f64, driver: Driver) -> Result<RunResult, String> {
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
        Some(rcfg) => {
            let mut rb = Rebalancer::new(cpu_fraction, rcfg);
            rb.set_min_fraction(hetero_min_fraction(cfg));
            Some(rb)
        }
        None => None,
    };

    let mut decomp = build_decomposition(cfg, rb.as_ref().map_or(cpu_fraction, |rb| rb.fraction))?;
    decomp.validate()?;
    let mut roles = build_bindings(&cfg.mode, &cfg.node);
    validate_bindings(&roles, &cfg.node)?;
    if roles.len() != decomp.len() {
        return Err(format!(
            "binding count {} != decomposition count {}",
            roles.len(),
            decomp.len()
        ));
    }
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
        if decomp.owners[lost].is_gpu() {
            return Err(format!(
                "injected loss of rank {lost} is fatal: it drives a GPU and its device \
                 block cannot be folded back onto the remaining ranks"
            ));
        }
    }
    let mut acc = RunAcc::new(cfg, decomp.len());
    let mut setup_extra = mps_connect_charges(cfg, &fault_plan, decomp.len(), &mut acc)?;
    // Resolve the tile here, on the calling thread, before any rank
    // installs its collector: the one-shot wall-clock probe's kernel
    // launches belong to no run's telemetry.
    let tile = cfg
        .tile
        .unwrap_or_else(|| calib::auto_tile_for(cfg.host_threads));

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
        let seg = run_segment(
            cfg,
            &fault_plan,
            driver,
            Segment {
                decomp: &decomp,
                roles: &roles,
                orig_ids: &orig_ids,
                first_cycle: first,
                last_cycle: last,
                restore: std::mem::take(&mut acc.end),
                setup_extra: &setup_extra,
                tile,
            },
        )?;
        // MPS connect retries are paid once, on the first segment.
        setup_extra.clear();
        first = last;
        acc.fold(&orig_ids, seg);

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
                roles.remove(lost);
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

    acc.finish(cfg, &decomp, &orig_ids, rb)
}

/// Main-thread MPS client setup faults: a permanent rejection is a
/// typed error before any rank spawns; a transient one charges its
/// retry backoff to the rejected rank's setup clock (the MPS server
/// accepts the reconnect once the glitch clears).
fn mps_connect_charges(
    cfg: &RunConfig,
    plan: &hsim_faults::FaultPlan,
    n_ranks: usize,
    acc: &mut RunAcc,
) -> Result<Vec<SimDuration>, String> {
    let mut extra = vec![SimDuration::ZERO; n_ranks];
    if !matches!(cfg.mode, ExecMode::Mps { .. }) {
        return Ok(extra);
    }
    for ev in plan.of_site(hsim_faults::Site::MpsConnect) {
        if ev.rank >= n_ranks {
            continue;
        }
        match ev.severity {
            hsim_faults::Severity::Permanent => {
                return Err(format!(
                    "injected MPS rejection: the server permanently refused rank {}'s client",
                    ev.rank
                ));
            }
            hsim_faults::Severity::Transient { count } => {
                if count > hsim_faults::MAX_RETRIES {
                    return Err(format!(
                        "rank {}: injected MPS rejection exceeded the retry budget",
                        ev.rank
                    ));
                }
                acc.count(Counter::FaultsInjected, 1);
                acc.count(Counter::FaultsRecovered, 1);
                acc.count(Counter::FaultRetries, u64::from(count));
                for attempt in 0..count {
                    extra[ev.rank] += hsim_faults::backoff_delay(attempt);
                }
            }
        }
    }
    Ok(extra)
}

/// Everything the run loop folds its segments into.
#[derive(Default)]
struct RunAcc {
    /// Per-original-rank report buckets, summed across segments.
    ranks: Vec<Option<RankReport>>,
    device_busy: Vec<SimDuration>,
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

    /// Fold one segment in; `orig_ids` maps its ranks to their
    /// accumulators. A lost rank's partial work is dropped with it.
    fn fold(&mut self, orig_ids: &[usize], seg: SegmentOut) {
        self.runtime += slowest(seg.reports.iter().map(|r| r.total));
        self.window_cpu = slowest_cpu_compute(&seg.reports);
        self.window_gpu = slowest(seg.device_busy.iter().copied());
        for (rep, &orig) in seg.reports.into_iter().zip(orig_ids) {
            match &mut self.ranks[orig] {
                Some(acc) => acc.absorb(rep),
                slot => *slot = Some(rep),
            }
        }
        self.device_busy
            .resize(seg.device_busy.len(), SimDuration::ZERO);
        for (acc, busy) in self.device_busy.iter_mut().zip(seg.device_busy) {
            *acc += busy;
        }
        self.collectors.extend(seg.collectors);
        self.migrated += seg.migrated;
        self.end = seg.end;
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
    /// the telemetry epilogue and assemble the [`RunResult`].
    fn finish(
        mut self,
        cfg: &RunConfig,
        decomp: &Decomposition,
        orig_ids: &[usize],
        rb: Option<Rebalancer>,
    ) -> Result<RunResult, String> {
        let mut ranks = Vec::with_capacity(orig_ids.len());
        for (new_rank, &orig) in orig_ids.iter().enumerate() {
            let mut rep = self.ranks[orig]
                .take()
                .ok_or_else(|| format!("rank {orig} produced no report"))?;
            rep.rank = new_rank;
            ranks.push(rep);
        }

        let summary = self.coordinator.take().map(|coordinator| {
            self.collectors.push(coordinator);
            let mut s = Summary::from_collectors(self.collectors);
            // The gauge reports the final (re-split or folded) world.
            s.metrics
                .gauge_set(Gauge::CpuFraction, decomp.cpu_zone_fraction());
            if let Some(rb) = &rb {
                s.metrics.gauge_set(Gauge::BalanceFraction, rb.fraction);
                s.metrics.count(Counter::Rebalances, rb.resplits());
                s.metrics.count(Counter::BalanceResplits, rb.resplits());
                s.metrics.count(Counter::BalanceHolds, rb.holds());
            }
            s
        });
        let trace = summary
            .as_ref()
            .filter(|_| cfg.trace)
            .map(|s| s.legacy_trace_where(|sp| sp.name == "cycle" || sp.name == "wait"));
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
            trace,
            telemetry: summary.filter(|_| cfg.telemetry),
            mass: full.then(|| tallies().map(|(mass, _)| mass).sum()),
            balance_history: rb.map(|rb| rb.history).unwrap_or_default(),
            particles: self.end.particles.as_deref().map(|p| ParticleReport {
                count: p.len() as u64,
                momentum: hsim_particles::momentum(p),
                migrated: self.migrated,
                checksum: hsim_particles::checksum(p),
            }),
            scenario: scenario::outcome(&cfg.problem, &grid, self.end.t, diag.as_ref()),
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

/// Carry the ranks' states across a boundary onto the boxes of `new`.
/// A box that did not change — found by its [`Subdomain`], not by
/// rank, so the survivors a foldback renumbers are found too — keeps
/// its state, *moved*: no allocation, no copy. A box that did change
/// gets a fresh state whose owned zones are copied, row by row, out of
/// the old boxes it overlaps (the boxes partition the grid before and
/// after, so each is written once). Only owned zones cross: a moved
/// state keeps last cycle's ghosts and scratch, a rebuilt one has
/// zeros, and neither is read before it is rewritten
/// (`tests::segmentation_is_invisible_to_the_physics`).
fn hand_over(mut old: Vec<HydroState>, new: &Decomposition) -> Vec<Option<HydroState>> {
    // On a cold start there is no state to go on from: all `None`.
    let like = old.first().map(|s| (s.fidelity, s.tile, s.t, s.cycle));
    let kept: Vec<Option<HydroState>> = new
        .domains
        .iter()
        .map(|sub| Some(old.swap_remove(old.iter().position(|s| s.sub == *sub)?)))
        .collect();
    // Of a box that is gone only the conserved block is still read.
    let gone: Vec<(Subdomain, SoaBlock)> = old.into_iter().map(|s| (s.sub, s.u)).collect();
    let rebuild = |sub: &Subdomain, (fidelity, tile, t, cycle)| {
        let mut state = HydroState::new(new.grid, *sub, fidelity);
        (state.tile, state.t, state.cycle) = (tile, t, cycle);
        // Cost-only states hold no zone values.
        if fidelity == Fidelity::CostOnly {
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
        .map(|(kept, sub)| kept.or_else(|| Some(rebuild(sub, like?))))
        .collect()
}

/// One contiguous span of cycles over a fixed decomposition: the
/// whole run when nothing interrupts it, else the span between two
/// boundaries.
struct Segment<'a> {
    decomp: &'a Decomposition,
    roles: &'a [RankRole],
    /// Pre-loss rank ids, keying fault-plan lookups and report merges.
    orig_ids: &'a [usize],
    /// Global cycle numbers `[first, last)`.
    first_cycle: u64,
    last_cycle: u64,
    /// What the previous segment left behind: nothing, on a cold start.
    restore: EndState,
    /// Extra per-rank setup charge (MPS connect retry backoff); empty
    /// on every segment but the first.
    setup_extra: &'a [SimDuration],
    /// The resolved fused-kernel tile shape, the same for every
    /// segment of a run.
    tile: [usize; 2],
}

struct SegmentOut {
    reports: Vec<RankReport>,
    collectors: Vec<Collector>,
    device_busy: Vec<SimDuration>,
    /// Cross-rank particle migrations during this segment.
    migrated: u64,
    end: EndState,
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

/// What one rank leaves behind at the end of a segment.
#[allow(clippy::large_enum_variant)] // one per rank per segment, moved twice
enum Left {
    /// A boundary follows: the rank's live state.
    State(HydroState),
    /// The run is over: the rank's total owned mass and scenario
    /// diagnostics, its terms of the result's sums (`None` under
    /// cost-only fidelity, whose states hold no physics). The rank
    /// body sums and frees its state itself: freed by the coordinator
    /// once the rank threads are gone, glibc trims their arenas and the
    /// process's next run faults every page in again.
    Tally(Option<(f64, ScenarioDiag)>),
}

/// What a rank body installs in thread-local storage: its telemetry
/// collector and its fault injector. They belong to the rank, not to
/// the thread — stepped ranks share the caller's thread, which may
/// have a collector or an injector of its own — so they are installed
/// for exactly as long as the rank is being polled.
#[derive(Default)]
struct RankLocals {
    collector: Option<Collector>,
    injector: Option<hsim_faults::Injector>,
}

impl RankLocals {
    /// Trade places with whatever the calling thread has installed.
    fn swap(&mut self) {
        self.collector = hsim_telemetry::swap(self.collector.take());
        self.injector = hsim_faults::swap(self.injector.take());
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
fn rank_task<F: Future>(body: impl Fn(Comm) -> F + Sync) -> impl Fn(Comm) -> RankTask<F> + Sync {
    move |comm| RankTask {
        locals: RankLocals::default(),
        body: Box::pin(body(comm)),
    }
}

/// Run one segment and collect per-rank reports, telemetry, device
/// busy time and the end state. Rank
/// failures surface as typed errors — never panics or hangs (a dead
/// rank's mailboxes disconnect its peers, and its device's rendezvous
/// stops counting it).
fn run_segment(
    cfg: &RunConfig,
    fault_plan: &Arc<hsim_faults::FaultPlan>,
    driver: Driver,
    seg: Segment<'_>,
) -> Result<SegmentOut, String> {
    let grid = cfg.global_grid();
    let node = &cfg.node;
    let decomp = seg.decomp;
    let roles = seg.roles;
    let plan = HaloPlan::build(decomp);
    let n_ranks = roles.len();

    // Devices and clients per mode.
    let mut devices: Vec<Arc<SharedDevice>> = Vec::new();
    let mut slots: Vec<Option<(GpuClient, Arc<SharedDevice>)>> =
        (0..n_ranks).map(|_| None).collect();
    match cfg.mode {
        ExecMode::CpuOnly => {}
        ExecMode::Default | ExecMode::Heterogeneous { .. } => {
            for (g, slot) in slots.iter_mut().take(node.gpus).enumerate() {
                let device = Device::new(g, node.gpu_spec.clone());
                let (shared, client) =
                    SharedDevice::new_exclusive(device, g).map_err(|e| e.to_string())?;
                *slot = Some((client, Arc::clone(&shared)));
                devices.push(shared);
            }
        }
        ExecMode::Mps { per_gpu } => {
            for g in 0..node.gpus {
                let device = Device::new(g, node.gpu_spec.clone());
                let pids: Vec<usize> = (0..per_gpu).map(|i| g * per_gpu + i).collect();
                let (shared, clients) =
                    SharedDevice::new_mps(device, &pids).map_err(|e| e.to_string())?;
                for (i, client) in clients.into_iter().enumerate() {
                    slots[g * per_gpu + i] = Some((client, Arc::clone(&shared)));
                }
                devices.push(shared);
            }
        }
    }
    let slots = Mutex::new(slots);

    // Across the boundary come every rank's state, moved onto this
    // segment's boxes, and the merged particle set.
    let states = seg.restore.left.into_iter().filter_map(|left| match left {
        Left::State(state) => Some(state),
        Left::Tally(_) => None,
    });
    let carried = &Mutex::new(hand_over(states.collect(), decomp));
    let snapshot = seg.restore.particles.as_deref();

    // One host work pool for the whole *process* (never per region,
    // never per rank, and since the serve layer shares runs it is not
    // even per run): CPU ranks share its persistent workers for
    // parallel kernels and reductions. None = the paper's sequential
    // CPU ranks. `WorkPool::shared` serializes concurrent regions via
    // its region lock, so simultaneous served runs are safe.
    let host_pool = (cfg.host_threads > 1).then(|| WorkPool::shared(cfg.host_threads - 1));

    // Node-level host-bandwidth model (the Figure 12 kink): aggregate
    // host traffic beyond the active cores' capacity costs extra,
    // distributed over ranks in proportion to their zones.
    let total_zones = grid.zones() as f64;
    let capacity = n_ranks as f64 * calib::HOST_ZONES_PER_CORE;
    let excess = (total_zones - capacity).max(0.0);
    let penalty_per_cycle: Vec<SimDuration> = (0..n_ranks)
        .map(|r| {
            let share = decomp.domains[r].zones() as f64 / total_zones;
            SimDuration::from_nanos_f64(excess * calib::HOST_PENALTY_NS_PER_ZONE * share)
        })
        .collect();

    // One collector per rank serves both consumers: the full
    // telemetry summary and the legacy per-cycle Gantt trace (now a
    // projection of the same span store).
    let collect = cfg.telemetry || cfg.trace;

    struct RankOut {
        report: RankReport,
        collector: Option<Collector>,
        left: Left,
        t: f64,
        /// This rank's live particles at segment end.
        particles: Option<Vec<Particle>>,
        /// Particles this rank shipped to peers during the segment.
        migrated: u64,
    }
    // One rank body, resumable at every wait on a peer or a device;
    // `driver` decides whether a wait blocks the rank's thread or
    // parks the rank. Shared state goes in by reference so each rank's
    // future can copy the references.
    let (slots, host_pool, plan, penalty_per_cycle) =
        (&slots, &host_pool, &plan, &penalty_per_cycle);
    let outputs: Vec<Result<RankOut, String>> = World::run_fallible(
        driver,
        n_ranks,
        node.comm.clone(),
        rank_task(|mut comm| async move {
            let rank = comm.rank();
            let orig = seg.orig_ids[rank];
            let sub = decomp.domains[rank];
            let role = roles[rank];
            let client = slots.lock()[rank].take();
            // However this body ends, its device's rendezvous learns
            // that this client joins no further sync epoch.
            let departure = client.as_ref().map(|(client, _)| client.departure());
            let _departure = departure.transpose().map_err(|e| e.to_string())?;
            let mut clock = RankClock::new(rank);
            if collect {
                hsim_telemetry::install(Collector::new(rank));
            }
            // Arm the injector under this rank's *original* id, so the
            // plan keeps naming the same rank across the foldback.
            hsim_faults::install(orig, Arc::clone(fault_plan));
            hsim_faults::set_cycle(seg.first_cycle);

            // Figure 8 memory scheme: GPU ranks put mesh data in unified
            // memory (paying the initial fault-in) and temporaries in a
            // device pool; CPU ranks host-allocate everything.
            let mut _pool: Option<MemoryPool> = None;
            let target = if let Some((client, shared)) = &client {
                let mesh = memscheme::mesh_bytes(sub.zones());
                let t_um = clock.now();
                // Injected device OOM: a transient allocation failure
                // backs off and retries (the pool has drained by
                // then); a permanent one is a typed error.
                if let Some(hit) = hsim_faults::check(hsim_faults::Site::GpuOom) {
                    hsim_telemetry::count(Counter::FaultsInjected, 1);
                    match hit.severity {
                        hsim_faults::Severity::Permanent => {
                            return Err(format!(
                                "rank {orig}: injected device OOM: mesh allocation permanently refused"
                            ));
                        }
                        hsim_faults::Severity::Transient { count } => {
                            if count > hsim_faults::MAX_RETRIES {
                                return Err(format!(
                                    "rank {orig}: injected device OOM exceeded the retry budget"
                                ));
                            }
                            for attempt in 0..count {
                                clock.charge(ChargeKind::Wait, hsim_faults::backoff_delay(attempt));
                                hsim_telemetry::count(Counter::FaultRetries, 1);
                            }
                            hsim_telemetry::count(Counter::FaultsRecovered, 1);
                            hsim_telemetry::rank_span(
                                Category::Runtime,
                                "fault_oom_retry",
                                t_um,
                                clock.now(),
                            );
                        }
                    }
                }
                let (_region, cost) = shared
                    .um_alloc_and_touch(mesh)
                    .map_err(|e| format!("rank {orig}: {e}"))?;
                clock.charge(ChargeKind::Memory, cost);
                hsim_telemetry::count(Counter::UmMigrations, 1);
                hsim_telemetry::count(Counter::UmBytesMigrated, mesh);
                hsim_telemetry::time_stat(TimeStat::MigrationTime, cost);
                hsim_telemetry::rank_span(Category::UmMigration, "um_fault_in", t_um, clock.now());
                _pool = Some(MemoryPool::new(
                    memscheme::temp_bytes(sub.zones()).max(4096),
                ));
                Target::Gpu(client.clone())
            } else {
                match host_pool {
                    Some(pool) => Target::CpuParallel {
                        pool: Arc::clone(pool),
                    },
                    None => Target::CpuSeq,
                }
            };

            let mut exec = Executor::new(target, cfg.node.cpu.clone(), cfg.fidelity)
                .with_multipolicy(hsim_raja::MultiPolicy::with_threshold(
                    cfg.multipolicy_threshold,
                ));
            // The state the boundary handed over, or on a cold start
            // the problem's initial condition.
            let carried = carried.lock().get_mut(rank).and_then(Option::take);
            let mut state = carried.unwrap_or_else(|| {
                let mut state = HydroState::new(grid, sub, cfg.fidelity);
                state.tile = seg.tile;
                cfg.problem.init(&mut state);
                state
            });
            // The particle phase: fresh deterministic placement on a
            // cold start, ownership re-filter of the global snapshot
            // after a boundary (re-splits and foldbacks re-home
            // particles through exactly this path).
            let mut phase = cfg.particles.map(|pcfg| match snapshot {
                Some(all) => PhaseState::from_global(pcfg, all, &grid, &sub),
                None => PhaseState::init_owned(pcfg, &grid, &sub),
            });

            // Main-thread MPS connect retries land on the rejected
            // rank's setup clock.
            let setup_extra = seg.setup_extra.get(rank).copied().unwrap_or_default();
            if setup_extra > SimDuration::ZERO {
                let t_f = clock.now();
                clock.charge(ChargeKind::Wait, setup_extra);
                hsim_telemetry::rank_span(Category::Runtime, "fault_mps_retry", t_f, clock.now());
            }

            // Setup complete: synchronize and zero the runtime baseline.
            // The figures report cycle-loop time (setup — UM fault-in,
            // allocation — amortizes to noise over a real run's length).
            lend_clock(&mut comm, &mut clock)
                .ibarrier()
                .await
                .map_err(|e| format!("rank {orig}: {e}"))?;
            let at_t0 = clock.clone();
            let t0 = at_t0.now();
            hsim_telemetry::rank_span(Category::Runtime, "setup", SimTime::ZERO, t0);

            let mut coupler = MpiCoupler {
                comm: &mut comm,
                plan,
                decomp,
                gpu_spec: client.as_ref().map(|_| cfg.node.gpu_spec.clone()),
                gpu_direct: cfg.gpu_direct,
            };

            for cycle in seg.first_cycle..seg.last_cycle {
                hsim_faults::set_cycle(cycle);
                let cycle_start = clock.now();
                let wait_before = clock.bucket(ChargeKind::Wait);
                // Pooled temporaries are grabbed per cycle and released at
                // the cycle boundary (cnmem discipline).
                if let Some(pool) = _pool.as_mut() {
                    let a = pool.alloc(memscheme::temp_bytes(sub.zones()).max(256));
                    debug_assert!(a.is_ok());
                    pool.reset();
                }
                let stats = step_with(
                    &mut state,
                    &mut exec,
                    &mut clock,
                    &mut coupler,
                    calib::CFL,
                    calib::COST_ONLY_DT,
                    Reconstruction::FirstOrder,
                )
                .await
                .map_err(|e| format!("rank {orig}: {e}"))?;
                if let Some(diff) = &cfg.diffusion {
                    diffusion::advance(
                        &mut state,
                        &mut exec,
                        &mut clock,
                        &mut coupler,
                        diff,
                        stats.dt,
                    )
                    .await
                    .map_err(|e| format!("rank {orig}: {e}"))?;
                }
                if let Some(phase) = phase.as_mut() {
                    hsim_particles::advect(phase, &state, &mut exec, &mut clock, stats.dt, cycle)
                        .map_err(|e| format!("rank {orig}: {e}"))?;
                    hsim_particles::migrate(phase, decomp, rank, &mut coupler, &mut clock)
                        .await
                        .map_err(|e| format!("rank {orig}: {e}"))?;
                }
                // Serial host control code between kernels.
                clock.charge(
                    ChargeKind::Control,
                    SimDuration::from_nanos_f64(
                        stats.launches as f64 * calib::CONTROL_NS_PER_LAUNCH,
                    ),
                );
                // Host-bandwidth saturation penalty.
                clock.charge(ChargeKind::Memory, penalty_per_cycle[rank]);
                if collect {
                    // One busy span + one idle span per cycle: the idle
                    // share is the Wait-bucket growth (GPU sync + peers).
                    let wait_delta = clock.bucket(ChargeKind::Wait) - wait_before;
                    let cycle_end = clock.now();
                    let busy_end = SimTime::from_nanos(
                        cycle_end.as_nanos().saturating_sub(wait_delta.as_nanos()),
                    );
                    let cat = if role.is_gpu_driver() {
                        Category::GpuKernel
                    } else {
                        Category::CpuKernel
                    };
                    hsim_telemetry::rank_span(cat, "cycle", cycle_start, busy_end);
                    hsim_telemetry::rank_span(Category::Idle, "wait", busy_end, cycle_end);
                }
            }

            // The cycle loop's account: each bucket's growth since
            // `t0` on the rank's one clock, so the six partition `total`.
            let since_t0 = |kind| clock.bucket(kind) - at_t0.bucket(kind);
            let report = RankReport {
                rank,
                role,
                zones: sub.zones(),
                setup: t0 - SimTime::ZERO,
                total: clock.now() - t0,
                compute: since_t0(ChargeKind::Compute),
                launch: since_t0(ChargeKind::Launch),
                memory: since_t0(ChargeKind::Memory),
                comm: since_t0(ChargeKind::Comm),
                control: since_t0(ChargeKind::Control),
                wait: since_t0(ChargeKind::Wait),
                launches: exec.registry.total_launches(),
                bytes_sent: coupler.comm.bytes_sent(),
            };
            debug_assert_eq!(report.account_residual(), SimDuration::ZERO);
            hsim_faults::uninstall();
            let t = state.t;
            let left = if seg.last_cycle < cfg.cycles {
                Left::State(state)
            } else {
                let full = cfg.fidelity == Fidelity::Full;
                Left::Tally(full.then(|| (state.total_mass(), ScenarioDiag::of_rank(&state))))
            };
            Ok(RankOut {
                report,
                collector: hsim_telemetry::uninstall(),
                left,
                t,
                migrated: phase.as_ref().map_or(0, |ph| ph.migrated),
                particles: phase.map(|ph| ph.parts),
            })
        }),
    );

    let mut ranks = Vec::with_capacity(n_ranks);
    let mut errors: Vec<String> = Vec::new();
    for res in outputs {
        match res {
            Ok(out) => ranks.push(out),
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        // Prefer the root cause (the injected fault's typed message)
        // over collateral peer-disconnect failures.
        let root = errors
            .iter()
            .find(|e| e.contains("injected"))
            .or_else(|| {
                errors
                    .iter()
                    .find(|e| !e.to_lowercase().contains("disconnected"))
            })
            .unwrap_or(&errors[0])
            .clone();
        return Err(root);
    }

    let particles = cfg.particles.map(|_| {
        let mut all: Vec<Particle> = ranks
            .iter_mut()
            .flat_map(|out| out.particles.take().unwrap_or_default())
            .collect();
        all.sort_unstable_by_key(|p| p.id);
        all
    });
    // `t` is identical on every rank: dt is an exact collective.
    let t = ranks.last().map_or(0.0, |out| out.t);
    let migrated = ranks.iter().map(|out| out.migrated).sum();
    let collectors = ranks
        .iter_mut()
        .filter_map(|out| out.collector.take())
        .collect();
    let (reports, left) = ranks.into_iter().map(|out| (out.report, out.left)).unzip();
    Ok(SegmentOut {
        reports,
        collectors,
        device_busy: devices.iter().map(|d| d.busy()).collect(),
        migrated,
        end: EndState { left, particles, t },
    })
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
    lb.set_min_fraction(hetero_min_fraction(cfg));
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
            assert_eq!(r.ranks.len(), mode.total_ranks(&cfg.node));
        }
    }

    #[test]
    fn decompositions_match_modes() {
        let node = NodeConfig::rzhasgpu();
        let cfg = sweep_cfg((64, 48, 32), ExecMode::hetero());
        let d = build_decomposition(&cfg, 0.05).unwrap();
        assert_eq!(d.len(), 16);
        assert_eq!(d.gpu_ranks().len(), node.gpus);
        let cfg2 = sweep_cfg((64, 48, 32), ExecMode::Default);
        assert_eq!(build_decomposition(&cfg2, 0.0).unwrap().len(), 4);
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
            Problem::Sod(hsim_hydro::SodConfig::default()),
            Problem::Perturbed(PerturbedConfig::default()),
            Problem::Noh(NohConfig::default()),
            Problem::TaylorGreen(TaylorGreenConfig::default()),
        ] {
            let mut cfg = sweep_cfg((16, 16, 16), ExecMode::mps4());
            cfg.fidelity = Fidelity::Full;
            cfg.cycles = 2;
            cfg.problem = problem.clone();
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
        assert!(multi.total_launches() > base.total_launches());
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

    #[test]
    fn traced_run_records_spans_for_every_rank_and_cycle() {
        let mut cfg = sweep_cfg((64, 48, 32), ExecMode::hetero());
        cfg.trace = true;
        let r = run(&cfg).unwrap();
        let trace = r.trace.as_ref().expect("trace requested");
        // Two spans (busy + wait) per rank per cycle.
        assert_eq!(
            trace.len() as u64,
            2 * cfg.cycles * r.ranks.len() as u64,
            "span count"
        );
        let gantt = trace.render_gantt(60);
        assert!(gantt.contains('G') && gantt.contains('C'), "{gantt}");
        // Untraced runs carry no trace.
        cfg.trace = false;
        assert!(run(&cfg).unwrap().trace.is_none());
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
            sa.to_metrics_json(),
            sb.to_metrics_json(),
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
        let rebalances = |r: &RunResult| {
            let s = r.telemetry.as_ref().expect("telemetry is on");
            s.metrics.counter(Counter::Rebalances)
        };
        assert!(rebalances(&direct) >= 1);
        assert_eq!(rebalances(&balanced), rebalances(&direct));
        assert!(lb.history.is_empty(), "the balancer tried nothing");
    }

    #[test]
    fn online_rebalance_never_breaks_the_granularity_guard() {
        // ny = 24 → per-GPU-block y extent 12 → min fraction 3/12:
        // the Figs 13–14 bottleneck. The GPU-hungry optimum sits far
        // below it, so every boundary must clamp.
        let cfg = online_cfg((64, 24, 16), 8, 2);
        let guard = hetero_min_fraction(&cfg);
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
            sa.to_metrics_json(),
            sb.to_metrics_json(),
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
    fn emitted(cfg: &RunConfig, fraction: f64, driver: Driver) -> String {
        let r = match run_driven(cfg, fraction, driver) {
            Ok(r) => r,
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
            s.to_metrics_json(),
        )
    }

    #[test]
    fn stepped_and_threaded_ranks_emit_the_same_bytes() {
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
                let stepped = emitted(&cfg, fraction, Driver::Stepped);
                checked += 1;
                let threaded = emitted(&cfg, fraction, Driver::Threads);
                assert!(
                    threaded == stepped,
                    "{mode:?}, {label}: the drivers disagree"
                );
            }
        }
        assert_eq!(checked, 4 * 11 + 2);

        // Kernel bodies do not care which driver resumes them either.
        let mut full = sweep_cfg((16, 24, 16), ExecMode::hetero());
        full.fidelity = Fidelity::Full;
        full.cycles = 2;
        full.telemetry = true;
        full.tile = Some([8, 8]);
        full.particles = Some(ParticlesConfig::default());
        let threaded = emitted(&full, 0.25, Driver::Threads);
        assert!(!threaded.starts_with("error"), "{threaded}");
        assert!(threaded == emitted(&full, 0.25, Driver::Stepped));
    }

    /// The physics a run leaves behind, to the bit: mass, scenario
    /// error, final time and the particle phase.
    fn physics_bits(cfg: &RunConfig, fraction: f64, driver: Driver) -> (String, RunResult) {
        let r = run_driven(cfg, fraction, driver).unwrap_or_else(|e| panic!("{e}"));
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
            for driver in [Driver::Threads, Driver::Stepped] {
                let case = format!("{scenario:?}, {driver:?}");
                // (a) Three ticks that all hold.
                let (uncut, _) = physics_bits(&base, 0.125, driver);
                let (held, r) = physics_bits(&ticking(0.9), 0.125, driver);
                assert_eq!(r.balance_history.len(), 4, "{case}");
                assert!(r.balance_history.iter().all(|&f| f == 0.125), "{case}");
                assert_eq!(held, uncut, "{case}: held ticks");

                // (b) One forced re-split, against the uncut run at
                // the split it converges to.
                let (resplit, r) = physics_bits(&ticking(0.02), 0.30, driver);
                assert!(r.balance_history[0] > r.cpu_fraction, "{case}");
                let (uncut, u) = physics_bits(&base, r.cpu_fraction, driver);
                let zones = |r: &RunResult| r.ranks.iter().map(|x| x.zones).collect::<Vec<_>>();
                assert_eq!(zones(&r), zones(&u), "{case}: same final decomposition");
                assert_eq!(resplit, uncut, "{case}: forced re-split");

                // (c) The re-split, then the loss of rank 5.
                let mut lossy = ticking(0.02);
                lossy.faults =
                    Some(hsim_faults::FaultPlan::parse("rank.loss@rank5.cycle5").unwrap());
                let (folded, r) = physics_bits(&lossy, 0.30, driver);
                assert_eq!(r.ranks.len(), 15, "{case}");
                assert_eq!(folded, recorded, "{case}: re-split + rank loss");
            }
        }
    }

    #[test]
    fn a_rank_that_dies_mid_cycle_does_not_hang_its_mps_peers() {
        // Rank 1 dies of a permanent launch fault and never joins its
        // device's next sync epoch, where the device's other three
        // clients — rank threads, blocked on a condition variable —
        // already wait. Its departure must complete that epoch; the
        // survivors then fail at the dead rank's mailboxes and the
        // injected root cause wins, as for any other loss.
        for _ in 0..3 {
            let mut cfg = sweep_cfg((32, 48, 32), ExecMode::mps4());
            cfg.fidelity = Fidelity::Full;
            cfg.faults =
                Some(hsim_faults::FaultPlan::parse("gpu.launch@rank1.cycle1:perm").unwrap());
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(run_driven(&cfg, 0.0, Driver::Threads).map(|_| ()));
            });
            let err = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("the run hangs at the device rendezvous")
                .expect_err("a permanent launch fault is fatal");
            assert!(err.starts_with("rank 1: "), "{err}");
            assert!(err.contains("injected permanent launch fault"), "{err}");
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
                    lose if lose < 12 && !d.owners[lose + 4].is_gpu() => {
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

            let after = hand_over(states, &new);
            proptest::prop_assert_eq!(after.len(), new.len());
            for (state, sub) in after.into_iter().zip(&new.domains) {
                let mut state = state.expect("every box is handed a state");
                proptest::prop_assert_eq!(state.sub, *sub);
                proptest::prop_assert_eq!((state.tile, state.t, state.cycle), ([4, 2], 0.75, 9));
                tags(&mut state, true);
                if let Some((_, was)) = before.iter().find(|(b, _)| b == sub) {
                    proptest::prop_assert_eq!(slabs(&state), *was, "an unchanged box is moved");
                }
            }
            // A cold start has nothing to hand over.
            proptest::prop_assert!(hand_over(Vec::new(), &new).iter().all(Option::is_none));
        }
    }

    #[test]
    fn an_mps_client_that_syncs_twice_in_an_epoch_is_a_deadlock_error() {
        use hsim_mpi::{CommCost, MpiError};
        use hsim_time::task::Waiting;
        let device = Device::new(3, NodeConfig::rzhasgpu().gpu_spec);
        let (_shared, clients) = SharedDevice::new_mps(device, &[0, 1]).unwrap();
        let clients = &clients;
        let out = World::run_fallible(Driver::Stepped, 2, CommCost::free(), |comm| async move {
            let client = &clients[comm.rank()];
            client.sync(SimTime::ZERO).await;
            if comm.rank() == 0 {
                // Epoch 1 needs both clients; rank 1 never comes.
                client.sync(SimTime::ZERO).await;
            }
            Ok(comm.rank())
        });
        let stuck = MpiError::Deadlock {
            waiting: vec![(
                0,
                Waiting::DeviceSync {
                    device: 3,
                    epoch: 1,
                },
            )],
        };
        assert_eq!(out[0], Err(format!("rank 0: {stuck}")));
        assert_eq!(out[1], Ok(1));
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
