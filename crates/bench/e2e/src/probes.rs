//! Isolated layer probes: each layer's public entry points, timed from
//! outside on fixed inputs, median over as many calls as the probe's
//! slice of the budget allows (the count is reported beside each
//! value). They do not depend on the workload or the seed, so the same
//! probe reads the same on all four workloads up to machine noise.

use std::time::{Duration, Instant};

use hsim_bench::sweep::{paper_modes, run_figure_jobs};
use hsim_core::faults::{FaultPlan, Site};
use hsim_core::figures::{self, FigureSpec};
use hsim_core::{calib, ExecMode, RunConfig};
use hsim_gpu::{Job, KernelDesc, RateSharingTimeline};
use hsim_hydro::{fused, sedov, DiffusionConfig, HydroState, SedovConfig, SoloCoupler};
use hsim_mesh::decomp::block_decomp;
use hsim_mesh::decomp::weighted::{weighted_hetero_decomp, WeightedConfig};
use hsim_mesh::{GlobalGrid, Subdomain};
use hsim_mpi::{CommCost, World};
use hsim_particles::{ParticlesConfig, PhaseState};
use hsim_raja::{CpuModel, Executor, Fidelity, Target, TileSet2, WorkPool};
use hsim_serve::{render_response, Request, Server, ServerConfig};
use hsim_time::{RankClock, SimTime};

use crate::account::Metrics;
use crate::host;
use crate::spans::{Ctx, Recorder};
use crate::spec::DEFAULT_SEED;
use crate::stats::{median, quantile};
use crate::workloads::{Kind, Workload, TILE};

/// Timed probes sharing the budget evenly (the count of `slice`
/// arguments handed out in [`run_all`]).
const SLICES: f64 = 36.0;
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 400;

/// The solo hydro grid: the `cpu-full` Sedov problem on one rank.
const SOLO: [usize; 3] = [64, 48, 32];
const SOLO_ZONES: f64 = (SOLO[0] * SOLO[1] * SOLO[2]) as f64;
/// The cost-only grid of the `core` probes (mid-range of Figs 13–14).
const CORE_GRID: (usize, usize, usize) = (320, 240, 160);

/// What a probed call returns: the library's own error, as text.
type Call = Result<(), String>;

/// Call `f` at least [`MIN_SAMPLES`] times, then until the slice is
/// spent; wall ms per call. The first failing call ends the probe.
fn sample(slice: Duration, mut f: impl FnMut() -> Call) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_SAMPLES || (t0.elapsed() < slice && ms.len() < MAX_SAMPLES) {
        let t = Instant::now();
        f()?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

/// For calls too short for the clock: time batches of `batch` calls;
/// wall ns per call.
fn sample_batched(
    slice: Duration,
    batch: usize,
    mut f: impl FnMut() -> Call,
) -> Result<Vec<f64>, String> {
    let ms = sample(slice, || (0..batch).try_for_each(|_| f()))?;
    Ok(ms.into_iter().map(|ms| ms * 1e6 / batch as f64).collect())
}

/// Two variants of one call in [`MIN_SAMPLES`] interleaved pairs, so
/// machine drift lands on both; wall ms each.
fn sample_pairs(
    mut a: impl FnMut() -> Call,
    mut b: impl FnMut() -> Call,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    for _ in 0..MIN_SAMPLES {
        a_ms.extend(sample_once(&mut a)?);
        b_ms.extend(sample_once(&mut b)?);
    }
    Ok((a_ms, b_ms))
}

fn sample_once(f: &mut impl FnMut() -> Call) -> Result<Option<f64>, String> {
    let t = Instant::now();
    f()?;
    Ok(Some(t.elapsed().as_secs_f64() * 1e3))
}

/// Adapt a library call to [`Call`], dropping its value.
fn call<T, E: std::fmt::Display>(r: Result<T, E>) -> Call {
    r.map(drop).map_err(|e| e.to_string())
}

/// A call that cannot fail; its value is kept from the optimiser.
fn infallible<T>(value: T) -> Call {
    std::hint::black_box(value);
    Ok(())
}

fn put(m: &mut Metrics, name: &'static str, scale: f64, samples: &[f64]) {
    m.insert(name, (median(samples) * scale, samples.len() as u64));
}

fn solo_state(ghost: usize) -> HydroState {
    let grid = GlobalGrid::new(SOLO[0], SOLO[1], SOLO[2]);
    let sub = Subdomain::new([0, 0, 0], SOLO, ghost);
    let mut st = HydroState::new(grid, sub, Fidelity::Full);
    st.tile = TILE;
    sedov::init(&mut st, &SedovConfig::default());
    st
}

fn seq_exec(fidelity: Fidelity) -> (Executor, RankClock) {
    (
        Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), fidelity),
        RankClock::new(0),
    )
}

/// Million zones per second from ms-per-call samples on the solo grid.
fn put_mzs_per_s(m: &mut Metrics, name: &'static str, ms: &[f64]) {
    m.insert(
        name,
        (SOLO_ZONES / 1e6 / (median(ms) / 1e3), ms.len() as u64),
    );
}

fn hydro(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let (mut exec, mut clock) = seq_exec(Fidelity::Full);
    // `sweep` reads `u` and writes `u0`, so repeated calls do the same work.
    let dt = 1e-5;
    let mut st = solo_state(1);
    call(fused::primitives(&mut st, &mut exec, &mut clock))?;
    let ms = sample(slice, || {
        call(fused::sweep(&mut st, &mut exec, &mut clock, dt))
    })?;
    put_mzs_per_s(m, "hydro_fused_sweep_mzs_per_s", &ms);
    let tiles = TileSet2::new(st.ext()[1], st.ext()[2], TILE).len();
    m.insert("raja_tiles_per_sweep", (tiles as f64, 1));

    let mut st = solo_state(2);
    call(fused::primitives(&mut st, &mut exec, &mut clock))?;
    let ms = sample(slice, || {
        call(fused::sweep_muscl(&mut st, &mut exec, &mut clock, dt))
    })?;
    put_mzs_per_s(m, "hydro_fused_muscl_mzs_per_s", &ms);

    // The plain single-thread baseline of the cpu-full Sedov problem:
    // whole cycles on one rank, no runner, no MPI.
    let mut st = solo_state(1);
    let ms = sample(slice, || {
        call(hsim_hydro::step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut SoloCoupler,
            calib::CFL,
            calib::COST_ONLY_DT,
        ))
    })?;
    put(m, "hydro_solo_cycle_ms_p50", 1.0, &ms);

    let cfg = DiffusionConfig::default();
    let dt = 0.5 * hsim_hydro::diffusion_dt(&st, cfg.kappa);
    let ms = sample(slice, || {
        call(hsim_hydro::diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut SoloCoupler,
            &cfg,
            dt,
        ))
    })?;
    put_mzs_per_s(m, "hydro_diffusion_mzs_per_s", &ms);
    Ok(())
}

fn particles(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let st = solo_state(1);
    let (mut exec, mut clock) = seq_exec(Fidelity::Full);
    let cfg = ParticlesConfig {
        count: 2048,
        ..ParticlesConfig::default()
    };
    let mut phase = PhaseState::init_owned(cfg, &st.grid, &st.sub);
    let n = phase.parts.len().max(1) as f64;
    let mut cycle = 0;
    let ns = sample_batched(slice, 8, || {
        cycle += 1;
        call(hsim_particles::advect(
            &mut phase, &st, &mut exec, &mut clock, 1e-5, cycle,
        ))
    })?;
    put(m, "particles_advect_ns_per_particle_p50", 1.0 / n, &ns);
    Ok(())
}

fn raja(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let desc = KernelDesc::new("axpy", 2.0, 24.0);
    let (mut exec, mut clock) = seq_exec(Fidelity::CostOnly);
    let ns = sample_batched(slice, 1000, || {
        call(exec.forall(&mut clock, &desc, 100_000, 100_000, |_| {}))
    })?;
    put(m, "raja_forall_ns_per_launch_p50", 1.0, &ns);
    let pool = WorkPool::new(1);
    let ns = sample_batched(slice, 200, || {
        pool.for_each(0, 64, 64, |_| {});
        Ok(())
    })?;
    put(m, "raja_pool_region_us_p50", 1e-3, &ns);
    Ok(())
}

fn mpisim(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    const RANKS: usize = 16;
    let spawn_ms = sample(slice, || {
        infallible(World::run(RANKS, CommCost::on_node(), |c| {
            c.barrier().is_ok()
        }))
    })?;
    put(m, "mpisim_world16_spawn_us_p50", 1e3, &spawn_ms);

    // Inside one world, rank 0 times each collective; every rank
    // leaves the loop on the same iteration because rank 0's verdict
    // travels with the reduction.
    let in_world = |op: &(dyn Fn(&mut hsim_mpi::Comm) -> bool + Sync)| {
        let us = World::run(RANKS, CommCost::on_node(), |c| {
            let t0 = Instant::now();
            let mut us = Vec::new();
            loop {
                let t = Instant::now();
                if !op(c) {
                    return Vec::new();
                }
                us.push(t.elapsed().as_secs_f64() * 1e6);
                let more =
                    us.len() < MIN_SAMPLES || (t0.elapsed() < slice && us.len() < MAX_SAMPLES);
                let vote = if c.rank() == 0 && !more { 1.0 } else { 0.0 };
                if c.allreduce_max(vote).map_or(true, |v| v > 0.0) {
                    return us;
                }
            }
        })
        .swap_remove(0);
        if us.is_empty() {
            Err("mpisim probe: a collective failed".to_string())
        } else {
            Ok(us)
        }
    };
    let us = in_world(&|c| c.allreduce_sum(1.0).is_ok())?;
    put(m, "mpisim_allreduce16_us_p50", 1.0, &us);
    for (name, doubles) in [
        ("mpisim_ring16_sendrecv_us_p50.4k", 512),
        ("mpisim_ring16_sendrecv_us_p50.256k", 32 * 1024),
    ] {
        let us = in_world(&|c| {
            let right = (c.rank() + 1) % RANKS;
            let left = (c.rank() + RANKS - 1) % RANKS;
            c.send(right, 7, vec![1.0f64; doubles]).is_ok() && c.recv::<Vec<f64>>(left, 7).is_ok()
        })?;
        put(m, name, 1.0, &us);
    }
    Ok(())
}

fn mesh_and_gpusim(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let grid = GlobalGrid::new(320, 480, 160);
    let us = sample_batched(slice, 20, || infallible(block_decomp(grid, 16, 1)))?;
    put(m, "mesh_decomp_us_p50.block16", 1e-3, &us);
    let us = sample_batched(slice, 20, || {
        call(weighted_hetero_decomp(
            grid,
            &WeightedConfig::rzhasgpu(0.02),
        ))
    })?;
    put(m, "mesh_decomp_us_p50.weighted", 1e-3, &us);

    // 128 kernels on 4 streams, arrivals staggered so residency changes.
    const JOBS: u64 = 128;
    let jobs: Vec<Job> = (0..JOBS)
        .map(|i| Job {
            id: i,
            stream: i % 4,
            arrival: SimTime(i * 2_000),
            work: 20e-6 + (i % 7) as f64 * 5e-6,
            max_rate: if i % 3 == 0 { 0.5 } else { 1.0 },
        })
        .collect();
    let timeline = RateSharingTimeline::new();
    let ns = sample_batched(slice, 10, || infallible(timeline.simulate(&jobs)))?;
    put(m, "gpusim_timeline_us_per_job_p50", 1e-3 / JOBS as f64, &ns);
    Ok(())
}

fn core_and_faults(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    for (name, mode) in [
        ("core_run_ms_p50.cpuonly", ExecMode::CpuOnly),
        ("core_run_ms_p50.default", ExecMode::Default),
        ("core_run_ms_p50.mps4", ExecMode::mps4()),
        ("core_run_ms_p50.hetero", ExecMode::hetero()),
    ] {
        let cfg = RunConfig::sweep(CORE_GRID, mode);
        put(m, name, 1.0, &sample(slice, || call(hsim_core::run(&cfg)))?);
    }
    let cfg = RunConfig::sweep(CORE_GRID, ExecMode::hetero());
    let ms = sample(slice, || call(hsim_core::run_balanced(&cfg)))?;
    put(m, "core_run_balanced_ms_p50.hetero", 1.0, &ms);
    let ns = sample_batched(slice, 1000, || {
        infallible(std::hint::black_box(&cfg).content_hash())
    })?;
    put(m, "core_confhash_ns_p50", 1.0, &ns);

    // A CPU worker (ranks 4.. in Heterogeneous mode) drops out at
    // cycle 2; the run folds its slab back and finishes degraded.
    let mut lossy = cfg.clone();
    lossy.faults = Some(FaultPlan::single(Site::RankLoss, 4, 2));
    let ms = sample(slice, || call(hsim_core::run(&lossy)))?;
    put(m, "faults_rank_loss_run_ms_p50", 1.0, &ms);
    let overhead = hsim_core::run(&lossy)?
        .runtime
        .ratio(hsim_core::run(&cfg)?.runtime);
    m.insert("faults_rank_loss_virt_overhead_ratio", (overhead, 1));
    Ok(())
}

/// One round of `wl`, untraced, as a probed call.
fn round_call(wl: &Workload) -> Call {
    match wl.round(&Recorder::new(false), Ctx::root(0)).failed {
        0 => Ok(()),
        n => Err(format!("{n} ops of a {} round failed", wl.kind.name())),
    }
}

/// A `cpu-full` round with library telemetry on over the same round
/// with it off (ROADMAP's ≤ 2 % budget).
fn telemetry(m: &mut Metrics) -> Result<(), String> {
    let off = Workload::build(Kind::CpuFull, DEFAULT_SEED);
    let on = Workload::build(Kind::CpuFull, DEFAULT_SEED).with_telemetry();
    let (off_ms, on_ms) = sample_pairs(|| round_call(&off), || round_call(&on))?;
    m.insert(
        "telemetry_on_ratio",
        (median(&on_ms) / median(&off_ms), on_ms.len() as u64),
    );
    let spans = match on.distinct().first() {
        Some(d) => hsim_core::run(&d.cfg)?
            .telemetry
            .map_or(0, |t| t.spans.len()),
        None => 0,
    };
    m.insert("telemetry_spans_per_run", (spans as f64, 1));
    Ok(())
}

fn serve(slice: Duration, m: &mut Metrics) -> Result<(), String> {
    // In-process: two submitter threads share one server; each miss is
    // a fresh key (a grid no other probe call uses), each hit repeats one.
    let server = Server::new(ServerConfig {
        tile: Some(TILE),
        ..ServerConfig::default()
    });
    let cfg_at = |i: usize| RunConfig::sweep((100 + i, 240, 160), ExecMode::Default);
    let submit = |i: usize| call(server.submit(Request::balanced(cfg_at(i))));
    let threads = host::load_threads();
    // Per submitter thread: (miss ms, hit ns) samples.
    type Submitted = Result<(Vec<f64>, Vec<f64>), String>;
    let per_thread: Vec<Submitted> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let submit = &submit;
                s.spawn(move || {
                    let mut next = t;
                    let miss_ms = sample(slice / 2, || {
                        next += threads;
                        submit(next)
                    })?;
                    Ok((miss_ms, sample_batched(slice / 2, 100, || submit(next))?))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("serve probe: a submitter panicked".to_string()))
            })
            .collect()
    });
    let (mut miss_ms, mut hit_ns) = (Vec::new(), Vec::new());
    for r in per_thread {
        let (miss, hit) = r?;
        miss_ms.extend(miss);
        hit_ns.extend(hit);
    }
    put(m, "serve_submit_miss_ms_p50", 1.0, &miss_ms);
    put(m, "serve_submit_hit_us_p50", 1e-3, &hit_ns);
    let us = sample_batched(slice, 5, || infallible(server.metrics_text()))?;
    put(m, "serve_metrics_text_us_p50", 1e-3, &us);
    let result = hsim_core::run(&cfg_at(0))?;
    let us = sample_batched(slice, 50, || infallible(render_response(&result)))?;
    put(m, "serve_render_us_p50", 1e-3, &us);

    // Over HTTP: one `serve-mixed` round, per-request client latency.
    let wl = Workload::build(Kind::ServeMixed, DEFAULT_SEED);
    let out = wl.round(&Recorder::new(false), Ctx::root(0));
    if out.failed > 0 {
        return Err(format!("serve probe: {} HTTP requests failed", out.failed));
    }
    put(m, "serve_http_hit_us_p50", 1.0, &out.hit_us);
    m.insert(
        "serve_http_hit_us_p95",
        (quantile(&out.hit_us, 0.95), out.hit_us.len() as u64),
    );
    put(m, "serve_http_miss_ms_p50", 1.0, &out.miss_ms);
    Ok(())
}

fn sweep(m: &mut Metrics) -> Result<(), String> {
    let figure = |spec: &FigureSpec, jobs: usize| -> Call {
        match run_figure_jobs(spec, &paper_modes(), jobs).skipped.len() {
            0 => Ok(()),
            n => Err(format!("sweep probe: {} skipped {n} points", spec.id)),
        }
    };
    for (name, spec) in [
        ("sweep_figure_ms_p50.fig12", figures::fig12()),
        ("sweep_figure_ms_p50.fig13", figures::fig13()),
        ("sweep_figure_ms_p50.fig17", figures::fig17()),
    ] {
        // A figure takes ~0.3 s: the minimum sample count, whatever the slice.
        put(m, name, 1.0, &sample(Duration::ZERO, || figure(&spec, 1))?);
    }
    // jobs=1 wall over jobs=2 wall; a host with one core cannot
    // produce the ratio, so it reads 0 there (not measured).
    if host::load_threads() < 2 {
        m.insert("sweep_jobs2_ratio", (0.0, 0));
        return Ok(());
    }
    let spec = figures::fig13();
    let (one, two) = sample_pairs(|| figure(&spec, 1), || figure(&spec, 2))?;
    m.insert(
        "sweep_jobs2_ratio",
        (median(&one) / median(&two), one.len() as u64),
    );
    Ok(())
}

/// Run every probe; `budget_s` is shared evenly by the timed ones.
pub fn run_all(budget_s: f64, m: &mut Metrics) -> Result<(), String> {
    let slice = Duration::from_secs_f64(budget_s / SLICES);
    hydro(slice, m)?;
    particles(slice, m)?;
    raja(slice, m)?;
    mpisim(slice, m)?;
    mesh_and_gpusim(slice, m)?;
    core_and_faults(slice, m)?;
    telemetry(m)?;
    serve(slice, m)?;
    sweep(m)
}
