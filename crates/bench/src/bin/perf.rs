//! The perf harness: host wall-clock measurements of the simulator's
//! parallel layers plus the virtual-time studies (rebalance, scenarios
//! and the paper's claims table, [`hsim_bench::claims`]), written
//! as one flat results file ([`hsim_bench::results`]) and gated, in the
//! process that measured them, by one table.
//!
//! Usage: `perf [--quick] [--jobs N] [--host-threads N] [--out PATH] [SECTION…]`
//!
//! With no `SECTION` every study runs. Each returns rows `(key,
//! number | bool)`; [`METRICS`] holds, per key pattern, the unit, the
//! gate rule and the reason for it. `perf` writes the results file,
//! walks that table over the sections the studies it ran write, and
//! exits 1 on any violation.
//!
//! Every bound is a constant or another row of the same run. *Virtual*
//! rows come from the cost model's simulated seconds, the same on every
//! machine, so their constants are recorded values. *Wall* rows time
//! the host, so they are held to loose constants or to a row measured
//! beside them — serial against parallel, fused against legacy, pool
//! against spawn. Comparing wall-clock numbers across commits is the
//! benchmark package's job (`crates/bench/e2e`), which runs parent and
//! change on one host.

use std::hint::black_box;
use std::process::exit;
use std::time::Instant;

use hsim_bench::claims::{self, Tolerance};
use hsim_bench::results::{key_matches, section_of};
use hsim_bench::{paper_modes, roofline, row, rows, run_figure_jobs, serveload};
use hsim_bench::{scenario_cfg, SCENARIO_PARTICLES};
use hsim_bench::{take_count, take_flag};
use hsim_bench::{Results, Row, Value};
use hsim_core::calib::{self, TILE_CANDIDATES};
use hsim_core::figures::{self, FigureSpec};
use hsim_core::runner::{self, RunConfig};
use hsim_core::{ExecMode, RunResult, Scenario};
use hsim_gpu::GpuError;
use hsim_hydro::{eos, flux, fused, HydroState, SoloCoupler};
use hsim_raja::{CpuModel, Executor, Fidelity, Target, WorkPool};
use hsim_telemetry::{Collector, Counter};
use hsim_time::RankClock;

/// Kernel bench grid edge and timed iterations per sample, `--quick`
/// or not: a smaller sample is too short for the parallel:serial
/// ratio to mean anything.
const KERNEL_GRID_N: usize = 56;
const KERNEL_REPS: usize = 3;

/// Timestep for the kernel bench: small enough that repeated sweeps
/// on the hot-spot state stay far from the CFL bound.
const KERNEL_DT: f64 = 1e-5;

/// Tile shape for the parallel fused bench: the serial sweet spot,
/// so the parallel:serial ratio isolates the pool scheduling.
const PARALLEL_TILE: [usize; 2] = [8, 8];

/// Worker counts whose fused output must be byte-identical before the
/// parallel throughput is reported.
const PARALLEL_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Default `--host-threads`: workers for the parallel fused bench and
/// the triad probe.
const DEFAULT_HOST_THREADS: usize = 4;

/// Interleaved pairs behind every same-run wall ratio. On the 2-core
/// CI-class host the median parallel:serial kernel ratio of 7 pairs
/// spread over 1.20–1.84 across 20 runs, of 15 pairs over 1.34–1.46.
const PAIRS: usize = 15;

/// Ceiling on `sweeps.costonly_run_over_floor`. The stepped driver on
/// the 2-core host reads 2.6-3.2 over the two cycles a sweep point
/// steps (messages through one inbox per rank), which this clears by
/// 1.5x; over four cycles and `mpsc` channels it read 3.9-4.1, and the
/// thread-per-rank driver before that read 8-55 there (4.8-6.6 pinned
/// to one vCPU, where hand-offs cross no core).
const COSTONLY_RUN_OVER_FLOOR_MAX: f64 = 5.0;

/// Runs per timed sample of the cost-only run and of its floor: one
/// is a millisecond, too close to a scheduler tick to time alone.
const COSTONLY_REPS: usize = 5;

/// Cycles both sides of `sweeps.costonly_run_over_floor` run. A sweep
/// point steps this many of its ten and adds the rest up (`CpuOnly`
/// shows its period in its second cycle, judged against the end of
/// the first, and reads so at the end of the second), so at ten the
/// run would be compared with a floor doing five times its work.
const COSTONLY_STEPPED_CYCLES: u64 = 2;

/// Floor on `roofline.roof_fraction`: the quarter the gate held while
/// the roof priced the legacy per-pass traffic (1816 B/zone), rescaled
/// to the fused path's counted bytes, so it still means "the kernels
/// or the probe broke" and nothing stricter.
const ROOF_FRACTION_MIN: f64 = 0.25 * 240.0 / 1816.0;

/// Ceiling on `sweeps.costonly_cycles_x8`: eight times the cycles at
/// well under twice the host time. Stepping every cycle read 7.7
/// (0.10 + 0.195 ms a cycle); adding the period up reads 1.0–1.1.
const COSTONLY_CYCLES_X8_MAX: f64 = 2.0;

/// Where `perf` writes when not told otherwise.
const DEFAULT_OUT: &str = "BENCH.json";

/// The studies `perf [SECTION…]` can run, in run order: the
/// virtual-time studies, then the wall-clock ones under the
/// host-counter collector. (A cost-only run steps its ranks on the
/// calling thread, but each rank's collector is installed only while
/// that rank is polled: the harness's is neither recorded into nor
/// replaced.) `kernels` also emits `roofline.*`.
const VIRTUAL_STUDIES: [&str; 3] = ["rebalance", "scenarios", "claims"];
const WALL_STUDIES: [&str; 4] = ["sweeps", "kernels", "pool", "serve"];

/// What the gate holds a metric to: nothing (`Info`), `true`, a
/// constant bound, or a floor stepped by the effective cores the value
/// was emitted with (`(cores, floor)`, highest first).
#[derive(Clone, Copy)]
enum Rule {
    Info,
    IsTrue,
    Bound(Tolerance),
    MinByCores(&'static [(f64, f64)]),
}

/// The floor a [`Rule::MinByCores`] row holds `key` to: that of the
/// first `(cores, floor)` step its sibling `effective_cores` row
/// reaches. NaN — which fails every comparison — when that row is
/// missing.
fn floor_by_cores(r: &Results, key: &str, steps: &[(f64, f64)]) -> f64 {
    let parent = key.rsplit_once('.').map_or(key, |(parent, _)| parent);
    let cores = r.num(&format!("{parent}.effective_cores"));
    let step = steps.iter().find(|s| cores.is_some_and(|c| c >= s.0));
    step.map_or(f64::NAN, |s| s.1)
}

/// One row of the metric table: a key pattern (`*` matches any one
/// segment), its unit, its gate rule and the reason for it.
type Metric = (&'static str, &'static str, Rule, &'static str);

use Rule::{Bound, Info, IsTrue, MinByCores};
use Tolerance::{Above, AtLeast, AtMost, Below};

/// Why each scenario throughput floor sits where it does.
const MZPS_WHY: &str = "virtual-time zone throughput, at least 0.95x the value recorded when the floor was set: the slack absorbs deliberate cost-model recalibration, not noise";

/// Why each scenario error ceiling sits where it does.
const ERROR_WHY: &str = "Sod/Noh L1 vs the exact solution, Taylor-Green kinetic-energy decay error (Sedov has no pointwise reference): at most 1.05x the larger of the two modes' recorded errors";

/// The scenario error ceilings: 1.05x the larger of the two modes'
/// recorded errors (they agree to a few ulps).
const SOD_ERROR_MAX: f64 = 1.05 * 0.00041559435821235174;
const NOH_ERROR_MAX: f64 = 1.05 * 0.0019200000000002548;
const TAYLOR_GREEN_ERROR_MAX: f64 = 1.05 * 0.011485391705560621;

/// Every key the harness may emit. A section is gated by the rows
/// whose rule is not `Info`; each such row must match at least one key
/// of the run.
#[rustfmt::skip]
static METRICS: &[Metric] = &[
    ("sweeps.jobs",               "count", Info, "--jobs: fan-out width of the parallel side"),
    ("sweeps.*.effective_cores",  "count", Info, "min(jobs, host_cores): what the speedup floor is keyed on"),
    ("sweeps.*.tasks",            "count", Info, "sweep points x modes"),
    ("sweeps.*.skipped",          "count", Info, "infeasible points, recorded not run"),
    ("sweeps.*.serial_s",         "s",     Info, "median wall time at --jobs 1"),
    ("sweeps.*.parallel_s",       "s",     Info, "median wall time at --jobs N"),
    ("sweeps.*.speedup",          "x",     MinByCores(&[(2.0, 0.9), (0.0, 0.5)]), "median serial:parallel over interleaved pairs: --jobs N must not lose to serial where more than one effective core exists; on one (--jobs 4 there is oversubscription) only fan-out overhead is bounded"),
    ("sweeps.*.identical_output", "bool",  IsTrue, "--jobs N must not change a byte of the figure CSV or markdown"),
    ("sweeps.costonly_run_over_floor", "x", Bound(AtMost(COSTONLY_RUN_OVER_FLOOR_MAX)), "median over interleaved pairs of a cost-only 16-rank run against its own pricing work done solo on the same thread, both over the 2 cycles such a run steps before it adds its period up: what is left is set-up, message hand-off and the cycle marks, and a thread per rank, which has nothing to run in parallel here, reads 8 and up on two cores"),
    ("sweeps.costonly_cycles_x8", "x", Bound(AtMost(COSTONLY_CYCLES_X8_MAX)), "median over interleaved pairs of one cost-only heterogeneous point at 80 cycles against the same point at 10: a run's host time is that of the cycles it takes to see its period, not proportional to `cycles` (stepping them all reads 7.7)"),

    ("kernels.legacy_mzones_per_s",            "Mz/s",  Info, "per-pass reference kernels"),
    ("kernels.tiles.*.fused_mzones_per_s",     "Mz/s",  Info, "fused cache-blocked kernels at this tile"),
    ("kernels.tiles.*.ratio",                  "x",     Bound(AtLeast(1.0)), "fused must not lose to the per-pass kernels it replaced at any cache-blocked tile"),
    ("kernels.tiles.*.identical_output",       "bool",  IsTrue, "fused output must equal legacy bit for bit"),
    ("kernels.whole.fused_mzones_per_s",       "Mz/s",  Info, "whole-plane tile: fusion without cache blocking"),
    ("kernels.whole.ratio",                    "x",     Info, "blocking ablation, not gated"),
    ("kernels.whole.identical_output",         "bool",  IsTrue, "fused output must equal legacy bit for bit"),
    ("kernels.best_blocked_ratio",             "x",     Bound(AtLeast(1.3)), "fusing removes whole-array passes: the best cache-blocked tile must beat legacy by 1.3x on any host"),
    ("kernels.parallel.workers",               "count", Info, "--host-threads"),
    ("kernels.parallel.effective_cores",       "count", Info, "min(workers, host_cores): what the ratio floor is keyed on"),
    ("kernels.parallel.serial_mzones_per_s",   "Mz/s",  Info, "median serial fused throughput on the 8x8 tile"),
    ("kernels.parallel.parallel_mzones_per_s", "Mz/s",  Info, "median parallel-tile fused throughput on the 8x8 tile"),
    ("kernels.parallel.ratio",                 "x",     MinByCores(&[(4.0, 2.0), (2.0, 1.2), (0.0, 0.35)]), "median parallel:serial over interleaved pairs: with 4+ effective cores the parallel-tile path must double serial fused, with 2-3 it must still win, on one (oversubscribed) only scheduling overhead is bounded"),
    ("kernels.parallel.identical_output",      "bool",  IsTrue, "worker counts 1, 2, 4 and --host-threads must all reproduce the legacy bytes"),

    ("roofline.triad_gbps",              "GB/s",   Info, "STREAM triad at --host-threads workers"),
    ("roofline.triad_workers",           "count",  Info, "triad fan-out"),
    ("roofline.bytes_per_zone",          "B",      Info, "compulsory traffic of fused primitives + one fused first-order sweep, stores once"),
    ("roofline.flops_per_zone",          "flop",   Info, "flops the fused bodies execute per zone"),
    ("roofline.arithmetic_intensity",    "flop/B", Info, "under 1, far below a core's balance: bandwidth-bound"),
    ("roofline.predicted_mzones_per_s",  "Mz/s",   Info, "triad bandwidth / bytes_per_zone"),
    ("roofline.best_mzones_per_s",       "Mz/s",   Info, "best fused throughput of this run, serial or parallel"),
    ("roofline.roof_fraction",           "x",      Bound(AtLeast(ROOF_FRACTION_MIN)), "best fused throughput over the compulsory-traffic roof; under the floor (a quarter of the old 1816 B/zone per-pass roof, rescaled to the counted bytes) means the kernels or the probe broke; no ceiling of 1 yet: a last-level cache that holds the triad arrays lifts the roof and the working set alike"),
    ("roofline.kernel.*.flops_per_elem", "flop",   Info, "kernel catalog"),
    ("roofline.kernel.*.bytes_per_elem", "B",      Info, "kernel catalog"),
    ("roofline.kernel.*.intensity",      "flop/B", Info, "kernel catalog"),

    ("pool.workers",                "count",   Info, "pool parallelism (--jobs)"),
    ("pool.region_ns_persistent",   "ns",      Info, "median per-region handoff on the persistent pool"),
    ("pool.region_ns_scoped_spawn", "ns",      Info, "median per-region cost of spawning scoped threads instead"),
    ("pool.persistent_over_spawn",  "x",       Bound(Below(1.0)), "the persistent pool must beat the spawn-per-region baseline it replaced, same run, same host"),
    ("pool.sum_melems_per_s",       "Melem/s", Info, "pool reduction throughput"),

    ("serve.hits",             "count", Info, "cache hits and single-flight joins"),
    ("serve.misses",           "count", Info, "executions"),
    ("serve.admitted",         "count", Info, "requests past admission"),
    ("serve.deadline_drops",   "count", Info, "requests that outlived their deadline"),
    ("serve.hit_rate",         "frac",  Bound(AtLeast(0.5)), "every config is requested many times: below half means the content-hash cache or the single-flight join broke"),
    ("serve.p50_us",           "us",    Bound(AtMost(50_000.0)), "the median request is a cache hit (hash + map lookup), orders of magnitude under this on any host"),
    ("serve.p50_us",           "us",    Bound(Above(0.0)), "quantiles are nanosecond-recorded: a zero median means sub-millisecond hits truncated again"),
    ("serve.p99_us",           "us",    Bound(AtMost(10_000_000.0)), "covers a full cold run of the load driver's workload on a slow host"),
    ("serve.rejected",         "count", Bound(AtLeast(1.0)), "the overflow probe must be rejected at least once"),
    ("serve.rejections_typed", "bool",  IsTrue, "every overflow must surface as the typed QueueFull with the configured capacity"),
    ("serve.http.effective_cores",    "count", Info, "min(2, host_cores): what the speedup floor is keyed on"),
    ("serve.http.two_client_speedup", "x",     MinByCores(&[(2.0, 1.3), (0.0, 0.8)]), "median over interleaved pairs, fresh server each side, of the same 24 distinct cost-only misses sent over HTTP by one closed-loop client / by two: the front end must let two clients' runs overlap on the two workers where two cores exist (2.0-2.4 on the 2-core host; the serial accept loop it replaced read 1.1-1.2, the second client hiding only its own connect); on one core only the hand-off overhead is bounded"),

    ("rebalance.*.ratio",                     "x",     Info, "per-core CPU speed multiplier"),
    ("rebalance.*.start",                     "frac",  Info, "the wrong split the controller starts from"),
    ("rebalance.*.guard",                     "frac",  Info, "the 12/ny granularity guard for this grid"),
    ("rebalance.*.optimum",                   "frac",  Info, "analytic optimum from the fixed-point probe"),
    ("rebalance.*.optimum_realized",          "frac",  Info, "the optimum after plane quantization"),
    ("rebalance.*.final",                     "frac",  Info, "the controller's final realized split"),
    ("rebalance.*.final_minus_guard",         "frac",  Bound(AtLeast(-1e-9)), "no split may sit below the 12/ny guard"),
    ("rebalance.*.rel_err",                   "frac",  Bound(AtMost(0.05)), "final split vs the quantized analytic optimum; a converged controller lands on the identical discrete split and reads 0"),
    ("rebalance.*.converged_cycle",           "cycle", Bound(AtMost(10.0)), "settled inside the 5% band and stayed there (9999 = never)"),
    ("rebalance.*.resplits",                  "count", Info, "re-splits taken"),
    ("rebalance.*.holds",                     "count", Info, "boundaries where hysteresis held"),
    ("rebalance.*.clamped",                   "bool",  Info, "the optimum itself hit the guard"),
    ("rebalance.*.clamped_offset",            "frac",  Bound(AtMost(1e-9)), "|final - guard| of a clamped point: it must pin to the guard"),
    ("rebalance.recovery.identical",          "bool",  IsTrue, "the same-seed controlled rank.loss double run must replay byte for byte"),
    ("rebalance.recovery.frozen",             "count", Bound(AtLeast(1.0)), "the loss must freeze the controller"),
    ("rebalance.recovery.rank_losses",        "count", Bound(AtLeast(1.0)), "the injected loss must be recorded"),
    ("rebalance.recovery.ranks_after",        "count", Info, "survivors after the foldback"),
    ("rebalance.recovery.post_loss_fraction", "frac",  Info, "the frozen post-loss split"),
    ("rebalance.recovery.account_residual_ns", "ns",   Bound(AtMost(0.0)), "max over ranks of |sum of the six buckets - total|, folded across the re-split and foldback segments: a rank has one clock"),

    ("scenarios.*.*.virtual_s",                "s",    Info, "simulated runtime"),
    ("scenarios.sedov.cpu.mzps",               "Mz/s", Bound(AtLeast(0.95 * 9.172065348378002)), MZPS_WHY),
    ("scenarios.sedov.hetero.mzps",            "Mz/s", Bound(AtLeast(0.95 * 25.304767172665905)), MZPS_WHY),
    ("scenarios.sod.cpu.mzps",                 "Mz/s", Bound(AtLeast(0.95 * 6.68131875301896)), MZPS_WHY),
    ("scenarios.sod.hetero.mzps",              "Mz/s", Bound(AtLeast(0.95 * 4.943851348914935)), MZPS_WHY),
    ("scenarios.noh.cpu.mzps",                 "Mz/s", Bound(AtLeast(0.95 * 9.55549501052555)), MZPS_WHY),
    ("scenarios.noh.hetero.mzps",              "Mz/s", Bound(AtLeast(0.95 * 32.93422161128964)), MZPS_WHY),
    ("scenarios.taylor-green.cpu.mzps",        "Mz/s", Bound(AtLeast(0.95 * 9.770209553972183)), MZPS_WHY),
    ("scenarios.taylor-green.hetero.mzps",     "Mz/s", Bound(AtLeast(0.95 * 42.83743561054401)), MZPS_WHY),
    ("scenarios.sod.cpu.error",                "err",  Bound(AtMost(SOD_ERROR_MAX)), ERROR_WHY),
    ("scenarios.sod.hetero.error",             "err",  Bound(AtMost(SOD_ERROR_MAX)), ERROR_WHY),
    ("scenarios.noh.cpu.error",                "err",  Bound(AtMost(NOH_ERROR_MAX)), ERROR_WHY),
    ("scenarios.noh.hetero.error",             "err",  Bound(AtMost(NOH_ERROR_MAX)), ERROR_WHY),
    ("scenarios.taylor-green.cpu.error",       "err",  Bound(AtMost(TAYLOR_GREEN_ERROR_MAX)), ERROR_WHY),
    ("scenarios.taylor-green.hetero.error",    "err",  Bound(AtMost(TAYLOR_GREEN_ERROR_MAX)), ERROR_WHY),
    ("scenarios.*.*.identical",                "bool", IsTrue, "the same-seed double run must be bit-identical"),
    ("scenarios.*.*.particles_conserved",      "bool", IsTrue, "tracer count and finite momentum must survive the run"),
    ("scenarios.*.*.migrated",                 "count", Info, "cross-rank particle migrations"),
    ("scenarios.*.*.account_residual_ns",      "ns",   Bound(AtMost(0.0)), "max over ranks of |sum of the six buckets - total|: charging a bucket is the only way a rank's clock advances"),

    ("claims.*",       "value", Info,   "a claim's measured ratio, gain or share; hsim_bench::claims has what each row runs and its tolerance"),
    ("claims.*.holds", "bool",  IsTrue, "the paper's statement, checked on the virtual clock: the claim's value must lie in its tolerance"),

    ("telemetry.host_sweep_points", "count", Info, "sweep points the host counters saw"),
    ("telemetry.host_sweep_nanos",  "ns",    Info, "host time inside sweep points"),
    ("telemetry.host_pool_regions", "count", Info, "pool regions the host counters saw"),
    ("telemetry.host_pool_nanos",   "ns",    Info, "host time inside pool regions"),
];

/// The sections the studies `want` selects write, and so gate: each
/// study's own, and `roofline` for `kernels`.
fn owned_sections(want: impl Fn(&str) -> bool) -> Vec<&'static str> {
    let studies = VIRTUAL_STUDIES.into_iter().chain(WALL_STUDIES);
    let mut out: Vec<&'static str> = studies.filter(|s| want(s)).collect();
    if want("kernels") {
        out.push("roofline");
    }
    out
}

/// Gate `r` on `sections`: every non-`Info` table row of those
/// sections must match at least one key, and every key it matches
/// must satisfy it. Returns the violations and the log of checks that
/// passed; every line quotes the bound and the measured value.
fn gate(r: &Results, sections: &[&str]) -> (Vec<String>, Vec<String>) {
    let (mut bad, mut log) = (Vec::new(), Vec::new());
    for &(pattern, unit, rule, why) in METRICS {
        if matches!(rule, Info) || !sections.contains(&section_of(pattern)) {
            continue;
        }
        let keys: Vec<&String> = r
            .metrics
            .keys()
            .filter(|k| key_matches(pattern, k))
            .collect();
        if keys.is_empty() {
            bad.push(format!("missing {pattern}"));
        }
        for key in keys {
            // The bound a number must lie in; `None` for a bool that
            // must be true. A value of the other type fails.
            let bound = match rule {
                Bound(t) => Some(t),
                MinByCores(steps) => Some(AtLeast(floor_by_cores(r, key, steps))),
                _ => None,
            };
            let v = r.metrics[key];
            let pass = match (bound, v) {
                (Some(t), Value::Num(x)) => t.admits(x),
                (None, Value::Bool(ok)) => ok,
                _ => false,
            };
            let want = bound.map_or("true".to_string(), |t| t.to_string());
            if pass {
                log.push(format!("{key} [{unit}] {v}: want {want}"));
            } else {
                bad.push(format!("{key} [{unit}]: want {want}, measured {v} — {why}"));
            }
        }
    }
    (bad, log)
}

fn usage() -> ! {
    eprintln!("usage: perf [--quick] [--jobs N] [--host-threads N] [--out PATH] [SECTION...]");
    eprintln!("sections: {VIRTUAL_STUDIES:?} {WALL_STUDIES:?}");
    exit(2);
}

/// Run `pair` [`PAIRS`] times — each call measures both sides of a
/// ratio back to back — and return the median of each side and of the
/// per-pair ratio `first / second`. Interleaving puts both sides
/// under the same host conditions, and the median drops the pairs a
/// scheduler hiccup landed on: what one short sample cannot do.
fn median_of_pairs(mut pair: impl FnMut() -> (f64, f64)) -> [f64; 3] {
    let samples: Vec<(f64, f64)> = (0..PAIRS).map(|_| pair()).collect();
    let median = |of: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = samples.iter().map(of).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    [
        median(|s| s.0),
        median(|s| s.1),
        median(|s| s.0 / s.1.max(1e-12)),
    ]
}

/// What the HTTP front end lets overlap: the same batch of misses from
/// one closed-loop client against from two, a fresh server each side.
fn measure_serve_http(host_cores: usize) -> Vec<Row> {
    let n = serveload::HTTP_MISSES;
    eprintln!("serve http: {n} misses over loopback, one client vs two...");
    let tile = calib::auto_tile();
    let [_, _, speedup] = median_of_pairs(|| {
        let one = serveload::http_miss_round(tile, 1);
        (one, serveload::http_miss_round(tile, 2))
    });
    rows!("serve.http";
        "two_client_speedup" => speedup, "effective_cores" => host_cores.min(2),
    )
    .into()
}

/// A small custom sweep so `--quick` finishes in seconds anywhere.
fn quick_spec() -> FigureSpec {
    FigureSpec {
        id: "quick",
        caption: "trimmed sweep for the perf harness",
        sweep: figures::SweepAxis::X,
        values: vec![64, 96, 128, 160],
        fixed: (48, 32),
        scenario: Scenario::Sedov,
    }
}

/// Sweep fan-out: serial vs `--jobs N` wall time per figure sweep,
/// asserted byte-identical before any number is reported. Quick mode
/// runs a trimmed spec; the full harness adds the paper's Fig. 14.
fn measure_sweeps(quick: bool, jobs: usize, host_cores: usize) -> Vec<Row> {
    let mut specs = vec![quick_spec()];
    specs.extend(
        figures::all_figures()
            .into_iter()
            .find(|s| !quick && s.id == "fig14"),
    );
    let modes = paper_modes();
    let mut out = Vec::new();
    for spec in &specs {
        let (id, tasks) = (spec.id, modes.len() * spec.values.len());
        eprintln!("sweep {id}: {tasks} tasks, serial vs --jobs {jobs}...");
        let mut skipped = 0;
        let [serial_s, parallel_s, speedup] = median_of_pairs(|| {
            let t0 = Instant::now();
            let serial = run_figure_jobs(spec, &modes, 1);
            let serial_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let parallel = run_figure_jobs(spec, &modes, jobs);
            let parallel_s = t1.elapsed().as_secs_f64();
            // The whole point of deterministic fan-out.
            let (s_csv, p_csv) = (serial.to_csv(), parallel.to_csv());
            assert_eq!(s_csv, p_csv, "{id}: --jobs changed the CSV");
            let (s_md, p_md) = (serial.to_markdown(), parallel.to_markdown());
            assert_eq!(s_md, p_md, "{id}: --jobs changed the markdown");
            skipped = serial.skipped.len();
            (serial_s, parallel_s)
        });
        out.extend(rows!(format!("sweeps.{id}");
            "tasks" => tasks, "skipped" => skipped, "serial_s" => serial_s,
            "parallel_s" => parallel_s, "speedup" => speedup,
            "effective_cores" => jobs.min(host_cores),
            "identical_output" => true,
        ));
    }
    out.push(row("sweeps.jobs", jobs));
    // The run's ranks record nothing (`cfg.telemetry` is off), so the
    // solo floor must not record into the harness's collector either.
    let harness = hsim_telemetry::swap(None);
    out.push(row(
        "sweeps.costonly_run_over_floor",
        costonly_run_over_floor(),
    ));
    out.push(row("sweeps.costonly_cycles_x8", costonly_cycles_x8()));
    hsim_telemetry::swap(harness);
    out
}

/// Wall seconds of [`COSTONLY_REPS`] calls of `f`.
fn costonly_secs(f: &dyn Fn()) -> f64 {
    let t0 = Instant::now();
    (0..COSTONLY_REPS).for_each(|_| f());
    t0.elapsed().as_secs_f64()
}

/// What a cost-only run costs beyond pricing its kernels: the median,
/// over interleaved pairs, of the wall time of a 16-rank `CpuOnly`
/// sweep point over that of its *floor* — the same sixteen subdomains
/// stepped the same [`COSTONLY_STEPPED_CYCLES`] cycles one after
/// another with no peers, which is all the cost-model arithmetic of
/// the run and nothing else. Both sides run on this thread, so the
/// ratio is a property of the code, not of how many cores the host has
/// free.
fn costonly_run_over_floor() -> f64 {
    let mut cfg = RunConfig::sweep((320, 240, 160), ExecMode::CpuOnly);
    cfg.cycles = COSTONLY_STEPPED_CYCLES;
    let decomp = runner::build_decomposition(&cfg, 0.0).expect("block decomposition");
    let floor = || {
        for sub in &decomp.domains {
            let mut st = HydroState::new(decomp.grid, *sub, Fidelity::CostOnly);
            let mut exec = Executor::new(Target::CpuSeq, cfg.node.cpu.clone(), Fidelity::CostOnly);
            let mut clock = RankClock::new(0);
            for _ in 0..cfg.cycles {
                let cycle = hsim_hydro::step(
                    &mut st,
                    &mut exec,
                    &mut clock,
                    &mut SoloCoupler,
                    calib::CFL,
                    calib::COST_ONLY_DT,
                );
                cycle.expect("solo cost-only cycle");
            }
            black_box(clock.now());
        }
    };
    let run = || drop(black_box(runner::run(&cfg).expect("cost-only run")));
    eprintln!("cost-only run vs its pricing floor, {COSTONLY_REPS} runs a sample...");
    let [_, _, ratio] = median_of_pairs(|| (costonly_secs(&run), costonly_secs(&floor)));
    ratio
}

/// What eight times the cycles cost a cost-only run: the median, over
/// interleaved pairs, of the wall time of one heterogeneous sweep
/// point at 80 cycles over the same point at 10.
fn costonly_cycles_x8() -> f64 {
    let point = |cycles| {
        let mut cfg = RunConfig::sweep((320, 240, 160), ExecMode::hetero());
        cfg.cycles = cycles;
        move || drop(black_box(runner::run(&cfg).expect("cost-only run")))
    };
    let (long, short) = (point(8 * calib::SWEEP_CYCLES), point(calib::SWEEP_CYCLES));
    eprintln!("cost-only run at 80 cycles vs at 10, {COSTONLY_REPS} runs a sample...");
    let [_, _, ratio] = median_of_pairs(|| (costonly_secs(&long), costonly_secs(&short)));
    ratio
}

/// A deterministic full-fidelity state with a hot central zone, so the
/// benched sweeps move real (non-zero) fluxes through the cache.
fn kernel_state(n: usize) -> HydroState {
    let grid = hsim_mesh::GlobalGrid::new(n, n, n);
    let sub = hsim_mesh::Subdomain::new([0, 0, 0], [n, n, n], 1);
    let mut st = HydroState::new(grid, sub, Fidelity::Full);
    st.init_ambient(1.0, 0.4);
    let c = n / 2 + 1; // allocated index of a central owned zone
    st.u.set(hsim_hydro::state::EN, c, c, c, 50.0);
    st
}

type PrimitivesFn = fn(&mut HydroState, &mut Executor, &mut RankClock) -> Result<(), GpuError>;
type SweepFn = fn(&mut HydroState, &mut Executor, &mut RankClock, f64) -> Result<(), GpuError>;

/// The fused cache-blocked kernels and the per-pass kernels they
/// replaced (one whole-array traversal per logical kernel).
const FUSED: (PrimitivesFn, SweepFn) = (fused::primitives, fused::sweep);
const LEGACY: (PrimitivesFn, SweepFn) = (eos::primitives, flux::sweep);

/// The one kernel timing loop: [`KERNEL_REPS`] (primitive recovery +
/// first-order sweep) iterations of `kernels` on `target` over a fresh
/// state, after one untimed warm-up iteration that keeps first-touch
/// and allocator effects out. Returns million zones per wall-clock
/// second and the end state — every flavour runs the same iteration
/// count, so end states compare bit for bit.
fn time_kernels(
    target: Target,
    tile: [usize; 2],
    (primitives, sweep): (PrimitivesFn, SweepFn),
) -> (f64, HydroState) {
    let mut st = kernel_state(KERNEL_GRID_N);
    st.tile = tile;
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    let mut iterate = |st: &mut HydroState| {
        primitives(st, &mut exec, &mut clock).expect("kernel bench primitives");
        sweep(st, &mut exec, &mut clock, KERNEL_DT).expect("kernel bench sweep");
    };
    iterate(&mut st);
    let t0 = Instant::now();
    for _ in 0..KERNEL_REPS {
        iterate(&mut st);
    }
    let zones = (KERNEL_GRID_N.pow(3) * KERNEL_REPS) as f64;
    (zones / t0.elapsed().as_secs_f64() / 1e6, st)
}

/// The fused path exists to move throughput, never bytes: every tile
/// shape and worker count must reproduce the legacy per-pass kernels
/// bit for bit, conserved state and primitives alike.
fn assert_kernels_identical(fused: &HydroState, legacy: &HydroState, label: &str) {
    let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    let (u, prim) = (fused.u.slab(), fused.prim.slab());
    let same = same(u, legacy.u.slab()) && same(prim, legacy.prim.slab());
    assert!(
        same,
        "kernel bench {label}: fused output diverged from legacy"
    );
}

/// The `kernels.*` and `roofline.*` rows: fused-vs-legacy throughput
/// per tile candidate plus a whole-plane tile that keeps the fusion
/// but ablates the blocking; the parallel-tile fused path (tiles
/// scheduled over the process-wide shared pool) against the serial
/// one at `host_threads` workers; and the triad-bandwidth roof the
/// best of them is held against.
fn measure_kernels(quick: bool, host_threads: usize, host_cores: usize) -> Vec<Row> {
    let (n, reps) = (KERNEL_GRID_N, KERNEL_REPS);
    eprintln!("kernel bench: legacy, fused per tile, fused parallel: {reps} reps on {n}^3 each...");
    // The per-pass kernels ignore the tile shape.
    let (legacy_mzps, legacy_st) = time_kernels(Target::CpuSeq, PARALLEL_TILE, LEGACY);
    let mut out = vec![row("kernels.legacy_mzones_per_s", legacy_mzps)];
    let (mut best_mzps, mut best_blocked_ratio) = (0.0_f64, 0.0_f64);
    let whole = [n + 2, n + 2];
    for tile in TILE_CANDIDATES.into_iter().chain([whole]) {
        let at = if tile == whole {
            "kernels.whole".to_string()
        } else {
            format!("kernels.tiles.{}", calib::tile_spec(tile))
        };
        let (mzps, st) = time_kernels(Target::CpuSeq, tile, FUSED);
        assert_kernels_identical(&st, &legacy_st, &at);
        let ratio = mzps / legacy_mzps.max(1e-12);
        best_mzps = best_mzps.max(mzps);
        if tile != whole {
            best_blocked_ratio = best_blocked_ratio.max(ratio);
        }
        out.extend(rows!(at;
            "fused_mzones_per_s" => mzps, "ratio" => ratio, "identical_output" => true,
        ));
    }
    out.push(row("kernels.best_blocked_ratio", best_blocked_ratio));

    // Worker-count invariance before any parallel throughput is
    // believed (1 thread = the pool degenerates to the caller).
    let on_pool = |threads: usize| Target::CpuParallel {
        pool: WorkPool::shared(threads.saturating_sub(1)),
    };
    for threads in PARALLEL_WORKER_COUNTS.into_iter().chain([host_threads]) {
        let (_, st) = time_kernels(on_pool(threads), PARALLEL_TILE, FUSED);
        assert_kernels_identical(&st, &legacy_st, &format!("parallel x{threads}"));
    }
    let [parallel_mzps, serial_mzps, ratio] = median_of_pairs(|| {
        (
            time_kernels(on_pool(host_threads), PARALLEL_TILE, FUSED).0,
            time_kernels(Target::CpuSeq, PARALLEL_TILE, FUSED).0,
        )
    });
    out.extend(rows!("kernels.parallel";
        "workers" => host_threads, "effective_cores" => host_threads.min(host_cores),
        "serial_mzones_per_s" => serial_mzps, "parallel_mzones_per_s" => parallel_mzps,
        "ratio" => ratio, "identical_output" => true,
    ));

    let (triad_len, triad_reps) = if quick { (1 << 20, 3) } else { (1 << 22, 5) };
    eprintln!("roofline: triad probe, {triad_reps} reps x {triad_len} elems x{host_threads}...");
    let triad = roofline::measure_triad(host_threads, triad_len, triad_reps);
    let predicted_mzps = roofline::predicted_mzones_per_s(triad.gbps);
    let best_mzps = best_mzps.max(parallel_mzps);
    out.extend(rows!("roofline";
        "triad_gbps" => triad.gbps, "triad_workers" => triad.workers,
        "bytes_per_zone" => roofline::first_order_bytes_per_zone(),
        "flops_per_zone" => roofline::first_order_flops_per_zone(),
        "arithmetic_intensity" => roofline::first_order_intensity(),
        "predicted_mzones_per_s" => predicted_mzps, "best_mzones_per_s" => best_mzps,
        "roof_fraction" => best_mzps / predicted_mzps.max(1e-12),
    ));
    for (name, flops, bytes, intensity) in roofline::kernel_intensities() {
        out.extend(rows!(format!("roofline.kernel.{name}");
            "flops_per_elem" => flops, "bytes_per_elem" => bytes, "intensity" => intensity,
        ));
    }
    out
}

/// Pool microbenches on the calling thread (the coordinator role the
/// runner plays): the per-region handoff of the persistent workers
/// against spawning scoped threads per region, as `for_chunks` did
/// before workers became persistent, plus reduction throughput.
fn measure_pool(quick: bool, jobs: usize) -> Vec<Row> {
    let [regions, elems, reps] = if quick {
        [200, 1 << 20, 4]
    } else {
        [2000, 1 << 23, 8]
    };
    let pool = WorkPool::new(jobs.saturating_sub(1));
    let threads = pool.parallelism();
    eprintln!("pool microbench: {regions} regions, {threads} threads...");
    let per_region = |t0: Instant| t0.elapsed().as_nanos() as f64 / regions as f64;
    let [persistent, spawn, persistent_over_spawn] = median_of_pairs(|| {
        let t0 = Instant::now();
        for _ in 0..regions {
            pool.for_chunks(0, 64, 64, |_, _| {});
        }
        let persistent = per_region(t0);
        let t1 = Instant::now();
        for _ in 0..regions {
            std::thread::scope(|s| (0..threads).for_each(|_| drop(s.spawn(|| black_box(64)))));
        }
        (persistent, per_region(t1))
    });
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        acc += pool.sum(0, elems, 1024, |i| i as f64 * 1e-9);
    }
    black_box(acc);
    let sum_melems_per_s = (elems * reps) as f64 / t0.elapsed().as_secs_f64() / 1e6;
    rows!("pool";
        "workers" => threads, "region_ns_persistent" => persistent,
        "region_ns_scoped_spawn" => spawn, "persistent_over_spawn" => persistent_over_spawn,
        "sum_melems_per_s" => sum_melems_per_s,
    )
    .into()
}

/// The scenario regression study: every first-class scenario in both
/// modes at full fidelity with the tracer phase on, double-running
/// each config to prove same-seed identity. All numbers are
/// virtual-time, so the rows are reproducible on any machine. The
/// `error` row is the scenario's analytic-error metric and is absent
/// where there is no pointwise reference (Sedov).
fn scenario_rows() -> Vec<Row> {
    let fingerprint = |r: &RunResult| -> Vec<u64> {
        let sc = r.scenario.as_ref().expect("scenario problems report");
        let p = r.particles.as_ref().expect("particles were configured");
        vec![
            r.mass.expect("full fidelity reports mass").to_bits(),
            sc.t_end.to_bits(),
            sc.error.map_or(0, f64::to_bits),
            r.runtime.as_nanos(),
            p.count,
            p.momentum[0].to_bits(),
            p.momentum[1].to_bits(),
            p.momentum[2].to_bits(),
            p.checksum,
        ]
    };
    let mut out = Vec::new();
    for s in Scenario::ALL {
        for (mode_name, mode) in [("cpu", ExecMode::CpuOnly), ("hetero", ExecMode::hetero())] {
            let cfg = scenario_cfg(s, mode);
            let (nx, ny, nz) = cfg.grid;
            let a = runner::run(&cfg).expect("scenario study run");
            let b = runner::run(&cfg).expect("scenario study rerun");
            let sc = a.scenario.as_ref().expect("scenario problems report");
            let p = a.particles.as_ref().expect("particles were configured");
            let virtual_s = a.runtime.as_secs_f64();
            let zone_cycles = (nx * ny * nz) as f64 * a.cycles as f64;
            let conserved =
                p.count == SCENARIO_PARTICLES && p.momentum.iter().all(|m| m.is_finite());
            let at = format!("scenarios.{}.{mode_name}", s.name());
            out.extend(rows!(&at;
                "virtual_s" => virtual_s, "mzps" => zone_cycles / virtual_s.max(1e-12) / 1e6,
                "identical" => fingerprint(&a) == fingerprint(&b),
                "particles_conserved" => conserved, "migrated" => p.migrated,
                "account_residual_ns" => a.account_residual().as_nanos(),
            ));
            out.extend(sc.error.map(|e| row(format!("{at}.error"), e)));
        }
    }
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| DEFAULT_OUT.into());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = take_count(&mut args, "--jobs", host_cores);
    let host_threads = take_count(&mut args, "--host-threads", DEFAULT_HOST_THREADS);
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let known = |a: &str| VIRTUAL_STUDIES.contains(&a) || WALL_STUDIES.contains(&a);
    if let Some(stray) = args.iter().find(|a| !known(a)) {
        eprintln!("unknown argument: {stray}");
        usage();
    }
    let want = |study: &str| args.is_empty() || args.iter().any(|a| a == study);

    let mut results = Results::new(host_cores);
    if want("rebalance") {
        let report = hsim_bench::run_rebalance_report().unwrap_or_else(|e| {
            eprintln!("rebalance study failed: {e}");
            exit(1);
        });
        eprintln!("{}", report.to_markdown());
        results.extend(report.rows());
    }
    if want("scenarios") {
        let n = Scenario::ALL.len();
        eprintln!("scenario study: {n} scenarios x 2 modes, full fidelity, double runs...");
        results.extend(scenario_rows());
    }
    if want("claims") {
        eprintln!(
            "claims: {} rows of the paper's statements...",
            claims::CLAIMS.len()
        );
        let outcomes = claims::check_all();
        outcomes.iter().for_each(|o| eprintln!("{o}"));
        results.extend(claims::rows(&outcomes));
    }
    if WALL_STUDIES.iter().any(|s| want(s)) {
        // Collect the host-time counters the measured code records;
        // spans stay off so the collector costs nothing measurable.
        hsim_telemetry::install(Collector::new(0).without_spans());
        if want("sweeps") {
            results.extend(measure_sweeps(quick, jobs, host_cores));
        }
        if want("kernels") {
            results.extend(measure_kernels(quick, host_threads, host_cores));
        }
        if want("pool") {
            results.extend(measure_pool(quick, jobs));
        }
        if want("serve") {
            let (clients, each) = (serveload::CLIENTS, serveload::PER_CLIENT);
            eprintln!("serve load: {clients} clients x {each} requests, then overflow probe...");
            // Seeding the server with the process's probed tile keeps
            // the driver from paying (or racing on) the probe.
            results.extend(hsim_bench::run_load(calib::auto_tile()).rows());
            results.extend(measure_serve_http(host_cores));
        }
        let metrics = hsim_telemetry::uninstall()
            .expect("collector installed above")
            .metrics;
        results.extend(rows!("telemetry";
            "host_sweep_points" => metrics.counter(Counter::HostSweepPoints),
            "host_sweep_nanos" => metrics.counter(Counter::HostSweepNanos),
            "host_pool_regions" => metrics.counter(Counter::HostPoolRegions),
            "host_pool_nanos" => metrics.counter(Counter::HostPoolNanos),
        ));
    }

    for key in results.metrics.keys() {
        let listed = METRICS.iter().any(|m| key_matches(m.0, key));
        assert!(listed, "{key} has no METRICS row");
    }
    let json = results.to_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        exit(1);
    });
    eprintln!("wrote {out_path}");
    print!("{json}");

    let (bad, log) = gate(&results, &owned_sections(want));
    for line in &log {
        eprintln!("gate: ok: {line}");
    }
    for v in &bad {
        eprintln!("gate: FAIL: {v}");
    }
    if !bad.is_empty() {
        exit(1);
    }
    eprintln!("gate: PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_roof_floor_tracks_the_counted_bytes() {
        assert_eq!(
            ROOF_FRACTION_MIN,
            0.25 * roofline::first_order_bytes_per_zone() / 1816.0
        );
    }

    const N: fn(f64) -> Value = Value::Num;
    const B: fn(bool) -> Value = Value::Bool;

    /// Every section any command line gates.
    fn all() -> Vec<&'static str> {
        owned_sections(|_| true)
    }

    /// A healthy full run on a 4-core host: every gated key, plus the
    /// rows the floor functions read. Two rebalance points share a
    /// speed ratio and are told apart by their keys.
    fn healthy() -> Results {
        let mut r = Results::new(4);
        r.extend(rows!("sweeps.quick"; "effective_cores" => 4u64, "speedup" => 2.9, "identical_output" => true));
        r.extend(rows!("sweeps"; "costonly_run_over_floor" => 3.3, "costonly_cycles_x8" => 1.05));
        for (tile, ratio) in [("4x4", 1.35), ("8x8", 1.62), ("16x16", 1.51)] {
            let at = format!("kernels.tiles.{tile}");
            r.extend(rows!(at; "ratio" => ratio, "identical_output" => true));
        }
        r.extend(rows!("kernels.whole"; "ratio" => 1.08, "identical_output" => true));
        r.extend(rows!("kernels.parallel"; "effective_cores" => 4u64, "ratio" => 2.6, "identical_output" => true));
        r.extend(rows!("kernels"; "best_blocked_ratio" => 1.62));
        r.extend(rows!("roofline"; "roof_fraction" => 0.62));
        r.extend(rows!("pool"; "persistent_over_spawn" => 0.06));
        r.extend(rows!("serve";
            "hit_rate" => 0.875, "p50_us" => 412.5, "p99_us" => 120_000.0,
            "rejected" => 3u64, "rejections_typed" => true,
        ));
        r.extend(rows!("serve.http"; "effective_cores" => 2u64, "two_client_speedup" => 1.5));
        for (point, rel_err, converged, above_guard) in [
            ("r025_s30", 0.0, 4u64, 0.004167),
            ("r100_s30", 0.0, 6, 0.0125),
            ("r100_s45", 0.01, 2, 0.0),
        ] {
            r.extend(rows!(format!("rebalance.{point}");
                "rel_err" => rel_err, "converged_cycle" => converged, "final_minus_guard" => above_guard,
            ));
        }
        r.extend(rows!("rebalance.r100_s45"; "clamped_offset" => 0.0));
        r.extend(rows!("rebalance.recovery";
            "identical" => true, "frozen" => 1u64, "rank_losses" => 1u64, "account_residual_ns" => 0u64,
        ));
        for (cell, mzps) in [
            ("sedov.cpu", 9.2),
            ("sedov.hetero", 25.3),
            ("sod.cpu", 6.7),
            ("sod.hetero", 5.0),
            ("noh.cpu", 9.6),
            ("noh.hetero", 33.0),
            ("taylor-green.cpu", 9.8),
            ("taylor-green.hetero", 42.9),
        ] {
            r.extend(rows!(format!("scenarios.{cell}");
                "mzps" => mzps, "identical" => true, "particles_conserved" => true, "account_residual_ns" => 0u64,
            ));
        }
        for (scenario, error) in [("sod", 4.2e-4), ("noh", 1.9e-3), ("taylor-green", 1.1e-2)] {
            for mode in ["cpu", "hetero"] {
                r.extend([row(format!("scenarios.{scenario}.{mode}.error"), error)]);
            }
        }
        r.extend(rows!("claims.fig18_gain"; "holds" => true));
        r.extend([
            row("claims.fig18_gain", 0.18),
            row("claims.sierra_projection_sierra_ea", 1.08),
        ]);
        r
    }

    /// `healthy()` with `sets` applied, then every key matching a
    /// `drops` pattern removed.
    fn edited(sets: &[(&str, Value)], drops: &[&str]) -> Results {
        let mut r = healthy();
        for (key, v) in sets {
            r.metrics.insert(key.to_string(), *v);
        }
        r.metrics
            .retain(|k, _| !drops.iter().any(|d| key_matches(d, k)));
        r
    }

    /// Gate `r` on `sections` and require exactly the `want`ed
    /// violations, in order, each containing its fragment. Returns the
    /// log.
    fn expect(r: &Results, sections: &[&str], want: &[&str]) -> Vec<String> {
        let (bad, log) = gate(r, sections);
        assert_eq!(bad.len(), want.len(), "{bad:#?}");
        for (got, fragment) in bad.iter().zip(want) {
            assert!(got.contains(fragment), "{fragment:?} not in {got:?}");
        }
        log
    }

    #[test]
    fn gate_passes_a_healthy_run_and_each_single_study() {
        let log = expect(&healthy(), &all(), &[]);
        assert!(log.iter().any(|l| l.contains("sweeps.quick.speedup")));
        // What `perf STUDY` writes gates on the sections that study
        // owns, and fails on those of the studies it did not run.
        for study in VIRTUAL_STUDIES.into_iter().chain(WALL_STUDIES) {
            let owned = owned_sections(|s| s == study);
            let mut only = healthy();
            only.metrics.retain(|k, _| owned.contains(&section_of(k)));
            let log = expect(&only, &owned, &[]);
            assert!(
                log.iter().all(|l| owned.contains(&section_of(l))),
                "{log:?}"
            );
            let (bad, _) = gate(&only, &all());
            assert!(
                !bad.is_empty() && bad.iter().all(|b| b.starts_with("missing ")),
                "{bad:?}"
            );
        }
        // `kernels` owns `roofline`: a kernels run that left it empty fails.
        let mut kernels = edited(&[], &["roofline.*"]);
        kernels.metrics.retain(|k, _| section_of(k) == "kernels");
        expect(
            &kernels,
            &owned_sections(|s| s == "kernels"),
            &["missing roofline.roof_fraction"],
        );
    }

    #[test]
    #[rustfmt::skip]
    fn every_rule_fails_with_its_bound_and_the_measurement() {
        let set = |sets: &[(&str, Value)], want: &[&str]| expect(&edited(sets, &[]), &all(), want);
        let drop = |drops: &[&str], want: &[&str]| expect(&edited(&[], drops), &all(), want);
        // pool: the same-run race against spawn-per-region.
        set(&[("pool.persistent_over_spawn", N(1.2))], &["pool.persistent_over_spawn [x]: want < 1, measured 1.2 — "]);
        // sweeps: diverged output, and a key that went missing.
        set(&[("sweeps.quick.identical_output", B(false))], &["sweeps.quick.identical_output [bool]: want true, measured false"]);
        drop(&["sweeps.quick.speedup"], &["missing sweeps.*.speedup"]);
        // The thread-per-rank reading of the cost-only run.
        set(&[("sweeps.costonly_run_over_floor", N(9.66))], &["sweeps.costonly_run_over_floor [x]: want ≤ 5, measured 9.66"]);
        // A run that steps every one of its cycles.
        set(&[("sweeps.costonly_cycles_x8", N(7.7))], &["sweeps.costonly_cycles_x8 [x]: want ≤ 2, measured 7.7"]);
        // kernels: each tile's floor, the best-tile floor (which the
        // ungated ablation cannot rescue), divergence, no tiles at all,
        // and a bool where a number belongs.
        set(&[("kernels.tiles.4x4.ratio", N(0.93))], &["kernels.tiles.4x4.ratio [x]: want ≥ 1, measured 0.93"]);
        set(&[("kernels.best_blocked_ratio", N(1.12)), ("kernels.whole.ratio", N(2.0))], &["kernels.best_blocked_ratio [x]: want ≥ 1.3, measured 1.12"]);
        set(&[("kernels.tiles.8x8.identical_output", B(false))], &["kernels.tiles.8x8.identical_output [bool]: want true"]);
        drop(&["kernels.tiles.*.*"], &["missing kernels.tiles.*.ratio", "missing kernels.tiles.*.identical_output"]);
        set(&[("kernels.best_blocked_ratio", B(true))], &["kernels.best_blocked_ratio [x]: want ≥ 1.3, measured true"]);
        // roofline: under the rescaled floor fails; no ceiling yet.
        set(&[("roofline.roof_fraction", N(0.02))], &["roofline.roof_fraction [x]: want ≥ 0.03303964757709251, measured 0.02"]);
        set(&[("roofline.roof_fraction", N(1.85))], &[]);
        // serve: floor, ceiling, the precision bound, the probe.
        set(&[("serve.hit_rate", N(0.3))], &["serve.hit_rate [frac]: want ≥ 0.5, measured 0.3"]);
        set(&[("serve.p50_us", N(80_000.0))], &["serve.p50_us [us]: want ≤ 50000, measured 80000"]);
        set(&[("serve.p50_us", N(0.0))], &["serve.p50_us [us]: want > 0, measured 0"]);
        set(&[("serve.rejected", N(0.0)), ("serve.rejections_typed", B(false))], &["serve.rejected [count]: want ≥ 1", "serve.rejections_typed [bool]: want true"]);
        drop(&["serve.p99_us"], &["missing serve.p99_us"]);
        // The serial accept loop's reading, where a second core exists
        // and where it does not.
        set(&[("serve.http.two_client_speedup", N(1.0))], &["serve.http.two_client_speedup [x]: want ≥ 1.3, measured 1"]);
        set(&[("serve.http.two_client_speedup", N(1.0)), ("serve.http.effective_cores", N(1.0))], &[]);
        // rebalance: each point check, named by its own key.
        set(&[("rebalance.r100_s45.rel_err", N(0.2))], &["rebalance.r100_s45.rel_err [frac]: want ≤ 0.05, measured 0.2"]);
        set(&[("rebalance.r100_s30.converged_cycle", N(9999.0)), ("rebalance.r100_s30.final_minus_guard", N(-0.0025))],
            &["rebalance.r100_s30.final_minus_guard [frac]: want ≥ -0.000000001, measured -0.0025", "rebalance.r100_s30.converged_cycle [cycle]: want ≤ 10, measured 9999"]);
        set(&[("rebalance.r100_s45.clamped_offset", N(0.041667))], &["rebalance.r100_s45.clamped_offset [frac]: want ≤ 0.000000001, measured 0.041667"]);
        drop(&["rebalance.*.rel_err"], &["missing rebalance.*.rel_err"]);
        set(&[("rebalance.recovery.identical", B(false)), ("rebalance.recovery.frozen", N(0.0))], &["rebalance.recovery.identical [bool]: want true", "rebalance.recovery.frozen [count]: want ≥ 1"]);
        // scenarios: the recorded floor and ceiling, held on the value.
        set(&[("scenarios.sod.cpu.mzps", N(6.3))], &["scenarios.sod.cpu.mzps [Mz/s]: want ≥ 6.3472528153680114, measured 6.3 — "]);
        set(&[("scenarios.noh.hetero.error", N(0.2))], &["scenarios.noh.hetero.error [err]: want ≤ 0.0020160000000002676, measured 0.2 — "]);
        set(&[("scenarios.sedov.cpu.identical", B(false)), ("scenarios.taylor-green.hetero.particles_conserved", B(false))],
            &["scenarios.sedov.cpu.identical [bool]: want true", "scenarios.taylor-green.hetero.particles_conserved [bool]: want true"]);
        // A study that no longer covers the full matrix.
        drop(&["scenarios.sod.hetero.error"], &["missing scenarios.sod.hetero.error"]);
        drop(&["scenarios.noh.cpu.*"], &["missing scenarios.noh.cpu.mzps", "missing scenarios.noh.cpu.error"]);
        // claims: a broken claim is named by its id; a projection's
        // value is held to nothing.
        set(&[("claims.fig18_gain", N(0.02)), ("claims.fig18_gain.holds", B(false))], &["claims.fig18_gain.holds [bool]: want true, measured false"]);
        set(&[("claims.sierra_projection_sierra_ea", N(0.5))], &[]);
        drop(&["claims.*.holds"], &["missing claims.*.holds"]);
    }

    #[test]
    fn core_dependent_floors_follow_the_effective_cores() {
        let at = |cores: f64, ratio: f64, speedup: f64| {
            let ratio = ("kernels.parallel.ratio", N(ratio));
            let speedup = ("sweeps.quick.speedup", N(speedup));
            let k = ("kernels.parallel.effective_cores", N(cores));
            edited(
                &[
                    ratio,
                    speedup,
                    k,
                    ("sweeps.quick.effective_cores", N(cores)),
                ],
                &[],
            )
        };
        let logged = |r: Results, floors: &[&str]| {
            let log = expect(&r, &all(), &[]);
            for floor in floors {
                assert!(log.iter().any(|l| l.contains(floor)), "{floor}: {log:#?}");
            }
        };
        // 4 effective cores must double serial fused: 1.5 fails...
        let want = ["kernels.parallel.ratio [x]: want ≥ 2, measured 1.5"];
        expect(&at(4.0, 1.5, 2.9), &all(), &want);
        // ...clears the 1.2 floor on 2, and an oversubscribed single
        // core is only held to the overhead bounds.
        logged(
            at(2.0, 1.5, 0.95),
            &["ratio [x] 1.5: want ≥ 1.2", "0.95: want ≥ 0.9"],
        );
        logged(
            at(1.0, 0.5, 0.7),
            &["ratio [x] 0.5: want ≥ 0.35", "0.7: want ≥ 0.5"],
        );
        // A sweep "speedup" of 0.7 is a regression where cores exist.
        let want = ["sweeps.quick.speedup [x]: want ≥ 0.9, measured 0.7"];
        expect(&at(2.0, 1.5, 0.7), &all(), &want);
        // A floor whose input is gone fails closed.
        let r = edited(&[], &["sweeps.quick.effective_cores"]);
        expect(&r, &all(), &["sweeps.quick.speedup [x]: want ≥ NaN"]);
    }

    #[test]
    fn the_scenario_study_holds_its_recorded_floors_and_ceilings() {
        let mut r = Results::new(1);
        r.extend(scenario_rows());
        expect(&r, &["scenarios"], &[]);
        for (key, factor) in [
            ("scenarios.sod.hetero.mzps", 0.94),
            ("scenarios.taylor-green.cpu.error", 1.06),
        ] {
            let mut scaled = r.clone();
            let v = scaled.num(key).expect("the study emits it");
            scaled.metrics.insert(key.to_string(), N(v * factor));
            expect(&scaled, &["scenarios"], &[&format!("{key} [")]);
        }
    }

    #[test]
    fn every_gated_row_states_its_reason_and_a_study_owns_its_section() {
        let mut gated: Vec<&str> = Vec::new();
        for &(key, unit, rule, why) in METRICS {
            assert!(!unit.is_empty() && !why.is_empty(), "{key}");
            if !matches!(rule, Info) && !gated.contains(&section_of(key)) {
                gated.push(section_of(key));
            }
        }
        let mut owned = all();
        gated.sort_unstable();
        owned.sort_unstable();
        assert_eq!(gated, owned);
    }
}
