//! The perf harness: host wall-clock measurements of the simulator's
//! parallel layers plus the virtual-time studies (rebalance, scenarios
//! and the paper's claims table, [`hsim_bench::claims`]), written
//! as one flat results file ([`hsim_bench::results`]) and gated by one
//! table.
//!
//! Usage: `perf [--quick] [--jobs N] [--host-threads N] [--out PATH] [SECTION…]`
//!        `perf ci-gate [--fresh PATH] [--baseline PATH] [--section all|SECTION]`
//!
//! With no `SECTION` every study runs. Each returns rows `(key,
//! number | bool)`; [`METRICS`] holds, per key pattern, the unit, the
//! clock the number was read from, the gate rule and the reason for
//! it, and `ci-gate` walks that table.
//!
//! The clock decides which rules are legal. *Virtual* rows come from
//! the cost model's simulated seconds: they are identical on every
//! machine and may be held to the checked-in `ci/perf-baseline.json`.
//! *Wall* rows time the host and may only be compared with constants
//! or with other rows of the same run — serial against parallel,
//! fused against legacy, pool against spawn. Comparing wall-clock
//! numbers across commits is the benchmark package's job
//! (`crates/bench/e2e`), which runs parent and change on one host.
//!
//! The baseline is itself a results file:
//! `perf --jobs 4 --host-threads 4 --out ci/perf-baseline.json`.

use std::hint::black_box;
use std::process::exit;
use std::time::Instant;

use hsim_bench::results::{key_matches, section_of, SCHEMA_VERSION};
use hsim_bench::{claims, paper_modes, roofline, row, rows, run_figure_jobs, serveload};
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

/// Ceiling on `sweeps.costonly_run_over_floor`. Ten runs of the
/// stepped driver on the 2-core host read 2.8-3.3 (over three cycles,
/// messages through one inbox per rank), which this clears by 1.5x;
/// over four cycles and `mpsc` channels they read 3.9-4.1, and the
/// thread-per-rank driver before that read 8-55 there (4.8-6.6 pinned
/// to one vCPU, where hand-offs cross no core).
const COSTONLY_RUN_OVER_FLOOR_MAX: f64 = 5.0;

/// Runs per timed sample of the cost-only run and of its floor: one
/// is a millisecond, too close to a scheduler tick to time alone.
const COSTONLY_REPS: usize = 5;

/// Cycles both sides of `sweeps.costonly_run_over_floor` run. A sweep
/// point steps this many of its ten and adds the rest up (`CpuOnly`
/// shows its period in three and reads so at the end of the third),
/// so at ten the run would be compared with a floor doing over three
/// times its work.
const COSTONLY_STEPPED_CYCLES: u64 = 3;

/// Ceiling on `sweeps.costonly_cycles_x8`: eight times the cycles at
/// well under twice the host time. Stepping every cycle read 7.7
/// (0.10 + 0.195 ms a cycle); adding the period up reads 1.0–1.1.
const COSTONLY_CYCLES_X8_MAX: f64 = 2.0;

/// Where `perf` writes and `ci-gate` reads when not told otherwise.
const DEFAULT_OUT: &str = "BENCH.json";

/// The studies `perf [SECTION…]` can run, in run order: the
/// virtual-time studies, then the wall-clock ones under the
/// host-counter collector. (A cost-only run steps its ranks on the
/// calling thread, but each rank's collector is installed only while
/// that rank is polled: the harness's is neither recorded into nor
/// replaced.) `kernels` also emits `roofline.*`.
const VIRTUAL_STUDIES: [&str; 3] = ["rebalance", "scenarios", "claims"];
const WALL_STUDIES: [&str; 4] = ["sweeps", "kernels", "pool", "serve"];

/// Which clock a metric was read from.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Clock {
    /// Host time: differs per machine and per run.
    Wall,
    /// The cost model's time (or a constant of it): deterministic.
    Virtual,
}

/// What `ci-gate` holds a metric to: nothing (`Info`), `true`, a
/// constant (`Min` >=, `Max` <=, `Above` >, `Below` <), a floor stepped
/// by the effective cores the value was emitted with (`(cores, floor)`,
/// highest first), or a fraction of the baseline's value for the same
/// key.
#[derive(Clone, Copy)]
enum Rule {
    Info,
    IsTrue,
    Min(f64),
    Max(f64),
    Above(f64),
    Below(f64),
    MinByCores(&'static [(f64, f64)]),
    MinOfBase(f64),
    MaxOfBase(f64),
}

impl Rule {
    fn reads_baseline(self) -> bool {
        matches!(self, Rule::MinOfBase(_) | Rule::MaxOfBase(_))
    }
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
/// segment), its unit, its clock, its gate rule and the reason for it.
type Metric = (&'static str, &'static str, Clock, Rule, &'static str);

use Clock::{Virtual as V, Wall as W};
use Rule::{Above, Below, Info, IsTrue, Max, MaxOfBase, Min, MinByCores, MinOfBase};

/// Every key the harness may emit. A section is gated by the rows
/// whose rule is not `Info`; each such row must match at least one
/// fresh key.
#[rustfmt::skip]
static METRICS: &[Metric] = &[
    ("sweeps.jobs",               "count", W, Info, "--jobs: fan-out width of the parallel side"),
    ("sweeps.*.effective_cores",  "count", W, Info, "min(jobs, host_cores): what the speedup floor is keyed on"),
    ("sweeps.*.tasks",            "count", V, Info, "sweep points x modes"),
    ("sweeps.*.skipped",          "count", V, Info, "infeasible points, recorded not run"),
    ("sweeps.*.serial_s",         "s",     W, Info, "median wall time at --jobs 1"),
    ("sweeps.*.parallel_s",       "s",     W, Info, "median wall time at --jobs N"),
    ("sweeps.*.speedup",          "x",     W, MinByCores(&[(2.0, 0.9), (0.0, 0.5)]), "median serial:parallel over interleaved pairs: --jobs N must not lose to serial where more than one effective core exists; on one (--jobs 4 there is oversubscription) only fan-out overhead is bounded"),
    ("sweeps.*.identical_output", "bool",  V, IsTrue, "--jobs N must not change a byte of the figure CSV or markdown"),
    ("sweeps.costonly_run_over_floor", "x", W, Max(COSTONLY_RUN_OVER_FLOOR_MAX), "median over interleaved pairs of a cost-only 16-rank run against its own pricing work done solo on the same thread, both over the 3 cycles such a run steps before it adds its period up: what is left is set-up, message hand-off and the cycle marks, and a thread per rank, which has nothing to run in parallel here, reads 8 and up on two cores"),
    ("sweeps.costonly_cycles_x8", "x", W, Max(COSTONLY_CYCLES_X8_MAX), "median over interleaved pairs of one cost-only heterogeneous point at 80 cycles against the same point at 10: a run's host time is that of the cycles it takes to see its period, not proportional to `cycles` (stepping them all reads 7.7)"),

    ("kernels.legacy_mzones_per_s",            "Mz/s",  W, Info, "per-pass reference kernels"),
    ("kernels.tiles.*.fused_mzones_per_s",     "Mz/s",  W, Info, "fused cache-blocked kernels at this tile"),
    ("kernels.tiles.*.ratio",                  "x",     W, Min(1.0), "fused must not lose to the per-pass kernels it replaced at any cache-blocked tile"),
    ("kernels.tiles.*.identical_output",       "bool",  V, IsTrue, "fused output must equal legacy bit for bit"),
    ("kernels.whole.fused_mzones_per_s",       "Mz/s",  W, Info, "whole-plane tile: fusion without cache blocking"),
    ("kernels.whole.ratio",                    "x",     W, Info, "blocking ablation, not gated"),
    ("kernels.whole.identical_output",         "bool",  V, IsTrue, "fused output must equal legacy bit for bit"),
    ("kernels.best_blocked_ratio",             "x",     W, Min(1.3), "fusing removes whole-array passes: the best cache-blocked tile must beat legacy by 1.3x on any host"),
    ("kernels.parallel.workers",               "count", W, Info, "--host-threads"),
    ("kernels.parallel.effective_cores",       "count", W, Info, "min(workers, host_cores): what the ratio floor is keyed on"),
    ("kernels.parallel.serial_mzones_per_s",   "Mz/s",  W, Info, "median serial fused throughput on the 8x8 tile"),
    ("kernels.parallel.parallel_mzones_per_s", "Mz/s",  W, Info, "median parallel-tile fused throughput on the 8x8 tile"),
    ("kernels.parallel.ratio",                 "x",     W, MinByCores(&[(4.0, 2.0), (2.0, 1.2), (0.0, 0.35)]), "median parallel:serial over interleaved pairs: with 4+ effective cores the parallel-tile path must double serial fused, with 2-3 it must still win, on one (oversubscribed) only scheduling overhead is bounded"),
    ("kernels.parallel.identical_output",      "bool",  V, IsTrue, "worker counts 1, 2, 4 and --host-threads must all reproduce the legacy bytes"),

    ("roofline.triad_gbps",              "GB/s",   W, Info, "STREAM triad at --host-threads workers"),
    ("roofline.triad_workers",           "count",  W, Info, "triad fan-out"),
    ("roofline.bytes_per_zone",          "B",      V, Info, "per-pass first-order traffic from the kernel catalog"),
    ("roofline.flops_per_zone",          "flop",   V, Info, "per-pass first-order work from the kernel catalog"),
    ("roofline.arithmetic_intensity",    "flop/B", V, Info, "far below 1: bandwidth-bound"),
    ("roofline.predicted_mzones_per_s",  "Mz/s",   W, Info, "triad bandwidth / bytes_per_zone"),
    ("roofline.best_mzones_per_s",       "Mz/s",   W, Info, "best fused throughput of this run, serial or parallel"),
    ("roofline.roof_fraction",           "x",      W, Min(0.25), "best fused throughput over the streamed-traffic roof; above 1 is cache-resident fusion working, under a quarter means the kernels or the probe broke"),
    ("roofline.kernel.*.flops_per_elem", "flop",   V, Info, "kernel catalog"),
    ("roofline.kernel.*.bytes_per_elem", "B",      V, Info, "kernel catalog"),
    ("roofline.kernel.*.intensity",      "flop/B", V, Info, "kernel catalog"),

    ("pool.workers",                "count",   W, Info, "pool parallelism (--jobs)"),
    ("pool.region_ns_persistent",   "ns",      W, Info, "median per-region handoff on the persistent pool"),
    ("pool.region_ns_scoped_spawn", "ns",      W, Info, "median per-region cost of spawning scoped threads instead"),
    ("pool.persistent_over_spawn",  "x",       W, Below(1.0), "the persistent pool must beat the spawn-per-region baseline it replaced, same run, same host"),
    ("pool.sum_melems_per_s",       "Melem/s", W, Info, "pool reduction throughput"),

    ("serve.hits",             "count", V, Info, "cache hits and single-flight joins"),
    ("serve.misses",           "count", V, Info, "executions"),
    ("serve.admitted",         "count", V, Info, "requests past admission"),
    ("serve.deadline_drops",   "count", W, Info, "requests that outlived their deadline"),
    ("serve.hit_rate",         "frac",  V, Min(0.5), "every config is requested many times: below half means the content-hash cache or the single-flight join broke"),
    ("serve.p50_us",           "us",    W, Max(50_000.0), "the median request is a cache hit (hash + map lookup), orders of magnitude under this on any host"),
    ("serve.p50_us",           "us",    W, Above(0.0), "quantiles are nanosecond-recorded: a zero median means sub-millisecond hits truncated again"),
    ("serve.p99_us",           "us",    W, Max(10_000_000.0), "covers a full cold run of the load driver's workload on a slow host"),
    ("serve.rejected",         "count", V, Min(1.0), "the overflow probe must be rejected at least once"),
    ("serve.rejections_typed", "bool",  V, IsTrue, "every overflow must surface as the typed QueueFull with the configured capacity"),
    ("serve.http.effective_cores",    "count", W, Info, "min(2, host_cores): what the speedup floor is keyed on"),
    ("serve.http.two_client_speedup", "x",     W, MinByCores(&[(2.0, 1.3), (0.0, 0.8)]), "median over interleaved pairs, fresh server each side, of the same 24 distinct cost-only misses sent over HTTP by one closed-loop client / by two: the front end must let two clients' runs overlap on the two workers where two cores exist (2.0-2.4 on the 2-core host; the serial accept loop it replaced read 1.1-1.2, the second client hiding only its own connect); on one core only the hand-off overhead is bounded"),

    ("rebalance.*.ratio",                     "x",     V, Info, "per-core CPU speed multiplier"),
    ("rebalance.*.start",                     "frac",  V, Info, "the wrong split the controller starts from"),
    ("rebalance.*.guard",                     "frac",  V, Info, "the 12/ny granularity guard for this grid"),
    ("rebalance.*.optimum",                   "frac",  V, Info, "analytic optimum from the fixed-point probe"),
    ("rebalance.*.optimum_realized",          "frac",  V, Info, "the optimum after plane quantization"),
    ("rebalance.*.final",                     "frac",  V, Info, "the controller's final realized split"),
    ("rebalance.*.final_minus_guard",         "frac",  V, Min(-1e-9), "no split may sit below the 12/ny guard"),
    ("rebalance.*.rel_err",                   "frac",  V, Max(0.05), "final split vs the quantized analytic optimum; a converged controller lands on the identical discrete split and reads 0"),
    ("rebalance.*.converged_cycle",           "cycle", V, Max(10.0), "settled inside the 5% band and stayed there (9999 = never)"),
    ("rebalance.*.resplits",                  "count", V, Info, "re-splits taken"),
    ("rebalance.*.holds",                     "count", V, Info, "boundaries where hysteresis held"),
    ("rebalance.*.clamped",                   "bool",  V, Info, "the optimum itself hit the guard"),
    ("rebalance.*.clamped_offset",            "frac",  V, Max(1e-9), "|final - guard| of a clamped point: it must pin to the guard"),
    ("rebalance.recovery.identical",          "bool",  V, IsTrue, "the same-seed controlled rank.loss double run must replay byte for byte"),
    ("rebalance.recovery.frozen",             "count", V, Min(1.0), "the loss must freeze the controller"),
    ("rebalance.recovery.rank_losses",        "count", V, Min(1.0), "the injected loss must be recorded"),
    ("rebalance.recovery.ranks_after",        "count", V, Info, "survivors after the foldback"),
    ("rebalance.recovery.post_loss_fraction", "frac",  V, Info, "the frozen post-loss split"),
    ("rebalance.recovery.account_residual_ns", "ns",   V, Max(0.0), "max over ranks of |sum of the six buckets - total|, folded across the re-split and foldback segments: a rank has one clock"),

    ("scenarios.*.*.virtual_s",           "s",     V, Info, "simulated runtime"),
    ("scenarios.*.*.mzps",                "Mz/s",  V, MinOfBase(0.95), "virtual-time zone throughput; the 5% slack absorbs deliberate cost-model recalibration, not noise"),
    ("scenarios.*.*.error",               "err",   V, MaxOfBase(1.05), "Sod/Noh L1 vs the exact solution, Taylor-Green kinetic-energy decay error; absent for Sedov (no pointwise reference), in fresh and baseline alike"),
    ("scenarios.*.*.identical",           "bool",  V, IsTrue, "the same-seed double run must be bit-identical"),
    ("scenarios.*.*.particles_conserved", "bool",  V, IsTrue, "tracer count and finite momentum must survive the run"),
    ("scenarios.*.*.migrated",            "count", V, Info, "cross-rank particle migrations"),
    ("scenarios.*.*.account_residual_ns", "ns",    V, Max(0.0), "max over ranks of |sum of the six buckets - total|: charging a bucket is the only way a rank's clock advances"),

    ("claims.*",       "value", V, Info,   "a claim's measured ratio, gain or share; hsim_bench::claims has what each row runs and its tolerance"),
    ("claims.*.holds", "bool",  V, IsTrue, "the paper's statement, checked on the virtual clock: the claim's value must lie in its tolerance"),

    ("telemetry.host_sweep_points", "count", W, Info, "sweep points the host counters saw"),
    ("telemetry.host_sweep_nanos",  "ns",    W, Info, "host time inside sweep points"),
    ("telemetry.host_pool_regions", "count", W, Info, "pool regions the host counters saw"),
    ("telemetry.host_pool_nanos",   "ns",    W, Info, "host time inside pool regions"),
];

/// The sections `ci-gate` can gate, in table order.
fn gated_sections() -> Vec<&'static str> {
    let mut out = Vec::new();
    for &(key, _, _, rule, _) in METRICS {
        if !matches!(rule, Info) && !out.contains(&section_of(key)) {
            out.push(section_of(key));
        }
    }
    out
}

/// Numbers in gate messages: six decimals, trailing zeros dropped
/// (exponent form for what that would flatten to zero).
fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-6 {
        return format!("{v:e}");
    }
    let s = format!("{v:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn show_value(v: Option<&Value>) -> String {
    match v {
        Some(Value::Num(v)) => show(*v),
        Some(Value::Bool(b)) => b.to_string(),
        None => "n/a".to_string(),
    }
}

/// Gate `fresh` against `base`: every non-`Info` table row of the
/// `only` section (`None` = all of them). Returns the violations and
/// the log of checks that passed; every line quotes the rule and the
/// baseline's value, so a failure reads as a diff.
fn gate(fresh: &Results, base: &Results, only: Option<&str>) -> (Vec<String>, Vec<String>) {
    let (mut bad, mut log) = (Vec::new(), Vec::new());
    // Both files must carry the schema this binary writes: any other
    // — older, newer, absent — makes every further check meaningless.
    for (role, r) in [("fresh", fresh), ("baseline", base)] {
        if r.schema_version != Some(f64::from(SCHEMA_VERSION)) {
            let found = r.schema_version.map_or("none".to_string(), show);
            bad.push(format!(
                "{role} schema_version: expected {SCHEMA_VERSION}, found {found} \
                 (unrecognized; regenerate the file with this perf binary)"
            ));
        }
    }
    if !bad.is_empty() {
        return (bad, log);
    }
    let present = fresh.sections();
    for &(pattern, unit, clock, rule, why) in METRICS {
        let section = section_of(pattern);
        if matches!(rule, Info) || only.is_some_and(|s| s != section) {
            continue;
        }
        if !present.contains(&section) {
            let msg = format!("missing {section} section in fresh results");
            if !bad.contains(&msg) {
                bad.push(msg);
            }
            continue;
        }
        // A baseline-relative rule also visits what only the baseline
        // has: a metric may not silently disappear.
        let mut keys: Vec<&String> = fresh.metrics.keys().collect();
        if rule.reads_baseline() {
            keys.extend(
                base.metrics
                    .keys()
                    .filter(|k| !fresh.metrics.contains_key(*k)),
            );
        }
        keys.retain(|k| key_matches(pattern, k));
        if keys.is_empty() {
            bad.push(format!("missing {pattern} in fresh results"));
        }
        for key in keys {
            let b = base.metrics.get(key);
            let Some(v) = fresh.metrics.get(key) else {
                bad.push(format!("{key}: the baseline has it, fresh results lost it"));
                continue;
            };
            if rule.reads_baseline() && b.is_none() {
                bad.push(format!("{key}: missing from baseline"));
                continue;
            }
            let base_num = base.num(key).unwrap_or(f64::NAN);
            // NaN fails every comparison, so a broken number or a
            // missing floor input is a violation, never a pass.
            let floor = |v: f64, f: f64, of: &str| (v >= f, format!("floor {}{of}", show(f)));
            let ceiling = |v: f64, c: f64, of: &str| (v <= c, format!("ceiling {}{of}", show(c)));
            let (pass, held_to) = match (rule, *v) {
                (IsTrue, Value::Bool(ok)) => (ok, "expected true".to_string()),
                (Min(f), Value::Num(v)) => floor(v, f, ""),
                (MinByCores(steps), Value::Num(v)) => {
                    floor(v, floor_by_cores(fresh, key, steps), "")
                }
                (MinOfBase(k), Value::Num(v)) => {
                    floor(v, k * base_num, &format!(" ({k} x baseline)"))
                }
                (Max(c), Value::Num(v)) => ceiling(v, c, ""),
                (MaxOfBase(k), Value::Num(v)) => {
                    ceiling(v, k * base_num, &format!(" ({k} x baseline)"))
                }
                (Above(x), Value::Num(v)) => (v > x, format!("expected > {}", show(x))),
                (Below(x), Value::Num(v)) => (v < x, format!("expected < {}", show(x))),
                _ => (false, "wrong value type".to_string()),
            };
            let (base, measured) = (show_value(b), show_value(Some(v)));
            let tag = format!("{key} [{unit}, {clock:?}]");
            if pass {
                log.push(format!("{tag} {measured}: {held_to} (baseline {base})"));
            } else {
                bad.push(format!(
                    "{tag}: {held_to}, baseline {base}, measured {measured} — {why}"
                ));
            }
        }
    }
    (bad, log)
}

fn usage() -> ! {
    eprintln!("usage: perf [--quick] [--jobs N] [--host-threads N] [--out PATH] [SECTION...]");
    eprintln!("       perf ci-gate [--fresh PATH] [--baseline PATH] [--section all|SECTION]");
    eprintln!("sections to run: {VIRTUAL_STUDIES:?} {WALL_STUDIES:?}");
    eprintln!("sections to gate: {:?}", gated_sections());
    exit(2);
}

fn ci_gate(mut args: Vec<String>) -> ! {
    let fresh_path = take_flag(&mut args, "--fresh").unwrap_or_else(|| DEFAULT_OUT.into());
    let base_path =
        take_flag(&mut args, "--baseline").unwrap_or_else(|| "ci/perf-baseline.json".into());
    let section = take_flag(&mut args, "--section").filter(|s| s != "all");
    let gated = gated_sections();
    if let Some(bad) = section.as_deref().filter(|s| !gated.contains(s)) {
        eprintln!("--section must be \"all\" or one of {gated:?}, got {bad:?}");
        exit(2);
    }
    if let Some(stray) = args.first() {
        eprintln!("unknown argument: {stray}");
        usage();
    }
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("ci-gate: cannot read {p}: {e}");
            exit(2);
        });
        Results::parse(&text).unwrap_or_else(|e| {
            eprintln!("ci-gate: FAIL: {p} is not a results file: {e}");
            exit(1);
        })
    };
    let (bad, log) = gate(&read(&fresh_path), &read(&base_path), section.as_deref());
    for line in &log {
        eprintln!("ci-gate: ok: {line}");
    }
    if bad.is_empty() {
        eprintln!("ci-gate: PASS ({fresh_path} vs {base_path})");
        exit(0);
    }
    for v in &bad {
        eprintln!("ci-gate: FAIL: {v}");
    }
    exit(1);
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
    if args.first().map(String::as_str) == Some("ci-gate") {
        ci_gate(args.split_off(1));
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: fn(f64) -> Value = Value::Num;
    const B: fn(bool) -> Value = Value::Bool;

    /// A healthy full run on a 4-core host: every gated key, plus the
    /// rows the floor functions read. Two rebalance points share a
    /// speed ratio and are told apart by their keys.
    const HEALTHY: &str = r#"{"schema_version": 7, "host_cores": 4, "metrics": {
        "sweeps.quick.effective_cores": 4, "sweeps.quick.speedup": 2.9, "sweeps.quick.identical_output": true,
        "sweeps.costonly_run_over_floor": 3.3, "sweeps.costonly_cycles_x8": 1.05,
        "kernels.tiles.4x4.ratio": 1.35, "kernels.tiles.4x4.identical_output": true,
        "kernels.tiles.8x8.ratio": 1.62, "kernels.tiles.8x8.identical_output": true,
        "kernels.tiles.16x16.ratio": 1.51, "kernels.tiles.16x16.identical_output": true,
        "kernels.whole.ratio": 1.08, "kernels.whole.identical_output": true,
        "kernels.best_blocked_ratio": 1.62, "kernels.parallel.effective_cores": 4,
        "kernels.parallel.ratio": 2.6, "kernels.parallel.identical_output": true,
        "roofline.roof_fraction": 0.62, "pool.persistent_over_spawn": 0.06,
        "serve.hit_rate": 0.875, "serve.p50_us": 412.5, "serve.p99_us": 120000,
        "serve.rejected": 3, "serve.rejections_typed": true,
        "serve.http.effective_cores": 2, "serve.http.two_client_speedup": 1.5,
        "rebalance.r025_s30.rel_err": 0, "rebalance.r025_s30.converged_cycle": 4,
        "rebalance.r025_s30.final_minus_guard": 0.004167,
        "rebalance.r100_s30.rel_err": 0, "rebalance.r100_s30.converged_cycle": 6,
        "rebalance.r100_s30.final_minus_guard": 0.0125,
        "rebalance.r100_s45.rel_err": 0.01, "rebalance.r100_s45.converged_cycle": 2,
        "rebalance.r100_s45.final_minus_guard": 0, "rebalance.r100_s45.clamped_offset": 0,
        "rebalance.recovery.identical": true, "rebalance.recovery.frozen": 1,
        "rebalance.recovery.rank_losses": 1, "rebalance.recovery.account_residual_ns": 0,
        "scenarios.sedov.cpu.mzps": 1.2, "scenarios.sedov.hetero.mzps": 1.6,
        "scenarios.sod.cpu.mzps": 0.8, "scenarios.sod.cpu.error": 0.031,
        "scenarios.sod.hetero.mzps": 0.7, "scenarios.sod.hetero.error": 0.031,
        "scenarios.noh.cpu.mzps": 1.3, "scenarios.noh.cpu.error": 0.12,
        "scenarios.noh.hetero.mzps": 1.8, "scenarios.noh.hetero.error": 0.12,
        "scenarios.taylor-green.cpu.mzps": 1.4, "scenarios.taylor-green.cpu.error": 0.002,
        "scenarios.taylor-green.hetero.mzps": 2.1, "scenarios.taylor-green.hetero.error": 0.002,
        "claims.fig18_gain": 0.18, "claims.fig18_gain.holds": true,
        "claims.sierra_projection_sierra_ea": 1.08
    }}"#;

    fn healthy() -> Results {
        let mut r = Results::parse(HEALTHY).expect("fixture parses");
        let pairs: Vec<String> = r
            .metrics
            .keys()
            .filter_map(|k| k.strip_suffix(".mzps"))
            .map(String::from)
            .collect();
        for at in pairs {
            r.extend(rows!(at;
                "identical" => true, "particles_conserved" => true, "account_residual_ns" => 0u64,
            ));
        }
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

    /// Gate `fresh` against the healthy baseline and require exactly
    /// the `want`ed violations, in order, each containing its
    /// fragment. Returns the log.
    fn expect(fresh: &Results, only: Option<&str>, want: &[&str]) -> Vec<String> {
        let (bad, log) = gate(fresh, &healthy(), only);
        assert_eq!(bad.len(), want.len(), "{bad:#?}");
        for (got, fragment) in bad.iter().zip(want) {
            assert!(got.contains(fragment), "{fragment:?} not in {got:?}");
        }
        log
    }

    #[test]
    fn gate_passes_a_healthy_run_and_each_single_section_file() {
        let log = expect(&healthy(), None, &[]);
        assert!(log.iter().any(|l| l.contains("sweeps.quick.speedup")));
        // What `perf serve` / `perf rebalance` / `perf scenarios`
        // write gates under its own section, fails as `all` on the
        // sections it lacks, and still needs the schema handshake.
        for section in ["serve", "rebalance", "scenarios", "claims"] {
            let mut only = healthy();
            only.metrics.retain(|k, _| section_of(k) == section);
            let log = expect(&only, Some(section), &[]);
            assert!(log.iter().all(|l| l.starts_with(section)), "{log:?}");
            let (bad, _) = gate(&only, &healthy(), None);
            assert_eq!(bad.len(), gated_sections().len() - 1, "{bad:?}");
            assert_eq!(bad[0], "missing sweeps section in fresh results");
            only.schema_version = Some(6.0);
            let log = expect(&only, Some(section), &["unrecognized"]);
            assert!(log.is_empty(), "{log:?}");
        }
    }

    #[test]
    #[rustfmt::skip]
    fn every_rule_fails_with_the_rule_the_baseline_and_the_measurement() {
        let set = |sets: &[(&str, Value)], want: &[&str]| expect(&edited(sets, &[]), None, want);
        let drop = |drops: &[&str], want: &[&str]| expect(&edited(&[], drops), None, want);
        // pool: the same-run race against spawn-per-region.
        set(&[("pool.persistent_over_spawn", N(1.2))], &["pool.persistent_over_spawn [x, Wall]: expected < 1, baseline 0.06, measured 1.2"]);
        // sweeps: diverged output, and a key that went missing.
        set(&[("sweeps.quick.identical_output", B(false))], &["sweeps.quick.identical_output [bool, Virtual]: expected true, baseline true, measured false"]);
        drop(&["sweeps.quick.speedup"], &["missing sweeps.*.speedup in fresh results"]);
        // The thread-per-rank reading of the cost-only run.
        set(&[("sweeps.costonly_run_over_floor", N(9.66))], &["sweeps.costonly_run_over_floor [x, Wall]: ceiling 5, baseline 3.3, measured 9.66"]);
        // A run that steps every one of its cycles.
        set(&[("sweeps.costonly_cycles_x8", N(7.7))], &["sweeps.costonly_cycles_x8 [x, Wall]: ceiling 2, baseline 1.05, measured 7.7"]);
        // kernels: each tile's floor, the best-tile floor (which the
        // ungated ablation cannot rescue), divergence, no tiles at all.
        set(&[("kernels.tiles.4x4.ratio", N(0.93))], &["kernels.tiles.4x4.ratio [x, Wall]: floor 1, baseline 1.35, measured 0.93"]);
        set(&[("kernels.best_blocked_ratio", N(1.12)), ("kernels.whole.ratio", N(2.0))], &["kernels.best_blocked_ratio [x, Wall]: floor 1.3, baseline 1.62, measured 1.12"]);
        set(&[("kernels.tiles.8x8.identical_output", B(false))], &["kernels.tiles.8x8.identical_output [bool, Virtual]: expected true"]);
        drop(&["kernels.tiles.*.*"], &["missing kernels.tiles.*.ratio", "missing kernels.tiles.*.identical_output"]);
        // roofline: under a quarter of the roof fails; above 1.0 is
        // cache-resident fusion beating streamed traffic, and healthy.
        set(&[("roofline.roof_fraction", N(0.18))], &["roofline.roof_fraction [x, Wall]: floor 0.25, baseline 0.62, measured 0.18"]);
        set(&[("roofline.roof_fraction", N(1.85))], &[]);
        // serve: floor, ceiling, the precision bound, the probe.
        set(&[("serve.hit_rate", N(0.3))], &["serve.hit_rate [frac, Virtual]: floor 0.5, baseline 0.875, measured 0.3"]);
        set(&[("serve.p50_us", N(80_000.0))], &["serve.p50_us [us, Wall]: ceiling 50000, baseline 412.5, measured 80000"]);
        set(&[("serve.p50_us", N(0.0))], &["serve.p50_us [us, Wall]: expected > 0, baseline 412.5, measured 0"]);
        set(&[("serve.rejected", N(0.0)), ("serve.rejections_typed", B(false))], &["serve.rejected [count, Virtual]: floor 1", "serve.rejections_typed [bool, Virtual]: expected true"]);
        drop(&["serve.p99_us"], &["missing serve.p99_us in fresh results"]);
        // The serial accept loop's reading, where a second core exists
        // and where it does not.
        set(&[("serve.http.two_client_speedup", N(1.0))], &["serve.http.two_client_speedup [x, Wall]: floor 1.3, baseline 1.5, measured 1"]);
        set(&[("serve.http.two_client_speedup", N(1.0)), ("serve.http.effective_cores", N(1.0))], &[]);
        // rebalance: each point check, keyed so the second ratio-1
        // point quotes its own baseline, not the first's.
        set(&[("rebalance.r100_s45.rel_err", N(0.2))], &["rebalance.r100_s45.rel_err [frac, Virtual]: ceiling 0.05, baseline 0.01, measured 0.2"]);
        set(&[("rebalance.r100_s30.converged_cycle", N(9999.0)), ("rebalance.r100_s30.final_minus_guard", N(-0.0025))],
            &["rebalance.r100_s30.final_minus_guard [frac, Virtual]: floor -1e-9, baseline 0.0125, measured -0.0025", "rebalance.r100_s30.converged_cycle [cycle, Virtual]: ceiling 10, baseline 6, measured 9999"]);
        set(&[("rebalance.r100_s45.clamped_offset", N(0.041667))], &["rebalance.r100_s45.clamped_offset [frac, Virtual]: ceiling 1e-9, baseline 0, measured 0.041667"]);
        drop(&["rebalance.*.rel_err"], &["missing rebalance.*.rel_err in fresh results"]);
        set(&[("rebalance.recovery.identical", B(false)), ("rebalance.recovery.frozen", N(0.0))], &["rebalance.recovery.identical [bool, Virtual]: expected true", "rebalance.recovery.frozen [count, Virtual]: floor 1"]);
        // scenarios: baseline-relative floor and ceiling, held on the
        // value (0.7599 prints as 0.760 at three decimals).
        set(&[("scenarios.sod.cpu.mzps", N(0.7599))], &["scenarios.sod.cpu.mzps [Mz/s, Virtual]: floor 0.76 (0.95 x baseline), baseline 0.8, measured 0.7599"]);
        set(&[("scenarios.noh.hetero.error", N(0.2))], &["scenarios.noh.hetero.error [err, Virtual]: ceiling 0.126 (1.05 x baseline), baseline 0.12, measured 0.2"]);
        set(&[("scenarios.sedov.cpu.identical", B(false)), ("scenarios.taylor-green.hetero.particles_conserved", B(false))],
            &["scenarios.sedov.cpu.identical [bool, Virtual]: expected true", "scenarios.taylor-green.hetero.particles_conserved [bool, Virtual]: expected true"]);
        // A metric present on one side only (Sedov has no analytic
        // error in either file, the others have it in both), and a
        // study that no longer covers the full matrix.
        set(&[("scenarios.sedov.cpu.error", N(0.01))], &["scenarios.sedov.cpu.error: missing from baseline"]);
        drop(&["scenarios.sod.hetero.error"], &["scenarios.sod.hetero.error: the baseline has it, fresh results lost it"]);
        drop(&["scenarios.noh.cpu.*"], &["scenarios.noh.cpu.mzps: the baseline has it", "scenarios.noh.cpu.error: the baseline has it"]);
        // claims: a broken claim is named by its id; a projection's
        // value is held to nothing.
        set(&[("claims.fig18_gain", N(0.02)), ("claims.fig18_gain.holds", B(false))], &["claims.fig18_gain.holds [bool, Virtual]: expected true, baseline true, measured false"]);
        set(&[("claims.sierra_projection_sierra_ea", N(0.5))], &[]);
        drop(&["claims.*.holds"], &["missing claims.*.holds in fresh results"]);
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
        let logged = |fresh: Results, floors: &[&str]| {
            let log = expect(&fresh, None, &[]);
            for floor in floors {
                assert!(log.iter().any(|l| l.contains(floor)), "{floor}: {log:#?}");
            }
        };
        // 4 effective cores must double serial fused: 1.5 fails...
        let want = ["kernels.parallel.ratio [x, Wall]: floor 2, baseline 2.6, measured 1.5"];
        expect(&at(4.0, 1.5, 2.9), None, &want);
        // ...clears the 1.2 floor on 2, and an oversubscribed single
        // core is only held to the overhead bounds.
        logged(
            at(2.0, 1.5, 0.95),
            &["ratio [x, Wall] 1.5: floor 1.2", "0.95: floor 0.9"],
        );
        logged(
            at(1.0, 0.5, 0.7),
            &["ratio [x, Wall] 0.5: floor 0.35", "0.7: floor 0.5"],
        );
        // A sweep "speedup" of 0.7 is a regression where cores exist.
        let want = ["sweeps.quick.speedup [x, Wall]: floor 0.9, baseline 2.9, measured 0.7"];
        expect(&at(2.0, 1.5, 0.7), None, &want);
        // A floor whose input is gone fails closed.
        let fresh = edited(&[], &["sweeps.quick.effective_cores"]);
        expect(&fresh, None, &["sweeps.quick.speedup [x, Wall]: floor NaN"]);
    }

    #[test]
    fn gate_rejects_unrecognized_schema_versions() {
        // Older, newer and absent versions are all rejected before any
        // metric check runs, in the fresh file and in the baseline.
        for version in [Some(6.0), Some(8.0), None] {
            let mut stale = healthy();
            stale.schema_version = version;
            let log = expect(&stale, None, &["fresh schema_version: expected 7"]);
            assert!(log.is_empty(), "{log:?}");
            let (bad, log) = gate(&healthy(), &stale, None);
            assert_eq!(bad.len(), 1, "{bad:?}");
            let want = "baseline schema_version: expected 7";
            assert!(
                bad[0].contains(want) && bad[0].contains("unrecognized"),
                "{bad:?}"
            );
            assert!(log.is_empty(), "{log:?}");
        }
    }

    #[test]
    fn wall_rows_are_never_held_to_the_baseline() {
        for &(key, unit, clock, rule, why) in METRICS {
            assert!(
                clock == Clock::Virtual || !rule.reads_baseline(),
                "{key}: a wall-clock row may not be held to another machine's baseline"
            );
            assert!(!unit.is_empty() && !why.is_empty(), "{key}");
        }
        let sections = "sweeps kernels roofline pool serve rebalance scenarios claims";
        assert_eq!(gated_sections().join(" "), sections);
    }

    #[test]
    fn the_committed_baseline_is_current_and_complete() {
        let base = Results::parse(include_str!("../../../../ci/perf-baseline.json")).unwrap();
        assert_eq!(base.schema_version, Some(f64::from(SCHEMA_VERSION)));
        // Every key a baseline-relative rule reads, for the full
        // scenario matrix...
        for s in Scenario::ALL {
            for mode in ["cpu", "hetero"] {
                let key = format!("scenarios.{}.{mode}.mzps", s.name());
                assert!(base.num(&key).is_some(), "{key} missing");
            }
        }
        // ...every row of the claims table...
        for c in claims::CLAIMS {
            let key = format!("claims.{}", c.id);
            assert!(base.num(&key).is_some(), "{key} missing");
            let held = base.metrics.contains_key(&format!("{key}.holds"));
            assert_eq!(held, c.tolerance.is_some(), "{key}.holds");
        }
        // ...and its virtual-time sections, the same on every
        // machine, pass their own gate.
        for section in ["rebalance", "scenarios", "claims"] {
            let (bad, _) = gate(&base, &base, Some(section));
            assert!(bad.is_empty(), "{bad:#?}");
        }
    }
}
