//! `e2e`: the repository's benchmark. One process per workload; a run
//! is set-up (pin the tile, build inputs from the seed, check phase,
//! warm-up rounds), then rounds of identical work for `--seconds`.
//! `--trace 0` reports the gated end-to-end metrics; `--trace 1`
//! replays rounds with harness spans, runs the isolated layer probes
//! and reports the per-layer metrics. See README.md.

mod account;
mod host;
mod probes;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use account::Metrics;
use spans::{Ctx, Recorder};
use workloads::{Exact, Kind, RoundOut, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str =
    "usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out trace.json]
       e2e list [--json]     workloads and metrics (--json: the text of BENCHMARK.json)
       e2e selfcheck         exact metrics repeat, with tracing on and off";

/// How much work one invocation does. The command line uses
/// [`Budget::cli`]; `selfcheck` shrinks everything.
#[derive(Clone, Copy)]
struct Budget {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    warmup_rounds: usize,
    /// Measure rounds until this much time has passed…
    seconds: f64,
    /// …and at least this many rounds were measured.
    min_rounds: usize,
}

impl Budget {
    fn cli(seconds: f64) -> Budget {
        Budget {
            setup_reps: 3,
            warmup_rounds: 2,
            seconds,
            min_rounds: 15,
        }
    }
}

/// Shares of `--seconds` a traced run gives to its round replay and
/// to the isolated layer probes.
const TRACE_ROUNDS_SHARE: f64 = 0.4;
const TRACE_PROBES_SHARE: f64 = 0.4;
/// Untraced/traced round pairs a traced run replays at least.
const TRACE_MIN_PAIRS: usize = 3;

enum Cmd {
    List {
        json: bool,
    },
    Selfcheck,
    Bench {
        kind: Kind,
        seed: u64,
        seconds: f64,
        trace: bool,
        out: Option<PathBuf>,
    },
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            return match &args[1..] {
                [] => Ok(Cmd::List { json: false }),
                [flag] if flag == "--json" => Ok(Cmd::List { json: true }),
                other => Err(format!("list takes only --json, got {other:?}")),
            }
        }
        Some("selfcheck") if args.len() == 1 => return Ok(Cmd::Selfcheck),
        _ => {}
    }
    let (mut kind, mut seed, mut seconds) = (None, spec::DEFAULT_SEED, spec::RUN_SECONDS as f64);
    let (mut trace, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Cmd::Bench {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One round under a `harness` span, timed from outside.
fn timed_round(wl: &Workload, rec: &Recorder, round: u32) -> (f64, RoundOut) {
    let t0 = Instant::now();
    let out = rec.scope(Ctx::root(round), "harness", "round", 0, |ctx| {
        wl.round(rec, ctx)
    });
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Set-up: pin + inputs + check phase + warm-up rounds. Returns the
/// workload and the exact outputs every later round must reproduce.
fn set_up(kind: Kind, seed: u64, budget: Budget) -> Result<(Workload, Exact), String> {
    let wl = Workload::build(kind, seed);
    wl.check_phase().map_err(|e| format!("check phase: {e}"))?;
    let rec = Recorder::new(false);
    let mut reference = None;
    for i in 0..budget.warmup_rounds {
        let (_, out) = timed_round(&wl, &rec, i as u32);
        if out.failed > 0 {
            return Err(format!(
                "warm-up round {i}: {} of {} ops failed",
                out.failed, out.attempted
            ));
        }
        if *reference.get_or_insert(out.exact()) != out.exact() {
            return Err(format!(
                "warm-up round {i} did not reproduce round 0's outputs"
            ));
        }
    }
    reference
        .map(|r| (wl, r))
        .ok_or_else(|| "no warm-up round ran".to_string())
}

/// What a run or a traced run found.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Every measured round reproduced the warm-up round's outputs.
    correct: bool,
    /// The outputs all rounds share (`RoundOut::exact`).
    round_exact: Exact,
    /// Human-readable extras (tails, tables), printed before the
    /// metric lines.
    notes: String,
}

/// The untraced run: the gated end-to-end metrics.
fn bench_run(kind: Kind, seed: u64, budget: Budget) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..budget.setup_reps {
        let t0 = Instant::now();
        ready = Some(set_up(kind, seed, budget)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (wl, reference) = ready.ok_or("no set-up ran")?;

    let rec = Recorder::new(false);
    let (mut round_ms, mut attempted, mut failed, mut correct) = (Vec::new(), 0, 0, true);
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget.seconds || round_ms.len() < budget.min_rounds {
        let (ms, out) = timed_round(&wl, &rec, round_ms.len() as u32);
        round_ms.push(ms);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.exact() == reference;
    }
    let cpu_ms_per_round = (host::cpu_ms() - cpu0) / round_ms.len() as f64;

    let n = round_ms.len() as u64;
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", (stats::median(&setup_s), setup_s.len() as u64));
    metrics.insert("round_ms_p50", (stats::median(&round_ms), n));
    metrics.insert("virt_mzc_per_s", (reference.virt_mzc_per_s(), n));
    metrics.insert("peak_rss_mb", (host::peak_rss_mb(), 1));

    // Reported, not gated: quartiles, the tail the sample count
    // supports, CPU time, and the failure ratio even when it is 0.
    let mut notes = String::new();
    for (label, q) in [("p25", 0.25), ("p75", 0.75), ("p90", 0.90)] {
        let _ = writeln!(
            notes,
            "note round_ms_{label}={:.4} n={n}",
            stats::quantile(&round_ms, q)
        );
    }
    if let Some(p) = stats::tail_percentile(round_ms.len()) {
        let _ = writeln!(
            notes,
            "note round_ms_tail=p{p} value={:.4} n={n} (highest percentile with >= 10 samples beyond it)",
            stats::quantile(&round_ms, p / 100.0)
        );
    }
    let _ = writeln!(
        notes,
        "note host_cpu_ms_per_round={cpu_ms_per_round:.2} n={n}"
    );
    let _ = writeln!(notes, "note setup_s_each={setup_s:.4?}");
    let _ = writeln!(notes, "note round_ms_each={round_ms:.1?}");
    let _ = writeln!(
        notes,
        "note fail_ratio={} failed={failed} attempted={attempted}",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct,
        round_exact: reference,
        notes,
    })
}

/// The traced run: the per-layer metrics.
fn bench_trace(
    kind: Kind,
    seed: u64,
    budget: Budget,
    out_path: Option<&PathBuf>,
) -> Result<Outcome, String> {
    let (wl, reference) = set_up(kind, seed, budget)?;
    let mut metrics = Metrics::new();
    account::virtual_metrics(&account::account(&wl)?, &mut metrics);

    // Replay rounds in untraced/traced pairs, so machine drift lands
    // on both sides of `trace_overhead_ratio`; the reference loop runs
    // between pairs.
    let plain = Recorder::new(false);
    let traced = Recorder::new(true);
    let (mut plain_ms, mut traced_ms, mut ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let (mut cpu_ms, mut last) = (0.0, RoundOut::default());
    let mut queue_high_water = 0.0f64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget.seconds * TRACE_ROUNDS_SHARE
        || plain_ms.len() < TRACE_MIN_PAIRS
    {
        ref_ms.push(host::ref_triad_ms());
        let round = plain_ms.len() as u32;
        let cpu0 = host::cpu_ms();
        let (ms, out) = timed_round(&wl, &plain, round);
        cpu_ms += host::cpu_ms() - cpu0;
        plain_ms.push(ms);
        host::set_alloc_counting(true);
        let (ms, out_traced) = timed_round(&wl, &traced, round);
        host::set_alloc_counting(false);
        traced_ms.push(ms);
        for o in [&out, &out_traced] {
            attempted += o.attempted;
            failed += o.failed;
            correct &= o.exact() == reference;
            queue_high_water = queue_high_water.max(o.serve_queue_high_water);
        }
        last = out;
    }
    let pairs = plain_ms.len() as u64;
    let per_round = |x: f64| x / pairs as f64;

    metrics.insert("sweep_points_per_round", (last.sweep_points as f64, pairs));
    metrics.insert("sweep_skipped_points", (last.sweep_skipped as f64, pairs));
    metrics.insert(
        "serve_executions_per_round",
        (last.serve_executions as f64, pairs),
    );
    let served_from_cache = last.serve_requests - last.serve_executions;
    metrics.insert(
        "serve_cache_served_ratio",
        (
            served_from_cache as f64 / last.serve_requests.max(1) as f64,
            pairs,
        ),
    );
    metrics.insert("serve_rejected", (last.serve_rejected as f64, pairs));
    metrics.insert("serve_queue_depth_high_water", (queue_high_water, pairs));

    for (name, q) in [
        ("round_ms_p25", 0.25),
        ("round_ms_p75", 0.75),
        ("round_ms_p90", 0.90),
    ] {
        metrics.insert(name, (stats::quantile(&plain_ms, q), pairs));
    }
    metrics.insert("host_cpu_ms_per_round", (per_round(cpu_ms), pairs));
    metrics.insert("host_ref_ms_p50", (stats::median(&ref_ms), pairs));
    metrics.insert("host_ref_iqr_ratio", (stats::iqr_ratio(&ref_ms), pairs));
    let (allocs, alloc_bytes) = host::alloc_counts();
    metrics.insert("host_allocs_per_round", (per_round(allocs as f64), pairs));
    metrics.insert(
        "host_alloc_mb_per_round",
        (per_round(alloc_bytes as f64 / 1e6), pairs),
    );
    metrics.insert(
        "trace_overhead_ratio",
        (stats::median(&traced_ms) / stats::median(&plain_ms), pairs),
    );
    metrics.insert(
        "fail_ratio",
        (failed as f64 / attempted.max(1) as f64, attempted),
    );

    // Per-layer self time per traced round; `harness` self time is
    // what no layer span covers — the unattributed residual.
    let recorded = traced.take();
    let self_ns = spans::self_time_by_layer(&recorded);
    let mut notes = format!(
        "self time per traced round (span minus children; {} spans, {pairs} rounds, round p50 {:.3} ms):\n",
        recorded.len(),
        stats::median(&traced_ms)
    );
    for (name, layer) in [
        ("self_ms_per_round.core", "core"),
        ("self_ms_per_round.bench-sweep", "bench-sweep"),
        ("self_ms_per_round.serve", "serve"),
        ("self_ms_per_round.client", "client"),
        ("self_ms_per_round.residual", "harness"),
    ] {
        let ms = per_round(self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6);
        metrics.insert(name, (ms, pairs));
        let _ = writeln!(
            notes,
            "  {:<12} {ms:>10.3} ms",
            if layer == "harness" {
                "residual"
            } else {
                layer
            }
        );
    }
    if let Some(path) = out_path {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans::chrome_json(&recorded))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            notes,
            "wrote {} spans to {}",
            recorded.len(),
            path.display()
        );
    }

    probes::run_all(budget.seconds * TRACE_PROBES_SHARE, &mut metrics)?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct,
        round_exact: reference,
        notes,
    })
}

/// Print the notes, one machine-readable line per metric, and the
/// result object as the last line of standard output.
fn report(outcome: &Outcome, names: &[(&'static str, &'static str)]) -> Result<(), String> {
    print!("{}", outcome.notes);
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let &(value, n) = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was never measured"))?;
        println!("metric name={name} value={value} unit={unit} n={n}");
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/inf; a probe that could not run reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// `e2e selfcheck`: the exact metrics are identical across two
/// in-process repeats and between the untraced and the traced run —
/// tracing and repetition do not perturb the simulated result.
fn selfcheck() -> Result<(), String> {
    let budget = Budget {
        setup_reps: 1,
        warmup_rounds: 1,
        seconds: 0.0,
        min_rounds: 3,
    };
    for kind in Kind::ALL {
        let seed = spec::DEFAULT_SEED;
        let runs = [
            bench_run(kind, seed, budget)?,
            bench_run(kind, seed, budget)?,
        ];
        let traces = [
            bench_trace(kind, seed, budget, None)?,
            bench_trace(kind, seed, budget, None)?,
        ];
        for o in runs.iter().chain(&traces) {
            if !o.correct || o.failed != 0 {
                return Err(format!(
                    "{}: failed={} correct={}",
                    kind.name(),
                    o.failed,
                    o.correct
                ));
            }
            if o.round_exact != runs[0].round_exact {
                return Err(format!(
                    "{}: round outputs differ between repeats or between run and trace: {:?} vs {:?}",
                    kind.name(),
                    o.round_exact,
                    runs[0].round_exact
                ));
            }
        }
        let virt = |o: &Outcome| o.metrics.get("virt_mzc_per_s").map(|v| v.0.to_bits());
        if virt(&runs[0]) != virt(&runs[1]) {
            return Err(format!(
                "{}: virt_mzc_per_s differs between repeats",
                kind.name()
            ));
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let bits = |o: &Outcome| o.metrics.get(m.name).map(|v| v.0.to_bits());
            if bits(&traces[0]).is_none() || bits(&traces[0]) != bits(&traces[1]) {
                return Err(format!(
                    "{}: exact metric {} read {:?} then {:?}",
                    kind.name(),
                    m.name,
                    traces[0].metrics.get(m.name),
                    traces[1].metrics.get(m.name)
                ));
            }
        }
        println!(
            "selfcheck {}: ok (virt_mzc_per_s={}, round outputs {:?})",
            kind.name(),
            runs[0].round_exact.virt_mzc_per_s(),
            runs[0].round_exact
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::List { json: true } => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        Cmd::List { json: false } => {
            print!("{}", spec::list_text());
            Ok(())
        }
        Cmd::Selfcheck => selfcheck(),
        Cmd::Bench {
            kind,
            seed,
            seconds,
            trace: false,
            ..
        } => bench_run(kind, seed, Budget::cli(seconds)).and_then(|o| {
            let names: Vec<_> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            report(&o, &names)
        }),
        Cmd::Bench {
            kind,
            seed,
            seconds,
            trace: true,
            out,
        } => bench_trace(kind, seed, Budget::cli(seconds), out.as_ref()).and_then(|o| {
            let names: Vec<_> = spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
            report(&o, &names)
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cmd = parse_args(&args(
            "--workload hetero-full --seed 7 --seconds 20 --trace 1",
        ));
        assert!(matches!(
            cmd,
            Ok(Cmd::Bench { kind: Kind::HeteroFull, seed: 7, trace: true, out: None, seconds })
                if seconds == 20.0
        ));
        assert!(matches!(
            parse_args(&args("list --json")),
            Ok(Cmd::List { json: true })
        ));
        assert!(matches!(parse_args(&args("selfcheck")), Ok(Cmd::Selfcheck)));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload cpu-full --seed x",
            "--workload cpu-full --seconds 0",
            "--workload cpu-full --trace 2",
            "--workload cpu-full --bogus 1",
            "--workload",
            "list extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
