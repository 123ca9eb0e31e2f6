//! End-to-end telemetry contracts on a small Sedov run: output
//! determinism, Chrome trace shape, and profiler/report agreement.

use hsim_core::{run_balanced, runner, ExecMode, NodeConfig, RunConfig, RunResult};
use hsim_raja::Fidelity;

/// A small Heterogeneous Sedov problem with full telemetry on.
fn telemetry_cfg() -> RunConfig {
    RunConfig {
        grid: (48, 48, 32),
        mode: ExecMode::hetero(),
        node: NodeConfig::rzhasgpu(),
        cycles: 3,
        fidelity: Fidelity::CostOnly,
        gpu_direct: false,
        diffusion: None,
        multipolicy_threshold: 0,
        trace: false,
        telemetry: true,
        problem: runner::Problem::default(),
        faults: None,
        rebalance: None,
        host_threads: 1,
        tile: None,
        particles: None,
    }
}

fn run_summary(cfg: &RunConfig) -> (RunResult, hsim_telemetry::Summary) {
    let (result, _lb) = run_balanced(cfg).expect("telemetry run");
    let summary = result.telemetry.clone().expect("telemetry requested");
    (result, summary)
}

#[test]
fn same_config_produces_byte_identical_telemetry() {
    let cfg = telemetry_cfg();
    let (_, a) = run_summary(&cfg);
    let (_, b) = run_summary(&cfg);
    assert_eq!(
        a.to_metrics_json(),
        b.to_metrics_json(),
        "metrics JSON must be deterministic"
    );
    assert_eq!(
        a.to_chrome_json(),
        b.to_chrome_json(),
        "span stream must be deterministic"
    );
    assert_eq!(a.to_kernel_csv(), b.to_kernel_csv());
}

#[test]
fn chrome_trace_has_required_fields_and_categories() {
    let (_, summary) = run_summary(&telemetry_cfg());
    let json = summary.to_chrome_json();
    // Chrome trace-event envelope with complete events.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    for field in [
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"pid\":",
        "\"tid\":",
        "\"dur\":",
    ] {
        assert!(json.contains(field), "missing {field}");
    }
    // Process-name metadata so Perfetto labels rank/device timelines.
    assert!(json.contains("\"ph\":\"M\""));
    let cats = summary.categories();
    assert!(
        cats.len() >= 4,
        "expected spans from >=4 categories, got {cats:?}"
    );
    for want in ["gpu_kernel", "cpu_kernel", "mpi_collective", "phase"] {
        assert!(cats.contains(want), "missing category {want} in {cats:?}");
    }
    // Balanced braces/brackets as a cheap well-formedness check.
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count() == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}') && balance('[', ']'));
}

#[test]
fn kernel_profiles_match_report_totals() {
    let (result, summary) = run_summary(&telemetry_cfg());
    // Every dispatch is profiled exactly once (host paths at launch,
    // device paths at sync drain), so the profiler, the metrics
    // counters, and the RankReport accounting must all agree.
    assert_eq!(summary.kernels.total_launches(), result.total_launches());
    assert_eq!(
        summary
            .metrics
            .counter(hsim_telemetry::Counter::KernelLaunches),
        result.total_launches()
    );
    assert_eq!(
        summary
            .metrics
            .counter(hsim_telemetry::Counter::MpiBytesSent),
        result.total_bytes_sent()
    );
    // Sends and receives pair up on a closed node.
    assert_eq!(
        summary.metrics.counter(hsim_telemetry::Counter::MpiSends),
        summary.metrics.counter(hsim_telemetry::Counter::MpiRecvs),
    );
    // Per-cycle bookkeeping: each rank counts every cycle.
    assert_eq!(
        summary.metrics.counter(hsim_telemetry::Counter::Cycles),
        result.cycles * result.ranks.len() as u64
    );
    // The metrics JSON carries its schema version for archives.
    assert!(summary.to_metrics_json().contains("\"schema_version\": 1"));
}

#[test]
fn telemetry_off_leaves_result_lean() {
    let cfg = RunConfig {
        telemetry: false,
        ..telemetry_cfg()
    };
    let (result, _lb) = run_balanced(&cfg).expect("plain run");
    assert!(result.telemetry.is_none());
}

#[test]
fn telemetry_does_not_change_virtual_time() {
    let plain = RunConfig {
        telemetry: false,
        ..telemetry_cfg()
    };
    let (r0, _) = run_balanced(&plain).expect("plain run");
    let (r1, _) = run_balanced(&telemetry_cfg()).expect("telemetry run");
    assert_eq!(
        r0.runtime, r1.runtime,
        "observability must never charge virtual time"
    );
    assert_eq!(r0.total_launches(), r1.total_launches());
}
