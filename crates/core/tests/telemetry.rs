//! End-to-end telemetry contracts on a small Sedov run: output
//! determinism, Chrome trace shape, and kernel-table/report agreement.

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
    let (ra, a) = run_summary(&cfg);
    let (rb, b) = run_summary(&cfg);
    assert_eq!(
        a.to_metrics_json(&ra.kernels),
        b.to_metrics_json(&rb.kernels),
        "metrics JSON must be deterministic"
    );
    assert_eq!(
        a.to_chrome_json(),
        b.to_chrome_json(),
        "span stream must be deterministic"
    );
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
    use hsim_telemetry::Counter;
    let (result, summary) = run_summary(&telemetry_cfg());
    // Every dispatch is counted once, at launch, and timed once (host
    // kernels at launch, device kernels at the sync that drains them),
    // so the kernel table, the counters written from it and the
    // RankReport accounting must all agree.
    let all = result.kernels.totals().unwrap();
    assert_eq!(all.launches, result.total_launches());
    let counter = |c| summary.metrics.counter(c);
    assert_eq!(counter(Counter::KernelLaunches), all.launches);
    assert_eq!(counter(Counter::GpuKernelLaunches), all.gpu_launches);
    assert_eq!(
        counter(Counter::CpuKernelLaunches),
        all.launches - all.gpu_launches
    );
    assert_eq!(counter(Counter::KernelElements), all.elems);
    // The kernel-time distribution holds each kernel's time once.
    let times = summary
        .metrics
        .time_stats(hsim_telemetry::TimeStat::KernelTime);
    assert_eq!(times.count(), all.launches);
    assert!(all.gpu_launches > 0 && all.total_ns > 0);
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
    let json = summary.to_metrics_json(&result.kernels);
    assert!(json.contains("\"schema_version\": 3"));
    assert!(!json.contains("\"bytes_moved\""));
}

/// `heterosim --mode hetero --grid 64,48,32 --cycles 4 --no-balance
/// --faults rank.loss@rank5.cycle2`: rank 5 is lost after two cycles.
#[test]
fn the_kernel_table_keeps_a_lost_ranks_launches_before_the_loss() {
    let lossy = |cycles, faults: Option<&str>| {
        let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
        cfg.cycles = cycles;
        cfg.telemetry = true;
        cfg.faults = faults.map(|f| hsim_core::faults::FaultPlan::parse(f).unwrap());
        runner::run(&cfg).expect("a CPU rank's loss is recovered")
    };
    let result = lossy(4, Some("rank.loss@rank5.cycle2"));
    // Rank 5's report up to the loss: the same run stopped there.
    let pre_loss = lossy(2, None).ranks[5].launches;
    // The CLI's "kernel launches" line sums the survivors' reports; the
    // table, and the metrics JSON it renders, also hold rank 5's
    // launches before the loss.
    assert_eq!(result.ranks.len(), 15);
    assert_eq!(result.total_launches(), 6940);
    assert_eq!(result.kernels.total_launches(), 7166);
    assert_eq!(
        result.kernels.total_launches(),
        result.total_launches() + pre_loss
    );
    let summary = result.telemetry.as_ref().expect("telemetry requested");
    let counter = summary
        .metrics
        .counter(hsim_telemetry::Counter::KernelLaunches);
    assert_eq!(counter, 7166);
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

#[test]
fn each_gpu_rank_faults_its_mesh_in_once_at_the_unified_memory_charge() {
    use hsim_telemetry::Counter;
    let spec = NodeConfig::rzhasgpu().gpu_spec;
    for mode in [ExecMode::Default, ExecMode::mps4(), ExecMode::hetero()] {
        let cfg = RunConfig {
            mode,
            ..telemetry_cfg()
        };
        let result = runner::run(&cfg).expect("traced run");
        let summary = result.telemetry.as_ref().expect("telemetry requested");
        let fault_ins: Vec<_> = summary
            .spans
            .iter()
            .filter(|s| s.name == "um_fault_in")
            .collect();
        let gpu_ranks = result.ranks.iter().filter(|r| r.role.is_gpu_driver());
        let gpu_ranks = gpu_ranks.count() as u64;
        assert_eq!(fault_ins.len() as u64, gpu_ranks, "{mode:?}");
        assert_eq!(
            summary.metrics.counter(Counter::UmMigrations),
            gpu_ranks,
            "{mode:?}"
        );
        for r in &result.ranks {
            let mine: Vec<_> = fault_ins
                .iter()
                .filter(|s| s.pid as usize == r.rank)
                .collect();
            if r.role.is_gpu_driver() {
                let mesh = r.zones * 8 * hsim_core::calib::MESH_FIELDS;
                let pages = mesh.div_ceil(spec.um_page_size);
                assert_eq!(mine.len(), 1, "{mode:?} rank {}", r.rank);
                assert_eq!(
                    mine[0].dur,
                    spec.um_page_migration * pages,
                    "{mode:?} rank {}",
                    r.rank
                );
            } else {
                assert!(mine.is_empty(), "{mode:?}: CPU rank {} faulted in", r.rank);
            }
        }
    }
}

#[test]
fn each_gpu_kernel_span_sits_on_its_device_and_its_client_stream() {
    use hsim_telemetry::{Category, DEVICE_PID_BASE};
    use std::collections::BTreeMap;
    let gpus = NodeConfig::rzhasgpu().gpus as u32;
    for (mode, streams) in [
        (ExecMode::mps4(), 4),
        (ExecMode::Default, 1),
        (ExecMode::hetero(), 1),
    ] {
        let cfg = RunConfig {
            mode,
            ..telemetry_cfg()
        };
        let (_, summary) = run_summary(&cfg);
        // (pid, tid) → spans of a category on that track.
        let tracks = |cat: Category| {
            let mut n: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            for s in summary.spans.iter().filter(|s| s.cat == cat) {
                *n.entry((s.pid, s.tid)).or_default() += 1;
            }
            n
        };
        // A GPU rank's own timeline marks its busy share of each cycle
        // as a `gpu_kernel` span too, on the rank's pid below the base.
        let mut kernels = tracks(Category::GpuKernel);
        kernels.retain(|&(pid, _), _| pid >= DEVICE_PID_BASE);
        let launches = tracks(Category::Launch);
        // Client `i` of GPU `g` is rank `g·streams + i` (track `(rank,
        // 0)`): each of its launches runs on stream `i` of the device's
        // track `DEVICE_PID_BASE + g`. Ranks at a physical boundary
        // launch more boundary fills, so the counts tell clients apart.
        let mut want = BTreeMap::new();
        for g in 0..gpus {
            for i in 0..streams {
                let rank = g * streams + i;
                want.insert((DEVICE_PID_BASE + g, i), launches[&(rank, 0)]);
            }
        }
        assert_eq!(kernels, want, "{mode:?}");
        assert!(want.values().all(|&n| n > 0), "{mode:?}: {want:?}");
    }
}
