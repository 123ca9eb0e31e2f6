//! A run resumes its ranks on the thread that called it (a cost-only
//! run on that thread alone, a full-fidelity one on it and a worker
//! per further core), and a rank body keeps its telemetry collector and its fault injector
//! in thread-local storage. Whatever the *caller* has installed there
//! must come through untouched: not recorded into, not consumed, not
//! replaced — and a rank's own must never be left behind.

use std::sync::Arc;

use hsim_core::{run_balanced, ExecMode, RunConfig};
use hsim_faults::{FaultPlan, Site};
use hsim_raja::Fidelity;
use hsim_telemetry::{Collector, Counter};

fn cfg(telemetry: bool) -> RunConfig {
    let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
    cfg.cycles = 3;
    cfg.telemetry = telemetry;
    // Pinned, so the one-shot tile probe (real kernels, on the calling
    // thread by design) stays out of the picture.
    cfg.tile = Some([8, 8]);
    cfg
}

/// Install a collector and an armed injector on this thread, as a
/// harness that traces itself would.
fn install_callers() {
    hsim_telemetry::install(Collector::new(99));
    let plan = FaultPlan::parse("xfer.delay@rank1.cycle0:ns=5").expect("plan");
    hsim_faults::install(1, Arc::new(plan));
    hsim_faults::set_cycle(0);
}

/// The caller's collector is still installed and recorded nothing; its
/// injector is still armed and its event unconsumed.
fn assert_callers_untouched() {
    let mine = hsim_telemetry::uninstall().expect("the caller's collector was uninstalled");
    assert_eq!(mine.rank, 99, "a rank's collector replaced the caller's");
    assert_eq!(mine.metrics.counter(Counter::MpiSends), 0);
    assert_eq!(mine.metrics.counter(Counter::KernelLaunches), 0);
    assert!(mine.spans.is_empty(), "{} spans leaked", mine.spans.len());
    let hit = hsim_faults::check(Site::XferDelay).expect("the caller's injector was disarmed");
    assert_eq!(hit.param, 5, "a rank's injector replaced the caller's");
    hsim_faults::uninstall();
}

#[test]
fn a_telemetry_off_run_records_nothing_into_the_callers_collector() {
    install_callers();
    let (result, _) = run_balanced(&cfg(false)).expect("cost-only run");
    assert!(result.telemetry.is_none());
    assert_callers_untouched();
}

#[test]
fn a_telemetry_on_run_keeps_rank_and_caller_collectors_apart() {
    let run = |cfg: &RunConfig| run_balanced(cfg).expect("run").0;
    let summary = |cfg: &RunConfig| run(cfg).telemetry.expect("telemetry requested");
    let alone = run(&cfg(true));
    install_callers();
    let beside = run(&cfg(true));
    assert_callers_untouched();
    // Every rank's spans, counters and kernel table, with and without
    // a collector of the caller's on the same thread.
    let metrics = |r: &hsim_core::RunResult| {
        let summary = r.telemetry.as_ref().expect("telemetry requested");
        summary.to_metrics_json(&r.kernels)
    };
    assert_eq!(metrics(&beside), metrics(&alone));
    let (alone, beside) = (alone.telemetry.unwrap(), beside.telemetry.unwrap());
    assert_eq!(beside.to_chrome_json(), alone.to_chrome_json());
    assert!(alone.metrics.counter(Counter::MpiSends) > 0);

    // And they are what full fidelity reports, which spreads the ranks
    // over more workers and charges the same virtual costs, so the two
    // account for the same sends, launches and syncs, rank by rank —
    // with the caller's collector and injector beside them again.
    let mut full = cfg(true);
    full.fidelity = Fidelity::Full;
    install_callers();
    let threaded = summary(&full);
    assert_callers_untouched();
    for counter in [
        Counter::MpiSends,
        Counter::MpiRecvs,
        Counter::MpiBytesSent,
        Counter::MpiCollectives,
        Counter::KernelLaunches,
        Counter::DeviceSyncs,
        Counter::Cycles,
    ] {
        assert_eq!(
            alone.metrics.counter(counter),
            threaded.metrics.counter(counter),
            "{counter:?}"
        );
    }
}

#[test]
fn a_failed_run_leaves_no_rank_locals_behind() {
    // Rank 0's body returns early, with its injector and collector
    // still installed, and its peers end the same way on the
    // disconnect. Every rank has a later event armed, so a leaked
    // injector — whichever rank's — would answer for it.
    let later: String = (0..16)
        .map(|r| format!(";xfer.delay@rank{r}.cycle1:ns=7"))
        .collect();
    let mut cfg = cfg(true);
    cfg.faults =
        Some(FaultPlan::parse(&format!("gpu.oom@rank0.cycle0:perm{later}")).expect("plan"));
    let err = run_balanced(&cfg).expect_err("a permanent OOM is fatal");
    assert!(err.contains("injected device OOM"), "{err}");
    assert!(hsim_telemetry::uninstall().is_none(), "a rank's collector");
    hsim_faults::set_cycle(1);
    assert!(
        hsim_faults::check(Site::XferDelay).is_none(),
        "a rank's injector"
    );
}
