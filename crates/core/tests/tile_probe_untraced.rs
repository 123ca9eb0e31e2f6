//! The one-shot tile auto-tune probe must stay out of a run's
//! telemetry. This file is its own test binary, so the probe's
//! process-wide cache is cold when the first run starts: if the probe
//! ran under a rank's collector, that run alone would carry its
//! kernel launches.

use hsim_core::{runner, ExecMode, RunConfig};
use hsim_raja::Fidelity;
use hsim_telemetry::Counter;

#[test]
fn first_unpinned_run_reports_the_same_metrics_as_the_second() {
    let mut cfg = RunConfig::sweep((32, 32, 32), ExecMode::CpuOnly);
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = 2;
    cfg.telemetry = true;
    assert!(cfg.tile.is_none(), "the run must resolve its own tile");
    let run = |cfg: &RunConfig| runner::run(cfg).expect("unpinned run");
    let (first, second) = (run(&cfg), run(&cfg));
    let metrics = |r: &hsim_core::RunResult| {
        let summary = r.telemetry.as_ref().expect("telemetry requested");
        (
            summary.metrics.counter(Counter::KernelLaunches),
            summary.to_metrics_json(&r.kernels),
        )
    };
    let (first, second) = (metrics(&first), metrics(&second));
    assert_eq!(
        first.0, second.0,
        "the tile probe booked its launches into the first run"
    );
    assert_eq!(first.1, second.1);
}
