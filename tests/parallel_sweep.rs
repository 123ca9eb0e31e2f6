//! Acceptance tests for the parallel sweep engine: fanning a figure
//! over a job pool must never change a byte of its output, and
//! infeasible points must be recorded on the data instead of lost to
//! stderr.

use heterosim::bench::{paper_modes, run_figure_jobs};
use heterosim::core::figures::{FigureSpec, SweepAxis};

/// A trimmed fig13-style sweep: every mode runs every point.
fn feasible_spec() -> FigureSpec {
    FigureSpec {
        id: "par_test",
        caption: "parallel sweep determinism probe",
        sweep: SweepAxis::X,
        values: vec![64, 96, 128],
        fixed: (48, 32),
        scenario: heterosim::core::Scenario::Sedov,
    }
}

/// A sweep whose fixed cross-section (y=4, z=4) is too thin for the
/// 16-rank modes: Default's 4 blocks fit, but MPS cannot split the
/// axis 4 ways and Heterogeneous cannot carve CPU planes from it.
fn infeasible_spec() -> FigureSpec {
    FigureSpec {
        id: "skip_test",
        caption: "sweep with modes that cannot decompose",
        sweep: SweepAxis::X,
        values: vec![64],
        fixed: (4, 4),
        scenario: heterosim::core::Scenario::Sedov,
    }
}

#[test]
fn job_count_never_changes_figure_bytes() {
    let spec = feasible_spec();
    let modes = paper_modes();
    let serial = run_figure_jobs(&spec, &modes, 1);
    for jobs in [2, 8] {
        let parallel = run_figure_jobs(&spec, &modes, jobs);
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "--jobs {jobs} changed the CSV"
        );
        assert_eq!(
            serial.to_markdown(),
            parallel.to_markdown(),
            "--jobs {jobs} changed the markdown"
        );
        assert_eq!(serial.chart_series(), parallel.chart_series());
    }
}

#[test]
fn oversubscribed_pool_handles_more_jobs_than_tasks() {
    // 3 modes × 1 point = 3 tasks with 32 requested jobs: the worker
    // count clamps to the task count and output is still identical.
    let spec = FigureSpec {
        values: vec![96],
        ..feasible_spec()
    };
    let modes = paper_modes();
    let serial = run_figure_jobs(&spec, &modes, 1);
    let flooded = run_figure_jobs(&spec, &modes, 32);
    assert_eq!(serial.to_csv(), flooded.to_csv());
    assert!(serial.skipped.is_empty());
}

#[test]
fn infeasible_points_are_recorded_not_lost() {
    let spec = infeasible_spec();
    let data = run_figure_jobs(&spec, &paper_modes(), 4);
    // Default succeeds; MPS and Heterogeneous cannot decompose.
    assert_eq!(data.series.len(), 3);
    let by_key = |key: &str| {
        data.series
            .iter()
            .find(|s| s.mode.key() == key)
            .expect("series present")
    };
    assert_eq!(by_key("default").points.len(), 1);
    assert!(by_key("mps4").points.is_empty());
    assert!(by_key("hetero").points.is_empty());
    assert_eq!(data.skipped.len(), 2, "{:?}", data.skipped);
    for s in &data.skipped {
        assert_eq!(s.grid, (64, 4, 4));
        assert_eq!(s.swept_dim, 64);
        assert!(!s.reason.is_empty(), "skip must carry the runner's error");
    }
    // The footer surfaces them in the markdown artifact...
    let md = data.to_markdown();
    assert!(md.contains("2 infeasible point(s) skipped"));
    assert!(md.contains("64×4×4"));
    // ...while the CSV stays strictly tabular: header + the one
    // Default row, no skip annotations.
    assert_eq!(data.to_csv().lines().count(), 2);
}

#[test]
fn skip_order_is_deterministic_across_job_counts() {
    let spec = infeasible_spec();
    let a = run_figure_jobs(&spec, &paper_modes(), 1);
    let b = run_figure_jobs(&spec, &paper_modes(), 8);
    let fmt = |d: &heterosim::bench::FigureData| {
        d.skipped
            .iter()
            .map(|s| format!("{}:{:?}:{}", s.mode, s.grid, s.reason))
            .collect::<Vec<_>>()
    };
    assert_eq!(fmt(&a), fmt(&b));
    assert_eq!(a.to_markdown(), b.to_markdown());
}

/// The serve front end runs the same engine over the same
/// configurations: `/figure/fig-sod` is byte for byte the `figures`
/// binary's CSV, and it executes — and caches — Sod runs, so a later
/// `POST /run scenario=sod` for one of its points is a hit.
#[test]
fn served_figure_is_the_same_sweep_under_the_same_cache_keys() {
    use heterosim::core::{figures, Scenario};
    use heterosim::serve::{Request, Server, ServerConfig};

    let spec = figures::fig_scenario(Scenario::Sod);
    let modes = paper_modes();
    let server = Server::new(ServerConfig::default());
    let served = server.figure_csv(spec.id, &modes).expect("figure serves");

    let first = spec.config(&spec.points()[0], modes[0]);
    assert_eq!(first.problem, Scenario::Sod.problem());
    let again = server.submit(Request::balanced(first)).expect("serves");
    assert!(again.cached, "the sweep ran this point under this key");

    assert_eq!(served, run_figure_jobs(&spec, &modes, 2).to_csv());
}
