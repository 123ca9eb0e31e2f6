//! Configuration-matrix smoke tests: every mode × problem × option
//! combination must run, and basic monotonicities must hold.

use heterosim::core::runner::Problem;
use heterosim::core::{run, ExecMode, RunConfig, Scenario};
use heterosim::hydro::DiffusionConfig;
use heterosim::time::SimDuration;

fn modes() -> Vec<ExecMode> {
    vec![
        ExecMode::CpuOnly,
        ExecMode::Default,
        ExecMode::Mps { per_gpu: 2 },
        ExecMode::mps4(),
        ExecMode::hetero(),
    ]
}

#[test]
fn every_mode_runs_every_problem_cost_only() {
    for mode in modes() {
        for problem in [
            Problem::default(),
            Scenario::Sod.problem(),
            Problem::Perturbed,
        ] {
            let mut cfg = RunConfig::sweep((64, 48, 32), mode);
            cfg.cycles = 2;
            cfg.problem = problem;
            let r = run(&cfg).unwrap_or_else(|e| panic!("{mode:?} {problem:?}: {e}"));
            assert!(r.runtime > SimDuration::ZERO);
            assert_eq!(r.cycles, 2);
            // The six buckets partition every rank's total, in ns.
            for k in &r.ranks {
                let parts = k.compute + k.launch + k.memory + k.comm + k.control + k.wait;
                assert_eq!(parts, k.total, "{mode:?} rank {}", k.rank);
            }
        }
    }
}

#[test]
fn cost_only_runtime_is_independent_of_the_problem() {
    // Virtual time depends on sizes and shapes only: the three
    // problems must charge identical time in cost-only fidelity.
    let mut times = Vec::new();
    for problem in [
        Problem::default(),
        Scenario::Sod.problem(),
        Problem::Perturbed,
    ] {
        let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::Default);
        cfg.cycles = 3;
        cfg.problem = problem;
        times.push(run(&cfg).unwrap().runtime);
    }
    assert_eq!(times[0], times[1]);
    assert_eq!(times[0], times[2]);
}

#[test]
fn runtime_grows_monotonically_with_zones() {
    for mode in [ExecMode::Default, ExecMode::mps4(), ExecMode::hetero()] {
        let mut last = SimDuration::ZERO;
        for nx in [64usize, 128, 256, 512] {
            let cfg = RunConfig::sweep((nx, 48, 32), mode);
            let r = run(&cfg).unwrap();
            assert!(
                r.runtime > last,
                "{mode:?}: runtime must grow with zones (nx={nx})"
            );
            last = r.runtime;
        }
    }
}

#[test]
fn options_compose_without_errors() {
    // diffusion + gpu_direct + multipolicy + trace, all at once.
    let mut cfg = RunConfig::sweep((96, 64, 48), ExecMode::hetero());
    cfg.cycles = 2;
    cfg.diffusion = Some(DiffusionConfig { kappa: 5e-4 });
    cfg.gpu_direct = true;
    cfg.multipolicy_threshold = 500;
    cfg.trace = true;
    let r = run(&cfg).unwrap();
    assert!(r.telemetry.is_some());
    assert!(r.runtime > SimDuration::ZERO);
}

#[test]
fn more_cycles_cost_proportionally_more() {
    let mut cfg = RunConfig::sweep((128, 96, 64), ExecMode::Default);
    cfg.cycles = 2;
    let short = run(&cfg).unwrap().runtime;
    cfg.cycles = 8;
    let long = run(&cfg).unwrap().runtime;
    let ratio = long.ratio(short);
    assert!(
        (3.5..4.5).contains(&ratio),
        "8 cycles vs 2 should be ~4x: {ratio}"
    );
}

#[test]
fn rank_reports_are_complete_and_consistent() {
    let cfg = RunConfig::sweep((96, 96, 96), ExecMode::hetero());
    let r = run(&cfg).unwrap();
    let zones_total: u64 = r.ranks.iter().map(|x| x.zones).sum();
    assert_eq!(zones_total, r.zones, "rank zones must cover the grid");
    for rank in &r.ranks {
        assert!(rank.total <= r.runtime, "no rank exceeds the makespan");
        assert!(rank.launches > 0, "every rank launches kernels");
    }
    // The runtime equals the slowest rank exactly.
    let max = r.ranks.iter().map(|x| x.total).max().unwrap();
    assert_eq!(max, r.runtime);
}
