//! A run that only prices its kernels never reads the fused kernels'
//! tile shape, so it must not time real sweeps to pick one. This file
//! is its own test binary: the probe's process-wide cache is cold, and
//! a seed still wins after a cost-only run exactly when that run did
//! not probe.

use hsim_core::{calib, runner, ExecMode, RunConfig};
use hsim_raja::Fidelity;

#[test]
fn a_cost_only_run_leaves_the_tile_cache_cold() {
    let cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
    assert_eq!(cfg.fidelity, Fidelity::CostOnly);
    assert!(cfg.tile.is_none(), "the run must resolve its own tile");
    runner::run(&cfg).expect("cost-only run");
    runner::run_balanced(&cfg).expect("balanced cost-only run");
    assert_eq!(
        calib::seed_tile([16, 16]),
        [16, 16],
        "a cost-only run probed for a tile it never reads"
    );
}
