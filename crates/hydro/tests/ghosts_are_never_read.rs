//! The ghosts a cycle leaves behind are never read.
//!
//! The stage sweeps write only owned zones of their target, so after a
//! cycle the ghost zones of `u`, `u0` and `prim` hold stale values.
//! That is sound only if nothing reads a ghost before the boundary
//! fill and the halo exchange rewrite it. Here every ghost of all
//! three slabs is set to NaN between cycles: owned zones, physical
//! time and the rank clock must stay bit-equal to the same run left
//! alone. Each cycle is followed by a diffusion step, whose tiled
//! passes read ghosts too. (A multirank twin under the MPI coupler lives in
//! `hsim-core`'s coupler tests.)

use hsim_hydro::muscl::Reconstruction;
use hsim_hydro::noh::{self, NohConfig};
use hsim_hydro::sedov::{self, SedovConfig};
use hsim_hydro::sod::{self, SodConfig};
use hsim_hydro::taylor_green::{self, TaylorGreenConfig};
use hsim_hydro::{diffusion, step_with, DiffusionConfig, HydroState, SoloCoupler, NCONS};
use hsim_mesh::{GlobalGrid, SoaBlock, Subdomain};
use hsim_raja::{CpuModel, Executor, Fidelity, Target};
use hsim_time::task::block_on;
use hsim_time::RankClock;

const CYCLES: usize = 4;

/// Every ghost zone of every variable of `block` set to NaN.
fn poison_ghosts(block: &mut SoaBlock) {
    let (d, g, core) = (block.dims(), block.ghost(), block.core());
    for v in 0..block.nvar() {
        for k in 0..d[2] {
            for j in 0..d[1] {
                for i in 0..d[0] {
                    let owned = [i, j, k]
                        .iter()
                        .zip(core)
                        .all(|(&x, c)| x >= g && x < g + c);
                    if !owned {
                        let at = block.idx(i, j, k);
                        block.var_mut(v)[at] = f64::NAN;
                    }
                }
            }
        }
    }
}

/// Owned zones of `u`, as bits.
fn owned_bits(st: &HydroState) -> Vec<u64> {
    let e = st.ext();
    let mut out = Vec::with_capacity(NCONS * e[0] * e[1] * e[2]);
    for v in 0..NCONS {
        for k in 0..e[2] {
            for j in 0..e[1] {
                for i in 0..e[0] {
                    out.push(st.u.get(v, i, j, k).to_bits());
                }
            }
        }
    }
    out
}

fn scenario_state(which: usize, n: [usize; 3], ghost: usize) -> HydroState {
    let grid = GlobalGrid::new(n[0], n[1], n[2]);
    let sub = Subdomain::new([0, 0, 0], n, ghost);
    let mut st = HydroState::new(grid, sub, Fidelity::Full);
    match which {
        0 => sedov::init(&mut st, &SedovConfig::default()),
        1 => sod::init(&mut st, &SodConfig::default()),
        2 => noh::init(&mut st, &NohConfig::default()),
        _ => taylor_green::init(&mut st, &TaylorGreenConfig::default()),
    }
    st.tile = [4, 3];
    st
}

/// Run `CYCLES` cycles on `threads` workers, poisoning every ghost
/// before each one if asked; returns owned zones, `t` and the clock
/// after every cycle.
fn run(
    which: usize,
    recon: Reconstruction,
    threads: usize,
    poison: bool,
) -> Vec<(Vec<u64>, u64, u64)> {
    let ghost = if recon == Reconstruction::Muscl { 2 } else { 1 };
    let mut st = scenario_state(which, [12, 10, 8], ghost);
    let target = match threads {
        1 => Target::CpuSeq,
        n => Target::cpu_parallel(n),
    };
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    (0..CYCLES)
        .map(|_| {
            if poison {
                for block in [&mut st.u, &mut st.u0, &mut st.prim] {
                    poison_ghosts(block);
                }
            }
            let solo = &mut SoloCoupler;
            let cycle = step_with(&mut st, &mut exec, &mut clock, solo, 0.3, 1.0, recon);
            let dt = block_on(cycle).expect("a solo cycle").dt;
            let cfg = DiffusionConfig { kappa: 2e-3 };
            let heat = diffusion::advance(&mut st, &mut exec, &mut clock, solo, &cfg, dt);
            block_on(heat).expect("a solo diffusion step");
            (owned_bits(&st), st.t.to_bits(), clock.now().as_nanos())
        })
        .collect()
}

#[test]
fn poisoned_ghosts_leave_every_scenario_bit_equal() {
    let names = ["sedov", "sod", "noh", "taylor-green"];
    for (which, name) in names.into_iter().enumerate() {
        for recon in [Reconstruction::FirstOrder, Reconstruction::Muscl] {
            for threads in [1, 2] {
                let clean = run(which, recon, threads, false);
                let poisoned = run(which, recon, threads, true);
                for (cycle, (a, b)) in clean.iter().zip(&poisoned).enumerate() {
                    assert!(
                        a.0 == b.0,
                        "{name} {recon:?}: owned zones differ after cycle {cycle}"
                    );
                    assert_eq!(a.1, b.1, "{name} {recon:?}: t differs after cycle {cycle}");
                    assert_eq!(
                        a.2, b.2,
                        "{name} {recon:?}: clock differs after cycle {cycle}"
                    );
                }
                // The poison must reach nothing that is kept.
                let last = &poisoned[CYCLES - 1].0;
                assert!(
                    last.iter().all(|&x| f64::from_bits(x).is_finite()),
                    "{name}"
                );
            }
        }
    }
}
