//! Property test: the fused cache-blocked kernels are bitwise
//! interchangeable with the legacy per-pass kernels they replaced.
//!
//! The in-module unit tests in `fused.rs` pin a handful of known
//! shapes; this test drives the same equivalence across random grid
//! extents and random (often ragged) tile shapes, comparing every
//! output slab bit for bit **three ways**: the legacy serial path,
//! the fused serial path, and the fused parallel-tile path at worker
//! counts 1, 2, and 4. The legacy path always runs serially, so the
//! comparison proves the fused path's tiling, scratch layout, and
//! pool scheduling are all invisible in the output — the repo's
//! worker-count-invariance guarantee. (Virtual-time charge parity is
//! pinned by the unit tests in `fused.rs`, which run both paths on
//! the same target; here the targets differ by design.)
//!
//! x extents reach 40 zones, so the vectorized body of every row loop
//! runs, not only its remainder. The stage test adds the RK step a
//! sweep absorbs: from each [`Start`], the fused stage sweep must match
//! the legacy save or combine loop followed by the per-pass sweep on
//! every owned zone (and on the whole slab from the target as it is).
//! The diffusion test holds the fused diffusion substep to the
//! seven-pass one it replaced, kept here as its oracle.

use hsim_hydro::fused::Start;
use hsim_hydro::muscl::Reconstruction;
use hsim_hydro::noh::{self, NohConfig};
use hsim_hydro::sedov::{self, SedovConfig};
use hsim_hydro::sod::{self, SodConfig};
use hsim_hydro::state::{EN, GAMMA, MX, MY, MZ, PR, RHO, RHO_FLOOR};
use hsim_hydro::taylor_green::{self, TaylorGreenConfig};
use hsim_hydro::{diffusion, eos, flux, fused, kernels, muscl, HydroState, NCONS};
use hsim_mesh::{GlobalGrid, Subdomain};
use hsim_raja::{CpuModel, Executor, Fidelity, Target};
use hsim_time::RankClock;
use proptest::prelude::*;

const DT: f64 = 1e-3;

/// A full-fidelity state whose conserved fields (ghosts included) are
/// random but physical: positive density and pressure, modest
/// velocities. Filling the ghosts directly stands in for a halo
/// exchange, so no boundary pass is needed before sweeping.
fn random_state(n: [usize; 3], ghost: usize, rng: &mut TestRng) -> HydroState {
    let grid = GlobalGrid::new(n[0], n[1], n[2]);
    random_box(grid, Subdomain::new([0, 0, 0], n, ghost), rng)
}

/// [`random_state`] on the sub-box `sub` of `grid`.
fn random_box(grid: GlobalGrid, sub: Subdomain, rng: &mut TestRng) -> HydroState {
    let mut st = HydroState::new(grid, sub, Fidelity::Full);
    let d = st.u.dims();
    // Allocated coordinates, so the loop covers the ghost shells too.
    for k in 0..d[2] {
        for j in 0..d[1] {
            for i in 0..d[0] {
                let rho = 0.5 + 1.5 * rng.next_f64();
                let vx = 0.4 * rng.next_f64() - 0.2;
                let vy = 0.4 * rng.next_f64() - 0.2;
                let vz = 0.4 * rng.next_f64() - 0.2;
                let p = 0.2 + rng.next_f64();
                let ke = 0.5 * rho * (vx * vx + vy * vy + vz * vz);
                let at = st.u.idx(i, j, k);
                st.u.var_mut(RHO)[at] = rho;
                st.u.var_mut(MX)[at] = rho * vx;
                st.u.var_mut(MY)[at] = rho * vy;
                st.u.var_mut(MZ)[at] = rho * vz;
                st.u.var_mut(EN)[at] = p / (GAMMA - 1.0) + ke;
            }
        }
    }
    let u = st.u.clone();
    st.u0.copy_from(&u);
    st
}

/// A second state carrying exactly the same bytes as `src`.
fn twin(src: &HydroState) -> HydroState {
    let mut st = HydroState::new(src.grid, src.sub, Fidelity::Full);
    st.u.copy_from(&src.u);
    st.u0.copy_from(&src.u0);
    st.prim.copy_from(&src.prim);
    st
}

fn prop_slabs_identical(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: slab sizes differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: slab element {i} differs: {x} vs {y}"
        );
    }
}

fn assert_states_identical(legacy: &HydroState, fused: &HydroState, what: &str) {
    prop_slabs_identical(legacy.prim.slab(), fused.prim.slab(), what);
    prop_slabs_identical(legacy.u0.slab(), fused.u0.slab(), what);
    prop_slabs_identical(legacy.u.slab(), fused.u.slab(), what);
}

/// Worker counts the parallel-tile path must be invariant over.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Run the fused primitives + sweep on `st` under `target`.
fn run_fused(st: &mut HydroState, target: Target, muscl_order: bool) {
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    fused::primitives(st, &mut exec, &mut clock).unwrap();
    if muscl_order {
        fused::sweep_muscl(st, &mut exec, &mut clock, DT).unwrap();
    } else {
        fused::sweep(st, &mut exec, &mut clock, DT).unwrap();
    }
}

/// A full-fidelity state initialized by one of the four first-class
/// scenarios (index into [`SCENARIO_NAMES`]). Unlike [`random_state`]
/// these are the *real* problem states the figure sweeps and CI gates
/// run, covering their distinct structures (point deposit, axial
/// discontinuity, inflow implosion, smooth vortex).
const SCENARIO_NAMES: [&str; 4] = ["sedov", "sod", "noh", "taylor-green"];

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
    st
}

/// Owned zones of the two states' targets, bit for bit.
fn assert_owned_identical(legacy: &HydroState, fused: &HydroState, what: &str) {
    let e = legacy.ext();
    for var in 0..NCONS {
        for k in 0..e[2] {
            for j in 0..e[1] {
                for i in 0..e[0] {
                    let (x, y) = (legacy.u0.get(var, i, j, k), fused.u0.get(var, i, j, k));
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what}: var {var} at owned ({i},{j},{k}) differs: {x} vs {y}"
                    );
                }
            }
        }
    }
}

/// One RK stage the legacy way: the whole-slab save or combine loop
/// the cycle ran before it folded them into the sweep, then the
/// per-pass primitives and sweep.
fn legacy_stage(st: &mut HydroState, start: Start, muscl_order: bool) {
    match start {
        Start::Target => {}
        Start::Snapshot => {
            let u = st.u.clone();
            st.u0.copy_from(&u);
        }
        Start::Average => {
            let (u, u0) = (&st.u, &mut st.u0);
            for (t, q) in u0.slab_mut().iter_mut().zip(u.slab()) {
                *t = 0.5 * *t + 0.5 * *q;
            }
        }
    }
    let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    eos::primitives(st, &mut exec, &mut clock).unwrap();
    if muscl_order {
        muscl::sweep_muscl(st, &mut exec, &mut clock, DT).unwrap();
    } else {
        flux::sweep(st, &mut exec, &mut clock, DT).unwrap();
    }
}

/// The same stage through the fused kernels on `target`.
fn fused_stage(st: &mut HydroState, target: Target, start: Start, muscl_order: bool) {
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    fused::primitives(st, &mut exec, &mut clock).unwrap();
    let recon = if muscl_order {
        Reconstruction::Muscl
    } else {
        Reconstruction::FirstOrder
    };
    fused::sweep_from(st, &mut exec, &mut clock, DT, start, recon).unwrap();
}

/// The seven-pass diffusion substep the fused one replaced, kept as its
/// oracle: DIFF_EINT into `prim[PR]` over the allocated box, then per
/// axis DIFF_FLUX into face scratch and DIFF_UPDATE of the owned `EN`,
/// one `forall3` each. Along its axis, face `f` sits between allocated
/// zones `f` and `f + 1`, which is the owned zones' own faces on one
/// ghost layer only; the fused substep is compared with it there.
fn oracle_diffusion_substep(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    kappa: f64,
    dt: f64,
) {
    let at = |d: [usize; 3]| move |i: usize, j: usize, k: usize| i + j * d[0] + k * d[0] * d[1];
    let (h, g, dims) = (st.dx(), st.sub.ghost, st.u.dims());
    let (ext, ext_all) = (st.ext(), st.ext_all());
    let zone = at(dims);
    {
        let (u, prim) = (&st.u, &mut st.prim);
        let [rho, mx, my, mz, en] = [RHO, MX, MY, MZ, EN].map(|v| u.var(v));
        let eint = prim.var_mut(PR);
        exec.forall3(clock, &kernels::DIFF_EINT, ext_all, |i, j, k| {
            let idx = zone(i, j, k);
            let r = rho[idx].max(RHO_FLOOR);
            let ke = 0.5 * (mx[idx] * mx[idx] + my[idx] * my[idx] + mz[idx] * mz[idx]) / r;
            eint[idx] = en[idx] - ke;
        })
        .unwrap();
    }
    let full = exec.fidelity == Fidelity::Full;
    let faces = (0..3).map(|a| HydroState::face_count(st.ext(), a)).max();
    let mut fx = vec![0.0; if full { faces.unwrap_or(0) } else { 0 }];
    for axis in 0..3 {
        let fd = st.face_dims(axis);
        let face = at(fd);
        let eint = st.prim.var(PR);
        let scale = kappa / h;
        exec.forall3(clock, &kernels::DIFF_FLUX, fd, |i, j, k| {
            let (mut l, mut r) = ([i, j, k], [i, j, k]);
            for a in 0..3 {
                if a != axis {
                    l[a] += g;
                    r[a] += g;
                } else {
                    r[a] += 1;
                }
            }
            let (el, er) = (eint[zone(l[0], l[1], l[2])], eint[zone(r[0], r[1], r[2])]);
            fx[face(i, j, k)] = -scale * (er - el);
        })
        .unwrap();
        let en = st.u.var_mut(EN);
        let scale = dt / h;
        exec.forall3(clock, &kernels::DIFF_UPDATE, ext, |i, j, k| {
            let mut hi = [i, j, k];
            hi[axis] += 1;
            let f_lo = fx[face(i, j, k)];
            let f_hi = fx[face(hi[0], hi[1], hi[2])];
            en[zone(i + g, j + g, k + g)] -= scale * (f_hi - f_lo);
        })
        .unwrap();
    }
}

/// Owned `EN` of two states, bit for bit.
fn assert_owned_energy_identical(a: &HydroState, b: &HydroState, what: &str) {
    let e = a.ext();
    for k in 0..e[2] {
        for j in 0..e[1] {
            for i in 0..e[0] {
                let (x, y) = (a.u.get(EN, i, j, k), b.u.get(EN, i, j, k));
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: EN at owned ({i},{j},{k})"
                );
            }
        }
    }
}

/// The clock and launch count one diffusion substep leaves.
fn substep_on(
    st: &mut HydroState,
    target: Target,
    fidelity: Fidelity,
    oracle: bool,
    (kappa, dt): (f64, f64),
) -> (u64, u64) {
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), fidelity);
    let mut clock = RankClock::new(0);
    if oracle {
        oracle_diffusion_substep(st, &mut exec, &mut clock, kappa, dt);
    } else {
        diffusion::substep(st, &mut exec, &mut clock, kappa, dt).unwrap();
    }
    (clock.now().as_nanos(), exec.kernels.total_launches())
}

/// Primitive recovery and the CFL timestep on `target`, the legacy way
/// (three passes, then the `forall3_min` reduction) or fused (one
/// tiled pass that takes the bound, then the charge-only reduction):
/// the timestep's bits, the clock and the launch count.
fn cfl_on(
    st: &mut HydroState,
    target: Target,
    fidelity: Fidelity,
    legacy: bool,
) -> (u64, u64, u64) {
    let (cfl, default) = (0.3, 0.125);
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), fidelity);
    let mut clock = RankClock::new(0);
    let dt = if legacy {
        eos::primitives(st, &mut exec, &mut clock).unwrap();
        eos::cfl_dt(st, &mut exec, &mut clock, cfl, default).unwrap()
    } else {
        let bound = fused::primitives_bound(st, &mut exec, &mut clock).unwrap();
        fused::cfl_dt(st, &mut exec, &mut clock, bound, cfl, default).unwrap()
    };
    let launches = exec.kernels.total_launches();
    (dt.to_bits(), clock.now().as_nanos(), launches)
}

proptest! {
    /// The CFL bound the tiled primitive recovery takes is the legacy
    /// reduction's, bit for bit, on any tile shape and worker count,
    /// with the same charges; so are the primitives and the cost-only
    /// timestep.
    #[test]
    fn the_bound_taken_by_primitive_recovery_is_the_legacy_cfl_bound(
        n in (3usize..41, 3usize..9, 3usize..9),
        ghost in 1usize..3,
        tile in (1usize..13, 1usize..13),
        seed in 0u64..1_000_000,
    ) {
        let n = [n.0, n.1, n.2];
        let mut rng = TestRng::from_name(&format!("cfl-{seed}"));
        let init = random_state(n, ghost, &mut rng);
        let mut legacy = twin(&init);
        let expect = cfl_on(&mut legacy, Target::CpuSeq, Fidelity::Full, true);
        for threads in [0, 1, 2, 4] {
            let target = || match threads {
                0 => Target::CpuSeq,
                t => Target::cpu_parallel(t),
            };
            let mut fused = twin(&init);
            fused.tile = [tile.0, tile.1];
            let got = cfl_on(&mut fused, target(), Fidelity::Full, false);
            prop_assert_eq!(got.0, expect.0, "dt on {} workers", threads);
            let by_legacy = cfl_on(&mut twin(&init), target(), Fidelity::Full, true);
            prop_assert_eq!(got, by_legacy, "dt, clock and launches on {} workers", threads);
            prop_slabs_identical(legacy.prim.slab(), fused.prim.slab(), "primitives");
        }
        let grid = GlobalGrid::new(n[0], n[1], n[2]);
        let cost_only = || HydroState::new(grid, Subdomain::new([0, 0, 0], n, ghost), Fidelity::CostOnly);
        let legacy = cfl_on(&mut cost_only(), Target::CpuSeq, Fidelity::CostOnly, true);
        let fused = cfl_on(&mut cost_only(), Target::CpuSeq, Fidelity::CostOnly, false);
        prop_assert_eq!(legacy, fused, "cost-only dt, clock and launches");
    }

    /// The fused diffusion substep against the seven-pass oracle on one
    /// ghost layer: random grids, sub-boxes anywhere in a larger grid,
    /// ragged tiles, serial and 1, 2 and 4 workers. Owned `EN`, the
    /// whole `prim[PR]` and `u` slabs, the clock and the launch count
    /// are equal on every target, and so are the cost-only charges.
    #[test]
    fn fused_diffusion_substep_matches_the_seven_pass_oracle(
        n in (3usize..41, 3usize..9, 3usize..9),
        lo in (0usize..3, 0usize..3, 0usize..3),
        tile in (1usize..13, 1usize..13),
        seed in 0u64..1_000_000,
    ) {
        let n = [n.0, n.1, n.2];
        let lo = [lo.0, lo.1, lo.2];
        let grid = GlobalGrid::new(n[0] + 2 * lo[0], n[1] + 2 * lo[1], n[2] + 2 * lo[2]);
        let sub = Subdomain::new(lo, [lo[0] + n[0], lo[1] + n[1], lo[2] + n[2]], 1);
        let mut rng = TestRng::from_name(&format!("diffusion-{seed}"));
        let init = random_box(grid, sub, &mut rng);
        let kappa = 1e-3 * (0.5 + rng.next_f64());
        let step = (kappa, 0.9 * hsim_hydro::diffusion_dt(&init, kappa));

        let mut oracle = twin(&init);
        let charged = substep_on(&mut oracle, Target::CpuSeq, Fidelity::Full, true, step);
        let mut serial = twin(&init);
        serial.tile = [tile.0, tile.1];
        let fused = substep_on(&mut serial, Target::CpuSeq, Fidelity::Full, false, step);
        prop_assert_eq!(charged, fused, "serial clock and launches");
        assert_owned_energy_identical(&oracle, &serial, "fused serial vs oracle");
        prop_slabs_identical(oracle.prim.slab(), serial.prim.slab(), "prim, serial");
        prop_slabs_identical(oracle.u.slab(), serial.u.slab(), "u, serial");

        for threads in WORKER_COUNTS {
            let mut par = twin(&init);
            par.tile = [tile.0, tile.1];
            let fused = substep_on(&mut par, Target::cpu_parallel(threads), Fidelity::Full, false, step);
            let mut by_oracle = twin(&init);
            let charged = substep_on(&mut by_oracle, Target::cpu_parallel(threads), Fidelity::Full, true, step);
            prop_assert_eq!(charged, fused, "x{} clock and launches", threads);
            let what = format!("fused x{threads} vs oracle");
            assert_owned_energy_identical(&oracle, &par, &what);
            prop_slabs_identical(oracle.prim.slab(), par.prim.slab(), &what);
            prop_slabs_identical(oracle.u.slab(), par.u.slab(), &what);
        }

        let cost_only = || HydroState::new(grid, sub, Fidelity::CostOnly);
        let charged = substep_on(&mut cost_only(), Target::CpuSeq, Fidelity::CostOnly, true, step);
        let fused = substep_on(&mut cost_only(), Target::CpuSeq, Fidelity::CostOnly, false, step);
        prop_assert_eq!(charged, fused, "cost-only clock and launches");
    }

    /// Every stage start, both orders, three ways: the legacy save or
    /// combine loop plus the per-pass sweep, the fused stage sweep
    /// serial, and the fused stage sweep on 1, 2 and 4 workers. The
    /// target starts out unlike `u`, so each start reads what it must.
    #[test]
    fn fused_stage_sweeps_fold_the_legacy_save_and_combine(
        n in (4usize..41, 4usize..8, 4usize..8),
        tile in (1usize..13, 1usize..13),
        seed in 0u64..1_000_000,
    ) {
        let n = [n.0, n.1, n.2];
        for muscl_order in [false, true] {
            let ghost = if muscl_order { 2 } else { 1 };
            let mut rng = TestRng::from_name(&format!("stage-{seed}"));
            let mut init = random_state(n, ghost, &mut rng);
            let target = random_state(n, ghost, &mut rng);
            init.u0.copy_from(&target.u);
            for start in [Start::Target, Start::Snapshot, Start::Average] {
                let what = format!("{start:?} muscl={muscl_order}");
                let mut legacy = twin(&init);
                legacy_stage(&mut legacy, start, muscl_order);

                let mut serial = twin(&init);
                serial.tile = [tile.0, tile.1];
                fused_stage(&mut serial, Target::CpuSeq, start, muscl_order);
                assert_owned_identical(&legacy, &serial, &format!("{what} fused serial vs legacy"));
                prop_slabs_identical(legacy.prim.slab(), serial.prim.slab(), &what);
                prop_slabs_identical(legacy.u.slab(), serial.u.slab(), &what);
                if start == Start::Target {
                    prop_slabs_identical(legacy.u0.slab(), serial.u0.slab(), &what);
                }

                for threads in WORKER_COUNTS {
                    let mut par = twin(&init);
                    par.tile = [tile.0, tile.1];
                    fused_stage(&mut par, Target::cpu_parallel(threads), start, muscl_order);
                    let what = format!("{what} fused parallel x{threads}");
                    assert_owned_identical(&legacy, &par, &format!("{what} vs legacy"));
                    assert_states_identical(&serial, &par, &format!("{what} vs serial fused"));
                }
            }
        }
    }

    /// Every scenario's real initial state runs bitwise-identically
    /// through the legacy, fused-serial, and fused-parallel paths at
    /// every worker count and any (ragged) tile shape, at both orders
    /// (MUSCL on two ghost layers) — the `--jobs` / `--host-threads` /
    /// tile invariance the CI matrix relies on.
    #[test]
    fn fused_sweep_is_bitwise_equivalent_on_every_scenario(
        which in 0usize..4,
        n in (4usize..41, 4usize..9, 4usize..9),
        tile in (1usize..13, 1usize..13),
    ) {
        let n = [n.0, n.1, n.2];
        for muscl_order in [false, true] {
            let ghost = if muscl_order { 2 } else { 1 };
            let name = format!("{} muscl={muscl_order}", SCENARIO_NAMES[which]);
            let mut legacy = scenario_state(which, n, ghost);
            let init = twin(&legacy);
            legacy_stage(&mut legacy, Start::Target, muscl_order);

            let mut serial = twin(&init);
            serial.tile = [tile.0, tile.1];
            run_fused(&mut serial, Target::CpuSeq, muscl_order);
            assert_states_identical(&legacy, &serial, &format!("{name} fused serial vs legacy"));

            for threads in WORKER_COUNTS {
                let mut par = twin(&init);
                par.tile = [tile.0, tile.1];
                run_fused(&mut par, Target::cpu_parallel(threads), muscl_order);
                let what = format!("{name} fused parallel x{threads}");
                assert_states_identical(&serial, &par, &format!("{what} vs serial fused"));
                assert_states_identical(&legacy, &par, &format!("{what} vs legacy"));
            }
        }
    }

    #[test]
    fn fused_first_order_sweep_is_bitwise_equivalent(
        n in (4usize..41, 4usize..9, 4usize..9),
        tile in (1usize..13, 1usize..13),
        seed in 0u64..1_000_000,
    ) {
        let n = [n.0, n.1, n.2];
        let mut rng = TestRng::from_name(&format!("first-order-{seed}"));
        let mut legacy = random_state(n, 1, &mut rng);
        let init = twin(&legacy);

        let mut e1 = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut c1 = RankClock::new(0);
        eos::primitives(&mut legacy, &mut e1, &mut c1).unwrap();
        flux::sweep(&mut legacy, &mut e1, &mut c1, DT).unwrap();

        // Fused serial must match legacy …
        let mut serial = twin(&init);
        serial.tile = [tile.0, tile.1];
        run_fused(&mut serial, Target::CpuSeq, false);
        assert_states_identical(&legacy, &serial, "first-order fused serial vs legacy");

        // … and the parallel-tile path must match both at every
        // worker count.
        for threads in WORKER_COUNTS {
            let mut par = twin(&init);
            par.tile = [tile.0, tile.1];
            run_fused(&mut par, Target::cpu_parallel(threads), false);
            let what = format!("first-order fused parallel x{threads}");
            assert_states_identical(&serial, &par, &format!("{what} vs serial fused"));
            assert_states_identical(&legacy, &par, &format!("{what} vs legacy"));
        }
    }

    #[test]
    fn fused_muscl_sweep_is_bitwise_equivalent(
        n in (4usize..41, 4usize..8, 4usize..8),
        tile in (1usize..13, 1usize..13),
        seed in 0u64..1_000_000,
    ) {
        let n = [n.0, n.1, n.2];
        let mut rng = TestRng::from_name(&format!("muscl-{seed}"));
        let mut legacy = random_state(n, 2, &mut rng);
        let init = twin(&legacy);

        let mut e1 = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut c1 = RankClock::new(0);
        eos::primitives(&mut legacy, &mut e1, &mut c1).unwrap();
        muscl::sweep_muscl(&mut legacy, &mut e1, &mut c1, DT).unwrap();

        let mut serial = twin(&init);
        serial.tile = [tile.0, tile.1];
        run_fused(&mut serial, Target::CpuSeq, true);
        assert_states_identical(&legacy, &serial, "MUSCL fused serial vs legacy");

        for threads in WORKER_COUNTS {
            let mut par = twin(&init);
            par.tile = [tile.0, tile.1];
            run_fused(&mut par, Target::cpu_parallel(threads), true);
            let what = format!("MUSCL fused parallel x{threads}");
            assert_states_identical(&serial, &par, &format!("{what} vs serial fused"));
            assert_states_identical(&legacy, &par, &format!("{what} vs legacy"));
        }
    }
}
