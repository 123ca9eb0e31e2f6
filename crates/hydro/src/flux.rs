//! Rusanov face fluxes and flux-difference updates, one kernel per
//! conserved variable per axis.
//!
//! For axis `a`, face `f` sits between allocated zones `f+g−1` and
//! `f+g` along that axis (ghost width `g`). The Rusanov flux of `q`
//! is `½(F_L + F_R) − ½ s (q_R − q_L)` with `s` the per-face maximum
//! wavespeed, computed once per axis by [`wavespeeds`].
//!
//! Updates are applied to a *target* field set distinct from the one
//! fluxes read, so the three axis sweeps all see the pre-update state
//! (an unsplit update).
//!
//! This is the legacy per-pass path, retained as the reference
//! implementation for tests and the perf harness; the production
//! cycle runs the fused cache-blocked equivalent in [`crate::fused`],
//! which is bitwise-identical.

use hsim_gpu::GpuError;
use hsim_raja::{Executor, Fidelity};
use hsim_time::RankClock;

use crate::eos::indexer;
use crate::kernels;
use crate::state::{HydroState, CS, EN, MX, PR, RHO, VX};

/// Compute per-face max wavespeeds along `axis` into `ws`, face scratch
/// of at least [`HydroState::face_count`] elements.
pub fn wavespeeds(
    state: &HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    axis: usize,
    ws: &mut [f64],
) -> Result<(), GpuError> {
    let fd = state.face_dims(axis);
    let dims = state.u.dims();
    let at = indexer(dims);
    let fat = indexer(fd);
    let g = state.sub.ghost;
    let prim = &state.prim;
    let va = prim.var(VX + axis);
    let cs = prim.var(CS);
    // Allocated coordinates of the L zone for face (i,j,k): along the
    // flux axis, face f sits between allocated zones f+g-1 and f+g;
    // transverse axes shift by g.
    let shift = move |i: usize, j: usize, k: usize, along: usize| -> [usize; 3] {
        let mut c = [i, j, k];
        for (a, v) in c.iter_mut().enumerate() {
            if a != axis {
                *v += g;
            } else {
                *v += g - 1 + along;
            }
        }
        c
    };
    exec.forall3(clock, &kernels::WAVESPEED, fd, |i, j, k| {
        let l = shift(i, j, k, 0);
        let r = shift(i, j, k, 1);
        let il = at(l[0], l[1], l[2]);
        let ir = at(r[0], r[1], r[2]);
        let sl = va[il].abs() + cs[il];
        let sr = va[ir].abs() + cs[ir];
        ws[fat(i, j, k)] = sl.max(sr);
    })
}

/// Physical flux of conserved variable `var` along `axis`, given the
/// local conserved value and primitives.
#[inline]
pub(crate) fn phys_flux(var: usize, axis: usize, q: f64, va: f64, p: f64) -> f64 {
    // F(ρ) = ρ·v_a; F(m_b) = m_b·v_a + δ_{ab}·p; F(E) = (E + p)·v_a.
    match var {
        RHO => q * va,
        EN => (q + p) * va,
        _ => {
            let b = var - MX;
            q * va + if b == axis { p } else { 0.0 }
        }
    }
}

/// Compute the Rusanov flux of `var` along `axis` into `fx`, from the
/// wavespeeds `ws` of [`wavespeeds`].
pub fn face_flux(
    state: &HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    (axis, var): (usize, usize),
    ws: &[f64],
    fx: &mut [f64],
) -> Result<(), GpuError> {
    let fd = state.face_dims(axis);
    let dims = state.u.dims();
    let at = indexer(dims);
    let fat = indexer(fd);
    let g = state.sub.ghost;
    let (u, prim) = (&state.u, &state.prim);
    let q = u.var(var);
    let va = prim.var(VX + axis);
    let p = prim.var(PR);
    let shift = move |i: usize, j: usize, k: usize, along: usize| -> [usize; 3] {
        let mut c = [i, j, k];
        for (a, v) in c.iter_mut().enumerate() {
            if a != axis {
                *v += g;
            } else {
                *v += g - 1 + along;
            }
        }
        c
    };
    exec.forall3(clock, &kernels::FLUX, fd, |i, j, k| {
        let l = shift(i, j, k, 0);
        let r = shift(i, j, k, 1);
        let il = at(l[0], l[1], l[2]);
        let ir = at(r[0], r[1], r[2]);
        let fl = phys_flux(var, axis, q[il], va[il], p[il]);
        let fr = phys_flux(var, axis, q[ir], va[ir], p[ir]);
        let s = ws[fat(i, j, k)];
        fx[fat(i, j, k)] = 0.5 * (fl + fr) - 0.5 * s * (q[ir] - q[il]);
    })
}

/// Apply the flux-difference update of `var` along `axis` from the
/// face fluxes `fx` to the TARGET field set (`state.u0`): `tgt -= dt/dx
/// · (F_hi − F_lo)`.
pub fn apply_update(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    (axis, var): (usize, usize),
    dt: f64,
    fx: &[f64],
) -> Result<(), GpuError> {
    let ext = state.ext();
    let fd = state.face_dims(axis);
    let dims = state.u.dims();
    let at = indexer(dims);
    let fat = indexer(fd);
    let g = state.sub.ghost;
    let scale = dt / state.dx();
    let tgt = state.u0.var_mut(var);
    exec.forall3(clock, &kernels::UPDATE, ext, |i, j, k| {
        let mut lo = [i, j, k];
        let mut hi = [i, j, k];
        hi[axis] += 1;
        let f_lo = fx[fat(lo[0], lo[1], lo[2])];
        let f_hi = fx[fat(hi[0], hi[1], hi[2])];
        lo = [i + g, j + g, k + g];
        tgt[at(lo[0], lo[1], lo[2])] -= scale * (f_hi - f_lo);
    })
}

/// One full spatial sweep: for each axis, wavespeeds then per-variable
/// flux + update (the 33 kernels per stage), through face scratch of
/// its own.
pub fn sweep(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    let mut ws = face_scratch(state, exec);
    let mut fx = face_scratch(state, exec);
    for axis in 0..3 {
        wavespeeds(state, exec, clock, axis, &mut ws)?;
        for var in 0..crate::state::NCONS {
            face_flux(state, exec, clock, (axis, var), &ws, &mut fx)?;
            apply_update(state, exec, clock, (axis, var), dt, &fx)?;
        }
    }
    Ok(())
}

/// Zeroed scratch for one face-centered value per face of the largest
/// axis, or nothing when no kernel body runs.
pub(crate) fn face_scratch(state: &HydroState, exec: &Executor) -> Vec<f64> {
    let len = match exec.fidelity {
        Fidelity::Full => (0..3)
            .map(|a| HydroState::face_count(state.ext(), a))
            .max()
            .unwrap_or(0),
        Fidelity::CostOnly => 0,
    };
    vec![0.0; len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::primitives;
    use crate::state::{GAMMA, MY, MZ, NCONS};
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Target};

    fn setup(n: usize) -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(n, n, n);
        let sub = Subdomain::new([0, 0, 0], [n, n, n], 1);
        let state = HydroState::new(grid, sub, Fidelity::Full);
        let exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        (state, exec, RankClock::new(0))
    }

    /// Fill ghosts of every conserved field by copying the nearest
    /// owned plane (zero-gradient, good enough for uniform tests).
    fn fill_ghosts_uniform(state: &mut HydroState, rho: f64, m: [f64; 3], en: f64) {
        state.u.fill(RHO, rho);
        state.u.fill(MX, m[0]);
        state.u.fill(MY, m[1]);
        state.u.fill(MZ, m[2]);
        state.u.fill(EN, en);
        let u = state.u.clone();
        state.u0.copy_from(&u);
    }

    #[test]
    fn uniform_state_is_a_fixed_point() {
        let (mut state, mut exec, mut clock) = setup(6);
        // ρ=1, v=(0.3, 0, 0), p=0.5:
        // m=(0.3,0,0), E = p/(γ-1) + ½ρv² = 1.25 + 0.045.
        let en = 0.5 / (GAMMA - 1.0) + 0.5 * 0.3 * 0.3;
        fill_ghosts_uniform(&mut state, 1.0, [0.3, 0.0, 0.0], en);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        sweep(&mut state, &mut exec, &mut clock, 0.01).unwrap();
        // u0 (the target) must be unchanged: uniform flow has zero
        // flux divergence.
        for v in 0..NCONS {
            let expect = [1.0, 0.3, 0.0, 0.0, en][v];
            for k in 0..6 {
                for j in 0..6 {
                    for i in 0..6 {
                        let got = state.u0.get(v, i, j, k);
                        assert!(
                            (got - expect).abs() < 1e-13,
                            "var {v} at ({i},{j},{k}): {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pressure_jump_accelerates_gas_toward_low_pressure() {
        let (mut state, mut exec, mut clock) = setup(8);
        // High pressure in the low-x half.
        fill_ghosts_uniform(&mut state, 1.0, [0.0; 3], 1.0 / (GAMMA - 1.0));
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..4 {
                    state.u.set(EN, i, j, k, 10.0 / (GAMMA - 1.0));
                }
            }
        }
        // Mirror into ghosts crudely (uniform in y/z, reflect x).
        state.u.reflect_into_ghost(EN, 0, hsim_mesh::Side::Low, 1.0);
        state
            .u
            .reflect_into_ghost(EN, 0, hsim_mesh::Side::High, 1.0);
        let u = state.u.clone();
        state.u0.copy_from(&u);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        sweep(&mut state, &mut exec, &mut clock, 0.001).unwrap();
        // Momentum at the interface should point in +x (toward low p).
        let m_interface = state.u0.get(MX, 4, 4, 4);
        assert!(m_interface > 0.0, "m_x at interface: {m_interface}");
        // Far from the interface nothing moved yet… (first-order
        // scheme: only zones adjacent to the jump change).
        let m_far = state.u0.get(MX, 1, 4, 4);
        assert!(m_far.abs() < 1e-12, "far momentum {m_far}");
    }

    #[test]
    fn sweep_conserves_mass_in_a_periodic_like_uniform_box() {
        let (mut state, mut exec, mut clock) = setup(6);
        let en = 1.0 / (GAMMA - 1.0);
        fill_ghosts_uniform(&mut state, 2.0, [0.0; 3], en);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        let before = state.u0.sum_owned(RHO);
        sweep(&mut state, &mut exec, &mut clock, 0.01).unwrap();
        let after = state.u0.sum_owned(RHO);
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn wavespeed_of_quiescent_gas_is_sound_speed() {
        let (mut state, mut exec, mut clock) = setup(4);
        let en = 0.4 / (GAMMA - 1.0);
        fill_ghosts_uniform(&mut state, 1.0, [0.0; 3], en);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        let mut ws = face_scratch(&state, &exec);
        wavespeeds(&state, &mut exec, &mut clock, 0, &mut ws).unwrap();
        let cs = (GAMMA * 0.4f64).sqrt();
        let idx = state.face_idx(0, 2, 2, 2);
        assert!((ws[idx] - cs).abs() < 1e-12);
    }

    #[test]
    fn kernel_launch_counts_match_structure() {
        let (mut state, mut exec, mut clock) = setup(4);
        let en = 0.4 / (GAMMA - 1.0);
        fill_ghosts_uniform(&mut state, 1.0, [0.0; 3], en);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        exec.kernels.clear();
        sweep(&mut state, &mut exec, &mut clock, 0.01).unwrap();
        // 3 axes × (1 wavespeed + 5 flux + 5 update) = 33 launches.
        assert_eq!(exec.kernels.total_launches(), 33);
    }
}
