//! Second-order MUSCL reconstruction (extension beyond the paper).
//!
//! The first-order scheme smears shocks over several zones; MUSCL
//! reconstructs minmod-limited linear profiles in each zone and feeds
//! left/right face states to the Rusanov flux, halving the L1 error on
//! the Sod tube at the same resolution. It needs **two** ghost layers
//! (the limiter looks one zone beyond the face pair), so it is used by
//! the validation problems and examples; the figure runner keeps the
//! paper's one-layer halos.
//!
//! Kernel structure stays fine-grained: per axis, one reconstruction
//! kernel per conserved variable (writing both face sides), one
//! face-primitive kernel, then per-variable flux and update — ~17
//! kernels per axis, ~2× the first-order count, which is also the
//! realistic cost ratio of going second order.

use hsim_gpu::GpuError;
use hsim_raja::{Executor, Fidelity};
use hsim_time::RankClock;

use crate::eos::indexer;
use crate::kernels;
use crate::state::{HydroState, EN, GAMMA, MX, MY, MZ, NCONS, P_FLOOR, RHO, RHO_FLOOR};

/// Spatial reconstruction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reconstruction {
    /// Piecewise-constant (the default scheme; ghost width 1).
    FirstOrder,
    /// Minmod-limited piecewise-linear (ghost width ≥ 2).
    Muscl,
}

#[inline]
pub(crate) fn minmod(a: f64, b: f64) -> f64 {
    // Select form (two independent picks instead of an if/else-if
    // chain) so the limiter compiles to branchless selects inside
    // vectorized face loops. The selected values are identical to the
    // classic `if a*b <= 0.0 { 0.0 } else if |a| < |b| { a } else
    // { b }` for every input, including opposite signs and zeros.
    let smaller = if a.abs() < b.abs() { a } else { b };
    if a * b <= 0.0 {
        0.0
    } else {
        smaller
    }
}

/// Face-state scratch for one axis: left/right reconstructed conserved
/// variables plus derived face primitives.
struct FaceStates {
    ql: Vec<Vec<f64>>,
    qr: Vec<Vec<f64>>,
    /// (va_l, va_r, p_l, p_r, s_max) per face.
    val: Vec<f64>,
    var_: Vec<f64>,
    pl: Vec<f64>,
    pr: Vec<f64>,
    smax: Vec<f64>,
}

impl FaceStates {
    fn new(len: usize) -> Self {
        FaceStates {
            ql: (0..NCONS).map(|_| vec![0.0; len]).collect(),
            qr: (0..NCONS).map(|_| vec![0.0; len]).collect(),
            val: vec![0.0; len],
            var_: vec![0.0; len],
            pl: vec![0.0; len],
            pr: vec![0.0; len],
            smax: vec![0.0; len],
        }
    }
}

/// The second-order sweep: like [`crate::flux::sweep`] but with
/// minmod reconstruction. Requires `state.sub.ghost >= 2`.
pub fn sweep_muscl(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    assert!(
        st.sub.ghost >= 2,
        "MUSCL needs two ghost layers (got {})",
        st.sub.ghost
    );
    let dims = st.u.dims();
    let at = indexer(dims);
    let g = st.sub.ghost;
    let full = exec.fidelity == Fidelity::Full;

    for axis in 0..3 {
        let fd = st.face_dims(axis);
        let fat = indexer(fd);
        let n_faces = fd[0] * fd[1] * fd[2];
        let mut fs = FaceStates::new(if full { n_faces } else { 1 });

        // Reconstruction kernels: one per conserved variable.
        for var in 0..NCONS {
            let q = st.u.var(var);
            let (ql, qr) = (&mut fs.ql[var][..], &mut fs.qr[var][..]);
            let at = &at;
            let fat = &fat;
            exec.forall3(clock, &kernels::MUSCL_RECON, fd, |i, j, k| {
                // Allocated coordinates along the axis: face f is
                // between zones f+g-1 (L) and f+g (R).
                let mut c = [i, j, k];
                for (a, v) in c.iter_mut().enumerate() {
                    if a != axis {
                        *v += g;
                    }
                }
                let mut lm = c;
                let mut l = c;
                let mut r = c;
                let mut rp = c;
                lm[axis] += g - 2;
                l[axis] += g - 1;
                r[axis] += g;
                rp[axis] += g + 1;
                let q_lm = q[at(lm[0], lm[1], lm[2])];
                let q_l = q[at(l[0], l[1], l[2])];
                let q_r = q[at(r[0], r[1], r[2])];
                let q_rp = q[at(rp[0], rp[1], rp[2])];
                let slope_l = minmod(q_l - q_lm, q_r - q_l);
                let slope_r = minmod(q_r - q_l, q_rp - q_r);
                let f = fat(i, j, k);
                ql[f] = q_l + 0.5 * slope_l;
                qr[f] = q_r - 0.5 * slope_r;
            })?;
        }

        // Face primitives + max wavespeed from the reconstructed
        // states (one kernel).
        {
            let (ql, qr) = (&fs.ql, &fs.qr);
            let (val, var_, pl, pr, smax) = (
                &mut fs.val,
                &mut fs.var_,
                &mut fs.pl,
                &mut fs.pr,
                &mut fs.smax,
            );
            let fat = &fat;
            let prim = move |rho: f64, mx: f64, my: f64, mz: f64, en: f64| -> (f64, f64, f64) {
                let r = rho.max(RHO_FLOOR);
                let v = [mx / r, my / r, mz / r];
                let ke = 0.5 * r * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
                let p = ((GAMMA - 1.0) * (en - ke)).max(P_FLOOR);
                let cs = (GAMMA * p / r).sqrt();
                (v[axis], p, cs)
            };
            exec.forall3(clock, &kernels::FACE_PRIMS, fd, |i, j, k| {
                let f = fat(i, j, k);
                let (vl, p_l, cl) = prim(ql[RHO][f], ql[MX][f], ql[MY][f], ql[MZ][f], ql[EN][f]);
                let (vr, p_r, cr) = prim(qr[RHO][f], qr[MX][f], qr[MY][f], qr[MZ][f], qr[EN][f]);
                val[f] = vl;
                var_[f] = vr;
                pl[f] = p_l;
                pr[f] = p_r;
                smax[f] = (vl.abs() + cl).max(vr.abs() + cr);
            })?;
        }

        // Per-variable Rusanov flux from face states + update.
        for var in 0..NCONS {
            {
                let (ql, qr) = (&fs.ql[var], &fs.qr[var]);
                let (val, var_, pl, pr, smax) = (&fs.val, &fs.var_, &fs.pl, &fs.pr, &fs.smax);
                let fx = &mut st.flux[..];
                let fat = &fat;
                exec.forall3(clock, &kernels::FLUX, fd, |i, j, k| {
                    let f = fat(i, j, k);
                    let fl = phys_flux_axis(var, axis, ql[f], val[f], pl[f]);
                    let fr = phys_flux_axis(var, axis, qr[f], var_[f], pr[f]);
                    fx[f] = 0.5 * (fl + fr) - 0.5 * smax[f] * (qr[f] - ql[f]);
                })?;
            }
            crate::flux::apply_update(st, exec, clock, axis, var, dt)?;
        }
    }
    Ok(())
}

/// Physical flux of conserved variable `var` along `axis` given the
/// face-reconstructed value and primitives.
#[inline]
pub(crate) fn phys_flux_axis(var: usize, axis: usize, q: f64, va: f64, p: f64) -> f64 {
    match var {
        RHO => q * va,
        EN => (q + p) * va,
        _ => q * va + if var - MX == axis { p } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::SoloCoupler;
    use crate::sod::{self, axial_density, exact_solution, SodConfig};
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Target};
    use hsim_time::task::block_on;

    fn sod_l1(n: usize, recon: Reconstruction) -> f64 {
        let grid = GlobalGrid::new(n, 4, 4);
        let ghost = match recon {
            Reconstruction::FirstOrder => 1,
            Reconstruction::Muscl => 2,
        };
        let sub = Subdomain::new([0, 0, 0], [n, 4, 4], ghost);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        let cfg = SodConfig::default();
        sod::init(&mut st, &cfg);
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let mut solo = SoloCoupler;
        let t_end = 0.15;
        while st.t < t_end {
            let cycle = crate::cycle::step_with(
                &mut st, &mut exec, &mut clock, &mut solo, 0.25, 1.0, recon,
            );
            block_on(cycle).unwrap();
        }
        let sim = axial_density(&st);
        let (dx, _, _) = grid.spacing();
        let x0 = cfg.diaphragm * grid.lx;
        let mut l1 = 0.0;
        for (i, rho) in sim.iter().enumerate() {
            let x = (i as f64 + 0.5) * dx;
            l1 += (rho - exact_solution(&cfg.left, &cfg.right, (x - x0) / st.t).rho).abs();
        }
        l1 / n as f64
    }

    #[test]
    fn minmod_limits_correctly() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(2.0, 1.0), 1.0);
        assert_eq!(minmod(-1.0, -3.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn muscl_uniform_state_is_a_fixed_point() {
        let grid = GlobalGrid::new(6, 6, 6);
        let sub = Subdomain::new([0, 0, 0], [6, 6, 6], 2);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        let en = 0.5 / (GAMMA - 1.0);
        st.u.fill(RHO, 1.0);
        st.u.fill(EN, en);
        let u = st.u.clone();
        st.u0.copy_from(&u);
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        crate::eos::primitives(&mut st, &mut exec, &mut clock).unwrap();
        sweep_muscl(&mut st, &mut exec, &mut clock, 0.01).unwrap();
        for k in 0..6 {
            for j in 0..6 {
                for i in 0..6 {
                    assert!((st.u0.get(RHO, i, j, k) - 1.0).abs() < 1e-13);
                    assert!((st.u0.get(EN, i, j, k) - en).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn muscl_halves_the_sod_error() {
        let first = sod_l1(96, Reconstruction::FirstOrder);
        let second = sod_l1(96, Reconstruction::Muscl);
        assert!(
            second < first * 0.65,
            "MUSCL L1 {second:.4} should be well below first-order {first:.4}"
        );
    }

    #[test]
    fn muscl_conserves_mass_and_energy() {
        let grid = GlobalGrid::new(16, 16, 16);
        let sub = Subdomain::new([0, 0, 0], [16, 16, 16], 2);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        crate::sedov::init(&mut st, &crate::sedov::SedovConfig::default());
        let m0 = st.total_mass();
        let e0 = st.total_energy();
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let mut solo = SoloCoupler;
        for _ in 0..5 {
            block_on(crate::cycle::step_with(
                &mut st,
                &mut exec,
                &mut clock,
                &mut solo,
                0.25,
                1.0,
                Reconstruction::Muscl,
            ))
            .unwrap();
        }
        assert!(((st.total_mass() - m0) / m0).abs() < 1e-10);
        assert!(((st.total_energy() - e0) / e0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "two ghost layers")]
    fn muscl_rejects_single_ghost() {
        let grid = GlobalGrid::new(6, 6, 6);
        let sub = Subdomain::new([0, 0, 0], [6, 6, 6], 1);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let _ = sweep_muscl(&mut st, &mut exec, &mut clock, 0.01);
    }
}
