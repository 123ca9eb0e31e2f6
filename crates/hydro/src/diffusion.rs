//! Thermal diffusion: the second physics package.
//!
//! ARES is a *multi*-physics code — the paper lists diffusion among
//! its packages (§3) — so the proxy app carries one too: explicit
//! operator-split diffusion of internal energy,
//!
//! ```text
//! ∂e/∂t = ∇·(κ ∇e),        e = E − ½ρ|v|²  (internal energy density)
//! ```
//!
//! discretized with the same fine-grained kernel structure as the
//! hydro package (per-axis face fluxes + updates), sharing the mesh,
//! the halo exchange, and the portability layer. Explicit stability
//! requires `dt ≤ dx²/(6κ)` in 3D; [`diffusion_dt`] reports the bound
//! and [`advance`] substeps internally when asked to go further.

use hsim_gpu::GpuError;
use hsim_raja::{Executor, Fidelity};
use hsim_time::task::block_on;
use hsim_time::RankClock;

use crate::cycle::{Coupler, CycleError};
use crate::eos::indexer;
use crate::kernels;
use crate::state::{HydroState, EN, MX, MY, MZ, PR, RHO, RHO_FLOOR};

/// Diffusion package parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionConfig {
    /// Diffusivity κ (zone-width² per unit time scale).
    pub kappa: f64,
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        DiffusionConfig { kappa: 1e-3 }
    }
}

/// The largest stable explicit timestep for diffusivity `kappa` on
/// this state's grid: `dx² / (6κ)` (3D von Neumann bound).
pub fn diffusion_dt(state: &HydroState, kappa: f64) -> f64 {
    if kappa <= 0.0 {
        return f64::INFINITY;
    }
    let h = state.dx();
    h * h / (6.0 * kappa)
}

/// Extract internal energy density `e = E − ½ρ|v|²` into the pressure
/// scratch field (overwritten by the next hydro stage anyway), over
/// the allocated region so face fluxes can reach the ghosts.
fn internal_energy(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let ext = st.ext_all();
    let dims = st.u.dims();
    let at = indexer(dims);
    let (u, prim) = (&st.u, &mut st.prim);
    let rho = u.var(RHO);
    let mx = u.var(MX);
    let my = u.var(MY);
    let mz = u.var(MZ);
    let en = u.var(EN);
    let eint = prim.var_mut(PR);
    let at = &at;
    exec.forall3(clock, &kernels::DIFF_EINT, ext, |i, j, k| {
        let idx = at(i, j, k);
        let r = rho[idx].max(RHO_FLOOR);
        let ke = 0.5 * (mx[idx] * mx[idx] + my[idx] * my[idx] + mz[idx] * mz[idx]) / r;
        eint[idx] = en[idx] - ke;
    })
}

/// One explicit diffusion substep of size `dt` (assumed stable).
fn substep(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    kappa: f64,
    dt: f64,
) -> Result<(), GpuError> {
    internal_energy(st, exec, clock)?;
    let h = st.dx();
    let g = st.sub.ghost;
    let dims = st.u.dims();
    let at = indexer(dims);
    for axis in 0..3 {
        let fd = st.face_dims(axis);
        let fat = indexer(fd);
        // Face flux: F = −κ (e_R − e_L)/h.
        {
            let (prim, fx) = (&st.prim, &mut st.flux);
            let eint = prim.var(PR);
            let fx = &mut fx[..];
            let at = &at;
            let fat = &fat;
            let scale = kappa / h;
            exec.forall3(clock, &kernels::DIFF_FLUX, fd, move |i, j, k| {
                let mut l = [i, j, k];
                let mut r = [i, j, k];
                for (a, (lv, rv)) in l.iter_mut().zip(r.iter_mut()).enumerate() {
                    if a != axis {
                        *lv += g;
                        *rv += g;
                    } else {
                        *rv += 1;
                    }
                }
                let el = eint[at(l[0], l[1], l[2])];
                let er = eint[at(r[0], r[1], r[2])];
                fx[fat(i, j, k)] = -scale * (er - el);
            })?;
        }
        // Update: E -= dt/h (F_hi − F_lo), applied directly to the
        // conserved energy (diffusion only moves internal energy).
        {
            let ext = st.ext();
            let (u, fx) = (&mut st.u, &st.flux);
            let en = u.var_mut(EN);
            let fx = &fx[..];
            let at = &at;
            let fat = &fat;
            let scale = dt / h;
            exec.forall3(clock, &kernels::DIFF_UPDATE, ext, move |i, j, k| {
                let mut hi = [i, j, k];
                hi[axis] += 1;
                let f_lo = fx[fat(i, j, k)];
                let f_hi = fx[fat(hi[0], hi[1], hi[2])];
                en[at(i + g, j + g, k + g)] -= scale * (f_hi - f_lo);
            })?;
        }
    }
    Ok(())
}

/// Advance diffusion by `dt_total`, substepping at the stability bound
/// if needed. Ghosts are refreshed through `coupler`/boundary fill
/// before each substep. Returns the number of substeps taken. A
/// resumable task like [`crate::step_with`]: it can wait in the halo
/// exchanges and the closing device sync.
pub async fn advance<C: Coupler>(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    coupler: &mut C,
    cfg: &DiffusionConfig,
    dt_total: f64,
) -> Result<u32, CycleError> {
    if cfg.kappa <= 0.0 || dt_total <= 0.0 {
        return Ok(0);
    }
    let dt_max = diffusion_dt(st, cfg.kappa);
    let n = (dt_total / dt_max).ceil().max(1.0) as u32;
    // Cost-only sweeps cap substeps: the per-cycle package cost is
    // what matters, not resolving a fictitious fallback dt.
    let n = if st.fidelity == Fidelity::CostOnly {
        1
    } else {
        n
    };
    let dt = dt_total / n as f64;
    for _ in 0..n {
        crate::bc::apply(st, exec, clock)?;
        coupler.exchange(st, clock).await?;
        substep(st, exec, clock, cfg.kappa, dt)?;
    }
    exec.sync(clock).await;
    Ok(n)
}

/// [`advance`], blocking in every wait.
pub fn diffuse_step<C: Coupler>(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    coupler: &mut C,
    cfg: &DiffusionConfig,
    dt_total: f64,
) -> Result<u32, CycleError> {
    block_on(advance(st, exec, clock, coupler, cfg, dt_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::SoloCoupler;
    use crate::state::GAMMA;
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Target};

    fn setup(n: usize) -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(n, n, n);
        let sub = Subdomain::new([0, 0, 0], [n, n, n], 1);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        st.init_ambient(1.0, 0.4);
        let exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        (st, exec, RankClock::new(0))
    }

    /// Second moment of the energy perturbation about the box center
    /// along x, normalized by the total perturbation.
    fn second_moment_x(st: &HydroState, background: f64) -> f64 {
        let n = st.ext()[0];
        let h = st.dx();
        let cx = st.grid.lx / 2.0;
        let mut m0 = 0.0;
        let mut m2 = 0.0;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let de = st.u.get(EN, i, j, k) - background;
                    let x = (i as f64 + 0.5) * h - cx;
                    m0 += de;
                    m2 += de * x * x;
                }
            }
        }
        m2 / m0
    }

    #[test]
    fn stability_bound_scales_with_resolution_and_kappa() {
        let (st, _, _) = setup(16);
        let d1 = diffusion_dt(&st, 1e-3);
        let d2 = diffusion_dt(&st, 2e-3);
        assert!((d1 / d2 - 2.0).abs() < 1e-12);
        assert_eq!(diffusion_dt(&st, 0.0), f64::INFINITY);
    }

    #[test]
    fn uniform_energy_is_a_fixed_point() {
        let (mut st, mut exec, mut clock) = setup(10);
        let e0 = st.total_energy();
        let mut solo = SoloCoupler;
        diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut solo,
            &DiffusionConfig::default(),
            0.05,
        )
        .unwrap();
        assert!(((st.total_energy() - e0) / e0).abs() < 1e-12);
        let v = st.u.get(EN, 3, 3, 3);
        assert!((v - 0.4 / (GAMMA - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn hot_spot_spreads_and_conserves_energy() {
        let (mut st, mut exec, mut clock) = setup(16);
        let background = 0.4 / (GAMMA - 1.0);
        // A hot zone at the center.
        st.u.set(EN, 8, 8, 8, background + 10.0);
        let e0 = st.total_energy();
        let peak0 = st.u.get(EN, 8, 8, 8);
        let mut solo = SoloCoupler;
        let steps = diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut solo,
            &DiffusionConfig { kappa: 2e-3 },
            0.2,
        )
        .unwrap();
        assert!(steps >= 1);
        let peak1 = st.u.get(EN, 8, 8, 8);
        assert!(peak1 < peak0, "peak must decay: {peak0} → {peak1}");
        // Neighbors warmed up.
        assert!(st.u.get(EN, 7, 8, 8) > background + 1e-6);
        // Total energy conserved (zero-flux walls).
        assert!(((st.total_energy() - e0) / e0).abs() < 1e-10);
    }

    #[test]
    fn variance_grows_at_two_kappa_t() {
        // Linear diffusion of a point-ish perturbation: the second
        // moment grows as σ²(t) = σ²(0) + 2κt per axis.
        let (mut st, mut exec, mut clock) = setup(24);
        let background = 0.4 / (GAMMA - 1.0);
        st.u.set(EN, 12, 12, 12, background + 50.0);
        let kappa = 1.5e-3;
        let mut solo = SoloCoupler;
        let s0 = second_moment_x(&st, background);
        let t_total = 0.6;
        diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut solo,
            &DiffusionConfig { kappa },
            t_total,
        )
        .unwrap();
        let s1 = second_moment_x(&st, background);
        let growth = s1 - s0;
        let expect = 2.0 * kappa * t_total;
        let rel = (growth - expect).abs() / expect;
        assert!(
            rel < 0.08,
            "variance growth {growth:.3e} vs 2κt {expect:.3e} (rel {rel:.3})"
        );
    }

    #[test]
    fn diffusion_launch_count_is_small_and_fixed() {
        let (mut st, mut exec, mut clock) = setup(8);
        let mut solo = SoloCoupler;
        exec.registry.clear();
        let dt_stable = diffusion_dt(&st, 1e-3);
        diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut solo,
            &DiffusionConfig { kappa: 1e-3 },
            dt_stable * 0.5,
        )
        .unwrap();
        // One substep: 30 bc + 1 e_int + 3×(flux + update) = 37.
        assert_eq!(exec.registry.total_launches(), 37);
    }

    #[test]
    fn cost_only_diffusion_charges_time() {
        let grid = GlobalGrid::new(32, 32, 32);
        let sub = Subdomain::new([0, 0, 0], [32, 32, 32], 1);
        let mut st = HydroState::new(grid, sub, Fidelity::CostOnly);
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        let mut solo = SoloCoupler;
        let steps = diffuse_step(
            &mut st,
            &mut exec,
            &mut clock,
            &mut solo,
            &DiffusionConfig::default(),
            1.0,
        )
        .unwrap();
        assert_eq!(steps, 1, "cost-only runs one representative substep");
        assert!(clock.now().as_nanos() > 0);
    }
}
