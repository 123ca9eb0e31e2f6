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
//! hydro package (per-axis face fluxes + updates, charged launch by
//! launch and executed as two tiled passes, [`substep`]), sharing the
//! mesh, the halo exchange, and the portability layer. Explicit stability
//! requires `dt ≤ dx²/(6κ)` in 3D; [`diffusion_dt`] reports the bound
//! and [`advance`] substeps internally when asked to go further.

use hsim_gpu::GpuError;
use hsim_raja::{Executor, Fidelity, TileSet2, TiledSlabMut};
use hsim_time::task::block_on;
use hsim_time::RankClock;

use crate::cycle::{Coupler, CycleError};
use crate::fused::row_of;
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

/// Internal energy density of one allocated row, `e = E − ½(m_x² + m_y²
/// + m_z²) / max(ρ, ρ_floor)`: the legacy DIFF_EINT expression.
fn eint_row(rho: &[f64], mx: &[f64], my: &[f64], mz: &[f64], en: &[f64], e: &mut [f64]) {
    let n = e.len();
    let (rho, mx, my, mz, en) = (&rho[..n], &mx[..n], &my[..n], &mz[..n], &en[..n]);
    for i in 0..n {
        let r = rho[i].max(RHO_FLOOR);
        let ke = 0.5 * (mx[i] * mx[i] + my[i] * my[i] + mz[i] * mz[i]) / r;
        e[i] = en[i] - ke;
    }
}

/// One owned `EN` row's diffusion update. `x` is the internal-energy
/// row at the zones' own `(j, k)` from one zone before the first to one
/// after the last (`t.len() + 2` long); `y` and `z` are the owned runs
/// one row below and above, one plane below and above. Every face flux
/// is `F = −c·(e_R − e_L)` and the update is the legacy per-axis one,
/// `((E − s·ΔF_x) − s·ΔF_y) − s·ΔF_z`.
fn diffuse_row(t: &mut [f64], x: &[f64], y: (&[f64], &[f64]), z: (&[f64], &[f64]), c: f64, s: f64) {
    let n = t.len();
    let (xl, e, xr) = (&x[..n], &x[1..n + 1], &x[2..n + 2]);
    let (yl, yr, zl, zr) = (&y.0[..n], &y.1[..n], &z.0[..n], &z.1[..n]);
    for i in 0..n {
        let face = |l: f64, r: f64| -c * (r - l);
        let dx = face(e[i], xr[i]) - face(xl[i], e[i]);
        let dy = face(e[i], yr[i]) - face(yl[i], e[i]);
        let dz = face(e[i], zr[i]) - face(zl[i], e[i]);
        t[i] = ((t[i] - s * dx) - s * dy) - s * dz;
    }
}

/// One explicit diffusion substep of size `dt` (assumed stable), with
/// ghosts already filled.
///
/// Charges the legacy launches in their order — DIFF_EINT over the
/// allocated box, then per axis DIFF_FLUX over the faces and
/// DIFF_UPDATE over the owned zones — then makes two tiled passes: the
/// internal energy into `prim[PR]` over the allocated plane, and one
/// write per owned `EN` row from the seven internal energies around
/// each zone (its own and its face neighbours at allocated `a ± 1`, for
/// any ghost width). Per owned zone this is the legacy seven-pass
/// substep's arithmetic, operation for operation, so on one ghost layer
/// the owned `EN` and the whole `prim[PR]` are its bits.
pub fn substep(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    kappa: f64,
    dt: f64,
) -> Result<(), GpuError> {
    exec.charge3(clock, &kernels::DIFF_EINT, st.ext_all())?;
    for axis in 0..3 {
        exec.charge3(clock, &kernels::DIFF_FLUX, st.face_dims(axis))?;
        exec.charge3(clock, &kernels::DIFF_UPDATE, st.ext())?;
    }
    if exec.fidelity != Fidelity::Full {
        return Ok(());
    }
    let h = st.dx();
    let (c, s) = (kappa / h, dt / h);
    let g = st.sub.ghost;
    let ext = st.ext();
    let dims = st.u.dims();
    {
        let tiles = TileSet2::new(dims[1], dims[2], st.tile);
        let (u, prim) = (st.u.slab(), &mut st.prim);
        let eint = TiledSlabMut::new(prim.slab_mut(), dims, tiles, 0);
        exec.run_tiles(&tiles, |tile| {
            let mut rows = eint.claim(tile);
            for k in tile.k0..tile.k1 {
                for j in tile.j0..tile.j1 {
                    let cons = |v| row_of(u, dims, v, j, k);
                    let e = rows.row(PR, j, k);
                    eint_row(cons(RHO), cons(MX), cons(MY), cons(MZ), cons(EN), e);
                }
            }
        });
    }
    let tiles = TileSet2::new(ext[1], ext[2], st.tile);
    let (prim, u) = (st.prim.slab(), &mut st.u);
    let en = TiledSlabMut::new(u.slab_mut(), dims, tiles, g);
    exec.run_tiles(&tiles, |tile| {
        let mut rows = en.claim(tile);
        for ak in tile.k0 + g..tile.k1 + g {
            for aj in tile.j0 + g..tile.j1 + g {
                // The owned run of the internal-energy row at (j, k),
                // widened by `w` zones at each end.
                let e = |j, k, w: usize| &row_of(prim, dims, PR, j, k)[g - w..g + ext[0] + w];
                let y = (e(aj - 1, ak, 0), e(aj + 1, ak, 0));
                let z = (e(aj, ak - 1, 0), e(aj, ak + 1, 0));
                let t = &mut rows.row(EN, aj, ak)[g..g + ext[0]];
                diffuse_row(t, e(aj, ak, 1), y, z, c, s);
            }
        }
    });
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
    // Cost-only sweeps cap substeps: the per-cycle package cost is
    // what matters, not resolving a fictitious fallback dt.
    let n = if st.fidelity == Fidelity::CostOnly {
        1
    } else {
        let needed = (dt_total / diffusion_dt(st, cfg.kappa)).ceil().max(1.0);
        if needed > f64::from(u32::MAX) {
            let kappa = cfg.kappa;
            return Err(CycleError::Substeps { kappa, needed });
        }
        needed as u32
    };
    let dt = dt_total / n as f64;
    for _ in 0..n {
        crate::bc::apply(st, exec, clock)?;
        coupler.exchange(st, clock).await?;
        substep(st, exec, clock, cfg.kappa, dt)?;
    }
    exec.sync(clock).await?;
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
        setup_with_ghosts(n, 1)
    }

    fn setup_with_ghosts(n: usize, ghost: usize) -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(n, n, n);
        let sub = Subdomain::new([0, 0, 0], [n, n, n], ghost);
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

    /// One `diffuse_step` of a hot zone at the centre of a 12³ box,
    /// returning the owned `EN` bits.
    fn hot_zone_step(ghost: usize) -> Vec<u64> {
        let (mut st, mut exec, mut clock) = setup_with_ghosts(12, ghost);
        let background = 0.4 / (GAMMA - 1.0);
        st.u.set(EN, 6, 6, 6, background + 10.0);
        let cfg = DiffusionConfig { kappa: 2e-3 };
        let dt = 0.9 * diffusion_dt(&st, cfg.kappa);
        diffuse_step(&mut st, &mut exec, &mut clock, &mut SoloCoupler, &cfg, dt).unwrap();
        let peak = st.u.get(EN, 6, 6, 6);
        assert!(
            peak < background + 10.0,
            "{ghost} ghost layers: the peak rose to {peak}"
        );
        let mut bits = Vec::new();
        for k in 0..12 {
            for j in 0..12 {
                for i in 0..12 {
                    bits.push(st.u.get(EN, i, j, k).to_bits());
                }
            }
        }
        bits
    }

    #[test]
    fn the_stencil_reads_the_nearest_layer_at_any_ghost_width() {
        // Each zone's faces are its own at `a ± 1`: two ghost layers
        // give the one-layer bits, and a hot zone cools on both.
        assert!(hot_zone_step(1) == hot_zone_step(2));
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
        exec.kernels.clear();
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
        assert_eq!(exec.kernels.total_launches(), 37);
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
