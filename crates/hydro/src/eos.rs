//! Primitive-variable kernels (ideal-gas EOS).
//!
//! Primitives are computed over the *allocated* region (owned +
//! ghosts) so the flux kernels can evaluate both sides of boundary
//! faces after a halo exchange / boundary fill.
//!
//! This is the legacy per-pass path (one kernel per primitive),
//! retained as the reference implementation for tests and the perf
//! harness; the production cycle uses the fused tiled equivalent in
//! [`crate::fused`], which is bitwise-identical.

use hsim_gpu::GpuError;
use hsim_raja::Executor;
use hsim_time::RankClock;

use crate::kernels;
use crate::state::{HydroState, CS, EN, GAMMA, MX, MY, MZ, P_FLOOR, RHO, RHO_FLOOR, VX, VY, VZ};

/// Linear indexer for a dims-shaped array.
#[inline]
pub(crate) fn indexer(dims: [usize; 3]) -> impl Fn(usize, usize, usize) -> usize {
    move |i, j, k| i + j * dims[0] + k * dims[0] * dims[1]
}

/// Compute velocity, pressure, and sound speed from the conserved
/// fields (three kernels).
pub fn primitives(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let ext = state.ext_all();
    let dims = state.u.dims();
    let at = indexer(dims);

    // Velocity: v_a = m_a / ρ (with a floor on ρ).
    {
        let (u, prim) = (&state.u, &mut state.prim);
        let rho = u.var(RHO);
        let mx = u.var(MX);
        let my = u.var(MY);
        let mz = u.var(MZ);
        let [vx, vy, vz, _p, _cs] = prim.vars_mut();
        let at = &at;
        exec.forall3(clock, &kernels::VELOCITY, ext, |i, j, k| {
            let idx = at(i, j, k);
            let r = rho[idx].max(RHO_FLOOR);
            vx[idx] = mx[idx] / r;
            vy[idx] = my[idx] / r;
            vz[idx] = mz[idx] / r;
        })?;
    }

    // Pressure: p = (γ−1)(E − ½ρ|v|²), floored.
    {
        let (u, prim) = (&state.u, &mut state.prim);
        let rho = u.var(RHO);
        let en = u.var(EN);
        let [vx, vy, vz, p, _cs] = prim.vars_mut();
        let (vx, vy, vz) = (&*vx, &*vy, &*vz);
        let at = &at;
        exec.forall3(clock, &kernels::PRESSURE, ext, |i, j, k| {
            let idx = at(i, j, k);
            let r = rho[idx].max(RHO_FLOOR);
            let ke = 0.5 * r * (vx[idx] * vx[idx] + vy[idx] * vy[idx] + vz[idx] * vz[idx]);
            p[idx] = ((GAMMA - 1.0) * (en[idx] - ke)).max(P_FLOOR);
        })?;
    }

    // Sound speed: c = sqrt(γ p / ρ).
    {
        let (u, prim) = (&state.u, &mut state.prim);
        let rho = u.var(RHO);
        let [_vx, _vy, _vz, p, cs] = prim.vars_mut();
        let p = &*p;
        let at = &at;
        exec.forall3(clock, &kernels::SOUND_SPEED, ext, |i, j, k| {
            let idx = at(i, j, k);
            cs[idx] = (GAMMA * p[idx] / rho[idx].max(RHO_FLOOR)).sqrt();
        })?;
    }
    Ok(())
}

/// The CFL-limited timestep bound over this rank's owned zones
/// (one min-reduction kernel). Returns `default` in cost-only mode.
/// The cycle takes the same bound inside its stage-1 primitive pass
/// ([`crate::fused::primitives_bound`]); this reduction is its oracle.
pub fn cfl_dt(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    cfl: f64,
    default: f64,
) -> Result<f64, GpuError> {
    let ext = state.ext();
    let g = state.sub.ghost;
    let dims = state.u.dims();
    let at = indexer(dims);
    let h = state.dx();
    let prim = &state.prim;
    let vx = prim.var(VX);
    let vy = prim.var(VY);
    let vz = prim.var(VZ);
    let cs = prim.var(CS);
    let at = &at;
    let bound = exec.forall3_min(clock, &kernels::CFL, ext, default / cfl, |i, j, k| {
        let idx = at(i + g, j + g, k + g);
        let vmax = vx[idx].abs().max(vy[idx].abs()).max(vz[idx].abs());
        h / (vmax + cs[idx]).max(1e-30)
    })?;
    Ok(cfl * bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PR;
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Fidelity, Target};

    fn setup() -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(8, 8, 8);
        let sub = Subdomain::new([0, 0, 0], [8, 8, 8], 1);
        let mut state = HydroState::new(grid, sub, Fidelity::Full);
        state.init_ambient(1.0, 0.4);
        let exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        (state, exec, RankClock::new(0))
    }

    #[test]
    fn ambient_primitives_are_uniform() {
        let (mut state, mut exec, mut clock) = setup();
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        // p = 0.4, ρ = 1 ⇒ cs = sqrt(1.4·0.4) ≈ 0.7483.
        let idx = state.prim.idx(4, 4, 4);
        assert!((state.prim.var(PR)[idx] - 0.4).abs() < 1e-12);
        assert!((state.prim.var(CS)[idx] - (1.4f64 * 0.4).sqrt()).abs() < 1e-12);
        assert_eq!(state.prim.var(VX)[idx], 0.0);
    }

    #[test]
    fn moving_gas_has_correct_velocity_and_pressure() {
        let (mut state, mut exec, mut clock) = setup();
        // Give everything ρ=2, v=(1,0,0), p=0.8:
        // m_x = 2, E = p/(γ-1) + ½ρv² = 2 + 1 = 3.
        state.u.fill(RHO, 2.0);
        state.u.fill(MX, 2.0);
        state.u.fill(EN, 0.8 / (GAMMA - 1.0) + 1.0);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        let idx = state.prim.idx(4, 4, 4);
        assert!((state.prim.var(VX)[idx] - 1.0).abs() < 1e-12);
        assert!((state.prim.var(PR)[idx] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn pressure_floor_prevents_negativity() {
        let (mut state, mut exec, mut clock) = setup();
        // Kinetic energy exceeds total energy: raw p would be negative.
        state.u.fill(RHO, 1.0);
        state.u.fill(MX, 10.0);
        state.u.fill(EN, 1.0);
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        let idx = state.prim.idx(2, 2, 2);
        assert_eq!(state.prim.var(PR)[idx], P_FLOOR);
    }

    #[test]
    fn cfl_dt_matches_hand_computation() {
        let (mut state, mut exec, mut clock) = setup();
        primitives(&mut state, &mut exec, &mut clock).unwrap();
        let dt = cfl_dt(&mut state, &mut exec, &mut clock, 0.3, 1.0).unwrap();
        let cs = (1.4f64 * 0.4).sqrt();
        let expect = 0.3 * state.dx() / cs;
        assert!((dt - expect).abs() / expect < 1e-12, "dt {dt} vs {expect}");
    }

    #[test]
    fn cost_only_cfl_returns_default() {
        let grid = GlobalGrid::new(8, 8, 8);
        let sub = Subdomain::new([0, 0, 0], [8, 8, 8], 1);
        let mut state = HydroState::new(grid, sub, Fidelity::CostOnly);
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        let dt = cfl_dt(&mut state, &mut exec, &mut clock, 0.3, 0.125).unwrap();
        assert!((dt - 0.125).abs() < 1e-15);
    }
}
