//! Reflecting (rigid-wall) boundary conditions.
//!
//! On every physical boundary face of the rank's subdomain, ghost
//! zones mirror the adjacent owned zones; the momentum component
//! normal to the wall flips sign (so the wall-face velocity — and
//! hence the advective flux through the wall — is zero to first
//! order, and the pressure force is balanced).

use hsim_gpu::GpuError;
use hsim_mesh::Side;
use hsim_raja::{Executor, Fidelity};
use hsim_time::RankClock;

use crate::kernels;
use crate::state::{HydroState, MX, NCONS};

/// Fill physical-boundary ghosts of all conserved fields.
///
/// One `boundary_fill` kernel launch is charged per (field, face)
/// pair that lies on a physical boundary, sized by the face area.
pub fn apply(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let grid = state.grid;
    let sub = state.sub;
    for axis in 0..3 {
        for (side, dir) in [(Side::Low, -1), (Side::High, 1)] {
            if !sub.on_boundary(&grid, axis, dir) {
                continue;
            }
            for var in 0..NCONS {
                // Normal momentum flips sign at a rigid wall.
                let sign = if var == MX + axis { -1.0 } else { 1.0 };
                // Sized from the logical extents (not the allocated
                // field) so cost-only runs charge identical time.
                let e = state.ext();
                let face_elems = sub.ghost * e[(axis + 1) % 3] * e[(axis + 2) % 3];
                let inner = e[0].min(u32::MAX as usize) as u32;
                // Thread-safe no-op body: the boundary kernel's cost
                // accrues here, and on a CpuParallel target it runs
                // through the shared work pool.
                exec.forall_par(clock, &kernels::BOUNDARY, face_elems, inner, |_| {})?;
                if exec.fidelity == Fidelity::Full {
                    state.u.reflect_into_ghost(var, axis, side, sign);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EN, GAMMA, MY, RHO};
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Target};

    fn setup() -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(4, 4, 4);
        let sub = Subdomain::new([0, 0, 0], [4, 4, 4], 1);
        let state = HydroState::new(grid, sub, Fidelity::Full);
        let exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        (state, exec, RankClock::new(0))
    }

    #[test]
    fn ghosts_mirror_density_and_flip_normal_momentum() {
        let (mut state, mut exec, mut clock) = setup();
        state.u.fill_owned(RHO, 2.0);
        state.u.fill_owned(MX, 0.7);
        state.u.fill_owned(MY, 0.5);
        state.u.fill_owned(EN, 1.0 / (GAMMA - 1.0));
        apply(&mut state, &mut exec, &mut clock).unwrap();
        // Low-x ghost of a central (j,k): allocated (0, j+1, k+1).
        let idx = state.u.idx(0, 2, 2);
        assert_eq!(state.u.var(RHO)[idx], 2.0);
        assert_eq!(state.u.var(MX)[idx], -0.7, "normal momentum flips");
        assert_eq!(state.u.var(MY)[idx], 0.5, "transverse momentum copies");
    }

    #[test]
    fn interior_subdomain_gets_no_boundary_kernels() {
        let grid = GlobalGrid::new(12, 12, 12);
        let sub = Subdomain::new([4, 4, 4], [8, 8, 8], 1);
        let mut state = HydroState::new(grid, sub, Fidelity::Full);
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        apply(&mut state, &mut exec, &mut clock).unwrap();
        assert_eq!(exec.kernels.total_launches(), 0);
    }

    #[test]
    fn corner_subdomain_fills_three_faces() {
        let grid = GlobalGrid::new(8, 8, 8);
        let sub = Subdomain::new([0, 0, 0], [4, 4, 4], 1);
        let mut state = HydroState::new(grid, sub, Fidelity::Full);
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        apply(&mut state, &mut exec, &mut clock).unwrap();
        // 3 physical faces × 5 fields.
        assert_eq!(exec.kernels.total_launches(), 15);
    }

    #[test]
    fn full_box_fills_all_six_faces() {
        let (mut state, mut exec, mut clock) = setup();
        apply(&mut state, &mut exec, &mut clock).unwrap();
        assert_eq!(exec.kernels.total_launches(), 30);
    }
}
