//! Multi-physics functional integration: hydro + diffusion across a
//! real decomposition, validated against the single-domain run.

use heterosim::core::coupler::MpiCoupler;
use heterosim::core::runner::build_decomposition;
use heterosim::core::{ExecMode, RunConfig};
use heterosim::hydro::diffusion::{diffuse_step, DiffusionConfig};
use heterosim::hydro::sedov::{self, SedovConfig};
use heterosim::hydro::{step, HydroState, SoloCoupler};
use heterosim::mesh::{GlobalGrid, HaloPlan, Subdomain};
use heterosim::mpi::{CommCost, World};
use heterosim::raja::{CpuModel, Executor, Fidelity, Target};
use heterosim::time::RankClock;

const N: usize = 16;
const CYCLES: u64 = 2;
const KAPPA: f64 = 1e-3;

fn solo_energy_field() -> Vec<f64> {
    let grid = GlobalGrid::new(N, N, N);
    let sub = Subdomain::new([0, 0, 0], [N, N, N], 1);
    let mut st = HydroState::new(grid, sub, Fidelity::Full);
    sedov::init(&mut st, &SedovConfig::default());
    let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    let mut solo = SoloCoupler;
    let diff = DiffusionConfig { kappa: KAPPA };
    for _ in 0..CYCLES {
        let stats = step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
        diffuse_step(&mut st, &mut exec, &mut clock, &mut solo, &diff, stats.dt).unwrap();
    }
    let mut out = vec![0.0; N * N * N];
    for k in 0..N {
        for j in 0..N {
            for i in 0..N {
                out[(k * N + j) * N + i] = st.u.get(4, i, j, k);
            }
        }
    }
    out
}

#[test]
fn multiphysics_multirank_matches_solo_bitwise() {
    let reference = solo_energy_field();
    let grid = GlobalGrid::new(N, N, N);
    let cfg = RunConfig::sweep((N, N, N), ExecMode::mps4());
    let decomp = build_decomposition(&cfg, 0.0).expect("decomposition");
    let plan = HaloPlan::build(&decomp);
    let (decomp, plan) = (&decomp, &plan);

    let pieces = World::run(decomp.len(), CommCost::on_node(), |comm| {
        let rank = comm.rank();
        let sub = decomp.domains[rank];
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        sedov::init(&mut st, &SedovConfig::default());
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(rank);
        let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
        let diff = DiffusionConfig { kappa: KAPPA };
        for _ in 0..CYCLES {
            let stats = step(&mut st, &mut exec, &mut clock, &mut coupler, 0.3, 1.0).unwrap();
            diffuse_step(
                &mut st,
                &mut exec,
                &mut clock,
                &mut coupler,
                &diff,
                stats.dt,
            )
            .unwrap();
        }
        let mut out = Vec::new();
        for k in 0..sub.extent(2) {
            for j in 0..sub.extent(1) {
                for i in 0..sub.extent(0) {
                    out.push((
                        (i + sub.lo[0], j + sub.lo[1], k + sub.lo[2]),
                        st.u.get(4, i, j, k),
                    ));
                }
            }
        }
        out
    });

    let mut checked = 0;
    for piece in pieces {
        for ((i, j, k), en) in piece {
            let expect = reference[(k * N + j) * N + i];
            assert_eq!(
                en.to_bits(),
                expect.to_bits(),
                "energy mismatch at ({i},{j},{k})"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, N * N * N);
}

#[test]
fn diffusion_dt_substepping_is_decomposition_independent() {
    // The substep count depends only on dx and kappa — identical for
    // every rank, so the bulk-synchronous structure holds.
    let grid = GlobalGrid::new(N, N, N);
    let whole = HydroState::new(
        grid,
        Subdomain::new([0, 0, 0], [N, N, N], 1),
        Fidelity::Full,
    );
    let part = HydroState::new(
        grid,
        Subdomain::new([0, 0, 0], [N / 2, N, N], 1),
        Fidelity::Full,
    );
    let d1 = heterosim::hydro::diffusion_dt(&whole, KAPPA);
    let d2 = heterosim::hydro::diffusion_dt(&part, KAPPA);
    assert_eq!(d1, d2);
}
