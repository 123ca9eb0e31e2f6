//! The timestep driver: one hydro cycle ≈ 85 kernel launches.
//!
//! Structure (Heun / two-stage RK, unsplit finite volume):
//!
//! ```text
//! save          u0 ← u                              5 kernels, charged here,
//!                                                   executed by the stage-1 sweep
//! stage 1       bc(u), exchange(u), primitives(u)   ≤5·faces + 3
//!               dt = CFL min-reduce ⊕ allreduce     1 + collective,
//!                                                   the min taken by
//!                                                   the primitive pass
//!               sweep: u0 ← u − dt·L(u)             33
//!               swap(u, u0)                         —
//! stage 2       combine: u0 ← ½u0 + ½u              5, charged here,
//!                                                   executed by the stage-2 sweep
//!               bc(u), exchange(u), primitives(u)   ≤5·faces + 3
//!               sweep: u0 ← ½u0 + ½u − ½dt·L(u)     33
//!               swap(u, u0)                         —
//! ```
//!
//! Three GPU syncs per cycle (dt readback, stage boundary, cycle end)
//! — every rank executes the same count, which the shared-device
//! rendezvous requires.
//!
//! The launch counts above are *charged* per fine-grained kernel
//! (virtual time, telemetry, and figures are defined in those terms),
//! but the arithmetic runs through the fused tiled kernels in
//! [`crate::fused`], which replay the same charge sequence and produce
//! bitwise-identical owned zones. The save and combine are charged in
//! their own phases ([`crate::fused::charge_start`]) and executed by
//! the stage sweep that follows ([`crate::fused::Start`]), which
//! writes only owned zones: the target's ghosts go stale, and the
//! boundary fill and halo exchange rewrite every ghost a kernel reads
//! before it is read.

use std::future::Future;

use hsim_gpu::GpuError;
use hsim_raja::Executor;
use hsim_time::task::block_on;
use hsim_time::{RankClock, SimTime};

use crate::bc;
use crate::fused::{cfl_dt, charge_start, primitives, primitives_bound, sweep_from, Start};
use crate::muscl::Reconstruction;
use crate::state::HydroState;

/// Typed error from a [`Coupler`] operation: a halo exchange or a
/// global reduction that could not complete (dead peer, disconnected
/// channel, transport refusal). Carries the failing operation so the
/// runner can report which leg of the cycle died without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoupleError {
    /// The coupler operation that failed (`"halo_send"`, `"halo_recv"`,
    /// `"allreduce_min"`).
    pub op: &'static str,
    /// Transport-level detail (the underlying error's display).
    pub detail: String,
}

impl std::fmt::Display for CoupleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coupler {} failed: {}", self.op, self.detail)
    }
}

impl std::error::Error for CoupleError {}

/// Error from one hydro cycle: the portability/device layer, the
/// rank coupler, or a diffusion step the cycle cannot take. Each is
/// recoverable by the fallible runner — none is ever surfaced as a
/// panic.
#[derive(Debug)]
pub enum CycleError {
    /// Kernel dispatch / device-simulator failure.
    Gpu(GpuError),
    /// Halo-exchange or reduction failure.
    Couple(CoupleError),
    /// Diffusivity `kappa` needs `needed` substeps of its stability
    /// bound in one cycle, more than a `u32` counts.
    Substeps { kappa: f64, needed: f64 },
}

impl From<GpuError> for CycleError {
    fn from(e: GpuError) -> Self {
        CycleError::Gpu(e)
    }
}

impl From<CoupleError> for CycleError {
    fn from(e: CoupleError) -> Self {
        CycleError::Couple(e)
    }
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleError::Gpu(e) => write!(f, "{e}"),
            CycleError::Couple(e) => write!(f, "{e}"),
            CycleError::Substeps { kappa, needed } => write!(
                f,
                "diffusion: kappa {kappa:e} needs {needed:e} substeps in one cycle, more than {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for CycleError {}

/// How a rank coordinates with its peers. The cooperative runner backs
/// this with simulated MPI; single-domain runs use [`SoloCoupler`].
///
/// Every operation can wait on a peer, so each returns a future: the
/// cycle that awaits it is resumable, and the runner's driver decides
/// whether a wait blocks the rank's thread or parks the rank (see
/// [`hsim_time::task`]).
pub trait Coupler {
    /// Exchange ghost layers of the conserved fields with neighbors
    /// (functional copy + virtual communication charge).
    fn exchange(
        &mut self,
        state: &mut HydroState,
        clock: &mut RankClock,
    ) -> impl Future<Output = Result<(), CoupleError>>;

    /// Global minimum (the timestep reduction).
    fn allreduce_min(
        &mut self,
        x: f64,
        clock: &mut RankClock,
    ) -> impl Future<Output = Result<f64, CoupleError>>;

    /// Exchange Lagrangian-particle payloads: `outbound[dst]` is the
    /// flat wire encoding of the particles this rank hands to rank
    /// `dst`; the return value is `inbound[src]`, the payloads every
    /// peer addressed to this rank. Backed by a priced all-to-all on
    /// the cooperative runner; the default is the solo identity (a
    /// single-domain run only ever addresses itself).
    fn migrate_particles(
        &mut self,
        outbound: Vec<Vec<f64>>,
        _clock: &mut RankClock,
    ) -> impl Future<Output = Result<Vec<Vec<f64>>, CoupleError>> {
        async { Ok(outbound) }
    }
}

/// Coupler for a single-domain run: no neighbors, identity reduction.
pub struct SoloCoupler;

impl Coupler for SoloCoupler {
    async fn exchange(
        &mut self,
        _state: &mut HydroState,
        _clock: &mut RankClock,
    ) -> Result<(), CoupleError> {
        Ok(())
    }

    async fn allreduce_min(&mut self, x: f64, _clock: &mut RankClock) -> Result<f64, CoupleError> {
        Ok(x)
    }
}

/// Per-cycle outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleStats {
    /// The timestep taken.
    pub dt: f64,
    /// Physical time after the cycle.
    pub t: f64,
    /// Kernel launches issued by this rank during the cycle.
    pub launches: u64,
}

/// Advance the state by one cycle, blocking in every wait. Returns
/// the step's statistics.
///
/// `cfl` is the Courant factor (≤ 0.45 for this scheme); `fallback_dt`
/// is used as the timestep in cost-only fidelity (where the reduction
/// body is skipped) and as a cap in full fidelity.
pub fn step<C: Coupler>(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    coupler: &mut C,
    cfl: f64,
    fallback_dt: f64,
) -> Result<CycleStats, CycleError> {
    block_on(step_with(
        st,
        exec,
        clock,
        coupler,
        cfl,
        fallback_dt,
        Reconstruction::FirstOrder,
    ))
}

/// One cycle with an explicit spatial reconstruction order (MUSCL
/// needs a two-layer halo; see [`crate::muscl`]), as a resumable task:
/// it can wait in the halo exchanges, the timestep reduction and the
/// device syncs. [`step`] is this, blocked on.
#[allow(clippy::too_many_arguments)]
pub async fn step_with<C: Coupler>(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    coupler: &mut C,
    cfl: f64,
    fallback_dt: f64,
    recon: Reconstruction,
) -> Result<CycleStats, CycleError> {
    let launches_before = exec.kernels.total_launches();
    let cycle_start = clock.now();
    // Phase span: brackets `[t0, now)` on the rank timeline.
    let phase = |name: &'static str, t0: SimTime, clock: &RankClock| {
        hsim_telemetry::rank_span(hsim_telemetry::Category::Phase, name, t0, clock.now());
    };

    // Stage 0: snapshot, charged here and executed by the stage-1
    // sweep.
    let t0 = clock.now();
    charge_start(st, exec, clock, Start::Snapshot)?;
    phase("save", t0, clock);

    // Stage 1 inputs: ghosts of u^n.
    let t0 = clock.now();
    bc::apply(st, exec, clock)?;
    coupler.exchange(st, clock).await?;
    phase("halo", t0, clock);
    let t0 = clock.now();
    let bound = primitives_bound(st, exec, clock)?;
    phase("eos", t0, clock);

    // Timestep: local CFL bound (taken by the primitive recovery,
    // charged here), device sync, global min.
    let t0 = clock.now();
    let local_dt = cfl_dt(st, exec, clock, bound, cfl, fallback_dt)?;
    exec.sync(clock).await?;
    let dt = coupler
        .allreduce_min(local_dt, clock)
        .await?
        .min(fallback_dt.max(1e-30));
    phase("cfl", t0, clock);

    // Stage 1: u0 ← u^n − dt·L(u^n) = u*.
    let t0 = clock.now();
    sweep_from(st, exec, clock, dt, Start::Snapshot, recon)?;
    std::mem::swap(&mut st.u, &mut st.u0);
    exec.sync(clock).await?;
    phase("flux", t0, clock);

    // Stage 2: u0 ← ½u^n + ½u* − ½dt·L(u*); the combine is charged
    // here and executed by the stage-2 sweep.
    let t0 = clock.now();
    charge_start(st, exec, clock, Start::Average)?;
    phase("combine", t0, clock);
    let t0 = clock.now();
    bc::apply(st, exec, clock)?;
    coupler.exchange(st, clock).await?;
    phase("halo", t0, clock);
    let t0 = clock.now();
    primitives(st, exec, clock)?;
    phase("eos", t0, clock);
    let t0 = clock.now();
    sweep_from(st, exec, clock, 0.5 * dt, Start::Average, recon)?;
    std::mem::swap(&mut st.u, &mut st.u0);
    exec.sync(clock).await?;
    phase("flux", t0, clock);

    st.t += dt;
    st.cycle += 1;
    hsim_telemetry::count(hsim_telemetry::Counter::Cycles, 1);
    hsim_telemetry::time_stat(
        hsim_telemetry::TimeStat::CycleTime,
        clock.now() - cycle_start,
    );
    Ok(CycleStats {
        dt,
        t: st.t,
        launches: exec.kernels.total_launches() - launches_before,
    })
}

/// Run `n` cycles, returning the last cycle's stats.
pub fn run<C: Coupler>(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    coupler: &mut C,
    cfl: f64,
    fallback_dt: f64,
    n: u64,
) -> Result<CycleStats, CycleError> {
    let mut last = CycleStats {
        dt: 0.0,
        t: st.t,
        launches: 0,
    };
    for _ in 0..n {
        last = step(st, exec, clock, coupler, cfl, fallback_dt)?;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sedov::{self, SedovConfig};
    use crate::state::{self, EN, GAMMA, RHO};
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Fidelity, Target};

    fn setup(n: usize, fidelity: Fidelity) -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(n, n, n);
        let sub = Subdomain::new([0, 0, 0], [n, n, n], 1);
        let state = HydroState::new(grid, sub, fidelity);
        let exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), fidelity);
        (state, exec, RankClock::new(0))
    }

    #[test]
    fn quiescent_gas_stays_quiescent() {
        let (mut st, mut exec, mut clock) = setup(8, Fidelity::Full);
        st.init_ambient(1.0, 0.4);
        let mass0 = st.total_mass();
        let mut solo = SoloCoupler;
        for _ in 0..3 {
            step(&mut st, &mut exec, &mut clock, &mut solo, 0.4, 1.0).unwrap();
        }
        assert!((st.total_mass() - mass0).abs() < 1e-12);
        // No motion developed.
        assert!(st.u.sum_owned(state::MX).abs() < 1e-12);
        assert!(st.t > 0.0);
        assert_eq!(st.cycle, 3);
    }

    #[test]
    fn cycle_conserves_mass_and_energy_for_sedov() {
        let (mut st, mut exec, mut clock) = setup(12, Fidelity::Full);
        sedov::init(&mut st, &SedovConfig::default());
        let mass0 = st.total_mass();
        let e0 = st.total_energy();
        let mut solo = SoloCoupler;
        for _ in 0..5 {
            step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
        }
        let mass1 = st.total_mass();
        let e1 = st.total_energy();
        assert!(
            ((mass1 - mass0) / mass0).abs() < 1e-10,
            "mass drift {mass0} → {mass1}"
        );
        assert!(((e1 - e0) / e0).abs() < 1e-10, "energy drift {e0} → {e1}");
    }

    #[test]
    fn blast_wave_expands_symmetrically() {
        let (mut st, mut exec, mut clock) = setup(16, Fidelity::Full);
        sedov::init(&mut st, &SedovConfig::default());
        let mut solo = SoloCoupler;
        for _ in 0..8 {
            step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
        }
        // Density must be mirror-symmetric about the center.
        let rho = &st.u;
        for k in 0..16 {
            for j in 0..16 {
                for i in 0..8 {
                    let a = rho.get(RHO, i, j, k);
                    let b = rho.get(RHO, 15 - i, j, k);
                    assert!(
                        (a - b).abs() < 1e-9,
                        "asymmetry at ({i},{j},{k}): {a} vs {b}"
                    );
                }
            }
        }
        // The center evacuates, the shell is denser than ambient.
        let center = rho.get(RHO, 8, 8, 8);
        let max: f64 = (0..16).map(|i| rho.get(RHO, i, 8, 8)).fold(0.0, f64::max);
        assert!(center < 1.0, "center density {center}");
        assert!(max > 1.05, "shell density {max}");
    }

    #[test]
    fn launch_count_is_near_eighty() {
        let (mut st, mut exec, mut clock) = setup(8, Fidelity::Full);
        st.init_ambient(1.0, 0.4);
        let mut solo = SoloCoupler;
        let stats = step(&mut st, &mut exec, &mut clock, &mut solo, 0.4, 1.0).unwrap();
        // save 5 + bc 30 + prims 3 + cfl 1 + sweep 33 + combine 5 +
        // bc 30 + prims 3 + sweep 33 = 143 for a rank owning the whole
        // box (all 6 physical faces); an interior rank has no bc
        // launches: 83. The Figure-11 claim is the interior count.
        assert!(stats.launches >= 80, "launches {}", stats.launches);
        // Interior rank:
        let grid = GlobalGrid::new(24, 24, 24);
        let sub = Subdomain::new([8, 8, 8], [16, 16, 16], 1);
        let mut sti = HydroState::new(grid, sub, Fidelity::Full);
        sti.init_ambient(1.0, 0.4);
        let mut exec2 = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let s2 = step(&mut sti, &mut exec2, &mut clock, &mut solo, 0.4, 1.0).unwrap();
        assert_eq!(s2.launches, 83, "interior launches");
    }

    #[test]
    fn cost_only_cycle_charges_time_without_running() {
        let (mut st, mut exec, mut clock) = setup(32, Fidelity::CostOnly);
        let mut solo = SoloCoupler;
        let stats = step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 0.01).unwrap();
        assert!(clock.now().as_nanos() > 0);
        assert!((stats.dt - 0.01).abs() < 1e-15);
        // The state arrays were never allocated at size.
        assert!(st.u.var(RHO).len() < 64);
    }

    #[test]
    fn cost_only_time_matches_full_time() {
        // The core fidelity guarantee: virtual cost is identical.
        let (mut st_full, mut exec_full, mut clock_full) = setup(10, Fidelity::Full);
        st_full.init_ambient(1.0, 0.4);
        let (mut st_cost, mut exec_cost, mut clock_cost) = setup(10, Fidelity::CostOnly);
        let mut solo = SoloCoupler;
        step(
            &mut st_full,
            &mut exec_full,
            &mut clock_full,
            &mut solo,
            0.3,
            1.0,
        )
        .unwrap();
        step(
            &mut st_cost,
            &mut exec_cost,
            &mut clock_cost,
            &mut solo,
            0.3,
            1.0,
        )
        .unwrap();
        assert_eq!(
            clock_full.now(),
            clock_cost.now(),
            "cost-only must charge identical virtual time"
        );
    }

    #[test]
    fn timestep_shrinks_when_the_blast_arrives() {
        let (mut st, mut exec, mut clock) = setup(12, Fidelity::Full);
        st.init_ambient(1.0, 1e-6);
        let mut solo = SoloCoupler;
        let quiet = step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
        sedov::init(&mut st, &SedovConfig::default());
        let blast = step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
        assert!(
            blast.dt < quiet.dt / 10.0,
            "blast dt {} vs quiet dt {}",
            blast.dt,
            quiet.dt
        );
    }

    #[test]
    fn run_advances_n_cycles() {
        let (mut st, mut exec, mut clock) = setup(8, Fidelity::Full);
        st.init_ambient(1.0, 0.4);
        let mut solo = SoloCoupler;
        run(&mut st, &mut exec, &mut clock, &mut solo, 0.4, 1.0, 4).unwrap();
        assert_eq!(st.cycle, 4);
    }

    #[test]
    fn energy_floor_keeps_pressure_positive_everywhere() {
        let (mut st, mut exec, mut clock) = setup(12, Fidelity::Full);
        sedov::init(
            &mut st,
            &SedovConfig {
                e0: 10.0,
                ..Default::default()
            },
        );
        let mut solo = SoloCoupler;
        for _ in 0..10 {
            step(&mut st, &mut exec, &mut clock, &mut solo, 0.25, 1.0).unwrap();
        }
        for k in 0..12 {
            for j in 0..12 {
                for i in 0..12 {
                    let r = st.u.get(RHO, i, j, k);
                    let e = st.u.get(EN, i, j, k);
                    assert!(r > 0.0, "negative density at ({i},{j},{k})");
                    assert!(e > 0.0, "negative energy at ({i},{j},{k})");
                    assert!(r.is_finite() && e.is_finite());
                }
            }
        }
        let _ = GAMMA;
    }
}
