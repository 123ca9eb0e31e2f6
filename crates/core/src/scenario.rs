//! The physics problem a run initializes: first-class scenarios,
//! named setups spanning the kernel-size regimes the evaluation
//! sweeps, each with a deterministic quality metric against its
//! analytic reference.
//!
//! A [`Problem`] is a [`Scenario`] or [`Problem::Perturbed`], the
//! balancer stress workload, which is deliberately *not* a scenario:
//! it has no reference solution. Every problem starts from its hydro
//! configuration's `Default`; no front door sets another. The CLI, the
//! serve layer, and the CI gates select runs by scenario name, and the
//! runner derives per-scenario diagnostics (axial density profile,
//! kinetic energy) from the final state so the result can carry an
//! analytic-solution error:
//!
//! * `sedov` — the paper's 3D blast wave; similarity scaling only, no
//!   pointwise metric (`error = None`).
//! * `sod` — the shock tube; full-axis L1 density error against the
//!   exact Riemann solution.
//! * `noh` — the planar implosion; density L1 against the exact
//!   stagnation solution, windowed around the shocks (the hardest
//!   regime: infinite-strength shock, wall-clock dominated by tiny
//!   post-shock zones).
//! * `taylor-green` — the smooth vortex array; kinetic-energy decay
//!   `1 − KE/KE₀` measures pure numerical dissipation (no shocks
//!   anywhere — the regime the other three never touch).

use hsim_hydro::noh::{self, NohConfig};
use hsim_hydro::sedov::{self, SedovConfig};
use hsim_hydro::sod::{self, SodConfig};
use hsim_hydro::state::RHO;
use hsim_hydro::taylor_green::{self, TaylorGreenConfig};
use hsim_hydro::workload::{self, PerturbedConfig};
use hsim_hydro::HydroState;
use hsim_mesh::GlobalGrid;

/// Density-error window (fraction of the x extent around the
/// midplane) for the Noh metric: wide enough to cover both shocks at
/// the standard end time, narrow enough to ignore inflow noise.
pub const NOH_WINDOW: f64 = 0.2;

/// The physics problem a run initializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// A named scenario; the default is the paper's workload, the 3D
    /// Sedov blast wave (§7, Fig 11).
    Scenario(Scenario),
    /// Seeded random multi-mode perturbations (balancer stress test).
    Perturbed,
}

impl Default for Problem {
    fn default() -> Self {
        Problem::Scenario(Scenario::Sedov)
    }
}

impl Problem {
    /// Parse a problem name: a [`Scenario`] name or `perturbed`.
    pub fn parse(s: &str) -> Option<Problem> {
        match s {
            "perturbed" => Some(Problem::Perturbed),
            _ => Scenario::parse(s).ok().map(Problem::Scenario),
        }
    }

    /// Write the initial condition into `state`.
    pub(crate) fn init(self, state: &mut HydroState) {
        match self {
            Problem::Scenario(s) => s.init(state),
            Problem::Perturbed => workload::init(state, &PerturbedConfig::default()),
        }
    }
}

/// The four named problem setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Sedov,
    Sod,
    Noh,
    TaylorGreen,
}

impl Scenario {
    pub const ALL: [Scenario; 4] = [
        Scenario::Sedov,
        Scenario::Sod,
        Scenario::Noh,
        Scenario::TaylorGreen,
    ];

    /// The CLI / serve / gate name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Sedov => "sedov",
            Scenario::Sod => "sod",
            Scenario::Noh => "noh",
            Scenario::TaylorGreen => "taylor-green",
        }
    }

    /// Parse a scenario name (the inverse of [`Scenario::name`]).
    pub fn parse(s: &str) -> Result<Scenario, String> {
        match s {
            "sedov" => Ok(Scenario::Sedov),
            "sod" => Ok(Scenario::Sod),
            "noh" => Ok(Scenario::Noh),
            "taylor-green" | "tg" => Ok(Scenario::TaylorGreen),
            other => Err(format!(
                "unknown scenario '{other}' (expected sedov, sod, noh, or taylor-green)"
            )),
        }
    }

    /// The [`Problem`] this scenario initializes.
    pub fn problem(self) -> Problem {
        Problem::Scenario(self)
    }

    fn init(self, state: &mut HydroState) {
        match self {
            Scenario::Sedov => sedov::init(state, &SedovConfig::default()),
            Scenario::Sod => sod::init(state, &SodConfig::default()),
            Scenario::Noh => noh::init(state, &NohConfig::default()),
            Scenario::TaylorGreen => taylor_green::init(state, &TaylorGreenConfig::default()),
        }
    }
}

/// One rank's contribution to the scenario diagnostics: partial sums
/// over its owned zones, indexed by *global* x where axial. Summed in
/// rank order by [`ScenarioDiag::merge`], so the merged profile is a
/// deterministic function of the decomposition.
#[derive(Debug, Clone)]
pub struct ScenarioDiag {
    /// Σ ρ over owned zones at each global x index (length nx).
    pub axial_rho_sum: Vec<f64>,
    /// Owned-zone count behind each axial sum (length nx).
    pub axial_count: Vec<u64>,
    /// Kinetic energy Σ ½|m|²/ρ·V over owned zones.
    pub kinetic: f64,
}

impl ScenarioDiag {
    /// Partial diagnostics for one rank's final state (full fidelity;
    /// cost-only states carry no physics to diagnose).
    pub fn of_rank(state: &HydroState) -> ScenarioDiag {
        let grid = state.grid;
        let sub = state.sub;
        let mut axial_rho_sum = vec![0.0; grid.nx];
        let mut axial_count = vec![0u64; grid.nx];
        for i in 0..sub.extent(0) {
            let gx = sub.lo[0] + i;
            for k in 0..sub.extent(2) {
                for j in 0..sub.extent(1) {
                    axial_rho_sum[gx] += state.u.get(RHO, i, j, k);
                }
            }
            axial_count[gx] += (sub.extent(1) * sub.extent(2)) as u64;
        }
        ScenarioDiag {
            axial_rho_sum,
            axial_count,
            kinetic: taylor_green::kinetic_energy(state),
        }
    }

    /// Elementwise sum of per-rank partials, in the order given.
    pub fn merge<'a>(nx: usize, parts: impl Iterator<Item = &'a ScenarioDiag>) -> ScenarioDiag {
        let mut out = ScenarioDiag {
            axial_rho_sum: vec![0.0; nx],
            axial_count: vec![0u64; nx],
            kinetic: 0.0,
        };
        for p in parts {
            for (a, b) in out.axial_rho_sum.iter_mut().zip(&p.axial_rho_sum) {
                *a += b;
            }
            for (a, b) in out.axial_count.iter_mut().zip(&p.axial_count) {
                *a += b;
            }
            out.kinetic += p.kinetic;
        }
        out
    }

    /// The y–z-averaged global density profile.
    pub fn axial_rho(&self) -> Vec<f64> {
        self.axial_rho_sum
            .iter()
            .zip(&self.axial_count)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

/// The scenario block of a [`crate::report::RunResult`].
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// [`Scenario::name`] of the run's problem.
    pub name: &'static str,
    /// Simulation end time.
    pub t_end: f64,
    /// What `error` measures for this scenario.
    pub metric: &'static str,
    /// Analytic-solution error (full fidelity only; `None` in
    /// cost-only runs and for Sedov, which has no pointwise
    /// reference).
    pub error: Option<f64>,
}

/// Build the outcome block for a finished run. `diag` is the merged
/// final-state diagnostics (`None` under cost-only fidelity).
/// Returns `None` for non-scenario problems (Perturbed).
pub fn outcome(
    problem: Problem,
    grid: &GlobalGrid,
    t_end: f64,
    diag: Option<&ScenarioDiag>,
) -> Option<ScenarioOutcome> {
    let Problem::Scenario(scenario) = problem else {
        return None;
    };
    let (metric, error) = match scenario {
        Scenario::Sedov => ("none", None),
        Scenario::Sod => (
            "sod_l1",
            diag.map(|d| sod_l1(&SodConfig::default(), &d.axial_rho(), grid, t_end)),
        ),
        Scenario::Noh => (
            "noh_windowed_l1",
            diag.map(|d| {
                let cfg = NohConfig::default();
                noh::windowed_l1_error(&cfg, &d.axial_rho(), grid.lx, t_end, NOH_WINDOW)
            }),
        ),
        Scenario::TaylorGreen => (
            "tg_ke_decay",
            diag.map(|d| {
                let cfg = TaylorGreenConfig::default();
                taylor_green::ke_decay(&cfg, d.kinetic, grid.lx, grid.ly, grid.lz)
            }),
        ),
    };
    Some(ScenarioOutcome {
        name: scenario.name(),
        t_end,
        metric,
        error,
    })
}

/// Full-axis L1 density error of a y–z-averaged profile against the
/// exact Sod solution at time `t`.
pub fn sod_l1(cfg: &SodConfig, axial_rho: &[f64], grid: &GlobalGrid, t: f64) -> f64 {
    let n = axial_rho.len();
    if n == 0 || t <= 0.0 {
        return 0.0;
    }
    let dx = grid.lx / n as f64;
    let x0 = cfg.diaphragm * grid.lx;
    let mut l1 = 0.0;
    for (i, rho) in axial_rho.iter().enumerate() {
        let x = (i as f64 + 0.5) * dx;
        let exact = sod::exact_solution(&cfg.left, &cfg.right, (x - x0) / t);
        l1 += (rho - exact.rho).abs();
    }
    l1 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_mesh::Subdomain;
    use hsim_raja::Fidelity;

    #[test]
    fn names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.name()).unwrap(), s);
        }
        assert_eq!(Scenario::parse("tg").unwrap(), Scenario::TaylorGreen);
        assert!(Scenario::parse("vortex").is_err());
    }

    #[test]
    fn split_diags_merge_to_the_solo_profile() {
        let grid = GlobalGrid::new(16, 8, 8);
        let cfg = SodConfig::default();
        let solo_sub = Subdomain::new([0, 0, 0], [16, 8, 8], 1);
        let mut solo = HydroState::new(grid, solo_sub, Fidelity::Full);
        sod::init(&mut solo, &cfg);
        let whole = ScenarioDiag::of_rank(&solo);

        let halves: Vec<ScenarioDiag> = [[0, 8], [8, 16]]
            .iter()
            .map(|&[lo, hi]| {
                let sub = Subdomain::new([lo, 0, 0], [hi, 8, 8], 1);
                let mut st = HydroState::new(grid, sub, Fidelity::Full);
                sod::init(&mut st, &cfg);
                ScenarioDiag::of_rank(&st)
            })
            .collect();
        let merged = ScenarioDiag::merge(16, halves.iter());
        assert_eq!(merged.axial_rho(), whole.axial_rho());
        assert_eq!(merged.axial_count, whole.axial_count);
        assert!((merged.kinetic - whole.kinetic).abs() < 1e-12);
    }

    #[test]
    fn sod_l1_vanishes_on_the_exact_profile() {
        let grid = GlobalGrid::new(64, 4, 4);
        let cfg = SodConfig::default();
        let t = 0.15;
        let dx = grid.lx / 64.0;
        let x0 = cfg.diaphragm * grid.lx;
        let exact: Vec<f64> = (0..64)
            .map(|i| {
                let x = (i as f64 + 0.5) * dx;
                sod::exact_solution(&cfg.left, &cfg.right, (x - x0) / t).rho
            })
            .collect();
        assert!(sod_l1(&cfg, &exact, &grid, t) < 1e-14);
        let flat = vec![1.0; 64];
        assert!(sod_l1(&cfg, &flat, &grid, t) > 0.1);
    }

    #[test]
    fn outcome_labels_match_the_problem() {
        let grid = GlobalGrid::new(8, 8, 8);
        let o = outcome(Scenario::Noh.problem(), &grid, 0.1, None).unwrap();
        assert_eq!(o.name, "noh");
        assert_eq!(o.metric, "noh_windowed_l1");
        assert_eq!(o.error, None);
        assert!(outcome(Problem::Perturbed, &grid, 0.1, None).is_none());
    }
}
