//! Sweep configurations for every figure of the paper's evaluation
//! (§7, Figures 12–18), plus one sweep per first-class
//! [`Scenario`] probing the crossover economics in that scenario's
//! kernel-size regime.
//!
//! Each figure fixes two grid dimensions and sweeps the third; the
//! main x-axis of the plots is total zones, the top x-axis the swept
//! dimension. All figures compare three modes: Default (1 MPI/GPU),
//! MPS (4 MPI/GPU), and Heterogeneous.

use crate::scenario::Scenario;

/// One sweep point: a concrete grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl SweepPoint {
    pub fn zones(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    pub fn grid(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }
}

/// Which axis a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    X,
    Y,
}

/// One evaluation figure's configuration.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure id, e.g. "fig12".
    pub id: &'static str,
    /// The paper's caption.
    pub caption: &'static str,
    pub sweep: SweepAxis,
    /// Values of the swept dimension.
    pub values: Vec<usize>,
    /// The two fixed dimensions `(x or y, z)`.
    pub fixed: (usize, usize),
    /// The problem the sweep initializes (the paper's Figs 12–18 are
    /// all Sedov; the per-scenario sweeps vary this).
    pub scenario: Scenario,
}

impl FigureSpec {
    /// Concrete grids for this figure's sweep.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.values
            .iter()
            .map(|&v| match self.sweep {
                SweepAxis::Y => SweepPoint {
                    nx: self.fixed.0,
                    ny: v,
                    nz: self.fixed.1,
                },
                SweepAxis::X => SweepPoint {
                    nx: v,
                    ny: self.fixed.0,
                    nz: self.fixed.1,
                },
            })
            .collect()
    }
}

fn steps(from: usize, to: usize, step: usize) -> Vec<usize> {
    (from..=to).step_by(step).collect()
}

/// Figure 12: vary y (x = 320, z = 320). Default kinks at ≈ 37 M.
pub fn fig12() -> FigureSpec {
    FigureSpec {
        id: "fig12",
        caption: "Varying the size of the y-dimension (x=320, z=320)",
        sweep: SweepAxis::Y,
        values: steps(40, 400, 40),
        fixed: (320, 320),
        scenario: Scenario::Sedov,
    }
}

/// Figure 13: vary x (y = 240, z = 320). Small x: MPS overlaps;
/// Hetero is CPU-bound (y too small).
pub fn fig13() -> FigureSpec {
    FigureSpec {
        id: "fig13",
        caption: "Varying the size of the x-dimension (y=240, z=320)",
        sweep: SweepAxis::X,
        values: steps(50, 500, 50),
        fixed: (240, 320),
        scenario: Scenario::Sedov,
    }
}

/// Figure 14: vary x (y = 240, z = 160). Hetero still CPU-bound;
/// Default ≈ MPS.
pub fn fig14() -> FigureSpec {
    FigureSpec {
        id: "fig14",
        caption: "Varying the size of the x-dimension (y=240, z=160)",
        sweep: SweepAxis::X,
        values: steps(100, 700, 75),
        fixed: (240, 160),
        scenario: Scenario::Sedov,
    }
}

/// Figure 15: vary x (y = 360, z = 320). MPS best at small x; Hetero
/// improves with the larger y.
pub fn fig15() -> FigureSpec {
    FigureSpec {
        id: "fig15",
        caption: "Varying the size of the x-dimension (y=360, z=320)",
        sweep: SweepAxis::X,
        values: steps(40, 400, 40),
        fixed: (360, 320),
        scenario: Scenario::Sedov,
    }
}

/// Figure 16: vary x (y = 360, z = 160). Large kernels: MPS gains
/// nothing and pays launch overhead.
pub fn fig16() -> FigureSpec {
    FigureSpec {
        id: "fig16",
        caption: "Varying the size of the x-dimension (y=360, z=160)",
        sweep: SweepAxis::X,
        values: steps(75, 600, 75),
        fixed: (360, 160),
        scenario: Scenario::Sedov,
    }
}

/// Figure 17: vary x (y = 480, z = 320). MPS best, Hetero close,
/// Default hampered.
pub fn fig17() -> FigureSpec {
    FigureSpec {
        id: "fig17",
        caption: "Varying the size of the x-dimension (y=480, z=320)",
        sweep: SweepAxis::X,
        values: steps(30, 300, 30),
        fixed: (480, 320),
        scenario: Scenario::Sedov,
    }
}

/// Figure 18: vary x (y = 480, z = 160). The Heterogeneous mode's best
/// case: up to ~18% over Default past the memory kink.
pub fn fig18() -> FigureSpec {
    FigureSpec {
        id: "fig18",
        caption: "Varying the size of the x-dimension (y=480, z=160)",
        sweep: SweepAxis::X,
        values: steps(75, 600, 75),
        fixed: (480, 160),
        scenario: Scenario::Sedov,
    }
}

/// Per-scenario crossover sweep: each first-class scenario probes the
/// Default/MPS/Heterogeneous economics in the kernel-size regime that
/// scenario stresses (the paper's Figs 15–17 only ever saw Sedov's
/// mid-size regime):
///
/// * `sedov` — the mid-size control sweep (a trimmed fig15 shape).
/// * `sod` — thin y–z slabs: tiny fused kernels, the launch-overhead
///   regime where MPS overlap pays.
/// * `noh` — axial implosion on a long x with moderate y–z: the
///   many-small-slabs regime where the carve granularity bound bites.
/// * `taylor-green` — fat y–z planes: large saturated kernels, the
///   regime where MPS buys nothing and Heterogeneous splits best.
pub fn fig_scenario(s: Scenario) -> FigureSpec {
    match s {
        Scenario::Sedov => FigureSpec {
            id: "fig-sedov",
            caption: "Sedov crossover sweep: mid-size kernels (y=360, z=320)",
            sweep: SweepAxis::X,
            values: steps(80, 400, 80),
            fixed: (360, 320),
            scenario: Scenario::Sedov,
        },
        Scenario::Sod => FigureSpec {
            id: "fig-sod",
            caption: "Sod crossover sweep: small kernels (y=64, z=32)",
            sweep: SweepAxis::X,
            values: steps(120, 600, 120),
            fixed: (64, 32),
            scenario: Scenario::Sod,
        },
        Scenario::Noh => FigureSpec {
            id: "fig-noh",
            caption: "Noh crossover sweep: long-axis implosion (y=160, z=160)",
            sweep: SweepAxis::X,
            values: steps(100, 500, 100),
            fixed: (160, 160),
            scenario: Scenario::Noh,
        },
        Scenario::TaylorGreen => FigureSpec {
            id: "fig-taylor-green",
            caption: "Taylor-Green crossover sweep: large smooth kernels (x=240, z=320)",
            sweep: SweepAxis::Y,
            values: steps(96, 480, 96),
            fixed: (240, 320),
            scenario: Scenario::TaylorGreen,
        },
    }
}

/// The rebalance-convergence figure's x-axis: per-core CPU speed
/// multipliers (clock, bandwidth, and the cycle-priced dispatch
/// penalty together) applied to the node, sweeping the CPU:GPU
/// speed ratio.
/// At each ratio the online controller starts from a deliberately
/// wrong split and must converge to the analytic optimum weight of
/// the measured rates (the companion figure to the §6.2 balance
/// study: Figs 13–14's granularity bound shows up as the clamped
/// tail). 1.0 is the stock RZHasGPU node; the spread covers a CPU
/// four times slower through one four times faster.
pub fn rebalance_speed_ratios() -> Vec<f64> {
    vec![0.25, 0.5, 1.0, 2.0, 4.0]
}

/// The figure id of the rebalance convergence sweep (not a paper
/// figure: the controller is this repo's extension of §6.2).
pub const REBALANCE_FIGURE_ID: &str = "fig-rebalance";

/// All evaluation figures: the paper's Figs 12–18 in paper order,
/// then one crossover sweep per scenario.
pub fn all_figures() -> Vec<FigureSpec> {
    let mut figs = vec![
        fig12(),
        fig13(),
        fig14(),
        fig15(),
        fig16(),
        fig17(),
        fig18(),
    ];
    figs.extend(Scenario::ALL.into_iter().map(fig_scenario));
    figs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest total zone count in the sweep.
    fn max_zones(f: &FigureSpec) -> u64 {
        f.points().iter().map(SweepPoint::zones).max().unwrap_or(0)
    }

    #[test]
    fn eleven_figures_with_unique_ids() {
        let figs = all_figures();
        assert_eq!(figs.len(), 11);
        let mut ids: Vec<_> = figs.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 11);
    }

    #[test]
    fn scenario_sweeps_cover_every_scenario_and_embed_its_name() {
        for s in Scenario::ALL {
            let f = fig_scenario(s);
            assert_eq!(f.scenario, s);
            assert_eq!(f.id, format!("fig-{}", s.name()));
            assert!(!f.points().is_empty());
        }
        // Paper figures stay on the Sedov workload.
        for f in [fig12(), fig18()] {
            assert_eq!(f.scenario, Scenario::Sedov);
        }
        // Regime spread: the Sod sweep's largest kernel is still
        // smaller than the Taylor-Green sweep's smallest.
        let yz = |p: &SweepPoint| p.ny * p.nz;
        let sod = fig_scenario(Scenario::Sod);
        let tg = fig_scenario(Scenario::TaylorGreen);
        let sod_max = sod.points().iter().map(yz).max().unwrap();
        let tg_min = tg.points().iter().map(yz).min().unwrap();
        assert!(sod_max < tg_min, "sod {sod_max} vs tg {tg_min}");
    }

    #[test]
    fn fig12_sweeps_y_and_reaches_41m_zones() {
        let f = fig12();
        let pts = f.points();
        assert_eq!(
            pts[0],
            SweepPoint {
                nx: 320,
                ny: 40,
                nz: 320
            }
        );
        // Paper: up to ≈ 4.1e7 zones at y=400.
        assert_eq!(max_zones(&f), 320 * 400 * 320);
        assert!(max_zones(&f) > 37_000_000, "sweep crosses the kink");
    }

    #[test]
    fn x_sweep_figures_fix_y_and_z() {
        for f in [fig13(), fig14(), fig15(), fig16(), fig17(), fig18()] {
            for p in f.points() {
                assert_eq!(p.ny, f.fixed.0, "{}", f.id);
                assert_eq!(p.nz, f.fixed.1, "{}", f.id);
            }
        }
    }

    #[test]
    fn fig18_crosses_the_default_mode_kink() {
        assert!(max_zones(&fig18()) > 37_000_000);
    }

    #[test]
    fn fig14_stays_below_the_kink() {
        // Paper: "Because the z-dimension is smaller … the x-dimension
        // size goes to a larger value"; the sweep tops out below the
        // Default kink, so no crossover appears in Figure 14.
        assert!(max_zones(&fig14()) < 37_000_000);
    }

    #[test]
    fn points_scale_linearly_with_the_swept_value() {
        let f = fig13();
        let pts = f.points();
        let per = pts[0].zones() / pts[0].nx as u64;
        for p in &pts {
            assert_eq!(p.zones(), per * p.nx as u64);
        }
    }
}
