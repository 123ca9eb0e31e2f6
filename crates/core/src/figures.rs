//! Sweep configurations for every figure of the paper's evaluation
//! (§7, Figures 12–18), plus one sweep per first-class
//! [`Scenario`] probing the crossover economics in that scenario's
//! kernel-size regime.
//!
//! Each figure fixes two grid dimensions and sweeps the third; the
//! main x-axis of the plots is total zones, the top x-axis the swept
//! dimension. All figures compare three modes: Default (1 MPI/GPU),
//! MPS (4 MPI/GPU), and Heterogeneous.
//!
//! [`run_figure_with`] is the one sweep engine: every `(mode, point)`
//! pair is an independent simulation, so the engine claims pairs from
//! an atomic cursor and hands each [`RunConfig`] to the caller's
//! executor on up to `jobs` OS threads. Results land in per-task
//! slots and are assembled in the fixed mode-major, point-minor
//! order, so the CSV, markdown, and chart output are byte-identical
//! for any job count (the simulations themselves are deterministic
//! virtual-time runs — wall-clock parallelism cannot leak into them).
//! Points the executor refuses (e.g. a carve axis too small for the
//! CPU ranks) are recorded as [`SkippedPoint`]s on the [`FigureData`],
//! so figure footers can report them and tests can assert on them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::mode::ExecMode;
use crate::runner::RunConfig;
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

    /// The run configuration of one sweep point: cost-only fidelity
    /// on RZHasGPU, initializing this figure's scenario.
    pub fn config(&self, point: &SweepPoint, mode: ExecMode) -> RunConfig {
        let mut cfg = RunConfig::sweep(point.grid(), mode);
        cfg.problem = self.scenario.problem();
        cfg
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

/// The three modes every evaluation figure compares.
pub fn paper_modes() -> Vec<ExecMode> {
    vec![ExecMode::Default, ExecMode::mps4(), ExecMode::hetero()]
}

/// Heterogeneous runs do cooperative CPU work on top of the device
/// timeline and, balanced, repeat the run: they cost more wall-clock
/// per zone than the other modes.
const HETERO_LPT_WEIGHT: u64 = 4;

/// Relative host cost of executing `cfg`, for longest-processing-time
/// ordering: zones, weighted up for heterogeneous runs. Feeds both the
/// sweep engine's claim order and the serve admission queue.
pub fn lpt_cost(cfg: &RunConfig) -> u64 {
    let (x, y, z) = cfg.grid;
    let zones = (x as u64).saturating_mul(y as u64).saturating_mul(z as u64);
    match cfg.mode {
        ExecMode::Heterogeneous { .. } => zones.saturating_mul(HETERO_LPT_WEIGHT),
        _ => zones,
    }
}

/// One mode's series over a sweep.
#[derive(Debug, Clone)]
pub struct Series {
    pub mode: ExecMode,
    pub label: String,
    /// `(zones, swept_dim, runtime_s, cpu_fraction)` per point.
    pub points: Vec<(u64, usize, f64, f64)>,
}

/// A sweep point the executor refused, kept for footers and tests.
#[derive(Debug, Clone)]
pub struct SkippedPoint {
    pub mode: String,
    pub grid: (usize, usize, usize),
    pub swept_dim: usize,
    pub reason: String,
}

/// All series of one figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    pub id: &'static str,
    pub caption: &'static str,
    pub series: Vec<Series>,
    /// Infeasible points, in the same deterministic sweep order.
    pub skipped: Vec<SkippedPoint>,
}

/// What executing one sweep point yields: `(zones, runtime_s,
/// cpu_fraction)`, or the reason the point is skipped.
pub type PointResult = Result<(u64, f64, f64), String>;

/// Run one figure's sweep for `modes` with up to `jobs` simulations in
/// flight; `exec` executes one point's configuration.
///
/// `jobs` is clamped to at least 1; the calling thread always acts as
/// one of the workers, so `jobs = 1` spawns nothing and degenerates to
/// the serial loop. Output is byte-identical for every `jobs` value.
pub fn run_figure_with<E>(spec: &FigureSpec, modes: &[ExecMode], jobs: usize, exec: E) -> FigureData
where
    E: Fn(&RunConfig) -> PointResult + Sync,
{
    let points = spec.points();
    let cfgs: Vec<RunConfig> = modes
        .iter()
        .flat_map(|&mode| points.iter().map(move |p| spec.config(p, mode)))
        .collect();
    let slots: Vec<OnceLock<PointResult>> = cfgs.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);

    // Longest-processing-time claim order: hand out the most
    // expensive simulations first so a big point claimed late cannot
    // serialize the tail of the sweep (sweeps run small → large, so
    // flat order used to put the largest grids last and capped fig14
    // speedup well below the job count). Only the *claim* order
    // changes: slots and assembly stay in the fixed mode-major order,
    // so output is still byte-identical.
    let mut order: Vec<usize> = (0..cfgs.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(lpt_cost(&cfgs[t])));

    // Each worker claims tasks in LPT order until the cursor runs
    // dry. Slots are written exactly once.
    let worker = || {
        while let Some(&t) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let _ = slots[t].set(exec(&cfgs[t]));
        }
    };
    let extra = jobs.max(1).min(cfgs.len().max(1)) - 1;
    std::thread::scope(|s| {
        for _ in 0..extra {
            s.spawn(worker);
        }
        worker();
    });

    // Deterministic assembly: fixed mode-major, point-minor order,
    // independent of which worker ran which task.
    let mut outcomes = slots.into_iter().map(OnceLock::into_inner);
    let mut series = Vec::with_capacity(modes.len());
    let mut skipped = Vec::new();
    for mode in modes {
        let mut done = Vec::with_capacity(points.len());
        for (point, &v) in points.iter().zip(&spec.values) {
            match outcomes.next().flatten() {
                Some(Ok((zones, runtime_s, cpu_fraction))) => {
                    done.push((zones, v, runtime_s, cpu_fraction))
                }
                other => skipped.push(SkippedPoint {
                    mode: mode.label(),
                    grid: point.grid(),
                    swept_dim: v,
                    reason: other
                        .and_then(Result::err)
                        .unwrap_or_else(|| "sweep point never ran".to_string()),
                }),
            }
        }
        series.push(Series {
            mode: *mode,
            label: mode.label(),
            points: done,
        });
    }
    FigureData {
        id: spec.id,
        caption: spec.caption,
        series,
        skipped,
    }
}

impl FigureData {
    /// A markdown table of the figure's series with Default-relative
    /// ratios (the EXPERIMENTS.md presentation). Skipped points, if
    /// any, are listed in a footer below the table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.caption);
        out.push_str("| zones | dim | Default | MPS | Hetero | Het/Def | MPS/Def | CPU share |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        let find = |key: &str| self.series.iter().find(|s| s.mode.key() == key);
        let (d, m, h) = (find("default"), find("mps4"), find("hetero"));
        let zones: Vec<(u64, usize)> = d
            .map(|s| s.points.iter().map(|&(z, v, _, _)| (z, v)).collect())
            .unwrap_or_default();
        for (z, v) in zones {
            let at = |s: Option<&Series>| {
                s.and_then(|s| s.points.iter().find(|p| p.0 == z))
                    .map(|p| (p.2, p.3))
            };
            let dd = at(d);
            let mm = at(m);
            let hh = at(h);
            let ratio = |x: Option<(f64, f64)>| match (x, dd) {
                (Some((t, _)), Some((td, _))) if td > 0.0 => format!("{:.3}", t / td),
                _ => "—".to_string(),
            };
            let cell = |x: Option<(f64, f64)>| {
                x.map(|(t, _)| format!("{t:.4}"))
                    .unwrap_or_else(|| "—".into())
            };
            let share = hh
                .map(|(_, f)| format!("{:.2}%", f * 100.0))
                .unwrap_or_else(|| "—".into());
            out.push_str(&format!(
                "| {z} | {v} | {} | {} | {} | {} | {} | {share} |\n",
                cell(dd),
                cell(mm),
                cell(hh),
                ratio(hh),
                ratio(mm)
            ));
        }
        out.push_str(&self.skip_footer());
        out
    }

    /// Footer lines describing skipped points, empty when none were.
    pub fn skip_footer(&self) -> String {
        if self.skipped.is_empty() {
            return String::new();
        }
        let mut out = format!("\n_{} infeasible point(s) skipped:_\n", self.skipped.len());
        for s in &self.skipped {
            out.push_str(&format!(
                "- {} at {}×{}×{} (dim {}): {}\n",
                s.mode, s.grid.0, s.grid.1, s.grid.2, s.swept_dim, s.reason
            ));
        }
        out
    }

    /// CSV rows: `figure,mode,zones,swept,runtime_s,cpu_fraction`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,mode,zones,swept_dim,runtime_s,cpu_fraction\n");
        for s in &self.series {
            for &(zones, v, t, f) in &s.points {
                out.push_str(&format!(
                    "{},{},{zones},{v},{t:.6},{f:.4}\n",
                    self.id,
                    s.mode.key()
                ));
            }
        }
        out
    }

    /// Chart-ready series `(label, [(zones, runtime_s)])`.
    pub fn chart_series(&self) -> Vec<(String, Vec<(f64, f64)>)> {
        self.series
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    s.points.iter().map(|&(z, _, t, _)| (z as f64, t)).collect(),
                )
            })
            .collect()
    }
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
