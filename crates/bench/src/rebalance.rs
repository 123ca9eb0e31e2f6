//! The online-rebalance convergence study: the data source for the
//! `fig-rebalance` figure and the perf harness's `rebalance.*` result
//! rows (`perf rebalance`, which gates them before it exits).
//!
//! Three parts, all in deterministic virtual time:
//!
//! 1. **Speed-ratio sweep** — for each multiplier in
//!    [`figures::rebalance_speed_ratios`] the node's per-core CPU
//!    speed is scaled, the controller starts from a deliberately
//!    wrong split ([`START_FRACTION`]), and its landing split must be
//!    the fixed point of the measured-rate update: an *uncontrolled*
//!    probe pinned at the landing split re-derives the analytic
//!    optimum weight, which — pushed through the real decomposition,
//!    where plane rounding quantizes the request — must map back onto
//!    the identical discrete split (relative error 0).
//! 2. **Granularity clamp** — a `ny = 24` point where the `12/ny`
//!    guard (paper Figs 13–14) sits far above the GPU-hungry optimum:
//!    the final split must equal the guard exactly.
//! 3. **Recovery identity** — a full-fidelity double run with an
//!    injected `rank.loss` under the live controller: both runs must
//!    produce byte-identical metrics and balance histories, and the
//!    controller must freeze at the foldback split.

use hsim_core::balance::{RebalanceConfig, Rebalancer};
use hsim_core::calib;
use hsim_core::faults::FaultPlan;
use hsim_core::figures;
use hsim_core::runner::{
    build_decomposition, hetero_min_fraction, run, run_with_fraction, RunConfig,
};
use hsim_core::ExecMode;
use hsim_raja::Fidelity;
use hsim_telemetry::Counter;

use std::fmt::Write as _;

use crate::results::Row;
use crate::rows;

/// The deliberately oversized CPU share every controlled run starts
/// from; the converged share on the stock node is a few percent, so
/// this forces several re-splits.
pub const START_FRACTION: f64 = 0.30;

/// Cycles per controlled run in the sweep; with
/// [`calib::REBALANCE_DEFAULT_EVERY`] boundaries this gives the
/// controller five observation windows.
pub const SWEEP_CYCLES: u64 = 12;

/// Relative tolerance used for the converged-boundary scan: the first
/// boundary whose realized split stays within this band of the
/// quantized optimum for the rest of the run.
pub const CONVERGENCE_TOL: f64 = 0.05;

/// Sentinel emitted for `converged_cycle` when a run never settled
/// inside [`CONVERGENCE_TOL`]; any sane gate ceiling rejects it.
pub const NEVER_CONVERGED: u64 = 9999;

/// The sweep grid: fig18's largest-`y` family, where the guard sits
/// far below the optimum and the controller has room to move.
const SWEEP_GRID: (usize, usize, usize) = (320, 480, 160);

/// The clamp grid: `ny = 24` makes the per-GPU-block y extent 12, so
/// the guard is 3/12 = 0.25 — the Figs 13–14 bottleneck realized.
const CLAMP_GRID: (usize, usize, usize) = (64, 24, 16);

/// One speed ratio's convergence outcome.
#[derive(Debug, Clone)]
pub struct ConvergencePoint {
    /// Per-core CPU speed multiplier applied to the stock node.
    pub ratio: f64,
    /// The wrong split the controller started from.
    pub start: f64,
    /// The `12/ny`-style granularity guard for this grid.
    pub guard: f64,
    /// Analytic optimum weight from the fixed-point probe's measured
    /// rates at the landing split.
    pub optimum: f64,
    /// The optimum pushed through the actual decomposition (plane
    /// rounding quantizes the request); the convergence target.
    pub optimum_realized: f64,
    /// The controller's final realized split.
    pub final_fraction: f64,
    /// `|final - optimum_realized| / optimum_realized`.
    pub rel_err: f64,
    /// First cycle whose split stays within [`CONVERGENCE_TOL`] of the
    /// target for the rest of the run ([`NEVER_CONVERGED`] if none).
    pub converged_cycle: u64,
    /// Re-splits the controller actually took.
    pub resplits: u64,
    /// Boundaries where hysteresis held the split.
    pub holds: u64,
    /// Whether the optimum itself hit the granularity guard.
    pub clamped: bool,
    /// Realized split at every segment boundary (entry 0 = initial).
    pub history: Vec<f64>,
}

/// Outcome of the controller-enabled rank-loss double run.
#[derive(Debug, Clone)]
pub struct RecoveryCheck {
    /// Both same-seed runs produced byte-identical metrics JSON and
    /// balance histories.
    pub identical: bool,
    /// `balance_frozen` counter after the run (must be 1).
    pub frozen: u64,
    /// `fault_rank_losses` counter after the run (must be 1).
    pub rank_losses: u64,
    /// Surviving ranks after the foldback.
    pub ranks_after: usize,
    /// The frozen post-loss split (may sit below the guard: the
    /// foldback hands the lost slab to a GPU block).
    pub post_loss_fraction: f64,
    /// Largest `|Σ buckets − total|` over the survivors' folded
    /// reports (must be 0).
    pub account_residual_ns: u64,
}

/// The full study: sweep points (the last one is the clamped `ny=24`
/// row) plus the recovery identity check.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    pub every: u64,
    pub hysteresis: f64,
    pub cycles: u64,
    pub points: Vec<ConvergencePoint>,
    pub recovery: RecoveryCheck,
}

fn controlled_cfg(grid: (usize, usize, usize), ratio: f64, cycles: u64) -> RunConfig {
    let mut cfg = RunConfig::sweep(grid, ExecMode::hetero());
    cfg.cycles = cycles;
    // Scale the whole per-core speed, not just the clock: the CPU
    // cost model rooflines compute against per-core bandwidth (hydro
    // kernels sit on the memory side) and adds a cycle-priced
    // dispatch penalty, so a "ratio-times-faster CPU" multiplies
    // clock and bandwidth and divides the per-iteration penalty.
    cfg.node.cpu.ghz *= ratio;
    cfg.node.cpu.bw_gbs_per_core *= ratio;
    cfg.node.cpu.dispatch_ns /= ratio;
    cfg.rebalance = Some(RebalanceConfig {
        every: calib::REBALANCE_DEFAULT_EVERY,
        hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
    });
    cfg.telemetry = true;
    cfg
}

/// First boundary index whose split stays within `tol` of `target`
/// through the end of the history.
fn converged_index(history: &[f64], target: f64, tol: f64) -> Option<usize> {
    let within = |f: f64| ((f - target) / target.max(1e-12)).abs() <= tol;
    let mut settled = None;
    for (i, &f) in history.iter().enumerate() {
        if within(f) {
            if settled.is_none() {
                settled = Some(i);
            }
        } else {
            settled = None;
        }
    }
    settled
}

/// Run one speed ratio: the controlled run walks [`START_FRACTION`]
/// to its landing split, then an uncontrolled probe pinned at that
/// split must certify it as the fixed point of the measured-rate
/// update — the analytic optimum implied by rates measured *at* the
/// landing point maps back onto the same discrete split. (Probing at
/// any other fraction would bias the target: the rates are mildly
/// fraction-dependent through host sharing and plane rounding, which
/// is the reason the controller iterates instead of solving once.)
pub fn run_convergence_point(
    grid: (usize, usize, usize),
    ratio: f64,
    cycles: u64,
    start: f64,
) -> Result<ConvergencePoint, String> {
    let cfg = controlled_cfg(grid, ratio, cycles);
    let every = cfg.rebalance.as_ref().map_or(1, |r| r.every);
    let r = run_with_fraction(&cfg, start)?;
    let final_fraction = r.cpu_fraction;

    // Fixed-point probe: rerun one controller window at the landing
    // split with the controller off, and recover the analytic optimum
    // from the timings the controller would have observed there.
    let mut probe_cfg = controlled_cfg(grid, ratio, calib::REBALANCE_DEFAULT_EVERY);
    probe_cfg.rebalance = None;
    probe_cfg.telemetry = false;
    let probe = run_with_fraction(&probe_cfg, final_fraction)?;
    let f_real = probe.cpu_fraction;
    let t_cpu = probe.slowest_cpu_compute().as_secs_f64();
    let t_gpu = probe.slowest_device_busy().as_secs_f64();
    if !(t_cpu > 0.0 && t_gpu > 0.0) {
        return Err(format!(
            "probe at ratio {ratio} produced degenerate timings ({t_cpu}s CPU, {t_gpu}s GPU)"
        ));
    }
    let (r_cpu, r_gpu) = (f_real / t_cpu, (1.0 - f_real) / t_gpu);
    let guard = hetero_min_fraction(&probe_cfg)?;
    let optimum = Rebalancer::analytic_optimum(r_cpu, r_gpu, 1.0, guard);
    let optimum_realized = build_decomposition(&probe_cfg, optimum)?.cpu_zone_fraction();
    let rel_err = ((final_fraction - optimum_realized) / optimum_realized.max(1e-12)).abs();
    let converged_cycle = converged_index(&r.balance_history, optimum_realized, CONVERGENCE_TOL)
        .map_or(NEVER_CONVERGED, |i| (i as u64 * every).min(cycles));
    let summary = r
        .telemetry
        .as_ref()
        .ok_or("controlled run dropped its telemetry summary")?;
    Ok(ConvergencePoint {
        ratio,
        start,
        guard,
        optimum,
        optimum_realized,
        final_fraction,
        rel_err,
        converged_cycle,
        resplits: summary.metrics.counter(Counter::BalanceResplits),
        holds: summary.metrics.counter(Counter::BalanceHolds),
        clamped: optimum <= guard + 1e-12,
        history: r.balance_history,
    })
}

/// The controller-enabled rank-loss double run: same seed, same plan,
/// twice in this process.
pub fn run_recovery_check() -> Result<RecoveryCheck, String> {
    let mut cfg = RunConfig::sweep((32, 48, 32), ExecMode::hetero());
    cfg.cycles = 6;
    cfg.rebalance = Some(RebalanceConfig {
        every: calib::REBALANCE_DEFAULT_EVERY,
        hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
    });
    cfg.fidelity = Fidelity::Full;
    cfg.telemetry = true;
    cfg.faults = Some(FaultPlan::parse("rank.loss@rank4.cycle3")?);
    let a = run(&cfg)?;
    let b = run(&cfg)?;
    let sa = a
        .telemetry
        .as_ref()
        .ok_or("recovery run a dropped its telemetry summary")?;
    let sb = b
        .telemetry
        .as_ref()
        .ok_or("recovery run b dropped its telemetry summary")?;
    let identical = a.balance_history == b.balance_history
        && sa.to_metrics_json(&a.kernels) == sb.to_metrics_json(&b.kernels);
    Ok(RecoveryCheck {
        identical,
        frozen: sa.metrics.counter(Counter::BalanceFrozen),
        rank_losses: sa.metrics.counter(Counter::FaultRankLosses),
        ranks_after: a.ranks.len(),
        post_loss_fraction: a.cpu_fraction,
        account_residual_ns: a.account_residual().as_nanos(),
    })
}

/// Run the whole study: every speed ratio, the clamped row, and the
/// recovery check.
pub fn run_rebalance_report() -> Result<RebalanceReport, String> {
    let mut points = Vec::new();
    for ratio in figures::rebalance_speed_ratios() {
        eprintln!("rebalance sweep: CPU clock x{ratio}, {SWEEP_CYCLES} cycles...");
        points.push(run_convergence_point(
            SWEEP_GRID,
            ratio,
            SWEEP_CYCLES,
            START_FRACTION,
        )?);
    }
    // The clamped tail: the guard realizes 0.25 here, far above the
    // optimum, so the controller must pin to it and stay.
    eprintln!(
        "rebalance sweep: granularity clamp at ny = {}...",
        CLAMP_GRID.1
    );
    points.push(run_convergence_point(CLAMP_GRID, 1.0, 8, 0.45)?);
    eprintln!("rebalance recovery: controller-enabled rank.loss double run...");
    let recovery = run_recovery_check()?;
    Ok(RebalanceReport {
        every: calib::REBALANCE_DEFAULT_EVERY,
        hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
        cycles: SWEEP_CYCLES,
        points,
        recovery,
    })
}

impl RebalanceReport {
    /// The `rebalance.*` result rows. Each sweep point's rows sit
    /// under a label built from its speed ratio and start split
    /// (`r100_s30`, `r100_s45`), so two points at one ratio keep
    /// distinct keys; the cross-field checks the gate holds are
    /// derived here, where both numbers are in hand.
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::new();
        for p in &self.points {
            let at = format!(
                "rebalance.r{:03.0}_s{:02.0}",
                p.ratio * 100.0,
                p.start * 100.0
            );
            out.extend(rows!(at;
                "ratio" => p.ratio, "start" => p.start, "guard" => p.guard,
                "optimum" => p.optimum, "optimum_realized" => p.optimum_realized,
                "final" => p.final_fraction, "final_minus_guard" => p.final_fraction - p.guard,
                "rel_err" => p.rel_err, "converged_cycle" => p.converged_cycle,
                "resplits" => p.resplits, "holds" => p.holds, "clamped" => p.clamped,
            ));
            if p.clamped {
                let off = (p.final_fraction - p.guard).abs();
                out.extend(rows!(at; "clamped_offset" => off));
            }
        }
        let rec = &self.recovery;
        out.extend(rows!("rebalance.recovery";
            "identical" => rec.identical, "frozen" => rec.frozen,
            "rank_losses" => rec.rank_losses, "ranks_after" => rec.ranks_after,
            "post_loss_fraction" => rec.post_loss_fraction,
            "account_residual_ns" => rec.account_residual_ns,
        ));
        out
    }

    /// Human-readable table plus a convergence-trajectory chart.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "## {}: online rebalance convergence\n",
            figures::REBALANCE_FIGURE_ID
        );
        let _ = writeln!(
            s,
            "| ratio | guard | optimum | final | rel err | converged @ | resplits | clamped |"
        );
        let _ = writeln!(
            s,
            "|------:|------:|--------:|------:|--------:|------------:|---------:|:--------|"
        );
        for p in &self.points {
            let conv = if p.converged_cycle == NEVER_CONVERGED {
                "never".to_string()
            } else {
                format!("cycle {}", p.converged_cycle)
            };
            let _ = writeln!(
                s,
                "| {:.2}x | {:.4} | {:.4} | {:.4} | {:.1}% | {conv} | {} | {} |",
                p.ratio,
                p.guard,
                p.optimum_realized,
                p.final_fraction,
                p.rel_err * 100.0,
                p.resplits,
                if p.clamped { "yes" } else { "no" }
            );
        }
        let _ = writeln!(
            s,
            "\nrecovery: identical={} frozen={} rank_losses={} ranks_after={}\n",
            self.recovery.identical,
            self.recovery.frozen,
            self.recovery.rank_losses,
            self.recovery.ranks_after
        );
        let series: Vec<(String, Vec<(f64, f64)>)> = self
            .points
            .iter()
            .filter(|p| !p.clamped)
            .map(|p| {
                let pts = p
                    .history
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| (i as f64 * self.every as f64, f))
                    .collect();
                (format!("cpu x{:.2}", p.ratio), pts)
            })
            .collect();
        s.push_str(&crate::plot::ascii_chart(&series, 60, 14));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_point_pins_to_the_guard() {
        let p = run_convergence_point(CLAMP_GRID, 1.0, 8, 0.45).unwrap();
        assert!((p.guard - 0.25).abs() < 1e-12, "{}", p.guard);
        assert!(
            p.clamped,
            "optimum {} should hit guard {}",
            p.optimum, p.guard
        );
        assert!(
            (p.final_fraction - p.guard).abs() < 1e-12,
            "clamped run must end on the guard: {}",
            p.final_fraction
        );
        assert_eq!(p.rel_err, 0.0, "guard and target quantize identically");
        assert_ne!(p.converged_cycle, NEVER_CONVERGED);
    }

    #[test]
    fn converged_index_requires_staying_inside_the_band() {
        // Dips back out of the band reset the scan.
        let h = [0.30, 0.10, 0.05, 0.30, 0.051, 0.049, 0.05];
        assert_eq!(converged_index(&h, 0.05, 0.05), Some(4));
        assert_eq!(converged_index(&h, 0.5, 0.05), None);
    }

    #[test]
    fn rows_key_same_ratio_points_apart_and_derive_the_guard_checks() {
        let point = |start: f64, guard: f64, final_fraction: f64, clamped: bool| ConvergencePoint {
            ratio: 1.0,
            start,
            guard,
            optimum: 0.031,
            optimum_realized: 0.03125,
            final_fraction,
            rel_err: 0.0,
            converged_cycle: 6,
            resplits: 3,
            holds: 2,
            clamped,
            history: vec![start, final_fraction],
        };
        let report = RebalanceReport {
            every: 2,
            hysteresis: 0.02,
            cycles: 12,
            points: vec![
                point(0.30, 0.0125, 0.03125, false),
                point(0.45, 0.25, 0.25, true),
            ],
            recovery: RecoveryCheck {
                identical: true,
                frozen: 1,
                rank_losses: 1,
                ranks_after: 15,
                post_loss_fraction: 0.02,
                account_residual_ns: 0,
            },
        };
        let mut results = crate::Results::new(1);
        results.extend(report.rows()); // panics on a duplicate key
        let num = |k: &str| results.num(k);
        assert_eq!(
            num("rebalance.r100_s30.final_minus_guard"),
            Some(0.03125 - 0.0125)
        );
        assert_eq!(num("rebalance.r100_s30.clamped_offset"), None);
        assert_eq!(num("rebalance.r100_s45.clamped_offset"), Some(0.0));
        assert_eq!(num("rebalance.recovery.frozen"), Some(1.0));
    }
}
