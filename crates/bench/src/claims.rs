//! The paper's claims, stated once: one row per statement, the sweep
//! points that check it, and the tolerance its value must fall in.
//!
//! A row's measurement runs each point the way the figure sweep engine
//! does (`RunConfig::sweep` + `run_balanced`) and reduces the results
//! to one number, a ratio, a gain or a share. Everything runs on the
//! virtual clock, so the value is the same on every machine and a
//! claim that breaks is a change in behaviour, never noise.
//!
//! Two readers: the root test `tests/claims.rs`, which fails listing
//! every broken claim by id (`tests/figures_shape.rs` checks the figure
//! rows again, one test per figure), and `perf claims`, which writes
//! `claims.<id>` (the value) and `claims.<id>.holds` and exits 1 if any
//! `holds` is false. A row without a tolerance is a projection the
//! paper makes without measuring it: its value is reported and held to
//! nothing. `perf` states its own bounds as [`Tolerance`]s too.

use std::fmt;

use hsim_core::runner::run_with_fraction;
use hsim_core::{run_balanced, ExecMode, NodeConfig, RunConfig, RunResult, Scenario};
use hsim_mesh::decomp::{block_decomp, nested, Blocks, Pieces};
use hsim_mesh::{Decomposition, GlobalGrid, HaloPlan};

use crate::results::{row, Row};

/// The interval a claim's value must fall in, written as the assert it
/// replaced wrote it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// `> x`
    Above(f64),
    /// `< x`
    Below(f64),
    /// `≥ x`
    AtLeast(f64),
    /// `≤ x`
    AtMost(f64),
    /// `[lo, hi)`
    Within(f64, f64),
}

use Tolerance::{Above, AtLeast, AtMost, Below, Within};

impl Tolerance {
    /// Does `v` lie in the interval? NaN never does.
    pub fn admits(self, v: f64) -> bool {
        match self {
            Above(x) => v > x,
            Below(x) => v < x,
            AtLeast(x) => v >= x,
            AtMost(x) => v <= x,
            Within(lo, hi) => (lo..hi).contains(&v),
        }
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Above(x) => write!(f, "> {x}"),
            Below(x) => write!(f, "< {x}"),
            AtLeast(x) => write!(f, "≥ {x}"),
            AtMost(x) => write!(f, "≤ {x}"),
            Within(lo, hi) => write!(f, "[{lo}, {hi})"),
        }
    }
}

/// One statement of the paper and how it is checked.
pub struct Claim {
    /// The key segment of the claim's rows: `claims.<id>`.
    pub id: &'static str,
    /// Where the paper (or the ablation beyond it) makes the claim.
    pub source: &'static str,
    /// What it says.
    pub statement: &'static str,
    /// Runs the claim's grid(s) and mode(s) and reduces them to one
    /// number.
    pub measure: fn() -> Result<f64, String>,
    /// `None` for a projection: reported, not held.
    pub tolerance: Option<Tolerance>,
}

/// One sweep point, run as the figure sweep engine runs it.
fn point(cfg: RunConfig) -> Result<RunResult, String> {
    run_balanced(&cfg).map(|(r, _)| r)
}

/// Simulated seconds of one sweep point.
fn secs(cfg: RunConfig) -> Result<f64, String> {
    point(cfg).map(|r| r.runtime.as_secs_f64())
}

/// Runtime of `mode` over runtime of `base` at one grid.
fn ratio(grid: (usize, usize, usize), mode: ExecMode, base: ExecMode) -> Result<f64, String> {
    Ok(secs(RunConfig::sweep(grid, mode))? / secs(RunConfig::sweep(grid, base))?)
}

/// Fig 12's kink: `mode`'s runtime slope past 37 M zones (y 360 → 400)
/// over its slope before (y 200 → 280), at x = z = 320.
fn slope_ratio(mode: ExecMode) -> Result<f64, String> {
    let t = |y| secs(RunConfig::sweep((320, y, 320), mode));
    let pre = (t(280)? - t(200)?) / 80.0;
    let post = (t(400)? - t(360)?) / 40.0;
    Ok(post / pre)
}

/// Fig 18's best case, 600×480×160, run in `mode` on `node`.
fn fig18_top(node: NodeConfig, mode: ExecMode) -> Result<RunResult, String> {
    point(RunConfig {
        node,
        ..RunConfig::sweep((600, 480, 160), mode)
    })
}

/// Heterogeneous over Default on `node` at Fig 18's best case.
fn hetero_over_default(node: NodeConfig) -> Result<f64, String> {
    let secs = |mode| fig18_top(node.clone(), mode).map(|r| r.runtime.as_secs_f64());
    Ok(secs(ExecMode::hetero())? / secs(ExecMode::Default)?)
}

/// The §5.1 ablation: Hetero at Fig 18's best case with the compiler
/// bug fixed, and with it active.
fn lambda_fixed_and_buggy() -> Result<(RunResult, RunResult), String> {
    let hetero = |node| fig18_top(node, ExecMode::hetero());
    Ok((
        hetero(NodeConfig::rzhasgpu_fixed_compiler())?,
        hetero(NodeConfig::rzhasgpu())?,
    ))
}

/// The balanced heterogeneous run over the same point at a fixed CPU
/// share.
fn balanced_over_fixed(grid: (usize, usize, usize), fraction: f64) -> Result<f64, String> {
    let cfg = RunConfig::sweep(grid, ExecMode::hetero());
    let fixed = run_with_fraction(&cfg, fraction)?.runtime.as_secs_f64();
    Ok(secs(cfg)? / fixed)
}

/// The most halo neighbours any rank of `decomp` has.
fn max_neighbours(decomp: Decomposition) -> f64 {
    HaloPlan::build(&decomp).max_neighbors() as f64
}

/// The scenario study's throughput (zone-cycles per virtual second) of
/// `s` in `mode`.
fn scenario_mzps(s: Scenario, mode: ExecMode) -> Result<f64, String> {
    let cfg = crate::scenario_cfg(s, mode);
    let r = hsim_core::run(&cfg)?;
    Ok(r.zones as f64 * r.cycles as f64 / r.runtime.as_secs_f64() / 1e6)
}

/// The table, in the paper's order: the figures, then the ablations.
pub static CLAIMS: &[Claim] = &[
    Claim {
        id: "fig12_default_kink",
        source: "Fig 12",
        statement: "Default hits a memory threshold at ≈ 37 M zones (9.25 M per rank): post-/pre-kink runtime slope",
        measure: || slope_ratio(ExecMode::Default),
        tolerance: Some(Above(1.3)),
    },
    Claim {
        id: "fig12_mps_linear",
        source: "Fig 12",
        statement: "the 16-rank modes keep scaling linearly past it: MPS post-/pre-kink runtime slope",
        measure: || slope_ratio(ExecMode::mps4()),
        tolerance: Some(Below(1.15)),
    },
    Claim {
        id: "fig12_hetero_small_y",
        source: "Fig 12",
        statement: "at small y the CPU ranks cannot take a small enough share (12 one-plane slabs): Hetero / Default at 320×40×320",
        measure: || ratio((320, 40, 320), ExecMode::hetero(), ExecMode::Default),
        tolerance: Some(Above(1.05)),
    },
    Claim {
        id: "fig13_hetero_cpu_bound",
        source: "Fig 13",
        statement: "y is too small to carve small enough CPU slabs, so Hetero is slower: Hetero / Default at 250×240×320",
        measure: || ratio((250, 240, 320), ExecMode::hetero(), ExecMode::Default),
        tolerance: Some(Above(1.02)),
    },
    Claim {
        id: "fig13_mps_small_x",
        source: "Fig 13",
        statement: "MPS overlaps kernels from different ranks at small x and wins there: MPS / Default at 50×240×320",
        measure: || ratio((50, 240, 320), ExecMode::mps4(), ExecMode::Default),
        tolerance: Some(Below(0.9)),
    },
    Claim {
        id: "fig14_hetero_loses",
        source: "Fig 14",
        statement: "y still too small, Hetero longer: Hetero / Default at 500×240×160",
        measure: || ratio((500, 240, 160), ExecMode::hetero(), ExecMode::Default),
        tolerance: Some(Above(1.0)),
    },
    Claim {
        id: "fig14_mps_similar",
        source: "Fig 14",
        statement: "\"One MPI process per GPU and the MPS mode perform similarly\": MPS / Default at 500×240×160",
        measure: || ratio((500, 240, 160), ExecMode::mps4(), ExecMode::Default),
        tolerance: Some(Within(0.9, 1.15)),
    },
    Claim {
        id: "fig16_mps_loses",
        source: "Fig 16",
        statement: "\"the MPS mode is unable to overlap kernels ... therefore the MPS performs worse\": MPS / Default at 525×360×160",
        measure: || ratio((525, 360, 160), ExecMode::mps4(), ExecMode::Default),
        tolerance: Some(Above(1.0)),
    },
    Claim {
        id: "fig17_mps_beats_default",
        source: "Fig 17",
        statement: "MPS best at small x, Default \"hampered\": MPS / Default at 120×480×320",
        measure: || ratio((120, 480, 320), ExecMode::mps4(), ExecMode::Default),
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "fig17_hetero_beats_default",
        source: "Fig 17",
        statement: "Hetero beats the hampered Default: Hetero / Default at 120×480×320",
        measure: || ratio((120, 480, 320), ExecMode::hetero(), ExecMode::Default),
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "fig17_mps_matches_hetero",
        source: "Fig 17",
        statement: "Hetero \"performs almost as well as the MPS mode\": MPS / Hetero at 120×480×320",
        measure: || ratio((120, 480, 320), ExecMode::mps4(), ExecMode::hetero()),
        tolerance: Some(AtMost(1.02)),
    },
    Claim {
        id: "fig18_hetero_tracks_default",
        source: "Fig 18",
        statement: "before the memory bound Hetero tracks Default: Hetero / Default at 300×480×160",
        measure: || ratio((300, 480, 160), ExecMode::hetero(), ExecMode::Default),
        tolerance: Some(Within(0.93, 1.05)),
    },
    Claim {
        id: "fig18_gain",
        source: "Fig 18",
        statement: "past it Hetero scales linearly, \"resulting in up to 18% performance gain\": 1 - Hetero / Default at 600×480×160",
        measure: || Ok(1.0 - hetero_over_default(NodeConfig::rzhasgpu())?),
        tolerance: Some(Within(0.10, 0.25)),
    },
    Claim {
        id: "fig18_cpu_share",
        source: "Fig 18, §5.1",
        statement: "the compiler bug leaves \"1–2% of work to the CPU cores\": Hetero's balanced CPU share at 600×480×160",
        measure: || Ok(fig18_top(NodeConfig::rzhasgpu(), ExecMode::hetero())?.cpu_fraction),
        tolerance: Some(Within(0.008, 0.035)),
    },
    Claim {
        id: "fig1_cpuonly_not_competitive",
        source: "Fig 1",
        statement: "16 CPU cores are several times slower than 4 GPUs: CpuOnly / Default at 160×240×160",
        measure: || ratio((160, 240, 160), ExecMode::CpuOnly, ExecMode::Default),
        tolerance: Some(Above(3.0)),
    },
    Claim {
        id: "gpu_direct_never_hurts",
        source: "§5.3",
        statement: "GPU-direct halos skip the two host staging legs: Hetero with over without it at 320×240×160",
        measure: || {
            let staged = RunConfig::sweep((320, 240, 160), ExecMode::hetero());
            let direct = RunConfig {
                gpu_direct: true,
                ..staged.clone()
            };
            Ok(secs(direct)? / secs(staged)?)
        },
        tolerance: Some(AtMost(1.0)),
    },
    Claim {
        id: "lambda_fix_raises_cpu_share",
        source: "§5.1",
        statement: "\"once the compiler issue is resolved, we expect to be able to assign significantly more work to the CPU cores\": fixed / buggy CPU share at 600×480×160",
        measure: || {
            let (fixed, buggy) = lambda_fixed_and_buggy()?;
            Ok(fixed.cpu_fraction / buggy.cpu_fraction)
        },
        tolerance: Some(Above(1.0)),
    },
    Claim {
        id: "lambda_fix_lowers_runtime",
        source: "§5.1",
        statement: "and the cooperative run gets faster: fixed / buggy Hetero runtime at 600×480×160",
        measure: || {
            let (fixed, buggy) = lambda_fixed_and_buggy()?;
            Ok(fixed.runtime.as_secs_f64() / buggy.runtime.as_secs_f64())
        },
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "balancer_beats_overloaded_split",
        source: "§6.2",
        statement: "the measured-feedback balancer beats overloading the CPUs: balanced / fixed 15% split at 450×480×160",
        measure: || balanced_over_fixed((450, 480, 160), 0.15),
        tolerance: Some(AtMost(1.0)),
    },
    Claim {
        id: "balancer_beats_starved_split",
        source: "§6.2",
        statement: "and starving them (0.5% realizes the one-plane floor, where the balancer lands): balanced / fixed 0.5% split at 450×480×160",
        measure: || balanced_over_fixed((450, 480, 160), 0.005),
        tolerance: Some(AtMost(1.0)),
    },
    Claim {
        id: "mps2_small_x",
        source: "MPS ablation",
        statement: "overlap pays at small x with 2 residents per GPU: MPS-2 / Default at 80×240×320",
        measure: || ratio((80, 240, 320), ExecMode::Mps { per_gpu: 2 }, ExecMode::Default),
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "mps4_small_x",
        source: "MPS ablation",
        statement: "and with the paper's 4: MPS-4 / Default at 80×240×320",
        measure: || ratio((80, 240, 320), ExecMode::Mps { per_gpu: 4 }, ExecMode::Default),
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "mps2_beats_mps4_large_x",
        source: "MPS ablation",
        statement: "past the kink 2 residents beat 4 (less launch overhead and co-residency contention): MPS-2 / MPS-4 at 600×240×320",
        measure: || ratio((600, 240, 320), ExecMode::Mps { per_gpu: 2 }, ExecMode::Mps { per_gpu: 4 }),
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "mps8_refused",
        source: "MPS ablation",
        statement: "8 residents per GPU need 32 cores on a 16-core node, so the run is refused (1) rather than run (0), at 80×240×320",
        measure: || {
            let mps8 = RunConfig::sweep((80, 240, 320), ExecMode::Mps { per_gpu: 8 });
            Ok(if secs(mps8).is_err() { 1.0 } else { 0.0 })
        },
        tolerance: Some(Above(0.0)),
    },
    Claim {
        id: "fig9_square_neighbours",
        source: "§6.1, Fig 9",
        statement: "on one node, halo neighbours grow quickly from 4 to 16 'square' domains: max halo neighbours, square 16 / square 4, at 320×480×160",
        measure: || {
            let grid = GlobalGrid::new(320, 480, 160);
            let square4 = nested(grid, Blocks::Pinned(4), Pieces::Gpu(1))?;
            let square16 = block_decomp(grid, 16, 1);
            Ok(max_neighbours(square16) / max_neighbours(square4))
        },
        tolerance: Some(Above(1.0)),
    },
    Claim {
        id: "hierarchical_neighbours",
        source: "§6.1, Fig 10",
        statement: "subdividing each GPU block in a single dimension keeps the neighbour count low: max halo neighbours, hierarchical 4×4 / square 16, at 320×480×160",
        measure: || {
            let grid = GlobalGrid::new(320, 480, 160);
            let hier = max_neighbours(nested(grid, Blocks::Pinned(4), Pieces::Gpu(4))?);
            Ok(hier / max_neighbours(block_decomp(grid, 16, 1)))
        },
        tolerance: Some(AtMost(1.0)),
    },
    Claim {
        id: "sod_hetero_below_cpuonly",
        source: "Figs 15–17, scenarios",
        statement: "below the break-even kernel size the GPU path costs more than it saves: Hetero / CpuOnly Mz/s on the scenario study's 128×8×8 Sod tube",
        measure: || {
            let sod = |mode| scenario_mzps(Scenario::Sod, mode);
            Ok(sod(ExecMode::hetero())? / sod(ExecMode::CpuOnly)?)
        },
        tolerance: Some(Below(1.0)),
    },
    Claim {
        id: "sierra_projection_rzhasgpu",
        source: "§2, §6.2",
        statement: "the cooperative approach on the measured node: Hetero / Default at 600×480×160 on RZHasGPU",
        measure: || hetero_over_default(NodeConfig::rzhasgpu()),
        tolerance: None,
    },
    Claim {
        id: "sierra_projection_sierra_ea",
        source: "§2, §6.2",
        statement: "expected to keep paying off as hardware matures: Hetero / Default at 600×480×160 on a Sierra-EA node",
        measure: || hetero_over_default(NodeConfig::sierra_ea()),
        tolerance: None,
    },
];

/// One claim, measured.
pub struct Outcome {
    pub claim: &'static Claim,
    /// The value, or why a run it needs failed.
    pub value: Result<f64, String>,
}

impl Outcome {
    fn of(claim: &'static Claim) -> Self {
        Outcome {
            claim,
            value: (claim.measure)(),
        }
    }

    /// Whether the value lies in the claim's tolerance: `None` for a
    /// projection, `Some(false)` when a run failed.
    pub fn holds(&self) -> Option<bool> {
        let tolerance = self.claim.tolerance?;
        Some(self.value.as_ref().is_ok_and(|&v| tolerance.admits(v)))
    }
}

/// One line: id, source, value, tolerance, verdict, statement.
impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.claim;
        write!(f, "{} ({}): ", c.id, c.source)?;
        match &self.value {
            Ok(v) => write!(f, "{v:.4}")?,
            Err(e) => write!(f, "run failed: {e}")?,
        }
        match (c.tolerance, self.holds()) {
            (Some(t), Some(true)) => write!(f, " (want {t}): holds")?,
            (Some(t), _) => write!(f, " (want {t}): BROKEN")?,
            (None, _) => write!(f, " (a projection)")?,
        }
        write!(f, " — {}", c.statement)
    }
}

/// Measure every claim, in table order.
pub fn check_all() -> Vec<Outcome> {
    CLAIMS.iter().map(Outcome::of).collect()
}

/// Measure the claims named by `ids`, in that order. Panics on an id
/// the table does not hold.
pub fn check(ids: &[&str]) -> Vec<Outcome> {
    ids.iter()
        .map(|&id| {
            let claim = CLAIMS.iter().find(|c| c.id == id);
            Outcome::of(claim.unwrap_or_else(|| panic!("no claim `{id}`")))
        })
        .collect()
}

/// The `claims.*` result rows: each measured value, and whether each
/// held claim holds.
pub fn rows(outcomes: &[Outcome]) -> Vec<Row> {
    let mut out = Vec::new();
    for o in outcomes {
        let at = format!("claims.{}", o.claim.id);
        if let Ok(v) = o.value {
            out.push(row(&at, v));
        }
        out.extend(o.holds().map(|h| row(format!("{at}.holds"), h)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances_read_as_the_asserts_they_replaced() {
        assert!(Above(1.3).admits(1.31) && !Above(1.3).admits(1.3));
        assert!(AtMost(1.0).admits(1.0) && !Below(1.0).admits(1.0));
        assert!(AtLeast(1.0).admits(1.0) && !AtLeast(1.0).admits(0.99));
        assert!(Within(0.9, 1.15).admits(0.9) && !Within(0.9, 1.15).admits(1.15));
        assert!(!Above(0.0).admits(f64::NAN) && !AtMost(1.0).admits(f64::NAN));
        assert!(!AtLeast(f64::NAN).admits(2.0));
        let shown: Vec<String> = [
            Above(1.3),
            Below(1.15),
            AtLeast(0.5),
            AtMost(1.02),
            Within(0.1, 0.25),
        ]
        .iter()
        .map(Tolerance::to_string)
        .collect();
        assert_eq!(shown, ["> 1.3", "< 1.15", "≥ 0.5", "≤ 1.02", "[0.1, 0.25)"]);
    }

    #[test]
    fn ids_are_distinct_single_key_segments() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        assert!(ids.iter().all(|id| !id.is_empty() && !id.contains('.')));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len());
    }

    #[test]
    fn a_failed_run_breaks_its_claim_and_a_projection_is_never_held() {
        let held = &CLAIMS[0];
        let failed = Outcome {
            claim: held,
            value: Err("no such grid".into()),
        };
        assert_eq!(failed.holds(), Some(false));
        assert_eq!(
            rows(&[failed]),
            [row("claims.fig12_default_kink.holds", false)]
        );
        let projection = CLAIMS.iter().find(|c| c.tolerance.is_none()).unwrap();
        let reported = Outcome {
            claim: projection,
            value: Ok(1.08),
        };
        assert_eq!(reported.holds(), None);
        assert_eq!(rows(&[reported]).len(), 1);
    }
}
