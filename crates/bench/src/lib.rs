//! Benchmark-harness support shared by the `figures` and `perf`
//! binaries and the root tests: figure sweep execution, terminal
//! plotting, the paper's claims table ([`claims`]), the virtual-time
//! studies and argument helpers.

#![forbid(unsafe_code)]

pub mod claims;
pub mod plot;
pub mod rebalance;
pub mod results;
pub mod roofline;
pub mod serveload;
pub mod sweep;

pub use plot::ascii_chart;
pub use rebalance::{run_rebalance_report, RebalanceReport};
pub use results::{row, Results, Row, Value};
pub use serveload::{run_load, ServeLoadReport};
pub use sweep::{paper_modes, run_figure_jobs, FigureData, Series, SkippedPoint};

use hsim_core::{ExecMode, RunConfig, Scenario};
use hsim_particles::ParticlesConfig;
use hsim_raja::Fidelity;

/// Tracers in every scenario study run: enough to exercise cross-rank
/// migration on the study's grids.
pub const SCENARIO_PARTICLES: u64 = 128;

/// Cycles per scenario study run. Full fidelity, so this bounds the
/// study's cost; the analytic metrics are already nonzero here.
const SCENARIO_CYCLES: u64 = 4;

/// The scenario study's run of `s` in `mode` (`perf scenarios`, and
/// the Sod claim): full fidelity with the tracer phase on, on a fixed
/// grid per kernel-size regime — the thin small-kernel Sod tube, the
/// mid-size Sedov reference blast, the near-cubic Noh implosion, the
/// large-kernel Taylor–Green vortex.
pub fn scenario_cfg(s: Scenario, mode: ExecMode) -> RunConfig {
    let grid = match s {
        Scenario::Sedov => (40, 36, 32),
        Scenario::Sod => (128, 8, 8),
        Scenario::Noh => (48, 44, 40),
        Scenario::TaylorGreen => (36, 56, 64),
    };
    let mut cfg = RunConfig::sweep(grid, mode);
    cfg.problem = s.problem();
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = SCENARIO_CYCLES;
    cfg.particles = Some(ParticlesConfig {
        count: SCENARIO_PARTICLES,
        ..ParticlesConfig::default()
    });
    cfg
}

/// Remove `flag VALUE` from `args` and return the value; a flag with
/// no value after it ends the process with exit code 2.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// [`take_flag`] for a count: `default` when the flag is absent, exit
/// code 2 when its value is not a positive integer.
pub fn take_count(args: &mut Vec<String>, flag: &str, default: usize) -> usize {
    take_flag(args, flag).map_or(default, |v| {
        parse_count(flag, &v).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    })
}

/// A count flag's value: a positive integer, or why it is not one.
pub fn parse_count(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn a_count_is_a_positive_integer() {
        assert_eq!(parse_count("--jobs", "4"), Ok(4));
        let zero = parse_count("--jobs", "0").unwrap_err();
        assert_eq!(zero, "--jobs needs a positive integer, got \"0\"");
        for bad in ["-1", "four", "", "2.5"] {
            assert!(parse_count("--host-threads", bad).is_err(), "{bad:?}");
        }
    }
}
