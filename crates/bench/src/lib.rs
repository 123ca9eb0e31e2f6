//! Benchmark-harness support: figure sweep execution, terminal
//! plotting and argument helpers shared by the `figures` and `perf`
//! binaries and the Criterion benches.

#![forbid(unsafe_code)]

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
/// code 2 when its value is not a number.
pub fn take_count(args: &mut Vec<String>, flag: &str, default: usize) -> usize {
    take_flag(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs a positive integer, got {v:?}");
            std::process::exit(2);
        })
    })
}
