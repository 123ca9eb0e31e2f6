//! Benchmark-harness support: figure sweep execution and terminal
//! plotting shared by the `figures` binary and the Criterion benches.

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
pub use sweep::{paper_modes, run_figure, run_figure_jobs, FigureData, Series, SkippedPoint};
