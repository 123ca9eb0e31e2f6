//! Regenerate every evaluation figure of the paper (12–18): write CSV
//! series into `target/figures/` and print ASCII charts.
//!
//! Usage: `cargo run -p hsim-bench --bin figures [--release] [fig12 ...]
//!         [--jobs N] [--trace-json PATH] [--metrics-json PATH]`
//!
//! `--jobs N` bounds how many sweep simulations run concurrently
//! (default: the host's available parallelism). Every job count
//! produces byte-identical CSV/markdown output — the simulations are
//! deterministic virtual-time runs and results are assembled in a
//! fixed order.
//!
//! The telemetry flags instrument one Fig-18 Heterogeneous reference
//! run (x=300, y=480, z=160) and write its Chrome trace / metrics
//! JSON alongside the sweeps.

use std::fs;
use std::path::Path;

use hsim_bench::{ascii_chart, paper_modes, run_figure_jobs, take_count, take_flag};
use hsim_core::figures;
use hsim_core::{run_balanced, ExecMode, RunConfig};

/// Run the instrumented Fig-18 Heterogeneous reference point and
/// write whichever telemetry outputs were requested.
fn reference_run(trace_json: Option<&str>, metrics_json: Option<&str>) {
    let cfg = RunConfig {
        telemetry: true,
        ..RunConfig::sweep((300, 480, 160), ExecMode::hetero())
    };
    eprintln!("running instrumented fig18 reference point (hetero, 300x480x160)...");
    let (result, _lb) = run_balanced(&cfg).expect("fig18 reference run");
    let summary = result.telemetry.as_ref().expect("telemetry enabled");
    if let Some(path) = trace_json {
        fs::write(path, summary.to_chrome_json()).expect("write trace json");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = metrics_json {
        fs::write(path, summary.to_metrics_json(&result.kernels)).expect("write metrics json");
        eprintln!("wrote metrics to {path}");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_json = take_flag(&mut args, "--trace-json");
    let metrics_json = take_flag(&mut args, "--metrics-json");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = take_count(&mut args, "--jobs", host_cores);
    if trace_json.is_some() || metrics_json.is_some() {
        reference_run(trace_json.as_deref(), metrics_json.as_deref());
        if args.is_empty() {
            return;
        }
    }
    let out_dir = Path::new("target/figures");
    fs::create_dir_all(out_dir).expect("create target/figures");
    let modes = paper_modes();
    for spec in figures::all_figures() {
        if !args.is_empty() && !args.iter().any(|a| a == spec.id) {
            continue;
        }
        eprintln!("running {} ({}, {jobs} job(s))...", spec.id, spec.caption);
        let data = run_figure_jobs(&spec, &modes, jobs);
        let csv_path = out_dir.join(format!("{}.csv", spec.id));
        fs::write(&csv_path, data.to_csv()).expect("write csv");
        let md_path = out_dir.join(format!("{}.md", spec.id));
        fs::write(&md_path, data.to_markdown()).expect("write markdown");
        println!("\n=== {} — {} ===", spec.id, spec.caption);
        println!("{}", ascii_chart(&data.chart_series(), 72, 20));
        let footer = data.skip_footer();
        if !footer.is_empty() {
            print!("{footer}");
        }
        println!("(series written to {})", csv_path.display());
    }
}
