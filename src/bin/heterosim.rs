//! Command-line driver for the cooperative heterogeneous runner.
//!
//! `heterosim --help` prints the synopsis. The options that describe
//! the run are the keys of the run-spec table
//! (`heterosim::core::spec::KEYS`, documented under "Configuring a
//! run" in the README), spelled `--dash-key VALUE`; this binary adds
//! only what concerns its own output and driving:
//!
//! * `--no-balance` skips the §6.2 load balancer and runs the mode's
//!   static split once. (A run with `--faults` or `--rebalance` is one
//!   static run regardless: `run_balanced` owns that rule.)
//! * `--csv` prints the schema-versioned CSV row instead of the report.
//! * `--trace-json PATH` / `--metrics-json PATH` collect telemetry and
//!   write the Chrome trace / the metrics document.
//!
//! The `serve` subcommand starts the long-lived simulation server
//! (HTTP over pure-std TCP, content-hash result cache, bounded
//! admission, live `/metrics`).
//!
//! Examples:
//! ```sh
//! cargo run --release --bin heterosim -- --mode hetero --grid 600,480,160
//! cargo run --release --bin heterosim -- --mode mps --grid 320,240,160 --trace
//! ```

use heterosim::core::spec::{RunSpec, KEYS};
use heterosim::core::{calib, run_balanced, runner, ExecMode, RunConfig, RunResult};
use heterosim::serve::{http, Server, ServerConfig};

const SERVE_USAGE: &str = "heterosim serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
    \x20                      [--deadline-ms N] [--tile TY,TZ] [--max-requests N]";

fn usage() -> ! {
    let own = [
        "--no-balance",
        "--csv",
        "--trace-json PATH",
        "--metrics-json PATH",
    ];
    let keys = KEYS
        .iter()
        .map(|k| format!("{} {}", k.flag(), k.value.unwrap_or("")));
    eprintln!("usage: heterosim [OPTION...]");
    for opt in keys.chain(own.map(String::from)) {
        eprintln!("         {}", opt.trim_end());
    }
    eprintln!("       {SERVE_USAGE}");
    std::process::exit(2)
}

fn serve_usage() -> ! {
    eprintln!("usage: {SERVE_USAGE}");
    std::process::exit(2)
}

/// `heterosim serve ...`: run the simulation server until killed (or
/// until `--max-requests` connections, for CI smoke tests).
fn serve_main(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut cfg = ServerConfig::default();
    let mut max_requests: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| serve_usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| serve_usage()),
            "--queue" => cfg.queue_capacity = value().parse().unwrap_or_else(|_| serve_usage()),
            "--deadline-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| serve_usage());
                cfg.default_deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--tile" => {
                cfg.tile = Some(calib::parse_tile_spec(&value()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    serve_usage()
                }));
            }
            "--max-requests" => {
                max_requests = Some(value().parse().unwrap_or_else(|_| serve_usage()))
            }
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown serve argument: {other}");
                serve_usage()
            }
        }
    }
    let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let server = Server::new(cfg);
    eprintln!(
        "serving on http://{} (tile {}; endpoints: /healthz /metrics /run /figure/<id>)",
        listener.local_addr().map(|a| a.to_string()).unwrap_or(addr),
        calib::tile_spec(server.tile()),
    );
    if let Err(e) = http::serve(&server, listener, max_requests) {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    }

    let mut spec = RunSpec::new(RunConfig::sweep((320, 480, 160), ExecMode::hetero()));
    let mut csv = false;
    let mut no_balance = false;
    let mut trace_json: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--no-balance" => no_balance = true,
            "--trace-json" => trace_json = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics-json" => metrics_json = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => match spec.set_arg(other, || it.next().cloned()) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown argument: {other}");
                    usage()
                }
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
        }
    }
    let mut cfg = spec.finish();
    cfg.telemetry = trace_json.is_some() || metrics_json.is_some();

    let run = if no_balance {
        runner::run(&cfg).map(|r| (r, Vec::new()))
    } else {
        run_balanced(&cfg).map(|(r, lb)| (r, lb.history))
    };
    let (result, lb_history) = run.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    });

    if let Some(summary) = &result.telemetry {
        if let Some(path) = &trace_json {
            if let Err(e) = std::fs::write(path, summary.to_chrome_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote Chrome trace to {path} (load in ui.perfetto.dev)");
        }
        if let Some(path) = &metrics_json {
            if let Err(e) = std::fs::write(path, summary.to_metrics_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote metrics to {path}");
        }
    }

    if csv {
        println!("{}", RunResult::csv_header());
        println!("{}", result.csv_row());
        return;
    }

    println!("mode:            {}", result.mode_label);
    println!(
        "grid:            {} x {} x {} = {} zones",
        cfg.grid.0, cfg.grid.1, cfg.grid.2, result.zones
    );
    println!("node:            {}", cfg.node.name);
    println!("cycles:          {}", result.cycles);
    println!("ranks:           {}", result.ranks.len());
    println!(
        "runtime:         {:.6} simulated seconds",
        result.runtime.as_secs_f64()
    );
    if result.cpu_fraction > 0.0 {
        let (label, history) = if result.balance_history.is_empty() {
            ("balancer", &lb_history)
        } else {
            ("rebalancer", &result.balance_history)
        };
        println!(
            "CPU share:       {:.2}% ({label}: {:?})",
            result.cpu_fraction * 100.0,
            history
                .iter()
                .map(|f| (f * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        );
    }
    println!("kernel launches: {}", result.total_launches());
    println!("MPI bytes:       {}", result.total_bytes_sent());
    if let Some(sc) = &result.scenario {
        match sc.error {
            Some(err) => println!("scenario:        {} ({} = {err:.6})", sc.name, sc.metric),
            None => println!("scenario:        {}", sc.name),
        }
    }
    if let Some(p) = &result.particles {
        println!(
            "particles:       {} live, {} migrations, momentum [{:+.4e} {:+.4e} {:+.4e}]",
            p.count, p.migrated, p.momentum[0], p.momentum[1], p.momentum[2]
        );
    }
    if matches!(cfg.mode, ExecMode::Heterogeneous { .. }) {
        // Context: what the other modes would cost.
        for other in [ExecMode::Default, ExecMode::mps4()] {
            let other_cfg = RunConfig {
                mode: other,
                trace: false,
                faults: None,
                rebalance: None,
                ..cfg.clone()
            };
            if let Ok(r) = runner::run(&other_cfg) {
                println!(
                    "vs {:22} {:.6} s ({:+.1}%)",
                    r.mode_label,
                    r.runtime.as_secs_f64(),
                    (result.runtime.as_secs_f64() / r.runtime.as_secs_f64() - 1.0) * 100.0
                );
            }
        }
    }
    println!();
    println!("{}", result.breakdown_table());
    if let Some(gantt) = cfg.trace.then(|| result.timeline(96)).flatten() {
        println!("timeline (G = GPU-driving rank busy, C = CPU rank busy, . = waiting):");
        println!("{gantt}");
    }
}
