//! `hsim-tidy` — run the workspace invariant linter.
//!
//! Usage:
//!   cargo run -p hsim-tidy                      # scan the workspace root
//!   cargo run -p hsim-tidy -- <path>            # scan an arbitrary tree
//!   cargo run -p hsim-tidy -- --list            # print the lint registry
//!   cargo run -p hsim-tidy -- --budget-ms 10000 # fail if the scan runs long
//!
//! Exit status is non-zero when any violation is found, so CI can use
//! it as a blocking gate. `--budget-ms` makes scan *time* part of the
//! gate: the deep analyses are advertised as cheap enough to block on,
//! and this keeps that claim honest as the workspace grows.

// The scan-time budget is real elapsed time by design.
#![allow(clippy::disallowed_types)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list") {
        for (name, desc) in hsim_tidy::lints::LINTS {
            println!("{name:18} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let mut budget_ms: Option<u64> = None;
    let mut root_arg: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--budget-ms" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => {
                    eprintln!("tidy: --budget-ms needs an integer millisecond value");
                    return ExitCode::FAILURE;
                }
            }
        } else if root_arg.is_none() {
            root_arg = Some(a);
        } else {
            eprintln!("tidy: unexpected argument `{a}`");
            return ExitCode::FAILURE;
        }
    }

    let root = match root_arg {
        Some(p) => PathBuf::from(p),
        // The binary lives at crates/tidy; the workspace root is two up.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = root.canonicalize().unwrap_or(root);

    let t0 = Instant::now();
    let report = match hsim_tidy::check_dir(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tidy: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = t0.elapsed().as_millis() as u64;

    for v in &report.violations {
        println!("{v}");
    }
    eprintln!(
        "tidy: {} files scanned, {} violation(s), {elapsed_ms} ms",
        report.files_scanned,
        report.violations.len()
    );
    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!("tidy: scan blew its time budget ({elapsed_ms} ms > {budget} ms)");
            return ExitCode::FAILURE;
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
