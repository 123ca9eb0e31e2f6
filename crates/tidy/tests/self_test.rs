//! Fixture-based self-tests: each bad fixture must produce exactly
//! the expected (lint, path, line) set, the good fixture must be
//! silent, and the live workspace must scan clean.

use std::path::PathBuf;

use hsim_tidy::check_dir;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Scan one fixture and return its findings as (lint, path, line).
fn scan(name: &str) -> Vec<(String, String, usize)> {
    let report = check_dir(&fixture(name)).expect("fixture scans");
    report
        .violations
        .into_iter()
        .map(|f| (f.lint.to_string(), f.path, f.line))
        .collect()
}

fn expect(name: &str, want: &[(&str, &str, usize)]) {
    let got = scan(name);
    let want: Vec<(String, String, usize)> = want
        .iter()
        .map(|(l, p, n)| (l.to_string(), p.to_string(), *n))
        .collect();
    assert_eq!(got, want, "fixture `{name}` findings mismatch");
}

#[test]
fn unordered_iter_fixture_is_flagged() {
    expect(
        "bad/unordered",
        &[
            ("unordered-iter", "crates/telemetry/src/trace.rs", 1),
            ("unordered-iter", "crates/telemetry/src/trace.rs", 3),
        ],
    );
}

#[test]
fn telemetry_naming_fixture_is_flagged() {
    expect(
        "bad/naming",
        &[
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 10),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 11),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 12),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 20),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 21),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 22),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 23),
        ],
    );
}

#[test]
fn tile_bounds_fixture_is_flagged() {
    // Only the per-element `tgt[i]`/`row[i]` accesses inside the first
    // run_tiles body, the `rho[...]` accesses inside the second (one
    // smuggled through a captured closure) and the `cs[...]` access
    // inside the run_tiles_min body are findings; the range re-borrows
    // and the indexing outside the kernel calls are fine.
    expect(
        "bad/tile_bounds",
        &[
            ("tile-bounds", "crates/hydro/src/fused.rs", 8),
            ("tile-bounds", "crates/hydro/src/fused.rs", 8),
            ("tile-bounds", "crates/hydro/src/fused.rs", 21),
            ("tile-bounds", "crates/hydro/src/fused.rs", 24),
            ("tile-bounds", "crates/hydro/src/fused.rs", 35),
        ],
    );
}

#[test]
fn allow_directive_misuse_is_flagged() {
    expect(
        "bad/allows",
        &[
            ("bad-allow", "crates/hydro/src/cycle.rs", 1),
            ("bad-allow", "crates/hydro/src/cycle.rs", 2),
            ("unused-allow", "crates/hydro/src/cycle.rs", 3),
        ],
    );
}

#[test]
fn a_crate_outside_the_workspace_lint_table_is_flagged() {
    // Its `unsafe` block escapes the table's `unsafe_code = "deny"`.
    expect("bad/lints_optin", &[("workspace-lints", "Cargo.toml", 1)]);
}

#[test]
fn good_fixture_is_silent() {
    let got = scan("good");
    assert!(got.is_empty(), "good fixture produced findings: {got:?}");
    // And the scan actually visited the files (allows were honored,
    // not the whole tree skipped).
    let report = check_dir(&fixture("good")).expect("fixture scans");
    assert_eq!(report.files_scanned, 8);
}

#[test]
fn live_workspace_scans_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_dir(&root).expect("workspace scans");
    let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        msgs.is_empty(),
        "live workspace has tidy violations:\n{}",
        msgs.join("\n")
    );
    assert!(
        report.unresolved_roots.is_empty(),
        "panic-reach roots that no longer name any function: {:?}",
        report.unresolved_roots
    );
    assert!(
        report.unresolved_cost_names.is_empty(),
        "cost-charge table names that no longer name any function: {:?}",
        report.unresolved_cost_names
    );
    assert!(
        report.unmatched_emission_fragments.is_empty(),
        "emission-path fragments that match no workspace file: {:?}",
        report.unmatched_emission_fragments
    );
    assert!(
        report.files_scanned > 100,
        "workspace scan looks truncated: {} files",
        report.files_scanned
    );
}
