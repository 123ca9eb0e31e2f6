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
fn wall_clock_fixture_is_flagged() {
    expect(
        "bad/wall_clock",
        &[
            ("wall-clock", "crates/hydro/src/clock.rs", 1),
            ("wall-clock", "crates/hydro/src/clock.rs", 4),
        ],
    );
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
fn safety_comment_fixture_is_flagged() {
    expect(
        "bad/safety",
        &[("safety-comment", "crates/raja/src/slots.rs", 7)],
    );
}

#[test]
fn stray_thread_fixture_is_flagged() {
    // A free spawn, and the two ways to a scoped one: the scope
    // itself (whatever its closure calls the handle) and the builder.
    expect(
        "bad/threads",
        &[
            ("stray-thread", "crates/core/src/fanout.rs", 4),
            ("stray-thread", "crates/core/src/fanout.rs", 5),
            ("stray-thread", "crates/core/src/sweep.rs", 4),
        ],
    );
}

#[test]
fn telemetry_naming_fixture_is_flagged() {
    expect(
        "bad/naming",
        &[
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 11),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 12),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 13),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 14),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 22),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 23),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 24),
            ("telemetry-naming", "crates/telemetry/src/metrics.rs", 25),
        ],
    );
}

#[test]
fn tile_bounds_fixture_is_flagged() {
    // Only the per-element `tgt[i]`/`row[i]` accesses inside the first
    // run_tiles body and the `rho[...]` accesses inside the second (one
    // smuggled through a captured closure) are findings; the range
    // re-borrows and the indexing outside the kernel calls are fine.
    expect(
        "bad/tile_bounds",
        &[
            ("tile-bounds", "crates/hydro/src/fused.rs", 8),
            ("tile-bounds", "crates/hydro/src/fused.rs", 8),
            ("tile-bounds", "crates/hydro/src/fused.rs", 21),
            ("tile-bounds", "crates/hydro/src/fused.rs", 24),
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
fn pure_crate_without_forbid_is_flagged() {
    expect("bad/hygiene_pure", &[("unsafe-crate", "src/lib.rs", 1)]);
}

#[test]
fn unsafe_crate_without_deny_coverage_is_flagged() {
    expect(
        "bad/hygiene_unsafe",
        &[
            ("unsafe-crate", "Cargo.toml", 1),
            ("unsafe-crate", "src/lib.rs", 1),
        ],
    );
}

#[test]
fn good_fixture_is_silent() {
    let got = scan("good");
    assert!(got.is_empty(), "good fixture produced findings: {got:?}");
    // And the scan actually visited the files (allows were honored,
    // not the whole tree skipped).
    let report = check_dir(&fixture("good")).expect("fixture scans");
    assert_eq!(report.files_scanned, 11);
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
        report.files_scanned > 100,
        "workspace scan looks truncated: {} files",
        report.files_scanned
    );
}
