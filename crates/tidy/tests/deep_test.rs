//! Deep-analysis fixtures: each bad tree must produce exactly the
//! expected findings *including* the rendered blame path, so the
//! root → … → site evidence chain is pinned — a finding is an
//! argument, not an assertion. The nondet fixture is deliberately
//! cross-crate (source in `hsim-raja`, sink in `hsim-telemetry`,
//! linked by a `use`) to pin the call graph's cross-crate edges.

use std::path::PathBuf;

use hsim_tidy::check_dir;

/// Scan one fixture tree, returning (lint, path, line, msg) sorted as
/// the report sorts them.
fn scan(name: &str) -> Vec<(String, String, usize, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    check_dir(&root)
        .expect("fixture scans")
        .violations
        .into_iter()
        .map(|f| (f.lint.to_string(), f.path, f.line, f.msg))
        .collect()
}

fn expect(name: &str, want: &[(&str, &str, usize, &str)]) {
    let got = scan(name);
    let want: Vec<(String, String, usize, String)> = want
        .iter()
        .map(|(l, p, n, m)| (l.to_string(), p.to_string(), *n, m.to_string()))
        .collect();
    assert_eq!(got, want, "fixture `{name}` findings mismatch");
}

#[test]
fn panic_reach_pins_the_blame_chain() {
    expect(
        "bad/deep_panic",
        &[(
            "panic-reach",
            "crates/core/src/runner.rs",
            12,
            "`.unwrap()` can panic and is reachable from a no-panic root — return a \
             typed error instead; blame path:\n\
             \x20 World::run_fallible (crates/core/src/runner.rs:4)\n\
             \x20 -> step_ranks (called at crates/core/src/runner.rs:5)",
        )],
    );
}

/// `async fn` is a node like any other and `.await` hides no call:
/// the chain runs root → driver → rank body → (through an `async`
/// block) → coupler, and a resumable `Comm` primitive is held to
/// "charge before every completing return" like a blocking one. The
/// blocking facade over it (`recv`) charges through its callee and is
/// clean, as are the same shapes done right in the good fixture.
#[test]
fn async_fns_are_followed_through_await() {
    expect(
        "bad/deep_async",
        &[
            (
                "panic-reach",
                "crates/core/src/runner.rs",
                25,
                "`.unwrap()` can panic and is reachable from a no-panic root — return a \
                 typed error instead; blame path:\n\
                 \x20 World::run_fallible (crates/core/src/runner.rs:4)\n\
                 \x20 -> poll_ranks (called at crates/core/src/runner.rs:5)\n\
                 \x20 -> rank_body (called at crates/core/src/runner.rs:11)\n\
                 \x20 -> cycle (called at crates/core/src/runner.rs:15)\n\
                 \x20 -> exchange (called at crates/core/src/runner.rs:21)",
            ),
            (
                "cost-charge",
                "crates/mpisim/src/comm.rs",
                4,
                "`Comm::irecv` returns successfully before its first virtual-clock \
                 charge — this control-flow path models the operation as free (guard \
                 it on a degenerate size, or charge first)",
            ),
        ],
    );
}

#[test]
fn nondet_taint_crosses_crates_via_use_imports() {
    let stats = "crates/raja/src/stats.rs";
    let sink_hop = "\x20 to_metrics_json (crates/telemetry/src/sink.rs:3)\n\
                    \x20 -> occupancy_counts (called at crates/telemetry/src/sink.rs:4)";
    let tag_hop = format!("{sink_hop}\n\x20 -> worker_tag (called at {stats}:7)");
    expect(
        "bad/deep_nondet",
        &[
            (
                "nondet-taint",
                stats,
                6,
                &format!(
                    "iteration order of unordered `by_stream` (`.keys()`) is reachable \
                     from a deterministic emission sink — outputs must be byte-identical \
                     run to run (sort, use BTree collections, or route through \
                     RegionSlots); blame path:\n{sink_hop}"
                ),
            ),
            (
                "nondet-taint",
                stats,
                12,
                &format!(
                    "thread identity is reachable from a deterministic emission sink — \
                     outputs must be byte-identical run to run (sort, use BTree \
                     collections, or route through RegionSlots); blame path:\n{tag_hop}"
                ),
            ),
            (
                "nondet-taint",
                stats,
                14,
                &format!(
                    "a pointer observed as an integer is reachable from a deterministic \
                     emission sink — outputs must be byte-identical run to run (sort, \
                     use BTree collections, or route through RegionSlots); blame \
                     path:\n{tag_hop}"
                ),
            ),
        ],
    );
}

#[test]
fn cost_charge_flags_free_primitives_and_dropped_costs() {
    expect(
        "bad/deep_cost",
        &[
            (
                "cost-charge",
                "crates/core/src/step.rs",
                2,
                "`diffuse_tick` calls cost primitive `launch` but neither charges a \
                 virtual clock on any path nor returns the SimDuration to its caller — \
                 the modelled cost is silently dropped",
            ),
            (
                "cost-charge",
                "crates/mpisim/src/comm.rs",
                2,
                "communication primitive `Comm::send` never charges the virtual clock \
                 (no `charge`/`wait_until` on any path through it)",
            ),
            (
                "cost-charge",
                "crates/mpisim/src/comm.rs",
                12,
                "`Comm::recv` returns successfully before its first virtual-clock \
                 charge — this control-flow path models the operation as free (guard \
                 it on a degenerate size, or charge first)",
            ),
        ],
    );
}
