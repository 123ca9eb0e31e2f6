//! The `heterosim --trace` timeline, byte for byte.
//!
//! Each case runs the CLI and compares everything from the `timeline (`
//! line to the end of stdout with a file under `tests/golden/trace/`.
//! The files were written by the renderer `hsim-time` held before the
//! Gantt moved onto the telemetry span store (PR 24); a change to one
//! of them is a change to what `--trace` prints.

use std::process::Command;

fn timeline(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_heterosim"))
        .args(args.split_whitespace())
        .arg("--trace")
        .output()
        .expect("heterosim runs");
    assert!(
        out.status.success(),
        "{args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let at = stdout.find("timeline (").expect("a timeline section");
    stdout[at..].to_string()
}

#[test]
fn the_four_paper_modes() {
    let cases = [
        ("cpuonly", include_str!("golden/trace/cpuonly.txt")),
        ("default", include_str!("golden/trace/default.txt")),
        ("mps", include_str!("golden/trace/mps.txt")),
        ("hetero", include_str!("golden/trace/hetero.txt")),
    ];
    for (mode, golden) in cases {
        let got = timeline(&format!("--mode {mode} --grid 64,48,32 --cycles 4"));
        assert_eq!(got, golden, "--mode {mode}");
    }
}

#[test]
fn a_rank_loss_folds_the_world_mid_run() {
    let got = timeline(
        "--mode hetero --fraction 0.05 --grid 64,96,64 --cycles 6 --no-balance \
         --faults rank.loss@rank5.cycle4",
    );
    assert_eq!(got, include_str!("golden/trace/rank_loss.txt"));
}

#[test]
fn a_rebalanced_run_re_splits_every_second_cycle() {
    let got = timeline(
        "--mode hetero --grid 64,96,64 --cycles 8 --fraction 0.30 \
         --rebalance every=2,hysteresis=0.02",
    );
    assert_eq!(got, include_str!("golden/trace/rebalance.txt"));
}
