//! Every recovery site of `hsim_faults`, byte for byte.
//!
//! Each case runs the CLI on a cost-only 64×48×32, 4-cycle,
//! `--no-balance` run with one fault plan. A run that recovers pins its
//! stdout (the rank breakdown table included), every `fault_*` counter
//! of `--metrics-json` and every `fault_*` span of `--trace-json`; a run
//! that escalates pins its exit code and stderr. The files under
//! `tests/golden/faults/` were written by the binary that still had one
//! hand-copied recovery block per site; a change to one of them is a
//! change to what a fault costs.

use std::path::PathBuf;
use std::process::Command;

const BASE: &str = "--grid 64,48,32 --cycles 4 --no-balance";

/// One case's pinned bytes: a `$` line naming the arguments, then what
/// the run left behind.
fn case(args: &str) -> String {
    let tmp = |what: &str| -> PathBuf {
        let tag: String = args
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        std::env::temp_dir().join(format!(
            "hsim-fault-golden-{}-{tag}.{what}.json",
            std::process::id()
        ))
    };
    let (trace, metrics) = (tmp("trace"), tmp("metrics"));
    let out = Command::new(env!("CARGO_BIN_EXE_heterosim"))
        .args(format!("{args} {BASE}").split_whitespace())
        .arg("--trace-json")
        .arg(&trace)
        .arg("--metrics-json")
        .arg(&metrics)
        .output()
        .expect("heterosim runs");
    let mut got = format!("$ heterosim {args}\n");
    if out.status.success() {
        got += &String::from_utf8(out.stdout).expect("utf-8 stdout");
        let faults = |path: &PathBuf, key: &str| -> String {
            let text = std::fs::read_to_string(path).expect("an export");
            std::fs::remove_file(path).expect("remove the export");
            text.lines()
                .filter(|l| l.contains(key))
                .map(|l| format!("{}\n", l.trim()))
                .collect()
        };
        got += "-- metrics\n";
        got += &faults(&metrics, "\"fault_");
        got += "-- spans\n";
        got += &faults(&trace, "{\"name\":\"fault_");
    } else {
        got += &format!("-- exit {:?}\n", out.status.code());
        got += &String::from_utf8(out.stderr).expect("utf-8 stderr");
    }
    got
}

/// `fault` at its four severities under `mode`, one case after another.
fn severities(mode: &str, fault: &str) -> String {
    ["", ":count=3", ":count=4", ":perm"]
        .iter()
        .map(|sev| case(&format!("{mode} --faults {fault}{sev}")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn gpu_launch() {
    let got = severities("--mode default", "gpu.launch@rank1.cycle2");
    assert_eq!(got, include_str!("golden/faults/gpu_launch.txt"));
}

#[test]
fn gpu_oom() {
    let got = severities("--mode default", "gpu.oom@rank1.cycle0");
    assert_eq!(got, include_str!("golden/faults/gpu_oom.txt"));
}

#[test]
fn xfer_delay() {
    let got = severities("--mode default", "xfer.delay@rank1.cycle2");
    assert_eq!(got, include_str!("golden/faults/xfer_delay.txt"));
}

#[test]
fn xfer_corrupt() {
    let got = severities("--mode default", "xfer.corrupt@rank1.cycle2");
    assert_eq!(got, include_str!("golden/faults/xfer_corrupt.txt"));
}

/// Set-up faults: the cycle a plan names is not read, so one at cycle 5
/// of a 4-cycle run still fires.
#[test]
fn mps_connect() {
    let got = severities("--mode mps", "mps.connect@rank1.cycle0")
        + "\n"
        + &case("--mode mps --faults mps.connect@rank2.cycle5");
    assert_eq!(got, include_str!("golden/faults/mps_connect.txt"));
}

#[test]
fn pool_panic() {
    let got = severities("--mode cpuonly --host-threads 2", "pool.panic@rank1.cycle2");
    assert_eq!(got, include_str!("golden/faults/pool_panic.txt"));
}

/// A device OOM at the set-up of the segment a re-split starts.
#[test]
fn an_oom_at_a_re_split() {
    let got =
        case("--mode hetero --fraction 0.30 --rebalance every=2 --faults gpu.oom@rank0.cycle2");
    assert_eq!(got, include_str!("golden/faults/resplit_oom.txt"));
}
