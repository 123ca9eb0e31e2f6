//! Chaos property: any single-site fault plan either fully recovers
//! (the Sedov solution is intact within convergence tolerance) or
//! fails with a typed error — never a panic, never a hang. The run
//! returning at all is the no-hang proof: a dead rank's channels drop
//! and every peer's blocked receive turns into a typed disconnect.

use std::sync::OnceLock;

use proptest::prelude::*;

use heterosim::core::faults::FaultPlan;
use heterosim::core::{runner, ExecMode, RunConfig};
use heterosim::raja::Fidelity;

const SITES: [&str; 7] = [
    "gpu.launch",
    "gpu.oom",
    "mps.connect",
    "xfer.delay",
    "xfer.corrupt",
    "rank.loss",
    "pool.panic",
];

/// A small full-fidelity Heterogeneous Sedov run (16 ranks, shared
/// host pool so the pool-panic site is live).
fn chaos_cfg(spec: Option<&str>) -> RunConfig {
    let mut cfg = RunConfig::sweep((16, 24, 16), ExecMode::hetero());
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = 2;
    cfg.host_threads = 2;
    cfg.faults = spec.map(|s| FaultPlan::parse(s).expect(s));
    cfg
}

/// The fault-free mass, computed once: the recovery yardstick.
fn baseline_mass() -> f64 {
    static MASS: OnceLock<f64> = OnceLock::new();
    *MASS.get_or_init(|| {
        runner::run(&chaos_cfg(None))
            .expect("fault-free run")
            .mass
            .expect("full fidelity carries mass")
    })
}

proptest! {
    #[test]
    fn any_single_site_fault_recovers_or_errors_typed(
        site in 0usize..7,
        rank in 0usize..16,
        cycle in 0u64..2,
        count in 1u32..5,
    ) {
        // rank.loss is permanent by definition; every other site gets
        // a transient count that sometimes blows the retry budget.
        let spec = if SITES[site] == "rank.loss" {
            format!("rank.loss@rank{rank}.cycle{cycle}")
        } else {
            format!("{}@rank{rank}.cycle{cycle}:count={count}", SITES[site])
        };
        let cfg = chaos_cfg(Some(&spec));
        let out = std::panic::catch_unwind(|| runner::run(&cfg));
        prop_assert!(out.is_ok(), "{spec}: the runner panicked");
        match out.unwrap() {
            Ok(r) => {
                // Full recovery: the solution must be the fault-free
                // one. Bitwise for transient sites; rank loss changes
                // only the reduction association across boxes.
                let m = r.mass.expect("full fidelity carries mass");
                let rel = ((m - baseline_mass()) / baseline_mass()).abs();
                prop_assert!(rel < 1e-10, "{spec}: relative mass drift {rel:e}");
                prop_assert!(!r.ranks.is_empty(), "{spec}");
                prop_assert!(r.runtime.as_secs_f64() > 0.0, "{spec}");
                // Retries, back-off and the foldback's extra segment
                // all land in a bucket: the account still closes.
                for k in &r.ranks {
                    let parts = k.compute + k.launch + k.memory + k.comm + k.control + k.wait;
                    prop_assert_eq!(parts, k.total, "{}: rank {}", &spec, k.rank);
                }
            }
            Err(e) => {
                prop_assert!(!e.is_empty(), "{spec}: empty error");
                prop_assert!(
                    e.contains("injected") || e.contains("rank"),
                    "{spec}: untyped error {e:?}"
                );
            }
        }
    }
}
