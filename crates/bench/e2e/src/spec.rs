//! The benchmark's one table: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json`, `e2e list` and the result
//! lines are all generated from it, and a unit test fails if the
//! committed `BENCHMARK.json` drifts from it.

use std::fmt::Write as _;

/// Directory of this package, relative to the repository root.
pub const PACKAGE_DIR: &str = "crates/bench/e2e";

/// Seconds one run measures for (`--seconds` default and the
/// `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2018;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why this workload exists (which layers it stresses
    /// and which it bypasses).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "cpu-full",
        why: "full-fidelity CpuOnly runs of four scenarios: hydro::fused kernel bodies under raja tiles dominate; gpusim, serve, balancer and sweep engine do nothing",
    },
    WorkloadSpec {
        name: "hetero-full",
        why: "the paper's cooperative mode end to end: full-fidelity Heterogeneous runs with online rebalance, particles and diffusion through SimGpu, gpusim, core::balance, coupler",
    },
    WorkloadSpec {
        name: "figure-sweep",
        why: "cost-only fig12/13/17 sweeps in three modes: kernel bodies bypassed, so host time is runner set-up, mpisim rank threads and messages, gpusim timeline, balancer iterations",
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "768 closed-loop HTTP requests, 48 misses and 720 hits, on a fresh server: the only workload where serve parse/hash/cache/admission/render do work; misses share the sweep engine",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The gated metrics, the same names on every workload. Evidence for
/// each bound is in README.md.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "virt_mzc_per_s",
        unit: "Mzc/s",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate (or `host`) the metric belongs to.
    pub layer: &'static str,
    /// Must repeat bit for bit at a fixed seed (checked by
    /// `e2e selfcheck`).
    pub exact: bool,
}

const fn exact(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact: true,
    }
}

const fn timed(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in print order. A metric that does not
/// apply to a workload (e.g. `serve_*` counts on `cpu-full`) reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Virtual-time account of the round's runs (slowest rank).
    exact("core", "virt_ms_per_round", "ms", Lower),
    exact("core", "virt_share_compute", "ratio", Lower),
    exact("core", "virt_share_launch", "ratio", Lower),
    exact("core", "virt_share_memory", "ratio", Lower),
    exact("core", "virt_share_comm", "ratio", Lower),
    exact("core", "virt_share_wait", "ratio", Lower),
    exact("core", "virt_share_control", "ratio", Lower),
    exact("core", "virt_share_residual", "ratio", Lower),
    exact("gpusim", "gpusim_launches_per_cycle", "count", Lower),
    exact("gpusim", "gpusim_device_busy_share", "ratio", Higher),
    exact("mpisim", "mpisim_bytes_per_cycle", "B", Lower),
    exact("core", "core_cpu_fraction_final", "ratio", Higher),
    exact("core", "core_resplits_per_run", "count", Lower),
    exact("core", "core_balance_iters_per_point", "count", Lower),
    exact("particles", "particles_migrated_per_run", "count", Lower),
    exact("hydro", "hydro_analytic_err.sod", "ratio", Lower),
    exact("hydro", "hydro_analytic_err.noh", "ratio", Lower),
    exact("hydro", "hydro_analytic_err.taylor-green", "ratio", Lower),
    exact("hydro", "hydro_mass_drift_rel", "ratio", Lower),
    exact("bench-sweep", "sweep_points_per_round", "count", Higher),
    exact("bench-sweep", "sweep_skipped_points", "count", Lower),
    exact("serve", "serve_executions_per_round", "count", Lower),
    exact("serve", "serve_cache_served_ratio", "ratio", Higher),
    exact("serve", "serve_rejected", "count", Lower),
    timed("serve", "serve_queue_depth_high_water", "count", Lower),
    // Isolated layer probes, timed from outside.
    timed("hydro", "hydro_fused_sweep_mzs_per_s", "Mz/s", Higher),
    timed("hydro", "hydro_fused_muscl_mzs_per_s", "Mz/s", Higher),
    timed("hydro", "hydro_solo_cycle_ms_p50", "ms", Lower),
    timed("hydro", "hydro_diffusion_mzs_per_s", "Mz/s", Higher),
    timed("raja", "raja_forall_ns_per_launch_p50", "ns", Lower),
    timed("raja", "raja_pool_region_us_p50", "us", Lower),
    exact("raja", "raja_tiles_per_sweep", "count", Lower),
    timed("mpisim", "mpisim_world16_spawn_us_p50", "us", Lower),
    timed("mpisim", "mpisim_allreduce16_us_p50", "us", Lower),
    timed("mpisim", "mpisim_ring16_sendrecv_us_p50.4k", "us", Lower),
    timed("mpisim", "mpisim_ring16_sendrecv_us_p50.256k", "us", Lower),
    timed("mesh", "mesh_decomp_us_p50.block16", "us", Lower),
    timed("mesh", "mesh_decomp_us_p50.weighted", "us", Lower),
    timed("gpusim", "gpusim_timeline_us_per_job_p50", "us", Lower),
    timed("core", "core_run_ms_p50.cpuonly", "ms", Lower),
    timed("core", "core_run_ms_p50.default", "ms", Lower),
    timed("core", "core_run_ms_p50.mps4", "ms", Lower),
    timed("core", "core_run_ms_p50.hetero", "ms", Lower),
    timed("core", "core_run_balanced_ms_p50.hetero", "ms", Lower),
    timed("core", "core_confhash_ns_p50", "ns", Lower),
    timed("faults", "faults_rank_loss_run_ms_p50", "ms", Lower),
    exact(
        "faults",
        "faults_rank_loss_virt_overhead_ratio",
        "ratio",
        Lower,
    ),
    timed(
        "particles",
        "particles_advect_ns_per_particle_p50",
        "ns",
        Lower,
    ),
    timed("telemetry", "telemetry_on_ratio", "ratio", Lower),
    exact("telemetry", "telemetry_spans_per_run", "count", Lower),
    timed("serve", "serve_submit_hit_us_p50", "us", Lower),
    timed("serve", "serve_submit_miss_ms_p50", "ms", Lower),
    timed("serve", "serve_http_hit_us_p50", "us", Lower),
    timed("serve", "serve_http_hit_us_p95", "us", Lower),
    timed("serve", "serve_http_miss_ms_p50", "ms", Lower),
    timed("serve", "serve_render_us_p50", "us", Lower),
    timed("serve", "serve_metrics_text_us_p50", "us", Lower),
    timed("bench-sweep", "sweep_figure_ms_p50.fig12", "ms", Lower),
    timed("bench-sweep", "sweep_figure_ms_p50.fig13", "ms", Lower),
    timed("bench-sweep", "sweep_figure_ms_p50.fig17", "ms", Lower),
    timed("bench-sweep", "sweep_jobs2_ratio", "ratio", Higher),
    // Host diagnostics of the traced pass: machine drift vs program drift.
    timed("host", "round_ms_p25", "ms", Lower),
    timed("host", "round_ms_p75", "ms", Lower),
    timed("host", "round_ms_p90", "ms", Lower),
    timed("host", "host_cpu_ms_per_round", "ms", Lower),
    timed("host", "host_ref_ms_p50", "ms", Lower),
    timed("host", "host_ref_iqr_ratio", "ratio", Lower),
    timed("host", "host_allocs_per_round", "count", Lower),
    timed("host", "host_alloc_mb_per_round", "MB", Lower),
    timed("host", "trace_overhead_ratio", "ratio", Lower),
    timed("host", "self_ms_per_round.core", "ms", Lower),
    timed("host", "self_ms_per_round.bench-sweep", "ms", Lower),
    timed("host", "self_ms_per_round.serve", "ms", Lower),
    timed("host", "self_ms_per_round.client", "ms", Lower),
    timed("host", "self_ms_per_round.residual", "ms", Lower),
    exact("host", "fail_ratio", "ratio", Lower),
];

/// The exact text of `/BENCHMARK.json` (`e2e list --json`).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{PACKAGE_DIR}/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(s, "  \"paths\": [\"{PACKAGE_DIR}\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// `e2e list`: every workload with its rationale and every metric
/// with unit, direction and bound.
pub fn list_text() -> String {
    let mut s = String::from("workloads:\n");
    for w in &WORKLOADS {
        let _ = writeln!(s, "  {:<14} {}", w.name, w.why);
    }
    s.push_str("end-to-end metrics (gated; --trace 0):\n");
    for m in &END_TO_END {
        let _ = writeln!(
            s,
            "  {:<40} unit={:<6} better={:<6} bound={}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    s.push_str("per-layer metrics (not gated; --trace 1):\n");
    for m in PER_LAYER {
        let _ = writeln!(
            s,
            "  {:<40} unit={:<6} better={:<6} layer={}{}",
            m.name,
            m.unit,
            m.better.word(),
            m.layer,
            if m.exact { " exact" } else { "" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `e2e list --json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list_text();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(text.contains(n), "list omits {n}");
        }
    }
}
