//! The account pass of a traced run: execute every distinct
//! configuration of the round once more, directly, and read the
//! virtual-time account off the public `RunResult` fields. Virtual
//! time is deterministic, so every number here repeats bit for bit.

use std::collections::BTreeMap;

use hsim_core::{ExecMode, RankReport, RunResult};

use crate::workloads::Workload;

/// Metric name → (value, samples behind it).
pub type Metrics = BTreeMap<&'static str, (f64, u64)>;

pub struct Accounted {
    pub result: RunResult,
    /// `LoadBalancer::history.len()` when the run went through
    /// `run_balanced` in Heterogeneous mode.
    pub balance_iters: Option<usize>,
    pub per_round: u32,
    /// Mass of the initial state (a zero-cycle run of the same
    /// config), full fidelity only.
    pub mass0: Option<f64>,
}

pub fn account(wl: &Workload) -> Result<Vec<Accounted>, String> {
    wl.distinct()
        .into_iter()
        .map(|d| {
            let hetero = matches!(d.cfg.mode, ExecMode::Heterogeneous { .. });
            let (result, balance_iters) = if d.balanced {
                let (r, lb) = hsim_core::run_balanced(&d.cfg)?;
                (r, hetero.then_some(lb.history.len()))
            } else {
                (hsim_core::run(&d.cfg)?, None)
            };
            let mass0 = match result.mass {
                Some(_) => {
                    let mut at_rest = d.cfg.clone();
                    at_rest.cycles = 0;
                    at_rest.rebalance = None;
                    hsim_core::run(&at_rest)?.mass
                }
                None => None,
            };
            Ok(Accounted {
                result,
                balance_iters,
                per_round: d.per_round,
                mass0,
            })
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The exact per-layer metrics of one round, from its accounted runs.
pub fn virtual_metrics(acc: &[Accounted], m: &mut Metrics) {
    let runs: u64 = acc.iter().map(|a| u64::from(a.per_round)).sum();
    // Sums over the round, weighting each distinct run by how often
    // the round executes it. Integer ns, so the order cannot matter.
    let sum = |f: &dyn Fn(&RunResult) -> u64| -> f64 {
        acc.iter()
            .map(|a| f(&a.result) * u64::from(a.per_round))
            .sum::<u64>() as f64
    };
    let slowest = |r: &RunResult| r.ranks.iter().max_by_key(|k| k.total.as_nanos()).cloned();
    let slow_sum =
        |f: &dyn Fn(&RankReport) -> u64| -> f64 { sum(&|r| slowest(r).map_or(0, |k| f(&k))) };
    let total = slow_sum(&|k| k.total.as_nanos());
    let cycles = sum(&|r| r.cycles);

    m.insert(
        "virt_ms_per_round",
        (sum(&|r| r.runtime.as_nanos()) / 1e6, runs),
    );
    let mut shares = 0.0;
    type Bucket = fn(&RankReport) -> u64;
    let buckets: [(&'static str, Bucket); 6] = [
        ("virt_share_compute", |k| k.compute.as_nanos()),
        ("virt_share_launch", |k| k.launch.as_nanos()),
        ("virt_share_memory", |k| k.memory.as_nanos()),
        ("virt_share_comm", |k| k.comm.as_nanos()),
        ("virt_share_wait", |k| k.wait.as_nanos()),
        ("virt_share_control", |k| k.control.as_nanos()),
    ];
    for (name, pick) in buckets {
        let share = ratio(slow_sum(&pick), total);
        shares += share;
        m.insert(name, (share, runs));
    }
    m.insert("virt_share_residual", (1.0 - shares, runs));

    let gpu_launches = sum(&|r| {
        r.ranks
            .iter()
            .filter(|k| k.role.is_gpu_driver())
            .map(|k| k.launches)
            .sum()
    });
    m.insert(
        "gpusim_launches_per_cycle",
        (ratio(gpu_launches, cycles), runs),
    );
    m.insert(
        "gpusim_device_busy_share",
        (
            ratio(
                sum(&|r| r.slowest_device_busy().as_nanos()),
                sum(&|r| r.runtime.as_nanos()),
            ),
            runs,
        ),
    );
    m.insert(
        "mpisim_bytes_per_cycle",
        (ratio(sum(&|r| r.total_bytes_sent()), cycles), runs),
    );

    let mean = |vals: Vec<f64>| {
        (
            ratio(vals.iter().sum(), vals.len() as f64),
            vals.len() as u64,
        )
    };
    m.insert(
        "core_cpu_fraction_final",
        mean(
            acc.iter()
                .filter(|a| a.result.mode_key == "hetero")
                .map(|a| a.result.cpu_fraction)
                .collect(),
        ),
    );
    m.insert(
        "core_resplits_per_run",
        mean(
            acc.iter()
                .filter(|a| !a.result.balance_history.is_empty())
                .map(|a| {
                    let h = &a.result.balance_history;
                    h.windows(2).filter(|w| w[0] != w[1]).count() as f64
                })
                .collect(),
        ),
    );
    m.insert(
        "core_balance_iters_per_point",
        mean(
            acc.iter()
                .filter_map(|a| a.balance_iters.map(|n| n as f64))
                .collect(),
        ),
    );
    m.insert(
        "particles_migrated_per_run",
        mean(
            acc.iter()
                .filter_map(|a| a.result.particles.as_ref().map(|p| p.migrated as f64))
                .collect(),
        ),
    );
    for (name, scenario) in [
        ("hydro_analytic_err.sod", "sod"),
        ("hydro_analytic_err.noh", "noh"),
        ("hydro_analytic_err.taylor-green", "taylor-green"),
    ] {
        let errs: Vec<f64> = acc
            .iter()
            .filter_map(|a| a.result.scenario.as_ref())
            .filter(|sc| sc.name == scenario)
            .filter_map(|sc| sc.error)
            .collect();
        let worst = errs.iter().copied().fold(0.0, f64::max);
        m.insert(name, (worst, errs.len() as u64));
    }
    let drifts: Vec<f64> = acc
        .iter()
        .filter_map(|a| Some(((a.result.mass? - a.mass0?) / a.mass0?).abs()))
        .collect();
    m.insert(
        "hydro_mass_drift_rel",
        (
            drifts.iter().copied().fold(0.0, f64::max),
            drifts.len() as u64,
        ),
    );
}
