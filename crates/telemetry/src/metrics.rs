//! Metrics registry: pre-registered counters, gauges, and virtual-time
//! distributions.
//!
//! Handles are enum variants that index fixed arrays, so recording is
//! an array store — no string hashing, no allocation, no locks. The
//! registry is per-rank (it lives inside a thread-local
//! [`crate::Collector`]) and merged once at end of run.
//!
//! Every entry is a quantity of the simulated run: an event count, a
//! virtual duration or a split. Host wall-clock time and a server's
//! request counts are kept by whoever measures them, so two runs of
//! one configuration write the same registry.

use hsim_time::SimDuration;

/// Monotonic event counters. Extend by adding a variant and a row in
/// `ALL`/`label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Every kernel dispatch through the portability layer.
    KernelLaunches,
    /// Dispatches that ran on a device timeline.
    GpuKernelLaunches,
    /// Dispatches that ran on host cores.
    CpuKernelLaunches,
    /// Total elements swept by kernels.
    KernelElements,
    /// Point-to-point sends posted.
    MpiSends,
    /// Point-to-point receives completed.
    MpiRecvs,
    /// Payload bytes sent point-to-point.
    MpiBytesSent,
    /// Payload bytes received point-to-point.
    MpiBytesReceived,
    /// Collective operations entered (allreduce, barrier, bcast).
    MpiCollectives,
    /// Unified-memory migration events.
    UmMigrations,
    /// Bytes moved by unified-memory migrations.
    UmBytesMigrated,
    /// Device sync rendezvous points.
    DeviceSyncs,
    /// Hydro cycles completed.
    Cycles,
    /// Rebalance decisions taken by the runner.
    Rebalances,
    /// Planned faults that actually fired at an instrumented site.
    FaultsInjected,
    /// Retry attempts taken while recovering from transient faults.
    FaultRetries,
    /// Transient faults that recovery fully absorbed.
    FaultsRecovered,
    /// Permanent rank losses absorbed by decomposition foldback.
    FaultRankLosses,
    /// Online-rebalancer boundaries that re-split the decomposition.
    BalanceResplits,
    /// Online-rebalancer boundaries where hysteresis (or degenerate
    /// timings) held the current split.
    BalanceHolds,
    /// Controller freezes forced by recovery (post-`rank.loss`
    /// foldback: the degraded world is no longer uniformly
    /// re-splittable).
    BalanceFrozen,
    /// Bytes whose owner changed across re-split redistributions.
    BalanceBytesMoved,
    /// Tracer particles that crossed a rank boundary and were shipped
    /// through the particle-migration collective.
    ParticlesMigrated,
}

impl Counter {
    pub const ALL: [Counter; 23] = [
        Counter::KernelLaunches,
        Counter::GpuKernelLaunches,
        Counter::CpuKernelLaunches,
        Counter::KernelElements,
        Counter::MpiSends,
        Counter::MpiRecvs,
        Counter::MpiBytesSent,
        Counter::MpiBytesReceived,
        Counter::MpiCollectives,
        Counter::UmMigrations,
        Counter::UmBytesMigrated,
        Counter::DeviceSyncs,
        Counter::Cycles,
        Counter::Rebalances,
        Counter::FaultsInjected,
        Counter::FaultRetries,
        Counter::FaultsRecovered,
        Counter::FaultRankLosses,
        Counter::BalanceResplits,
        Counter::BalanceHolds,
        Counter::BalanceFrozen,
        Counter::BalanceBytesMoved,
        Counter::ParticlesMigrated,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Counter::KernelLaunches => "kernel_launches",
            Counter::GpuKernelLaunches => "gpu_kernel_launches",
            Counter::CpuKernelLaunches => "cpu_kernel_launches",
            Counter::KernelElements => "kernel_elements",
            Counter::MpiSends => "mpi_sends",
            Counter::MpiRecvs => "mpi_recvs",
            Counter::MpiBytesSent => "mpi_bytes_sent",
            Counter::MpiBytesReceived => "mpi_bytes_received",
            Counter::MpiCollectives => "mpi_collectives",
            Counter::UmMigrations => "um_migrations",
            Counter::UmBytesMigrated => "um_bytes_migrated",
            Counter::DeviceSyncs => "device_syncs",
            Counter::Cycles => "cycles",
            Counter::Rebalances => "rebalances",
            Counter::FaultsInjected => "fault_injected",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultsRecovered => "fault_recovered",
            Counter::FaultRankLosses => "fault_rank_losses",
            Counter::BalanceResplits => "balance_resplits",
            Counter::BalanceHolds => "balance_holds",
            Counter::BalanceFrozen => "balance_frozen",
            Counter::BalanceBytesMoved => "balance_bytes_moved",
            Counter::ParticlesMigrated => "particles_migrated",
        }
    }
}

/// Last-value / high-water gauges. Merged across ranks by maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Realized CPU fraction of the decomposition.
    CpuFraction,
    /// Peak effective occupancy observed on any device timeline.
    DeviceOccupancy,
    /// The online rebalancer's final CPU work fraction.
    BalanceFraction,
}

impl Gauge {
    pub const ALL: [Gauge; 3] = [
        Gauge::CpuFraction,
        Gauge::DeviceOccupancy,
        Gauge::BalanceFraction,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Gauge::CpuFraction => "cpu_fraction",
            Gauge::DeviceOccupancy => "device_occupancy",
            Gauge::BalanceFraction => "balance_fraction",
        }
    }
}

/// Virtual-duration distributions, each kept as one [`Durations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TimeStat {
    /// Per-launch kernel body duration (any target).
    KernelTime,
    /// Per-launch host-side launch overhead.
    LaunchTime,
    /// Per point-to-point message received, the time from the receive
    /// call to the message's arrival (zero if it was there already).
    /// Collective waits are not recorded.
    MpiWait,
    /// Duration of unified-memory migrations.
    MigrationTime,
    /// Wall-to-wall duration of each hydro cycle.
    CycleTime,
}

impl TimeStat {
    pub const ALL: [TimeStat; 5] = [
        TimeStat::KernelTime,
        TimeStat::LaunchTime,
        TimeStat::MpiWait,
        TimeStat::MigrationTime,
        TimeStat::CycleTime,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TimeStat::KernelTime => "kernel_time",
            TimeStat::LaunchTime => "launch_time",
            TimeStat::MpiWait => "mpi_wait",
            TimeStat::MigrationTime => "migration_time",
            TimeStat::CycleTime => "cycle_time",
        }
    }
}

/// One distribution of virtual durations as exact integer sums.
/// Recording adds a sample and merging adds the sums and keeps the
/// extremes, both saturating, so any grouping and order of merges
/// gives the same record. Mean and standard deviation are derived from
/// the sums when exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Durations {
    pub count: u64,
    /// Σ ns.
    pub sum_ns: u128,
    /// Σ ns².
    pub sum_sq_ns: u128,
    /// The shortest sample; `u64::MAX` while there is none.
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Durations {
    /// No samples.
    pub const EMPTY: Durations = Durations {
        count: 0,
        sum_ns: 0,
        sum_sq_ns: 0,
        min_ns: u64::MAX,
        max_ns: 0,
    };

    /// Add one sample.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.merge(&Durations {
            count: 1,
            sum_ns: ns.into(),
            sum_sq_ns: u128::from(ns) * u128::from(ns),
            min_ns: ns,
            max_ns: ns,
        });
    }

    /// Fold in another record of the same distribution.
    pub fn merge(&mut self, other: &Durations) {
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.sum_sq_ns = self.sum_sq_ns.saturating_add(other.sum_sq_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Σ ns / count; zero with no samples.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Sample standard deviation (n − 1 denominator); zero for fewer
    /// than two samples.
    pub fn stddev_ns(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = u128::from(self.count);
        // n·Σx² − (Σx)² = n(n − 1)·s², exact while it fits in a u128.
        let spread = match (
            n.checked_mul(self.sum_sq_ns),
            self.sum_ns.checked_mul(self.sum_ns),
        ) {
            (Some(a), Some(b)) => a.saturating_sub(b) as f64,
            _ => n as f64 * self.sum_sq_ns as f64 - (self.sum_ns as f64).powi(2),
        };
        (spread / (n * (n - 1)) as f64).max(0.0).sqrt()
    }
}

/// The per-rank metrics registry.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
    time_stats: [Durations; TimeStat::ALL.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            counters: [0; Counter::ALL.len()],
            gauges: [0.0; Gauge::ALL.len()],
            time_stats: [Durations::EMPTY; TimeStat::ALL.len()],
        }
    }

    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] = self.counters[c as usize].saturating_add(n);
    }

    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    #[inline]
    pub fn gauge_set(&mut self, g: Gauge, v: f64) {
        self.gauges[g as usize] = v;
    }

    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: f64) {
        if v > self.gauges[g as usize] {
            self.gauges[g as usize] = v;
        }
    }

    #[inline]
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g as usize]
    }

    #[inline]
    pub fn time_stat(&mut self, s: TimeStat, d: SimDuration) {
        self.time_stats[s as usize].record(d);
    }

    pub fn time_stats(&self, s: TimeStat) -> &Durations {
        &self.time_stats[s as usize]
    }

    /// Fold another rank's registry into this one. Counters add,
    /// gauges take the maximum, distributions merge their sums.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            if *b > *a {
                *a = *b;
            }
        }
        for (a, b) in self.time_stats.iter_mut().zip(&other.time_stats) {
            a.merge(b);
        }
    }

    /// Deterministic JSON object fragment (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.label(), self.counter(*c)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {}",
                g.label(),
                fmt_f64(self.gauge(*g))
            ));
        }
        out.push_str("\n  },\n  \"time_stats\": {");
        for (i, s) in TimeStat::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = self.time_stats(*s);
            // An empty record's `min_ns` is `u64::MAX`: print 0.
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"mean_ns\": {}, \"stddev_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                s.label(),
                d.count,
                fmt_f64(d.mean_ns()),
                fmt_f64(d.stddev_ns()),
                d.min_ns.min(d.max_ns),
                d.max_ns,
            ));
        }
        out.push_str("\n  }\n}");
        out
    }
}

/// Format an f64 so the output is valid JSON (no `NaN`/`inf`) and
/// stable across runs.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    // Bare integers are valid JSON numbers already.
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_merge() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.count(Counter::MpiSends, 3);
        b.count(Counter::MpiSends, 4);
        b.gauge_max(Gauge::DeviceOccupancy, 0.8);
        a.gauge_max(Gauge::DeviceOccupancy, 0.5);
        a.merge(&b);
        assert_eq!(a.counter(Counter::MpiSends), 7);
        assert_eq!(a.gauge(Gauge::DeviceOccupancy), 0.8);
    }

    #[test]
    fn time_stats_merge_equals_the_single_stream() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let mut whole = Metrics::new();
        for (i, ns) in [2u64, 4, 4, 4, 5, 5, 7, 9].into_iter().enumerate() {
            let d = SimDuration::from_nanos(ns);
            whole.time_stat(TimeStat::MpiWait, d);
            if i < 3 {
                a.time_stat(TimeStat::MpiWait, d);
            } else {
                b.time_stat(TimeStat::MpiWait, d);
            }
        }
        a.merge(&b);
        let (m, w) = (
            a.time_stats(TimeStat::MpiWait),
            whole.time_stats(TimeStat::MpiWait),
        );
        assert_eq!(m, w);
        assert_eq!((m.count, m.sum_ns, m.min_ns, m.max_ns), (8, 40, 2, 9));
        assert_eq!(m.mean_ns(), 5.0);
        // The sample variance of this classic dataset is 32/7.
        assert_eq!(m.stddev_ns(), (32.0f64 / 7.0).sqrt());
    }

    #[test]
    fn stddev_survives_sums_past_u128() {
        let mut d = Durations::EMPTY;
        d.record(SimDuration::from_nanos(0));
        d.record(SimDuration::from_nanos(u64::MAX));
        let want = u64::MAX as f64 / 2f64.sqrt();
        assert!((d.stddev_ns() / want - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_deterministic_and_has_all_labels() {
        let mut m = Metrics::new();
        m.count(Counter::Cycles, 2);
        m.time_stat(TimeStat::KernelTime, SimDuration::from_nanos(1500));
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        for c in Counter::ALL {
            assert!(a.contains(c.label()));
        }
        for s in TimeStat::ALL {
            assert!(a.contains(s.label()));
        }
        assert!(!a.contains("NaN"));
        assert!(!a.contains("inf"));
    }

    #[test]
    fn empty_time_stats_export_zeros() {
        let json = Metrics::new().to_json();
        let zeros =
            "{\"count\": 0, \"mean_ns\": 0, \"stddev_ns\": 0, \"min_ns\": 0, \"max_ns\": 0}";
        assert_eq!(json.matches(zeros).count(), TimeStat::ALL.len());
    }
}
