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

use hsim_time::{Histogram, SimDuration, Welford};

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

/// Virtual-duration distributions, tracked with Welford statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TimeStat {
    /// Per-launch kernel body duration (any target).
    KernelTime,
    /// Per-launch host-side launch overhead.
    LaunchTime,
    /// Time a rank spent blocked in recv/collective waits.
    MpiWait,
    /// End-to-end latency of point-to-point messages.
    MessageLatency,
    /// Duration of unified-memory migrations.
    MigrationTime,
    /// Wall-to-wall duration of each hydro cycle.
    CycleTime,
}

impl TimeStat {
    pub const ALL: [TimeStat; 6] = [
        TimeStat::KernelTime,
        TimeStat::LaunchTime,
        TimeStat::MpiWait,
        TimeStat::MessageLatency,
        TimeStat::MigrationTime,
        TimeStat::CycleTime,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TimeStat::KernelTime => "kernel_time",
            TimeStat::LaunchTime => "launch_time",
            TimeStat::MpiWait => "mpi_wait",
            TimeStat::MessageLatency => "message_latency",
            TimeStat::MigrationTime => "migration_time",
            TimeStat::CycleTime => "cycle_time",
        }
    }
}

/// Bucket count for the kernel-time histogram.
const KERNEL_HIST_BUCKETS: usize = 64;
/// Kernel-time histogram range in microseconds.
const KERNEL_HIST_HI_US: f64 = 2000.0;

/// The per-rank metrics registry.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
    time_stats: Vec<Welford>,
    /// Fixed-bucket histogram of kernel durations, in microseconds,
    /// for quantile export.
    kernel_time_us: Histogram,
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
            time_stats: vec![Welford::new(); TimeStat::ALL.len()],
            kernel_time_us: Histogram::new(0.0, KERNEL_HIST_HI_US, KERNEL_HIST_BUCKETS),
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
        self.time_stats[s as usize].push_duration(d);
        if s == TimeStat::KernelTime {
            self.kernel_time_us.push(d.as_nanos() as f64 * 1e-3);
        }
    }

    pub fn time_stats(&self, s: TimeStat) -> &Welford {
        &self.time_stats[s as usize]
    }

    pub fn kernel_time_quantile_us(&self, q: f64) -> f64 {
        if self.kernel_time_us.count() == 0 {
            0.0
        } else {
            self.kernel_time_us.quantile(q)
        }
    }

    /// Fold another rank's registry into this one. Counters add,
    /// gauges take the maximum, distributions Welford-merge.
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
        // Histograms with identical bucketing merge by re-adding
        // counts at bucket midpoints; underflow/overflow re-add at the
        // range ends. Approximate but bucket-exact for quantiles.
        for (i, &n) in other.kernel_time_us.bucket_counts().iter().enumerate() {
            let mid = other.kernel_time_us.bucket_lo(i)
                + 0.5 * (KERNEL_HIST_HI_US / KERNEL_HIST_BUCKETS as f64);
            for _ in 0..n {
                self.kernel_time_us.push(mid);
            }
        }
        for _ in 0..other.kernel_time_us.underflow() {
            self.kernel_time_us.push(-1.0);
        }
        for _ in 0..other.kernel_time_us.overflow() {
            self.kernel_time_us.push(KERNEL_HIST_HI_US + 1.0);
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
            let w = self.time_stats(*s);
            // Welford samples are seconds (`push_duration`); export in
            // nanoseconds to match the `_ns` keys.
            let ns = |v: f64| fmt_f64(guard(w.count(), v * 1e9));
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"mean_ns\": {}, \"stddev_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                s.label(),
                w.count(),
                ns(w.mean()),
                ns(w.stddev()),
                ns(w.min()),
                ns(w.max()),
            ));
        }
        out.push_str(&format!(
            "\n  }},\n  \"kernel_time_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}}\n}}",
            fmt_f64(self.kernel_time_quantile_us(0.50)),
            fmt_f64(self.kernel_time_quantile_us(0.90)),
            fmt_f64(self.kernel_time_quantile_us(0.99)),
        ));
        out
    }
}

fn guard(count: u64, v: f64) -> f64 {
    if count == 0 || !v.is_finite() {
        0.0
    } else {
        v
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
    fn time_stats_welford_merge_matches_single_stream() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let mut whole = Metrics::new();
        for i in 0..10u64 {
            let d = SimDuration::from_nanos(100 + i * 10);
            whole.time_stat(TimeStat::MpiWait, d);
            if i < 5 {
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
        assert_eq!(m.count(), w.count());
        assert!((m.mean() - w.mean()).abs() < 1e-9);
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
    fn empty_metrics_guard_nonfinite_stats() {
        let m = Metrics::new();
        let json = m.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
