//! Thread-local collector and the free-function recording API.
//!
//! The runner installs one [`Collector`] per rank (on the rank's thread,
//! or for the length of each poll when ranks share one); instrumented
//! code anywhere below it calls the free functions in this module.
//! With no collector installed (the default), every function is a
//! thread-local load plus an `Option` check — no heap allocation, no
//! locks, no virtual-time charge. That property is asserted by
//! `tests/disabled_path_allocation_free.rs` with a counting allocator.

use std::cell::RefCell;

use hsim_time::{SimDuration, SimTime};

use crate::metrics::{Counter, Gauge, Metrics, TimeStat};
use crate::profile::KernelProfiles;
use crate::span::{Category, SpanEvent};

/// Everything one rank records.
#[derive(Debug, Clone)]
pub struct Collector {
    /// The rank this collector was installed for; used as the default
    /// `pid` for rank-timeline spans.
    pub rank: usize,
    /// When false, span recording is skipped (metrics still collected).
    pub spans_on: bool,
    pub spans: Vec<SpanEvent>,
    pub metrics: Metrics,
    pub kernels: KernelProfiles,
}

impl Collector {
    pub fn new(rank: usize) -> Self {
        Collector {
            rank,
            spans_on: true,
            spans: Vec::new(),
            metrics: Metrics::new(),
            kernels: KernelProfiles::new(),
        }
    }

    pub fn without_spans(mut self) -> Self {
        self.spans_on = false;
        self
    }

    /// Record a span on this collector's own rank timeline
    /// (`pid = rank`, `tid = 0`). Inverted intervals clamp to zero
    /// length.
    pub fn rank_span(&mut self, cat: Category, name: &'static str, start: SimTime, end: SimTime) {
        if !self.spans_on {
            return;
        }
        self.spans.push(SpanEvent {
            pid: self.rank as u32,
            tid: 0,
            cat,
            name,
            ts: start,
            dur: end.merge(start) - start,
            args: Vec::new(),
        });
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install a collector in the calling thread, enabling recording.
pub fn install(c: Collector) {
    swap(Some(c));
}

/// Remove and return the calling thread's collector, disabling
/// recording again.
pub fn uninstall() -> Option<Collector> {
    swap(None)
}

/// Exchange the calling thread's collector for `c` and return the one
/// that was installed. Ranks that share a thread trade places this
/// way: each keeps its collector while another runs, and whatever the
/// thread's owner had installed is put back afterwards.
pub fn swap(c: Option<Collector>) -> Option<Collector> {
    COLLECTOR.with(|slot| slot.replace(c))
}

/// Whether the calling thread currently records telemetry.
#[inline]
pub fn is_enabled() -> bool {
    COLLECTOR.with(|slot| slot.borrow().is_some())
}

#[inline]
fn with(f: impl FnOnce(&mut Collector)) {
    COLLECTOR.with(|slot| {
        if let Some(c) = slot.borrow_mut().as_mut() {
            f(c);
        }
    });
}

/// Bump a pre-registered counter.
#[inline]
pub fn count(c: Counter, n: u64) {
    with(|col| col.metrics.count(c, n));
}

/// Set a gauge to a value.
#[inline]
pub fn gauge_set(g: Gauge, v: f64) {
    with(|col| col.metrics.gauge_set(g, v));
}

/// Raise a gauge to a high-water value.
#[inline]
pub fn gauge_max(g: Gauge, v: f64) {
    with(|col| col.metrics.gauge_max(g, v));
}

/// Push a virtual duration into a pre-registered distribution.
#[inline]
pub fn time_stat(s: TimeStat, d: SimDuration) {
    with(|col| col.metrics.time_stat(s, d));
}

/// Record a span on an explicit timeline (`pid`/`tid`). Inverted
/// intervals clamp to zero length.
#[inline]
pub fn span(pid: u32, tid: u32, cat: Category, name: &'static str, start: SimTime, end: SimTime) {
    span_args(pid, tid, cat, name, start, end, &[]);
}

/// [`span`] with key/value attributes.
#[inline]
pub fn span_args(
    pid: u32,
    tid: u32,
    cat: Category,
    name: &'static str,
    start: SimTime,
    end: SimTime,
    args: &[(&'static str, u64)],
) {
    with(|col| {
        if !col.spans_on {
            return;
        }
        let end = end.merge(start);
        col.spans.push(SpanEvent {
            pid,
            tid,
            cat,
            name,
            ts: start,
            dur: end - start,
            args: args.to_vec(),
        });
    });
}

/// Record a span on the calling rank's own timeline (`pid = rank`,
/// `tid = 0`).
#[inline]
pub fn rank_span(cat: Category, name: &'static str, start: SimTime, end: SimTime) {
    with(|col| col.rank_span(cat, name, start, end));
}

/// Feed the per-kernel profiler and the kernel-wide counters in one
/// call — the single hook the dispatch layer uses.
#[inline]
pub fn kernel_launch(
    name: &'static str,
    elems: u64,
    bytes: u64,
    dur: SimDuration,
    on_gpu: bool,
    occupancy: f64,
) {
    with(|col| {
        col.kernels
            .record_launch(name, elems, bytes, dur, on_gpu, occupancy);
        col.metrics.count(Counter::KernelLaunches, 1);
        col.metrics.count(
            if on_gpu {
                Counter::GpuKernelLaunches
            } else {
                Counter::CpuKernelLaunches
            },
            1,
        );
        col.metrics.count(Counter::KernelElements, elems);
        col.metrics.time_stat(TimeStat::KernelTime, dur);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn no_collector_means_noop() {
        assert!(!is_enabled());
        count(Counter::MpiSends, 1);
        span(0, 0, Category::CpuKernel, "k", t(0), t(10));
        kernel_launch("k", 1, 0, SimDuration::from_nanos(1), false, 1.0);
        assert!(uninstall().is_none());
    }

    #[test]
    fn installed_collector_records_everything() {
        install(Collector::new(3));
        assert!(is_enabled());
        count(Counter::MpiSends, 2);
        time_stat(TimeStat::MpiWait, SimDuration::from_nanos(50));
        rank_span(Category::Idle, "idle", t(5), t(9));
        span_args(
            1000,
            2,
            Category::GpuKernel,
            "flux",
            t(0),
            t(7),
            &[("elems", 64)],
        );
        kernel_launch("flux", 64, 0, SimDuration::from_nanos(7), true, 0.5);
        let c = uninstall().unwrap();
        assert!(!is_enabled());
        assert_eq!(c.metrics.counter(Counter::MpiSends), 2);
        assert_eq!(c.metrics.counter(Counter::GpuKernelLaunches), 1);
        assert_eq!(c.spans.len(), 2);
        assert_eq!(c.spans[0].pid, 3);
        assert_eq!(c.spans[1].args, vec![("elems", 64)]);
        assert_eq!(c.kernels.get("flux").unwrap().total_ns(), 7);
    }

    #[test]
    fn spans_can_be_disabled_independently() {
        install(Collector::new(0).without_spans());
        rank_span(Category::Idle, "idle", t(0), t(5));
        count(Counter::Cycles, 1);
        let c = uninstall().unwrap();
        assert!(c.spans.is_empty());
        assert_eq!(c.metrics.counter(Counter::Cycles), 1);
    }

    #[test]
    fn inverted_spans_clamp() {
        install(Collector::new(0));
        span(0, 0, Category::Phase, "p", t(20), t(10));
        let c = uninstall().unwrap();
        assert_eq!(c.spans[0].dur, SimDuration::ZERO);
        assert_eq!(c.spans[0].ts, t(20));
    }
}
