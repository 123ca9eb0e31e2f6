//! End-of-run merge of per-rank collectors into one deterministic
//! [`Summary`], plus its exports (Chrome JSON, and metrics JSON with
//! the run's kernel table); [`crate::gantt`] draws its spans.

use std::collections::BTreeSet;

use hsim_time::Overflow;

use crate::chrome::to_chrome_json;
use crate::collector::Collector;
use crate::metrics::{Counter, Metrics};
use crate::profile::KernelTable;
use crate::span::{sort_spans, SpanEvent};

/// Schema version stamped into the metrics JSON export.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// Merged telemetry for a whole run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// All spans, in canonical deterministic order.
    pub spans: Vec<SpanEvent>,
    pub metrics: Metrics,
}

impl Summary {
    /// Merge rank collectors. The input order does not matter: spans
    /// are re-sorted into a canonical order and metric merges are
    /// commutative in every exported field, so the exports are
    /// byte-identical however the ranks' resumes interleaved.
    pub fn from_collectors(collectors: impl IntoIterator<Item = Collector>) -> Summary {
        let mut s = Summary::default();
        let mut parts: Vec<Collector> = collectors.into_iter().collect();
        // Merge in rank order so Welford accumulation (not exactly
        // associative in floating point) sees a fixed sequence.
        parts.sort_by_key(|c| c.rank);
        for c in parts {
            s.spans.extend(c.spans);
            s.metrics.merge(&c.metrics);
        }
        sort_spans(&mut s.spans);
        s
    }

    /// Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        to_chrome_json(&self.spans)
    }

    /// Write the four kernel counters from the run's kernel table:
    /// launches (host and device), elements.
    pub fn count_kernels(&mut self, kernels: &KernelTable) -> Result<(), Overflow> {
        let all = kernels.totals()?;
        self.metrics.count(Counter::KernelLaunches, all.launches);
        self.metrics
            .count(Counter::GpuKernelLaunches, all.gpu_launches);
        let host = all.launches - all.gpu_launches;
        self.metrics.count(Counter::CpuKernelLaunches, host);
        self.metrics.count(Counter::KernelElements, all.elems);
        Ok(())
    }

    /// Metrics and the run's kernel table as one JSON document.
    pub fn to_metrics_json(&self, kernels: &KernelTable) -> String {
        let metrics = self.metrics.to_json();
        // Splice the kernels array into the metrics object: drop the
        // object's closing brace and append the extra fields.
        let body = metrics.trim_end().trim_end_matches('}');
        format!(
            "{body},\n  \"schema_version\": {METRICS_SCHEMA_VERSION},\n  \"kernels\": {}\n}}\n",
            kernels.to_json()
        )
    }

    /// The distinct Chrome category names present in the span stream.
    pub fn categories(&self) -> BTreeSet<&'static str> {
        self.spans.iter().map(|s| s.cat.chrome_name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Category;
    use hsim_time::{SimDuration, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn collector_with(rank: usize, spans: Vec<SpanEvent>) -> Collector {
        let mut c = Collector::new(rank);
        c.spans = spans;
        c.metrics.count(Counter::Cycles, 1);
        c
    }

    fn ev(pid: u32, cat: Category, name: &'static str, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            pid,
            tid: 0,
            cat,
            name,
            ts: t(ts),
            dur: SimDuration::from_nanos(dur),
            args: Vec::new(),
        }
    }

    #[test]
    fn merge_is_order_independent_byte_for_byte() {
        let a = || collector_with(0, vec![ev(0, Category::CpuKernel, "busy", 0, 10)]);
        let b = || collector_with(1, vec![ev(1, Category::Idle, "idle", 0, 4)]);
        let s1 = Summary::from_collectors(vec![a(), b()]);
        let s2 = Summary::from_collectors(vec![b(), a()]);
        assert_eq!(s1.to_chrome_json(), s2.to_chrome_json());
        let none = KernelTable::new();
        assert_eq!(s1.to_metrics_json(&none), s2.to_metrics_json(&none));
        assert_eq!(s1.metrics.counter(Counter::Cycles), 2);
    }

    #[test]
    fn metrics_json_contains_schema_and_kernels() {
        let mut s = Summary::from_collectors(vec![collector_with(0, vec![])]);
        let mut kernels = KernelTable::new();
        kernels
            .record_host("eos", 8, SimDuration::from_nanos(5))
            .unwrap();
        kernels.record_gpu_launch("flux", 4).unwrap();
        s.count_kernels(&kernels).unwrap();
        assert_eq!(s.metrics.counter(Counter::KernelLaunches), 2);
        assert_eq!(s.metrics.counter(Counter::CpuKernelLaunches), 1);
        assert_eq!(s.metrics.counter(Counter::KernelElements), 12);
        let json = s.to_metrics_json(&kernels);
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("\"kernels\": [\n    {\"name\": \"eos\""));
    }

    #[test]
    fn categories_lists_distinct_chrome_names() {
        let s = Summary::from_collectors(vec![collector_with(
            0,
            vec![
                ev(0, Category::CpuKernel, "a", 0, 1),
                ev(0, Category::MpiMessage, "b", 1, 1),
                ev(0, Category::MpiMessage, "c", 2, 1),
            ],
        )]);
        let cats = s.categories();
        assert_eq!(cats.len(), 2);
        assert!(cats.contains("mpi_message"));
    }
}
