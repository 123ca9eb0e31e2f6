//! Per-kernel profiler keyed by the `hsim-raja` kernel-registry names.

use std::collections::BTreeMap;

use hsim_time::{SimDuration, Welford};

use crate::metrics::fmt_f64;

/// Aggregated statistics for one named kernel.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    pub name: &'static str,
    /// Total dispatches (host + device).
    pub launches: u64,
    /// Dispatches that ran on a device timeline.
    pub gpu_launches: u64,
    /// Total elements swept.
    pub elems: u64,
    /// Bytes moved on behalf of this kernel (staging + migration).
    pub bytes_moved: u64,
    /// Exact total virtual duration in nanoseconds.
    pub total_ns: u64,
    /// Per-launch virtual duration distribution (samples in seconds,
    /// as [`Welford::push_duration`] stores them).
    pub time_ns: Welford,
    /// Effective occupancy (share of device rate) when on-device;
    /// 1.0 recorded for host launches.
    pub occupancy: Welford,
}

impl KernelProfile {
    fn new(name: &'static str) -> Self {
        KernelProfile {
            name,
            launches: 0,
            gpu_launches: 0,
            elems: 0,
            bytes_moved: 0,
            total_ns: 0,
            time_ns: Welford::new(),
            occupancy: Welford::new(),
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.time_ns.count() == 0 {
            0.0
        } else {
            // Welford samples are seconds; export in nanoseconds to
            // match `total_ns`.
            self.time_ns.mean() * 1e9
        }
    }

    fn merge(&mut self, other: &KernelProfile) {
        self.launches += other.launches;
        self.gpu_launches += other.gpu_launches;
        self.elems += other.elems;
        self.bytes_moved += other.bytes_moved;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.time_ns.merge(&other.time_ns);
        self.occupancy.merge(&other.occupancy);
    }
}

/// The profiler: one [`KernelProfile`] per kernel name.
#[derive(Debug, Clone, Default)]
pub struct KernelProfiles {
    map: BTreeMap<&'static str, KernelProfile>,
}

impl KernelProfiles {
    pub fn new() -> Self {
        KernelProfiles::default()
    }

    #[inline]
    pub fn record_launch(
        &mut self,
        name: &'static str,
        elems: u64,
        bytes: u64,
        dur: SimDuration,
        on_gpu: bool,
        occupancy: f64,
    ) {
        let p = self
            .map
            .entry(name)
            .or_insert_with(|| KernelProfile::new(name));
        p.launches += 1;
        if on_gpu {
            p.gpu_launches += 1;
        }
        p.elems += elems;
        p.bytes_moved += bytes;
        p.total_ns = p.total_ns.saturating_add(dur.as_nanos());
        p.time_ns.push_duration(dur);
        p.occupancy.push(occupancy);
    }

    pub fn get(&self, name: &str) -> Option<&KernelProfile> {
        self.map.get(name)
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn total_launches(&self) -> u64 {
        self.map.values().map(|p| p.launches).sum()
    }

    pub fn merge(&mut self, other: &KernelProfiles) {
        for (name, p) in &other.map {
            self.map
                .entry(name)
                .or_insert_with(|| KernelProfile::new(name))
                .merge(p);
        }
    }

    /// Profiles sorted by name — the deterministic export order
    /// (free: the backing map is a `BTreeMap` keyed by name).
    pub fn sorted(&self) -> Vec<&KernelProfile> {
        self.map.values().collect()
    }

    /// Deterministic JSON array fragment.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, p) in self.sorted().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"launches\": {}, \"gpu_launches\": {}, \
                 \"elems\": {}, \"bytes_moved\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
                 \"occupancy_mean\": {}}}",
                p.name,
                p.launches,
                p.gpu_launches,
                p.elems,
                p.bytes_moved,
                p.total_ns(),
                fmt_f64(p.mean_ns()),
                fmt_f64(if p.occupancy.count() == 0 {
                    0.0
                } else {
                    p.occupancy.mean()
                }),
            ));
        }
        out.push_str("\n  ]");
        out
    }

    /// CSV export, one row per kernel.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("kernel,launches,gpu_launches,elems,bytes_moved,total_ns,mean_ns\n");
        for p in self.sorted() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                p.name,
                p.launches,
                p.gpu_launches,
                p.elems,
                p.bytes_moved,
                p.total_ns(),
                fmt_f64(p.mean_ns()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = KernelProfiles::new();
        let mut b = KernelProfiles::new();
        a.record_launch("flux_x", 100, 800, SimDuration::from_nanos(500), true, 0.9);
        b.record_launch("flux_x", 100, 800, SimDuration::from_nanos(700), false, 1.0);
        b.record_launch("eos", 50, 0, SimDuration::from_nanos(100), false, 1.0);
        a.merge(&b);
        let p = a.get("flux_x").unwrap();
        assert_eq!(p.launches, 2);
        assert_eq!(p.gpu_launches, 1);
        assert_eq!(p.elems, 200);
        assert_eq!(p.total_ns(), 1200);
        assert_eq!(a.total_launches(), 3);
    }

    #[test]
    fn export_is_sorted_by_name() {
        let mut k = KernelProfiles::new();
        k.record_launch("zeta", 1, 0, SimDuration::from_nanos(1), false, 1.0);
        k.record_launch("alpha", 1, 0, SimDuration::from_nanos(1), false, 1.0);
        let csv = k.to_csv();
        let alpha = csv.find("alpha").unwrap();
        let zeta = csv.find("zeta").unwrap();
        assert!(alpha < zeta);
        let json = k.to_json();
        assert!(json.find("alpha").unwrap() < json.find("zeta").unwrap());
    }
}
