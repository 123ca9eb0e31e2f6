//! Per-kernel launch statistics.
//!
//! The runner uses these to report the Figure 11 caption's claim ("a
//! hydrodynamics calculation with 80 kernels").

use std::collections::BTreeMap;

use hsim_time::{advanced, Overflow};

/// Aggregate statistics for one kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    pub name: &'static str,
    pub launches: u64,
    pub elems: u64,
}

/// Registry of all kernels a rank has launched.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KernelRegistry {
    stats: BTreeMap<&'static str, KernelStats>,
}

impl KernelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one launch of `name` over `elems` elements.
    pub fn record_launch(&mut self, name: &'static str, elems: u64) {
        let entry = Self::entry(&mut self.stats, name);
        entry.launches += 1;
        entry.elems += elems;
    }

    fn entry<'a>(
        stats: &'a mut BTreeMap<&'static str, KernelStats>,
        name: &'static str,
    ) -> &'a mut KernelStats {
        stats.entry(name).or_insert_with(|| KernelStats {
            name,
            launches: 0,
            elems: 0,
        })
    }

    /// Total launches across kernels.
    pub fn total_launches(&self) -> u64 {
        self.stats.values().map(|s| s.launches).sum()
    }

    /// Stats sorted by launch count (descending), then name. The
    /// backing `BTreeMap` already iterates in name order, so the sort
    /// is a stable reorder with a deterministic tie-break built in.
    pub fn report(&self) -> Vec<KernelStats> {
        let mut v: Vec<KernelStats> = self.stats.values().cloned().collect();
        v.sort_by(|a, b| b.launches.cmp(&a.launches).then(a.name.cmp(b.name)));
        v
    }

    /// What was recorded since the reading `earlier` of this registry,
    /// as a registry of its own.
    pub fn since(&self, earlier: &KernelRegistry) -> KernelRegistry {
        let stats = self.stats.iter().map(|(&name, now)| {
            let (launches, elems) = earlier
                .stats
                .get(name)
                .map_or((0, 0), |was| (was.launches, was.elems));
            let grown = KernelStats {
                name,
                launches: now.launches - launches,
                elems: now.elems - elems,
            };
            (name, grown)
        });
        KernelRegistry {
            stats: stats.collect(),
        }
    }

    /// Record `times` more repetitions of `period` (a growth taken
    /// with [`KernelRegistry::since`]).
    pub fn advance(&mut self, period: &KernelRegistry, times: u64) -> Result<(), Overflow> {
        for (&name, step) in &period.stats {
            let entry = Self::entry(&mut self.stats, name);
            entry.launches = advanced(entry.launches, step.launches, times)?;
            entry.elems = advanced(entry.elems, step.elems, times)?;
        }
        Ok(())
    }

    /// Reset all statistics (cycle boundary).
    pub fn clear(&mut self) {
        self.stats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launches_accumulate_per_kernel() {
        let mut r = KernelRegistry::new();
        r.record_launch("eos", 100);
        r.record_launch("eos", 100);
        r.record_launch("force", 50);
        assert_eq!(r.total_launches(), 3);
        let report = r.report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "eos");
        assert_eq!(report[0].elems, 200);
    }

    #[test]
    fn report_breaks_ties_by_name() {
        let mut r = KernelRegistry::new();
        r.record_launch("b", 1);
        r.record_launch("a", 1);
        let names: Vec<_> = r.report().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn advancing_by_a_period_is_recording_it_again() {
        let mut r = KernelRegistry::new();
        r.record_launch("setup", 7);
        let before = r.clone();
        let cycle = |r: &mut KernelRegistry| {
            r.record_launch("eos", 100);
            r.record_launch("eos", 100);
            r.record_launch("force", 50);
        };
        cycle(&mut r);
        let period = r.since(&before);
        assert_eq!(period.total_launches(), 3);
        let mut stepped = r.clone();
        (0..4).for_each(|_| cycle(&mut stepped));
        r.advance(&period, 4).unwrap();
        assert_eq!(r, stepped);
        assert_eq!(r.advance(&period, u64::MAX / 2), Err(Overflow));
    }

    #[test]
    fn clear_resets() {
        let mut r = KernelRegistry::new();
        r.record_launch("x", 1);
        r.clear();
        assert_eq!(r.total_launches(), 0);
    }
}
