//! The per-kernel table: exact integer sums per kernel name.
//!
//! Every executor keeps one, telemetry or not; the runner merges them
//! into the run's table, which the metrics JSON renders and the four
//! kernel counters are written from. The runner uses it to report the
//! Figure 11 caption's claim ("a hydrodynamics calculation with 80
//! kernels"). Its sums are integers, so a period of cycles adds up
//! into it exactly ([`KernelTable::since`], [`KernelTable::advance`]),
//! and every addition is checked.

use hsim_time::{Overflow, SimDuration};

use crate::metrics::fmt_f64;

/// Occupancy 1.0 in the fixed point of [`KernelSums::occupancy`].
pub const OCCUPANCY_ONE: u128 = 1 << 52;

/// The sums kept for one kernel name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSums {
    /// Dispatches, host and device, counted at launch.
    pub launches: u64,
    /// Dispatches onto a device timeline, counted at launch.
    pub gpu_launches: u64,
    /// Elements swept.
    pub elems: u64,
    /// Virtual duration: a host launch's at launch, a device launch's
    /// at the sync that resolves it.
    pub total_ns: u64,
    /// Effective occupancy (share of device rate), in units of
    /// [`OCCUPANCY_ONE`]; a host launch counts 1.0.
    pub occupancy: u128,
}

impl KernelSums {
    /// A device launch's run, resolved at a sync: its virtual duration
    /// and the share of the device rate it ran at.
    pub fn gpu_run(dur: SimDuration, occupancy: f64) -> KernelSums {
        KernelSums {
            total_ns: dur.as_nanos(),
            // At most 1.0, so the truncated fixed point fits a `u64`.
            occupancy: u128::from((occupancy * OCCUPANCY_ONE as f64) as u64),
            ..KernelSums::default()
        }
    }

    /// Both sums added up, or `None` if one of them overflows.
    pub fn checked_add(self, other: KernelSums) -> Option<KernelSums> {
        Some(KernelSums {
            launches: self.launches.checked_add(other.launches)?,
            gpu_launches: self.gpu_launches.checked_add(other.gpu_launches)?,
            elems: self.elems.checked_add(other.elems)?,
            total_ns: self.total_ns.checked_add(other.total_ns)?,
            occupancy: self.occupancy.checked_add(other.occupancy)?,
        })
    }

    fn checked_mul(self, times: u64) -> Option<KernelSums> {
        Some(KernelSums {
            launches: self.launches.checked_mul(times)?,
            gpu_launches: self.gpu_launches.checked_mul(times)?,
            elems: self.elems.checked_mul(times)?,
            total_ns: self.total_ns.checked_mul(times)?,
            occupancy: self.occupancy.checked_mul(times.into())?,
        })
    }

    /// Mean virtual duration per launch, in ns.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.launches)
    }

    /// Mean occupancy per launch.
    pub fn occupancy_mean(&self) -> f64 {
        ratio(self.occupancy as f64 / OCCUPANCY_ONE as f64, self.launches)
    }
}

fn ratio(sum: f64, launches: u64) -> f64 {
    if launches == 0 {
        0.0
    } else {
        sum / launches as f64
    }
}

/// Slots of a [`KernelTable`]'s row index: twice the kernels a run
/// names, so that probes stay short.
const SLOTS: usize = 32;

/// One [`KernelSums`] per kernel name, in name order.
#[derive(Debug, Clone, Default)]
pub struct KernelTable {
    /// Sorted by name, each name once.
    rows: Vec<(&'static str, KernelSums)>,
    /// An open-addressed index from a hash of each name to its row.
    /// An entry is checked against the row before it is used, so one
    /// that a later insertion has shifted only costs a search; hash 0
    /// marks a free slot.
    index: [(u64, usize); SLOTS],
}

/// Two tables are equal when their rows are: the index is a cache.
impl PartialEq for KernelTable {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for KernelTable {}

impl KernelTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the row of `name` is, or would be inserted, by search.
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.rows.binary_search_by(|(row, _)| (*row).cmp(name))
    }

    /// The row of `name`, found through the index (and recorded there),
    /// inserted if it is new.
    fn row(&mut self, name: &'static str) -> usize {
        // A hash of the text's length and its first, middle and last
        // bytes, never 0.
        let text = name.as_bytes();
        let byte = |at: usize| u64::from(text.get(at).copied().unwrap_or(0));
        let len = text.len();
        let mixed =
            len as u64 | byte(0) << 16 | byte(len / 2) << 24 | byte(len.wrapping_sub(1)) << 32;
        let key = mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut slot = (key >> 32) as usize % SLOTS;
        for _ in 0..SLOTS {
            let (hash, at) = self.index[slot];
            if hash == key {
                // A kernel descriptor's `&'static str`, which every
                // launch of the kernel passes: the address matches,
                // unless another crate placed the text elsewhere.
                let same = |(row, _): &(&str, _)| std::ptr::eq(*row, name) || *row == name;
                if self.rows.get(at).is_some_and(same) {
                    return at;
                }
                break;
            }
            if hash == 0 {
                break;
            }
            slot = (slot + 1) % SLOTS;
        }
        // A name not indexed, an index full of other names, a shifted
        // row, or two names of one hash.
        let at = self.search(name).unwrap_or_else(|at| {
            self.rows.insert(at, (name, KernelSums::default()));
            at
        });
        if matches!(self.index[slot].0, 0) || self.index[slot].0 == key {
            self.index[slot] = (key, at);
        }
        at
    }

    /// Add `sums` to the row of `name`: what one or more of its
    /// launches did.
    pub fn add(&mut self, name: &'static str, sums: KernelSums) -> Result<(), Overflow> {
        let at = self.row(name);
        let row = &mut self.rows[at].1;
        *row = row.checked_add(sums).ok_or(Overflow)?;
        Ok(())
    }

    /// One launch run on the host: counted, timed, at occupancy 1.0.
    pub fn record_host(
        &mut self,
        name: &'static str,
        elems: u64,
        dur: SimDuration,
    ) -> Result<(), Overflow> {
        let sums = KernelSums {
            launches: 1,
            elems,
            total_ns: dur.as_nanos(),
            occupancy: OCCUPANCY_ONE,
            ..KernelSums::default()
        };
        self.add(name, sums)
    }

    /// One launch onto a device, counted when it is queued; its time
    /// is added at the sync that resolves it ([`KernelSums::gpu_run`]).
    pub fn record_gpu_launch(&mut self, name: &'static str, elems: u64) -> Result<(), Overflow> {
        let sums = KernelSums {
            launches: 1,
            gpu_launches: 1,
            elems,
            ..KernelSums::default()
        };
        self.add(name, sums)
    }

    /// The row of `name`.
    pub fn get(&self, name: &str) -> Option<&KernelSums> {
        self.search(name).ok().map(|at| &self.rows[at].1)
    }

    /// Total launches across kernels.
    pub fn total_launches(&self) -> u64 {
        self.rows.iter().map(|(_, s)| s.launches).sum()
    }

    /// Every row added up.
    pub fn totals(&self) -> Result<KernelSums, Overflow> {
        let mut all = KernelSums::default();
        for (_, sums) in &self.rows {
            all = all.checked_add(*sums).ok_or(Overflow)?;
        }
        Ok(all)
    }

    /// What was recorded since the reading `earlier` of this table, as
    /// a table of its own.
    pub fn since(&self, earlier: &KernelTable) -> KernelTable {
        let rows = self.rows.iter().map(|&(name, now)| {
            let was = earlier.get(name).copied().unwrap_or_default();
            let grown = KernelSums {
                launches: now.launches - was.launches,
                gpu_launches: now.gpu_launches - was.gpu_launches,
                elems: now.elems - was.elems,
                total_ns: now.total_ns - was.total_ns,
                occupancy: now.occupancy - was.occupancy,
            };
            (name, grown)
        });
        KernelTable {
            rows: rows.collect(),
            ..KernelTable::default()
        }
    }

    /// Record `times` more repetitions of `period` (a growth taken with
    /// [`KernelTable::since`]).
    pub fn advance(&mut self, period: &KernelTable, times: u64) -> Result<(), Overflow> {
        for &(name, step) in &period.rows {
            self.add(name, step.checked_mul(times).ok_or(Overflow)?)?;
        }
        Ok(())
    }

    /// Add another table's rows to this one's.
    pub fn merge(&mut self, other: &KernelTable) -> Result<(), Overflow> {
        self.advance(other, 1)
    }

    /// Reset every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Deterministic JSON array fragment, one object per kernel in
    /// name order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, p)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{name}\", \"launches\": {}, \"gpu_launches\": {}, \
                 \"elems\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"occupancy_mean\": {}}}",
                p.launches,
                p.gpu_launches,
                p.elems,
                p.total_ns,
                fmt_f64(p.mean_ns()),
                fmt_f64(p.occupancy_mean()),
            ));
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn host_and_device_launches_accumulate_per_kernel() {
        let mut t = KernelTable::new();
        t.record_host("eos", 100, ns(500)).unwrap();
        t.record_gpu_launch("eos", 100).unwrap();
        t.record_host("force", 50, ns(100)).unwrap();
        t.add("eos", KernelSums::gpu_run(ns(700), 0.5)).unwrap();
        assert_eq!(t.total_launches(), 3);
        let eos = t.get("eos").unwrap();
        assert_eq!((eos.launches, eos.gpu_launches, eos.elems), (2, 1, 200));
        assert_eq!(eos.total_ns, 1200);
        assert_eq!(eos.mean_ns(), 600.0);
        assert_eq!(eos.occupancy, OCCUPANCY_ONE + OCCUPANCY_ONE / 2);
        assert_eq!(eos.occupancy_mean(), 0.75);
        let all = t.totals().unwrap();
        assert_eq!((all.launches, all.elems, all.total_ns), (3, 250, 1300));
    }

    #[test]
    fn export_is_sorted_by_name() {
        let mut t = KernelTable::new();
        t.record_host("zeta", 1, ns(1)).unwrap();
        t.record_host("alpha", 1, ns(1)).unwrap();
        let json = t.to_json();
        assert!(json.find("alpha").unwrap() < json.find("zeta").unwrap());
        assert!(json.contains("\"mean_ns\": 1, \"occupancy_mean\": 1}"));
    }

    #[test]
    fn advancing_by_a_period_is_recording_it_again() {
        let mut t = KernelTable::new();
        t.record_host("setup", 7, ns(3)).unwrap();
        let before = t.clone();
        let cycle = |t: &mut KernelTable| {
            t.record_host("eos", 100, ns(40)).unwrap();
            t.record_gpu_launch("flux", 50).unwrap();
            t.record_gpu_launch("flux", 50).unwrap();
            t.add("flux", KernelSums::gpu_run(ns(9), 0.3)).unwrap();
            t.add("flux", KernelSums::gpu_run(ns(11), 0.7)).unwrap();
        };
        cycle(&mut t);
        let period = t.since(&before);
        assert_eq!(period.total_launches(), 3);
        assert_eq!(period.get("flux").unwrap().total_ns, 20);
        let mut stepped = t.clone();
        (0..4).for_each(|_| cycle(&mut stepped));
        t.advance(&period, 4).unwrap();
        assert_eq!(t, stepped);

        // Each sum is checked: the launch count, the ns and the
        // occupancy each overflow on their own, and a failed advance
        // is an error, not a saturated sum.
        assert_eq!(t.advance(&period, u64::MAX / 2), Err(Overflow));
        let mut long = KernelTable::new();
        long.add("k", KernelSums::gpu_run(ns(u64::MAX), 0.0))
            .unwrap();
        assert_eq!(
            long.add("k", KernelSums::gpu_run(ns(1), 0.0)),
            Err(Overflow)
        );
        let mut busy = KernelTable::new();
        busy.add("k", KernelSums::gpu_run(ns(0), 1.0)).unwrap();
        assert_eq!(busy.advance(&busy.clone(), u64::MAX), Ok(()));
        let full = busy.get("k").unwrap().occupancy;
        assert_eq!(full, OCCUPANCY_ONE << 64);
        let mut merged = busy.clone();
        for _ in 0..11 {
            merged.merge(&merged.clone()).unwrap();
        }
        assert_eq!(merged.merge(&merged.clone()), Err(Overflow));
    }

    #[test]
    fn the_row_index_is_only_a_cache() {
        // More names than the index has slots, inserted out of order so
        // that rows shift under recorded entries, and one name's text at
        // a second address: every launch still lands on its name's row.
        let names: Vec<&'static str> = (0..2 * SLOTS)
            .map(|i| &*Box::leak(format!("k{:02}", (i * 7) % (2 * SLOTS)).into_boxed_str()))
            .collect();
        let mut t = KernelTable::new();
        for round in 0..3 {
            for (i, &name) in names.iter().enumerate() {
                t.record_host(name, i as u64, ns(1)).unwrap();
            }
            let again: &'static str = Box::leak(names[5].to_string().into_boxed_str());
            t.record_host(again, 0, ns(1)).unwrap();
            assert_eq!(t.get(names[5]).unwrap().launches, 2 * (round + 1));
        }
        assert_eq!(t.total_launches(), 3 * (2 * SLOTS as u64 + 1));
        for (i, &name) in names.iter().enumerate() {
            assert_eq!(t.get(name).unwrap().elems, 3 * i as u64, "{name}");
        }
        let json = t.to_json();
        assert!(json.find("\"k00\"").unwrap() < json.find("\"k01\"").unwrap());
    }

    #[test]
    fn merge_adds_rows_and_clear_resets() {
        let mut a = KernelTable::new();
        let mut b = KernelTable::new();
        a.record_host("flux_x", 100, ns(500)).unwrap();
        b.record_gpu_launch("flux_x", 100).unwrap();
        b.add("flux_x", KernelSums::gpu_run(ns(700), 0.9)).unwrap();
        b.record_host("eos", 50, ns(100)).unwrap();
        a.merge(&b).unwrap();
        let p = a.get("flux_x").unwrap();
        assert_eq!(
            (p.launches, p.gpu_launches, p.elems, p.total_ns),
            (2, 1, 200, 1200)
        );
        assert_eq!(a.total_launches(), 3);
        a.clear();
        assert_eq!(a.total_launches(), 0);
    }
}
