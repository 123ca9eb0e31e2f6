//! Per-rank virtual clocks.
//!
//! Each simulated MPI rank owns a [`RankClock`]. Compute and
//! communication charge durations to it; a synchronization point
//! advances it to the later of the two instants (`wait_until`, the
//! Lamport `max`) and books the gap as waiting. Every advance lands in
//! exactly one per-category bucket, so the buckets partition the
//! clock's reading and the reporting layer can attribute time to
//! compute / communication / launch overhead / memory traffic, which
//! is how the paper's discussion reasons about the modes.

use crate::time::{advanced, Overflow, SimDuration, SimTime};

/// Broad attribution buckets for charged time.
///
/// These mirror the cost terms the paper identifies: kernel compute,
/// kernel-launch overhead, data transfer / memory traffic, MPI
/// communication, and host-side serial control code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChargeKind {
    /// Arithmetic inside a kernel (CPU or GPU).
    Compute,
    /// Kernel launch overhead (host → device submit path).
    Launch,
    /// Memory traffic: UM migration, host staging, pool operations.
    Memory,
    /// MPI point-to-point and collective time.
    Comm,
    /// Serial host control code between kernels.
    Control,
    /// Time spent waiting on another rank or on the device.
    Wait,
}

impl ChargeKind {
    /// All kinds, in reporting order.
    pub const ALL: [ChargeKind; 6] = [
        ChargeKind::Compute,
        ChargeKind::Launch,
        ChargeKind::Memory,
        ChargeKind::Comm,
        ChargeKind::Control,
        ChargeKind::Wait,
    ];

    fn index(self) -> usize {
        match self {
            ChargeKind::Compute => 0,
            ChargeKind::Launch => 1,
            ChargeKind::Memory => 2,
            ChargeKind::Comm => 3,
            ChargeKind::Control => 4,
            ChargeKind::Wait => 5,
        }
    }

    /// Short label used in CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            ChargeKind::Compute => "compute",
            ChargeKind::Launch => "launch",
            ChargeKind::Memory => "memory",
            ChargeKind::Comm => "comm",
            ChargeKind::Control => "control",
            ChargeKind::Wait => "wait",
        }
    }
}

/// The virtual clock owned by one simulated rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankClock {
    rank: usize,
    now: SimTime,
    buckets: [SimDuration; 6],
}

impl RankClock {
    /// A fresh clock at the simulated epoch.
    pub fn new(rank: usize) -> Self {
        RankClock {
            rank,
            now: SimTime::ZERO,
            buckets: [SimDuration::ZERO; 6],
        }
    }

    /// The rank this clock belongs to.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Charge `d` of kind `kind`, advancing the clock.
    #[inline]
    pub fn charge(&mut self, kind: ChargeKind, d: SimDuration) {
        self.now += d;
        self.buckets[kind.index()] += d;
    }

    /// Advance to `t` if it is in the future, attributing the gap to
    /// [`ChargeKind::Wait`]. Used when a receive or a device
    /// synchronization blocks until another timeline catches up.
    pub fn wait_until(&mut self, t: SimTime) {
        if t > self.now {
            let gap = t - self.now;
            self.now = t;
            self.buckets[ChargeKind::Wait.index()] += gap;
        }
    }

    /// Time accumulated in one bucket.
    #[inline]
    pub fn bucket(&self, kind: ChargeKind) -> SimDuration {
        self.buckets[kind.index()]
    }

    /// This clock's growth since the reading `earlier` of it, as a
    /// clock that read zero then: `now` is the time elapsed, each
    /// bucket its share. The buckets of a difference partition its
    /// `now` as those of any clock do.
    pub fn since(&self, earlier: &RankClock) -> RankClock {
        RankClock {
            rank: self.rank,
            now: SimTime::ZERO + (self.now - earlier.now),
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
        }
    }

    /// Advance by `times` repetitions of `period` (a growth taken with
    /// [`RankClock::since`]): what charging and waiting through that
    /// period `times` more would leave, in exact integer nanoseconds.
    pub fn advance(&mut self, period: &RankClock, times: u64) -> Result<(), Overflow> {
        self.now = SimTime(advanced(self.now.0, period.now.0, times)?);
        // The buckets sum to `now` on both sides, so none can pass it.
        for (bucket, step) in self.buckets.iter_mut().zip(&period.buckets) {
            bucket.0 += step.0 * times;
        }
        Ok(())
    }

    /// A snapshot of (kind, duration) pairs in reporting order.
    pub fn breakdown(&self) -> Vec<(ChargeKind, SimDuration)> {
        ChargeKind::ALL
            .iter()
            .map(|&k| (k, self.buckets[k.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_advances_and_attributes() {
        let mut c = RankClock::new(3);
        c.charge(ChargeKind::Compute, SimDuration::from_nanos(100));
        c.charge(ChargeKind::Comm, SimDuration::from_nanos(40));
        assert_eq!(c.rank(), 3);
        assert_eq!(c.now(), SimTime::from_nanos(140));
        assert_eq!(c.bucket(ChargeKind::Compute), SimDuration::from_nanos(100));
        assert_eq!(c.bucket(ChargeKind::Comm), SimDuration::from_nanos(40));
        assert_eq!(c.bucket(ChargeKind::Launch), SimDuration::ZERO);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = RankClock::new(0);
        c.charge(ChargeKind::Compute, SimDuration::from_nanos(50));
        c.wait_until(SimTime::from_nanos(30)); // in the past: no-op
        assert_eq!(c.now(), SimTime::from_nanos(50));
        assert_eq!(c.bucket(ChargeKind::Wait), SimDuration::ZERO);
        c.wait_until(SimTime::from_nanos(80));
        assert_eq!(c.now(), SimTime::from_nanos(80));
        assert_eq!(c.bucket(ChargeKind::Wait), SimDuration::from_nanos(30));
    }

    #[test]
    fn advancing_by_a_period_is_charging_it_again() {
        let mut c = RankClock::new(1);
        c.charge(ChargeKind::Memory, SimDuration::from_nanos(9));
        let before = c.clone();
        let cycle = |c: &mut RankClock| {
            c.charge(ChargeKind::Compute, SimDuration::from_nanos(100));
            c.wait_until(c.now() + SimDuration::from_nanos(7));
        };
        cycle(&mut c);
        let period = c.since(&before);
        assert_eq!(period.now(), SimTime::from_nanos(107));
        assert_eq!(period.bucket(ChargeKind::Memory), SimDuration::ZERO);
        let mut stepped = c.clone();
        (0..5).for_each(|_| cycle(&mut stepped));
        c.advance(&period, 5).unwrap();
        assert_eq!(c, stepped);
        let sum: SimDuration = c.breakdown().into_iter().map(|(_, d)| d).sum();
        assert_eq!(SimTime::ZERO + sum, c.now(), "the buckets partition now");
        c.advance(&period, 0).unwrap();
        assert_eq!(c, stepped);
        assert_eq!(c.advance(&period, u64::MAX / 2), Err(Overflow));
    }

    #[test]
    fn breakdown_reports_all_kinds_in_order() {
        let mut c = RankClock::new(0);
        c.charge(ChargeKind::Memory, SimDuration::from_nanos(7));
        let bd = c.breakdown();
        assert_eq!(bd.len(), 6);
        assert_eq!(bd[2], (ChargeKind::Memory, SimDuration::from_nanos(7)));
        assert!(bd.iter().all(|(k, _)| ChargeKind::ALL.contains(k)));
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = ChargeKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
