//! The device: its capability sheet, a launch queue feeding the
//! rate-sharing timeline, its counters and its unified memory.
//!
//! A `Device` is used bulk-synchronously by the runner: ranks submit
//! kernel launches during a phase (each submit returns the host-side
//! launch overhead to charge), then `run_pending` simulates the
//! device's execution of the whole batch and reports each launch it
//! ran: its kernel, stream, interval and occupancy.
//!
//! A launch names its stream by its client's index on the device: 0 on
//! a device one rank owns, `0..n` for the `n` ranks sharing it through
//! MPS, whose launches pay the elevated MPS overhead (paper §2).

use crate::kernel::{occupancy, KernelDesc, KernelShape};
use crate::memory::UnifiedMemory;
use crate::spec::DeviceSpec;
use crate::timeline::{Epoch, Job, RateSharingTimeline};
use hsim_time::{advanced, Overflow, SimDuration, SimTime};

/// Receipt for one kernel submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchTicket {
    /// Identifier echoed in the corresponding [`Executed`].
    pub job: u64,
    /// Host-side launch overhead the submitting rank must charge.
    pub overhead: SimDuration,
}

/// One launch in a device's queue: the timeline's job, and the kernel
/// it runs over how many elements.
#[derive(Debug, Clone)]
pub struct Queued {
    pub job: Job,
    pub kernel: &'static str,
    pub elems: u64,
}

/// One launch a device has run.
#[derive(Debug, Clone, PartialEq)]
pub struct Executed {
    pub id: u64,
    pub stream: u64,
    pub kernel: &'static str,
    pub elems: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// The share of the device rate it ran at on average — its work
    /// over its elapsed time, capped at 1 — or its occupancy cap when
    /// it took no time.
    pub occupancy: f64,
}

impl AsRef<Job> for Queued {
    fn as_ref(&self) -> &Job {
        &self.job
    }
}

/// One simulated GPU.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    timeline: RateSharingTimeline,
    pending: Vec<Queued>,
    /// What resolving the queue works in, reused epoch after epoch.
    epoch: Epoch,
    /// The launch overhead of an MPS client: the sheet's, scaled.
    mps_overhead: SimDuration,
    next_job: u64,
    total_launches: u64,
    busy: SimDuration,
    um: UnifiedMemory,
}

impl Device {
    pub fn new(spec: DeviceSpec) -> Self {
        let um = UnifiedMemory::new(&spec);
        Device {
            timeline: RateSharingTimeline::with_contention(1.0, spec.sharing_penalty),
            mps_overhead: spec.launch_overhead.mul_f64(spec.mps_launch_factor),
            spec,
            pending: Vec::new(),
            epoch: Epoch::default(),
            next_job: 0,
            total_launches: 0,
            busy: SimDuration::ZERO,
            um,
        }
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Submit one kernel launch on `stream` at simulated instant `at`.
    /// `mps` — the device is shared through MPS — applies the MPS
    /// launch-overhead factor.
    pub fn submit(
        &mut self,
        stream: usize,
        desc: &KernelDesc,
        shape: KernelShape,
        at: SimTime,
        mps: bool,
    ) -> LaunchTicket {
        let overhead = if mps {
            self.mps_overhead
        } else {
            self.spec.launch_overhead
        };
        let job = self.next_job;
        self.next_job += 1;
        self.total_launches += 1;
        self.pending.push(Queued {
            job: Job {
                id: job,
                stream: stream as u64,
                // The kernel cannot start before the host finishes the
                // submit path.
                arrival: at + overhead,
                work: desc.roofline_time(&self.spec, shape.elems).as_secs_f64(),
                max_rate: occupancy(&self.spec, shape),
            },
            kernel: desc.name,
            elems: shape.elems,
        });
        LaunchTicket { job, overhead }
    }

    /// The launches queued for the next [`Device::run_pending`].
    pub fn pending(&self) -> &[Queued] {
        &self.pending
    }

    /// Execute every pending launch on the rate-sharing timeline, in
    /// place: hand what each ran to `ran`, in submission order, and
    /// clear the queue. The device's cumulative busy time is updated.
    ///
    /// The batch is resolved relative to its earliest arrival: the
    /// timeline works in `f64` seconds and rounds to a nanosecond, so
    /// in absolute time a batch shifted by whole nanoseconds could
    /// round differently. Rebased in integer nanoseconds, the same
    /// launches at the same offsets take the same time whenever they
    /// run — what lets a run add a repeated cycle up instead of
    /// stepping it.
    pub fn run_pending(&mut self, mut ran: impl FnMut(Executed)) {
        let Some(first) = self.pending.iter().map(|q| q.job.arrival).min() else {
            return;
        };
        let since = first - SimTime::ZERO;
        self.timeline.resolve(&self.pending, first, &mut self.epoch);
        for (q, &(start, end)) in self.pending.iter().zip(self.epoch.spans()) {
            let (start, end) = (start + since, end + since);
            self.busy += end - start;
            let elapsed = (end - start).as_secs_f64();
            let occupancy = if elapsed > 0.0 {
                (q.job.work / elapsed).clamp(0.0, 1.0)
            } else {
                q.job.max_rate
            };
            ran(Executed {
                id: q.job.id,
                stream: q.job.stream,
                kernel: q.kernel,
                elems: q.elems,
                start,
                end,
                occupancy,
            });
        }
        self.pending.clear();
    }

    /// Account `times` more repetitions of a period in which the device
    /// was busy for `busy` over `launches` launches, all of them
    /// resolved. Job ids just continue from where they are: nothing
    /// reads one across an epoch.
    pub fn advance(
        &mut self,
        busy: SimDuration,
        launches: u64,
        times: u64,
    ) -> Result<(), Overflow> {
        self.total_launches = advanced(self.total_launches, launches, times)?;
        self.busy = SimDuration(advanced(self.busy.0, busy.0, times)?);
        Ok(())
    }

    /// Lifetime launch count (reporting).
    pub fn total_launches(&self) -> u64 {
        self.total_launches
    }

    /// Cumulative per-job busy time (overlapped jobs double-count;
    /// this is an activity metric, not a utilization bound).
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    pub fn um_mut(&mut self) -> &mut UnifiedMemory {
        &mut self.um
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_k80())
    }

    /// What a batch ran, in submission order.
    fn ran(d: &mut Device) -> Vec<Executed> {
        let mut out = Vec::new();
        d.run_pending(|k| out.push(k));
        out
    }

    /// When the last of a batch's kernels ends.
    fn last_end(d: &mut Device) -> SimTime {
        ran(d)
            .iter()
            .map(|o| o.end)
            .fold(SimTime::ZERO, SimTime::merge)
    }

    #[test]
    fn run_pending_executes_in_stream_order() {
        let mut d = device();
        let k = KernelDesc::new("k", 50.0, 8.0);
        let shape = KernelShape::new(5_000_000, 320);
        let t1 = d.submit(0, &k, shape, SimTime::ZERO, false);
        let t2 = d.submit(0, &k, shape, SimTime::ZERO, false);
        let out = ran(&mut d);
        assert_eq!(out.len(), 2);
        let o1 = out.iter().find(|o| o.id == t1.job).unwrap();
        let o2 = out.iter().find(|o| o.id == t2.job).unwrap();
        assert!(o2.start >= o1.end, "same-stream kernels serialize");
        assert!(d.pending().is_empty());
        assert!(d.busy() > SimDuration::ZERO);
    }

    #[test]
    fn launch_overhead_delays_arrival() {
        let mut d = device();
        let k = KernelDesc::new("k", 50.0, 8.0);
        let shape = KernelShape::new(1_000_000, 320);
        let ticket = d.submit(0, &k, shape, SimTime::from_nanos(1000), false);
        assert_eq!(ticket.overhead, DeviceSpec::tesla_k80().launch_overhead);
        let out = ran(&mut d);
        assert!(out[0].start >= SimTime::from_nanos(1000) + ticket.overhead);
    }

    #[test]
    fn mps_launch_pays_elevated_overhead() {
        let mut d = device();
        let k = KernelDesc::new("k", 10.0, 8.0);
        let ticket = d.submit(0, &k, KernelShape::new(1_000_000, 64), SimTime::ZERO, true);
        let spec = DeviceSpec::tesla_k80();
        let base = spec.launch_overhead;
        assert!(ticket.overhead > base);
        let expect = base.mul_f64(spec.mps_launch_factor);
        assert_eq!(ticket.overhead, expect);
    }

    #[test]
    fn small_kernels_from_many_clients_overlap() {
        // The core MPS effect: four clients launching small-x kernels
        // finish sooner than one rank doing all the work serially.
        let k = KernelDesc::new("k", 60.0, 16.0);
        let zones_total: u64 = 8_000_000;
        let inner = 40; // small innermost dimension: low occupancy

        // Serial reference: one exclusive rank, all zones, one stream.
        let mut d1 = device();
        d1.submit(
            0,
            &k,
            KernelShape::new(zones_total, inner),
            SimTime::ZERO,
            false,
        );
        let serial_end = last_end(&mut d1);

        // MPS: four clients each with a quarter of the zones.
        let mut d2 = device();
        for c in 0..4 {
            let shape = KernelShape::new(zones_total / 4, inner);
            d2.submit(c, &k, shape, SimTime::ZERO, true);
        }
        let mps_end = last_end(&mut d2);

        assert!(
            mps_end < serial_end,
            "MPS {mps_end} should beat serial {serial_end} for small-x kernels"
        );
    }

    #[test]
    fn large_kernels_gain_nothing_from_mps() {
        // With a large innermost dimension the solo kernel nearly fills
        // the device; MPS splitting adds launch overhead and slightly
        // lower per-kernel occupancy, so it must NOT win.
        let k = KernelDesc::new("k", 60.0, 16.0);
        let zones_total: u64 = 32_000_000;
        let inner = 600;

        let mut d1 = device();
        d1.submit(
            0,
            &k,
            KernelShape::new(zones_total, inner),
            SimTime::ZERO,
            false,
        );
        let serial_end = last_end(&mut d1);

        let mut d2 = device();
        for c in 0..4 {
            let shape = KernelShape::new(zones_total / 4, inner);
            d2.submit(c, &k, shape, SimTime::ZERO, true);
        }
        let mps_end = last_end(&mut d2);

        // Allow a small tolerance: they should be within a few percent,
        // with MPS not meaningfully ahead.
        let ratio = (mps_end - SimTime::ZERO).ratio(serial_end - SimTime::ZERO);
        assert!(
            ratio > 0.97,
            "MPS should not win for large kernels: {ratio}"
        );
    }

    #[test]
    fn advancing_by_a_period_is_running_it_again() {
        let k = KernelDesc::new("k", 50.0, 8.0);
        let period = |d: &mut Device, at: SimTime| {
            let shape = KernelShape::new(1_000_000, 320);
            d.submit(0, &k, shape, at, false);
            d.submit(0, &k, shape, at, false);
            let ends = ran(d);
            ends.iter().map(|o| o.end).fold(at, SimTime::merge)
        };
        let mut once = device();
        period(&mut once, SimTime::ZERO);
        let (busy, launches) = (once.busy(), once.total_launches());
        let mut stepped = device();
        let mut at = SimTime::ZERO;
        for _ in 0..4 {
            at = period(&mut stepped, at);
        }
        once.advance(busy, launches, 3).unwrap();
        let read = |d: &Device| (d.busy(), d.total_launches());
        assert_eq!(read(&once), (stepped.busy(), 8));
        assert_eq!(once.advance(busy, launches, u64::MAX / 2), Err(Overflow));
    }

    #[test]
    fn an_epoch_takes_the_same_time_whenever_it_runs() {
        // 1800 elements in rows of 40 occupy 2/53 of a K80, so 119 ns
        // of work last 3153.5 ns: an end that rounds up or down with
        // the absolute time unless the epoch is resolved from its own
        // start.
        let k = KernelDesc::new("k", 1.0, 15.9);
        let shape = KernelShape::new(1800, 40);
        let epoch = |at: SimTime| {
            let mut d = device();
            assert_eq!(
                k.roofline_time(d.spec(), 1800),
                SimDuration::from_nanos(119)
            );
            for s in 0..3 {
                let later = at + SimDuration::from_nanos(700 * s as u64);
                d.submit(s, &k, shape, later, false);
                d.submit(s, &k, shape, later, false);
            }
            let spans = ran(&mut d);
            let offsets: Vec<_> = spans.iter().map(|o| (o.start - at, o.end - at)).collect();
            (offsets, d.busy())
        };
        let at_zero = epoch(SimTime::ZERO);
        for at in [1, 2, 7_777_777, 129_795_560, 1_000_000_000_001] {
            assert_eq!(epoch(SimTime::from_nanos(at)), at_zero, "at {at}");
        }
    }

    #[test]
    fn launch_counter_accumulates() {
        let mut d = device();
        let k = KernelDesc::new("k", 1.0, 1.0);
        for _ in 0..5 {
            d.submit(0, &k, KernelShape::new(100, 10), SimTime::ZERO, false);
        }
        assert_eq!(ran(&mut d).len(), 5);
        assert_eq!(d.total_launches(), 5);
    }

    #[test]
    fn unified_memory_available_through_device() {
        let mut d = device();
        let cost = d.um_mut().alloc_and_touch(1 << 20);
        assert!(cost > SimDuration::ZERO);
    }
}
