//! The device facade: contexts, streams, memory, and a launch queue
//! feeding the rate-sharing timeline.
//!
//! A `Device` is used bulk-synchronously by the runner: ranks submit
//! kernel launches during a phase (each submit returns the host-side
//! launch overhead to charge), then `run_pending` simulates the
//! device's execution of the whole batch and reports per-job outcomes.

use crate::context::{Context, ContextId, ContextOwner, ContextTable};
use crate::error::GpuError;
use crate::kernel::{occupancy, KernelDesc, KernelShape};
use crate::memory::{DeviceHeap, UnifiedMemory};
use crate::spec::DeviceSpec;
use crate::stream::{Stream, StreamId, StreamTable};
use crate::timeline::{Job, JobOutcome, RateSharingTimeline};
use hsim_time::{advanced, Overflow, SimDuration, SimTime};

/// Receipt for one kernel submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchTicket {
    /// Identifier echoed in the corresponding [`JobOutcome`].
    pub job: u64,
    /// Host-side launch overhead the submitting rank must charge.
    pub overhead: SimDuration,
}

/// One simulated GPU.
#[derive(Debug)]
pub struct Device {
    id: usize,
    spec: DeviceSpec,
    contexts: ContextTable,
    streams: StreamTable,
    heap: DeviceHeap,
    um: UnifiedMemory,
    pending: Vec<Job>,
    next_job: u64,
    total_launches: u64,
    busy: SimDuration,
}

impl Device {
    pub fn new(id: usize, spec: DeviceSpec) -> Self {
        let heap = DeviceHeap::new(spec.mem_capacity);
        let um = UnifiedMemory::new(&spec);
        Device {
            id,
            spec,
            contexts: ContextTable::new(),
            streams: StreamTable::new(),
            heap,
            um,
            pending: Vec::new(),
            next_job: 0,
            total_launches: 0,
            busy: SimDuration::ZERO,
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Create an exclusive context for `process` (the Default mode's
    /// one-rank-per-GPU arrangement).
    pub fn create_context(&mut self, process: usize) -> Result<Context, GpuError> {
        self.contexts.create_exclusive(self.id, process)
    }

    /// Create the MPS server's shared context (used by [`crate::mps`]).
    pub fn create_mps_context(&mut self) -> Result<Context, GpuError> {
        self.contexts.create_mps(self.id)
    }

    pub fn destroy_context(&mut self, id: ContextId) -> Result<(), GpuError> {
        self.contexts.destroy(id)?;
        self.streams.destroy_for_context(id);
        Ok(())
    }

    pub fn active_context(&self) -> Option<Context> {
        self.contexts.active()
    }

    pub fn create_stream(&mut self, ctx: ContextId) -> Result<Stream, GpuError> {
        self.contexts.check(ctx)?;
        Ok(self.streams.create(ctx))
    }

    /// Submit one kernel launch at simulated instant `at`.
    ///
    /// `via_mps` applies the MPS launch-overhead factor; it is set by
    /// the MPS server's launch path and must agree with the context
    /// owner.
    pub fn submit(
        &mut self,
        ctx: ContextId,
        stream: StreamId,
        desc: &KernelDesc,
        shape: KernelShape,
        at: SimTime,
        via_mps: bool,
    ) -> Result<LaunchTicket, GpuError> {
        let context = self.contexts.check(ctx)?;
        self.streams.check(stream, ctx)?;
        if via_mps != matches!(context.owner, ContextOwner::MpsServer) {
            return Err(GpuError::InvalidContext);
        }
        let overhead = if via_mps {
            self.spec
                .launch_overhead
                .mul_f64(self.spec.mps_launch_factor)
        } else {
            self.spec.launch_overhead
        };
        let job = self.next_job;
        self.next_job += 1;
        self.total_launches += 1;
        self.pending.push(Job {
            id: job,
            stream: stream.0,
            // The kernel cannot start before the host finishes the
            // submit path.
            arrival: at + overhead,
            work: desc.roofline_time(&self.spec, shape.elems).as_secs_f64(),
            max_rate: occupancy(&self.spec, shape),
        });
        Ok(LaunchTicket { job, overhead })
    }

    /// The queued launches themselves (profilers read `work` and
    /// `max_rate` before [`Device::run_pending`] clears the queue).
    pub fn pending_jobs(&self) -> &[Job] {
        &self.pending
    }

    /// Execute every pending launch on the rate-sharing timeline.
    /// Returns per-job outcomes (in submission order) and clears the
    /// queue. The device's cumulative busy time is updated.
    ///
    /// The batch is resolved relative to its earliest arrival: the
    /// timeline works in `f64` seconds and rounds to a nanosecond, so
    /// in absolute time a batch shifted by whole nanoseconds could
    /// round differently. Rebased in integer nanoseconds, the same
    /// launches at the same offsets take the same time whenever they
    /// run — what lets a run add a repeated cycle up instead of
    /// stepping it.
    pub fn run_pending(&mut self) -> Vec<JobOutcome> {
        let tl = RateSharingTimeline::with_contention(1.0, self.spec.sharing_penalty);
        let first = self.pending.iter().map(|j| j.arrival).min();
        let first = first.unwrap_or(SimTime::ZERO);
        let since = first - SimTime::ZERO;
        for job in &mut self.pending {
            job.arrival = SimTime::ZERO + (job.arrival - first);
        }
        let mut outcomes = tl.simulate(&self.pending);
        for o in &mut outcomes {
            (o.start, o.end) = (o.start + since, o.end + since);
            self.busy += o.end - o.start;
        }
        self.pending.clear();
        outcomes
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

    pub fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    pub fn heap_mut(&mut self) -> &mut DeviceHeap {
        &mut self.heap
    }

    pub fn um(&self) -> &UnifiedMemory {
        &self.um
    }

    pub fn um_mut(&mut self) -> &mut UnifiedMemory {
        &mut self.um
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(0, DeviceSpec::tesla_k80())
    }

    #[test]
    fn submit_requires_valid_context_and_stream() {
        let mut d = device();
        let ctx = d.create_context(7).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        let k = KernelDesc::new("k", 10.0, 8.0);
        let shape = KernelShape::new(1_000_000, 320);
        assert!(d
            .submit(ctx.id, s.id, &k, shape, SimTime::ZERO, false)
            .is_ok());
        assert_eq!(
            d.submit(ContextId(99), s.id, &k, shape, SimTime::ZERO, false)
                .unwrap_err(),
            GpuError::InvalidContext
        );
        assert_eq!(
            d.submit(ctx.id, StreamId(99), &k, shape, SimTime::ZERO, false)
                .unwrap_err(),
            GpuError::InvalidStream
        );
    }

    #[test]
    fn mps_flag_must_match_context_owner() {
        let mut d = device();
        let ctx = d.create_context(7).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        let k = KernelDesc::new("k", 10.0, 8.0);
        let shape = KernelShape::new(1_000, 32);
        assert!(d
            .submit(ctx.id, s.id, &k, shape, SimTime::ZERO, true)
            .is_err());
    }

    #[test]
    fn run_pending_executes_in_stream_order() {
        let mut d = device();
        let ctx = d.create_context(0).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        let k = KernelDesc::new("k", 50.0, 8.0);
        let shape = KernelShape::new(5_000_000, 320);
        let t1 = d
            .submit(ctx.id, s.id, &k, shape, SimTime::ZERO, false)
            .unwrap();
        let t2 = d
            .submit(ctx.id, s.id, &k, shape, SimTime::ZERO, false)
            .unwrap();
        let out = d.run_pending();
        assert_eq!(out.len(), 2);
        let o1 = out.iter().find(|o| o.id == t1.job).unwrap();
        let o2 = out.iter().find(|o| o.id == t2.job).unwrap();
        assert!(o2.start >= o1.end, "same-stream kernels serialize");
        assert!(d.pending_jobs().is_empty());
        assert!(d.busy() > SimDuration::ZERO);
    }

    #[test]
    fn launch_overhead_delays_arrival() {
        let mut d = device();
        let ctx = d.create_context(0).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        let k = KernelDesc::new("k", 50.0, 8.0);
        let shape = KernelShape::new(1_000_000, 320);
        let ticket = d
            .submit(ctx.id, s.id, &k, shape, SimTime::from_nanos(1000), false)
            .unwrap();
        assert_eq!(ticket.overhead, DeviceSpec::tesla_k80().launch_overhead);
        let out = d.run_pending();
        assert!(out[0].start >= SimTime::from_nanos(1000) + ticket.overhead);
    }

    #[test]
    fn destroying_context_removes_streams() {
        let mut d = device();
        let ctx = d.create_context(0).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        d.destroy_context(ctx.id).unwrap();
        let ctx2 = d.create_context(1).unwrap();
        assert_eq!(
            d.submit(
                ctx2.id,
                s.id,
                &KernelDesc::new("k", 1.0, 1.0),
                KernelShape::new(1, 1),
                SimTime::ZERO,
                false
            )
            .unwrap_err(),
            GpuError::InvalidStream
        );
    }

    #[test]
    fn advancing_by_a_period_is_running_it_again() {
        let k = KernelDesc::new("k", 50.0, 8.0);
        let open = || {
            let mut d = device();
            let ctx = d.create_context(0).unwrap();
            let s = d.create_stream(ctx.id).unwrap();
            (d, ctx.id, s.id)
        };
        let period = |(d, ctx, s): &mut (Device, ContextId, StreamId), at: SimTime| {
            let shape = KernelShape::new(1_000_000, 320);
            d.submit(*ctx, *s, &k, shape, at, false).unwrap();
            d.submit(*ctx, *s, &k, shape, at, false).unwrap();
            let ends = d.run_pending();
            ends.iter().map(|o| o.end).fold(at, SimTime::merge)
        };
        let mut once = open();
        period(&mut once, SimTime::ZERO);
        let (busy, launches) = (once.0.busy(), once.0.total_launches());
        let mut stepped = open();
        let mut at = SimTime::ZERO;
        for _ in 0..4 {
            at = period(&mut stepped, at);
        }
        once.0.advance(busy, launches, 3).unwrap();
        let read = |d: &Device| (d.busy(), d.total_launches());
        assert_eq!(read(&once.0), (stepped.0.busy(), 8));
        assert_eq!(once.0.advance(busy, launches, u64::MAX / 2), Err(Overflow));
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
            let ctx = d.create_context(0).unwrap();
            for i in 0..3 {
                let s = d.create_stream(ctx.id).unwrap().id;
                let later = at + SimDuration::from_nanos(700 * i);
                d.submit(ctx.id, s, &k, shape, later, false).unwrap();
                d.submit(ctx.id, s, &k, shape, later, false).unwrap();
            }
            let spans = d.run_pending();
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
        let ctx = d.create_context(0).unwrap();
        let s = d.create_stream(ctx.id).unwrap();
        let k = KernelDesc::new("k", 1.0, 1.0);
        for _ in 0..5 {
            d.submit(
                ctx.id,
                s.id,
                &k,
                KernelShape::new(100, 10),
                SimTime::ZERO,
                false,
            )
            .unwrap();
        }
        d.run_pending();
        assert_eq!(d.total_launches(), 5);
    }
}
