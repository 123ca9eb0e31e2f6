//! The rate-sharing device timeline.
//!
//! A GPU executes concurrent kernels by interleaving their blocks over
//! its SMs. We model the device as a single resource of capacity 1.0
//! "device-rates": each resident kernel is a *malleable job* with
//!
//! * `work` — its roofline execution time in device-seconds (the time
//!   it would take at full efficiency),
//! * `max_rate` — its occupancy (see [`crate::kernel::occupancy`]): the
//!   largest fraction of the device it can use by itself.
//!
//! At any instant the device divides its capacity over the active jobs
//! by **water-filling**: every job gets `min(max_rate, λ)` where λ is
//! the common share that exhausts capacity (or every job gets its cap
//! when the device is underfilled). Consequences, which are exactly the
//! paper's observations about MPS:
//!
//! * one resident kernel with occupancy `e` runs at rate `e` — a small
//!   kernel wastes `1 − e` of the device;
//! * `R` co-resident kernels with occupancy `e` run concurrently at
//!   total rate `min(1, R·e)` — overlap reclaims idle capacity when
//!   `e < 1`, and does nothing (except add launch overhead) when a
//!   single kernel already fills the device.
//!
//! Jobs in the same **stream** serialize (CUDA in-order streams); jobs
//! in different streams may overlap.

use hsim_time::SimTime;

/// One kernel submission to the timeline.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: u64,
    /// Stream the job belongs to; same-stream jobs execute in
    /// submission order.
    pub stream: u64,
    /// Earliest simulated instant the job may start (its launch time).
    pub arrival: SimTime,
    /// Roofline execution time at full device rate, in seconds.
    pub work: f64,
    /// Occupancy cap in `(0, 1]`.
    pub max_rate: f64,
}

/// Completion record for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub id: u64,
    pub start: SimTime,
    pub end: SimTime,
}

/// An event-driven rate-sharing simulator for one device.
#[derive(Debug, Clone)]
pub struct RateSharingTimeline {
    /// Device capacity in "device-rates"; 1.0 for a whole GPU.
    capacity: f64,
    /// Per-extra-resident capacity derate (cache/DRAM contention
    /// between co-resident kernels); 0 = ideal sharing.
    contention: f64,
}

/// Marks the end of a stream's chain of jobs.
const END: usize = usize::MAX;

/// A job that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
struct Active {
    idx: usize,
    /// Its stream's lane.
    lane: usize,
    remaining: f64,
    max_rate: f64,
    rate: f64,
}

/// One stream of an epoch: its jobs, chained in input order.
#[derive(Debug, Clone, Copy)]
struct Lane {
    stream: u64,
    /// The next job to dispatch, or [`END`].
    head: usize,
    /// The last job chained so far.
    tail: usize,
    /// The head's arrival, in seconds after the epoch's base.
    head_at: f64,
    /// Earliest start of the head: its predecessor's end, infinite
    /// while the predecessor runs.
    free: f64,
}

/// What resolving a batch of jobs works in, kept from one batch to the
/// next so that a device resolves each epoch without allocating (once
/// it has seen its largest epoch).
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    lanes: Vec<Lane>,
    /// Per job, the next job of its stream, or [`END`].
    next: Vec<usize>,
    active: Vec<Active>,
    /// The water-fill's ascending-cap order over `active`.
    order: Vec<usize>,
    /// Per job, in input order, when it started and ended, counted
    /// from the base.
    spans: Vec<(SimTime, SimTime)>,
    /// Passes of the event loop in the last batch.
    passes: usize,
    /// Those of them that neither retired nor started a job.
    stalls: usize,
}

impl Epoch {
    /// Per job of the last batch, in input order, its start and end
    /// counted from the base it was resolved against.
    pub fn spans(&self) -> &[(SimTime, SimTime)] {
        &self.spans
    }

    /// Passes the event loop took over the last batch.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Passes of the last batch that neither retired nor started a job.
    /// Every other pass does one or the other, so a batch of `n` jobs
    /// takes at most `2n + stalls` passes. A stall needs a clock past
    /// 2^12 s, where one ulp of it approaches the 1e-12 retirement
    /// threshold: a completing job's residue is then above that
    /// threshold and still moves the clock, and a later pass retires
    /// it.
    pub fn stalls(&self) -> usize {
        self.stalls
    }

    /// Chain `jobs` into one lane per stream, in order of first
    /// appearance.
    fn chain<J: AsRef<Job>>(&mut self, jobs: &[J], base: SimTime) {
        self.lanes.clear();
        self.active.clear();
        self.next.clear();
        self.next.resize(jobs.len(), END);
        self.spans.clear();
        self.spans
            .resize(jobs.len(), (SimTime::ZERO, SimTime::ZERO));
        self.passes = 0;
        self.stalls = 0;
        let mut last = 0;
        for (i, j) in jobs.iter().enumerate() {
            let stream = j.as_ref().stream;
            if self.lanes.get(last).map_or(true, |l| l.stream != stream) {
                match self.lanes.iter().position(|l| l.stream == stream) {
                    Some(at) => last = at,
                    None => {
                        last = self.lanes.len();
                        self.lanes.push(Lane {
                            stream,
                            head: i,
                            tail: i,
                            head_at: seconds(j.as_ref(), base),
                            free: 0.0,
                        });
                        continue;
                    }
                }
            }
            let lane = &mut self.lanes[last];
            self.next[lane.tail] = i;
            lane.tail = i;
        }
    }

    /// Start every stream head that is ready at `now`, in lane order; a
    /// zero-work job ends as it starts and unblocks its successor at
    /// once. Returns how many started and how many of those ended.
    fn dispatch<J: AsRef<Job>>(
        &mut self,
        jobs: &[J],
        base: SimTime,
        now: f64,
        capacity: f64,
    ) -> (usize, usize) {
        let (mut started, mut ended) = (0, 0);
        for (at, lane) in self.lanes.iter_mut().enumerate() {
            while lane.head != END {
                let ready = lane.head_at.max(lane.free);
                if ready > now + 1e-15 {
                    break;
                }
                let idx = lane.head;
                lane.head = self.next[idx];
                if lane.head != END {
                    lane.head_at = seconds(jobs[lane.head].as_ref(), base);
                }
                let start = SimTime::from_nanos((ready * 1e9).round() as u64);
                let j = jobs[idx].as_ref();
                started += 1;
                if j.work <= 0.0 {
                    self.spans[idx] = (start, start);
                    lane.free = ready;
                    ended += 1;
                    continue;
                }
                self.spans[idx].0 = start;
                self.active.push(Active {
                    idx,
                    lane: at,
                    remaining: j.work,
                    max_rate: j.max_rate.clamp(1e-9, capacity),
                    rate: 0.0,
                });
                // In-order stream: the successor waits for this job.
                lane.free = f64::INFINITY;
                break;
            }
        }
        (started, ended)
    }

    /// The earliest instant a stream head not held up by a running
    /// predecessor may start.
    fn next_arrival(&self) -> f64 {
        let mut next = f64::INFINITY;
        for lane in &self.lanes {
            if lane.head != END && lane.free.is_finite() {
                next = next.min(lane.head_at.max(lane.free));
            }
        }
        next
    }
}

/// A job's arrival in seconds after `base`.
fn seconds(j: &Job, base: SimTime) -> f64 {
    (j.arrival - base).as_nanos() as f64 * 1e-9
}

impl AsRef<Job> for Job {
    fn as_ref(&self) -> &Job {
        self
    }
}

impl RateSharingTimeline {
    pub fn new() -> Self {
        RateSharingTimeline {
            capacity: 1.0,
            contention: 0.0,
        }
    }

    /// A timeline with non-unit capacity (used in tests and for
    /// modelling partitioned devices).
    pub fn with_capacity(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        RateSharingTimeline {
            capacity,
            contention: 0.0,
        }
    }

    /// A timeline whose aggregate rate with `n` concurrent jobs is
    /// `capacity · (1 − contention·(n−1))`, floored at 80%.
    pub fn with_contention(capacity: f64, contention: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        RateSharingTimeline {
            capacity,
            contention: contention.clamp(0.0, 0.2),
        }
    }

    /// Simulate a batch of jobs to completion. Returns one outcome per
    /// job, in the input order.
    ///
    /// Same-stream jobs are serialized in their *input order* (their
    /// `arrival` values still apply as lower bounds). `work == 0` jobs
    /// complete instantaneously at their effective start time.
    pub fn simulate(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        let mut epoch = Epoch::default();
        self.resolve(jobs, SimTime::ZERO, &mut epoch);
        let spans = epoch.spans.iter();
        let outcome = |(j, &(start, end)): (&Job, _)| JobOutcome {
            id: j.id,
            start,
            end,
        };
        jobs.iter().zip(spans).map(outcome).collect()
    }

    /// [`RateSharingTimeline::simulate`] in place: resolve `jobs` with
    /// every arrival counted from `base` (none may precede it), leaving
    /// each job's start and end, from `base`, in [`Epoch::spans`].
    ///
    /// One event loop: each pass moves the clock to the next event — the
    /// earliest completion at the water-filled rates, or the earliest
    /// arrival — retires the jobs it completes and starts the stream
    /// heads it makes ready. Each pass retires a job or starts one,
    /// except for the rare stall [`Epoch::stalls`] counts. A single
    /// stream costs O(1) per pass.
    pub fn resolve<J: AsRef<Job>>(&self, jobs: &[J], base: SimTime, epoch: &mut Epoch) {
        epoch.chain(jobs, base);
        let n = jobs.len();
        let mut now = 0.0f64;
        let (_, mut done) = epoch.dispatch(jobs, base, now, self.capacity);
        while done < n {
            epoch.passes += 1;
            let next_arrival = epoch.next_arrival();
            let mut ended = 0;
            if epoch.active.is_empty() {
                // Idle gap: jump to the next arrival.
                debug_assert!(
                    next_arrival.is_finite(),
                    "deadlock: no active jobs and no pending arrivals"
                );
                now = next_arrival.max(now);
            } else {
                // Water-fill rates over the active set, derated for
                // cross-client contention.
                let active = &mut epoch.active;
                let eff_capacity = if active.len() > 1 {
                    let derate = 1.0 - self.contention * (active.len() - 1) as f64;
                    self.capacity * derate.max(0.8)
                } else {
                    self.capacity
                };
                water_fill(active, &mut epoch.order, eff_capacity);

                // Earliest completion under current rates.
                let mut next_completion = f64::INFINITY;
                for a in active.iter() {
                    let t = now + a.remaining / a.rate;
                    next_completion = next_completion.min(t);
                }
                let horizon = next_completion.min(next_arrival.max(now));
                let dt = (horizon - now).max(0.0);
                for a in active.iter_mut() {
                    a.remaining -= a.rate * dt;
                }
                now = horizon;

                // Retire completed jobs and release their streams. A
                // job is complete when its residue is spent or can no
                // longer move the clock: `dt` cannot be smaller than
                // one ulp of `now`, so a residue below that would never
                // be advanced. A residue over `rate · now · 1e-15` takes
                // more than four ulps of `now` to run, so only one
                // below that bound needs the division.
                let mut i = 0;
                while i < active.len() {
                    let a = &active[i];
                    let spent = a.remaining <= 1e-12
                        || (a.remaining <= a.rate * now * 1e-15
                            && now + a.remaining / a.rate <= now);
                    if spent {
                        let a = active.swap_remove(i);
                        epoch.spans[a.idx].1 = SimTime::from_nanos((now * 1e9).round() as u64);
                        epoch.lanes[a.lane].free = now;
                        ended += 1;
                    } else {
                        i += 1;
                    }
                }
            }
            let (started, zero_work) = epoch.dispatch(jobs, base, now, self.capacity);
            if ended + started == 0 {
                epoch.stalls += 1;
            }
            done += ended + zero_work;
        }
    }

    /// Convenience: the makespan (latest end) of a batch.
    pub fn makespan(&self, jobs: &[Job]) -> SimTime {
        self.simulate(jobs)
            .iter()
            .map(|o| o.end)
            .fold(SimTime::ZERO, SimTime::merge)
    }
}

impl Default for RateSharingTimeline {
    fn default() -> Self {
        Self::new()
    }
}

/// Assign each active job a rate `min(max_rate, λ)` such that the total
/// equals `min(capacity, Σ max_rate)`, filling in ascending-cap order
/// (`order` is scratch).
fn water_fill(active: &mut [Active], order: &mut Vec<usize>, capacity: f64) {
    let total_cap: f64 = active.iter().map(|a| a.max_rate).sum();
    if total_cap <= capacity {
        for a in active.iter_mut() {
            a.rate = a.max_rate;
        }
        return;
    }
    // Indices by max_rate ascending, ties in active order: a stable
    // insertion sort, in place.
    order.clear();
    order.extend(0..active.len());
    for i in 1..order.len() {
        let mut at = i;
        while at > 0
            && active[order[at - 1]]
                .max_rate
                .total_cmp(&active[i].max_rate)
                .is_gt()
        {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = i;
    }
    let mut remaining = capacity;
    let mut left = active.len();
    // Filling in ascending-cap order: once a job is capped below the
    // fair share, the remainder is redistributed over the larger jobs.
    for &i in order.iter() {
        let fair = remaining / left as f64;
        let r = active[i].max_rate.min(fair);
        active[i].rate = r;
        remaining -= r;
        left -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, stream: u64, arrival_ns: u64, work: f64, rate: f64) -> Job {
        Job {
            id,
            stream,
            arrival: SimTime::from_nanos(arrival_ns),
            work,
            max_rate: rate,
        }
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_full_rate_job_runs_at_capacity() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 0, 2.0, 1.0)]);
        assert!((secs(out[0].end) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_low_occupancy_job_is_slower() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 0, 2.0, 0.5)]);
        assert!((secs(out[0].end) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn co_resident_small_kernels_overlap() {
        // Four kernels of 0.25 device-seconds each, occupancy 0.4:
        // alone they'd serialize to 4 * 0.25/0.4 = 2.5 s; water-filled
        // they run at total rate 1.0 (capped) and finish in 1.0 s.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 0.25, 0.4)).collect();
        let out = tl.simulate(&jobs);
        let makespan = out.iter().map(|o| secs(o.end)).fold(0.0, f64::max);
        assert!((makespan - 1.0).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn co_resident_large_kernels_gain_nothing() {
        // Occupancy 1.0 kernels cannot overlap usefully: four 0.25 s
        // jobs still take 1.0 s total (fair sharing), the same as
        // serialized execution.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 0.25, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn same_stream_jobs_serialize() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 7, 0, 1.0, 1.0), job(2, 7, 0, 1.0, 1.0)];
        let out = tl.simulate(&jobs);
        assert!((secs(out[0].end) - 1.0).abs() < 1e-9);
        assert!((secs(out[1].start) - 1.0).abs() < 1e-9);
        assert!((secs(out[1].end) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn different_streams_with_low_occupancy_share() {
        // Two streams, each two 0.5-occupancy jobs: the device runs two
        // jobs at rate 0.5 each, so each pair of 1.0-work jobs takes
        // 2.0 s, and both streams finish at 4.0 s.
        let tl = RateSharingTimeline::new();
        let jobs = vec![
            job(1, 0, 0, 1.0, 0.5),
            job(2, 0, 0, 1.0, 0.5),
            job(3, 1, 0, 1.0, 0.5),
            job(4, 1, 0, 1.0, 0.5),
        ];
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 4.0).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn arrivals_are_respected() {
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&[job(1, 0, 3_000_000_000, 1.0, 1.0)]);
        assert!((secs(out[0].start) - 3.0).abs() < 1e-9);
        assert!((secs(out[0].end) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_between_arrivals() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.5, 1.0), job(2, 1, 5_000_000_000, 0.5, 1.0)];
        let out = tl.simulate(&jobs);
        assert!((secs(out[0].end) - 0.5).abs() < 1e-9);
        assert!((secs(out[1].start) - 5.0).abs() < 1e-9);
        assert!((secs(out[1].end) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn zero_work_jobs_complete_instantly_in_order() {
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.0, 1.0), job(2, 0, 0, 1.0, 1.0)];
        let out = tl.simulate(&jobs);
        assert_eq!(out[0].start, out[0].end);
        assert!((secs(out[1].end) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_residue_below_one_ulp_of_the_clock_retires() {
        // At t = 50 000 s one ulp of `now` is 7.3 ps: a 0.1 s job's
        // rounding residue can no longer advance the clock, so it must
        // retire instead of stepping by zero for ever.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let tl = RateSharingTimeline::new();
            let _ = tx.send(tl.simulate(&[job(1, 0, 50_000_000_000_000, 0.1, 1.0)]));
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the timeline spins");
        assert!((secs(out[0].end) - 50_000.1).abs() < 1e-6);
    }

    #[test]
    fn empty_batch_is_fine() {
        let tl = RateSharingTimeline::new();
        assert!(tl.simulate(&[]).is_empty());
        assert_eq!(tl.makespan(&[]), SimTime::ZERO);
    }

    #[test]
    fn preemption_by_later_arrival_shares_fairly() {
        // Job A (rate 1.0, work 2.0) starts alone; at t=1 job B
        // (rate 1.0, work 0.5) arrives. From t=1 they share 0.5/0.5:
        // B finishes at t=2.0, A has 0.5 left and finishes at 2.5.
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 2.0, 1.0), job(2, 1, 1_000_000_000, 0.5, 1.0)];
        let out = tl.simulate(&jobs);
        assert!(
            (secs(out[1].end) - 2.0).abs() < 1e-6,
            "B end {}",
            secs(out[1].end)
        );
        assert!(
            (secs(out[0].end) - 2.5).abs() < 1e-6,
            "A end {}",
            secs(out[0].end)
        );
    }

    #[test]
    fn heterogeneous_caps_water_fill_correctly() {
        // Caps 0.2 and 0.9 with capacity 1.0: total cap 1.1 > 1, so
        // λ solves min(0.2,λ)+min(0.9,λ)=1 → λ=0.8. Job1 runs at 0.2,
        // job2 at 0.8.
        let tl = RateSharingTimeline::new();
        let jobs = vec![job(1, 0, 0, 0.2, 0.2), job(2, 1, 0, 0.8, 0.9)];
        let out = tl.simulate(&jobs);
        // Both should finish at exactly t = 1.0.
        assert!((secs(out[0].end) - 1.0).abs() < 1e-6);
        assert!((secs(out[1].end) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn work_conservation_under_saturation() {
        // Total work 3.0 device-seconds with all caps ≥ capacity: the
        // makespan can never beat work/capacity.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..6).map(|i| job(i, i, 0, 0.5, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 3.0).abs() < 1e-6);
    }

    #[test]
    fn with_capacity_scales_throughput() {
        let tl = RateSharingTimeline::with_capacity(2.0);
        let jobs: Vec<Job> = (0..4).map(|i| job(i, i, 0, 1.0, 1.0)).collect();
        let makespan = secs(tl.makespan(&jobs));
        assert!((makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RateSharingTimeline::with_capacity(0.0);
    }

    /// The event loop the timeline ran before it resolved epochs in
    /// place, kept as the reference its replacement must equal bit for
    /// bit.
    fn reference(tl: &RateSharingTimeline, jobs: &[Job]) -> Vec<JobOutcome> {
        #[derive(Debug)]
        struct Active {
            idx: usize,
            remaining: f64,
            max_rate: f64,
            rate: f64,
        }
        fn water_fill(active: &mut [Active], capacity: f64) {
            let total_cap: f64 = active.iter().map(|a| a.max_rate).sum();
            if total_cap <= capacity {
                for a in active.iter_mut() {
                    a.rate = a.max_rate;
                }
                return;
            }
            let mut order: Vec<usize> = (0..active.len()).collect();
            order.sort_by(|&a, &b| active[a].max_rate.total_cmp(&active[b].max_rate));
            let mut remaining = capacity;
            let mut left = active.len();
            for &i in &order {
                let fair = remaining / left as f64;
                let r = active[i].max_rate.min(fair);
                active[i].rate = r;
                remaining -= r;
                left -= 1;
            }
        }
        let n = jobs.len();
        let mut outcomes: Vec<JobOutcome> = jobs
            .iter()
            .map(|j| JobOutcome {
                id: j.id,
                start: j.arrival,
                end: j.arrival,
            })
            .collect();
        if n == 0 {
            return outcomes;
        }
        let mut streams: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, j) in jobs.iter().enumerate() {
            match streams.iter_mut().find(|(s, _)| *s == j.stream) {
                Some((_, v)) => v.push(i),
                None => streams.push((j.stream, vec![i])),
            }
        }
        let mut cursor: Vec<usize> = vec![0; streams.len()];
        let mut stream_free: Vec<f64> = vec![0.0; streams.len()];
        let mut active: Vec<Active> = Vec::new();
        let mut done = 0usize;
        let mut now = 0.0f64;
        while done < n {
            for (s, (_, order)) in streams.iter().enumerate() {
                while cursor[s] < order.len() {
                    let idx = order[cursor[s]];
                    let j = &jobs[idx];
                    let ready = j.arrival.as_nanos() as f64 * 1e-9;
                    let ready = ready.max(stream_free[s]);
                    if ready > now + 1e-15 {
                        break;
                    }
                    if j.work <= 0.0 {
                        outcomes[idx].start = SimTime::from_nanos((ready * 1e9).round() as u64);
                        outcomes[idx].end = outcomes[idx].start;
                        stream_free[s] = ready;
                        cursor[s] += 1;
                        done += 1;
                        continue;
                    }
                    active.push(Active {
                        idx,
                        remaining: j.work,
                        max_rate: j.max_rate.clamp(1e-9, tl.capacity),
                        rate: 0.0,
                    });
                    outcomes[idx].start = SimTime::from_nanos((ready * 1e9).round() as u64);
                    cursor[s] += 1;
                    stream_free[s] = f64::INFINITY;
                    break;
                }
            }
            if done >= n {
                break;
            }
            let mut next_arrival = f64::INFINITY;
            for (s, (_, order)) in streams.iter().enumerate() {
                if cursor[s] < order.len() && stream_free[s].is_finite() {
                    let j = &jobs[order[cursor[s]]];
                    let ready = (j.arrival.as_nanos() as f64 * 1e-9).max(stream_free[s]);
                    next_arrival = next_arrival.min(ready);
                }
            }
            if active.is_empty() {
                now = next_arrival.max(now);
                continue;
            }
            let eff_capacity = if active.len() > 1 {
                let derate = 1.0 - tl.contention * (active.len() - 1) as f64;
                tl.capacity * derate.max(0.8)
            } else {
                tl.capacity
            };
            water_fill(&mut active, eff_capacity);
            let mut next_completion = f64::INFINITY;
            for a in &active {
                let t = now + a.remaining / a.rate;
                next_completion = next_completion.min(t);
            }
            let horizon = next_completion.min(next_arrival.max(now));
            let dt = (horizon - now).max(0.0);
            for a in &mut active {
                a.remaining -= a.rate * dt;
            }
            now = horizon;
            let mut i = 0;
            while i < active.len() {
                let a = &active[i];
                if a.remaining <= 1e-12 || now + a.remaining / a.rate <= now {
                    let a = active.swap_remove(i);
                    outcomes[a.idx].end = SimTime::from_nanos((now * 1e9).round() as u64);
                    if let Some(s) = streams.iter().position(|(st, _)| *st == jobs[a.idx].stream) {
                        stream_free[s] = now;
                    }
                    done += 1;
                } else {
                    i += 1;
                }
            }
        }
        outcomes
    }

    /// A random batch: 1–16 streams with arbitrary ids, zero-work jobs,
    /// idle gaps, work from sub-1e-12 residues to hours, occupancies
    /// down to the clamp, and arrivals from zero to 10^5 s.
    fn random_batch(rng: &mut hsim_time::SplitMix64) -> (RateSharingTimeline, Vec<Job>) {
        let streams = 1 + rng.next_below(16);
        let ids: Vec<u64> = (0..streams).map(|_| rng.next_u64()).collect();
        let n = rng.next_below(48);
        let base = match rng.next_below(3) {
            0 => 0,
            1 => rng.next_below(1_000_000),
            _ => rng.next_below(100_000_000_000_000),
        };
        let mut at = base;
        let jobs = (0..n)
            .map(|id| {
                // Bursts, then idle gaps.
                at += match rng.next_below(4) {
                    0 => rng.next_below(5_000_000),
                    1 => rng.next_below(3_000),
                    _ => 0,
                };
                let work = match rng.next_below(8) {
                    0 => 0.0,
                    1 => rng.next_f64() * 1e-12,
                    2 => rng.next_f64() * 1e4,
                    3 => 119e-9,
                    _ => rng.next_f64() * 1e-3,
                };
                let max_rate = match rng.next_below(5) {
                    0 => 1.0,
                    1 => 2.0 / 53.0,
                    2 => rng.next_f64() * 1e-8,
                    _ => rng.next_f64(),
                };
                Job {
                    id,
                    stream: ids[rng.next_below(streams) as usize],
                    arrival: SimTime::from_nanos(at),
                    work,
                    max_rate,
                }
            })
            .collect();
        let tl = match rng.next_below(3) {
            0 => RateSharingTimeline::new(),
            1 => RateSharingTimeline::with_contention(1.0, rng.next_f64() * 0.3),
            _ => RateSharingTimeline::with_capacity(0.5 + rng.next_f64() * 2.0),
        };
        (tl, jobs)
    }

    #[test]
    fn the_loop_equals_its_reference_bit_for_bit_and_bounds_its_passes() {
        let mut rng = hsim_time::SplitMix64::new(46);
        let mut epoch = Epoch::default();
        let mut stalled = 0;
        for case in 0..4000 {
            let (tl, jobs) = random_batch(&mut rng);
            let expected = reference(&tl, &jobs);
            assert_eq!(tl.simulate(&jobs), expected, "case {case}: {jobs:?}");
            // In place, against a reused epoch, rebased on the first
            // arrival as a device resolves it.
            let base = jobs
                .iter()
                .map(|j| j.arrival)
                .min()
                .unwrap_or(SimTime::ZERO);
            tl.resolve(&jobs, base, &mut epoch);
            let (passes, stalls) = (epoch.passes(), epoch.stalls());
            assert!(
                passes <= 2 * jobs.len() + stalls,
                "case {case}: {passes} passes for {} jobs",
                jobs.len()
            );
            let last = epoch.spans().iter().map(|s| s.1).max();
            if last.is_some_and(|end| end < SimTime::from_nanos(4_096_000_000_000)) {
                assert_eq!(stalls, 0, "case {case}: a stall before 2^12 s");
            }
            stalled += stalls;
            let rebased: Vec<Job> = jobs
                .iter()
                .map(|j| Job {
                    arrival: SimTime::ZERO + (j.arrival - base),
                    ..j.clone()
                })
                .collect();
            let spans: Vec<_> = reference(&tl, &rebased)
                .iter()
                .map(|o| (o.start, o.end))
                .collect();
            assert_eq!(epoch.spans(), &spans[..], "case {case} rebased");
        }
        // Past 2^12 s the per-pass bound does not hold: some batches
        // stall a pass (89 of these 4000).
        assert!(stalled > 0, "no stall left: each pass now makes progress");
    }

    #[test]
    fn one_stream_takes_one_pass_per_job() {
        // Back-to-back jobs on one stream: each pass retires one and
        // starts the next.
        let tl = RateSharingTimeline::new();
        let jobs: Vec<Job> = (0..100).map(|i| job(i, 3, 0, 1e-5, 0.7)).collect();
        let mut epoch = Epoch::default();
        tl.resolve(&jobs, SimTime::ZERO, &mut epoch);
        assert_eq!(epoch.passes(), 100);
        assert_eq!(tl.simulate(&jobs), reference(&tl, &jobs));
    }
}
