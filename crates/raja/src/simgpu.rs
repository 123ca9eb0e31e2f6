//! The CUDA-like backend: sharing one simulated device between ranks.
//!
//! Real CUDA resolves concurrency on the device itself; our simulated
//! device resolves it at a **sync rendezvous**: every client (rank)
//! submits its kernel launches with virtual arrival times, then all
//! clients of the device meet in [`GpuClient::sync`]. The last arrival
//! runs the rate-sharing timeline over the whole batch and publishes
//! each stream's completion time; the others are parked until their
//! next resume finds the epoch resolved (see [`hsim_time::task`]).
//! This mirrors the
//! bulk-synchronous structure of the application (every rank
//! synchronizes with its device at least once per cycle).

use std::sync::{Arc, Mutex};

use hsim_gpu::{Device, DeviceSpec, Executed, GpuError, KernelDesc, KernelShape};
use hsim_telemetry::{KernelSums, KernelTable};
use hsim_time::sync::lock;
use hsim_time::task::{self, Waiting};
use hsim_time::{advanced, Overflow, SimDuration, SimTime};

/// The pre-Volta MPS server admits 16 clients per device.
const MPS_MAX_CLIENTS: usize = 16;

struct Inner {
    device: Device,
    /// Clients that may still join an epoch: every stream of the
    /// device until its [`Departure`] drops.
    clients: usize,
    syncers: usize,
    epoch: u64,
    /// Per stream, whether a [`Departure`] has been issued for it — one
    /// each, ever.
    guarded: Vec<bool>,
    /// Per stream, the completion time of its last kernel in the
    /// resolved epochs.
    stream_end: Vec<SimTime>,
    /// Per stream, the kernels resolved at the last sync, awaiting
    /// drain by the stream's own client. Per-client drain keeps the
    /// kernel table and span attribution independent of which client
    /// happened to lead the sync.
    resolved_kernels: Vec<Vec<Executed>>,
    /// A drain's per-kernel totals, kept for the next drain.
    totals: Vec<(&'static str, KernelSums)>,
}

impl Inner {
    /// Run the device over every launch of the epoch its last client
    /// has just joined, and open the next epoch.
    fn resolve_epoch(&mut self) {
        let (stream_end, resolved) = (&mut self.stream_end, &mut self.resolved_kernels);
        self.device.run_pending(|ran| {
            let stream = ran.stream as usize;
            stream_end[stream] = stream_end[stream].merge(ran.end);
            resolved[stream].push(ran);
        });
        self.syncers = 0;
        self.epoch += 1;
    }
}

/// A device's counters, read between two epochs. They move only when
/// an epoch resolves, which takes every client: between two of its own
/// syncs a client reads the same values whatever its peers are doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMark {
    pub busy: SimDuration,
    /// Launches the device has executed (a queued launch is not).
    pub launches: u64,
}

impl DeviceMark {
    /// The counters' growth since the reading `earlier`.
    pub fn since(&self, earlier: &DeviceMark) -> DeviceMark {
        DeviceMark {
            busy: self.busy - earlier.busy,
            launches: self.launches - earlier.launches,
        }
    }
}

/// A client's stream, read by that client between two of its syncs —
/// nobody else launches into it or waits for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMark {
    /// Completion time of the stream's last resolved kernel.
    pub end: SimTime,
    /// Launches of this client queued for the next epoch.
    pub queued: usize,
}

/// One simulated GPU shared by one or more ranks.
pub struct SharedDevice {
    inner: Mutex<Inner>,
    spec: DeviceSpec,
    id: usize,
    /// Whether the clients share the device through MPS, whose launches
    /// pay the elevated overhead.
    mps: bool,
}

/// A rank's connection to a [`SharedDevice`]: the device and the
/// client's stream on it, its index among the device's clients.
#[derive(Clone)]
pub struct GpuClient {
    dev: Arc<SharedDevice>,
    stream: usize,
}

/// A client's promise to tell its device when it leaves, held by the
/// *rank body* for as long as the rank may still sync (not by
/// [`GpuClient`], which is `Clone` and also lives in the rank's
/// executor). Dropping it — the body ended, cleanly, with an error or
/// by panic — takes the client out of every later epoch, and resolves
/// the current one if the clients already waiting in it are now all
/// there are: what a mailbox learns through `Disconnected`, the
/// rendezvous learns here, so a dead rank cannot hang its device's
/// other clients.
pub struct Departure {
    dev: Arc<SharedDevice>,
}

impl Drop for Departure {
    fn drop(&mut self) {
        let mut inner = lock(&self.dev.inner);
        // A second departure of one stream would let an epoch resolve
        // without a live client's launches: silently wrong virtual
        // times. `GpuClient::departure` refuses to issue one, so the
        // count cannot pass zero here (and `drop` must not panic).
        let Some(clients) = inner.clients.checked_sub(1) else {
            return;
        };
        inner.clients = clients;
        if inner.syncers > 0 && inner.syncers == inner.clients {
            inner.resolve_epoch();
        }
    }
}

impl SharedDevice {
    /// Device `id` of sheet `spec` and its `clients` clients, in stream
    /// order: one rank owning the device (the Default and Hetero
    /// modes), or with `mps` the ranks sharing it through the MPS
    /// server (the paper's "n MPI/GPU" mode). A device has one active
    /// context, so only MPS gives it more than one client, and the
    /// pre-Volta server at most 16.
    pub fn new(
        id: usize,
        spec: DeviceSpec,
        clients: usize,
        mps: bool,
    ) -> Result<(Arc<Self>, Vec<GpuClient>), GpuError> {
        if clients > if mps { MPS_MAX_CLIENTS } else { 1 } {
            return Err(GpuError::MpsRejected {
                reason: "client limit reached",
            });
        }
        let dev = Arc::new(SharedDevice {
            inner: Mutex::new(Inner {
                device: Device::new(spec.clone()),
                clients,
                syncers: 0,
                epoch: 0,
                guarded: vec![false; clients],
                stream_end: vec![SimTime::ZERO; clients],
                resolved_kernels: vec![Vec::new(); clients],
                totals: Vec::new(),
            }),
            spec,
            id,
            mps,
        });
        let clients = (0..clients)
            .map(|stream| GpuClient {
                dev: Arc::clone(&dev),
                stream,
            })
            .collect();
        Ok((dev, clients))
    }

    /// The device's capability sheet.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Device id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of resolved sync epochs so far.
    pub fn epoch(&self) -> u64 {
        lock(&self.inner).epoch
    }

    /// Lifetime launch count.
    pub fn total_launches(&self) -> u64 {
        lock(&self.inner).device.total_launches()
    }

    /// Cumulative per-job device busy time (the load balancer's view
    /// of how hard the GPU worked).
    pub fn busy(&self) -> SimDuration {
        lock(&self.inner).device.busy()
    }

    /// Read the device's counters.
    pub fn mark(&self) -> DeviceMark {
        let inner = lock(&self.inner);
        let queued = inner.device.pending().len() as u64;
        DeviceMark {
            busy: inner.device.busy(),
            launches: inner.device.total_launches() - queued,
        }
    }

    /// Account `times` more repetitions of `period` (a growth taken
    /// with [`DeviceMark::since`]), all of whose launches resolved —
    /// once per device, whatever the number of its clients; each
    /// client moves its own stream ([`GpuClient::advance_stream`]).
    /// The epoch count just continues: it only tells a waiter that its
    /// epoch has resolved.
    pub fn advance(&self, period: &DeviceMark, times: u64) -> Result<(), Overflow> {
        let device = &mut lock(&self.inner).device;
        device.advance(period.busy, period.launches, times)
    }

    /// Once every client has left, whether the device ran every launch
    /// it was given: one still queued was placed after its client's
    /// last sync, which is [`GpuError::Stranded`].
    pub fn stranded(&self) -> Result<(), GpuError> {
        let inner = lock(&self.inner);
        match inner.device.pending().len() {
            launches if launches > 0 && inner.clients == 0 => Err(GpuError::Stranded {
                device: self.id,
                launches,
            }),
            _ => Ok(()),
        }
    }

    /// Allocate a unified-memory region of `bytes` and fault it onto
    /// the device (ARES mesh data, Figure 8). Returns the migration
    /// charge the caller must add to its clock.
    pub fn um_alloc_and_touch(&self, bytes: u64) -> SimDuration {
        lock(&self.inner).device.um_mut().alloc_and_touch(bytes)
    }
}

impl GpuClient {
    /// Device capability sheet.
    pub fn spec(&self) -> &DeviceSpec {
        self.dev.spec()
    }

    /// The [`Departure`] guard of this client's stream. A client leaves
    /// once: asking twice for the same stream is
    /// [`GpuError::InvalidStream`].
    pub fn departure(&self) -> Result<Departure, GpuError> {
        if std::mem::replace(&mut lock(&self.dev.inner).guarded[self.stream], true) {
            return Err(GpuError::InvalidStream);
        }
        Ok(Departure {
            dev: Arc::clone(&self.dev),
        })
    }

    /// Read this client's stream.
    pub fn stream_mark(&self) -> StreamMark {
        let inner = lock(&self.dev.inner);
        let mine = |q: &&hsim_gpu::Queued| q.job.stream == self.stream as u64;
        StreamMark {
            end: inner.stream_end[self.stream],
            queued: inner.device.pending().iter().filter(mine).count(),
        }
    }

    /// Move this client's stream `times` more repetitions of a period
    /// that took it `step` further.
    pub fn advance_stream(&self, step: SimDuration, times: u64) -> Result<(), Overflow> {
        let end = &mut lock(&self.dev.inner).stream_end[self.stream];
        *end = SimTime(advanced(end.0, step.0, times)?);
        Ok(())
    }

    /// Submit one kernel launch at virtual instant `at`. Returns the
    /// host-side launch overhead the caller must charge to its clock.
    pub fn launch(&self, desc: &KernelDesc, shape: KernelShape, at: SimTime) -> SimDuration {
        let mut inner = lock(&self.dev.inner);
        let ticket = (inner.device).submit(self.stream, desc, shape, at, self.dev.mps);
        ticket.overhead
    }

    /// Rendezvous with the device's other clients; resolves all pending
    /// launches, adds the time and occupancy of this client's resolved
    /// kernels to `kernels`, and returns the completion time of this
    /// client's stream (or `at` when the stream had no pending work).
    ///
    /// Every client of the device must call `sync` once per epoch
    /// (bulk-synchronous discipline) until its [`Departure`] drops; an
    /// epoch resolves without the clients that have left. A client
    /// calling twice before the others once waits for an epoch that
    /// cannot resolve, matching a real stream-sync against peers that
    /// never launch: the rank driver reports the world deadlocked.
    pub async fn sync(&self, at: SimTime, kernels: &mut KernelTable) -> Result<SimTime, Overflow> {
        let my_epoch = {
            let mut inner = lock(&self.dev.inner);
            inner.syncers += 1;
            if inner.syncers == inner.clients {
                inner.resolve_epoch();
                return self.drain(&mut inner, at, kernels);
            }
            inner.epoch
        };
        // The device-epoch wait: the rank parks until the last client
        // of the epoch has been resumed (or has left).
        let dev = &*self.dev;
        let what = Waiting::DeviceSync {
            device: dev.id,
            epoch: my_epoch,
        };
        task::park(what, || (lock(&dev.inner).epoch != my_epoch).then_some(())).await;
        self.drain(&mut lock(&self.dev.inner), at, kernels)
    }

    /// Drain this stream's resolved kernels into the kernel table, each
    /// kernel's epoch totals added once, and into the calling thread's
    /// collector, each launch a device-timeline span: a device kernel
    /// is timed here, not at launch. Returns the stream's end, or `at`
    /// if that is later.
    fn drain(
        &self,
        inner: &mut Inner,
        at: SimTime,
        kernels: &mut KernelTable,
    ) -> Result<SimTime, Overflow> {
        let traced = hsim_telemetry::is_enabled();
        if traced {
            hsim_telemetry::count(hsim_telemetry::Counter::DeviceSyncs, 1);
        }
        let pid = hsim_telemetry::DEVICE_PID_BASE + self.dev.id as u32;
        let tid = self.stream as u32;
        let (resolved, totals) = (&mut inner.resolved_kernels[self.stream], &mut inner.totals);
        totals.clear();
        for k in resolved.drain(..) {
            let dur = k.end - k.start;
            let run = KernelSums::gpu_run(dur, k.occupancy);
            match totals
                .iter_mut()
                .find(|(name, _)| std::ptr::eq(*name, k.kernel))
            {
                Some((_, sums)) => *sums = sums.checked_add(run).ok_or(Overflow)?,
                None => totals.push((k.kernel, run)),
            }
            if traced {
                hsim_telemetry::span_args(
                    pid,
                    tid,
                    hsim_telemetry::Category::GpuKernel,
                    k.kernel,
                    k.start,
                    k.end,
                    &[("elems", k.elems)],
                );
                hsim_telemetry::kernel_launch(dur, Some(k.occupancy));
            }
        }
        for &(name, sums) in totals.iter() {
            kernels.add(name, sums)?;
        }
        Ok(inner.stream_end[self.stream].merge(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_mpi::{CommCost, World};
    use hsim_time::task::{block_on, resume, Resumed};
    use std::pin::pin;

    /// Device 0, a K80, shared by `n` clients through MPS.
    fn mps(n: usize) -> (Arc<SharedDevice>, Vec<GpuClient>) {
        SharedDevice::new(0, DeviceSpec::tesla_k80(), n, true).unwrap()
    }

    /// Device 0, a K80, and the one client that owns it.
    fn exclusive() -> (Arc<SharedDevice>, GpuClient) {
        let (dev, mut clients) = SharedDevice::new(0, DeviceSpec::tesla_k80(), 1, false).unwrap();
        (dev, clients.remove(0))
    }

    fn desc() -> KernelDesc {
        KernelDesc::new("k", 60.0, 16.0)
    }

    /// `client`'s sync at `at`, its kernels drained into a table of
    /// their own.
    async fn sync(client: &GpuClient, at: SimTime) -> SimTime {
        client.sync(at, &mut KernelTable::new()).await.unwrap()
    }

    /// Each client of `clients` as a rank of its own, resumed by
    /// `workers` workers: it calls `launch` on its client, then syncs
    /// at `at`. The stream ends the syncs return, in client order.
    fn synced(
        workers: usize,
        clients: &[GpuClient],
        launch: impl Fn(&GpuClient) + Sync,
        at: SimTime,
    ) -> Vec<SimTime> {
        let launch = &launch;
        let out = World::run_fallible(workers, clients.len(), CommCost::free(), |comm| {
            let client = &clients[comm.rank()];
            async move {
                launch(client);
                Ok(sync(client, at).await)
            }
        });
        out.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn exclusive_client_launch_and_sync() {
        let (_dev, client) = exclusive();
        let overhead = client.launch(&desc(), KernelShape::new(1_000_000, 320), SimTime::ZERO);
        assert_eq!(overhead, DeviceSpec::tesla_k80().launch_overhead);
        let mut kernels = KernelTable::new();
        let end = block_on(client.sync(SimTime::ZERO, &mut kernels)).unwrap();
        assert!(end > SimTime::ZERO);
        // The sync times the kernel; its launch is the executor's to count.
        let k = *kernels.get("k").unwrap();
        assert_eq!((k.launches, k.elems), (0, 0));
        assert_eq!(k.total_ns, (end - SimTime::ZERO - overhead).as_nanos());
        assert!(k.occupancy > 0);
        // Drained: the next sync times nothing more.
        block_on(client.sync(end, &mut kernels)).unwrap();
        assert_eq!(kernels.get("k").unwrap().total_ns, k.total_ns);
    }

    #[test]
    fn sync_without_launches_returns_at() {
        let (_dev, client) = exclusive();
        let at = SimTime::from_nanos(123);
        assert_eq!(block_on(sync(&client, at)), at);
    }

    #[test]
    fn epochs_advance_per_sync_round() {
        let (dev, client) = exclusive();
        assert_eq!(dev.epoch(), 0);
        block_on(sync(&client, SimTime::ZERO));
        block_on(sync(&client, SimTime::ZERO));
        assert_eq!(dev.epoch(), 2);
    }

    #[test]
    fn mps_clients_rendezvous_at_every_worker_count() {
        let zones = 2_000_000u64;
        let launch = |c: &GpuClient| {
            c.launch(&desc(), KernelShape::new(zones, 40), SimTime::ZERO);
        };
        let mut at_one = None;
        for workers in [1, 2, 4] {
            let (dev, clients) = mps(4);
            let ends = synced(workers, &clients, launch, SimTime::ZERO);
            assert_eq!(ends.len(), 4);
            assert!(ends.iter().all(|&e| e > SimTime::ZERO));
            assert_eq!(dev.epoch(), 1);
            assert_eq!(dev.total_launches(), 4);
            assert_eq!(
                *at_one.get_or_insert(ends.clone()),
                ends,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_departed_client_no_longer_holds_up_the_epoch() {
        let (dev, clients) = mps(3);
        let mut guards: Vec<Departure> = clients.iter().map(|c| c.departure().unwrap()).collect();
        // A client leaves once.
        assert_eq!(
            clients[1].departure().err(),
            Some(GpuError::InvalidStream),
            "a second guard for the same stream"
        );
        // Nobody waits yet: leaving resolves nothing.
        drop(guards.remove(0));
        assert_eq!(dev.epoch(), 0);
        // Client 1 waits for client 2, which leaves instead of syncing:
        // its departure completes the epoch, and the waiter's next
        // resume finds it resolved.
        let mut waiter = pin!(async {
            clients[1].launch(&desc(), KernelShape::new(1_000_000, 40), SimTime::ZERO);
            sync(&clients[1], SimTime::ZERO).await
        });
        let epoch_0 = Waiting::DeviceSync {
            device: 0,
            epoch: 0,
        };
        assert!(matches!(resume(waiter.as_mut()), Resumed::Parked(w) if w == epoch_0));
        assert!(matches!(resume(waiter.as_mut()), Resumed::Stalled));
        assert_eq!(dev.epoch(), 0, "two clients, one has synced");
        drop(guards.pop());
        let Resumed::Done(end) = resume(waiter) else {
            panic!("the departure resolves the epoch");
        };
        assert!(end > SimTime::ZERO);
        assert_eq!(dev.epoch(), 1);
        // The last client alone is a whole epoch.
        block_on(sync(&clients[1], SimTime::ZERO));
        assert_eq!(dev.epoch(), 2);
    }

    #[test]
    fn a_launch_its_client_never_synced_is_stranded() {
        let launch = |c: &GpuClient| {
            c.launch(&desc(), KernelShape::new(1_000_000, 40), SimTime::ZERO);
        };
        // Launched, synced, left: every launch ran.
        let (dev, clients) = mps(2);
        let guards: Vec<Departure> = clients.iter().map(|c| c.departure().unwrap()).collect();
        synced(2, &clients, launch, SimTime::ZERO);
        drop(guards);
        assert_eq!(dev.stranded(), Ok(()));
        // A launch after the last sync: queued while a client stays,
        // stranded once the last one has left.
        let (dev, clients) = mps(2);
        let mut guards: Vec<Departure> = clients.iter().map(|c| c.departure().unwrap()).collect();
        launch(&clients[0]);
        launch(&clients[1]);
        drop(guards.pop());
        assert_eq!(dev.stranded(), Ok(()), "client 0 may still sync");
        drop(guards.pop());
        let stranded = GpuError::Stranded {
            device: 0,
            launches: 2,
        };
        assert_eq!(dev.stranded(), Err(stranded));
    }

    #[test]
    fn advancing_a_shared_device_is_running_its_period_again() {
        // One period: both clients launch at `at`, then sync.
        let period = |dev: &SharedDevice, clients: &[GpuClient], at: SimTime| {
            let executed = dev.mark().launches;
            for c in clients {
                c.launch(&desc(), KernelShape::new(500_000, 40), at);
                assert_eq!(c.stream_mark().queued, 1);
            }
            assert_eq!(dev.mark().launches, executed, "queued, not executed");
            let end = synced(2, clients, |_| {}, at).into_iter().max();
            assert_eq!(dev.mark().launches, executed + 2);
            end.unwrap()
        };
        let read = |dev: &SharedDevice, clients: &[GpuClient]| {
            let streams: Vec<StreamMark> = clients.iter().map(|c| c.stream_mark()).collect();
            (dev.mark(), streams)
        };
        let (dev, clients) = mps(2);
        let t1 = period(&dev, &clients, SimTime::ZERO);
        let first = dev.mark();
        let t2 = period(&dev, &clients, t1);
        let grown = dev.mark().since(&first);
        // The same launches at the same offsets, whenever they run.
        assert_eq!((grown.busy, grown.launches), (first.busy, 2));
        assert_eq!(t2 - t1, t1 - SimTime::ZERO);

        // Three more periods added are three more periods run.
        dev.advance(&grown, 3).unwrap();
        for c in &clients {
            c.advance_stream(t2 - t1, 3).unwrap();
        }
        let (run, runners) = mps(2);
        let end = (0..5).fold(SimTime::ZERO, |at, _| period(&run, &runners, at));
        assert_eq!(read(&dev, &clients), read(&run, &runners));
        assert_eq!(clients[0].stream_mark().end, end);

        assert_eq!(dev.advance(&grown, u64::MAX / 2), Err(Overflow));
        let too_far = clients[0].advance_stream(t2 - t1, u64::MAX / 2);
        assert_eq!(too_far, Err(Overflow));
    }

    #[test]
    fn mps_small_kernels_beat_exclusive_serialization() {
        // The end-to-end MPS effect through the shared-device path:
        // 4 clients with small-x kernels finish sooner than one
        // exclusive client doing 4 kernels' worth of work.
        let zones_total = 8_000_000u64;
        let inner_dim = 40;

        let (_d1, solo) = exclusive();
        solo.launch(
            &desc(),
            KernelShape::new(zones_total, inner_dim),
            SimTime::ZERO,
        );
        let solo_end = block_on(sync(&solo, SimTime::ZERO));

        let (_d2, clients) = mps(4);
        let quarter = |c: &GpuClient| {
            let shape = KernelShape::new(zones_total / 4, inner_dim);
            c.launch(&desc(), shape, SimTime::ZERO);
        };
        let ends = synced(2, &clients, quarter, SimTime::ZERO);
        let mps_end = ends.into_iter().fold(SimTime::ZERO, SimTime::merge);
        assert!(
            mps_end < solo_end,
            "MPS {mps_end} should beat exclusive {solo_end}"
        );
    }

    #[test]
    fn clients_connect_up_to_limit() {
        let connect = |n, mps| SharedDevice::new(0, DeviceSpec::tesla_k80(), n, mps).map(|d| d.1);
        assert_eq!(connect(MPS_MAX_CLIENTS, true).unwrap().len(), 16);
        let rejected = Some(GpuError::MpsRejected {
            reason: "client limit reached",
        });
        assert_eq!(connect(17, true).err(), rejected);
        // Without MPS a device's one context takes one client.
        assert_eq!(connect(1, false).unwrap().len(), 1);
        assert_eq!(connect(2, false).err(), rejected);
    }

    #[test]
    fn mps_launch_overhead_is_elevated() {
        let (_dev, clients) = mps(2);
        let overhead = clients[0].launch(&desc(), KernelShape::new(1000, 10), SimTime::ZERO);
        assert!(overhead > DeviceSpec::tesla_k80().launch_overhead);
    }

    #[test]
    fn streams_keep_clients_ordered_within_themselves() {
        let (_dev, client) = exclusive();
        // Two launches on the same client serialize: total ≈ 2x one.
        client.launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO);
        let one = block_on(sync(&client, SimTime::ZERO));
        client.launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO);
        client.launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO);
        let two = block_on(sync(&client, SimTime::ZERO));
        let d_one = one - SimTime::ZERO;
        let d_two = two - SimTime::ZERO;
        let ratio = d_two.ratio(d_one);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
