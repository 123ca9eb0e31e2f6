//! The CUDA-like backend: sharing one simulated device between ranks.
//!
//! Real CUDA resolves concurrency on the device itself; our simulated
//! device resolves it at a **sync rendezvous**: every client (rank)
//! submits its kernel launches with virtual arrival times, then all
//! clients of the device meet in [`GpuClient::sync`]. The last arrival
//! runs the rate-sharing timeline over the whole batch, publishes each
//! stream's completion time, and wakes the others — rank threads
//! sleeping on a condition variable, or stepped ranks parked until
//! their next resume (see [`hsim_time::task`]). This mirrors the
//! bulk-synchronous structure of the application (every rank
//! synchronizes with its device at least once per cycle).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use hsim_gpu::mps::{MpsClient, MpsServer};
use hsim_gpu::{ContextId, Device, DeviceSpec, GpuError, KernelDesc, KernelShape, StreamId};
use hsim_time::task::{self, Waiting};
use hsim_time::{advanced, Overflow, SimDuration, SimTime};

struct Inner {
    device: Device,
    mps: Option<MpsServer>,
    /// Clients that may still join an epoch: every stream of the
    /// device until its [`Departure`] drops.
    clients: usize,
    syncers: usize,
    epoch: u64,
    /// Streams a [`Departure`] has been issued for — one each, ever.
    guarded: HashSet<u64>,
    /// stream key → completion time of the last kernel in the resolved
    /// epoch (cumulative across epochs).
    stream_end: BTreeMap<u64, SimTime>,
    /// job id → (kernel name, elements) for the in-flight epoch.
    /// Populated only when the submitting thread records telemetry, so
    /// the disabled path never allocates here.
    job_meta: HashMap<u64, (&'static str, u64)>,
    /// Kernels resolved at the last sync, keyed by stream, awaiting
    /// drain by each stream's owning client thread. Per-client drain
    /// keeps span/profile attribution independent of which thread
    /// happened to be the sync leader.
    resolved_kernels: HashMap<u64, Vec<ResolvedKernel>>,
}

impl Inner {
    /// Run the device over every launch of the epoch its last client
    /// has just joined, and open the next epoch.
    fn resolve_epoch(&mut self) {
        // The queued jobs first — their streams, and the work/occupancy
        // caps the profiler needs — as `run_pending` clears the queue
        // and returns the outcomes in the same order.
        let jobs = self.device.pending_jobs().to_vec();
        let outcomes = self.device.run_pending();
        for (job, o) in jobs.iter().zip(&outcomes) {
            let e = self.stream_end.entry(job.stream).or_insert(SimTime::ZERO);
            *e = e.merge(o.end);
            // Stash the kernel for its own client to drain: which
            // thread led the sync must not change the telemetry.
            if let Some(&(name, elems)) = self.job_meta.get(&o.id) {
                let elapsed = (o.end - o.start).as_secs_f64();
                let occupancy = if elapsed > 0.0 {
                    (job.work / elapsed).clamp(0.0, 1.0)
                } else {
                    job.max_rate
                };
                self.resolved_kernels
                    .entry(job.stream)
                    .or_default()
                    .push(ResolvedKernel {
                        name,
                        elems,
                        start: o.start,
                        end: o.end,
                        occupancy,
                    });
            }
        }
        self.job_meta.clear();
        self.syncers = 0;
        self.epoch += 1;
    }
}

/// One device-side kernel execution resolved at a sync, pending
/// telemetry drain by its stream's client.
#[derive(Debug, Clone)]
struct ResolvedKernel {
    name: &'static str,
    elems: u64,
    start: SimTime,
    end: SimTime,
    occupancy: f64,
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
    resolved: Condvar,
    spec: DeviceSpec,
    id: usize,
}

/// A rank's connection to a [`SharedDevice`].
#[derive(Clone)]
pub struct GpuClient {
    dev: Arc<SharedDevice>,
    ctx: ContextId,
    stream: StreamId,
    mps_client: Option<MpsClient>,
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
        let mut inner = self.dev.inner.lock();
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
            self.dev.resolved.notify_all();
        }
    }
}

impl SharedDevice {
    /// Exclusive arrangement: one rank owns the device directly (the
    /// Default mode). Returns the shared handle and the single client.
    pub fn new_exclusive(
        mut device: Device,
        pid: usize,
    ) -> Result<(Arc<Self>, GpuClient), GpuError> {
        let spec = device.spec().clone();
        let id = device.id();
        let ctx = device.create_context(pid)?;
        let stream = device.create_stream(ctx.id)?;
        let dev = Arc::new(SharedDevice {
            inner: Mutex::new(Inner {
                device,
                mps: None,
                clients: 1,
                syncers: 0,
                epoch: 0,
                guarded: HashSet::new(),
                stream_end: BTreeMap::new(),
                job_meta: HashMap::new(),
                resolved_kernels: HashMap::new(),
            }),
            resolved: Condvar::new(),
            spec,
            id,
        });
        let client = GpuClient {
            dev: Arc::clone(&dev),
            ctx: ctx.id,
            stream: stream.id,
            mps_client: None,
        };
        Ok((dev, client))
    }

    /// MPS arrangement: `pids` ranks share the device through the MPS
    /// server (the paper's "n MPI/GPU" mode).
    pub fn new_mps(
        mut device: Device,
        pids: &[usize],
    ) -> Result<(Arc<Self>, Vec<GpuClient>), GpuError> {
        let spec = device.spec().clone();
        let id = device.id();
        let mut server = MpsServer::start(&mut device, MpsServer::DEFAULT_MAX_CLIENTS)?;
        let mut mps_clients = Vec::with_capacity(pids.len());
        for &pid in pids {
            mps_clients.push(server.connect(&mut device, pid)?);
        }
        let ctx = device.active_context().ok_or(GpuError::InvalidContext)?.id;
        let dev = Arc::new(SharedDevice {
            inner: Mutex::new(Inner {
                device,
                mps: Some(server),
                clients: pids.len(),
                syncers: 0,
                epoch: 0,
                guarded: HashSet::new(),
                stream_end: BTreeMap::new(),
                job_meta: HashMap::new(),
                resolved_kernels: HashMap::new(),
            }),
            resolved: Condvar::new(),
            spec,
            id,
        });
        let clients = mps_clients
            .into_iter()
            .map(|mc| GpuClient {
                dev: Arc::clone(&dev),
                ctx,
                stream: mc.stream.id,
                mps_client: Some(mc),
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
        self.inner.lock().epoch
    }

    /// Lifetime launch count.
    pub fn total_launches(&self) -> u64 {
        self.inner.lock().device.total_launches()
    }

    /// Cumulative per-job device busy time (the load balancer's view
    /// of how hard the GPU worked).
    pub fn busy(&self) -> SimDuration {
        self.inner.lock().device.busy()
    }

    /// Read the device's counters.
    pub fn mark(&self) -> DeviceMark {
        let inner = self.inner.lock();
        let queued = inner.device.pending_jobs().len() as u64;
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
        let device = &mut self.inner.lock().device;
        device.advance(period.busy, period.launches, times)
    }

    /// Allocate a unified-memory region of `bytes` and fault it onto
    /// the device (ARES mesh data, Figure 8). Returns the migration
    /// charge the caller must add to its clock.
    pub fn um_alloc_and_touch(&self, bytes: u64) -> SimDuration {
        self.inner.lock().device.um_mut().alloc_and_touch(bytes)
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
        if !self.dev.inner.lock().guarded.insert(self.stream.0) {
            return Err(GpuError::InvalidStream);
        }
        Ok(Departure {
            dev: Arc::clone(&self.dev),
        })
    }

    /// Read this client's stream.
    pub fn stream_mark(&self) -> StreamMark {
        let inner = self.dev.inner.lock();
        let end = inner.stream_end.get(&self.stream.0).copied();
        let mine = |job: &&hsim_gpu::timeline::Job| job.stream == self.stream.0;
        StreamMark {
            end: end.unwrap_or(SimTime::ZERO),
            queued: inner.device.pending_jobs().iter().filter(mine).count(),
        }
    }

    /// Move this client's stream `times` more repetitions of a period
    /// that took it `step` further.
    pub fn advance_stream(&self, step: SimDuration, times: u64) -> Result<(), Overflow> {
        let mut inner = self.dev.inner.lock();
        let end = inner.stream_end.entry(self.stream.0).or_default();
        *end = SimTime(advanced(end.0, step.0, times)?);
        Ok(())
    }

    /// Submit one kernel launch at virtual instant `at`. Returns the
    /// host-side launch overhead the caller must charge to its clock.
    pub fn launch(
        &self,
        desc: &KernelDesc,
        shape: KernelShape,
        at: SimTime,
    ) -> Result<SimDuration, GpuError> {
        let mut inner = self.dev.inner.lock();
        let inner = &mut *inner;
        let ticket = match (&self.mps_client, &inner.mps) {
            (Some(mc), Some(server)) => server.launch(&mut inner.device, mc, desc, shape, at)?,
            (None, None) => inner
                .device
                .submit(self.ctx, self.stream, desc, shape, at, false)?,
            _ => return Err(GpuError::InvalidContext),
        };
        if hsim_telemetry::is_enabled() {
            inner.job_meta.insert(ticket.job, (desc.name, shape.elems));
        }
        Ok(ticket.overhead)
    }

    /// Rendezvous with the device's other clients; resolves all pending
    /// launches and returns the completion time of this client's
    /// stream (or `at` when the stream had no pending work).
    ///
    /// Every client of the device must call `sync` once per epoch
    /// (bulk-synchronous discipline) until its [`Departure`] drops; an
    /// epoch resolves without the clients that have left. A client
    /// calling twice before the others once waits for an epoch that
    /// cannot resolve,
    /// matching a real stream-sync against peers that never launch:
    /// rank threads deadlock, stepped ranks are reported as
    /// deadlocked by their driver.
    pub async fn sync(&self, at: SimTime) -> SimTime {
        let unresolved = {
            let mut inner = self.dev.inner.lock();
            inner.syncers += 1;
            if inner.syncers == inner.clients {
                inner.resolve_epoch();
                self.dev.resolved.notify_all();
                None
            } else {
                Some(inner.epoch)
            }
        };
        if let Some(my_epoch) = unresolved {
            // The device-epoch wait: a rank thread sleeps on the
            // condition variable; a stepped rank parks until the last
            // client of the epoch has been resumed.
            let dev = &*self.dev;
            task::wait(
                Waiting::DeviceSync {
                    device: dev.id,
                    epoch: my_epoch,
                },
                || (dev.inner.lock().epoch != my_epoch).then_some(()),
                || {
                    let mut inner = dev.inner.lock();
                    while inner.epoch == my_epoch {
                        dev.resolved.wait(&mut inner);
                    }
                },
            )
            .await;
        }
        let mut inner = self.dev.inner.lock();
        // Drain this stream's resolved kernels into the calling
        // thread's collector (device-timeline spans + the per-kernel
        // profile — GPU kernels feed the profiler here, not at launch).
        hsim_telemetry::count(hsim_telemetry::Counter::DeviceSyncs, 1);
        if let Some(kernels) = inner.resolved_kernels.remove(&self.stream.0) {
            if hsim_telemetry::is_enabled() {
                let pid = hsim_telemetry::DEVICE_PID_BASE + self.dev.id as u32;
                let tid = self.stream.0 as u32;
                for k in kernels {
                    hsim_telemetry::span_args(
                        pid,
                        tid,
                        hsim_telemetry::Category::GpuKernel,
                        k.name,
                        k.start,
                        k.end,
                        &[("elems", k.elems)],
                    );
                    hsim_telemetry::kernel_launch(
                        k.name,
                        k.elems,
                        0,
                        k.end - k.start,
                        true,
                        k.occupancy,
                    );
                    hsim_telemetry::gauge_max(hsim_telemetry::Gauge::DeviceOccupancy, k.occupancy);
                }
            }
        }
        inner
            .stream_end
            .get(&self.stream.0)
            .copied()
            .unwrap_or(at)
            .merge(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_time::task::block_on;

    fn k80() -> Device {
        Device::new(0, DeviceSpec::tesla_k80())
    }

    fn desc() -> KernelDesc {
        KernelDesc::new("k", 60.0, 16.0)
    }

    #[test]
    fn exclusive_client_launch_and_sync() {
        let (_dev, client) = SharedDevice::new_exclusive(k80(), 0).unwrap();
        let overhead = client
            .launch(&desc(), KernelShape::new(1_000_000, 320), SimTime::ZERO)
            .unwrap();
        assert_eq!(overhead, DeviceSpec::tesla_k80().launch_overhead);
        let end = block_on(client.sync(SimTime::ZERO));
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn sync_without_launches_returns_at() {
        let (_dev, client) = SharedDevice::new_exclusive(k80(), 0).unwrap();
        let at = SimTime::from_nanos(123);
        assert_eq!(block_on(client.sync(at)), at);
    }

    #[test]
    fn epochs_advance_per_sync_round() {
        let (dev, client) = SharedDevice::new_exclusive(k80(), 0).unwrap();
        assert_eq!(dev.epoch(), 0);
        block_on(client.sync(SimTime::ZERO));
        block_on(client.sync(SimTime::ZERO));
        assert_eq!(dev.epoch(), 2);
    }

    #[test]
    fn mps_clients_rendezvous_across_threads() {
        let (dev, clients) = SharedDevice::new_mps(k80(), &[0, 1, 2, 3]).unwrap();
        let zones = 2_000_000u64;
        let ends: Vec<SimTime> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|c| {
                    s.spawn(move || {
                        c.launch(&desc(), KernelShape::new(zones, 40), SimTime::ZERO)
                            .unwrap();
                        block_on(c.sync(SimTime::ZERO))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(ends.len(), 4);
        assert!(ends.iter().all(|&e| e > SimTime::ZERO));
        assert_eq!(dev.epoch(), 1);
        assert_eq!(dev.total_launches(), 4);
    }

    #[test]
    fn a_departed_client_no_longer_holds_up_the_epoch() {
        let (dev, clients) = SharedDevice::new_mps(k80(), &[0, 1, 2]).unwrap();
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
        // its departure completes the epoch and wakes the waiter.
        let end = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                clients[1]
                    .launch(&desc(), KernelShape::new(1_000_000, 40), SimTime::ZERO)
                    .unwrap();
                block_on(clients[1].sync(SimTime::ZERO))
            });
            while dev.inner.lock().syncers == 0 {
                std::thread::yield_now();
            }
            assert_eq!(dev.epoch(), 0, "two clients, one has synced");
            drop(guards.pop());
            waiter.join().unwrap()
        });
        assert!(end > SimTime::ZERO);
        assert_eq!(dev.epoch(), 1);
        // The last client alone is a whole epoch.
        block_on(clients[1].sync(SimTime::ZERO));
        assert_eq!(dev.epoch(), 2);
    }

    #[test]
    fn advancing_a_shared_device_is_running_its_period_again() {
        // One period: both clients launch at `at`, then sync.
        let period = |dev: &SharedDevice, clients: &[GpuClient], at: SimTime| {
            let executed = dev.mark().launches;
            for c in clients {
                c.launch(&desc(), KernelShape::new(500_000, 40), at)
                    .unwrap();
                assert_eq!(c.stream_mark().queued, 1);
            }
            assert_eq!(dev.mark().launches, executed, "queued, not executed");
            let ends = std::thread::scope(|s| {
                let syncs: Vec<_> = clients
                    .iter()
                    .map(|c| s.spawn(move || block_on(c.sync(at))))
                    .collect();
                syncs.into_iter().map(|h| h.join().unwrap()).max()
            });
            assert_eq!(dev.mark().launches, executed + 2);
            ends.unwrap()
        };
        let read = |dev: &SharedDevice, clients: &[GpuClient]| {
            let streams: Vec<StreamMark> = clients.iter().map(|c| c.stream_mark()).collect();
            (dev.mark(), streams)
        };
        let (dev, clients) = SharedDevice::new_mps(k80(), &[0, 1]).unwrap();
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
        let (run, runners) = SharedDevice::new_mps(k80(), &[0, 1]).unwrap();
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

        let (_d1, solo) = SharedDevice::new_exclusive(k80(), 0).unwrap();
        solo.launch(
            &desc(),
            KernelShape::new(zones_total, inner_dim),
            SimTime::ZERO,
        )
        .unwrap();
        let solo_end = block_on(solo.sync(SimTime::ZERO));

        let (_d2, clients) =
            SharedDevice::new_mps(Device::new(1, DeviceSpec::tesla_k80()), &[0, 1, 2, 3]).unwrap();
        let ends: Vec<SimTime> = std::thread::scope(|s| {
            clients
                .iter()
                .map(|c| {
                    s.spawn(move || {
                        c.launch(
                            &desc(),
                            KernelShape::new(zones_total / 4, inner_dim),
                            SimTime::ZERO,
                        )
                        .unwrap();
                        block_on(c.sync(SimTime::ZERO))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mps_end = ends.into_iter().fold(SimTime::ZERO, SimTime::merge);
        assert!(
            mps_end < solo_end,
            "MPS {mps_end} should beat exclusive {solo_end}"
        );
    }

    #[test]
    fn mps_launch_overhead_is_elevated() {
        let (_dev, clients) = SharedDevice::new_mps(k80(), &[0, 1]).unwrap();
        let overhead = clients[0]
            .launch(&desc(), KernelShape::new(1000, 10), SimTime::ZERO)
            .unwrap();
        assert!(overhead > DeviceSpec::tesla_k80().launch_overhead);
    }

    #[test]
    fn streams_keep_clients_ordered_within_themselves() {
        let (_dev, client) = SharedDevice::new_exclusive(k80(), 0).unwrap();
        // Two launches on the same client serialize: total ≈ 2x one.
        client
            .launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO)
            .unwrap();
        let one = block_on(client.sync(SimTime::ZERO));
        client
            .launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO)
            .unwrap();
        client
            .launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO)
            .unwrap();
        let two = block_on(client.sync(SimTime::ZERO));
        let d_one = one - SimTime::ZERO;
        let d_two = two - SimTime::ZERO;
        let ratio = d_two.ratio(d_one);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
