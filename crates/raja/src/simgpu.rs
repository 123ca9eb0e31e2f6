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

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use hsim_gpu::{Device, DeviceSpec, GpuError, KernelDesc, KernelShape};
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
    /// job id → (kernel name, elements) for the in-flight epoch.
    /// Populated only when the submitting thread records telemetry, so
    /// the disabled path never allocates here.
    job_meta: HashMap<u64, (&'static str, u64)>,
    /// Per stream, the kernels resolved at the last sync, awaiting
    /// drain by the stream's own client thread. Per-client drain keeps
    /// span/profile attribution independent of which thread happened
    /// to be the sync leader.
    resolved_kernels: Vec<Vec<ResolvedKernel>>,
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
            let stream = job.stream as usize;
            self.stream_end[stream] = self.stream_end[stream].merge(o.end);
            // Stash the kernel for its own client to drain: which
            // thread led the sync must not change the telemetry.
            if let Some(&(name, elems)) = self.job_meta.get(&o.id) {
                let elapsed = (o.end - o.start).as_secs_f64();
                let occupancy = if elapsed > 0.0 {
                    (job.work / elapsed).clamp(0.0, 1.0)
                } else {
                    job.max_rate
                };
                self.resolved_kernels[stream].push(ResolvedKernel {
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
                job_meta: HashMap::new(),
                resolved_kernels: vec![Vec::new(); clients],
            }),
            resolved: Condvar::new(),
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
        if std::mem::replace(&mut self.dev.inner.lock().guarded[self.stream], true) {
            return Err(GpuError::InvalidStream);
        }
        Ok(Departure {
            dev: Arc::clone(&self.dev),
        })
    }

    /// Read this client's stream.
    pub fn stream_mark(&self) -> StreamMark {
        let inner = self.dev.inner.lock();
        let mine = |job: &&hsim_gpu::Job| job.stream == self.stream as u64;
        StreamMark {
            end: inner.stream_end[self.stream],
            queued: inner.device.pending_jobs().iter().filter(mine).count(),
        }
    }

    /// Move this client's stream `times` more repetitions of a period
    /// that took it `step` further.
    pub fn advance_stream(&self, step: SimDuration, times: u64) -> Result<(), Overflow> {
        let end = &mut self.dev.inner.lock().stream_end[self.stream];
        *end = SimTime(advanced(end.0, step.0, times)?);
        Ok(())
    }

    /// Submit one kernel launch at virtual instant `at`. Returns the
    /// host-side launch overhead the caller must charge to its clock.
    pub fn launch(&self, desc: &KernelDesc, shape: KernelShape, at: SimTime) -> SimDuration {
        let mut inner = self.dev.inner.lock();
        let ticket = inner
            .device
            .submit(self.stream, desc, shape, at, self.dev.mps);
        if hsim_telemetry::is_enabled() {
            inner.job_meta.insert(ticket.job, (desc.name, shape.elems));
        }
        ticket.overhead
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
        let kernels = std::mem::take(&mut inner.resolved_kernels[self.stream]);
        if hsim_telemetry::is_enabled() {
            let pid = hsim_telemetry::DEVICE_PID_BASE + self.dev.id as u32;
            let tid = self.stream as u32;
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
        inner.stream_end[self.stream].merge(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_time::task::block_on;

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

    #[test]
    fn exclusive_client_launch_and_sync() {
        let (_dev, client) = exclusive();
        let overhead = client.launch(&desc(), KernelShape::new(1_000_000, 320), SimTime::ZERO);
        assert_eq!(overhead, DeviceSpec::tesla_k80().launch_overhead);
        let end = block_on(client.sync(SimTime::ZERO));
        assert!(end > SimTime::ZERO);
    }

    #[test]
    fn sync_without_launches_returns_at() {
        let (_dev, client) = exclusive();
        let at = SimTime::from_nanos(123);
        assert_eq!(block_on(client.sync(at)), at);
    }

    #[test]
    fn epochs_advance_per_sync_round() {
        let (dev, client) = exclusive();
        assert_eq!(dev.epoch(), 0);
        block_on(client.sync(SimTime::ZERO));
        block_on(client.sync(SimTime::ZERO));
        assert_eq!(dev.epoch(), 2);
    }

    #[test]
    fn mps_clients_rendezvous_across_threads() {
        let (dev, clients) = mps(4);
        let zones = 2_000_000u64;
        let ends: Vec<SimTime> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|c| {
                    s.spawn(move || {
                        c.launch(&desc(), KernelShape::new(zones, 40), SimTime::ZERO);
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
        // its departure completes the epoch and wakes the waiter.
        let end = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                clients[1].launch(&desc(), KernelShape::new(1_000_000, 40), SimTime::ZERO);
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
                c.launch(&desc(), KernelShape::new(500_000, 40), at);
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
        let solo_end = block_on(solo.sync(SimTime::ZERO));

        let (_d2, clients) = mps(4);
        let ends: Vec<SimTime> = std::thread::scope(|s| {
            clients
                .iter()
                .map(|c| {
                    s.spawn(move || {
                        c.launch(
                            &desc(),
                            KernelShape::new(zones_total / 4, inner_dim),
                            SimTime::ZERO,
                        );
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
        let one = block_on(client.sync(SimTime::ZERO));
        client.launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO);
        client.launch(&desc(), KernelShape::new(4_000_000, 320), SimTime::ZERO);
        let two = block_on(client.sync(SimTime::ZERO));
        let d_one = one - SimTime::ZERO;
        let d_two = two - SimTime::ZERO;
        let ratio = d_two.ratio(d_one);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
