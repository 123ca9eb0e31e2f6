//! The Multi-Process Service (MPS).
//!
//! Because only a single context can be active on a device at a time,
//! multiple MPI processes cannot operate concurrently on one GPU. MPS
//! is "a software layer between the application and the driver \[that\]
//! routes all CUDA calls through a single context, allowing for the
//! multiple processes to execute concurrently. ... The caveat is that
//! the kernel launch overhead is higher." (paper §2.)
//!
//! The simulated server owns the device's one context and gives each
//! client its own stream; client launches pay the elevated overhead but
//! land on the shared timeline where they may overlap.

use crate::device::{Device, LaunchTicket};
use crate::error::GpuError;
use crate::kernel::{KernelDesc, KernelShape};
use crate::stream::Stream;
use hsim_time::SimTime;

/// A client connection to the MPS server (one per MPI rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpsClient {
    /// The client process (MPI rank or pid).
    pub pid: usize,
    /// The client's dedicated stream within the shared context.
    pub stream: Stream,
}

/// The MPS control daemon for one device.
#[derive(Debug)]
pub struct MpsServer {
    device_id: usize,
    ctx: crate::context::ContextId,
    clients: Vec<usize>,
    max_clients: usize,
}

impl MpsServer {
    /// Pre-Volta MPS limits a device to 16 clients.
    pub const DEFAULT_MAX_CLIENTS: usize = 16;

    /// Start the server: acquires the device's single context.
    pub fn start(device: &mut Device, max_clients: usize) -> Result<Self, GpuError> {
        let ctx = device.create_mps_context()?;
        Ok(MpsServer {
            device_id: device.id(),
            ctx: ctx.id,
            clients: Vec::new(),
            max_clients: max_clients.max(1),
        })
    }

    /// Connect a client process; allocates its stream.
    pub fn connect(&mut self, device: &mut Device, pid: usize) -> Result<MpsClient, GpuError> {
        if device.id() != self.device_id {
            return Err(GpuError::MpsRejected {
                reason: "client connected to wrong device",
            });
        }
        if self.clients.len() >= self.max_clients {
            return Err(GpuError::MpsRejected {
                reason: "client limit reached",
            });
        }
        if self.clients.contains(&pid) {
            return Err(GpuError::MpsRejected {
                reason: "pid already connected",
            });
        }
        let stream = device.create_stream(self.ctx)?;
        self.clients.push(pid);
        Ok(MpsClient { pid, stream })
    }

    /// Launch a kernel on behalf of a client. Pays the MPS-elevated
    /// launch overhead.
    pub fn launch(
        &self,
        device: &mut Device,
        client: &MpsClient,
        desc: &KernelDesc,
        shape: KernelShape,
        at: SimTime,
    ) -> Result<LaunchTicket, GpuError> {
        if !self.clients.contains(&client.pid) {
            return Err(GpuError::MpsRejected {
                reason: "unknown client",
            });
        }
        device.submit(self.ctx, client.stream.id, desc, shape, at, true)
    }

    /// Stop the server, releasing the device context.
    pub fn shutdown(self, device: &mut Device) -> Result<(), GpuError> {
        device.destroy_context(self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use hsim_time::SimDuration;

    fn device() -> Device {
        Device::new(0, DeviceSpec::tesla_k80())
    }

    #[test]
    fn server_takes_the_device_context() {
        let mut d = device();
        let _mps = MpsServer::start(&mut d, 4).unwrap();
        // No direct context possible while MPS owns the device.
        assert!(d.create_context(9).is_err());
    }

    #[test]
    fn clients_connect_up_to_limit() {
        let mut d = device();
        let mut mps = MpsServer::start(&mut d, 2).unwrap();
        mps.connect(&mut d, 0).unwrap();
        mps.connect(&mut d, 1).unwrap();
        assert!(matches!(
            mps.connect(&mut d, 2),
            Err(GpuError::MpsRejected { .. })
        ));
    }

    #[test]
    fn duplicate_pid_rejected() {
        let mut d = device();
        let mut mps = MpsServer::start(&mut d, 4).unwrap();
        mps.connect(&mut d, 5).unwrap();
        assert!(mps.connect(&mut d, 5).is_err());
    }

    #[test]
    fn mps_launch_pays_elevated_overhead() {
        let mut d = device();
        let mut mps = MpsServer::start(&mut d, 4).unwrap();
        let c = mps.connect(&mut d, 0).unwrap();
        let k = KernelDesc::new("k", 10.0, 8.0);
        let ticket = mps
            .launch(
                &mut d,
                &c,
                &k,
                KernelShape::new(1_000_000, 64),
                SimTime::ZERO,
            )
            .unwrap();
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
        let spec = DeviceSpec::tesla_k80();
        let k = KernelDesc::new("k", 60.0, 16.0);
        let zones_total: u64 = 8_000_000;
        let inner = 40; // small innermost dimension: low occupancy

        // Serial reference: one exclusive rank, all zones, one stream.
        let mut d1 = Device::new(0, spec.clone());
        let ctx = d1.create_context(0).unwrap();
        let s = d1.create_stream(ctx.id).unwrap();
        d1.submit(
            ctx.id,
            s.id,
            &k,
            KernelShape::new(zones_total, inner),
            SimTime::ZERO,
            false,
        )
        .unwrap();
        let serial_end = d1.run_pending()[0].end;

        // MPS: four clients each with a quarter of the zones.
        let mut d2 = Device::new(1, spec);
        let mut mps = MpsServer::start(&mut d2, 4).unwrap();
        let clients: Vec<MpsClient> = (0..4).map(|p| mps.connect(&mut d2, p).unwrap()).collect();
        for c in &clients {
            mps.launch(
                &mut d2,
                c,
                &k,
                KernelShape::new(zones_total / 4, inner),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mps_end = d2
            .run_pending()
            .iter()
            .map(|o| o.end)
            .fold(SimTime::ZERO, SimTime::merge);

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
        let spec = DeviceSpec::tesla_k80();
        let k = KernelDesc::new("k", 60.0, 16.0);
        let zones_total: u64 = 32_000_000;
        let inner = 600;

        let mut d1 = Device::new(0, spec.clone());
        let ctx = d1.create_context(0).unwrap();
        let s = d1.create_stream(ctx.id).unwrap();
        d1.submit(
            ctx.id,
            s.id,
            &k,
            KernelShape::new(zones_total, inner),
            SimTime::ZERO,
            false,
        )
        .unwrap();
        let serial_end = d1.run_pending()[0].end;

        let mut d2 = Device::new(1, spec);
        let mut mps = MpsServer::start(&mut d2, 4).unwrap();
        for p in 0..4 {
            let c = mps.connect(&mut d2, p).unwrap();
            mps.launch(
                &mut d2,
                &c,
                &k,
                KernelShape::new(zones_total / 4, inner),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mps_end = d2
            .run_pending()
            .iter()
            .map(|o| o.end)
            .fold(SimTime::ZERO, SimTime::merge);

        // Allow a small tolerance: they should be within a few percent,
        // with MPS not meaningfully ahead.
        let ratio = (mps_end - SimTime::ZERO).ratio(serial_end - SimTime::ZERO);
        assert!(
            ratio > 0.97,
            "MPS should not win for large kernels: {ratio}"
        );
    }

    #[test]
    fn shutdown_releases_device() {
        let mut d = device();
        let mps = MpsServer::start(&mut d, 4).unwrap();
        mps.shutdown(&mut d).unwrap();
        assert!(d.create_context(1).is_ok());
    }

    #[test]
    fn launch_from_unknown_client_rejected() {
        let mut d = device();
        let mut mps = MpsServer::start(&mut d, 4).unwrap();
        let c = mps.connect(&mut d, 0).unwrap();
        let stranger = MpsClient {
            pid: 99,
            stream: c.stream,
        };
        assert!(mps
            .launch(
                &mut d,
                &stranger,
                &KernelDesc::new("k", 1.0, 1.0),
                KernelShape::new(1, 1),
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn unified_memory_available_through_device() {
        let mut d = device();
        let cost = d.um_mut().alloc_and_touch(1 << 20);
        assert!(cost > SimDuration::ZERO);
    }
}
