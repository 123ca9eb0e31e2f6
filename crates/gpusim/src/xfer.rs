//! Host↔device transfer cost model.
//!
//! ARES on the paper's testbed communicates through the host only
//! (§5.3): halo faces computed on the GPU are staged to host memory,
//! sent via MPI, and staged back. These helpers price that staging.
//! GPU-direct (the paper's future-work item) removes the staging legs —
//! see [`halo_leg_time`]'s `gpu_direct` flag.

use crate::spec::DeviceSpec;
use hsim_time::SimDuration;

/// Peer-to-peer DMA between two devices on the same interconnect:
/// one latency plus the payload at the link bandwidth. Cheaper than
/// staging through the host (which pays two legs) but not free.
pub fn p2p_time(spec: &DeviceSpec, bytes: u64) -> SimDuration {
    spec.xfer_time(bytes)
}

/// Cost of one leg of a halo exchange for a GPU-resident field:
/// staging the face through the host, or nothing with GPU-direct
/// (the peer leg is then priced separately by [`p2p_time`]).
pub fn halo_leg_time(spec: &DeviceSpec, bytes: u64, gpu_direct: bool) -> SimDuration {
    if gpu_direct {
        SimDuration::ZERO
    } else {
        spec.xfer_time(bytes)
    }
}

/// Cost of redoing a corrupted halo transfer: the payload is detected
/// bad after arrival, so recovery re-stages the same leg and pays one
/// extra protocol round-trip (two link latencies) for the
/// negative-acknowledge/resend handshake.
pub fn retry_leg_time(spec: &DeviceSpec, bytes: u64, gpu_direct: bool) -> SimDuration {
    halo_leg_time(spec, bytes, gpu_direct) + spec.pcie_latency + spec.pcie_latency
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    #[test]
    fn gpu_direct_removes_staging() {
        let s = k80();
        assert_eq!(halo_leg_time(&s, 1 << 20, true), SimDuration::ZERO);
        assert!(halo_leg_time(&s, 1 << 20, false) > SimDuration::ZERO);
    }

    #[test]
    fn retry_costs_more_than_the_original_leg() {
        let s = k80();
        let bytes = 1 << 20;
        assert!(retry_leg_time(&s, bytes, false) > halo_leg_time(&s, bytes, false));
        // GPU-direct still pays the handshake round-trip.
        assert!(retry_leg_time(&s, bytes, true) > SimDuration::ZERO);
    }

    #[test]
    fn p2p_beats_two_leg_host_staging() {
        let s = k80();
        let bytes = 4 << 20;
        let staged = halo_leg_time(&s, bytes, false) + halo_leg_time(&s, bytes, false);
        assert!(p2p_time(&s, bytes) < staged);
        assert!(p2p_time(&s, bytes) > SimDuration::ZERO);
    }
}
