//! Message cost model (α–β with send/recv overheads).

use hsim_time::SimDuration;

/// Latency/bandwidth model for one transport.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCost {
    /// One-way message latency (α).
    pub latency: SimDuration,
    /// Transport bandwidth in GB/s (β is `1/bandwidth`).
    pub bandwidth_gbs: f64,
    /// CPU time the sender spends in the send path.
    pub send_overhead: SimDuration,
    /// CPU time the receiver spends in the receive path.
    pub recv_overhead: SimDuration,
}

impl CommCost {
    /// Shared-memory transport between ranks of one node (the paper's
    /// single-node experiments): sub-microsecond latency, memory-copy
    /// bandwidth.
    pub fn on_node() -> Self {
        CommCost {
            latency: SimDuration::from_nanos(600),
            bandwidth_gbs: 8.0,
            send_overhead: SimDuration::from_nanos(250),
            recv_overhead: SimDuration::from_nanos(250),
        }
    }

    /// A zero-cost model for semantics-only tests.
    pub fn free() -> Self {
        CommCost {
            latency: SimDuration::ZERO,
            bandwidth_gbs: f64::INFINITY,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
        }
    }

    /// Virtual time of a re-split redistribution collective: at a
    /// rebalance (or rank-loss recovery) boundary every rank
    /// resynchronizes through a tree barrier of depth `⌈log2 ranks⌉`,
    /// then the zones whose owner changed stream through the transport
    /// once, host-staged, with the per-rank send/recv overheads. A
    /// single-rank world redistributes for free.
    pub fn redistribution_time(&self, bytes: u64, ranks: usize) -> SimDuration {
        if ranks <= 1 {
            return SimDuration::ZERO;
        }
        let depth = usize::BITS - (ranks - 1).leading_zeros();
        let barrier = SimDuration::from_nanos(self.latency.as_nanos() * u64::from(depth));
        barrier + self.send_overhead + self.recv_overhead + self.msg_time(bytes)
    }

    /// Wire time for `bytes`: `α + bytes/β`.
    pub fn msg_time(&self, bytes: u64) -> SimDuration {
        let bw = if self.bandwidth_gbs.is_finite() && self.bandwidth_gbs > 0.0 {
            SimDuration::from_secs_f64(bytes as f64 / (self.bandwidth_gbs * 1e9))
        } else {
            SimDuration::ZERO
        };
        self.latency + bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_time_is_affine_in_bytes() {
        let c = CommCost::on_node();
        let t0 = c.msg_time(0);
        let t1 = c.msg_time(8_000_000); // 8 MB at 8 GB/s = 1 ms
        assert_eq!(t0, c.latency);
        let wire = t1 - t0;
        assert!((wire.as_millis_f64() - 1.0).abs() < 0.01, "{wire}");
    }

    #[test]
    fn free_model_is_actually_free() {
        let c = CommCost::free();
        assert_eq!(c.msg_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn redistribution_grows_with_bytes_and_ranks_and_is_free_alone() {
        let c = CommCost::on_node();
        assert_eq!(c.redistribution_time(1 << 20, 1), SimDuration::ZERO);
        let small = c.redistribution_time(1 << 10, 16);
        let big = c.redistribution_time(1 << 24, 16);
        assert!(big > small, "{small} vs {big}");
        let few = c.redistribution_time(1 << 10, 2);
        let many = c.redistribution_time(1 << 10, 64);
        assert!(many > few, "deeper barrier: {few} vs {many}");
        // Even a zero-byte boundary still pays the barrier.
        assert!(c.redistribution_time(0, 16) > SimDuration::ZERO);
    }
}
