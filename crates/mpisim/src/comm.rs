//! The per-rank communicator: typed point-to-point plus tree-based
//! collectives, all carrying virtual time.

use std::any::Any;
use std::collections::VecDeque;

use crossbeam::channel::{Receiver, Sender};
use hsim_time::clock::ChargeKind;
use hsim_time::{RankClock, SimDuration, SimTime};

use crate::cost::CommCost;
use crate::error::MpiError;
use crate::payload::Payload;

/// Tag bit reserved for internal collective traffic; user tags must
/// stay below it.
const COLL_TAG_BASE: u32 = 0x8000_0000;

/// Telemetry category for a message tag: collective-space tags trace
/// as collective traffic, everything else as point-to-point.
fn tag_category(tag: u32) -> hsim_telemetry::Category {
    if tag >= COLL_TAG_BASE {
        hsim_telemetry::Category::Collective
    } else {
        hsim_telemetry::Category::MpiMessage
    }
}

/// Handle to a posted nonblocking receive (see [`Comm::irecv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRequest {
    src: usize,
    tag: u32,
}

pub(crate) struct Packet {
    tag: u32,
    data: Box<dyn Any + Send>,
    bytes: u64,
    departure: SimTime,
}

/// One rank's endpoint in the simulated MPI world.
///
/// A `Comm` owns the rank's [`RankClock`]; application code charges
/// compute time through [`Comm::charge`] and communication charges
/// itself.
pub struct Comm {
    rank: usize,
    size: usize,
    cost: CommCost,
    clock: RankClock,
    senders: Vec<Sender<Packet>>,
    receivers: Vec<Receiver<Packet>>,
    /// Messages received ahead of the tag the caller asked for, per
    /// source rank.
    pending: Vec<VecDeque<Packet>>,
    /// Per-rank collective sequence number (identical across ranks in
    /// SPMD execution) used to tag collective rounds uniquely.
    coll_seq: u32,
    /// Total bytes sent (reporting).
    bytes_sent: u64,
    /// Total messages sent (reporting).
    msgs_sent: u64,
    /// Bytes sent per destination rank (mpiP-style communication
    /// matrix row).
    bytes_per_dst: Vec<u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        cost: CommCost,
        senders: Vec<Sender<Packet>>,
        receivers: Vec<Receiver<Packet>>,
    ) -> Self {
        let pending = (0..size).map(|_| VecDeque::new()).collect();
        Comm {
            rank,
            size,
            cost,
            clock: RankClock::new(rank),
            senders,
            receivers,
            pending,
            coll_seq: 0,
            bytes_sent: 0,
            msgs_sent: 0,
            bytes_per_dst: vec![0; size],
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual instant of this rank.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Charge local (non-communication) virtual time.
    pub fn charge(&mut self, kind: ChargeKind, d: SimDuration) {
        self.clock.charge(kind, d);
    }

    /// Immutable view of the rank's clock (bucket breakdowns).
    pub fn clock(&self) -> &RankClock {
        &self.clock
    }

    /// Mutable access for runners that need to merge external timelines
    /// (e.g. a GPU device completion time).
    pub fn clock_mut(&mut self) -> &mut RankClock {
        &mut self.clock
    }

    /// Total bytes this rank has sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages this rank has sent.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// This rank's row of the communication matrix: bytes sent to each
    /// destination (the mpiP-style profile the paper's §6.1 neighbor
    /// discussion is about).
    pub fn bytes_per_dst(&self) -> &[u64] {
        &self.bytes_per_dst
    }

    fn check_rank(&self, r: usize) -> Result<(), MpiError> {
        if r >= self.size {
            Err(MpiError::RankOutOfRange {
                rank: r,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// Blocking typed send. User tags must be below `0x8000_0000`.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u32, data: T) -> Result<(), MpiError> {
        self.check_rank(dst)?;
        if dst == self.rank {
            return Err(MpiError::SelfMessage);
        }
        debug_assert!(
            tag < COLL_TAG_BASE,
            "user tag collides with collective space"
        );
        self.send_internal(dst, tag, data)
    }

    fn send_internal<T: Payload>(&mut self, dst: usize, tag: u32, data: T) -> Result<(), MpiError> {
        let bytes = data.byte_len();
        let t0 = self.clock.now();
        self.clock.charge(ChargeKind::Comm, self.cost.send_overhead);
        let pkt = Packet {
            tag,
            data: Box::new(data),
            bytes,
            departure: self.clock.now(),
        };
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
        self.bytes_per_dst[dst] += bytes;
        hsim_telemetry::count(hsim_telemetry::Counter::MpiSends, 1);
        hsim_telemetry::count(hsim_telemetry::Counter::MpiBytesSent, bytes);
        hsim_telemetry::span_args(
            self.rank as u32,
            0,
            tag_category(tag),
            "mpi_send",
            t0,
            self.clock.now(),
            &[("bytes", bytes), ("dst", dst as u64), ("tag", tag as u64)],
        );
        self.senders[dst]
            .send(pkt)
            .map_err(|_| MpiError::Disconnected { peer: dst })
    }

    /// Blocking typed receive from `src` with exact `tag` match.
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u32) -> Result<T, MpiError> {
        self.check_rank(src)?;
        if src == self.rank {
            return Err(MpiError::SelfMessage);
        }
        self.recv_internal(src, tag)
    }

    fn recv_internal<T: Payload>(&mut self, src: usize, tag: u32) -> Result<T, MpiError> {
        // First look in the out-of-order buffer.
        let buffered = self.pending[src]
            .iter()
            .position(|p| p.tag == tag)
            .and_then(|i| self.pending[src].remove(i));
        let pkt = match buffered {
            Some(p) => p,
            None => loop {
                let p = self.receivers[src]
                    .recv()
                    .map_err(|_| MpiError::Disconnected { peer: src })?;
                if p.tag == tag {
                    break p;
                }
                self.pending[src].push_back(p);
            },
        };
        // Virtual arrival: departure + wire time. Wait for it, then pay
        // the receive-path overhead.
        let t0 = self.clock.now();
        let arrival = pkt.departure + self.cost.msg_time(pkt.bytes);
        self.clock.wait_until(arrival);
        self.clock.charge(ChargeKind::Comm, self.cost.recv_overhead);
        self.note_recv(src, tag, pkt.bytes, t0, arrival);
        pkt.data
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| MpiError::TypeMismatch { tag })
    }

    /// Telemetry for one completed receive (shared by the blocking and
    /// nonblocking completion paths). No-op without a collector.
    fn note_recv(&mut self, src: usize, tag: u32, bytes: u64, t0: SimTime, arrival: SimTime) {
        hsim_telemetry::count(hsim_telemetry::Counter::MpiRecvs, 1);
        hsim_telemetry::count(hsim_telemetry::Counter::MpiBytesReceived, bytes);
        hsim_telemetry::time_stat(hsim_telemetry::TimeStat::MpiWait, arrival - t0);
        hsim_telemetry::time_stat(
            hsim_telemetry::TimeStat::MessageLatency,
            self.clock.now() - t0,
        );
        hsim_telemetry::span_args(
            self.rank as u32,
            0,
            tag_category(tag),
            "mpi_recv",
            t0,
            self.clock.now(),
            &[("bytes", bytes), ("src", src as u64), ("tag", tag as u64)],
        );
    }

    /// Combined exchange with one peer: send then receive (safe because
    /// transport is buffered).
    pub fn sendrecv<T: Payload, U: Payload>(
        &mut self,
        peer: usize,
        tag: u32,
        data: T,
    ) -> Result<U, MpiError> {
        self.send(peer, tag, data)?;
        self.recv(peer, tag)
    }

    /// Nonblocking send. Transport is buffered (eager protocol), so an
    /// isend completes locally at once — identical to [`Comm::send`];
    /// provided for source fidelity with MPI codes.
    pub fn isend<T: Payload>(&mut self, dst: usize, tag: u32, data: T) -> Result<(), MpiError> {
        self.send(dst, tag, data)
    }

    /// Post a nonblocking receive. No matching happens until
    /// [`Comm::wait`]; in virtual time this is what lets a rank
    /// overlap computation with an in-flight message (its clock keeps
    /// advancing on compute, and `wait` only blocks to the message's
    /// arrival instant).
    pub fn irecv(&mut self, src: usize, tag: u32) -> Result<RecvRequest, MpiError> {
        self.check_rank(src)?;
        if src == self.rank {
            return Err(MpiError::SelfMessage);
        }
        Ok(RecvRequest { src, tag })
    }

    /// Complete a posted receive.
    pub fn wait<T: Payload>(&mut self, req: RecvRequest) -> Result<T, MpiError> {
        self.recv_internal(req.src, req.tag)
    }

    /// Complete a batch of posted receives of one payload type, in
    /// posting order.
    pub fn waitall<T: Payload>(&mut self, reqs: Vec<RecvRequest>) -> Result<Vec<T>, MpiError> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Nonblocking completion test: `Some(value)` if a matching
    /// message has already been delivered to this endpoint (no virtual
    /// waiting beyond the message's arrival time), `None` otherwise.
    /// The request stays valid when `None` is returned.
    pub fn test<T: Payload>(&mut self, req: &RecvRequest) -> Result<Option<T>, MpiError> {
        // Drain anything already sitting in the channel into the
        // pending buffer, then look for a match.
        while let Ok(p) = self.receivers[req.src].try_recv() {
            self.pending[req.src].push_back(p);
        }
        let found = self.pending[req.src]
            .iter()
            .position(|p| p.tag == req.tag)
            .and_then(|i| self.pending[req.src].remove(i));
        match found {
            None => Ok(None),
            Some(pkt) => {
                let t0 = self.clock.now();
                let arrival = pkt.departure + self.cost.msg_time(pkt.bytes);
                self.clock.wait_until(arrival);
                self.clock.charge(ChargeKind::Comm, self.cost.recv_overhead);
                self.note_recv(req.src, req.tag, pkt.bytes, t0, arrival);
                pkt.data
                    .downcast::<T>()
                    .map(|b| Some(*b))
                    .map_err(|_| MpiError::TypeMismatch { tag: req.tag })
            }
        }
    }

    fn next_coll_tag(&mut self) -> u32 {
        let tag = COLL_TAG_BASE | (self.coll_seq & 0x0FFF_FFFF);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    /// Binomial-tree reduction of a scalar to rank 0. Returns
    /// `Some(result)` on rank 0, `None` elsewhere.
    fn reduce_scalar<T, F>(&mut self, x: T, tag: u32, op: F) -> Result<Option<T>, MpiError>
    where
        T: Payload + Copy,
        F: Fn(T, T) -> T,
    {
        let mut val = x;
        let mut offset = 1;
        while offset < self.size {
            let group = 2 * offset;
            if self.rank.is_multiple_of(group) {
                let peer = self.rank + offset;
                if peer < self.size {
                    let other: T = self.recv_internal(peer, tag)?;
                    val = op(val, other);
                }
            } else if self.rank % group == offset {
                self.send_internal(self.rank - offset, tag, val)?;
                return Ok(None);
            }
            offset = group;
        }
        if self.rank == 0 {
            Ok(Some(val))
        } else {
            Ok(None)
        }
    }

    /// Binomial-tree broadcast of a scalar from rank 0.
    fn bcast_scalar<T: Payload + Copy>(&mut self, x: Option<T>, tag: u32) -> Result<T, MpiError> {
        let mut offset = 1usize;
        while offset < self.size {
            offset <<= 1;
        }
        offset >>= 1;
        let mut val = x;
        while offset >= 1 {
            let group = 2 * offset;
            if self.rank.is_multiple_of(group) {
                let peer = self.rank + offset;
                if peer < self.size {
                    let Some(v) = val else {
                        return Err(MpiError::CollectiveProtocol {
                            what: "broadcast value missing on a sending hop",
                        });
                    };
                    self.send_internal(peer, tag, v)?;
                }
            } else if self.rank % group == offset {
                let v: T = self.recv_internal(self.rank - offset, tag)?;
                val = Some(v);
            }
            if offset == 1 {
                break;
            }
            offset /= 2;
        }
        val.ok_or(MpiError::CollectiveProtocol {
            what: "broadcast did not reach this rank",
        })
    }

    /// All-reduce a scalar with a commutative, associative operator.
    pub fn allreduce<T, F>(&mut self, x: T, op: F) -> Result<T, MpiError>
    where
        T: Payload + Copy,
        F: Fn(T, T) -> T,
    {
        if self.size == 1 {
            return Ok(x);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let reduced = self.reduce_scalar(x, tag, op)?;
        self.bcast_scalar(reduced, tag)
    }

    /// Sum across all ranks.
    pub fn allreduce_sum(&mut self, x: f64) -> Result<f64, MpiError> {
        self.allreduce(x, |a, b| a + b)
    }

    /// Minimum across all ranks (the CFL timestep reduction).
    pub fn allreduce_min(&mut self, x: f64) -> Result<f64, MpiError> {
        self.allreduce(x, f64::min)
    }

    /// Maximum across all ranks.
    pub fn allreduce_max(&mut self, x: f64) -> Result<f64, MpiError> {
        self.allreduce(x, f64::max)
    }

    /// Maximum of a `u64` across all ranks (used for clock merging).
    pub fn allreduce_max_u64(&mut self, x: u64) -> Result<u64, MpiError> {
        self.allreduce(x, u64::max)
    }

    /// Synchronize all ranks in virtual time: every clock advances to
    /// the latest clock at entry (plus the collective's own cost). This
    /// is the bulk-synchronous step boundary.
    pub fn barrier(&mut self) -> Result<(), MpiError> {
        if self.size == 1 {
            return Ok(());
        }
        let t = self.allreduce_max_u64(self.clock.now().as_nanos())?;
        self.clock.wait_until(SimTime::from_nanos(t));
        Ok(())
    }

    /// Broadcast a scalar from rank 0 to everyone.
    pub fn bcast<T: Payload + Copy>(&mut self, x: T) -> Result<T, MpiError> {
        if self.size == 1 {
            return Ok(x);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let val = if self.rank == 0 { Some(x) } else { None };
        self.bcast_scalar(val, tag)
    }

    /// Broadcast a vector from rank 0 (binomial tree; each hop pays
    /// wire time for the whole payload).
    pub fn bcast_vec(&mut self, x: Vec<f64>) -> Result<Vec<f64>, MpiError> {
        if self.size == 1 {
            return Ok(x);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let mut offset = 1usize;
        while offset < self.size {
            offset <<= 1;
        }
        offset >>= 1;
        let mut val = if self.rank == 0 { Some(x) } else { None };
        while offset >= 1 {
            let group = 2 * offset;
            if self.rank.is_multiple_of(group) {
                let peer = self.rank + offset;
                if peer < self.size {
                    let Some(v) = val.as_ref() else {
                        return Err(MpiError::CollectiveProtocol {
                            what: "broadcast value missing on a sending hop",
                        });
                    };
                    self.send_internal(peer, tag, v.clone())?;
                }
            } else if self.rank % group == offset {
                let v: Vec<f64> = self.recv_internal(self.rank - offset, tag)?;
                val = Some(v);
            }
            if offset == 1 {
                break;
            }
            offset /= 2;
        }
        val.ok_or(MpiError::CollectiveProtocol {
            what: "broadcast did not reach this rank",
        })
    }

    /// Gather one vector per rank to rank 0 (rank order). Returns
    /// `Some(rows)` on rank 0, `None` elsewhere.
    pub fn gather_vec(&mut self, x: Vec<f64>) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        if self.rank == 0 {
            let mut out = Vec::with_capacity(self.size);
            out.push(x);
            for src in 1..self.size {
                out.push(self.recv_internal(src, tag)?);
            }
            Ok(Some(out))
        } else {
            self.send_internal(0, tag, x)?;
            Ok(None)
        }
    }

    /// Element-wise sum allreduce of equal-length vectors (binomial
    /// reduce to rank 0 + vector broadcast).
    pub fn allreduce_vec_sum(&mut self, mut x: Vec<f64>) -> Result<Vec<f64>, MpiError> {
        if self.size == 1 {
            return Ok(x);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let mut offset = 1;
        let mut holds = true;
        while offset < self.size {
            let group = 2 * offset;
            if self.rank.is_multiple_of(group) {
                let peer = self.rank + offset;
                if peer < self.size {
                    let other: Vec<f64> = self.recv_internal(peer, tag)?;
                    if other.len() != x.len() {
                        return Err(MpiError::TypeMismatch { tag });
                    }
                    for (a, b) in x.iter_mut().zip(&other) {
                        *a += b;
                    }
                }
            } else if self.rank % group == offset {
                self.send_internal(self.rank - offset, tag, x.clone())?;
                holds = false;
                break;
            }
            offset = group;
        }
        let val = if holds && self.rank == 0 {
            Some(x)
        } else {
            None
        };
        // Reuse the vector broadcast for the down-sweep.
        let tag2 = self.next_coll_tag();
        let mut offset = 1usize;
        while offset < self.size {
            offset <<= 1;
        }
        offset >>= 1;
        let mut val = val;
        while offset >= 1 {
            let group = 2 * offset;
            if self.rank.is_multiple_of(group) {
                let peer = self.rank + offset;
                if peer < self.size {
                    let Some(v) = val.as_ref() else {
                        return Err(MpiError::CollectiveProtocol {
                            what: "reduced value missing on a down-sweep hop",
                        });
                    };
                    self.send_internal(peer, tag2, v.clone())?;
                }
            } else if self.rank % group == offset {
                let v: Vec<f64> = self.recv_internal(self.rank - offset, tag2)?;
                val = Some(v);
            }
            if offset == 1 {
                break;
            }
            offset /= 2;
        }
        val.ok_or(MpiError::CollectiveProtocol {
            what: "allreduce did not reach this rank",
        })
    }

    /// Gather one `f64` per rank to rank 0 (rank order). Returns
    /// `Some(values)` on rank 0, `None` elsewhere.
    pub fn gather_f64(&mut self, x: f64) -> Result<Option<Vec<f64>>, MpiError> {
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        if self.rank == 0 {
            let mut out = Vec::with_capacity(self.size);
            out.push(x);
            for src in 1..self.size {
                out.push(self.recv_internal(src, tag)?);
            }
            Ok(Some(out))
        } else {
            self.send_internal(0, tag, x)?;
            Ok(None)
        }
    }

    /// Personalized all-to-all of `f64` vectors: `parts[dst]` is this
    /// rank's payload for rank `dst` (`parts[rank]` stays local); the
    /// return value holds one inbound vector per source rank, in rank
    /// order. Transport is buffered (eager sends), so posting every
    /// send before the first receive cannot deadlock, and each leg
    /// pays the usual overhead + wire time — the collective that
    /// prices Lagrangian-particle migration.
    pub fn alltoallv_f64(&mut self, mut parts: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>, MpiError> {
        if parts.len() != self.size {
            return Err(MpiError::CollectiveProtocol {
                what: "alltoallv payload count differs from the world size",
            });
        }
        if self.size == 1 {
            return Ok(parts);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        // Post all sends first (even empty payloads, so every receive
        // has a matching message), then drain in rank order.
        for (dst, slot) in parts.iter_mut().enumerate() {
            if dst != self.rank {
                let payload = std::mem::take(slot);
                self.send_internal(dst, tag, payload)?;
            }
        }
        let mut inbound = Vec::with_capacity(self.size);
        for (src, slot) in parts.iter_mut().enumerate() {
            if src == self.rank {
                inbound.push(std::mem::take(slot));
            } else {
                inbound.push(self.recv_internal(src, tag)?);
            }
        }
        Ok(inbound)
    }

    /// Gather one `f64` per rank to every rank (gather + bcast of a
    /// vector would need vector bcast; with node-scale rank counts a
    /// linear exchange is fine).
    pub fn allgather_f64(&mut self, x: f64) -> Result<Vec<f64>, MpiError> {
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let mut out = vec![0.0; self.size];
        out[self.rank] = x;
        // Ring exchange: send to the right, receive from the left,
        // size-1 times.
        let right = (self.rank + 1) % self.size;
        let left = (self.rank + self.size - 1) % self.size;
        let mut carry = (self.rank as u64, x);
        for _ in 0..self.size.saturating_sub(1) {
            self.send_internal(right, tag, vec![carry.0 as f64, carry.1])?;
            let got: Vec<f64> = self.recv_internal(left, tag)?;
            let (src, v) = (got[0] as usize, got[1]);
            out[src] = v;
            carry = (src as u64, v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    // Comm is only constructible through World; its behaviour is
    // exercised in `world.rs` tests and the crate's integration tests.
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn collective_tags_live_in_reserved_space() {
        assert!(COLL_TAG_BASE > u32::MAX / 2);
    }
}
