//! The per-rank communicator: typed point-to-point plus tree-based
//! collectives, all carrying virtual time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hsim_time::clock::ChargeKind;
use hsim_time::sync::{lock, wait};
use hsim_time::task::{self, Waiting};
use hsim_time::{advanced, Overflow, RankClock, SimTime};

use crate::cost::CommCost;
use crate::error::MpiError;
use crate::payload::{Body, Payload};

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

/// A user tag, or [`MpiError::ReservedTag`] if it lies in the
/// collective space.
fn user_tag(tag: u32) -> Result<u32, MpiError> {
    if tag < COLL_TAG_BASE {
        Ok(tag)
    } else {
        Err(MpiError::ReservedTag { tag })
    }
}

/// Most messages one packet carries ([`Comm::send_parts`]).
pub const MAX_PARTS: usize = 8;

/// `N` messages in one packet, checked when a caller names `N`.
struct Parts<const N: usize>;

impl<const N: usize> Parts<N> {
    const FIT: () = assert!(
        N >= 1 && N <= MAX_PARTS,
        "a packet carries 1..=MAX_PARTS messages"
    );
}

/// What a send puts in an inbox: one message, or several to the same
/// rank that travel together.
struct Packet {
    /// The first message's tag, which a receive matches.
    tag: u32,
    body: Body,
    /// Wire bytes of each message.
    bytes: u64,
    /// Per message, when it left its sender.
    departures: [SimTime; MAX_PARTS],
    parts: usize,
}

/// How often a blocking receive (a closure under [`crate::World::run`],
/// on a thread of its own) whose packet has not arrived yields its core
/// before it sleeps: the sender is usually runnable and about to send,
/// and a sleep costs two system calls and a wake-up. Measured on a
/// 16-rank world on two vCPUs, a ring hand-off took 30 µs this way,
/// 55 µs sleeping at once, and about 50 µs over the channels this
/// transport replaced, which also yield before they block.
const YIELDS_BEFORE_SLEEP: usize = 8;

/// What waits in one rank's inbox.
struct Mail {
    /// Per source rank, the packets it sent here that no receive has
    /// taken yet, in send order.
    from: Vec<VecDeque<Packet>>,
    /// The owner sleeps on [`Inbox::arrived`] (a blocking receive only:
    /// a driven rank parks instead).
    sleeping: bool,
}

struct Inbox {
    mail: Mutex<Mail>,
    arrived: Condvar,
}

/// The world's one transport, shared by every rank's [`Comm`], driven
/// or blocking: an inbox per destination rank, and per rank a flag
/// that its `Comm` is still alive.
pub(crate) struct PostOffice {
    inboxes: Vec<Inbox>,
    /// Cleared once, when the rank's `Comm` drops.
    live: Vec<AtomicBool>,
    /// Whether a receive may sleep in an inbox: only one that blocks
    /// its rank's own thread does. Driven ranks park instead.
    blocking: bool,
}

impl PostOffice {
    pub(crate) fn new(size: usize, blocking: bool) -> Arc<Self> {
        let inbox = || Inbox {
            mail: Mutex::new(Mail {
                from: (0..size).map(|_| VecDeque::new()).collect(),
                sleeping: false,
            }),
            arrived: Condvar::new(),
        };
        Arc::new(PostOffice {
            inboxes: (0..size).map(|_| inbox()).collect(),
            live: (0..size).map(|_| AtomicBool::new(true)).collect(),
            blocking,
        })
    }

    /// Put `pkt` from `src` in `dst`'s inbox, waking its owner only if
    /// it sleeps there: a wake-up is a system call, and almost every
    /// packet arrives before anyone waits for it.
    fn deliver(&self, src: usize, dst: usize, pkt: Packet) -> Result<(), MpiError> {
        if !self.live[dst].load(Ordering::Acquire) {
            return Err(MpiError::Disconnected { peer: dst });
        }
        let inbox = &self.inboxes[dst];
        let mut mail = lock(&inbox.mail);
        mail.from[src].push_back(pkt);
        if mail.sleeping {
            inbox.arrived.notify_one();
        }
        Ok(())
    }

    /// The earliest packet from `src` carrying `tag` in `mail`;
    /// [`MpiError::Disconnected`] once `src` has ended without sending
    /// one; `None` while it still may. Reading the flag under the
    /// inbox's lock, after the queue, is what makes "ended" mean "and
    /// everything it sent is here": the `Acquire` load pairs with the
    /// `Release` store of [`PostOffice::leave`], which follows the
    /// sender's last delivery.
    fn pick(&self, mail: &mut Mail, src: usize, tag: u32) -> Option<Result<Packet, MpiError>> {
        let queue = &mut mail.from[src];
        match queue.iter().position(|p| p.tag == tag) {
            Some(i) => queue.remove(i).map(Ok),
            None if !self.live[src].load(Ordering::Acquire) => {
                Some(Err(MpiError::Disconnected { peer: src }))
            }
            None => None,
        }
    }

    /// [`PostOffice::pick`] in `dst`'s inbox, now.
    fn take(&self, dst: usize, src: usize, tag: u32) -> Option<Result<Packet, MpiError>> {
        self.pick(&mut lock(&self.inboxes[dst].mail), src, tag)
    }

    /// [`PostOffice::take`], waiting until it has an answer: yielding
    /// first, then asleep.
    fn wait_for(&self, dst: usize, src: usize, tag: u32) -> Result<Packet, MpiError> {
        for _ in 0..YIELDS_BEFORE_SLEEP {
            if let Some(got) = self.take(dst, src, tag) {
                return got;
            }
            std::thread::yield_now();
        }
        let inbox = &self.inboxes[dst];
        let mut mail = lock(&inbox.mail);
        loop {
            if let Some(got) = self.pick(&mut mail, src, tag) {
                return got;
            }
            mail.sleeping = true;
            mail = wait(&inbox.arrived, mail);
            mail.sleeping = false;
        }
    }

    /// `rank` has ended: what it sent stays deliverable, and every
    /// receive that waits for more from it is woken to find out — in a
    /// world whose receives can sleep; a parked rank finds out when it
    /// is next resumed.
    fn leave(&self, rank: usize) {
        self.live[rank].store(false, Ordering::Release);
        if !self.blocking {
            return;
        }
        for inbox in &self.inboxes {
            if lock(&inbox.mail).sleeping {
                inbox.arrived.notify_one();
            }
        }
    }
}

/// One rank's endpoint in the simulated MPI world.
///
/// Sends are buffered and never wait. Everything that can wait on a
/// peer — a receive, and the collectives built from receives — is
/// named the way MPI names its non-blocking calls (`irecv`,
/// `iallreduce`, `ibarrier`, …) and returns a future in place of a
/// request handle, so a rank body is resumable and the workers of
/// [`crate::World::run_fallible`] can park it. [`Comm::recv`], [`Comm::barrier`] and
/// the named reductions are those futures blocked on, for stand-alone
/// closures under [`crate::World::run`].
///
/// A `Comm` carries a [`RankClock`] of its own, which every send,
/// receive and collective charges — enough for a stand-alone SPMD
/// closure under [`crate::World::run`]. A caller that keeps the rank's
/// clock itself (the cooperative runner, whose kernels charge it too)
/// swaps that clock in through [`Comm::clock_mut`] for the duration of
/// each operation, so the rank has one clock and one set of buckets.
pub struct Comm {
    rank: usize,
    size: usize,
    cost: CommCost,
    clock: RankClock,
    post: Arc<PostOffice>,
    /// Per-rank collective sequence number (identical across ranks in
    /// SPMD execution) used to tag collective rounds uniquely.
    coll_seq: u32,
    /// Total bytes sent (reporting).
    bytes_sent: u64,
    /// Messages sent, and messages a receive has consumed.
    sent: u64,
    received: u64,
}

impl Comm {
    pub(crate) fn new(rank: usize, cost: CommCost, post: Arc<PostOffice>) -> Self {
        Comm {
            rank,
            size: post.inboxes.len(),
            cost,
            clock: RankClock::new(rank),
            post,
            coll_seq: 0,
            bytes_sent: 0,
            sent: 0,
            received: 0,
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

    /// The clock this endpoint charges. A caller that owns the rank's
    /// clock lends it here with `std::mem::swap` around an operation
    /// and swaps it back afterwards; a stand-alone closure charges its
    /// own compute through it.
    pub fn clock_mut(&mut self) -> &mut RankClock {
        &mut self.clock
    }

    /// Total bytes this rank has sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// How many messages this rank has sent, and how many its receives
    /// have consumed. Over a whole world the two sums are equal exactly
    /// when nothing is in flight: every inbox is empty.
    pub fn messages(&self) -> (u64, u64) {
        (self.sent, self.received)
    }

    /// Account `times` more repetitions of a period in which this rank
    /// sent `bytes` and left nothing in flight. Only the byte count
    /// moves: the message counts matter as a balance, and collective
    /// tags only have to be the same on every rank.
    pub fn advance(&mut self, bytes: u64, times: u64) -> Result<(), Overflow> {
        self.bytes_sent = advanced(self.bytes_sent, bytes, times)?;
        Ok(())
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

    /// Typed send; buffered, so it never waits. User tags must be
    /// below `0x8000_0000`: the space above is the collectives'
    /// ([`MpiError::ReservedTag`]).
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u32, data: T) -> Result<(), MpiError> {
        self.send_parts(dst, [tag], data)
    }

    /// `N` messages to `dst` in one packet, tagged `tags` in order and
    /// each carrying an equal share of `data`'s wire bytes. Each is
    /// charged, counted and traced as if sent alone, one after the
    /// other; [`Comm::irecv_parts`] with the same tags receives them
    /// the same way.
    pub fn send_parts<T: Payload, const N: usize>(
        &mut self,
        dst: usize,
        tags: [u32; N],
        data: T,
    ) -> Result<(), MpiError> {
        let () = Parts::<N>::FIT;
        self.check_rank(dst)?;
        if dst == self.rank {
            return Err(MpiError::SelfMessage);
        }
        for tag in tags {
            user_tag(tag)?;
        }
        self.send_internal(dst, &tags, data)
    }

    fn send_internal<T: Payload>(
        &mut self,
        dst: usize,
        tags: &[u32],
        data: T,
    ) -> Result<(), MpiError> {
        let parts = tags.len();
        let bytes = data.byte_len() / parts as u64;
        let mut departures = [SimTime::ZERO; MAX_PARTS];
        for (departure, &tag) in departures.iter_mut().zip(tags) {
            let t0 = self.clock.now();
            self.clock.charge(ChargeKind::Comm, self.cost.send_overhead);
            *departure = self.clock.now();
            self.bytes_sent += bytes;
            self.sent += 1;
            if hsim_telemetry::is_enabled() {
                hsim_telemetry::count(hsim_telemetry::Counter::MpiSends, 1);
                hsim_telemetry::count(hsim_telemetry::Counter::MpiBytesSent, bytes);
                hsim_telemetry::span_args(
                    self.rank as u32,
                    0,
                    tag_category(tag),
                    "mpi_send",
                    t0,
                    *departure,
                    &[("bytes", bytes), ("dst", dst as u64), ("tag", tag as u64)],
                );
            }
        }
        let pkt = Packet {
            tag: tags[0],
            body: data.into_body(),
            bytes,
            departures,
            parts,
        };
        self.post.deliver(self.rank, dst, pkt)
    }

    /// Typed receive from `src` with exact `tag` match; a user tag, as
    /// for [`Comm::send`].
    pub async fn irecv<T: Payload>(&mut self, src: usize, tag: u32) -> Result<T, MpiError> {
        self.irecv_parts(src, [tag]).await
    }

    /// [`Comm::irecv`], blocking the rank's thread until the message
    /// arrives.
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u32) -> Result<T, MpiError> {
        task::block_on(self.irecv(src, tag))
    }

    /// Receive the `N` messages a [`Comm::send_parts`] with these `tags`
    /// sent from `src`, each waited for and charged in tag order as if
    /// received alone; their payload whole.
    pub async fn irecv_parts<T: Payload, const N: usize>(
        &mut self,
        src: usize,
        tags: [u32; N],
    ) -> Result<T, MpiError> {
        let () = Parts::<N>::FIT;
        self.check_rank(src)?;
        if src == self.rank {
            return Err(MpiError::SelfMessage);
        }
        for tag in tags {
            user_tag(tag)?;
        }
        self.recv_internal(src, &tags).await
    }

    async fn recv_internal<T: Payload>(&mut self, src: usize, tags: &[u32]) -> Result<T, MpiError> {
        // The inbox wait: the earliest packet from `src` with the first
        // tag, whatever arrived before it. A blocking receive sleeps in
        // its inbox; a driven rank parks and is resumed once a peer has
        // run.
        let (post, me, tag) = (&self.post, self.rank, tags[0]);
        let pkt = task::wait(
            Waiting::Message { src, tag },
            || post.take(me, src, tag),
            || post.wait_for(me, src, tag),
        )
        .await?;
        if pkt.parts != tags.len() {
            return Err(MpiError::TypeMismatch { tag });
        }
        // Virtual arrival: departure + wire time. Wait for it, then pay
        // the receive-path overhead, message by message.
        let wire = self.cost.msg_time(pkt.bytes);
        for (&departure, &tag) in pkt.departures.iter().zip(tags) {
            self.received += 1;
            let t0 = self.clock.now();
            let arrival = departure + wire;
            self.clock.wait_until(arrival);
            self.clock.charge(ChargeKind::Comm, self.cost.recv_overhead);
            if hsim_telemetry::is_enabled() {
                let now = self.clock.now();
                hsim_telemetry::count(hsim_telemetry::Counter::MpiRecvs, 1);
                hsim_telemetry::count(hsim_telemetry::Counter::MpiBytesReceived, pkt.bytes);
                hsim_telemetry::time_stat(hsim_telemetry::TimeStat::MpiWait, arrival - t0);
                hsim_telemetry::span_args(
                    self.rank as u32,
                    0,
                    tag_category(tag),
                    "mpi_recv",
                    t0,
                    now,
                    &[
                        ("bytes", pkt.bytes),
                        ("src", src as u64),
                        ("tag", tag as u64),
                    ],
                );
            }
        }
        let bytes = pkt.bytes * tags.len() as u64;
        T::from_body(pkt.body, bytes).ok_or(MpiError::TypeMismatch { tag })
    }

    fn next_coll_tag(&mut self) -> u32 {
        let tag = COLL_TAG_BASE | (self.coll_seq & 0x0FFF_FFFF);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    /// Binomial-tree reduction of a scalar to rank 0. Returns
    /// `Some(result)` on rank 0, `None` elsewhere.
    async fn reduce_scalar<T, F>(&mut self, x: T, tag: u32, op: F) -> Result<Option<T>, MpiError>
    where
        T: Payload + Copy,
        F: Fn(T, T) -> T,
    {
        let mut val = x;
        let mut offset = 1;
        while offset < self.size {
            let group = 2 * offset;
            if self.rank % group == 0 {
                let peer = self.rank + offset;
                if peer < self.size {
                    let other: T = self.recv_internal(peer, &[tag]).await?;
                    val = op(val, other);
                }
            } else if self.rank % group == offset {
                self.send_internal(self.rank - offset, &[tag], val)?;
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
    async fn bcast_scalar<T: Payload + Copy>(
        &mut self,
        x: Option<T>,
        tag: u32,
    ) -> Result<T, MpiError> {
        let mut offset = 1usize;
        while offset < self.size {
            offset <<= 1;
        }
        offset >>= 1;
        let mut val = x;
        while offset >= 1 {
            let group = 2 * offset;
            if self.rank % group == 0 {
                let peer = self.rank + offset;
                if peer < self.size {
                    let Some(v) = val else {
                        return Err(MpiError::CollectiveProtocol {
                            what: "broadcast value missing on a sending hop",
                        });
                    };
                    self.send_internal(peer, &[tag], v)?;
                }
            } else if self.rank % group == offset {
                let v: T = self.recv_internal(self.rank - offset, &[tag]).await?;
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

    /// All-reduce a scalar with a commutative, associative operator
    /// (`f64::min` is the CFL timestep reduction).
    pub async fn iallreduce<T, F>(&mut self, x: T, op: F) -> Result<T, MpiError>
    where
        T: Payload + Copy,
        F: Fn(T, T) -> T,
    {
        if self.size == 1 {
            return Ok(x);
        }
        hsim_telemetry::count(hsim_telemetry::Counter::MpiCollectives, 1);
        let tag = self.next_coll_tag();
        let reduced = self.reduce_scalar(x, tag, op).await?;
        self.bcast_scalar(reduced, tag).await
    }

    /// Sum across all ranks, blocking.
    pub fn allreduce_sum(&mut self, x: f64) -> Result<f64, MpiError> {
        task::block_on(self.iallreduce(x, |a, b| a + b))
    }

    /// Maximum across all ranks, blocking.
    pub fn allreduce_max(&mut self, x: f64) -> Result<f64, MpiError> {
        task::block_on(self.iallreduce(x, f64::max))
    }

    /// Synchronize all ranks in virtual time: every clock advances to
    /// the latest clock at entry (plus the collective's own cost). This
    /// is the bulk-synchronous step boundary.
    pub async fn ibarrier(&mut self) -> Result<(), MpiError> {
        if self.size == 1 {
            return Ok(());
        }
        let t = self
            .iallreduce(self.clock.now().as_nanos(), u64::max)
            .await?;
        self.clock.wait_until(SimTime::from_nanos(t));
        Ok(())
    }

    /// [`Comm::ibarrier`], blocking.
    pub fn barrier(&mut self) -> Result<(), MpiError> {
        task::block_on(self.ibarrier())
    }

    /// Personalized all-to-all of `f64` vectors: `parts[dst]` is this
    /// rank's payload for rank `dst` (`parts[rank]` stays local); the
    /// return value holds one inbound vector per source rank, in rank
    /// order. Transport is buffered (eager sends), so posting every
    /// send before the first receive cannot deadlock, and each leg
    /// pays the usual overhead + wire time — the collective that
    /// prices Lagrangian-particle migration.
    pub async fn ialltoallv_f64(
        &mut self,
        mut parts: Vec<Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>, MpiError> {
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
                self.send_internal(dst, &[tag], payload)?;
            }
        }
        let mut inbound = Vec::with_capacity(self.size);
        for (src, slot) in parts.iter_mut().enumerate() {
            if src == self.rank {
                inbound.push(std::mem::take(slot));
            } else {
                inbound.push(self.recv_internal(src, &[tag]).await?);
            }
        }
        Ok(inbound)
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        self.post.leave(self.rank);
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
