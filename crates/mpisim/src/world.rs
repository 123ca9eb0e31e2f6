//! The world launcher: opens the ranks' inboxes and drives the ranks.
//!
//! A rank body is a future over its [`Comm`], and one driver runs it
//! ([`World::run_fallible`]): a pool of worker threads resumes the
//! ranks' futures from one shared queue, and a wait that cannot be met
//! yet parks the rank, never the worker. A run whose ranks execute
//! kernel bodies gets a worker per host core, so no core runs two
//! ranks' kernels while another idles; a run whose ranks only exchange
//! virtual timestamps gets one worker, the calling thread. Every
//! receive names its `(src, tag)`, so virtual time is a function of the
//! messages alone, and every worker count produces the same clocks,
//! bit for bit. [`World::run`] keeps a thread per rank for stand-alone
//! closures, which block in their waits.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Condvar, Mutex};

use hsim_time::sync::{into_inner, lock, wait};
use hsim_time::task::{self, Resumed, Waiting};

use crate::comm::{Comm, PostOffice};
use crate::cost::CommCost;
use crate::error::MpiError;

/// Entry point for SPMD programs.
pub struct World;

impl World {
    /// Run `f` on `size` ranks (threads), returning each rank's result
    /// in rank order. Panics in any rank propagate after all threads
    /// join (std scoped threads re-raise on join).
    ///
    /// `f` receives the rank's [`Comm`], which carries a virtual clock
    /// starting at the epoch.
    #[allow(clippy::disallowed_methods)] // a thread per rank: worlds own their threads
    pub fn run<R, F>(size: usize, cost: CommCost, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let body = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints(size, cost, true)
                .into_iter()
                .map(|mut comm| scope.spawn(move || body(&mut comm)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Run the rank body `f` on `size` ranks, resumed by
    /// `min(workers, size)` worker threads — the calling thread and as
    /// many more as it takes — and fault tolerant: the body returns
    /// `Result`, and a *panic* in one rank is caught at the resume that
    /// raised it and becomes `Err("rank N: …")`, so its peers keep
    /// running. No rank can hang on a dead peer: a rank that ends —
    /// cleanly, with an error or by panic — drops its `Comm`, so every
    /// receive from it returns [`MpiError::Disconnected`]. And no rank
    /// can hang at all: a world in which every live rank waits for
    /// something that cannot happen ends with [`MpiError::Deadlock`]
    /// on each of them.
    ///
    /// One worker resumes the ranks in rank order, pass after pass, and
    /// spawns nothing. The results do not depend on `workers`.
    pub fn run_fallible<R, F, Fut>(
        workers: usize,
        size: usize,
        cost: CommCost,
        f: F,
    ) -> Vec<Result<R, String>>
    where
        R: Send,
        F: Fn(Comm) -> Fut,
        Fut: Future<Output = Result<R, String>> + Send,
    {
        let ranks = endpoints(size, cost, false).into_iter().map(f).collect();
        drive_ranks(workers.clamp(1, size), ranks)
    }
}

/// Build each rank's endpoint over one shared post office, whose
/// receives may sleep when each rank is a thread of its own
/// (`blocking`).
fn endpoints(size: usize, cost: CommCost, blocking: bool) -> Vec<Comm> {
    assert!(size > 0, "world needs at least one rank");
    let post = PostOffice::new(size, blocking);
    (0..size)
        .map(|rank| Comm::new(rank, cost.clone(), std::sync::Arc::clone(&post)))
        .collect()
}

/// A rank's future, boxed so that it can move between queue and worker.
type Task<Fut> = (usize, Pin<Box<Fut>>);

/// What the workers of one world share, under [`Pool::queue`]'s lock.
struct Queue<R, Fut> {
    /// The ranks no worker is resuming, in the order they are due.
    due: VecDeque<Task<Fut>>,
    /// Resumes under way.
    running: usize,
    /// Ranks whose body has not ended.
    live: usize,
    /// Resumes so far that came back [`Resumed::Parked`] or
    /// [`Resumed::Done`]: that ran code of the rank's, and so may have
    /// given a peer what it waits for.
    progress: u64,
    /// Per rank, `progress + 1` as of its last resume if that resume
    /// began after the last progress and came back
    /// [`Resumed::Stalled`]: it cannot move before the next progress.
    stalled_at: Vec<u64>,
    /// How many ranks are stalled at the current `progress`.
    stalled: usize,
    /// What each rank parked at last.
    parked_on: Vec<Option<Waiting>>,
    out: Vec<Option<Result<R, String>>>,
    /// Every live rank is stalled and none is being resumed.
    deadlock: bool,
    /// Workers asleep on [`Pool::moved`]: a wake-up is a system call,
    /// and with one worker nobody ever sleeps.
    asleep: usize,
}

impl<R, Fut> Queue<R, Fut> {
    /// Take the first rank due that is not stalled, if any, with the
    /// progress its resume begins at.
    fn take(&mut self) -> Option<(Task<Fut>, u64)> {
        let stalled = self.progress + 1;
        let i = self
            .due
            .iter()
            .position(|&(r, _)| self.stalled_at[r] != stalled)?;
        let task = self.due.remove(i)?;
        self.running += 1;
        Some((task, self.progress))
    }

    /// Account a resume of `rank` that began at progress `began` and
    /// came back `resumed`; `fut` is the rank's future unless it ended.
    /// Returns whether a sleeping worker may now find a rank to take.
    fn put(
        &mut self,
        rank: usize,
        began: u64,
        resumed: Resumed<Result<R, String>>,
        fut: Option<Pin<Box<Fut>>>,
    ) -> bool {
        self.running -= 1;
        self.due.extend(fut.map(|fut| (rank, fut)));
        let moved = match resumed {
            Resumed::Done(result) => {
                self.out[rank] = Some(result);
                self.live -= 1;
                true
            }
            Resumed::Parked(what) => {
                self.parked_on[rank] = Some(what);
                true
            }
            Resumed::Stalled if began == self.progress => {
                self.stalled_at[rank] = began + 1;
                self.stalled += 1;
                self.deadlock = self.running == 0 && self.stalled == self.live;
                return self.deadlock && self.asleep > 0;
            }
            Resumed::Stalled => false,
        };
        if moved {
            // A resume ran code of a rank's: every stalled rank may move.
            self.progress += 1;
            self.stalled = 0;
        }
        moved && self.asleep > 0
    }
}

struct Pool<R, Fut> {
    queue: Mutex<Queue<R, Fut>>,
    /// Notified when a rank may have become able to move, and when the
    /// world is over.
    moved: Condvar,
}

/// The rank driver: `workers` threads — the caller and `workers - 1`
/// scoped ones — each take the first rank due that is not stalled,
/// resume it once and put it back at the end of the queue, until every
/// rank has ended. A worker that finds only stalled ranks due sleeps
/// until a resume makes progress. The world is deadlocked once no
/// resume is under way and every live rank came back stalled from a
/// resume that began after the last progress: since then nothing ran
/// but waits that found nothing, so nothing any rank waits for can
/// still happen.
#[allow(clippy::disallowed_methods)] // the driver's workers: worlds own their threads
fn drive_ranks<R, Fut>(workers: usize, ranks: Vec<Fut>) -> Vec<Result<R, String>>
where
    R: Send,
    Fut: Future<Output = Result<R, String>> + Send,
{
    let size = ranks.len();
    let pool = Pool {
        queue: Mutex::new(Queue {
            due: ranks.into_iter().map(Box::pin).enumerate().collect(),
            running: 0,
            live: size,
            progress: 0,
            stalled_at: vec![0; size],
            stalled: 0,
            parked_on: vec![None; size],
            out: (0..size).map(|_| None).collect(),
            deadlock: false,
            asleep: 0,
        }),
        moved: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| work(&pool));
        }
        work(&pool);
    });
    let queue = into_inner(pool.queue);
    let stuck = MpiError::Deadlock {
        waiting: (0..size)
            .filter(|&r| queue.out[r].is_none())
            .filter_map(|r| Some((r, queue.parked_on[r]?)))
            .collect(),
    };
    let out = queue.out.into_iter().enumerate();
    out.map(|(rank, out)| out.unwrap_or_else(|| Err(format!("rank {rank}: {stuck}"))))
        .collect()
}

/// One worker of [`drive_ranks`].
fn work<R, Fut>(pool: &Pool<R, Fut>)
where
    Fut: Future<Output = Result<R, String>>,
{
    let mut queue = lock(&pool.queue);
    while queue.live > 0 && !queue.deadlock {
        let Some(((rank, mut fut), began)) = queue.take() else {
            queue.asleep += 1;
            queue = wait(&pool.moved, queue);
            queue.asleep -= 1;
            continue;
        };
        drop(queue);
        let resumed = caught(rank, || task::resume(fut.as_mut()))
            .unwrap_or_else(|panic| Resumed::Done(Err(panic)));
        // An ended rank's future drops here, before its end counts as
        // progress: its `Comm` leaves first, so a peer resumed after
        // that progress finds it gone.
        let fut = (!matches!(resumed, Resumed::Done(_))).then_some(fut);
        queue = lock(&pool.queue);
        if queue.put(rank, began, resumed, fut) {
            pool.moved.notify_all();
        }
    }
}

/// Run `f`, turning a panic into the rank's error message.
fn caught<T>(rank: usize, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "rank panicked".to_string());
        format!("rank {rank}: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_time::clock::ChargeKind;
    use hsim_time::SimDuration;
    use std::collections::BTreeSet;
    use std::fmt::Debug;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    const WORKERS: [usize; 3] = [1, 2, 4];

    /// Run the rank body `f` at every worker count and return its
    /// per-rank results, which must not depend on the count.
    fn on_every<R, F, Fut>(size: usize, cost: CommCost, f: F) -> Vec<R>
    where
        R: Send + PartialEq + Debug,
        F: Fn(Comm) -> Fut,
        Fut: Future<Output = R> + Send,
    {
        let [one, two, four] = WORKERS.map(|workers| {
            World::run_fallible(workers, size, cost.clone(), |comm| {
                let body = f(comm);
                async move { Ok(body.await) }
            })
        });
        assert_eq!(one, two, "one worker and two disagree");
        assert_eq!(one, four, "one worker and four disagree");
        one.into_iter().map(Result::unwrap).collect()
    }

    /// `f` on a thread of its own, or a failure after 60 s.
    fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let run = std::thread::spawn(f);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !run.is_finished() {
            assert!(Instant::now() < deadline, "the world hangs");
            std::thread::sleep(Duration::from_millis(1));
        }
        run.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    #[test]
    fn single_rank_world_runs() {
        let out = World::run(1, CommCost::free(), |comm| comm.rank() + comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ranks_see_their_ids_in_order() {
        let out = World::run(6, CommCost::free(), |comm| comm.rank());
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn closure_api_blocks_on_the_same_primitives() {
        let out = World::run(2, CommCost::on_node(), |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 7, comm.rank() as f64 + 1.0).unwrap();
            let got: f64 = comm.recv(peer, 7).unwrap();
            comm.barrier().unwrap();
            let sum = comm.allreduce_sum(got).unwrap();
            let max = comm.allreduce_max(got).unwrap();
            (got, sum, max)
        });
        assert_eq!(out, vec![(2.0, 3.0, 2.0), (1.0, 3.0, 2.0)]);
    }

    #[test]
    fn a_world_runs_its_ranks_on_at_most_its_workers_threads() {
        // Every rank notes its thread after each wait of a ring: sixteen
        // ranks, and as many threads as workers at most — the caller's
        // alone at one.
        let caller = std::thread::current().id();
        for workers in [1, 2, 3, 4] {
            let seen = &Mutex::new(BTreeSet::new());
            let note = || {
                let id = format!("{:?}", std::thread::current().id());
                lock(seen).insert(id);
            };
            let out =
                World::run_fallible(workers, 16, CommCost::on_node(), |mut comm| async move {
                    let right = (comm.rank() + 1) % comm.size();
                    let left = (comm.rank() + comm.size() - 1) % comm.size();
                    for round in 0..8u32 {
                        note();
                        comm.send(right, round, 1.0f64).map_err(|e| e.to_string())?;
                        comm.irecv::<f64>(left, round)
                            .await
                            .map_err(|e| e.to_string())?;
                    }
                    comm.ibarrier().await.map_err(|e| e.to_string())?;
                    note();
                    Ok(())
                });
            assert!(out.iter().all(Result::is_ok), "{out:?}");
            let seen = lock(seen);
            assert!(seen.len() <= workers, "{workers} workers, threads {seen:?}");
            if workers == 1 {
                assert_eq!(*seen, BTreeSet::from([format!("{caller:?}")]));
            }
        }
    }

    #[test]
    fn a_packet_of_parts_is_its_messages_sent_one_by_one() {
        // Three 80-byte messages from rank 0 to rank 1, in one packet
        // or one by one: the same clocks, buckets, counts and bytes.
        let exchange = |packed: bool| {
            on_every(2, CommCost::on_node(), move |mut comm| async move {
                let tags = [4, 6, 8];
                if comm.rank() == 0 {
                    if packed {
                        comm.send_parts(1, tags, vec![1.0f64; 30]).unwrap();
                    } else {
                        for tag in tags {
                            comm.send(1, tag, vec![1.0f64; 10]).unwrap();
                        }
                    }
                } else if packed {
                    let all: Vec<f64> = comm.irecv_parts(0, tags).await.unwrap();
                    assert_eq!(all.len(), 30);
                } else {
                    for tag in tags {
                        let one: Vec<f64> = comm.irecv(0, tag).await.unwrap();
                        assert_eq!(one.len(), 10);
                    }
                }
                let clock = comm.clock_mut();
                let comm_ns = clock.bucket(ChargeKind::Comm);
                (clock.now(), comm_ns, comm.messages(), comm.bytes_sent())
            })
        };
        let one_by_one = exchange(false);
        assert_eq!(one_by_one[1].2, (0, 3));
        assert_eq!(one_by_one[0].3, 240);
        assert_eq!(exchange(true), one_by_one);

        // A packet is received whole, by its tags: one of its messages
        // alone is a mismatch, and a tag in the collective space is
        // refused before anything is sent.
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            if comm.rank() == 0 {
                let reserved = comm.send_parts(1, [1, 0x8000_0000], vec![0.0f64; 2]);
                assert_eq!(reserved, Err(MpiError::ReservedTag { tag: 0x8000_0000 }));
                comm.send_parts(1, [1, 3], vec![0.0f64; 2]).unwrap();
                Ok(0.0)
            } else {
                comm.irecv::<f64>(0, 1).await
            }
        });
        assert_eq!(out[1], Err(MpiError::TypeMismatch { tag: 1 }));
    }

    #[test]
    fn ping_pong_roundtrip() {
        let out = on_every(2, CommCost::on_node(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]).unwrap();
                let back: Vec<f64> = comm.irecv(1, 8).await.unwrap();
                back.iter().sum::<f64>()
            } else {
                let v: Vec<f64> = comm.irecv(0, 7).await.unwrap();
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, doubled).unwrap();
                0.0
            }
        });
        assert_eq!(out[0], 12.0);
    }

    #[test]
    fn tag_matching_buffers_out_of_order_messages() {
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 10, 1.0f64).unwrap();
                comm.send(1, 20, 2.0f64).unwrap();
                0.0
            } else {
                // Receive in reverse tag order.
                let b: f64 = comm.irecv(0, 20).await.unwrap();
                let a: f64 = comm.irecv(0, 10).await.unwrap();
                a + 10.0 * b
            }
        });
        assert_eq!(out[1], 21.0);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0f64]).unwrap();
                true
            } else {
                comm.irecv::<Vec<u8>>(0, 1).await.is_err()
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn a_word_taken_as_the_other_word_type_is_a_type_mismatch() {
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 3, 1.5f64).unwrap();
                comm.send(1, 4, 1.5f64).unwrap();
                None
            } else {
                let wrong = comm.irecv::<u64>(0, 3).await;
                let right = comm.irecv::<f64>(0, 4).await;
                Some((wrong, right))
            }
        });
        let wrong = MpiError::TypeMismatch { tag: 3 };
        assert_eq!(out[1], Some((Err(wrong), Ok(1.5))));
    }

    #[test]
    fn self_send_is_an_error() {
        let out = World::run(1, CommCost::free(), |comm| comm.send(0, 1, 1.0f64).is_err());
        assert!(out[0]);
    }

    #[test]
    fn user_tags_cannot_enter_the_collective_space() {
        // A send or receive there would be traced as collective traffic
        // and could take a collective round's packet.
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            let peer = 1 - comm.rank();
            let tag = 0x8000_0000;
            let sent = comm.send(peer, tag, 1.0f64);
            let received = comm.irecv::<f64>(peer, tag | 1).await;
            // The collective that would have met those packets runs.
            let sum = comm.iallreduce(1.0, |a, b| a + b).await;
            (sent, received, sum)
        });
        for (sent, received, sum) in out {
            assert_eq!(sent, Err(MpiError::ReservedTag { tag: 0x8000_0000 }));
            assert_eq!(received, Err(MpiError::ReservedTag { tag: 0x8000_0001 }));
            assert_eq!(sum, Ok(2.0));
        }
    }

    #[test]
    fn what_a_rank_sent_before_it_ended_is_received_before_disconnected() {
        let out = on_every(3, CommCost::free(), |mut comm| async move {
            match comm.rank() {
                0 => {
                    comm.send(1, 1, 1.0f64).unwrap();
                    comm.send(1, 2, vec![2.0f64]).unwrap();
                    comm.send(1, 3, 3u64).unwrap();
                    Vec::new()
                }
                1 => {
                    // Out of order, then past what rank 0 sent.
                    let third = comm.irecv::<u64>(0, 3).await.map(|x| x as f64);
                    let first = comm.irecv::<f64>(0, 1).await;
                    let second = comm.irecv::<Vec<f64>>(0, 2).await.map(|v| v[0]);
                    let after = comm.irecv::<f64>(0, 1).await;
                    // Rank 2 ends too; so a send to it is refused.
                    let gone = comm.irecv::<f64>(2, 1).await;
                    let to_gone = comm.send(2, 1, 0.0f64).map(|()| 0.0);
                    vec![third, first, second, after, gone, to_gone]
                }
                _ => Vec::new(),
            }
        });
        let [zero, two] = [0, 2].map(|peer| Err(MpiError::Disconnected { peer }));
        assert_eq!(
            out[1],
            vec![Ok(3.0), Ok(1.0), Ok(2.0), zero, two.clone(), two]
        );
    }

    #[test]
    fn rank_out_of_range_is_an_error() {
        let out = World::run(2, CommCost::free(), |comm| {
            comm.send(5, 1, 1.0f64).unwrap_err()
        });
        assert!(matches!(
            out[0],
            crate::error::MpiError::RankOutOfRange { rank: 5, size: 2 }
        ));
    }

    #[test]
    fn allreduce_sum_and_min_and_max() {
        for size in 1..=16 {
            let out = on_every(size, CommCost::on_node(), |mut comm| async move {
                let x = comm.rank() as f64 + 1.0;
                let s = comm.iallreduce(x, |a, b| a + b).await.unwrap();
                let mn = comm.iallreduce(x, f64::min).await.unwrap();
                let mx = comm.iallreduce(x, f64::max).await.unwrap();
                (s, mn, mx)
            });
            let expect_sum = (size * (size + 1)) as f64 / 2.0;
            for (s, mn, mx) in out {
                assert_eq!(s, expect_sum, "size {size}");
                assert_eq!(mn, 1.0);
                assert_eq!(mx, size as f64);
            }
        }
    }

    #[test]
    fn alltoallv_routes_payloads_and_charges_time() {
        for size in [1, 2, 3, 4, 8] {
            let out = on_every(size, CommCost::on_node(), |mut comm| async move {
                let rank = comm.rank();
                // parts[dst] = [rank*100 + dst]; self slot included.
                let parts: Vec<Vec<f64>> = (0..comm.size())
                    .map(|dst| vec![(rank * 100 + dst) as f64])
                    .collect();
                let inbound = comm.ialltoallv_f64(parts).await.unwrap();
                let t = comm.now().as_nanos();
                (inbound, t)
            });
            for (rank, (inbound, t)) in out.iter().enumerate() {
                assert_eq!(inbound.len(), size);
                for (src, v) in inbound.iter().enumerate() {
                    assert_eq!(v, &vec![(src * 100 + rank) as f64], "size {size}");
                }
                if size > 1 {
                    assert!(*t > 0, "alltoall must charge virtual time");
                }
            }
        }
        // Wrong payload count is a typed protocol error.
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            comm.ialltoallv_f64(vec![Vec::new()]).await.is_err()
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn barrier_equalizes_virtual_clocks() {
        let out = on_every(4, CommCost::on_node(), |mut comm| async move {
            // Rank r does r milliseconds of work.
            let work = SimDuration::from_millis(comm.rank() as u64);
            comm.clock_mut().charge(ChargeKind::Compute, work);
            comm.ibarrier().await.unwrap();
            comm.now().as_nanos()
        });
        // All clocks must be at least the slowest rank's 3 ms.
        let min = *out.iter().min().unwrap();
        let max = *out.iter().max().unwrap();
        assert!(min >= 3_000_000, "clocks: {out:?}");
        // And tightly clustered (within the collective's own cost).
        assert!(max - min < 1_000_000, "clocks: {out:?}");
    }

    #[test]
    fn virtual_time_reflects_message_cost() {
        // 8 MB at 8 GB/s ≈ 1 ms wire time: the receiver's clock must
        // advance by about that much.
        let out = on_every(2, CommCost::on_node(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0.0f64; 1_000_000]).unwrap();
                0
            } else {
                let _: Vec<f64> = comm.irecv(0, 1).await.unwrap();
                comm.now().as_nanos()
            }
        });
        let t = out[1];
        assert!(t > 900_000, "receiver clock {t} ns");
        assert!(t < 3_000_000, "receiver clock {t} ns");
    }

    #[test]
    fn byte_counter_accumulates() {
        let out = on_every(2, CommCost::free(), |mut comm| async move {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0u8; 100]).unwrap();
                comm.send(1, 2, vec![0u8; 50]).unwrap();
                comm.bytes_sent()
            } else {
                let _: Vec<u8> = comm.irecv(0, 1).await.unwrap();
                let _: Vec<u8> = comm.irecv(0, 2).await.unwrap();
                0
            }
        });
        assert_eq!(out[0], 150);
    }

    #[test]
    fn message_counts_balance_when_nothing_is_in_flight() {
        let out = on_every(3, CommCost::on_node(), |mut comm| async move {
            let right = (comm.rank() + 1) % 3;
            let left = (comm.rank() + 2) % 3;
            comm.send(right, 1, vec![0u8; 10]).unwrap();
            comm.send(right, 2, vec![0u8; 10]).unwrap();
            // Out of order: tag 1 waits in the buffer, not yet received.
            let _: Vec<u8> = comm.irecv(left, 2).await.unwrap();
            let mid = comm.messages();
            let _: Vec<u8> = comm.irecv(left, 1).await.unwrap();
            comm.iallreduce(1.0, |a, b| a + b).await.unwrap();
            // A fast-forwarded period moves the byte count alone.
            let (bytes, counts) = (comm.bytes_sent(), comm.messages());
            comm.advance(20, 4).unwrap();
            assert_eq!(comm.bytes_sent(), bytes + 80);
            assert_eq!(comm.messages(), counts);
            assert_eq!(comm.advance(u64::MAX, 2), Err(hsim_time::Overflow));
            (mid, counts)
        });
        assert!(out.iter().all(|(mid, _)| *mid == (2, 1)));
        let (sent, received) = out
            .iter()
            .fold((0, 0), |(s, r), (_, end)| (s + end.0, r + end.1));
        assert_eq!(sent, received, "{out:?}");
        assert!(sent > 6, "the collective's hops count too");
    }

    #[test]
    fn run_fallible_turns_a_dead_rank_into_typed_errors_not_a_hang() {
        // Rank 1 dies before sending anything — by returning an error
        // or by panicking. Rank 0 waits for its message: the dropped
        // senders surface as a Disconnected error (here re-raised by
        // unwrap and caught by run_fallible) instead of a deadlock or
        // a process abort.
        for workers in WORKERS {
            for panics in [false, true] {
                let out =
                    World::run_fallible(workers, 2, CommCost::free(), |mut comm| async move {
                        if comm.rank() == 1 {
                            if panics {
                                panic!("injected rank loss");
                            }
                            return Err("injected rank loss".to_string());
                        }
                        let v: f64 = comm.irecv(1, 1).await.unwrap();
                        Ok(v)
                    });
                let lost = if panics { "rank 1: " } else { "" };
                assert_eq!(out[1], Err(format!("{lost}injected rank loss")));
                let msg = out[0].as_ref().unwrap_err();
                assert!(msg.contains("rank 0"), "{workers} workers: {msg}");
                assert!(msg.to_lowercase().contains("disconnected"), "{msg}");
            }
        }
    }

    #[test]
    fn run_fallible_passes_through_clean_results() {
        for workers in WORKERS {
            let out = World::run_fallible(workers, 3, CommCost::on_node(), |mut comm| async move {
                comm.ibarrier().await.map_err(|e| e.to_string())?;
                Ok(comm.rank() * 10)
            });
            assert_eq!(out, vec![Ok(0), Ok(10), Ok(20)]);
        }
    }

    #[test]
    fn a_stuck_world_is_a_deadlock_error_not_a_hang() {
        // Ranks 0 and 1 each send the other tag 8 and receive tag 9:
        // the messages sit in their inboxes under the wrong tag. Rank 2
        // is not part of it: it spins in one resume until both have
        // sent, so at more than one worker the pair stalls while that
        // resume is under way, and only then does it finish.
        let stuck = MpiError::Deadlock {
            waiting: vec![
                (0, Waiting::Message { src: 1, tag: 9 }),
                (1, Waiting::Message { src: 0, tag: 9 }),
            ],
        };
        for workers in WORKERS {
            let out = watched(move || {
                let sent = &AtomicUsize::new(0);
                World::run_fallible(workers, 3, CommCost::free(), |mut comm| async move {
                    let rank = comm.rank();
                    if rank < 2 {
                        comm.send(1 - rank, 8, 1.0f64).map_err(|e| e.to_string())?;
                        sent.fetch_add(1, Ordering::SeqCst);
                        let _: f64 = comm.irecv(1 - rank, 9).await.map_err(|e| e.to_string())?;
                    } else {
                        // One worker resumes ranks 0 and 1 first.
                        while sent.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                    }
                    Ok(rank)
                })
            });
            assert_eq!(out[0], Err(format!("rank 0: {stuck}")), "{workers} workers");
            assert_eq!(out[1], Err(format!("rank 1: {stuck}")), "{workers} workers");
            assert_eq!(out[2], Ok(2));
        }
        assert!(stuck
            .to_string()
            .starts_with("deadlock: rank 0 waits for a message from rank 1 (tag 9); rank 1 waits"));
    }

    /// A ring of ten rounds on 16 ranks, each rank's running sum.
    async fn ring(mut comm: Comm) -> f64 {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let mut acc = comm.rank() as f64;
        for round in 0..10u32 {
            comm.send(right, round, acc).unwrap();
            let got: f64 = comm.irecv(left, round).await.unwrap();
            acc += got;
        }
        acc
    }

    #[test]
    fn many_ranks_heavy_traffic_terminates() {
        // Stress: 16 ranks, ring of messages, several rounds — and at
        // more than one worker, many times over, where the schedule
        // differs from run to run.
        let once = on_every(16, CommCost::on_node(), ring);
        assert_eq!(once.len(), 16);
        for workers in [2, 4] {
            let repeats = if cfg!(miri) { 4 } else { 200 };
            let out = watched(move || {
                (0..repeats)
                    .map(|_| {
                        World::run_fallible(workers, 16, CommCost::on_node(), |c| async {
                            Ok(ring(c).await)
                        })
                    })
                    .collect::<Vec<_>>()
            });
            for run in out {
                assert_eq!(
                    run.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
                    once
                );
            }
        }
    }
}
