//! The world launcher: wires mailboxes and drives the ranks.
//!
//! A rank body is a future over its [`Comm`]. Two drivers run it:
//! [`Driver::Threads`] gives every rank an OS thread and blocks it in
//! each wait; [`Driver::Stepped`] resumes all ranks in turn on the
//! calling thread and spawns nothing. Every receive names its
//! `(src, tag)`, so virtual time is a function of the messages alone
//! and the two drivers produce the same clocks, bit for bit.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;

use hsim_time::task::{self, Resumed};

use crate::comm::{Comm, Packet};
use crate::cost::CommCost;
use crate::error::MpiError;

/// How [`World::run_fallible`] drives its ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One scoped OS thread per rank; a wait blocks the thread. For
    /// ranks that execute kernel bodies, which run in parallel.
    Threads,
    /// All ranks on the calling thread, resumed round-robin in rank
    /// order; a wait parks the rank. For ranks that only exchange
    /// virtual timestamps, where a thread per rank is pure overhead.
    Stepped,
}

/// Entry point for SPMD programs.
pub struct World;

impl World {
    /// Run `f` on `size` ranks (threads), returning each rank's result
    /// in rank order. Panics in any rank propagate after all threads
    /// join (std scoped threads re-raise on join).
    ///
    /// `f` receives the rank's [`Comm`], which carries a virtual clock
    /// starting at the epoch.
    pub fn run<R, F>(size: usize, cost: CommCost, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        threads(endpoints(size, cost), |mut comm| f(&mut comm))
    }

    /// Run the rank body `f` on `size` ranks under `driver`, fault
    /// tolerant: the body returns `Result`, and a *panic* in one rank
    /// is caught and becomes `Err("rank N: …")` instead of tearing
    /// down the whole world. No rank can hang on a dead peer: a rank
    /// that ends — cleanly, with an error or by panic — drops its
    /// `Comm`, so every receive from it returns
    /// [`MpiError::Disconnected`] rather than waiting forever. Under
    /// [`Driver::Stepped`] no rank can hang at all: a world in which
    /// every live rank waits for something that cannot happen ends
    /// with [`MpiError::Deadlock`] on each of them.
    pub fn run_fallible<R, F, Fut>(
        driver: Driver,
        size: usize,
        cost: CommCost,
        f: F,
    ) -> Vec<Result<R, String>>
    where
        R: Send,
        F: Fn(Comm) -> Fut + Sync,
        Fut: Future<Output = Result<R, String>>,
    {
        let comms = endpoints(size, cost);
        match driver {
            Driver::Threads => threads(comms, |comm| {
                let rank = comm.rank();
                caught(rank, || task::block_on(f(comm))).unwrap_or_else(Err)
            }),
            Driver::Stepped => stepped(comms.into_iter().map(f).collect()),
        }
    }
}

/// Build each rank's endpoint over a `size`² channel matrix.
fn endpoints(size: usize, cost: CommCost) -> Vec<Comm> {
    assert!(size > 0, "world needs at least one rank");
    // Channel matrix: chan[src][dst]. Receivers are built
    // destination-major so each rank's endpoint owns its column
    // outright — no placeholder slots to unwrap later.
    let mut txs: Vec<Vec<_>> = Vec::with_capacity(size);
    let mut rx_cols: Vec<Vec<_>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
    for _src in 0..size {
        let mut row = Vec::with_capacity(size);
        for rx_col in rx_cols.iter_mut() {
            let (tx, rx) = channel::<Packet>();
            row.push(tx);
            rx_col.push(rx);
        }
        txs.push(row);
    }
    // senders[dst] = tx[me][dst]; receivers[src] = rx side of
    // chan[src][me] (column `me`, pushed in ascending src order above).
    // Each row moves into its rank, so a rank that ends disconnects
    // exactly its own outgoing channels.
    txs.into_iter()
        .zip(rx_cols)
        .enumerate()
        .map(|(rank, (senders, receivers))| Comm::new(rank, size, cost.clone(), senders, receivers))
        .collect()
}

/// The thread-per-rank driver: `body` runs on one scoped thread per
/// endpoint; a rank's panic payload is re-raised verbatim on the
/// caller after all threads have joined.
fn threads<R: Send>(comms: Vec<Comm>, body: impl Fn(Comm) -> R + Sync) -> Vec<R> {
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || body(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// The stepped driver: resume every live rank in rank order, pass
/// after pass, until all have finished. The schedule depends on
/// nothing but the rank bodies, and a rank's panic is caught at the
/// resume that raised it, so its peers keep running and observe the
/// dropped `Comm`. A pass in which no rank moved is a deadlock.
fn stepped<R, Fut>(ranks: Vec<Fut>) -> Vec<Result<R, String>>
where
    Fut: Future<Output = Result<R, String>>,
{
    let mut live: Vec<_> = ranks.into_iter().map(|f| Some(Box::pin(f))).collect();
    let mut parked_on = vec![None; live.len()];
    let mut out: Vec<Result<R, String>> = Vec::new();
    out.resize_with(live.len(), || Err(String::new()));
    loop {
        let mut moved = false;
        for (rank, slot) in live.iter_mut().enumerate() {
            let Some(fut) = slot else { continue };
            let done = match caught(rank, || task::resume(fut.as_mut())) {
                Ok(Resumed::Done(result)) => result,
                Ok(Resumed::Parked(what)) => {
                    parked_on[rank] = Some(what);
                    moved = true;
                    continue;
                }
                Ok(Resumed::Stalled) => continue,
                Err(panic) => Err(panic),
            };
            out[rank] = done;
            *slot = None;
            moved = true;
        }
        if live.iter().all(Option::is_none) {
            return out;
        }
        if !moved {
            let waiting = (0..live.len())
                .filter(|&r| live[r].is_some())
                .filter_map(|r| Some((r, parked_on[r]?)))
                .collect();
            let err = MpiError::Deadlock { waiting };
            for (rank, _) in live.iter().enumerate().filter(|(_, f)| f.is_some()) {
                out[rank] = Err(format!("rank {rank}: {err}"));
            }
            return out;
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
    use hsim_time::task::Waiting;
    use hsim_time::SimDuration;
    use std::fmt::Debug;

    const DRIVERS: [Driver; 2] = [Driver::Threads, Driver::Stepped];

    /// Run the rank body `f` under both drivers and return its
    /// per-rank results, which must not depend on the driver.
    fn on_both<R, F, Fut>(size: usize, cost: CommCost, f: F) -> Vec<R>
    where
        R: Send + PartialEq + Debug,
        F: Fn(Comm) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        let [threaded, stepped] = DRIVERS.map(|driver| {
            World::run_fallible(driver, size, cost.clone(), |comm| {
                let body = f(comm);
                async move { Ok(body.await) }
            })
        });
        assert_eq!(threaded, stepped, "the drivers disagree");
        stepped.into_iter().map(Result::unwrap).collect()
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
    fn stepped_ranks_run_on_the_callers_thread_and_threaded_ranks_do_not() {
        let caller = std::thread::current().id();
        let ids = |driver| {
            World::run_fallible(driver, 4, CommCost::on_node(), |mut comm| async move {
                comm.ibarrier().await.map_err(|e| e.to_string())?;
                Ok(std::thread::current().id())
            })
        };
        assert!(ids(Driver::Stepped).iter().all(|id| *id == Ok(caller)));
        assert!(ids(Driver::Threads).iter().all(|id| *id != Ok(caller)));
    }

    #[test]
    fn ping_pong_roundtrip() {
        let out = on_both(2, CommCost::on_node(), |mut comm| async move {
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
        let out = on_both(2, CommCost::free(), |mut comm| async move {
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
        let out = on_both(2, CommCost::free(), |mut comm| async move {
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
    fn self_send_is_an_error() {
        let out = World::run(1, CommCost::free(), |comm| comm.send(0, 1, 1.0f64).is_err());
        assert!(out[0]);
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
            let out = on_both(size, CommCost::on_node(), |mut comm| async move {
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
            let out = on_both(size, CommCost::on_node(), |mut comm| async move {
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
        let out = on_both(2, CommCost::free(), |mut comm| async move {
            comm.ialltoallv_f64(vec![Vec::new()]).await.is_err()
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn barrier_equalizes_virtual_clocks() {
        let out = on_both(4, CommCost::on_node(), |mut comm| async move {
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
        let out = on_both(2, CommCost::on_node(), |mut comm| async move {
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
        let out = on_both(2, CommCost::free(), |mut comm| async move {
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
        let out = on_both(3, CommCost::on_node(), |mut comm| async move {
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
        for driver in DRIVERS {
            for panics in [false, true] {
                let out = World::run_fallible(driver, 2, CommCost::free(), |mut comm| async move {
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
                assert!(msg.contains("rank 0"), "{driver:?}: {msg}");
                assert!(msg.to_lowercase().contains("disconnected"), "{msg}");
            }
        }
    }

    #[test]
    fn run_fallible_passes_through_clean_results() {
        for driver in DRIVERS {
            let out = World::run_fallible(driver, 3, CommCost::on_node(), |mut comm| async move {
                comm.ibarrier().await.map_err(|e| e.to_string())?;
                Ok(comm.rank() * 10)
            });
            assert_eq!(out, vec![Ok(0), Ok(10), Ok(20)]);
        }
    }

    #[test]
    fn a_stuck_stepped_world_is_a_deadlock_error_not_a_hang() {
        // Both ranks receive first: neither message is ever sent.
        // Rank 2 is not part of the cycle and finishes.
        let out = World::run_fallible(
            Driver::Stepped,
            3,
            CommCost::free(),
            |mut comm| async move {
                let rank = comm.rank();
                if rank < 2 {
                    let _: f64 = comm.irecv(1 - rank, 9).await.map_err(|e| e.to_string())?;
                    comm.send(1 - rank, 9, 1.0f64).map_err(|e| e.to_string())?;
                }
                Ok(rank)
            },
        );
        let stuck = MpiError::Deadlock {
            waiting: vec![
                (0, Waiting::Message { src: 1, tag: 9 }),
                (1, Waiting::Message { src: 0, tag: 9 }),
            ],
        };
        assert_eq!(out[0], Err(format!("rank 0: {stuck}")));
        assert_eq!(out[1], Err(format!("rank 1: {stuck}")));
        assert_eq!(out[2], Ok(2));
        assert!(stuck
            .to_string()
            .starts_with("deadlock: rank 0 waits for a message from rank 1 (tag 9); rank 1 waits"));
    }

    #[test]
    fn many_ranks_heavy_traffic_terminates() {
        // Stress: 16 ranks, ring of messages, several rounds.
        let out = on_both(16, CommCost::on_node(), |mut comm| async move {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let mut acc = comm.rank() as f64;
            for round in 0..10u32 {
                comm.send(right, round, acc).unwrap();
                let got: f64 = comm.irecv(left, round).await.unwrap();
                acc += got;
            }
            acc
        });
        assert_eq!(out.len(), 16);
    }
}
