//! The world launcher: spawns one thread per rank and wires mailboxes.

use crossbeam::channel::unbounded;

use crate::comm::{Comm, Packet};
use crate::cost::CommCost;

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
        assert!(size > 0, "world needs at least one rank");
        // Channel matrix: chan[src][dst]. Receivers are built
        // destination-major so each rank's endpoint owns its column
        // outright — no placeholder slots to unwrap later.
        let mut txs: Vec<Vec<_>> = Vec::with_capacity(size);
        let mut rx_cols: Vec<Vec<_>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
        for _src in 0..size {
            let mut row = Vec::with_capacity(size);
            for rx_col in rx_cols.iter_mut() {
                let (tx, rx) = unbounded::<Packet>();
                row.push(tx);
                rx_col.push(rx);
            }
            txs.push(row);
        }

        // Build each rank's endpoint: senders[dst] = tx[me][dst],
        // receivers[src] = rx side of chan[src][me] (column `me`,
        // pushed in ascending src order above).
        let mut comms: Vec<Comm> = Vec::with_capacity(size);
        for (rank, receivers) in rx_cols.into_iter().enumerate() {
            let senders: Vec<_> = (0..size).map(|dst| txs[rank][dst].clone()).collect();
            comms.push(Comm::new(rank, size, cost.clone(), senders, receivers));
        }
        drop(txs);

        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| scope.spawn(move || f(&mut comm)))
                .collect();
            handles
                .into_iter()
                // Re-raise a rank's panic payload verbatim on the
                // caller (the documented `run` contract) instead of
                // wrapping it in a fresh expect/panic.
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Like [`World::run`] but fault-tolerant: each rank body returns
    /// `Result`, and a *panic* in one rank (or a collateral panic in a
    /// peer blocked on the dead rank's mailbox, which observes
    /// [`crate::MpiError::Disconnected`] once the senders drop) is
    /// caught and converted into `Err` instead of tearing down the
    /// whole world at join time. No rank can hang: a dead peer's
    /// channel endpoints drop, so every blocking receive returns
    /// `Disconnected` rather than waiting forever.
    pub fn run_fallible<R, F>(size: usize, cost: CommCost, f: F) -> Vec<Result<R, String>>
    where
        R: Send,
        F: Fn(&mut Comm) -> Result<R, String> + Sync,
    {
        Self::run(size, cost, |comm| {
            let rank = comm.rank();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "rank thread panicked".to_string());
                    Err(format!("rank {rank}: {msg}"))
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_time::clock::ChargeKind;
    use hsim_time::SimDuration;

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
    fn ping_pong_roundtrip() {
        let out = World::run(2, CommCost::on_node(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]).unwrap();
                let back: Vec<f64> = comm.recv(1, 8).unwrap();
                back.iter().sum::<f64>()
            } else {
                let v: Vec<f64> = comm.recv(0, 7).unwrap();
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, doubled).unwrap();
                0.0
            }
        });
        assert_eq!(out[0], 12.0);
    }

    #[test]
    fn tag_matching_buffers_out_of_order_messages() {
        let out = World::run(2, CommCost::free(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, 1.0f64).unwrap();
                comm.send(1, 20, 2.0f64).unwrap();
                0.0
            } else {
                // Receive in reverse tag order.
                let b: f64 = comm.recv(0, 20).unwrap();
                let a: f64 = comm.recv(0, 10).unwrap();
                a + 10.0 * b
            }
        });
        assert_eq!(out[1], 21.0);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let out = World::run(2, CommCost::free(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0f64]).unwrap();
                true
            } else {
                comm.recv::<Vec<u8>>(0, 1).is_err()
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
        for size in [1, 2, 3, 4, 5, 8, 16] {
            let out = World::run(size, CommCost::on_node(), |comm| {
                let x = comm.rank() as f64 + 1.0;
                let s = comm.allreduce_sum(x).unwrap();
                let mn = comm.allreduce_min(x).unwrap();
                let mx = comm.allreduce_max(x).unwrap();
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
            let out = World::run(size, CommCost::on_node(), |comm| {
                let rank = comm.rank();
                // parts[dst] = [rank*100 + dst]; self slot included.
                let parts: Vec<Vec<f64>> = (0..comm.size())
                    .map(|dst| vec![(rank * 100 + dst) as f64])
                    .collect();
                let inbound = comm.alltoallv_f64(parts).unwrap();
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
        let out = World::run(2, CommCost::free(), |comm| {
            comm.alltoallv_f64(vec![Vec::new()]).is_err()
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn barrier_equalizes_virtual_clocks() {
        let out = World::run(4, CommCost::on_node(), |comm| {
            // Rank r does r milliseconds of work.
            let work = SimDuration::from_millis(comm.rank() as u64);
            comm.clock_mut().charge(ChargeKind::Compute, work);
            comm.barrier().unwrap();
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
        let out = World::run(2, CommCost::on_node(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0.0f64; 1_000_000]).unwrap();
                0
            } else {
                let _: Vec<f64> = comm.recv(0, 1).unwrap();
                comm.now().as_nanos()
            }
        });
        let t = out[1];
        assert!(t > 900_000, "receiver clock {t} ns");
        assert!(t < 3_000_000, "receiver clock {t} ns");
    }

    #[test]
    fn byte_counter_accumulates() {
        let out = World::run(2, CommCost::free(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0u8; 100]).unwrap();
                comm.send(1, 2, vec![0u8; 50]).unwrap();
                comm.bytes_sent()
            } else {
                let _: Vec<u8> = comm.recv(0, 1).unwrap();
                let _: Vec<u8> = comm.recv(0, 2).unwrap();
                0
            }
        });
        assert_eq!(out[0], 150);
    }

    #[test]
    fn run_fallible_turns_a_dead_rank_into_typed_errors_not_a_hang() {
        // Rank 1 dies before sending anything. Rank 0 blocks on its
        // message: the dropped senders surface as a Disconnected
        // error (here re-raised by unwrap and caught by run_fallible)
        // instead of a deadlock or a process abort.
        let out = World::run_fallible(2, CommCost::free(), |comm| {
            if comm.rank() == 1 {
                return Err("injected rank loss".to_string());
            }
            let v: f64 = comm.recv(1, 1).unwrap();
            Ok(v)
        });
        assert_eq!(out[1], Err("injected rank loss".to_string()));
        let msg = out[0].as_ref().unwrap_err();
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.to_lowercase().contains("disconnected"), "{msg}");
    }

    #[test]
    fn run_fallible_passes_through_clean_results() {
        let out = World::run_fallible(3, CommCost::on_node(), |comm| {
            comm.barrier().map_err(|e| e.to_string())?;
            Ok(comm.rank() * 10)
        });
        assert_eq!(out, vec![Ok(0), Ok(10), Ok(20)]);
    }

    #[test]
    fn many_ranks_heavy_traffic_terminates() {
        // Stress: 16 ranks, ring of messages, several rounds.
        let out = World::run(16, CommCost::on_node(), |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let mut acc = comm.rank() as f64;
            for round in 0..10u32 {
                comm.send(right, round, acc).unwrap();
                let got: f64 = comm.recv(left, round).unwrap();
                acc += got;
            }
            acc
        });
        assert_eq!(out.len(), 16);
    }
}
