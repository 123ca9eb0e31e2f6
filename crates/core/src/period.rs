//! The period of a segment that only prices its kernels: each rank
//! marks what a cycle left behind, posts it on the [`PeriodBoard`],
//! and once every rank has seen the segment go periodic, adds the
//! cycles ahead up instead of stepping them ([`Seat::add_up`]).

use std::error::Error;
use std::ops::Range;
use std::sync::Mutex;

use hsim_faults::FaultPlan;
use hsim_raja::simgpu::{DeviceMark, StreamMark};
use hsim_raja::SharedDevice;
use hsim_telemetry::KernelTable;
use hsim_time::sync::lock;
use hsim_time::task::{self, Waiting};
use hsim_time::{RankClock, SimDuration};

use crate::runner::Rank;

/// What a rank carries from one cycle into the next that a run
/// reports or a later cycle can read, read at a cycle's end: its
/// clock, its kernel table, its traffic, the timestep it took, its
/// stream and — of the one client that leads a device — the device's
/// counters.
struct RankMark {
    clock: RankClock,
    kernels: KernelTable,
    bytes_sent: u64,
    /// Messages sent and messages received ([`hsim_mpi::Comm::messages`]).
    messages: (u64, u64),
    /// The cycle's timestep, as bits.
    dt: u64,
    device: Option<DeviceMark>,
    stream: Option<StreamMark>,
}

impl RankMark {
    fn of(rank: &Rank<'_>, dt: f64) -> Self {
        let comm = &rank.coupler.comm;
        RankMark {
            clock: rank.clock.clone(),
            kernels: rank.exec.kernels.clone(),
            bytes_sent: comm.bytes_sent(),
            messages: comm.messages(),
            dt: dt.to_bits(),
            device: rank.led().map(SharedDevice::mark),
            stream: rank.gpu.as_ref().map(|(client, ..)| client.stream_mark()),
        }
    }
}

/// What a rank posts of a cycle for every rank to judge it by.
#[derive(Clone, Copy)]
pub(crate) struct Posted {
    /// Cycles completed when this was posted.
    pub(crate) cycle: u64,
    /// Since the previous cycle end of the segment, the rank's stream
    /// ended as much later as its clock, none of its launches is
    /// queued, and the cycle took the previous cycle's timestep.
    pub(crate) steady: bool,
    /// The rank's clock advance over the cycle.
    pub(crate) elapsed: SimDuration,
    /// Messages sent and received so far ([`hsim_mpi::Comm::messages`]).
    pub(crate) messages: (u64, u64),
}

/// Where the ranks of a segment that only prices its kernels find out
/// whether the segment has gone *periodic* — and if it has, add the
/// cycles ahead instead of stepping them.
///
/// Between two boundaries such a run launches the same kernels on the
/// same boxes and exchanges the same faces every cycle, and what a
/// cycle can see of the one before is only how far the clocks and
/// streams it waits on are from its own: every charge is an integer
/// duration, every wait a `max`, and a device resolves an epoch
/// relative to its first arrival (`Device::run_pending`). So once a
/// cycle, since the end of the one before it in the segment (never the
/// set-up barrier, which the ranks leave at different instants), moved
/// every rank's clock and every client's stream by one common `D` at
/// an unchanged timestep, with nothing in flight — over the world as
/// many messages received as sent, no launch queued — its end state is
/// the previous one shifted by `D`. The next cycle starts from it, so
/// it repeats this one `D` later, unless the fault plan names it: `k`
/// cycles ahead are `k ×` this cycle's growth, in checked integer
/// arithmetic. Nothing else a cycle leaves feeds timing: the device's
/// `pending` queue is empty, its `next_job` ids and counters are read
/// by no charge, its unified memory is faulted in at set-up;
/// `SharedDevice`'s `epoch` only wakes waiters and its `stream_end` is
/// the streams; the `PostOffice` inboxes are empty and the collective
/// counters only tag packets; the fault injector fires only on the
/// cycles it names.
///
/// The verdict is read in the cycle it judges. Each rank posts its
/// cycle into a slot of its own and parks until every rank has posted
/// the same cycle. The verdict is a function of those posts alone, so every rank reaches
/// the same one. A rank that ends without posting, by error or by
/// panic, counts as not steady, and nobody waits for it: its [`Seat`]
/// leaves the board as it drops, which is what a device's `Departure`
/// is to its sync epochs.
pub(crate) struct PeriodBoard {
    posts: Mutex<Posts>,
}

struct Posts {
    /// Per rank, its posts of the last even and the last odd cycle: no
    /// rank reads the verdict on `c + 1`, hence posts `c + 2`, before
    /// every rank has posted `c + 1` and so read the verdict on `c`.
    slots: Vec<[Option<Posted>; 2]>,
    /// Per rank: its body has ended.
    gone: Vec<bool>,
}

impl Posts {
    /// The verdict on `cycle`: was the segment periodic when every rank
    /// had completed it? `None` while a live rank has still to post.
    fn verdict(&self, cycle: u64) -> Option<bool> {
        let (mut periodic, mut sent, mut received, mut elapsed) = (true, 0, 0, None);
        for (slot, &gone) in self.slots.iter().zip(&self.gone) {
            match slot[(cycle % 2) as usize].filter(|p| p.cycle == cycle) {
                None if gone => periodic = false,
                None => return None,
                Some(post) => {
                    periodic &= post.steady && *elapsed.get_or_insert(post.elapsed) == post.elapsed;
                    sent += post.messages.0;
                    received += post.messages.1;
                }
            }
        }
        Some(periodic && sent == received)
    }
}

impl PeriodBoard {
    pub(crate) fn new(ranks: usize) -> Self {
        PeriodBoard {
            posts: Mutex::new(Posts {
                slots: vec![[None; 2]; ranks],
                gone: vec![false; ranks],
            }),
        }
    }

    /// `rank`'s place at the board for as long as its body runs.
    pub(crate) fn seat(&self, rank: usize) -> Seat<'_> {
        Seat {
            board: self,
            rank,
            last: None,
        }
    }
}

/// One rank at a [`PeriodBoard`]; dropping it leaves the board.
pub(crate) struct Seat<'a> {
    board: &'a PeriodBoard,
    rank: usize,
    /// The rank's mark at the last cycle end of this segment (none
    /// before the first).
    last: Option<RankMark>,
}

impl Seat<'_> {
    /// Post this rank's cycle and wait for the verdict on it.
    pub(crate) async fn post(&self, posted: Posted) -> bool {
        let (board, cycle) = (self.board, posted.cycle);
        lock(&board.posts).slots[self.rank][(cycle % 2) as usize] = Some(posted);
        task::park(Waiting::Verdict { cycle }, || {
            lock(&board.posts).verdict(cycle)
        })
        .await
    }

    /// At the end of a stepped cycle — `ahead.start` cycles completed,
    /// the segment ending at `ahead.end` — mark it, post it, and if the
    /// verdict is periodic advance `rank` by the cycles ahead that the
    /// fault plan names none of. Returns how many cycles that added;
    /// the rank walks its own time forward by as many timesteps.
    pub(crate) async fn add_up(
        &mut self,
        rank: &mut Rank<'_>,
        dt: f64,
        ahead: Range<u64>,
        plan: &FaultPlan,
    ) -> Result<u64, Box<dyn Error>> {
        let now = RankMark::of(rank, dt);
        // A cycle is judged against the end of the one before, never
        // against the set-up barrier.
        let Some(mark) = self.last.take() else {
            self.last = Some(now);
            return Ok(0);
        };
        let elapsed = now.clock.now() - mark.clock.now();
        // The stream kept pace with the clock, nothing queued.
        let mut streams = now.stream.zip(mark.stream).into_iter();
        let in_step = streams.all(|(now, was)| now.queued == 0 && now.end - was.end == elapsed);
        let posted = Posted {
            cycle: ahead.start,
            steady: in_step && now.dt == mark.dt,
            elapsed,
            messages: now.messages,
        };
        let periodic = self.post(posted).await;
        // A cycle the fault plan names, for any rank, is stepped, and
        // says nothing about the cycles after it.
        let named = || plan.events.iter().map(|e| e.cycle);
        let until = named().filter(|&c| c >= ahead.start).min();
        let add = if periodic && named().all(|c| c != ahead.start - 1) {
            until.map_or(ahead.end, |c| c.min(ahead.end)) - ahead.start
        } else {
            0
        };
        if add == 0 {
            self.last = Some(now);
            return Ok(0);
        }
        // Every checked sum first: a run too long for the clock is an
        // error before `t` is walked forward.
        rank.clock.advance(&now.clock.since(&mark.clock), add)?;
        (rank.exec.kernels).advance(&now.kernels.since(&mark.kernels), add)?;
        (rank.coupler.comm).advance(now.bytes_sent - mark.bytes_sent, add)?;
        if let Some((client, ..)) = &rank.gpu {
            client.advance_stream(elapsed, add)?;
        }
        if let (Some(device), Some(d), Some(was)) = (rank.led(), now.device, mark.device) {
            device.advance(&d.since(&was), add)?;
        }
        if add > MAX_ADDED_CYCLES {
            return Err(TooManyCycles(add).into());
        }
        self.last = Some(RankMark::of(rank, dt));
        Ok(add)
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        lock(&self.board.posts).gone[self.rank] = true;
    }
}

/// The most cycles a segment adds up at once. Every clock and counter
/// is advanced by one checked multiplication, but `t` — reported, so
/// summed as stepping sums it — is walked forward one `dt` at a time:
/// 2³⁰ additions are about a second of host time, and a `cycles` beyond
/// that is refused rather than left spinning for hours.
const MAX_ADDED_CYCLES: u64 = 1 << 30;

/// A run asked to add up more than [`MAX_ADDED_CYCLES`] cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TooManyCycles(u64);

impl std::fmt::Display for TooManyCycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles to add up at once; at most {MAX_ADDED_CYCLES} are",
            self.0
        )
    }
}

impl Error for TooManyCycles {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::ExecMode;
    use crate::runner::{run_driven, RunConfig};
    use hsim_mpi::World;

    #[test]
    fn a_verdict_takes_every_rank_steady_in_step_and_nothing_in_flight() {
        use hsim_time::task::{resume, Resumed};
        use std::pin::pin;
        let post = |cycle, steady, ns, messages| Posted {
            cycle,
            steady,
            elapsed: SimDuration::from_nanos(ns),
            messages,
        };
        // Ranks 0 and 1 post cycle 1, and both read the verdict on it
        // in that cycle: rank 0 waits for rank 1's post.
        let verdict = |posts: [Posted; 2]| {
            let board = PeriodBoard::new(2);
            let seats = [board.seat(0), board.seat(1)];
            let mut first = pin!(seats[0].post(posts[0]));
            let waits = resume(first.as_mut());
            assert!(matches!(
                waits,
                Resumed::Parked(Waiting::Verdict { cycle: 1 })
            ));
            let Resumed::Done(second) = resume(pin!(seats[1].post(posts[1]))) else {
                panic!("the last post decides");
            };
            assert!(matches!(resume(first), Resumed::Done(v) if v == second));
            second
        };
        assert!(verdict([
            post(1, true, 7, (2, 1)),
            post(1, true, 7, (1, 2))
        ]));
        let unsteady = post(1, false, 7, (1, 2));
        assert!(!verdict([post(1, true, 7, (2, 1)), unsteady]));
        let out_of_step = post(1, true, 8, (1, 2));
        assert!(!verdict([post(1, true, 7, (2, 1)), out_of_step]));
        let in_flight = post(1, true, 7, (1, 1));
        assert!(!verdict([post(1, true, 7, (2, 1)), in_flight]));

        // A post of another cycle — what a jump leaves behind — is no
        // post of this one; a rank that has left posts nothing more.
        let board = PeriodBoard::new(3);
        let seat = board.seat(0);
        lock(&board.posts).slots[1][1] = Some(post(3, true, 7, (1, 1)));
        let mut first = pin!(seat.post(post(1, true, 7, (1, 1))));
        assert!(matches!(resume(first.as_mut()), Resumed::Parked(_)));
        drop(board.seat(2));
        assert!(matches!(resume(first.as_mut()), Resumed::Stalled));
        drop(board.seat(1));
        assert!(matches!(resume(first), Resumed::Done(false)));
    }

    #[test]
    fn a_stuck_world_names_the_verdict_it_waits_for() {
        use hsim_mpi::{CommCost, MpiError};
        let stuck = MpiError::Deadlock {
            waiting: vec![
                (0, Waiting::Verdict { cycle: 4 }),
                (1, Waiting::Message { src: 0, tag: 9 }),
            ],
        };
        for workers in [1, 2] {
            let board = &PeriodBoard::new(2);
            let out = World::run_fallible(workers, 2, CommCost::free(), |mut comm| async move {
                let seat = board.seat(comm.rank());
                if comm.rank() == 0 {
                    let posted = Posted {
                        cycle: 4,
                        steady: true,
                        elapsed: SimDuration::ZERO,
                        messages: (0, 0),
                    };
                    seat.post(posted).await;
                } else {
                    comm.irecv::<f64>(0, 9).await.map_err(|e| e.to_string())?;
                }
                Ok(())
            });
            let expect = [0, 1].map(|r| Err(format!("rank {r}: {stuck}")));
            assert_eq!(out, expect, "{workers} workers");
        }
        assert!(stuck
            .to_string()
            .contains("rank 0 waits for the period verdict on cycle 4"));
    }

    #[test]
    fn more_cycles_than_are_added_up_at_once_are_a_typed_error() {
        // The clocks hold 2³⁰ cycles of this grid with room to spare;
        // walking `t` that far is what the run declines.
        let mut cfg = RunConfig::sweep((16, 24, 16), ExecMode::Default);
        cfg.cycles = MAX_ADDED_CYCLES + 4;
        let err = run_driven(&cfg, 0.0, 1).unwrap_err();
        let refused = TooManyCycles(MAX_ADDED_CYCLES + 2).to_string();
        assert!(err.contains(&refused), "{err}");
    }
}
