//! Exhaustive schedule model-checking of the rank driver's queue and
//! deadlock rule (`world::drive_ranks`), in the style of
//! `hsim_raja::sched_model`.
//!
//! The rule under test: a world is deadlocked when no resume is under
//! way and every live rank came back `Stalled` from a resume that
//! *began after the last progress* (a resume that came back `Parked`
//! or `Done`). A worker that finds only such ranks due sleeps until a
//! resume makes progress. The model is small-step: a worker's queue
//! work is one atomic step under the lock, and a resume is one step
//! per operation of the rank it runs, so every other worker can act
//! between a rank's check of its mailbox and its return to the queue.
//! A rank is a straight-line program of sends and receives over
//! buffered mailboxes; a receive from a rank that has ended and sent
//! nothing more ends the receiver too (`Disconnected`), and a rank's
//! end is visible before it counts as progress, as its future drops
//! before the worker re-takes the lock.
//!
//! Invariants, checked in every reachable state:
//! - no lost wake-up: a state in which no worker can step is the final
//!   one, every worker gone, and no cycle of states exists;
//! - no worker asleep while a rank can move: a due rank that is not
//!   stalled has a picking worker to take it, and a stalled rank that
//!   could move has a resume under way whose return wakes the sleepers;
//! - a deadlock is reported only when no resume is under way and no
//!   live rank can move, and on every schedule the world ends with the
//!   same ranks done as under one worker — so one is reported exactly
//!   when the world is deadlocked.
//!
//! Two buggy rules give the checker teeth: counting stalled resumes
//! instead of distinct stalled ranks (workers then resume stalled
//! ranks again), and counting a stall whose resume began before the
//! last progress.

use std::collections::{HashMap, HashSet};

/// One operation of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Send(usize),
    Recv(usize),
}

/// A deliberately wrong deadlock rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bug {
    /// Take the first rank due, stalled or not, and count every stalled
    /// resume since the last progress, the same rank twice included.
    CountResumes,
    /// Count a stall whatever progress came while its resume ran.
    StaleStalls,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Parked,
    Stalled,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// Awake, about to take the lock and pick a rank.
    Pick,
    /// On the condition variable.
    Asleep,
    /// Resuming `rank`, which has moved (run an operation) or not yet.
    Run {
        rank: usize,
        began: u64,
        moved: bool,
    },
    /// The rank ended: its future drops, outside the lock.
    Drop {
        rank: usize,
        began: u64,
    },
    /// Back from the resume, about to take the lock.
    Return {
        rank: usize,
        began: u64,
        outcome: Outcome,
    },
    Gone,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Per rank: the next operation, whether it has parked at it, its
    /// end, and whether its `Comm` has left.
    pc: Vec<usize>,
    parked: Vec<bool>,
    ended: Vec<bool>,
    left: Vec<bool>,
    /// `mail[dst][src]`: messages sent and not yet received.
    mail: Vec<Vec<u8>>,
    // The queue, as in `world::Queue`.
    due: Vec<usize>,
    running: usize,
    live: usize,
    progress: u64,
    stalled_at: Vec<u64>,
    stalled: usize,
    deadlock: bool,
    workers: Vec<Worker>,
}

struct Model<'a> {
    programs: &'a [Vec<Op>],
    bug: Option<Bug>,
}

impl Model<'_> {
    /// Whether `rank`'s next resume would run an operation.
    fn can_move(&self, s: &State, rank: usize) -> bool {
        match self.programs[rank].get(s.pc[rank]) {
            None => true,
            Some(Op::Send(_)) => true,
            Some(&Op::Recv(src)) => s.mail[rank][src] > 0 || s.left[src] || !s.parked[rank],
        }
    }

    fn eligible(&self, s: &State, rank: usize) -> bool {
        self.bug == Some(Bug::CountResumes) || s.stalled_at[rank] != s.progress + 1
    }

    /// Worker `w` takes one step, if it can.
    fn step(&self, s: &State, w: usize) -> Option<State> {
        let mut n = s.clone();
        match s.workers[w] {
            Worker::Asleep | Worker::Gone => return None,
            Worker::Pick => {
                if n.live == 0 || n.deadlock {
                    n.workers[w] = Worker::Gone;
                } else if let Some(i) = n.due.iter().position(|&r| self.eligible(s, r)) {
                    let rank = n.due.remove(i);
                    n.running += 1;
                    n.workers[w] = Worker::Run {
                        rank,
                        began: n.progress,
                        moved: false,
                    };
                } else {
                    n.workers[w] = Worker::Asleep;
                }
            }
            Worker::Run { rank, began, moved } => {
                let ran = |n: &mut State| {
                    n.pc[rank] += 1;
                    n.parked[rank] = false;
                    n.workers[w] = Worker::Run {
                        rank,
                        began,
                        moved: true,
                    };
                };
                let back = |outcome| Worker::Return {
                    rank,
                    began,
                    outcome,
                };
                match self.programs[rank].get(s.pc[rank]) {
                    None => {
                        n.ended[rank] = true;
                        n.workers[w] = Worker::Drop { rank, began };
                    }
                    Some(&Op::Send(dst)) if s.left[dst] => {
                        n.ended[rank] = true;
                        n.workers[w] = Worker::Drop { rank, began };
                    }
                    Some(&Op::Send(dst)) => {
                        n.mail[dst][rank] += 1;
                        ran(&mut n);
                    }
                    Some(&Op::Recv(src)) if s.mail[rank][src] > 0 => {
                        n.mail[rank][src] -= 1;
                        ran(&mut n);
                    }
                    Some(&Op::Recv(src)) if s.left[src] => {
                        n.ended[rank] = true;
                        n.workers[w] = Worker::Drop { rank, began };
                    }
                    Some(Op::Recv(_)) if s.parked[rank] && !moved => {
                        n.workers[w] = back(Outcome::Stalled);
                    }
                    Some(Op::Recv(_)) => {
                        n.parked[rank] = true;
                        n.workers[w] = back(Outcome::Parked);
                    }
                }
            }
            Worker::Drop { rank, began } => {
                n.left[rank] = true;
                n.workers[w] = Worker::Return {
                    rank,
                    began,
                    outcome: Outcome::Done,
                };
            }
            Worker::Return {
                rank,
                began,
                outcome,
            } => {
                n.running -= 1;
                n.workers[w] = Worker::Pick;
                let mut wake = false;
                match outcome {
                    Outcome::Done => {
                        n.live -= 1;
                        progressed(&mut n);
                        wake = true;
                    }
                    Outcome::Parked => {
                        n.due.push(rank);
                        progressed(&mut n);
                        wake = true;
                    }
                    Outcome::Stalled => {
                        n.due.push(rank);
                        let counts = match self.bug {
                            Some(Bug::StaleStalls) => true,
                            _ => began == n.progress,
                        };
                        if counts {
                            n.stalled_at[rank] = n.progress + 1;
                            // Saturated, so that a worker that spins on
                            // stalled ranks closes a cycle of states.
                            n.stalled = (n.stalled + 1).min(n.pc.len() + 1);
                        }
                        if n.running == 0 && n.stalled >= n.live {
                            n.deadlock = true;
                            wake = true;
                        }
                    }
                }
                if wake {
                    for other in n.workers.iter_mut() {
                        if *other == Worker::Asleep {
                            *other = Worker::Pick;
                        }
                    }
                }
            }
        }
        Some(n)
    }

    fn check(&self, s: &State) -> Result<(), String> {
        let asleep = s.workers.contains(&Worker::Asleep);
        if asleep {
            let picking = s.workers.iter().filter(|w| **w == Worker::Pick).count();
            let eligible = s.due.iter().filter(|&&r| self.eligible(s, r)).count();
            if eligible > picking {
                return Err(format!("a worker sleeps beside {eligible} ranks due"));
            }
            let resuming = s.workers.iter().any(|w| {
                matches!(
                    w,
                    Worker::Run { .. } | Worker::Drop { .. } | Worker::Return { .. }
                )
            });
            let held = |r: usize| !self.eligible(s, r) && self.can_move(s, r);
            if !resuming && s.due.iter().any(|&r| held(r)) {
                return Err("a worker sleeps while a stalled rank can move".to_string());
            }
        }
        if s.deadlock {
            if s.running > 0 {
                return Err("a deadlock reported while a resume is under way".to_string());
            }
            if let Some(r) = (0..s.pc.len()).find(|&r| !s.ended[r] && self.can_move(s, r)) {
                return Err(format!("a deadlock reported while rank {r} can move"));
            }
        }
        Ok(())
    }
}

fn progressed(s: &mut State) {
    s.progress += 1;
    s.stalled = 0;
}

/// Exploration result: distinct states, and the ranks done at the end
/// (the same on every schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Explored {
    pub(crate) states: usize,
    pub(crate) ended: Vec<bool>,
    pub(crate) deadlock: bool,
}

/// Explore every schedule of `workers` workers driving `programs`:
/// every reachable state, breadth first, checked as it is reached;
/// then the final states, and that no schedule runs for ever.
pub(crate) fn explore(
    workers: usize,
    programs: &[Vec<Op>],
    bug: Option<Bug>,
) -> Result<Explored, String> {
    let size = programs.len();
    let model = Model { programs, bug };
    let start = State {
        pc: vec![0; size],
        parked: vec![false; size],
        ended: vec![false; size],
        left: vec![false; size],
        mail: vec![vec![0; size]; size],
        due: (0..size).collect(),
        running: 0,
        live: size,
        progress: 0,
        stalled_at: vec![0; size],
        stalled: 0,
        deadlock: false,
        workers: vec![Worker::Pick; workers],
    };
    let mut index = HashMap::from([(start.clone(), 0)]);
    let mut states = vec![start];
    let mut next: Vec<Vec<usize>> = Vec::new();
    let mut finals = HashSet::new();
    while next.len() < states.len() {
        let s = &states[next.len()];
        model.check(s).map_err(|e| format!("{e} in {s:?}"))?;
        let after: Vec<State> = (0..workers).filter_map(|w| model.step(s, w)).collect();
        if after.is_empty() {
            if s.workers.iter().any(|w| *w != Worker::Gone) {
                return Err(format!("lost wake-up: nobody can step in {s:?}"));
            }
            if s.live > 0 && !s.deadlock {
                return Err(format!("workers gone with ranks live in {s:?}"));
            }
            finals.insert((s.ended.clone(), s.deadlock));
        }
        let mut edges = Vec::with_capacity(after.len());
        for n in after {
            let id = *index.entry(n.clone()).or_insert(states.len());
            if id == states.len() {
                states.push(n);
            }
            edges.push(id);
        }
        next.push(edges);
    }
    // No cycle: peel off states with no successor left until none is.
    let mut preds = vec![Vec::new(); states.len()];
    let mut out_degree: Vec<usize> = next.iter().map(Vec::len).collect();
    for (from, edges) in next.iter().enumerate() {
        for &to in edges {
            preds[to].push(from);
        }
    }
    let mut ready: Vec<usize> = (0..states.len()).filter(|&i| out_degree[i] == 0).collect();
    let mut peeled = 0;
    while let Some(i) = ready.pop() {
        peeled += 1;
        for &p in &preds[i] {
            out_degree[p] -= 1;
            if out_degree[p] == 0 {
                ready.push(p);
            }
        }
    }
    if peeled < states.len() {
        return Err("a schedule runs for ever".to_string());
    }
    let mut finals = finals.into_iter();
    let Some((ended, deadlock)) = finals.next() else {
        return Err("no schedule ends".to_string());
    };
    if let Some(other) = finals.next() {
        return Err(format!("schedules end apart: {ended:?} / {other:?}"));
    }
    Ok(Explored {
        states: states.len(),
        ended,
        deadlock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use Op::{Recv, Send};

    /// Three-rank worlds: which end, and which deadlock.
    fn worlds() -> HashMap<&'static str, Vec<Vec<Op>>> {
        HashMap::from([
            (
                "ring",
                vec![
                    vec![Send(1), Recv(2)],
                    vec![Recv(0), Send(2)],
                    vec![Recv(1), Send(0)],
                ],
            ),
            (
                "two rounds",
                vec![
                    vec![Send(1), Recv(1), Send(2)],
                    vec![Recv(0), Send(0), Recv(2)],
                    vec![Recv(0), Send(1)],
                ],
            ),
            (
                "a stuck pair beside a finisher",
                vec![vec![Send(2), Recv(1)], vec![Recv(0)], vec![Recv(0)]],
            ),
            (
                "a rank that leaves",
                vec![vec![Recv(1)], vec![Send(2)], vec![Recv(1), Recv(1)]],
            ),
            (
                "all stuck",
                vec![vec![Recv(1)], vec![Recv(2)], vec![Recv(0)]],
            ),
        ])
    }

    #[test]
    fn driver_model_two_workers_three_ranks_every_schedule() {
        for (name, programs) in worlds() {
            let one = explore(1, &programs, None).unwrap_or_else(|e| panic!("{name}: {e}"));
            let two = explore(2, &programs, None).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                (&two.ended, two.deadlock),
                (&one.ended, one.deadlock),
                "{name}"
            );
            assert!(two.states > one.states, "{name}");
            let deadlocks = !one.ended.iter().all(|&e| e);
            assert_eq!(one.deadlock, deadlocks, "{name}");
        }
        // A third worker, where a finisher runs beside the stuck pair
        // (40 000 states; the other worlds take up to 600 000).
        let stuck = &worlds()["a stuck pair beside a finisher"];
        let three = explore(3, stuck, None).unwrap();
        assert_eq!(
            (three.ended, three.deadlock),
            (vec![false, false, true], true)
        );
    }

    #[test]
    fn driver_model_catches_a_rule_that_counts_resumes() {
        let programs = &worlds()["a stuck pair beside a finisher"];
        let err = explore(2, programs, Some(Bug::CountResumes)).unwrap_err();
        assert!(
            err.contains("deadlock reported while rank 2 can move"),
            "{err}"
        );
    }

    #[test]
    fn driver_model_catches_a_rule_that_counts_stale_stalls() {
        let programs = &worlds()["ring"];
        let err = explore(2, programs, Some(Bug::StaleStalls)).unwrap_err();
        assert!(err.contains("deadlock reported while rank"), "{err}");
    }
}
