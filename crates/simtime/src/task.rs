//! Resumable rank tasks and the two ways they are driven.
//!
//! A rank body, and everything under it that can wait on a peer, is a
//! future. There is one body and two drivers:
//!
//! * **thread-per-rank** — [`block_on`] polls the future to completion
//!   on the rank's own thread, and a wait *blocks that thread inside
//!   the poll* (a channel receive, a condition variable). This is the
//!   driver for runs that execute kernel bodies, where the ranks'
//!   parallelism is the point.
//! * **stepped** — one thread [`resume`]s every rank's future in turn,
//!   and a wait that cannot be satisfied yet *parks*: the poll returns
//!   `Pending` and the next rank runs. Nothing is spawned and nothing
//!   blocks. This is the driver for cost-only runs, whose ranks only
//!   hand virtual timestamps to each other.
//!
//! Which of the two is polling is a property of the calling thread for
//! the duration of a poll, so that is where it is recorded: [`wait`] —
//! the one shape both wait primitives (mailbox, device epoch) have —
//! reads it and blocks or parks accordingly. A primitive cannot be
//! configured for one driver and polled by the other.

use std::cell::Cell;
use std::fmt;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};

/// What a parked rank is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// A message from rank `src` carrying `tag` that has not been sent.
    Message { src: usize, tag: u32 },
    /// The sync epoch of `device`, which not every client has joined.
    DeviceSync { device: usize, epoch: u64 },
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Message { src, tag } => write!(f, "a message from rank {src} (tag {tag})"),
            Waiting::DeviceSync { device, epoch } => {
                write!(f, "sync epoch {epoch} of device {device}")
            }
        }
    }
}

thread_local! {
    /// Set while [`resume`] polls on this thread.
    static STEPPING: Cell<bool> = const { Cell::new(false) };
    /// The wait the future being resumed has just parked at.
    static PARKED: Cell<Option<Waiting>> = const { Cell::new(None) };
}

struct Noop;

impl Wake for Noop {
    fn wake(self: Arc<Self>) {}
}

/// Neither driver sleeps between polls, so neither needs waking.
fn noop_waker() -> &'static Waker {
    static WAKER: OnceLock<Waker> = OnceLock::new();
    WAKER.get_or_init(|| Waker::from(Arc::new(Noop)))
}

/// Drive `fut` to completion on the calling thread. Under this driver
/// every [`wait`] blocks inside the poll, so the first poll completes.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(noop_waker());
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
    }
}

/// Outcome of one [`resume`].
#[derive(Debug)]
pub enum Resumed<T> {
    /// The future completed.
    Done(T),
    /// It ran up to a wait it had not reached before and parked there.
    Parked(Waiting),
    /// It is still parked where its previous resume left it: nothing
    /// it waits for has happened since.
    Stalled,
}

/// Poll `fut` once as a stepped rank: every [`wait`] it reaches parks
/// instead of blocking. A pass over all ranks in which every resume
/// comes back [`Resumed::Stalled`] is a deadlock — no rank ran any
/// code, so nothing any of them waits for can still happen.
pub fn resume<F: Future>(fut: Pin<&mut F>) -> Resumed<F::Output> {
    // Restores the flag on unwind too: the driver catches a rank's
    // panic and keeps resuming its peers on this thread.
    struct Stepping(bool);
    impl Drop for Stepping {
        fn drop(&mut self) {
            STEPPING.set(self.0);
        }
    }
    let _stepping = Stepping(STEPPING.replace(true));
    PARKED.set(None);
    match fut.poll(&mut Context::from_waker(noop_waker())) {
        Poll::Ready(out) => Resumed::Done(out),
        Poll::Pending => PARKED.take().map_or(Resumed::Stalled, Resumed::Parked),
    }
}

/// Wait for `try_now` to yield a value. On a rank thread that means
/// calling `block`, which blocks until the value exists; under
/// [`resume`] it means parking — returning to the driver — and trying
/// again on each later resume. `what` names the wait in a deadlock
/// report.
pub async fn wait<T>(
    what: Waiting,
    mut try_now: impl FnMut() -> Option<T>,
    block: impl FnOnce() -> T,
) -> T {
    if !STEPPING.get() {
        return block();
    }
    let mut parked = false;
    std::future::poll_fn(|_| match try_now() {
        Some(value) => Poll::Ready(value),
        None => {
            if !parked {
                PARKED.set(Some(what));
                parked = true;
            }
            Poll::Pending
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const MAIL: Waiting = Waiting::Message { src: 1, tag: 7 };

    async fn take(queue: &Cell<VecDeque<u32>>) -> u32 {
        let pop = || {
            let mut q = queue.take();
            let v = q.pop_front();
            queue.set(q);
            v
        };
        wait(MAIL, pop, || unreachable!("stepped futures never block")).await
    }

    #[test]
    fn block_on_takes_the_blocking_branch() {
        let got = block_on(wait(MAIL, || None, || 5));
        assert_eq!(got, 5);
    }

    #[test]
    fn resume_parks_once_then_stalls_until_the_value_arrives() {
        let queue = Cell::new(VecDeque::new());
        let mut fut = pin!(async { take(&queue).await + take(&queue).await });
        assert!(matches!(resume(fut.as_mut()), Resumed::Parked(MAIL)));
        assert!(matches!(resume(fut.as_mut()), Resumed::Stalled));
        queue.set(VecDeque::from([1]));
        // The first wait completes; the second is a fresh park.
        assert!(matches!(resume(fut.as_mut()), Resumed::Parked(MAIL)));
        queue.set(VecDeque::from([2]));
        assert!(matches!(resume(fut.as_mut()), Resumed::Done(3)));
    }

    #[test]
    fn a_panicking_resume_leaves_the_thread_blocking_again() {
        let boom = std::panic::catch_unwind(|| {
            resume(pin!(async { panic!("rank body panicked") }));
        });
        assert!(boom.is_err());
        assert_eq!(block_on(wait(MAIL, || None, || 9)), 9);
    }
}
