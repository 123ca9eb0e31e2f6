//! Poison-recovering lock calls: the one place the workspace turns a
//! `std::sync` `LockResult` into its guard.
//!
//! Shared simulator state behind a lock is plain data (queues, mail,
//! device timelines, caches) that stays coherent when a thread panics
//! while holding the guard; the panic itself surfaces where the thread
//! is joined. So a poisoned lock is recovered, never propagated. The
//! workspace `clippy.toml` disallows every `Mutex`/`Condvar` call that
//! returns a `LockResult`, which routes all of them through here.

#![allow(clippy::disallowed_methods)]

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Take the guard out of a lock result, poisoned or not.
fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Lock `m`.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(m.lock())
}

/// Block on `cv`, releasing `guard` until woken; returns it re-locked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    recover(cv.wait(guard))
}

/// [`wait`], woken after `timeout` at the latest.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    recover(cv.wait_timeout(guard, timeout)).0
}

/// The value inside `m`, consuming it.
pub fn into_inner<T>(m: Mutex<T>) -> T {
    recover(m.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    /// A mutex whose holder panicked.
    fn poisoned(value: u32) -> Mutex<u32> {
        let m = Mutex::new(value);
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock(&m);
            panic!("holder panics");
        }));
        assert!(m.is_poisoned());
        m
    }

    #[test]
    fn a_poisoned_mutex_still_locks() {
        let m = poisoned(41);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 42);
        assert_eq!(into_inner(m), 42);
    }

    #[test]
    fn a_mutex_poisoned_by_a_panicking_thread_still_locks() {
        let m = Mutex::new(7);
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock(&m);
                panic!("worker panics holding the lock");
            })
            .join()
        });
        assert!(joined.is_err() && m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn a_wait_on_a_poisoned_mutex_returns_the_guard() {
        let m = poisoned(0);
        let cv = Condvar::new();
        // Held before the notifier starts, so its store can land only
        // while this thread waits.
        let mut g = lock(&m);
        let g = std::thread::scope(|s| {
            s.spawn(|| {
                *lock(&m) = 1;
                cv.notify_all();
            });
            while *g == 0 {
                g = wait(&cv, g);
            }
            g
        });
        assert_eq!(*g, 1);
        let g = wait_timeout(&cv, g, Duration::from_millis(1));
        assert_eq!(*g, 1);
    }
}
