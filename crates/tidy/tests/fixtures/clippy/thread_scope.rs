// expect: clippy::disallowed_methods
use std::thread;

pub fn run(jobs: usize) -> usize {
    thread::scope(|s| {
        let named = thread::Builder::new().spawn_scoped(s, || 1);
        let plain: Vec<_> = (1..jobs).map(|_| s.spawn(|| 1)).collect();
        let named = named.map_or(0, |h| h.join().unwrap_or(0));
        named + plain.into_iter().map(|h| h.join().unwrap_or(0)).sum::<usize>()
    })
}
