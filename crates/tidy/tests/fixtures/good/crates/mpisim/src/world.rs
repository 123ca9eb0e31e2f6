use std::thread;

// Thread-per-rank worlds own their scoped threads: allow-listed file.
pub fn run(ranks: usize) -> usize {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks).map(|r| scope.spawn(move || r)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}
