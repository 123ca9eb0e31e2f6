// expect: clippy::disallowed_methods
use std::thread;

pub fn run() -> i32 {
    let h = thread::Builder::new().name("stray".to_string()).spawn(|| 42);
    h.map_or(0, |h| h.join().unwrap_or(0))
}
