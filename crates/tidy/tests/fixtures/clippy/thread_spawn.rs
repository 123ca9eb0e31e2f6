// expect: clippy::disallowed_methods
use std::thread;

pub fn run() -> i32 {
    let h = thread::spawn(|| 42);
    h.join().unwrap_or(0)
}
