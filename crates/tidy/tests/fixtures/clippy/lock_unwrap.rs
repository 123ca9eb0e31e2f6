// expect: clippy::disallowed_methods
use std::sync::{Condvar, Mutex};

pub fn bump(m: &Mutex<u32>, cv: &Condvar) -> u32 {
    let mut g = m.lock().unwrap_or_else(|p| p.into_inner());
    while *g == 0 {
        g = cv.wait(g).unwrap();
    }
    *g += 1;
    *g
}
