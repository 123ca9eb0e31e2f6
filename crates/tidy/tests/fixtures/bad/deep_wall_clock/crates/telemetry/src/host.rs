// Every read in this file is host timing, sanctioned.
#![allow(clippy::disallowed_types)]

pub fn host_elapsed() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
