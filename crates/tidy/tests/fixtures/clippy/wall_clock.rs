// expect: clippy::disallowed_types
use std::time::Instant;

pub fn now_ms() -> u128 {
    Instant::now().elapsed().as_millis()
}
