use std::time::Instant;

pub struct Probe;

impl Probe {
    #[allow(clippy::disallowed_types)] // fixture: reads the host clock by design
    pub fn stamp() -> Instant { Instant::now() }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_exempt() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
