pub fn to_metrics_json() -> String {
    format!("{} {} {} {}", stamp(), timed(), stamp_after(), host_elapsed())
}

fn stamp() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

#[allow(clippy::disallowed_types)] // fixture: host timing, sanctioned
fn timed() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

fn stamp_after() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
