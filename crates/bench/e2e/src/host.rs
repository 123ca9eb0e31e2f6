//! Host-side diagnostics: `/proc/self` readers, the counting
//! allocator, and a fixed reference loop that tells machine drift
//! from program drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of one `/proc/<pid>/status` key, e.g. `VmHWM`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Linux reports process times in ticks of 1/100 s on every
/// configuration this benchmark runs on (`sysconf(_SC_CLK_TCK)`).
const MS_PER_TICK: f64 = 10.0;

/// CPU time (user + system) this process has used so far, in ms.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(f64::NAN, |t| t as f64 * MS_PER_TICK)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The system allocator with allocation counting that the traced
/// pass switches on; off, it costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics (statistics that publish no other data) and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switch allocation counting on or off (all threads).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Threads the load generators and the reference loop may use: never
/// more than the machine has, never more than two.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Doubles per reference-loop array: three arrays of 2 MiB per thread,
/// past L2 on any current core, so the loop sees memory contention as
/// well as a stolen core.
const REF_LEN: usize = 1 << 18;
const REF_SWEEPS: usize = 12;

/// One pass of the reference loop: a STREAM-style triad
/// `a = b + s·c` on every load thread at once. Depends on nothing in
/// the repository, so when this number moves the machine moved.
/// Returns wall ms.
pub fn ref_triad_ms() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..load_threads() {
            s.spawn(move || {
                let mut a = vec![0.0f64; REF_LEN];
                let b = vec![1.0 + t as f64; REF_LEN];
                let c = vec![0.5f64; REF_LEN];
                for sweep in 0..REF_SWEEPS {
                    let scale = 1.0 + sweep as f64 * 1e-3;
                    for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                        *x = y + scale * z;
                    }
                    std::hint::black_box(&mut a);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_command_name() {
        let line = "4242 (e2e (x) y) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    250 50 7 8 20 0 19 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_parser_reads_kb_keys() {
        let status = "Name:\te2e\nVmPeak:\t  999 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 70000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(81234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(70000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM: lots\n", "VmHWM"), None);
    }

    #[test]
    fn proc_self_is_readable_here() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn allocation_counting_only_counts_while_on() {
        // Other tests allocate concurrently, so only lower bounds hold.
        set_alloc_counting(true);
        let before = alloc_counts();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = alloc_counts();
        set_alloc_counting(false);
        drop(v);
        assert!(after.0 > before.0 && after.1 >= before.1 + 4096);
    }
}
