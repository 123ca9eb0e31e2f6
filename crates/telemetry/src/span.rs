//! Structured span events: who occupied which timeline, when, and why.

use hsim_time::{SimDuration, SimTime};

/// What kind of activity a span represents: the one vocabulary behind
/// the Chrome trace (`chrome_name`) and the ASCII Gantt (`glyph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Kernel body executing on host cores.
    CpuKernel,
    /// Kernel body executing on a device timeline.
    GpuKernel,
    /// Launch / driver-submit overhead on the host.
    Launch,
    /// A point-to-point MPI message (send or recv side).
    MpiMessage,
    /// An MPI collective (allreduce, barrier, bcast).
    Collective,
    /// Host/device staging transfer.
    Transfer,
    /// Unified-memory page migration.
    UmMigration,
    /// A named phase of the physics cycle (EOS, flux, update, halo, CFL).
    Phase,
    /// Runner-level bookkeeping: decompose, rebalance.
    Runtime,
    /// Waiting on a peer or device.
    Idle,
}

impl Category {
    pub const ALL: [Category; 10] = [
        Category::CpuKernel,
        Category::GpuKernel,
        Category::Launch,
        Category::MpiMessage,
        Category::Collective,
        Category::Transfer,
        Category::UmMigration,
        Category::Phase,
        Category::Runtime,
        Category::Idle,
    ];

    /// The `cat` string used in Chrome trace-event JSON.
    pub fn chrome_name(self) -> &'static str {
        match self {
            Category::CpuKernel => "cpu_kernel",
            Category::GpuKernel => "gpu_kernel",
            Category::Launch => "launch",
            Category::MpiMessage => "mpi_message",
            Category::Collective => "mpi_collective",
            Category::Transfer => "transfer",
            Category::UmMigration => "um_migration",
            Category::Phase => "phase",
            Category::Runtime => "runtime",
            Category::Idle => "rank_idle",
        }
    }

    /// The cell the ASCII Gantt paints: `C`/`G` busy on a host core or
    /// driving a GPU (cycle phases count as host work), `l` launch and
    /// runtime overhead, `x` communication, `m` memory traffic, `.`
    /// waiting.
    pub fn glyph(self) -> char {
        match self {
            Category::CpuKernel | Category::Phase => 'C',
            Category::GpuKernel => 'G',
            Category::Launch | Category::Runtime => 'l',
            Category::MpiMessage | Category::Collective => 'x',
            Category::Transfer | Category::UmMigration => 'm',
            Category::Idle => '.',
        }
    }
}

/// One complete (`ph: "X"`) interval on a timeline.
///
/// `pid` identifies the timeline process: rank timelines use the rank
/// index, device timelines use [`crate::DEVICE_PID_BASE`]` + device`.
/// `tid` is 0 for a rank's main thread and the stream index on a
/// device timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub pid: u32,
    pub tid: u32,
    pub cat: Category,
    pub name: &'static str,
    pub ts: SimTime,
    pub dur: SimDuration,
    /// Key/value attributes (bytes, tag, elems, …). Empty for most
    /// spans; an empty `Vec` does not allocate.
    pub args: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    pub fn end(&self) -> SimTime {
        self.ts + self.dur
    }

    /// Total order used to make merged multi-thread span streams
    /// byte-deterministic regardless of which thread drained first.
    pub fn sort_key(&self) -> impl Ord + '_ {
        (self.ts, self.pid, self.tid, self.cat, self.name, self.dur)
    }
}

/// Sort spans into the canonical deterministic order.
pub fn sort_spans(spans: &mut [SpanEvent]) {
    spans.sort_by(|a, b| {
        a.sort_key()
            .cmp(&b.sort_key())
            .then_with(|| a.args.cmp(&b.args))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, pid: u32, name: &'static str) -> SpanEvent {
        SpanEvent {
            pid,
            tid: 0,
            cat: Category::CpuKernel,
            name,
            ts: SimTime::from_nanos(ts),
            dur: SimDuration::from_nanos(1),
            args: Vec::new(),
        }
    }

    #[test]
    fn sort_is_deterministic_under_permutation() {
        let mut a = vec![ev(5, 1, "b"), ev(5, 0, "a"), ev(1, 3, "c")];
        let mut b = vec![ev(1, 3, "c"), ev(5, 1, "b"), ev(5, 0, "a")];
        sort_spans(&mut a);
        sort_spans(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].name, "c");
        assert_eq!(a[1].pid, 0);
    }

    #[test]
    fn chrome_names_are_unique_and_glyphs_are_the_six_of_the_legend() {
        let names: std::collections::BTreeSet<_> =
            Category::ALL.iter().map(|c| c.chrome_name()).collect();
        assert_eq!(names.len(), Category::ALL.len());
        let glyphs: std::collections::BTreeSet<_> =
            Category::ALL.iter().map(|c| c.glyph()).collect();
        assert_eq!(glyphs.into_iter().collect::<String>(), ".CGlmx");
    }
}
