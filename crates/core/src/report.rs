//! Run results and CSV reporting.

use hsim_mesh::OwnerKind;
use hsim_telemetry::{gantt::render_gantt, SpanEvent};
use hsim_time::SimDuration;

/// One rank's virtual-time accounting for a run.
#[derive(Debug, Clone)]
pub struct RankReport {
    pub rank: usize,
    /// What the rank computes on: its piece's owner in the run's
    /// partition.
    pub role: OwnerKind,
    pub zones: u64,
    /// One-time setup cost (memory scheme fault-in etc.), excluded
    /// from `total`.
    pub setup: SimDuration,
    /// Cycle-loop runtime (post-setup). The six buckets below are the
    /// same interval on the same clock, so they sum to it exactly.
    pub total: SimDuration,
    pub compute: SimDuration,
    pub launch: SimDuration,
    pub memory: SimDuration,
    pub comm: SimDuration,
    pub control: SimDuration,
    pub wait: SimDuration,
    pub launches: u64,
    pub bytes_sent: u64,
}

impl RankReport {
    /// `|Σ six buckets − total|` — zero for every rank of every run:
    /// charging a bucket is the only way a rank's clock advances.
    pub fn account_residual(&self) -> SimDuration {
        let parts = self.compute + self.launch + self.memory + self.comm + self.control + self.wait;
        SimDuration::from_nanos(parts.as_nanos().abs_diff(self.total.as_nanos()))
    }

    /// Fold in the same rank's report from a later segment of the run:
    /// time and traffic buckets sum, the identity fields (`role`,
    /// `zones`) follow the latest world.
    pub(crate) fn absorb(&mut self, later: RankReport) {
        self.role = later.role;
        self.zones = later.zones;
        self.setup += later.setup;
        self.total += later.total;
        self.compute += later.compute;
        self.launch += later.launch;
        self.memory += later.memory;
        self.comm += later.comm;
        self.control += later.control;
        self.wait += later.wait;
        self.launches += later.launches;
        self.bytes_sent += later.bytes_sent;
        debug_assert_eq!(self.account_residual(), SimDuration::ZERO);
    }
}

pub(crate) fn slowest(times: impl Iterator<Item = SimDuration>) -> SimDuration {
    times.fold(SimDuration::ZERO, SimDuration::max)
}

/// Largest compute-bucket time among CPU-worker ranks: the CPU side
/// of both balancers' measured input.
pub(crate) fn slowest_cpu_compute<'a>(
    ranks: impl IntoIterator<Item = &'a RankReport>,
) -> SimDuration {
    slowest(
        ranks
            .into_iter()
            .filter(|r| !r.role.is_gpu_driver())
            .map(|r| r.compute),
    )
}

/// Summary of the tracer-particle phase at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleReport {
    /// Live particles at the end of the run (conservation pins this
    /// to the configured count).
    pub count: u64,
    /// Σ velocity over the final particle set — the drag-phase
    /// momentum surrogate pinned across re-splits and foldbacks.
    pub momentum: [f64; 3],
    /// Cross-rank migrations over the whole run.
    pub migrated: u64,
    /// Order-independent FNV-1a digest of the final particle set
    /// (ids, positions, velocities bit-exact).
    pub checksum: u64,
}

/// The busy/wait pair the runner records per rank and cycle: all the
/// `--trace` timeline draws of the span store.
pub(crate) fn per_cycle(s: &SpanEvent) -> bool {
    s.name == "cycle" || s.name == "wait"
}

/// Aggregate result of one cooperative run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub mode_key: String,
    pub mode_label: String,
    pub grid: (usize, usize, usize),
    pub zones: u64,
    /// End-to-end runtime: the slowest rank's clock.
    pub runtime: SimDuration,
    /// Fraction of zones computed by CPU workers.
    pub cpu_fraction: f64,
    pub cycles: u64,
    pub ranks: Vec<RankReport>,
    /// Per-device kernel busy time (GPU modes).
    pub device_busy: Vec<SimDuration>,
    /// The run's kernel table: every rank's launches, elements, time
    /// and occupancy per kernel name, kept on every run; the metrics
    /// JSON renders it, and its total is the run's one launch count.
    /// A rank lost to a fault keeps what it launched before the loss
    /// here, while [`RunResult::ranks`] holds only the survivors: the
    /// table's launches are then the survivors' report launches plus
    /// the lost rank's pre-loss launches.
    pub kernels: hsim_telemetry::KernelTable,
    /// MPI payload bytes sent point-to-point over the run, the run's
    /// one bytes count ([`RunResult::total_bytes_sent`]). Like
    /// [`RunResult::kernels`] it keeps a lost rank's bytes before the
    /// loss, so it then exceeds the sum over [`RunResult::ranks`].
    pub(crate) bytes_sent: u64,
    /// The run's one span store, with metrics, when
    /// [`crate::RunConfig::telemetry`] or [`crate::RunConfig::trace`]
    /// was set.
    pub telemetry: Option<hsim_telemetry::Summary>,
    /// Total mass Σ ρ·V over the final state (full fidelity only;
    /// None in cost-only runs, whose zone values carry no physics).
    /// Conservation makes this the end-to-end correctness observable,
    /// including across a fault-recovery restart.
    pub mass: Option<f64>,
    /// The online rebalance controller's CPU-fraction history, one
    /// entry per segment boundary (first entry = realized initial
    /// split). Empty when [`crate::RunConfig::rebalance`] is off.
    pub balance_history: Vec<f64>,
    /// Final tracer-particle phase summary (`None` when
    /// [`crate::RunConfig::particles`] is off).
    pub particles: Option<ParticleReport>,
    /// Scenario identity and analytic-solution error (`None` for the
    /// perturbed balancer workload, which has no reference solution).
    pub scenario: Option<crate::scenario::ScenarioOutcome>,
}

impl RunResult {
    /// Largest compute-bucket time among CPU-worker ranks.
    pub fn slowest_cpu_compute(&self) -> SimDuration {
        slowest_cpu_compute(&self.ranks)
    }

    /// Largest device busy time.
    pub fn slowest_device_busy(&self) -> SimDuration {
        slowest(self.device_busy.iter().copied())
    }

    /// Largest [`RankReport::account_residual`] over the ranks (the
    /// release-build gate on what debug builds assert per rank).
    pub fn account_residual(&self) -> SimDuration {
        slowest(self.ranks.iter().map(RankReport::account_residual))
    }

    /// Total MPI bytes sent across ranks, a lost rank's before the
    /// loss included: the metrics JSON's `mpi_bytes_sent`.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The `--trace` timeline, `width` columns wide: one row per rank
    /// over its per-cycle busy and wait spans (`None` when the run
    /// kept no span store).
    pub fn timeline(&self, width: usize) -> Option<String> {
        let summary = self.telemetry.as_ref()?;
        Some(render_gantt(&summary.spans, width, per_cycle))
    }

    /// Version of the CSV schema emitted by [`RunResult::csv_row`].
    /// Bump when columns are added, removed, or reordered so archived
    /// sweep outputs stay distinguishable.
    pub const CSV_SCHEMA_VERSION: u32 = 2;

    /// CSV header matching [`RunResult::csv_row`].
    pub fn csv_header() -> &'static str {
        "schema,mode,nx,ny,nz,zones,cycles,runtime_s,cpu_fraction,launches,mpi_bytes"
    }

    /// One CSV line for this run.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.4},{},{}",
            Self::CSV_SCHEMA_VERSION,
            self.mode_key,
            self.grid.0,
            self.grid.1,
            self.grid.2,
            self.zones,
            self.cycles,
            self.runtime.as_secs_f64(),
            self.cpu_fraction,
            self.kernels.total_launches(),
            self.total_bytes_sent(),
        )
    }

    /// Parse one [`RunResult::csv_row`] line back into its fields
    /// (schema checked). Returns
    /// `(mode, grid, zones, cycles, runtime_s, cpu_fraction, launches, mpi_bytes)`.
    #[allow(clippy::type_complexity)]
    pub fn parse_csv_row(
        line: &str,
    ) -> Result<(String, (usize, usize, usize), u64, u64, f64, f64, u64, u64), String> {
        let fields: Vec<&str> = line.trim().split(',').collect();
        let expect = Self::csv_header().split(',').count();
        if fields.len() != expect {
            return Err(format!("expected {expect} fields, got {}", fields.len()));
        }
        let schema: u32 = fields[0].parse().map_err(|e| format!("schema: {e}"))?;
        if schema != Self::CSV_SCHEMA_VERSION {
            return Err(format!(
                "schema {schema} != current {}",
                Self::CSV_SCHEMA_VERSION
            ));
        }
        let num = |i: usize, what: &str| -> Result<u64, String> {
            fields[i].parse().map_err(|e| format!("{what}: {e}"))
        };
        let fnum = |i: usize, what: &str| -> Result<f64, String> {
            fields[i].parse().map_err(|e| format!("{what}: {e}"))
        };
        Ok((
            fields[1].to_string(),
            (
                num(2, "nx")? as usize,
                num(3, "ny")? as usize,
                num(4, "nz")? as usize,
            ),
            num(5, "zones")?,
            num(6, "cycles")?,
            fnum(7, "runtime_s")?,
            fnum(8, "cpu_fraction")?,
            num(9, "launches")?,
            num(10, "mpi_bytes")?,
        ))
    }

    /// Human-readable per-rank breakdown table.
    pub fn breakdown_table(&self) -> String {
        let mut out = String::new();
        out.push_str("rank  role        zones      total      compute    launch     memory     comm       control    wait\n");
        for r in &self.ranks {
            let role = match r.role {
                OwnerKind::Gpu(gpu) => format!("gpu{gpu}-drv"),
                OwnerKind::Cpu => "cpu-wrk".to_string(),
            };
            out.push_str(&format!(
                "{:>4}  {:<10} {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                r.rank,
                role,
                r.zones,
                format!("{}", r.total),
                format!("{}", r.compute),
                format!("{}", r.launch),
                format!("{}", r.memory),
                format!("{}", r.comm),
                format!("{}", r.control),
                format!("{}", r.wait),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rank: usize, gpu: bool, compute_us: u64) -> RankReport {
        RankReport {
            rank,
            role: if gpu {
                OwnerKind::Gpu(0)
            } else {
                OwnerKind::Cpu
            },
            zones: 1000,
            setup: SimDuration::ZERO,
            total: SimDuration::from_micros(compute_us * 2),
            compute: SimDuration::from_micros(compute_us),
            launch: SimDuration::ZERO,
            memory: SimDuration::ZERO,
            comm: SimDuration::ZERO,
            control: SimDuration::ZERO,
            wait: SimDuration::ZERO,
            launches: 10,
            bytes_sent: 100,
        }
    }

    fn result() -> RunResult {
        // The table's total (37) differs from the per-rank reports' sum
        // (30), and so do the run's bytes (370 against 300), as after a
        // rank loss: the CSV columns are the run's counts.
        let mut kernels = hsim_telemetry::KernelTable::new();
        for (name, launches) in [("sweep", 25), ("eos", 12)] {
            let sums = hsim_telemetry::KernelSums {
                launches,
                ..Default::default()
            };
            kernels.add(name, sums).unwrap();
        }
        RunResult {
            mode_key: "hetero".into(),
            mode_label: "Hetero (4 MPI/GPU)".into(),
            grid: (8, 8, 8),
            zones: 512,
            runtime: SimDuration::from_micros(40),
            cpu_fraction: 0.03,
            cycles: 10,
            ranks: vec![
                report(0, true, 20),
                report(1, false, 5),
                report(2, false, 9),
            ],
            device_busy: vec![SimDuration::from_micros(18)],
            kernels,
            bytes_sent: 370,
            telemetry: None,
            mass: None,
            balance_history: Vec::new(),
            particles: None,
            scenario: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = result();
        assert_eq!(r.slowest_cpu_compute(), SimDuration::from_micros(9));
        assert_eq!(r.slowest_device_busy(), SimDuration::from_micros(18));
        assert_eq!(r.total_bytes_sent(), 370);
    }

    #[test]
    fn csv_row_matches_header_field_count() {
        let r = result();
        let header_fields = RunResult::csv_header().split(',').count();
        let row_fields = r.csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
        assert!(r.csv_row().starts_with("2,hetero,8,8,8,512,10,"));
        assert_eq!(RunResult::csv_header().split(',').next(), Some("schema"));
    }

    #[test]
    fn csv_row_round_trips() {
        let r = result();
        let (mode, grid, zones, cycles, runtime_s, cpu_fraction, launches, mpi_bytes) =
            RunResult::parse_csv_row(&r.csv_row()).unwrap();
        assert_eq!(mode, r.mode_key);
        assert_eq!(grid, r.grid);
        assert_eq!(zones, r.zones);
        assert_eq!(cycles, r.cycles);
        assert!((runtime_s - r.runtime.as_secs_f64()).abs() < 1e-6);
        assert!((cpu_fraction - r.cpu_fraction).abs() < 1e-4);
        assert_eq!(launches, 37);
        assert_eq!(mpi_bytes, 370);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shape() {
        let r = result();
        let row = r.csv_row();
        let stale = row.replacen("2,", "1,", 1);
        assert!(RunResult::parse_csv_row(&stale).is_err());
        assert!(RunResult::parse_csv_row("2,hetero,8").is_err());
    }

    #[test]
    fn breakdown_table_has_one_line_per_rank_plus_header() {
        let r = result();
        assert_eq!(r.breakdown_table().lines().count(), 4);
    }
}
