//! Figure sweep execution: run every mode over a figure's points.
//!
//! The sweep engine itself is [`hsim_core::figures::run_figure_with`];
//! [`run_figure_jobs`] is the caller that executes each point through
//! the load balancer and owns the wall-clock `host_sweep_*` counters
//! (which is why it lives here and not in `hsim-core`).

pub use hsim_core::figures::{paper_modes, FigureData, Series, SkippedPoint};
use hsim_core::figures::{run_figure_with, FigureSpec};
use hsim_core::{run_balanced, ExecMode};
use hsim_telemetry::Counter;

/// Run one figure's sweep for `modes` (cost-only fidelity, RZHasGPU)
/// with up to `jobs` simulations in flight. Heterogeneous points run
/// through the load balancer, exactly as the paper adjusted the split
/// per problem size. Output is byte-identical for every `jobs` value.
pub fn run_figure_jobs(spec: &FigureSpec, modes: &[ExecMode], jobs: usize) -> FigureData {
    let host_t0 = hsim_telemetry::is_enabled().then(std::time::Instant::now);
    let data = run_figure_with(spec, modes, jobs, |cfg| {
        run_balanced(cfg).map(|(r, _lb)| (r.zones, r.runtime.as_secs_f64(), r.cpu_fraction))
    });
    if let Some(t0) = host_t0 {
        let points = (modes.len() * spec.values.len()) as u64;
        hsim_telemetry::count(Counter::HostSweepPoints, points);
        hsim_telemetry::count(Counter::HostSweepNanos, t0.elapsed().as_nanos() as u64);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_core::figures;
    use hsim_core::figures::FigureSpec;

    #[test]
    fn small_sweep_produces_all_series() {
        // A trimmed fig13-style sweep to keep the test fast.
        let spec = FigureSpec {
            id: "test",
            caption: "test sweep",
            sweep: figures::SweepAxis::X,
            values: vec![64, 128],
            fixed: (48, 32),
            scenario: hsim_core::Scenario::Sedov,
        };
        let data = run_figure_jobs(&spec, &paper_modes(), 1);
        assert_eq!(data.series.len(), 3);
        for s in &data.series {
            assert_eq!(s.points.len(), 2, "{}", s.label);
        }
        assert!(data.skipped.is_empty());
        let csv = data.to_csv();
        assert!(csv.lines().count() >= 7);
        assert_eq!(data.chart_series().len(), 3);
        let md = data.to_markdown();
        assert!(md.contains("| zones |"));
        // One row per sweep point plus header lines; no skip footer.
        assert_eq!(md.lines().count(), 4 + 2); // title, blank, header, separator + 2 rows
        assert!(md.contains("%"), "CPU share column present");
    }

    #[test]
    fn lpt_claim_order_keeps_output_byte_identical() {
        let spec = FigureSpec {
            id: "test",
            caption: "test sweep",
            sweep: figures::SweepAxis::X,
            values: vec![64, 96, 128],
            fixed: (48, 32),
            scenario: hsim_core::Scenario::Sedov,
        };
        let serial = run_figure_jobs(&spec, &paper_modes(), 1);
        let parallel = run_figure_jobs(&spec, &paper_modes(), 4);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
    }
}
