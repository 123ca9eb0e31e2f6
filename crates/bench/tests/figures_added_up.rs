//! The benchmark's own figures, added up against stepped: a cost-only
//! sweep point that has gone periodic adds its remaining cycles up, a
//! point that collects telemetry steps every one, and the figure must
//! not tell them apart. Heterogeneous points go through the load
//! balancer's restart loop, so every restart is held to it too.

use hsim_core::figures::{fig12, fig13, fig17, paper_modes, run_figure_with, PointResult};
use hsim_core::{run_balanced, RunConfig};

fn point(cfg: &RunConfig) -> PointResult {
    run_balanced(cfg).map(|(r, _lb)| (r.zones, r.runtime.as_secs_f64(), r.cpu_fraction))
}

#[test]
fn fig12_13_17_added_up_equal_the_same_figures_stepped() {
    for spec in [fig12(), fig13(), fig17()] {
        let shipped = run_figure_with(&spec, &paper_modes(), 2, point);
        let stepped = run_figure_with(&spec, &paper_modes(), 2, |cfg| {
            let mut cfg = cfg.clone();
            cfg.telemetry = true;
            point(&cfg)
        });
        assert_eq!(shipped.to_csv(), stepped.to_csv(), "{}", spec.id);
        assert_eq!(shipped.to_markdown(), stepped.to_markdown(), "{}", spec.id);
    }
}
