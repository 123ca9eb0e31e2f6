//! Criterion bench over every evaluation figure (the paper's Figures
//! 12–18 plus the per-scenario sweeps), one benchmark group per id.
//!
//! The full series comes from `cargo run -p hsim-bench --bin figures`;
//! this bench times representative sweep points (one per regime) for
//! each mode and prints the simulated runtimes it found.
//! `cargo bench --bench figures -- fig13` runs a single figure.

use criterion::{criterion_group, criterion_main, Criterion};
use hsim_bench::paper_modes;
use hsim_core::figures::all_figures;
use hsim_core::{run_balanced, RunConfig};

fn bench(c: &mut Criterion) {
    let only: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    for spec in all_figures() {
        if !only.is_empty() && !only.iter().any(|f| spec.id.contains(f.as_str())) {
            continue;
        }
        let points = spec.points();
        // First and last sweep points bracket the figure's regimes.
        let picks = [points[0], *points.last().expect("nonempty sweep")];
        let mut group = c.benchmark_group(spec.id);
        group.sample_size(10);
        for mode in paper_modes() {
            for p in picks {
                let mut cfg = RunConfig::sweep(p.grid(), mode);
                cfg.problem = spec.scenario.problem();
                let label = format!("{}/{}z", mode.key(), p.zones());
                // Print the simulated runtime once for the record.
                if let Ok((r, _)) = run_balanced(&cfg) {
                    eprintln!(
                        "{} {} zones={} simulated_runtime={:.4}s cpu_fraction={:.4}",
                        spec.id,
                        mode.key(),
                        r.zones,
                        r.runtime.as_secs_f64(),
                        r.cpu_fraction
                    );
                }
                group.bench_function(&label, |b| {
                    b.iter(|| run_balanced(&cfg).expect("figure point runs"))
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
