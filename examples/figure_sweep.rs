//! Reproduce one evaluation figure end to end and chart it in the
//! terminal (the `figures` binary does all seven; this example shows
//! the API).
//!
//! ```sh
//! cargo run --release --example figure_sweep            # fig18
//! cargo run --release --example figure_sweep -- fig13   # pick one
//! ```

use heterosim::bench::{ascii_chart, paper_modes, run_figure_jobs};
use heterosim::core::figures;

fn main() {
    let pick = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "fig18".to_string());
    let spec = figures::all_figures()
        .into_iter()
        .find(|f| f.id == pick)
        .unwrap_or_else(|| panic!("unknown figure {pick}; use fig12..fig18"));

    eprintln!(
        "sweeping {} — {} ({} points x 3 modes)...",
        spec.id,
        spec.caption,
        spec.values.len()
    );
    let data = run_figure_jobs(&spec, &paper_modes(), 1);

    println!("\n=== {} — {} ===", spec.id, spec.caption);
    println!("{}", ascii_chart(&data.chart_series(), 72, 20));
    println!("series (zones, runtime seconds):");
    for s in &data.series {
        println!("  {}:", s.label);
        for (zones, swept, t, f) in &s.points {
            let share = if *f > 0.0 {
                format!("  cpu {:.2}%", f * 100.0)
            } else {
                String::new()
            };
            println!(
                "    {:>10} zones (dim {:>4}) -> {:>8.4}s{share}",
                zones, swept, t
            );
        }
    }
}
