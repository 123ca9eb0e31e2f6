//! Quickstart: run the Sedov problem on a simulated RZHasGPU node in
//! the paper's Heterogeneous mode and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use heterosim::core::{run, ExecMode, RunConfig};

fn main() {
    // The paper's best-case shape (Figure 18 family), scaled down so
    // the example finishes instantly.
    let cfg = RunConfig::sweep((160, 240, 80), ExecMode::hetero());
    let result = run(&cfg).expect("cooperative run");

    println!("mode:          {}", result.mode_label);
    println!(
        "grid:          {} x {} x {} = {} zones",
        result.grid.0, result.grid.1, result.grid.2, result.zones
    );
    println!("cycles:        {}", result.cycles);
    println!("ranks:         {}", result.ranks.len());
    println!(
        "CPU work:      {:.2}% of zones",
        result.cpu_fraction * 100.0
    );
    println!(
        "runtime:       {:.4} simulated seconds",
        result.runtime.as_secs_f64()
    );
    println!("kernel launches: {}", result.kernels.total_launches());
    println!("MPI traffic:     {} bytes", result.total_bytes_sent());
    println!();
    println!("per-rank breakdown:");
    println!("{}", result.breakdown_table());
}
