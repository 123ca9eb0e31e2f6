//! The 3D Sedov blast wave (paper Figure 11), run functionally on one
//! domain: evolve the blast, print the radial density profile as an
//! ASCII curve, and compare the measured shock position against the
//! Sedov similarity solution R(t) = ξ₀ (E t² / ρ)^{1/5}.
//!
//! ```sh
//! cargo run --release --example sedov_blastwave
//! ```

use heterosim::hydro::sedov::{self, radial_density_profile, shock_position, SedovConfig};
use heterosim::hydro::{step, HydroState, SoloCoupler};
use heterosim::mesh::{GlobalGrid, Subdomain};
use heterosim::raja::{CpuModel, Executor, Fidelity, Target};
use heterosim::time::RankClock;

fn main() {
    let n = 48;
    let grid = GlobalGrid::new(n, n, n);
    let sub = Subdomain::new([0, 0, 0], [n, n, n], 1);
    let mut state = HydroState::new(grid, sub, Fidelity::Full);
    let cfg = SedovConfig::default();
    sedov::init(&mut state, &cfg);

    let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = RankClock::new(0);
    let mut solo = SoloCoupler;

    let mass0 = state.total_mass();
    let energy0 = state.total_energy();

    println!(
        "3D Sedov blast wave on a {n}^3 grid (E0 = {}, rho0 = {})",
        cfg.e0, cfg.rho0
    );
    println!();
    println!("cycle    t          dt         shock_r    analytic_r");
    let mut cycles = 0u64;
    while cycles < 120 {
        let stats = step(&mut state, &mut exec, &mut clock, &mut solo, 0.3, 1.0).expect("cycle");
        cycles += 1;
        if cycles % 20 == 0 {
            let profile = radial_density_profile(&state, 24);
            let r_num = shock_position(&profile);
            let r_ana = sedov::sedov_shock_radius(cfg.e0, cfg.rho0, state.t);
            println!(
                "{cycles:>5}  {:>9.5}  {:>9.2e}  {:>9.4}  {:>9.4}",
                state.t, stats.dt, r_num, r_ana
            );
        }
    }

    let mass1 = state.total_mass();
    let energy1 = state.total_energy();
    println!();
    println!(
        "conservation: mass drift {:+.2e}, energy drift {:+.2e}",
        (mass1 - mass0) / mass0,
        (energy1 - energy0) / energy0
    );

    // ASCII radial density profile (the Figure 11 view).
    let profile = radial_density_profile(&state, 30);
    let max_rho = profile.iter().map(|(_, d, _)| *d).fold(0.0f64, f64::max);
    println!();
    println!("radial density profile (peak = shock shell):");
    for (r, rho, count) in &profile {
        if *count == 0 {
            continue;
        }
        let bar = "#".repeat(((rho / max_rho) * 50.0) as usize);
        println!("r={r:>6.3}  rho={rho:>7.4}  {bar}");
    }
    println!();
    println!(
        "measured shock at r = {:.4}, similarity solution {:.4} (first-order scheme, coarse grid)",
        shock_position(&profile),
        sedov::sedov_shock_radius(cfg.e0, cfg.rho0, state.t)
    );
    println!(
        "{} kernel launches issued over {cycles} cycles",
        exec.kernels.total_launches()
    );
}
