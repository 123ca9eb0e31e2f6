//! Property suite for the tracer-particle phase: particle totals
//! (count, momentum, content checksum) are conserved across online
//! re-splits and rank-loss foldback.
//!
//! The physics contract is stronger than "nothing got lost": because
//! the hydro field is decomposition-invariant and per-particle
//! advection is a pure function of (particle, field, cycle), the
//! *final particle set* must be bitwise identical whether the run
//! stayed on its static split, re-split every few cycles under the
//! online controller, or folded a lost rank's slab back mid-run.
//! Ownership moves; particles don't change.

use hsim_core::runner::{run, Problem, RunConfig};
use hsim_core::{ExecMode, RebalanceConfig, Scenario};
use hsim_particles::ParticlesConfig;
use proptest::prelude::*;

/// A hetero-mode config with the particle phase on. Cost-only
/// fidelity: the synthetic per-cycle drift keeps migration active
/// without paying for real hydro, exactly like the chaos CI legs.
fn particle_cfg(problem: Problem, count: u64, drag: f64, seed: u64, cycles: u64) -> RunConfig {
    let mut cfg = RunConfig::sweep((32, 96, 16), ExecMode::hetero());
    cfg.problem = problem;
    cfg.cycles = cycles;
    cfg.particles = Some(ParticlesConfig { count, drag, seed });
    cfg
}

/// The conserved fingerprint of a finished run's particle phase.
fn fingerprint(cfg: &RunConfig) -> (u64, [u64; 3], u64) {
    let r = run(cfg).expect("particle run");
    let p = r.particles.expect("particles were configured");
    (
        p.count,
        [
            p.momentum[0].to_bits(),
            p.momentum[1].to_bits(),
            p.momentum[2].to_bits(),
        ],
        p.checksum,
    )
}

proptest! {

    /// Intact vs controller-resplit vs rank-loss-foldback: all three
    /// end with the full particle count and bitwise-identical
    /// momentum and content checksums.
    #[test]
    fn totals_survive_resplits_and_foldback(
        which in 0usize..4,
        count in 16u64..128,
        drag in 0.5f64..8.0,
        seed in 0u64..u64::MAX,
        cycles in 4u64..7,
    ) {
        let problem = Scenario::ALL[which].problem();
        let intact = particle_cfg(problem, count, drag, seed, cycles);

        let mut resplit = intact.clone();
        resplit.rebalance = Some(RebalanceConfig {
            every: 2,
            hysteresis: 0.0,
        });

        let mut folded = intact.clone();
        folded.faults = Some(
            hsim_core::faults::FaultPlan::parse("rank.loss@rank5.cycle2").expect("plan parses"),
        );

        let a = fingerprint(&intact);
        let b = fingerprint(&resplit);
        let c = fingerprint(&folded);
        prop_assert_eq!(a.0, count, "intact run lost particles");
        prop_assert_eq!(&a, &b, "online re-splits changed the particle totals");
        prop_assert_eq!(&a, &c, "rank-loss foldback changed the particle totals");
    }
}

/// The synthetic drift actually crosses slab boundaries: a run with
/// enough particles must record cross-rank migrations, otherwise the
/// conservation assertions above are vacuous.
#[test]
fn migration_is_exercised_and_conserves() {
    let cfg = particle_cfg(Scenario::Sod.problem(), 512, 4.0, 2018, 6);
    let r = run(&cfg).expect("migration run");
    let p = r.particles.expect("particles were configured");
    assert_eq!(p.count, 512);
    assert!(
        p.migrated > 0,
        "no particle ever changed ranks; the drift or ownership test is broken"
    );
}

/// Full-fidelity spot check: the same three-way invariance holds when
/// particles ride the real hydro field (drag entrainment, CFL dt).
#[test]
fn full_fidelity_totals_survive_resplits_and_foldback() {
    use hsim_raja::Fidelity;
    let mut intact = particle_cfg(Scenario::Sod.problem(), 64, 4.0, 7, 4);
    intact.fidelity = Fidelity::Full;

    let mut resplit = intact.clone();
    resplit.rebalance = Some(RebalanceConfig {
        every: 2,
        hysteresis: 0.0,
    });

    let mut folded = intact.clone();
    folded.faults =
        Some(hsim_core::faults::FaultPlan::parse("rank.loss@rank5.cycle2").expect("plan parses"));

    let a = fingerprint(&intact);
    let b = fingerprint(&resplit);
    let c = fingerprint(&folded);
    assert_eq!(a.0, 64);
    assert_eq!(a, b, "full-fidelity re-splits changed the particle totals");
    assert_eq!(a, c, "full-fidelity foldback changed the particle totals");
}
