//! Acceptance tests for the reproduced evaluation figures, one per
//! figure: the *shapes* the paper reports (who wins, by what factor,
//! where the crossovers fall) must hold. Each test names its rows of
//! `hsim_bench::claims`, which holds the points and tolerances; see
//! DESIGN.md §5.

use heterosim::bench::claims;

/// Measure the named claims; fail listing each one that does not hold.
fn assert_hold(ids: &[&str]) {
    let broken: Vec<String> = claims::check(ids)
        .iter()
        .filter(|o| o.holds() != Some(true))
        .map(ToString::to_string)
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// Figure 12: the Default mode's runtime slope kinks at ≈ 37 M zones;
/// the 16-rank modes stay linear.
#[test]
fn fig12_default_kinks_at_37m_zones() {
    assert_hold(&["fig12_default_kink", "fig12_mps_linear"]);
}

/// Figure 12: at the smallest y the CPU ranks cannot take a small
/// enough share and Heterogeneous loses badly.
#[test]
fn fig12_hetero_loses_at_small_y() {
    assert_hold(&["fig12_hetero_small_y"]);
}

/// Figure 13 (y = 240, z = 320): Heterogeneous is CPU-bound in the
/// mid-sweep; MPS overlap wins at small x.
#[test]
fn fig13_hetero_cpu_bound_and_mps_wins_small_x() {
    assert_hold(&["fig13_hetero_cpu_bound", "fig13_mps_small_x"]);
}

/// Figure 14 (y = 240, z = 160): Heterogeneous still loses; Default
/// and MPS are similar at large x.
#[test]
fn fig14_hetero_still_loses_default_mps_similar() {
    assert_hold(&["fig14_hetero_loses", "fig14_mps_similar"]);
}

/// Figure 16 (y = 360, z = 160): kernels fill the GPU on their own, so
/// MPS cannot overlap and only pays its overhead.
#[test]
fn fig16_mps_loses_at_large_x() {
    assert_hold(&["fig16_mps_loses"]);
}

/// Figure 17 (y = 480, z = 320, small x): MPS best, Heterogeneous
/// close behind, Default worst.
#[test]
fn fig17_ordering_mps_hetero_default() {
    assert_hold(&[
        "fig17_mps_beats_default",
        "fig17_hetero_beats_default",
        "fig17_mps_matches_hetero",
    ]);
}

/// Figure 18 (y = 480, z = 160): Heterogeneous tracks Default before
/// the kink and wins by 10–25 % (the paper's "up to 18 %") past it.
#[test]
fn fig18_hetero_gains_up_to_18_percent_past_the_kink() {
    assert_hold(&["fig18_hetero_tracks_default", "fig18_gain"]);
}

/// The Heterogeneous mode's CPU share lands at the paper's 1–2 % (the
/// compiler bug caps the effective CPU speed).
#[test]
fn hetero_cpu_share_is_one_to_two_percent_in_the_best_case() {
    assert_hold(&["fig18_cpu_share"]);
}

/// CpuOnly (Figure 1) is far slower than any GPU mode.
#[test]
fn cpu_only_mode_is_not_competitive() {
    assert_hold(&["fig1_cpuonly_not_competitive"]);
}

/// GPU-direct (§5.3 future work) helps, never hurts.
#[test]
fn gpu_direct_toggle_is_monotone() {
    assert_hold(&["gpu_direct_never_hurts"]);
}
