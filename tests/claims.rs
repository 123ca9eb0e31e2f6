//! The paper's claims hold: every row of `hsim_bench::claims` with a
//! tolerance measures inside it. The table is the one statement of
//! what the figures must show (who wins, by what factor, where the
//! crossovers fall); `perf claims` writes the same rows into its
//! results file and exits 1 if one is broken.

use heterosim::bench::claims;

#[test]
fn every_paper_claim_holds() {
    let outcomes = claims::check_all();
    let broken: Vec<String> = outcomes
        .iter()
        .filter(|o| o.holds() == Some(false))
        .map(ToString::to_string)
        .collect();
    assert!(
        broken.is_empty(),
        "{} of {} claims broken:\n{}",
        broken.len(),
        outcomes.len(),
        broken.join("\n")
    );
}
