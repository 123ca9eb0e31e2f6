//! Order statistics over timing samples, and the seeded shuffle the
//! workloads order their inputs with.

use hsim_time::SplitMix64;

/// Quantile `q` in `[0, 1]` of `samples` (linear interpolation between
/// the two nearest order statistics). `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles a tail may be reported at, ascending, each with the
/// per-mille of samples beyond it.
const TAIL_CANDIDATES: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile that still has at least ten of `n` samples
/// beyond it; `None` when even the 75th does not (fewer than 40
/// samples), in which case only the median is reported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rfind(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|&(p, _)| p)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread rule the benchmark's bounds are checked by.
pub fn iqr_ratio(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

/// Fisher–Yates shuffle drawing from `rng`: the inputs of a run are a
/// pure function of `--seed`.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!(median(&[]).is_nan());
        assert_eq!(iqr_ratio(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        shuffle(&mut SplitMix64::new(7), &mut a);
        shuffle(&mut SplitMix64::new(7), &mut b);
        shuffle(&mut SplitMix64::new(8), &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
