//! A run's registry does not depend on how its samples were split
//! across ranks or in which order the ranks' registries were merged:
//! every distribution is a record of integer sums and extremes.

use hsim_telemetry::{Metrics, TimeStat};
use hsim_time::SimDuration;
use proptest::prelude::*;

proptest! {
    /// Random durations, dealt to `k` registries and merged in a
    /// shuffled order, export the bytes of one registry that saw the
    /// whole stream.
    #[test]
    fn any_split_and_merge_order_exports_the_same_bytes(
        samples in prop::collection::vec((0usize..5, 0u64..5_000_000_000, 0usize..8), 1..300),
        k in 1usize..9,
        keys in prop::collection::vec(0u64..u64::MAX, 8..9),
    ) {
        let mut whole = Metrics::new();
        let mut parts = vec![Metrics::new(); k];
        for &(stat, ns, to) in &samples {
            let d = SimDuration::from_nanos(ns);
            whole.time_stat(TimeStat::ALL[stat], d);
            parts[to % k].time_stat(TimeStat::ALL[stat], d);
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut merged = Metrics::new();
        for i in order {
            merged.merge(&parts[i]);
        }
        prop_assert_eq!(merged.to_json(), whole.to_json());
    }
}
