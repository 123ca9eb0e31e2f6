//! Property-based tests over the core data structures and invariants
//! of the stack (proptest).

use proptest::prelude::*;

use heterosim::gpu::{Job, RateSharingTimeline};
use heterosim::mesh::decomp::weighted::{weighted_hetero_decomp, WeightedConfig};
use heterosim::mesh::decomp::{block_decomp, block_decomp_yz};
use heterosim::mesh::{GlobalGrid, HaloPlan, SoaBlock, Subdomain};
use heterosim::time::{SimDuration, SimTime, Welford};

proptest! {
    /// Any block decomposition covers the grid exactly once.
    #[test]
    fn block_decomposition_always_valid(
        nx in 4usize..40,
        ny in 4usize..40,
        nz in 4usize..40,
        n in 1usize..17,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        // Skip infeasible splits (more parts than zones on an axis).
        let d = std::panic::catch_unwind(|| block_decomp(grid, n, 1));
        if let Ok(d) = d {
            prop_assert!(d.validate().is_ok(), "{:?}", d.validate());
            prop_assert_eq!(d.len(), n);
        }
    }

    /// The x-pinned decomposition never cuts x and stays valid.
    #[test]
    fn yz_decomposition_never_cuts_x(
        nx in 4usize..64,
        ny in 8usize..64,
        nz in 8usize..64,
        n in 1usize..9,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        if let Ok(d) = block_decomp_yz(grid, n, 1) {
            prop_assert!(d.validate().is_ok());
            for s in &d.domains {
                prop_assert_eq!(s.extent(0), nx);
            }
        }
    }

    /// The weighted heterogeneous decomposition is valid for any
    /// feasible fraction, and its realized CPU fraction respects the
    /// one-plane-per-rank minimum.
    #[test]
    fn weighted_decomposition_valid_and_floored(
        ny in 40usize..200,
        fraction in 0.0f64..0.4,
    ) {
        let grid = GlobalGrid::new(64, ny, 64);
        let cfg = WeightedConfig {
            n_gpus: 4,
            cpu_per_gpu: 3,
            cpu_fraction: fraction,
            carve_axis: 1,
            ghost: 1,
            pin_x: true,
        };
        match weighted_hetero_decomp(grid, &cfg) {
            Ok(d) => {
                prop_assert!(d.validate().is_ok());
                prop_assert_eq!(d.len(), 16);
                // Every CPU rank got at least one plane of its block.
                let block_y = d.domains[0].extent(1) + {
                    // GPU block + its slab span the whole block.
                    let cpu_zones: usize = (4..7)
                        .map(|r| d.domains[r].extent(1))
                        .sum();
                    cpu_zones
                };
                prop_assert!(block_y >= 4);
                for &r in &d.cpu_ranks() {
                    prop_assert!(d.domains[r].extent(1) >= 1);
                }
            }
            Err(_) => {
                // Only legitimate when the carve cannot fit.
                prop_assert!(ny / 2 <= 3 || fraction >= 0.99);
            }
        }
    }

    /// Halo plans are symmetric: every exchange appears in both
    /// endpoints' lists, and per-rank areas sum to twice the total.
    #[test]
    fn halo_plan_is_symmetric(
        nx in 8usize..32,
        ny in 8usize..32,
        nz in 8usize..32,
        n in 2usize..13,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        if let Ok(d) = std::panic::catch_unwind(|| block_decomp(grid, n, 1)) {
            let plan = HaloPlan::build(&d);
            let per_rank: u64 = (0..n).map(|r| plan.area_for(r)).sum();
            prop_assert_eq!(per_rank, 2 * plan.total_area());
            for ex in plan.exchanges() {
                prop_assert!(ex.a < n && ex.b < n && ex.a != ex.b);
                prop_assert!(ex.area() > 0);
            }
        }
    }

    /// Zone-slab pack/unpack roundtrips, the halo exchange's path: a
    /// random box packed out of one variable and unpacked into the
    /// same box of another slab's variable carries every value, and
    /// touches nothing outside the box.
    #[test]
    fn field_pack_unpack_roundtrip(
        ex in 2usize..8,
        ey in 2usize..8,
        ez in 2usize..8,
        corners in prop::collection::vec((0usize..12, 0usize..12), 3..4),
        seed in 0u64..1000,
    ) {
        let sub = Subdomain::new([0, 0, 0], [ex, ey, ez], 1);
        let mut src = SoaBlock::new(&sub, 2);
        let mut rng = heterosim::time::SplitMix64::new(seed);
        for v in src.slab_mut() {
            *v = rng.next_f64();
        }
        // A non-empty box anywhere in the allocated extent, ghosts
        // included.
        let dims = src.dims();
        let (mut lo, mut hi) = ([0; 3], [0; 3]);
        for (a, &(x, y)) in corners.iter().enumerate() {
            let (x, y) = (x % dims[a], y % dims[a]);
            (lo[a], hi[a]) = (x.min(y), x.max(y) + 1);
        }
        let packed = src.pack_box(1, lo, hi);
        prop_assert_eq!(packed.len(), (0..3).map(|a| hi[a] - lo[a]).product::<usize>());
        let mut dst = SoaBlock::new(&sub, 2);
        dst.unpack_box(0, lo, hi, &packed);
        let inside = |i: usize, j: usize, k: usize| {
            (0..3).all(|a| (lo[a]..hi[a]).contains(&[i, j, k][a]))
        };
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let at = src.idx(i, j, k);
                    let want = if inside(i, j, k) { src.var(1)[at] } else { 0.0 };
                    prop_assert_eq!(dst.var(0)[at].to_bits(), want.to_bits());
                }
            }
        }
        prop_assert!(dst.var(1).iter().all(|&v| v == 0.0));
    }

    /// Rate-sharing timeline conservation: total completed work never
    /// exceeds capacity × makespan, and every job ends after it starts.
    #[test]
    fn timeline_conserves_work(
        jobs in prop::collection::vec(
            (0u64..4, 0u64..1_000_000u64, 1u64..1_000_000u64, 0.05f64..1.0),
            1..12,
        ),
    ) {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (stream, arrival_us, work_us, rate))| Job {
                id: i as u64,
                stream,
                arrival: SimTime::from_nanos(arrival_us * 1000),
                work: work_us as f64 * 1e-6,
                max_rate: rate,
            })
            .collect();
        let tl = RateSharingTimeline::new();
        let out = tl.simulate(&jobs);
        prop_assert_eq!(out.len(), jobs.len());
        let mut makespan = SimTime::ZERO;
        let mut first_start = u64::MAX;
        let mut total_work = 0.0;
        for (o, j) in out.iter().zip(&jobs) {
            prop_assert!(o.end >= o.start, "job {} inverted", o.id);
            prop_assert!(o.start >= j.arrival, "job {} starts early", o.id);
            makespan = makespan.merge(o.end);
            first_start = first_start.min(o.start.as_nanos());
            total_work += j.work;
        }
        let window = (makespan.as_nanos() - first_start) as f64 * 1e-9;
        prop_assert!(
            total_work <= window * 1.0 + 1e-6,
            "work {total_work} exceeds capacity x window {window}"
        );
    }

    /// Welford merge is order-independent (within fp tolerance).
    #[test]
    fn welford_merge_is_associative_enough(
        xs in prop::collection::vec(-1e3f64..1e3, 2..60),
        split in 1usize..59,
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Durations: saturating arithmetic never panics and ordering is
    /// preserved under addition.
    #[test]
    fn duration_arithmetic_is_total(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da.max(db));
        let diff = da - db;
        prop_assert!(diff <= da);
    }
}

proptest! {
    /// WorkPool parallel sum equals the serial sum for arbitrary
    /// inputs, chunk sizes, and worker counts.
    #[test]
    fn workpool_sum_matches_serial(
        xs in prop::collection::vec(-100.0f64..100.0, 1..500),
        chunk in 1usize..64,
        workers in 0usize..5,
    ) {
        use heterosim::raja::WorkPool;
        let pool = WorkPool::new(workers);
        let parallel = pool.sum(0, xs.len(), chunk, |i| xs[i]);
        let serial: f64 = xs.iter().sum();
        prop_assert!((parallel - serial).abs() < 1e-9 * (1.0 + serial.abs()));
    }

    /// Exact Riemann solutions are physical for random left/right
    /// states: positive density/pressure everywhere in the fan.
    #[test]
    fn riemann_solution_is_physical(
        rho_l in 0.1f64..5.0,
        p_l in 0.05f64..5.0,
        u_l in -1.0f64..1.0,
        rho_r in 0.1f64..5.0,
        p_r in 0.05f64..5.0,
        u_r in -1.0f64..1.0,
    ) {
        use heterosim::hydro::{exact_solution, GasState};
        let left = GasState { rho: rho_l, u: u_l, p: p_l };
        let right = GasState { rho: rho_r, u: u_r, p: p_r };
        for i in 0..40 {
            let xi = -4.0 + 8.0 * i as f64 / 39.0;
            let s = exact_solution(&left, &right, xi);
            prop_assert!(s.rho > 0.0 && s.rho.is_finite(), "rho {} at xi {}", s.rho, xi);
            prop_assert!(s.p > 0.0 && s.p.is_finite(), "p {} at xi {}", s.p, xi);
            prop_assert!(s.u.is_finite());
        }
    }
}
