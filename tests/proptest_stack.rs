//! Property-based tests over the core data structures and invariants
//! of the stack (proptest).

use proptest::prelude::*;

use heterosim::gpu::{Job, RateSharingTimeline};
use heterosim::mesh::decomp::{nested, Blocks, Pieces};
use heterosim::mesh::{Decomposition, GlobalGrid, HaloPlan, OwnerKind, SoaBlock, Subdomain};
use heterosim::time::{SimDuration, SimTime};

/// The nested partition's invariants (after Kelly, Ghattas & Sundar,
/// arXiv 1307.4731) on one feasible case: its zones sum to the grid;
/// every rank's box lies inside its level-1 block, and a GPU-mode box
/// keeps the whole x extent; a CPU slab is exactly `max(round(f·ny),
/// cpus)` planes, at least one per rank, so the realized CPU fraction
/// never falls below the floor of one plane per rank of the thickest
/// block; within one block a rank has at most two neighbours.
fn check_partition(d: &Decomposition, blocks: Blocks, pieces: Pieces) {
    d.validate().unwrap();
    let zones: u64 = d.domains.iter().map(Subdomain::zones).sum();
    assert_eq!(zones, d.grid.zones());
    let top = blocks.cut(d.grid).unwrap();
    let per_block = match pieces {
        Pieces::Slab { cpus, .. } => cpus.max(1),
        _ => 1,
    };
    let mut cpu_seen = 0;
    let block_of: Vec<usize> = (d.owners.iter())
        .map(|&o| match o {
            OwnerKind::Gpu(g) => g,
            OwnerKind::Cpu => {
                cpu_seen += 1;
                (cpu_seen - 1) / per_block
            }
        })
        .collect();
    for (r, s) in d.domains.iter().enumerate() {
        let b = &top[block_of[r]];
        assert!(
            (0..3).all(|a| b.lo[a] <= s.lo[a] && s.hi[a] <= b.hi[a]),
            "rank {r} {s:?} outside its block {b:?}"
        );
        if let Blocks::Pinned(_) = blocks {
            assert_eq!(s.extent(0), d.grid.nx, "rank {r} cuts x");
        }
        let siblings = (0..d.len())
            .filter(|&o| o != r && block_of[o] == block_of[r])
            .filter(|&o| s.is_face_neighbor(&d.domains[o]))
            .count();
        assert!(
            siblings <= 2,
            "rank {r} has {siblings} same-block neighbours"
        );
    }
    if let Pieces::Slab { cpus, fraction } = pieces {
        if cpus > 0 {
            for (g, b) in top.iter().enumerate() {
                let slab: usize = (0..d.len())
                    .filter(|&r| !d.owners[r].is_gpu_driver() && block_of[r] == g)
                    .map(|r| d.domains[r].extent(1))
                    .sum();
                let want = ((fraction * b.extent(1) as f64).round() as usize).max(cpus);
                assert_eq!(slab, want, "block {g}");
            }
            assert!(d.cpu_ranks().iter().all(|&r| d.domains[r].extent(1) >= 1));
            let floor = cpus as f64 / top[0].extent(1) as f64;
            assert!(d.cpu_zone_fraction() >= floor * (1.0 - 1e-12));
        }
    }
}

proptest! {
    /// Level 1 over three axes, each block one CPU rank's (CPU-only
    /// mode's "square" domains): valid wherever every axis has as many
    /// zones as parts.
    #[test]
    fn block_decomposition_always_valid(
        nx in 1usize..40,
        ny in 1usize..40,
        nz in 1usize..40,
        n in 1usize..41,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        match nested(grid, Blocks::Cubes(n), Pieces::Cpu) {
            Ok(d) => {
                prop_assert_eq!(d.len(), n);
                check_partition(&d, Blocks::Cubes(n), Pieces::Cpu);
            }
            Err(why) => prop_assert!(why.contains("more ranks than zones"), "{why}"),
        }
    }

    /// x-pinned blocks cut into equal z-pieces (the Default and MPS
    /// modes) never cut x and stay valid.
    #[test]
    fn yz_decomposition_never_cuts_x(
        nx in 1usize..64,
        ny in 1usize..64,
        nz in 1usize..64,
        gpus in 1usize..9,
        per_gpu in 1usize..6,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        let (blocks, pieces) = (Blocks::Pinned(gpus), Pieces::Gpu(per_gpu));
        match nested(grid, blocks, pieces) {
            Ok(d) => {
                prop_assert_eq!(d.len(), gpus * per_gpu);
                check_partition(&d, blocks, pieces);
            }
            // Only where a block is thinner along z than its pieces.
            Err(why) => {
                let infeasible = blocks
                    .cut(grid)
                    .map_or(true, |top| top.iter().any(|b| b.extent(2) < per_gpu));
                prop_assert!(infeasible, "feasible case refused: {why}");
                prop_assert!(
                    why.contains("cannot split") || why.contains("cannot host"),
                    "{why}"
                );
            }
        }
    }

    /// The weighted heterogeneous partition is valid for any feasible
    /// fraction, and its CPU slabs respect the one-plane-per-rank
    /// floor.
    #[test]
    fn weighted_decomposition_valid_and_floored(
        nx in 1usize..48,
        ny in 1usize..200,
        nz in 1usize..48,
        gpus in 1usize..7,
        cpus in 0usize..10,
        fraction in 0.0f64..0.6,
    ) {
        let grid = GlobalGrid::new(nx, ny, nz);
        let (blocks, pieces) = (Blocks::Pinned(gpus), Pieces::Slab { cpus, fraction });
        match nested(grid, blocks, pieces) {
            Ok(d) => {
                prop_assert_eq!(d.len(), gpus * (1 + cpus));
                check_partition(&d, blocks, pieces);
            }
            // Only where a block cannot host its ranks: level 1 cannot
            // cut the grid, or some block's y-extent is no thicker than
            // its CPU slab, leaving the GPU no remainder.
            Err(why) => {
                let infeasible = blocks.cut(grid).map_or(true, |top| {
                    cpus > 0
                        && top.iter().any(|b| {
                            let desired = (fraction * b.extent(1) as f64).round() as usize;
                            b.extent(1) <= desired.max(cpus)
                        })
                });
                prop_assert!(infeasible, "feasible case refused: {why}");
                prop_assert!(
                    why.contains("cannot split") || why.contains("cannot host"),
                    "{why}"
                );
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
        if let Ok(d) = nested(grid, Blocks::Cubes(n), Pieces::Gpu(1)) {
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
