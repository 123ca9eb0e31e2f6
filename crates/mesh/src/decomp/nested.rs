//! The paper's nested partition (§6.1, Figures 9–10).
//!
//! "The first step ... is to divide the work into the number of GPUs
//! available ... Then, for the approaches utilizing more than one MPI
//! process per GPU, we further divided the domain into smaller domains
//! ... we subdivided the work on a GPU in a single dimension ... The
//! subdivision in a single dimension kept the number of neighbors
//! communicating in the halo exchange minimal." (§6.1.)
//!
//! One function builds every mode's layout in two levels, as Kelly,
//! Ghattas & Sundar's nested partitioning does (arXiv 1307.4731):
//! level 1 cuts the grid into near-cubic [`Blocks`], one per device
//! (or per core in CPU-only mode); level 2 cuts each block along a
//! single axis into its [`Pieces`]. Every cut is near-equal, the
//! remainder on the leading pieces.

use crate::decomp::{Decomposition, OwnerKind};
use crate::domain::Subdomain;
use crate::grid::GlobalGrid;

/// The ghost width of every rank's box.
const GHOST: usize = 1;

/// Level 1: near-cubic blocks, rank order x fastest, then y, then z
/// (the Cartesian communicator's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocks {
    /// `n` blocks over x, y and z: the CPU-only mode's "square"
    /// domains (Figure 9).
    Cubes(usize),
    /// `n` blocks over y and z, one per GPU. x, the innermost and
    /// vectorized dimension, stays whole: Figure 10 keeps "the size of
    /// the x-dimension the same for all approaches".
    Pinned(usize),
}

impl Blocks {
    /// The blocks of `grid`, in rank order: their count factored into
    /// near-equal factors, ascending, paired with the cut axes by
    /// ascending extent (a tie in extent gives the later axis the
    /// larger factor). Fails where an axis has fewer zones than parts.
    pub fn cut(self, grid: GlobalGrid) -> Result<Vec<Subdomain>, String> {
        let (n, mut axes) = match self {
            Blocks::Cubes(n) => (n, vec![0, 1, 2]),
            Blocks::Pinned(n) => (n, vec![1, 2]),
        };
        if n == 0 {
            return Err("need at least one block".into());
        }
        let extents = [grid.nx, grid.ny, grid.nz];
        axes.sort_by_key(|&a| extents[a]);
        let mut parts = [1usize; 3];
        for (&axis, f) in axes.iter().zip(factors(n, axes.len())) {
            parts[axis] = f;
        }
        if let Some(a) = (0..3).find(|&a| parts[a] > extents[a]) {
            return Err(match self {
                Blocks::Cubes(_) => format!(
                    "more ranks than zones along axis {a}: {} > {}",
                    parts[a], extents[a]
                ),
                Blocks::Pinned(_) => {
                    format!("cannot split {n} ranks over y={}, z={}", grid.ny, grid.nz)
                }
            });
        }
        let whole = Subdomain::new([0; 3], extents, GHOST);
        let mut blocks = Vec::with_capacity(n);
        for z in cuts(&whole, 2, parts[2]) {
            for y in cuts(&z, 1, parts[1]) {
                blocks.extend(cuts(&y, 0, parts[0]));
            }
        }
        Ok(blocks)
    }
}

/// Level 2: what each block becomes, along a single axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pieces {
    /// One CPU rank computes the whole block.
    Cpu,
    /// `n` equal z-pieces, each a rank driving the block's GPU (one for
    /// the Default mode, `per_gpu` MPS clients).
    Gpu(usize),
    /// The heterogeneous weighted split (Figure 10c): the block's GPU
    /// keeps the low-y remainder, and a high-y slab of
    /// `max(round(fraction · ny), cpus)` planes — one plane per CPU rank
    /// at the least — is cut into `cpus` equal CPU pieces. With no CPU
    /// ranks the GPU keeps the whole block.
    Slab { cpus: usize, fraction: f64 },
}

/// The nested partition of `grid`: each of the level-1 `blocks` cut
/// into its level-2 `pieces`. Rank order is every GPU-owned piece in
/// block order, then every CPU-owned piece in block order — so ranks
/// `g·n .. (g+1)·n` share GPU `g`, as MPS groups its clients, and a
/// heterogeneous run's GPU drivers are ranks `0..gpus`.
///
/// Fails where a block cannot host its pieces: a level-1 axis with
/// fewer zones than parts, a block thinner along z than its GPU
/// pieces, or one whose y-extent cannot give each CPU rank a plane
/// and its GPU a non-empty remainder.
pub fn nested(grid: GlobalGrid, blocks: Blocks, pieces: Pieces) -> Result<Decomposition, String> {
    match pieces {
        Pieces::Gpu(0) => return Err("need at least one rank per GPU".into()),
        Pieces::Slab { fraction, .. } if !(0.0..1.0).contains(&fraction) => {
            return Err(format!("cpu_fraction {fraction} out of [0,1)"));
        }
        _ => {}
    }
    let mut gpu = Vec::new();
    let mut cpu = Vec::new();
    for (g, block) in blocks.cut(grid)?.iter().enumerate() {
        match pieces {
            Pieces::Cpu => cpu.push(*block),
            Pieces::Gpu(n) => {
                if block.extent(2) < n {
                    return Err(format!(
                        "GPU block {g} extent {} along axis 2 cannot host {n} ranks",
                        block.extent(2)
                    ));
                }
                gpu.extend(cuts(block, 2, n).map(|piece| (g, piece)));
            }
            Pieces::Slab { cpus: 0, .. } => gpu.push((g, *block)),
            Pieces::Slab { cpus, fraction } => {
                let extent = block.extent(1);
                let desired = (fraction * extent as f64).round() as usize;
                let thickness = desired.max(cpus);
                if thickness >= extent {
                    return Err(format!(
                        "GPU block {g}: carve axis extent {extent} cannot host {cpus} CPU planes \
                         and a non-empty GPU remainder"
                    ));
                }
                let split = block.hi[1] - thickness;
                gpu.push((g, along(block, 1, block.lo[1], split)));
                cpu.extend(cuts(&along(block, 1, split, block.hi[1]), 1, cpus));
            }
        }
    }
    let owners = (gpu.iter().map(|&(g, _)| OwnerKind::Gpu(g)))
        .chain(cpu.iter().map(|_| OwnerKind::Cpu))
        .collect();
    let domains = gpu.into_iter().map(|(_, piece)| piece).chain(cpu).collect();
    Ok(Decomposition {
        grid,
        domains,
        owners,
    })
}

/// The traditional near-cubic ("square") decomposition of Figure 9:
/// `n` GPU-owned blocks over all three axes. Panics where the grid
/// cannot be carved so.
pub fn block_decomp(grid: GlobalGrid, n: usize, ghost: usize) -> Decomposition {
    let mut d = nested(grid, Blocks::Cubes(n), Pieces::Gpu(1)).unwrap_or_else(|e| panic!("{e}"));
    for s in &mut d.domains {
        s.ghost = ghost;
    }
    d
}

/// `n` as the product of `k` factors, ascending, nearest to equal:
/// the smallest spread between the largest and the smallest, then the
/// smallest sum (`MPI_Dims_create`'s choice).
fn factors(n: usize, k: usize) -> Vec<usize> {
    assert!(n > 0 && k > 0);
    fn walk(rest: usize, k: usize, acc: &mut Vec<usize>, best: &mut (usize, Vec<usize>), n: usize) {
        let least = acc.last().copied().unwrap_or(1);
        if k == 1 {
            if rest >= least {
                acc.push(rest);
                let score = (rest - acc[0]) * n + acc.iter().sum::<usize>();
                if score < best.0 {
                    *best = (score, acc.clone());
                }
                acc.pop();
            }
            return;
        }
        for f in (least..=rest).filter(|f| rest % f == 0) {
            acc.push(f);
            walk(rest / f, k - 1, acc, best, n);
            acc.pop();
        }
    }
    let mut best = (usize::MAX, Vec::new());
    walk(n, k, &mut Vec::with_capacity(k), &mut best, n);
    best.1
}

/// `block` with its `axis` range replaced by `[lo, hi)`.
fn along(block: &Subdomain, axis: usize, lo: usize, hi: usize) -> Subdomain {
    let (mut l, mut h) = (block.lo, block.hi);
    (l[axis], h[axis]) = (lo, hi);
    Subdomain::new(l, h, block.ghost)
}

/// `block` cut into `parts` near-equal pieces along `axis`, the
/// remainder spread over the leading pieces. `parts` must not exceed
/// the block's extent there.
fn cuts(block: &Subdomain, axis: usize, parts: usize) -> impl Iterator<Item = Subdomain> + '_ {
    let (lo, n) = (block.lo[axis], block.extent(axis));
    let (base, extra) = (n / parts, n % parts);
    (0..parts).scan(lo, move |at, p| {
        let start = *at;
        *at += base + usize::from(p < extra);
        Some(along(block, axis, start, *at))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::HaloPlan;

    fn pinned(grid: GlobalGrid, gpus: usize, pieces: Pieces) -> Decomposition {
        nested(grid, Blocks::Pinned(gpus), pieces).unwrap()
    }

    #[test]
    fn factors_match_known_cases() {
        assert_eq!(factors(1, 3), [1, 1, 1]);
        assert_eq!(factors(4, 3), [1, 2, 2]);
        assert_eq!(factors(8, 3), [2, 2, 2]);
        assert_eq!(factors(16, 3), [2, 2, 4]);
        assert_eq!(factors(12, 3), [2, 2, 3]);
        assert_eq!(factors(13, 3), [1, 1, 13]);
        assert_eq!(factors(40, 3), [2, 4, 5]);
        assert_eq!(factors(4, 2), [2, 2]);
        assert_eq!(factors(8, 2), [2, 4]);
        assert_eq!(factors(12, 2), [3, 4]);
        assert_eq!(factors(7, 2), [1, 7]);
    }

    #[test]
    fn block_decomp_is_valid_for_many_counts() {
        let grid = GlobalGrid::new(64, 48, 32);
        for n in [1, 2, 3, 4, 6, 8, 12, 16] {
            let d = block_decomp(grid, n, 1);
            assert_eq!(d.len(), n);
            d.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn larger_factors_go_to_longer_axes() {
        let grid = GlobalGrid::new(320, 80, 80);
        let d = block_decomp(grid, 4, 1);
        // 4 = 1x2x2: x, the longest axis, gets a factor 2.
        let x_cuts: std::collections::BTreeSet<usize> = d.domains.iter().map(|s| s.lo[0]).collect();
        assert!(x_cuts.len() >= 2, "x axis should be cut: {x_cuts:?}");
        // 8 = 2x4 over (y, z): y, the longer, gets 4.
        let d = pinned(GlobalGrid::new(64, 400, 100), 8, Pieces::Gpu(1));
        d.validate().unwrap();
        let y_cuts: std::collections::BTreeSet<usize> = d.domains.iter().map(|s| s.lo[1]).collect();
        assert_eq!(y_cuts.len(), 4);
    }

    #[test]
    fn a_tie_in_extent_gives_the_later_axis_the_larger_factor() {
        // 3 = 1x3 over y and z of equal extent: z gets 3.
        let d = pinned(GlobalGrid::new(8, 12, 12), 3, Pieces::Gpu(1));
        assert!(d
            .domains
            .iter()
            .all(|s| s.extent(1) == 12 && s.extent(2) == 4));
        // 2 = 1x1x2 over a cube: z gets 2.
        let d = block_decomp(GlobalGrid::new(6, 6, 6), 2, 1);
        assert!(d.domains.iter().all(|s| s.extents() == [6, 6, 3]));
    }

    #[test]
    fn remainder_zones_are_distributed() {
        let grid = GlobalGrid::new(10, 10, 10);
        let d = block_decomp(grid, 8, 1);
        d.validate().unwrap();
        // 10 = 5 + 5 per axis: all subdomains 5x5x5.
        assert!(d.domains.iter().all(|s| s.zones() == 125));
        let d3 = block_decomp(GlobalGrid::new(10, 3, 3), 3, 1);
        d3.validate().unwrap();
        // 3 parts along x (longest): 4 + 3 + 3, the remainder leading.
        let xs: Vec<usize> = d3.domains.iter().map(|s| s.extent(0)).collect();
        assert_eq!(xs, vec![4, 3, 3]);
    }

    #[test]
    fn pinned_blocks_keep_x_whole() {
        let grid = GlobalGrid::new(320, 240, 160);
        let d = pinned(grid, 4, Pieces::Gpu(1));
        d.validate().unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.domains.iter().all(|s| s.extent(0) == 320));
        // 2x2 over (y, z).
        assert_eq!(d.domains[0].extents(), [320, 120, 80]);
    }

    #[test]
    fn imbalance_is_bounded_by_one_plane() {
        let grid = GlobalGrid::new(37, 23, 11);
        let d = block_decomp(grid, 8, 1);
        d.validate().unwrap();
        let max = d.domains.iter().map(Subdomain::zones).max().unwrap();
        let min = d.domains.iter().map(Subdomain::zones).min().unwrap();
        // Near-equal splits: max/min bounded by the remainder planes.
        assert!((max as f64 / min as f64) < 1.5, "max {max} min {min}");
    }

    #[test]
    fn gpu_pieces_are_gpu_major_and_keep_x_whole() {
        let grid = GlobalGrid::new(64, 64, 64);
        let d = pinned(grid, 4, Pieces::Gpu(4));
        assert_eq!(d.len(), 16);
        d.validate().unwrap();
        // Ranks 0..4 on GPU 0, etc.
        for r in 0..16 {
            assert_eq!(d.owners[r], OwnerKind::Gpu(r / 4));
            assert_eq!(d.domains[r].extent(0), 64);
        }
    }

    #[test]
    fn gpu_pieces_have_fewer_neighbors_than_square_16(/* Figure 9/10 claim */) {
        let grid = GlobalGrid::new(128, 128, 128);
        let hier = pinned(grid, 4, Pieces::Gpu(4));
        let square = block_decomp(grid, 16, 1);
        let hp = HaloPlan::build(&hier);
        let sp = HaloPlan::build(&square);
        let h_max = (0..16).map(|r| hp.neighbor_count(r)).max().unwrap();
        let s_max = (0..16).map(|r| sp.neighbor_count(r)).max().unwrap();
        assert!(
            h_max <= s_max,
            "hierarchical max neighbors {h_max} vs square {s_max}"
        );
        // The single-axis split does NOT minimize raw face area (thin
        // slabs have more surface than cubes); it minimizes the
        // *message count* per rank, which is what dominates halo cost
        // for latency-bound node-local exchanges (§6.1). Total message
        // count must not exceed the square decomposition's.
        assert!(
            hp.exchanges().len() <= sp.exchanges().len(),
            "hier {} messages vs square {}",
            hp.exchanges().len(),
            sp.exchanges().len()
        );
    }

    #[test]
    fn a_block_too_thin_for_its_pieces_is_an_error() {
        let grid = GlobalGrid::new(64, 64, 2);
        assert!(nested(grid, Blocks::Pinned(1), Pieces::Gpu(4)).is_err());
        assert!(nested(grid, Blocks::Cubes(0), Pieces::Cpu).is_err());
        assert!(nested(grid, Blocks::Pinned(1), Pieces::Gpu(0)).is_err());
    }

    #[test]
    fn degenerate_single_rank() {
        let grid = GlobalGrid::new(8, 8, 8);
        let d = pinned(grid, 1, Pieces::Gpu(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d.domains[0].zones(), 512);
    }

    #[test]
    fn cpu_blocks_are_cpu_owned_cubes() {
        let d = nested(GlobalGrid::new(64, 48, 32), Blocks::Cubes(16), Pieces::Cpu).unwrap();
        assert_eq!(d.cpu_ranks().len(), 16);
        assert_eq!(d.domains, block_decomp(d.grid, 16, 1).domains);
    }
}
