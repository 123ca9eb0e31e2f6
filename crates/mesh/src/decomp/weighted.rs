//! The heterogeneous weighted decomposition (Figure 10c), and what a
//! rank loss leaves of it.
//!
//! "To achieve load balance in the heterogeneous case, we used a
//! weighted decomposition between the CPU cores and the GPUs,
//! assigning less work to the CPU cores, as illustrated by the thin
//! slabs in Figure 10 (c)." (§6.2.) The split itself is the nested
//! partition's [`Pieces::Slab`] level: each GPU's x-pinned block
//! donates a thin y-slab of `cpu_fraction` of its y-extent, cut into
//! one piece per CPU rank. The *minimum granularity* is one y-plane
//! per CPU rank: when `cpu_fraction` asks for less, the slab silently
//! grows to the minimum — precisely the regime where the paper's
//! Figures 13/14 show the Heterogeneous mode losing (the CPU ranks
//! cannot be given a small enough share).

use crate::decomp::nested::{nested, Blocks, Pieces};
use crate::decomp::Decomposition;
use crate::grid::GlobalGrid;

/// Parameters of the weighted heterogeneous decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedConfig {
    /// Number of GPUs (each gets a top-level block and one driving
    /// rank).
    pub n_gpus: usize,
    /// CPU worker ranks attached to each GPU block.
    pub cpu_per_gpu: usize,
    /// Desired fraction of each block's zones for its CPU ranks
    /// (0.0..1.0); the realized fraction honors the one-plane-per-rank
    /// minimum granularity.
    pub cpu_fraction: f64,
}

impl WeightedConfig {
    /// The paper's RZHasGPU arrangement: 4 GPUs, 3 CPU workers each
    /// (12 of the 16 cores).
    pub fn rzhasgpu(cpu_fraction: f64) -> Self {
        WeightedConfig {
            n_gpus: 4,
            cpu_per_gpu: 3,
            cpu_fraction,
        }
    }
}

/// The nested partition of `grid` into `n_gpus` x-pinned blocks, each
/// carving a CPU slab: ranks `0..n_gpus` drive the GPUs (owning the
/// shrunken blocks), ranks `n_gpus..` are CPU workers, grouped by
/// block.
pub fn weighted_hetero_decomp(
    grid: GlobalGrid,
    cfg: &WeightedConfig,
) -> Result<Decomposition, String> {
    let slab = Pieces::Slab {
        cpus: cfg.cpu_per_gpu,
        fraction: cfg.cpu_fraction,
    };
    nested(grid, Blocks::Pinned(cfg.n_gpus), slab)
}

/// Graceful degradation after a permanent CPU-rank loss: fold the lost
/// rank's slab back into a box-mergeable neighbor, preferring the
/// parent GPU block (so a Heterogeneous run degrades toward the
/// Default decomposition) and falling back to a CPU sibling slab when
/// the lost slab does not touch its GPU remainder.
///
/// Returns the degraded decomposition with one fewer rank; rank
/// indices above `lost` shift down by one. Losing a GPU-driving rank
/// is not foldable (its block has no same-class absorber) and returns
/// a typed error.
pub fn fold_lost_rank(decomp: &Decomposition, lost: usize) -> Result<Decomposition, String> {
    if lost >= decomp.len() {
        return Err(format!(
            "lost rank {lost} out of range (decomposition has {} ranks)",
            decomp.len()
        ));
    }
    if decomp.owners[lost].is_gpu_driver() {
        return Err(format!(
            "rank {lost} drives a GPU; a lost device block cannot be folded back"
        ));
    }
    let lost_dom = decomp.domains[lost];
    let mut candidates = Vec::new();
    for (r, d) in decomp.domains.iter().enumerate() {
        if r == lost {
            continue;
        }
        if let Some(merged) = d.merged_box(&lost_dom) {
            candidates.push((r, merged));
        }
    }
    let (absorber, merged) = candidates
        .iter()
        .find(|(r, _)| decomp.owners[*r].is_gpu_driver())
        .or_else(|| candidates.first())
        .copied()
        .ok_or_else(|| format!("rank {lost}: no box-mergeable neighbor can absorb its zones"))?;
    let mut domains = decomp.domains.clone();
    let mut owners = decomp.owners.clone();
    domains[absorber] = merged;
    domains.remove(lost);
    owners.remove(lost);
    let out = Decomposition {
        grid: decomp.grid,
        domains,
        owners,
    };
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_is_valid_and_ordered() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.02)).unwrap();
        assert_eq!(d.len(), 16);
        d.validate().unwrap();
        assert_eq!(d.gpu_ranks(), vec![0, 1, 2, 3]);
        assert_eq!(d.cpu_ranks().len(), 12);
    }

    #[test]
    fn realized_fraction_tracks_request_when_feasible() {
        let grid = GlobalGrid::new(320, 480, 160);
        // 480 y-zones over (1,2,2) top blocks... whatever the block
        // shape, 5% of the carve extent is >= 3 planes here.
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        let f = d.cpu_zone_fraction();
        assert!((f - 0.05).abs() < 0.02, "realized fraction {f}");
    }

    #[test]
    fn minimum_granularity_inflates_small_requests() {
        // y = 80 per block and 3 CPU ranks: minimum slab is 3 planes
        // = 3.75% of the block even though we ask for 1%.
        let grid = GlobalGrid::new(320, 160, 320);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.01)).unwrap();
        d.validate().unwrap();
        let f = d.cpu_zone_fraction();
        assert!(f > 0.03, "min granularity should force f up: {f}");
    }

    #[test]
    fn paper_fifteen_percent_case() {
        // Paper: "the smallest number of zones we are able to assign to
        // the CPU (12 cores) is 15% of zones" at the low end of the
        // y-dimension. The 2x2 blocks over (y, z) span 20 y-planes
        // each; with 3 CPU ranks per block, 3/20 = 15%.
        let grid = GlobalGrid::new(320, 40, 320);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.01)).unwrap();
        let f = d.cpu_zone_fraction();
        assert!((f - 0.15).abs() < 1e-12, "realized fraction {f}");
    }

    #[test]
    fn cpu_slabs_keep_x_extent() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.02)).unwrap();
        for &r in &d.cpu_ranks() {
            // CPU slab x extent equals its GPU block's x extent (thin
            // slabs in y only).
            assert!(d.domains[r].extent(0) >= 160);
        }
    }

    #[test]
    fn infeasible_carve_is_an_error() {
        // 3 CPU planes needed but block has only 3 y-planes: no
        // remainder for the GPU.
        let grid = GlobalGrid::new(64, 3, 64);
        let cfg = WeightedConfig {
            n_gpus: 1,
            cpu_per_gpu: 3,
            cpu_fraction: 0.5,
        };
        assert!(weighted_hetero_decomp(grid, &cfg).is_err());
    }

    #[test]
    fn zero_cpu_ranks_degenerates_to_block() {
        let grid = GlobalGrid::new(64, 64, 64);
        let cfg = WeightedConfig {
            n_gpus: 4,
            cpu_per_gpu: 0,
            cpu_fraction: 0.0,
        };
        let d = weighted_hetero_decomp(grid, &cfg).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.cpu_ranks().is_empty());
        d.validate().unwrap();
    }

    /// All pairwise face-neighbor links of a decomposition, as sorted
    /// index pairs.
    fn neighbor_links(d: &Decomposition) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                if d.domains[i].is_face_neighbor(&d.domains[j]) {
                    links.push((i, j));
                }
            }
        }
        links
    }

    #[test]
    fn foldback_into_parent_gpu_conserves_zones_and_validates() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        // The first CPU slab of GPU block 0 (rank 4) touches its GPU
        // remainder: foldback must prefer the GPU absorber.
        let lost = 4;
        let folded = fold_lost_rank(&d, lost).unwrap();
        folded.validate().unwrap();
        assert_eq!(folded.len(), d.len() - 1);
        let total_before: u64 = d.domains.iter().map(|s| s.zones()).sum();
        let total_after: u64 = folded.domains.iter().map(|s| s.zones()).sum();
        assert_eq!(total_before, total_after, "zones conserved");
        // GPU 0's block grew by exactly the lost slab.
        assert_eq!(
            folded.domains[0].zones(),
            d.domains[0].zones() + d.domains[lost].zones()
        );
        assert!(folded.owners[0].is_gpu_driver());
        // Degrading toward Default: the CPU share shrank.
        assert!(folded.cpu_zone_fraction() < d.cpu_zone_fraction());
    }

    #[test]
    fn foldback_of_a_middle_slab_uses_a_cpu_sibling() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        // Rank 5 is the middle slab of GPU block 0: its box-mergeable
        // neighbors are CPU siblings (ranks 4 and 6) only.
        let lost = 5;
        assert!(d.domains[lost].merged_box(&d.domains[0]).is_none());
        let folded = fold_lost_rank(&d, lost).unwrap();
        folded.validate().unwrap();
        assert_eq!(folded.len(), d.len() - 1);
        // Same CPU share as before: the zones moved between siblings.
        assert!((folded.cpu_zone_fraction() - d.cpu_zone_fraction()).abs() < 1e-12);
        // Sibling rank 4 absorbed the slab.
        assert_eq!(
            folded.domains[4].zones(),
            d.domains[4].zones() + d.domains[lost].zones()
        );
    }

    #[test]
    fn foldback_preserves_neighbor_connectivity() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        let lost = 4;
        let absorber = 0; // parent GPU block
        let old_links = neighbor_links(&d);
        let folded = fold_lost_rank(&d, lost).unwrap();
        let new_links = neighbor_links(&folded);
        // Index map: old rank -> new rank (absorber keeps its slot).
        let map = |r: usize| if r > lost { r - 1 } else { r };
        // Every old link not involving the lost rank survives; links to
        // the lost rank are re-routed to the absorber.
        for &(i, j) in &old_links {
            let (a, b) = if i == lost {
                (map(absorber), map(j))
            } else if j == lost {
                (map(i), map(absorber))
            } else {
                (map(i), map(j))
            };
            if a == b {
                continue; // the absorber's own link to the lost slab
            }
            let link = (a.min(b), a.max(b));
            assert!(
                new_links.contains(&link),
                "old link ({i},{j}) lost after foldback (mapped {link:?})"
            );
        }
        // No remaining rank was orphaned.
        for r in 0..folded.len() {
            assert!(
                new_links.iter().any(|&(a, b)| a == r || b == r),
                "rank {r} has no neighbors after foldback"
            );
        }
    }

    #[test]
    fn foldback_rejects_gpu_ranks_and_bad_indices() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        assert!(fold_lost_rank(&d, 0).is_err(), "GPU rank is not foldable");
        assert!(fold_lost_rank(&d, 99).is_err(), "out of range");
    }

    #[test]
    fn repeated_foldback_degrades_to_default_shape() {
        // Losing every CPU rank one by one folds the whole slab stack
        // back into the GPU blocks: 16 ranks -> 4 ranks, all GPU.
        let grid = GlobalGrid::new(320, 480, 160);
        let mut d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.05)).unwrap();
        while let Some(&lost) = d.cpu_ranks().first() {
            d = fold_lost_rank(&d, lost).unwrap();
        }
        assert_eq!(d.len(), 4);
        assert!(d.cpu_ranks().is_empty());
        assert_eq!(d.cpu_zone_fraction(), 0.0);
        d.validate().unwrap();
    }

    #[test]
    fn bad_fraction_rejected() {
        let grid = GlobalGrid::new(64, 64, 64);
        let mut cfg = WeightedConfig::rzhasgpu(1.5);
        assert!(weighted_hetero_decomp(grid, &cfg).is_err());
        cfg.cpu_fraction = -0.1;
        assert!(weighted_hetero_decomp(grid, &cfg).is_err());
    }
}
