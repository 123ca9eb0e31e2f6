//! The paper's hierarchical decomposition (Figure 10b).
//!
//! "The first step ... is to divide the work into the number of GPUs
//! available ... Then, for the approaches utilizing more than one MPI
//! process per GPU, we further divided the domain into smaller domains
//! ... we subdivided the work on a GPU in a single dimension ... The
//! subdivision in a single dimension kept the number of neighbors
//! communicating in the halo exchange minimal." (§6.1.)

use crate::decomp::block::{block_decomp_yz, try_block_decomp};
use crate::decomp::{Decomposition, OwnerKind};
use crate::grid::GlobalGrid;

/// Two-level decomposition: `n_gpus` near-cubic blocks, each split into
/// `per_gpu` pieces along `split_axis` (the paper keeps the x-dimension
/// intact and cuts along one of the others — Figure 10 keeps "the size
/// of the x-dimension the same for all approaches").
///
/// Rank order is GPU-major: ranks `g*per_gpu .. (g+1)*per_gpu` share
/// GPU `g`, which is exactly how MPS clients are grouped on a device.
pub fn hierarchical_decomp(
    grid: GlobalGrid,
    n_gpus: usize,
    per_gpu: usize,
    split_axis: usize,
    ghost: usize,
) -> Result<Decomposition, String> {
    hierarchical_with_top(
        grid,
        try_block_decomp(grid, n_gpus, ghost)?,
        n_gpus,
        per_gpu,
        split_axis,
    )
}

/// [`hierarchical_decomp`] with the paper's x-pinned top level: GPU
/// blocks never cut the x-dimension (Figure 10).
pub fn hierarchical_decomp_yz(
    grid: GlobalGrid,
    n_gpus: usize,
    per_gpu: usize,
    split_axis: usize,
    ghost: usize,
) -> Result<Decomposition, String> {
    hierarchical_with_top(
        grid,
        block_decomp_yz(grid, n_gpus, ghost)?,
        n_gpus,
        per_gpu,
        split_axis,
    )
}

fn hierarchical_with_top(
    grid: GlobalGrid,
    top: Decomposition,
    n_gpus: usize,
    per_gpu: usize,
    split_axis: usize,
) -> Result<Decomposition, String> {
    assert!(split_axis < 3);
    if n_gpus == 0 || per_gpu == 0 {
        return Err("need at least one GPU and one rank per GPU".into());
    }
    let mut domains = Vec::with_capacity(n_gpus * per_gpu);
    let mut owners = Vec::with_capacity(n_gpus * per_gpu);
    for (g, block) in top.domains.iter().enumerate() {
        if block.extent(split_axis) < per_gpu {
            return Err(format!(
                "GPU block {g} extent {} along axis {split_axis} cannot host {per_gpu} ranks",
                block.extent(split_axis)
            ));
        }
        for piece in block.split_along(split_axis, per_gpu) {
            domains.push(piece);
            owners.push(OwnerKind::Gpu(g));
        }
    }
    Ok(Decomposition {
        grid,
        domains,
        owners,
        scheme: "hierarchical",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::block::block_decomp;
    use crate::halo::HaloPlan;

    #[test]
    fn hierarchical_is_valid_and_gpu_major() {
        let grid = GlobalGrid::new(64, 64, 64);
        let d = hierarchical_decomp(grid, 4, 4, 2, 1).unwrap();
        assert_eq!(d.len(), 16);
        d.validate().unwrap();
        // Ranks 0..4 on GPU 0, etc.
        for r in 0..16 {
            assert_eq!(d.owners[r], OwnerKind::Gpu(r / 4));
        }
    }

    #[test]
    fn single_dimension_split_preserves_x_extent() {
        let grid = GlobalGrid::new(320, 240, 320);
        let d = hierarchical_decomp(grid, 4, 4, 2, 1).unwrap();
        d.validate().unwrap();
        let top = block_decomp(grid, 4, 1);
        // Every rank's x extent equals its GPU block's x extent.
        for r in 0..d.len() {
            assert_eq!(d.domains[r].extent(0), top.domains[r / 4].extent(0));
        }
    }

    #[test]
    fn hierarchical_has_fewer_neighbors_than_square_16(/* Figure 9/10 claim */) {
        let grid = GlobalGrid::new(128, 128, 128);
        let hier = hierarchical_decomp(grid, 4, 4, 2, 1).unwrap();
        let square = block_decomp(grid, 16, 1);
        let hp = HaloPlan::build(&hier);
        let sp = HaloPlan::build(&square);
        let h_max = (0..16).map(|r| hp.neighbor_count(r)).max().unwrap();
        let s_max = (0..16).map(|r| sp.neighbor_count(r)).max().unwrap();
        assert!(
            h_max <= s_max,
            "hierarchical max neighbors {h_max} vs square {s_max}"
        );
        // Note: the hierarchical scheme does NOT minimize raw face
        // area (thin slabs have more surface than cubes); it minimizes
        // the *message count* per rank, which is what dominates halo
        // cost for latency-bound node-local exchanges (§6.1). Total
        // message count must not exceed the square decomposition's.
        assert!(
            hp.exchanges().len() <= sp.exchanges().len(),
            "hier {} messages vs square {}",
            hp.exchanges().len(),
            sp.exchanges().len()
        );
    }

    #[test]
    fn errors_when_axis_too_small() {
        let grid = GlobalGrid::new(64, 64, 2);
        assert!(hierarchical_decomp(grid, 1, 4, 2, 1).is_err());
    }

    #[test]
    fn degenerate_single_rank() {
        let grid = GlobalGrid::new(8, 8, 8);
        let d = hierarchical_decomp(grid, 1, 1, 2, 1).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.domains[0].zones(), 512);
    }
}
