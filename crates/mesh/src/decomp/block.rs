//! The traditional near-cubic ("square") block decomposition of the
//! paper's Figure 9.

use crate::decomp::{Decomposition, OwnerKind};
use crate::domain::Subdomain;
use crate::grid::GlobalGrid;

/// Factor `n` into three near-equal factors, ascending.
///
/// Mirrors `MPI_Dims_create`: the factorization minimizing the spread
/// between the largest and smallest factor.
pub fn factor3(n: usize) -> [usize; 3] {
    assert!(n > 0);
    let mut best = [1, 1, n];
    let mut best_score = usize::MAX;
    for a in 1..=n {
        if n % a != 0 {
            continue;
        }
        let m = n / a;
        for b in 1..=m {
            if m % b != 0 {
                continue;
            }
            let c = m / b;
            let mut d = [a, b, c];
            d.sort_unstable();
            let score = d[0].abs_diff(d[2]) * n + (d[0] + d[1] + d[2]);
            if score < best_score {
                best_score = score;
                best = d;
            }
        }
    }
    best
}

/// Split `n` ranks over the grid in near-cubic blocks, assigning the
/// larger factors to the longer grid axes (keeps subdomains square-ish
/// even on elongated grids). All domains are GPU-owned by convention;
/// callers relabel owners for other schemes.
///
/// Panics where the grid cannot be carved so; [`try_block_decomp`]
/// says why instead.
pub fn block_decomp(grid: GlobalGrid, n: usize, ghost: usize) -> Decomposition {
    try_block_decomp(grid, n, ghost).unwrap_or_else(|e| panic!("{e}"))
}

/// [`block_decomp`], or why `n` ranks cannot be carved from the grid
/// that way.
pub fn try_block_decomp(grid: GlobalGrid, n: usize, ghost: usize) -> Result<Decomposition, String> {
    let factors = factor3(n); // ascending
                              // Pair ascending factors with ascending grid extents.
    let extents = [grid.nx, grid.ny, grid.nz];
    let mut axes: Vec<usize> = vec![0, 1, 2];
    axes.sort_by_key(|&a| extents[a]);
    let mut parts = [1usize; 3];
    for (slot, &axis) in axes.iter().enumerate() {
        parts[axis] = factors[slot];
    }
    if let Some(a) = (0..3).find(|&a| parts[a] > extents[a]) {
        return Err(format!(
            "more ranks than zones along axis {a}: {} > {}",
            parts[a], extents[a]
        ));
    }

    // Cut points with remainder spread over leading pieces.
    let cuts = |n_zones: usize, n_parts: usize| -> Vec<(usize, usize)> {
        let base = n_zones / n_parts;
        let extra = n_zones % n_parts;
        let mut out = Vec::with_capacity(n_parts);
        let mut cursor = 0;
        for p in 0..n_parts {
            let t = base + usize::from(p < extra);
            out.push((cursor, cursor + t));
            cursor += t;
        }
        out
    };
    let xs = cuts(grid.nx, parts[0]);
    let ys = cuts(grid.ny, parts[1]);
    let zs = cuts(grid.nz, parts[2]);

    let mut domains = Vec::with_capacity(n);
    // Rank order: x fastest (matches the Cartesian communicator).
    for &(z0, z1) in &zs {
        for &(y0, y1) in &ys {
            for &(x0, x1) in &xs {
                domains.push(Subdomain::new([x0, y0, z0], [x1, y1, z1], ghost));
            }
        }
    }
    let owners = (0..n).map(OwnerKind::Gpu).collect();
    Ok(Decomposition {
        grid,
        domains,
        owners,
        scheme: "block",
    })
}

/// Split `n` ranks over the grid keeping the x-dimension whole: `n`
/// is factored into two near-equal factors assigned to y and z (the
/// larger factor to the longer axis). This is the paper's arrangement
/// (Figure 10: "keeping the size of the x-dimension the same for all
/// approaches") — x is the innermost, vectorized dimension and is
/// never cut. Fails where `n` ranks cannot be carved from the grid that way.
pub fn block_decomp_yz(grid: GlobalGrid, n: usize, ghost: usize) -> Result<Decomposition, String> {
    // Best 2-factorization of n.
    let mut fy = 1;
    let mut fz = n;
    let mut best = usize::MAX;
    for a in 1..=n {
        if n % a != 0 {
            continue;
        }
        let b = n / a;
        let score = a.abs_diff(b);
        if score < best {
            best = score;
            fy = a.min(b);
            fz = a.max(b);
        }
    }
    // Larger factor on the longer of (y, z).
    let (py, pz) = if grid.ny >= grid.nz {
        (fz, fy)
    } else {
        (fy, fz)
    };
    if py > grid.ny || pz > grid.nz {
        return Err(format!(
            "cannot split {n} ranks over y={}, z={}",
            grid.ny, grid.nz
        ));
    }
    let cuts = |n_zones: usize, n_parts: usize| -> Vec<(usize, usize)> {
        let base = n_zones / n_parts;
        let extra = n_zones % n_parts;
        let mut out = Vec::with_capacity(n_parts);
        let mut cursor = 0;
        for p in 0..n_parts {
            let t = base + usize::from(p < extra);
            out.push((cursor, cursor + t));
            cursor += t;
        }
        out
    };
    let ys = cuts(grid.ny, py);
    let zs = cuts(grid.nz, pz);
    let mut domains = Vec::with_capacity(n);
    for &(z0, z1) in &zs {
        for &(y0, y1) in &ys {
            domains.push(Subdomain::new([0, y0, z0], [grid.nx, y1, z1], ghost));
        }
    }
    let owners = (0..n).map(OwnerKind::Gpu).collect();
    Ok(Decomposition {
        grid,
        domains,
        owners,
        scheme: "block-yz",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor3_matches_known_cases() {
        assert_eq!(factor3(1), [1, 1, 1]);
        assert_eq!(factor3(4), [1, 2, 2]);
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(16), [2, 2, 4]);
        assert_eq!(factor3(12), [2, 2, 3]);
        assert_eq!(factor3(13), [1, 1, 13]);
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
        // 4 = 1x2x2; the long x axis should get a factor too... with
        // ascending pairing, x (longest) gets the largest factor 2.
        let x_cuts: std::collections::BTreeSet<usize> = d.domains.iter().map(|s| s.lo[0]).collect();
        assert!(x_cuts.len() >= 2, "x axis should be cut: {x_cuts:?}");
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
        // 3 parts along x (longest): 4 + 3 + 3.
        let mut sizes: Vec<u64> = d3.domains.iter().map(|s| s.zones()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![27, 27, 36]);
    }

    #[test]
    fn yz_decomp_keeps_x_whole() {
        let grid = GlobalGrid::new(320, 240, 160);
        let d = block_decomp_yz(grid, 4, 1).unwrap();
        d.validate().unwrap();
        assert_eq!(d.len(), 4);
        for s in &d.domains {
            assert_eq!(s.extent(0), 320, "x must stay whole");
        }
        // 2x2 over (y, z).
        assert_eq!(d.domains[0].extents(), [320, 120, 80]);
    }

    #[test]
    fn yz_decomp_puts_larger_factor_on_longer_axis() {
        let grid = GlobalGrid::new(64, 400, 100);
        let d = block_decomp_yz(grid, 8, 1).unwrap();
        d.validate().unwrap();
        // 8 = 2x4: y (longer) gets 4.
        let y_cuts: std::collections::BTreeSet<usize> = d.domains.iter().map(|s| s.lo[1]).collect();
        assert_eq!(y_cuts.len(), 4);
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
}
