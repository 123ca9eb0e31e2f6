//! Halo-exchange plans.
//!
//! A [`HaloPlan`] enumerates every face-adjacent pair of domains in a
//! decomposition together with the shared rectangle, from which both
//! the *cost* side (message bytes, neighbor counts — the paper's
//! Figure 9 discussion) and the *functional* side (which box to pack
//! and where to unpack it) of the exchange are derived.

use crate::decomp::Decomposition;
use crate::domain::Subdomain;

/// One face-adjacency between two ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// Lower-coordinate rank along `axis`.
    pub a: usize,
    /// Higher-coordinate rank along `axis`.
    pub b: usize,
    /// The axis perpendicular to the shared face.
    pub axis: usize,
    /// Global coordinate of the shared plane (zone index on `b`'s low
    /// side, equal to `a.hi[axis]`).
    pub plane: usize,
    /// Inclusive lower corner of the shared rectangle in the two
    /// transverse axes (the `axis` entry repeats `plane`).
    pub lo: [usize; 3],
    /// Exclusive upper corner of the shared rectangle.
    pub hi: [usize; 3],
}

impl Exchange {
    /// Shared area in zone faces.
    pub fn area(&self) -> u64 {
        let mut area = 1u64;
        for ax in 0..3 {
            if ax != self.axis {
                area *= (self.hi[ax] - self.lo[ax]) as u64;
            }
        }
        area
    }

    /// Message bytes for one f64 field with ghost width `w`.
    pub fn bytes(&self, ghost: usize) -> u64 {
        self.area() * ghost as u64 * 8
    }
}

/// All exchanges of a decomposition plus per-rank summaries.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    exchanges: Vec<Exchange>,
    /// Per-rank indices into `exchanges`.
    by_rank: Vec<Vec<usize>>,
}

impl HaloPlan {
    /// Enumerate face adjacencies (O(n²) pairs — fine at node scale).
    pub fn build(decomp: &Decomposition) -> Self {
        let n = decomp.len();
        let mut exchanges = Vec::new();
        let mut by_rank = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (da, db) = (&decomp.domains[i], &decomp.domains[j]);
                if let Some(ex) = face_exchange(i, j, da, db) {
                    by_rank[ex.a].push(exchanges.len());
                    by_rank[ex.b].push(exchanges.len());
                    exchanges.push(ex);
                }
            }
        }
        HaloPlan { exchanges, by_rank }
    }

    pub fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    /// The exchanges rank `r` participates in.
    pub fn exchanges_for(&self, r: usize) -> impl Iterator<Item = &Exchange> {
        self.by_rank[r].iter().map(|&i| &self.exchanges[i])
    }

    /// Like [`HaloPlan::exchanges_for`], also yielding each exchange's
    /// global index (stable across ranks — used for message tags).
    pub fn exchanges_for_indexed(&self, r: usize) -> impl Iterator<Item = (usize, &Exchange)> {
        self.by_rank[r].iter().map(|&i| (i, &self.exchanges[i]))
    }

    /// Number of halo neighbors of rank `r`.
    pub fn neighbor_count(&self, r: usize) -> usize {
        self.by_rank[r].len()
    }

    /// Total shared area rank `r` communicates (both directions count
    /// once).
    pub fn area_for(&self, r: usize) -> u64 {
        self.exchanges_for(r).map(Exchange::area).sum()
    }

    /// Total shared area over all exchanges.
    pub fn total_area(&self) -> u64 {
        self.exchanges.iter().map(Exchange::area).sum()
    }

    /// Largest per-rank neighbor count (the paper's Figure 9 metric).
    pub fn max_neighbors(&self) -> usize {
        self.by_rank.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The shared face between two boxes, if they are face neighbors.
fn face_exchange(i: usize, j: usize, da: &Subdomain, db: &Subdomain) -> Option<Exchange> {
    if !da.is_face_neighbor(db) {
        return None;
    }
    for axis in 0..3 {
        let (a, b, low_box, _high_box) = if da.hi[axis] == db.lo[axis] {
            (i, j, da, db)
        } else if db.hi[axis] == da.lo[axis] {
            (j, i, db, da)
        } else {
            continue;
        };
        let plane = low_box.hi[axis];
        let mut lo = [0; 3];
        let mut hi = [0; 3];
        for ax in 0..3 {
            if ax == axis {
                lo[ax] = plane;
                hi[ax] = plane;
            } else {
                lo[ax] = da.lo[ax].max(db.lo[ax]);
                hi[ax] = da.hi[ax].min(db.hi[ax]);
            }
        }
        return Some(Exchange {
            a,
            b,
            axis,
            plane,
            lo,
            hi,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::block_decomp;
    use crate::decomp::weighted::{weighted_hetero_decomp, WeightedConfig};
    use crate::grid::GlobalGrid;

    #[test]
    fn two_block_plan_has_one_exchange() {
        let grid = GlobalGrid::new(8, 4, 4);
        let d = block_decomp(grid, 2, 1);
        let p = HaloPlan::build(&d);
        assert_eq!(p.exchanges().len(), 1);
        let ex = &p.exchanges()[0];
        assert_eq!(ex.area(), 16);
        assert_eq!(ex.bytes(1), 16 * 8);
        assert_eq!(ex.bytes(2), 16 * 16);
        assert_eq!(p.neighbor_count(0), 1);
        assert_eq!(p.neighbor_count(1), 1);
    }

    #[test]
    fn exchange_orientation_is_low_to_high() {
        let grid = GlobalGrid::new(8, 4, 4);
        let d = block_decomp(grid, 2, 1);
        let p = HaloPlan::build(&d);
        let ex = &p.exchanges()[0];
        // Rank with the lower x coordinate must be `a`.
        assert!(d.domains[ex.a].lo[ex.axis] < d.domains[ex.b].lo[ex.axis]);
        assert_eq!(ex.plane, d.domains[ex.a].hi[ex.axis]);
    }

    #[test]
    fn figure9_sixteen_ranks_communicate_more_than_four() {
        // The paper's Figure 9 observation: per-node halo volume and
        // neighbor counts grow sharply from 4 to 16 'square' ranks.
        let grid = GlobalGrid::new(128, 128, 128);
        let d4 = block_decomp(grid, 4, 1);
        let d16 = block_decomp(grid, 16, 1);
        let p4 = HaloPlan::build(&d4);
        let p16 = HaloPlan::build(&d16);
        assert!(p16.total_area() > p4.total_area());
        assert!(p16.max_neighbors() > p4.max_neighbors());
    }

    #[test]
    fn weighted_decomp_connects_cpu_slabs_to_gpu_blocks() {
        let grid = GlobalGrid::new(320, 480, 160);
        let d = weighted_hetero_decomp(grid, &WeightedConfig::rzhasgpu(0.02)).unwrap();
        let p = HaloPlan::build(&d);
        // Every CPU rank has at least one neighbor, and at least one of
        // them is its stack (GPU-side or adjacent slab).
        for &r in &d.cpu_ranks() {
            assert!(p.neighbor_count(r) >= 1, "cpu rank {r} isolated");
        }
        // Every GPU rank talks to at least one CPU slab.
        for &g in &d.gpu_ranks() {
            let touches_cpu = p
                .exchanges_for(g)
                .any(|ex| !d.owners[if ex.a == g { ex.b } else { ex.a }].is_gpu_driver());
            assert!(touches_cpu, "gpu rank {g} has no CPU neighbor");
        }
    }

    #[test]
    fn plan_total_area_counts_each_face_once() {
        let grid = GlobalGrid::new(4, 4, 8);
        let d = block_decomp(grid, 2, 1);
        let p = HaloPlan::build(&d);
        assert_eq!(p.total_area(), 16);
        assert_eq!(p.area_for(0), 16);
        assert_eq!(p.area_for(1), 16);
    }

    #[test]
    fn single_rank_has_no_exchanges() {
        let grid = GlobalGrid::new(4, 4, 4);
        let d = block_decomp(grid, 1, 1);
        let p = HaloPlan::build(&d);
        assert!(p.exchanges().is_empty());
        assert_eq!(p.max_neighbors(), 0);
    }
}
