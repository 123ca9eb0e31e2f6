//! Domain decompositions.
//!
//! Every layout of the paper's §6.1 is one [`nested::nested`]
//! partition, a [`Decomposition`]: a list of disjoint subdomains
//! covering the global grid, each tagged with the kind of processor
//! that will compute it. That tag is the run's one rank table.

pub mod nested;
pub mod weighted;

use crate::domain::Subdomain;
use crate::grid::GlobalGrid;

pub use nested::{block_decomp, nested, Blocks, Pieces};
pub use weighted::{fold_lost_rank, weighted_hetero_decomp, WeightedConfig};

/// Which processor computes a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerKind {
    /// Offloaded to GPU `id` by its driving rank.
    Gpu(usize),
    /// Computed directly on a CPU core.
    Cpu,
}

impl OwnerKind {
    /// The rank computing this domain drives a GPU.
    pub fn is_gpu_driver(self) -> bool {
        matches!(self, OwnerKind::Gpu(_))
    }
}

/// A complete assignment of the global grid to ranks.
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub grid: GlobalGrid,
    /// One subdomain per rank, rank order.
    pub domains: Vec<Subdomain>,
    /// The processor kind computing each rank's domain.
    pub owners: Vec<OwnerKind>,
}

impl Decomposition {
    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Ranks whose domains run on a GPU.
    pub fn gpu_ranks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&r| self.owners[r].is_gpu_driver())
            .collect()
    }

    /// Ranks whose domains run on CPU cores.
    pub fn cpu_ranks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&r| !self.owners[r].is_gpu_driver())
            .collect()
    }

    /// Fraction of zones assigned to CPU ranks.
    pub fn cpu_zone_fraction(&self) -> f64 {
        let cpu: u64 = self
            .cpu_ranks()
            .iter()
            .map(|&r| self.domains[r].zones())
            .sum();
        cpu as f64 / self.grid.zones() as f64
    }

    /// Verify the decomposition covers the grid exactly once.
    ///
    /// Checks: every domain inside the grid; total zone count matches;
    /// domains pairwise disjoint. O(n²) pair checks are fine at node
    /// scale.
    pub fn validate(&self) -> Result<(), String> {
        if self.domains.len() != self.owners.len() {
            return Err("domains and owners length mismatch".into());
        }
        let bounds = [self.grid.nx, self.grid.ny, self.grid.nz];
        for (r, d) in self.domains.iter().enumerate() {
            for (a, (&hi, &bound)) in d.hi.iter().zip(&bounds).enumerate() {
                if hi > bound {
                    return Err(format!(
                        "rank {r} domain exceeds grid on axis {a}: {:?}",
                        d.hi
                    ));
                }
            }
        }
        let total: u64 = self.domains.iter().map(Subdomain::zones).sum();
        if total != self.grid.zones() {
            return Err(format!(
                "domains cover {total} zones, grid has {}",
                self.grid.zones()
            ));
        }
        for i in 0..self.domains.len() {
            for j in (i + 1)..self.domains.len() {
                let (a, b) = (&self.domains[i], &self.domains[j]);
                let overlap = (0..3).all(|ax| a.lo[ax] < b.hi[ax] && b.lo[ax] < a.hi[ax]);
                if overlap {
                    return Err(format!("ranks {i} and {j} overlap"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_overlap_and_gaps() {
        let grid = GlobalGrid::new(4, 4, 4);
        let good = Decomposition {
            grid,
            domains: vec![
                Subdomain::new([0, 0, 0], [2, 4, 4], 1),
                Subdomain::new([2, 0, 0], [4, 4, 4], 1),
            ],
            owners: vec![OwnerKind::Gpu(0), OwnerKind::Gpu(1)],
        };
        assert!(good.validate().is_ok());

        let overlapping = Decomposition {
            domains: vec![
                Subdomain::new([0, 0, 0], [3, 4, 4], 1),
                Subdomain::new([2, 0, 0], [4, 4, 4], 1),
            ],
            ..good.clone()
        };
        assert!(overlapping.validate().is_err());

        let gappy = Decomposition {
            domains: vec![
                Subdomain::new([0, 0, 0], [1, 4, 4], 1),
                Subdomain::new([2, 0, 0], [4, 4, 4], 1),
            ],
            ..good.clone()
        };
        assert!(gappy.validate().is_err());

        let oob = Decomposition {
            domains: vec![
                Subdomain::new([0, 0, 0], [2, 4, 4], 1),
                Subdomain::new([2, 0, 0], [4, 4, 5], 1),
            ],
            ..good
        };
        assert!(oob.validate().is_err());
    }

    #[test]
    fn rank_role_queries() {
        let grid = GlobalGrid::new(4, 4, 4);
        let d = Decomposition {
            grid,
            domains: vec![
                Subdomain::new([0, 0, 0], [4, 3, 4], 1),
                Subdomain::new([0, 3, 0], [4, 4, 4], 1),
            ],
            owners: vec![OwnerKind::Gpu(0), OwnerKind::Cpu],
        };
        assert_eq!(d.gpu_ranks(), vec![0]);
        assert_eq!(d.cpu_ranks(), vec![1]);
        assert!((d.cpu_zone_fraction() - 0.25).abs() < 1e-12);
    }
}
