//! Cartesian process topologies (MPI_Cart_create equivalents).
//!
//! ARES assigns spatially-decomposed domains to ranks; the Cartesian
//! communicator maps rank ids to 3D process-grid coordinates and finds
//! halo-exchange neighbors. The x coordinate varies fastest (row-major
//! with x innermost), matching the mesh's zone ordering.

use crate::error::MpiError;

/// A 3D Cartesian layout of `dims[0] * dims[1] * dims[2]` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartComm {
    dims: [usize; 3],
    periodic: [bool; 3],
}

impl CartComm {
    /// Create a topology with explicit dimensions.
    pub fn new(dims: [usize; 3], periodic: [bool; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "all dims must be positive");
        CartComm { dims, periodic }
    }

    /// The process-grid dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total ranks in the grid.
    pub fn size(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Rank → grid coordinates (x fastest).
    pub fn coords(&self, rank: usize) -> Result<[usize; 3], MpiError> {
        if rank >= self.size() {
            return Err(MpiError::RankOutOfRange {
                rank,
                size: self.size(),
            });
        }
        let x = rank % self.dims[0];
        let y = (rank / self.dims[0]) % self.dims[1];
        let z = rank / (self.dims[0] * self.dims[1]);
        Ok([x, y, z])
    }

    /// Grid coordinates → rank.
    pub fn rank_of(&self, coords: [usize; 3]) -> Result<usize, MpiError> {
        for (&c, &d) in coords.iter().zip(&self.dims) {
            if c >= d {
                return Err(MpiError::RankOutOfRange { rank: c, size: d });
            }
        }
        Ok((coords[2] * self.dims[1] + coords[1]) * self.dims[0] + coords[0])
    }

    /// The neighbor of `rank` one step along `axis` in direction `dir`
    /// (−1 or +1). `None` at a non-periodic boundary.
    pub fn neighbor(&self, rank: usize, axis: usize, dir: i32) -> Result<Option<usize>, MpiError> {
        assert!(axis < 3, "axis must be 0, 1, or 2");
        assert!(dir == 1 || dir == -1, "dir must be ±1");
        let mut c = self.coords(rank)?;
        let d = self.dims[axis];
        let cur = c[axis] as i64 + dir as i64;
        let next = if cur < 0 || cur >= d as i64 {
            if self.periodic[axis] {
                ((cur + d as i64) % d as i64) as usize
            } else {
                return Ok(None);
            }
        } else {
            cur as usize
        };
        c[axis] = next;
        Ok(Some(self.rank_of(c)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let c = CartComm::new([2, 3, 4], [false; 3]);
        assert_eq!(c.size(), 24);
        for rank in 0..c.size() {
            let xyz = c.coords(rank).unwrap();
            assert_eq!(c.rank_of(xyz).unwrap(), rank);
        }
        assert!(c.coords(24).is_err());
        assert!(c.rank_of([2, 0, 0]).is_err());
    }

    #[test]
    fn x_varies_fastest() {
        let c = CartComm::new([4, 2, 1], [false; 3]);
        assert_eq!(c.coords(0).unwrap(), [0, 0, 0]);
        assert_eq!(c.coords(1).unwrap(), [1, 0, 0]);
        assert_eq!(c.coords(4).unwrap(), [0, 1, 0]);
    }

    #[test]
    fn boundary_neighbors_are_none_without_periodicity() {
        let c = CartComm::new([2, 2, 2], [false; 3]);
        assert_eq!(c.neighbor(0, 0, -1).unwrap(), None);
        assert_eq!(c.neighbor(0, 0, 1).unwrap(), Some(1));
        assert_eq!(c.neighbor(0, 1, 1).unwrap(), Some(2));
        assert_eq!(c.neighbor(0, 2, 1).unwrap(), Some(4));
    }

    #[test]
    fn periodic_axes_wrap() {
        let c = CartComm::new([3, 1, 1], [true, false, false]);
        assert_eq!(c.neighbor(0, 0, -1).unwrap(), Some(2));
        assert_eq!(c.neighbor(2, 0, 1).unwrap(), Some(0));
    }
}
