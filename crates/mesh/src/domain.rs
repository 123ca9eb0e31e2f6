//! Rank-local subdomains.

use crate::grid::GlobalGrid;

/// A rank's owned box of zones `[lo, hi)` within the global grid, plus
/// a ghost layer of `ghost` zones on every side (clipped at physical
/// boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subdomain {
    /// Inclusive lower zone corner (global indices).
    pub lo: [usize; 3],
    /// Exclusive upper zone corner (global indices).
    pub hi: [usize; 3],
    /// Ghost-layer width in zones.
    pub ghost: usize,
}

impl Subdomain {
    pub fn new(lo: [usize; 3], hi: [usize; 3], ghost: usize) -> Self {
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l < h),
            "subdomain must be non-empty: lo {lo:?}, hi {hi:?}"
        );
        Subdomain { lo, hi, ghost }
    }

    /// Owned extent along `axis`.
    pub fn extent(&self, axis: usize) -> usize {
        self.hi[axis] - self.lo[axis]
    }

    /// Owned extents (nx, ny, nz).
    pub fn extents(&self) -> [usize; 3] {
        [self.extent(0), self.extent(1), self.extent(2)]
    }

    /// Number of owned zones.
    pub fn zones(&self) -> u64 {
        self.extents().iter().map(|&e| e as u64).product()
    }

    /// Number of owned nodes (zones + 1 in each dimension).
    pub fn nodes(&self) -> u64 {
        self.extents().iter().map(|&e| e as u64 + 1).product()
    }

    /// Surface area in zone faces (halo volume per unit ghost width).
    pub fn surface(&self) -> u64 {
        let [ex, ey, ez] = self.extents().map(|e| e as u64);
        2 * (ex * ey + ey * ez + ex * ez)
    }

    /// True if this box shares a face with `other`: they are adjacent
    /// along exactly one axis and overlap in the two transverse axes.
    pub fn is_face_neighbor(&self, other: &Subdomain) -> bool {
        let mut touching_axis = None;
        for axis in 0..3 {
            if self.hi[axis] == other.lo[axis] || other.hi[axis] == self.lo[axis] {
                if touching_axis.is_some() {
                    // Touching along two axes = edge contact only.
                    return false;
                }
                touching_axis = Some(axis);
            } else if self.hi[axis] <= other.lo[axis] || other.hi[axis] <= self.lo[axis] {
                // Separated along this axis.
                return false;
            }
        }
        touching_axis.is_some()
    }

    /// True if the subdomain touches the global boundary on `axis` in
    /// direction `dir` (−1/+1).
    pub fn on_boundary(&self, grid: &GlobalGrid, axis: usize, dir: i32) -> bool {
        let n = [grid.nx, grid.ny, grid.nz][axis];
        if dir < 0 {
            self.lo[axis] == 0
        } else {
            self.hi[axis] == n
        }
    }

    /// Split this subdomain into `parts` pieces along `axis` with
    /// near-equal thickness (remainder spread over the leading pieces).
    pub fn split_along(&self, axis: usize, parts: usize) -> Vec<Subdomain> {
        assert!(parts > 0);
        let n = self.extent(axis);
        assert!(
            parts <= n,
            "cannot split extent {n} into {parts} non-empty parts"
        );
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut cursor = self.lo[axis];
        for p in 0..parts {
            let thickness = base + usize::from(p < extra);
            let mut lo = self.lo;
            let mut hi = self.hi;
            lo[axis] = cursor;
            hi[axis] = cursor + thickness;
            cursor += thickness;
            out.push(Subdomain::new(lo, hi, self.ghost));
        }
        debug_assert_eq!(cursor, self.hi[axis]);
        out
    }

    /// If `self` and `other` tile a single box exactly — adjacent
    /// along one axis with identical extents on the other two — return
    /// that box (the inverse of [`Subdomain::carve_high`] /
    /// [`Subdomain::split_along`]). Used by the rank-loss foldback to
    /// absorb a lost slab into a neighbor without fragmenting the
    /// decomposition.
    pub fn merged_box(&self, other: &Subdomain) -> Option<Subdomain> {
        for axis in 0..3 {
            let transverse_equal = (0..3)
                .filter(|&a| a != axis)
                .all(|a| self.lo[a] == other.lo[a] && self.hi[a] == other.hi[a]);
            if !transverse_equal {
                continue;
            }
            if self.hi[axis] == other.lo[axis] {
                return Some(Subdomain::new(self.lo, other.hi, self.ghost));
            }
            if other.hi[axis] == self.lo[axis] {
                return Some(Subdomain::new(other.lo, self.hi, self.ghost));
            }
        }
        None
    }

    /// Carve a slab of `thickness` zones off the high end of `axis`,
    /// returning `(remainder, slab)`. `thickness` must leave a
    /// non-empty remainder.
    pub fn carve_high(&self, axis: usize, thickness: usize) -> (Subdomain, Subdomain) {
        assert!(
            thickness > 0 && thickness < self.extent(axis),
            "carve thickness {thickness} must be in 1..{}",
            self.extent(axis)
        );
        let mut rem_hi = self.hi;
        rem_hi[axis] -= thickness;
        let mut slab_lo = self.lo;
        slab_lo[axis] = rem_hi[axis];
        (
            Subdomain::new(self.lo, rem_hi, self.ghost),
            Subdomain::new(slab_lo, self.hi, self.ghost),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(lo: [usize; 3], hi: [usize; 3]) -> Subdomain {
        Subdomain::new(lo, hi, 1)
    }

    #[test]
    fn zone_and_node_counts() {
        let d = dom([0, 0, 0], [10, 20, 30]);
        assert_eq!(d.zones(), 6000);
        assert_eq!(d.nodes(), 11 * 21 * 31);
        assert_eq!(d.extents(), [10, 20, 30]);
    }

    #[test]
    fn surface_of_a_cube() {
        let d = dom([0, 0, 0], [4, 4, 4]);
        assert_eq!(d.surface(), 6 * 16);
    }

    #[test]
    fn face_neighbors_detected() {
        let a = dom([0, 0, 0], [4, 4, 4]);
        let b = dom([4, 0, 0], [8, 4, 4]);
        assert!(a.is_face_neighbor(&b));
        assert!(b.is_face_neighbor(&a));
    }

    #[test]
    fn diagonal_and_distant_boxes_are_not_face_neighbors() {
        let a = dom([0, 0, 0], [4, 4, 4]);
        let edge = dom([4, 4, 0], [8, 8, 4]); // touches along x AND y
        let far = dom([8, 0, 0], [12, 4, 4]);
        assert!(!a.is_face_neighbor(&edge));
        assert!(!a.is_face_neighbor(&far));
    }

    #[test]
    fn partial_overlap_is_still_a_face_neighbor() {
        let a = dom([0, 0, 0], [4, 4, 4]);
        let b = dom([4, 2, 0], [8, 6, 4]); // overlaps y in [2,4)
        assert!(a.is_face_neighbor(&b));
    }

    #[test]
    fn boundary_detection() {
        let g = GlobalGrid::new(8, 8, 8);
        let d = dom([0, 0, 4], [4, 8, 8]);
        assert!(d.on_boundary(&g, 0, -1));
        assert!(!d.on_boundary(&g, 0, 1));
        assert!(d.on_boundary(&g, 1, -1));
        assert!(d.on_boundary(&g, 1, 1));
        assert!(d.on_boundary(&g, 2, 1));
        assert!(!d.on_boundary(&g, 2, -1));
    }

    #[test]
    fn split_covers_exactly_with_remainder() {
        let d = dom([0, 0, 0], [10, 4, 4]);
        let parts = d.split_along(0, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].extent(0), 4); // 10 = 4 + 3 + 3
        assert_eq!(parts[1].extent(0), 3);
        assert_eq!(parts[2].extent(0), 3);
        assert_eq!(parts[0].lo[0], 0);
        assert_eq!(parts[2].hi[0], 10);
        let total: u64 = parts.iter().map(Subdomain::zones).sum();
        assert_eq!(total, d.zones());
    }

    #[test]
    #[should_panic(expected = "non-empty parts")]
    fn oversplitting_panics() {
        let d = dom([0, 0, 0], [2, 4, 4]);
        let _ = d.split_along(0, 3);
    }

    #[test]
    fn merged_box_inverts_carve_and_split() {
        let d = dom([0, 0, 0], [4, 10, 4]);
        let (rem, slab) = d.carve_high(1, 3);
        assert_eq!(rem.merged_box(&slab), Some(d));
        assert_eq!(slab.merged_box(&rem), Some(d));
        let parts = slab.split_along(1, 3);
        assert_eq!(
            parts[0].merged_box(&parts[1]).unwrap().zones(),
            parts[0].zones() + parts[1].zones()
        );
        // Non-adjacent pieces don't merge; neither do boxes with
        // mismatched transverse extents.
        assert_eq!(parts[0].merged_box(&parts[2]), None);
        let offset = dom([1, 0, 0], [4, 3, 4]);
        assert_eq!(offset.merged_box(&dom([0, 3, 0], [4, 6, 4])), None);
    }

    #[test]
    fn carve_high_splits_cleanly() {
        let d = dom([0, 0, 0], [4, 10, 4]);
        let (rem, slab) = d.carve_high(1, 2);
        assert_eq!(rem.extents(), [4, 8, 4]);
        assert_eq!(slab.extents(), [4, 2, 4]);
        assert_eq!(slab.lo[1], 8);
        assert!(rem.is_face_neighbor(&slab));
        assert_eq!(rem.zones() + slab.zones(), d.zones());
    }

    #[test]
    #[should_panic(expected = "carve thickness")]
    fn carving_everything_panics() {
        let d = dom([0, 0, 0], [4, 4, 4]);
        let _ = d.carve_high(1, 4);
    }
}
