//! Multi-variable structure-of-arrays storage for one subdomain.
//!
//! A [`SoaBlock`] packs `nvar` zone-centered variables into a single
//! contiguous `f64` slab, var-major: variable `v`'s core+ghost box
//! occupies `data[v*var_len .. (v+1)*var_len]`, x fastest inside the
//! box. Cache-blocked kernels can then walk all variables of a tile
//! while it is resident in cache, and per-variable views (`var`,
//! `var_mut`) recover the classic one-field-at-a-time API.
//!
//! Per-variable geometry (pack/unpack/reflect/fill/sum) delegates to
//! the same free functions as [`Field`](crate::field::Field), so halo
//! messages and boundary mirrors are bit-identical between the two
//! layouts.

use crate::domain::Subdomain;
use crate::field::{self, Side};

/// `nvar` zone-centered variables over one subdomain, in one slab.
#[derive(Debug, Clone)]
pub struct SoaBlock {
    data: Vec<f64>,
    /// Core (owned) extents of each variable's box, excluding ghosts.
    core: [usize; 3],
    ghost: usize,
    nvar: usize,
    /// Allocated length of one variable's box.
    var_len: usize,
}

impl SoaBlock {
    /// Allocate a zero-filled slab of `nvar` zone-centered variables
    /// for `sub`.
    pub fn new(sub: &Subdomain, nvar: usize) -> Self {
        let core = [sub.extent(0), sub.extent(1), sub.extent(2)];
        let g = sub.ghost;
        let var_len = (core[0] + 2 * g) * (core[1] + 2 * g) * (core[2] + 2 * g);
        SoaBlock {
            data: vec![0.0; nvar * var_len],
            core,
            ghost: g,
            nvar,
            var_len,
        }
    }

    pub fn nvar(&self) -> usize {
        self.nvar
    }

    pub fn ghost(&self) -> usize {
        self.ghost
    }

    /// Allocated length of one variable's box.
    pub fn var_len(&self) -> usize {
        self.var_len
    }

    /// Total allocated extents of one variable's box (core + 2·ghost).
    pub fn dims(&self) -> [usize; 3] {
        field::dims_of(self.core, self.ghost)
    }

    /// Core (owned) extents.
    pub fn core(&self) -> [usize; 3] {
        self.core
    }

    /// Strides (x, y, z) within one variable's box, x fastest.
    pub fn strides(&self) -> [usize; 3] {
        field::strides_of(self.core, self.ghost)
    }

    /// Linear index within one variable's box, in allocated
    /// coordinates (ghosts addressable).
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        field::idx_in(self.core, self.ghost, i, j, k)
    }

    /// Linear index within one variable's box, in owned coordinates.
    #[inline]
    pub fn idx_owned(&self, i: usize, j: usize, k: usize) -> usize {
        field::idx_owned_in(self.core, self.ghost, i, j, k)
    }

    /// Variable `v`'s box as a read-only slice.
    #[inline]
    pub fn var(&self, v: usize) -> &[f64] {
        &self.data[v * self.var_len..(v + 1) * self.var_len]
    }

    /// Variable `v`'s box as a mutable slice.
    #[inline]
    pub fn var_mut(&mut self, v: usize) -> &mut [f64] {
        &mut self.data[v * self.var_len..(v + 1) * self.var_len]
    }

    /// Value of variable `v` at owned coordinates.
    #[inline]
    pub fn get(&self, v: usize, i: usize, j: usize, k: usize) -> f64 {
        self.var(v)[self.idx_owned(i, j, k)]
    }

    /// Set variable `v` at owned coordinates.
    #[inline]
    pub fn set(&mut self, v: usize, i: usize, j: usize, k: usize, val: f64) {
        let idx = self.idx_owned(i, j, k);
        self.var_mut(v)[idx] = val;
    }

    /// All `N` variables' boxes as disjoint mutable slices, in
    /// variable order (`N` must equal `nvar`). Lets multi-output
    /// kernels write several variables of one slab at once.
    pub fn vars_mut<const N: usize>(&mut self) -> [&mut [f64]; N] {
        assert_eq!(N, self.nvar, "vars_mut::<{N}> on a {}-var slab", self.nvar);
        let mut chunks = self.data.chunks_mut(self.var_len);
        std::array::from_fn(|_| chunks.next().unwrap_or_default())
    }

    /// The whole slab (all variables, var-major).
    pub fn slab(&self) -> &[f64] {
        &self.data
    }

    /// The whole slab, mutable (tile kernels carve disjoint rows out
    /// of this).
    pub fn slab_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy every variable (including ghosts) from `src`.
    pub fn copy_from(&mut self, src: &SoaBlock) {
        assert_eq!(self.data.len(), src.data.len(), "slab shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Fill every entry of variable `v` (including ghosts).
    pub fn fill(&mut self, v: usize, val: f64) {
        self.var_mut(v).fill(val);
    }

    /// Fill owned entries of variable `v` only.
    pub fn fill_owned(&mut self, v: usize, val: f64) {
        let (core, g) = (self.core, self.ghost);
        field::fill_owned_in(core, g, self.var_mut(v), val);
    }

    /// Sum of variable `v`'s owned entries (conservation checks).
    pub fn sum_owned(&self, v: usize) -> f64 {
        field::sum_owned_in(self.core, self.ghost, self.var(v))
    }

    /// Number of f64 values in one face strip of `width` layers.
    pub fn face_len(&self, axis: usize, width: usize) -> usize {
        field::face_len_of(self.core, axis, width)
    }

    /// Pack variable `v`'s outermost `width` owned layers on `side` of
    /// `axis` (k, j, i ascending — same wire format as
    /// [`Field::pack_face`](crate::field::Field::pack_face)).
    pub fn pack_face(&self, v: usize, axis: usize, side: Side, width: usize) -> Vec<f64> {
        field::pack_face_in(self.core, self.ghost, self.var(v), axis, side, width)
    }

    /// Unpack a neighbor's face buffer into variable `v`'s ghost
    /// layers on `side` of `axis`.
    pub fn unpack_ghost(&mut self, v: usize, axis: usize, side: Side, width: usize, buf: &[f64]) {
        let (core, g) = (self.core, self.ghost);
        field::unpack_ghost_in(core, g, self.var_mut(v), axis, side, width, buf);
    }

    /// Pack an arbitrary box `[lo, hi)` of variable `v` in allocated
    /// coordinates.
    pub fn pack_box(&self, v: usize, lo: [usize; 3], hi: [usize; 3]) -> Vec<f64> {
        field::pack_box_in(self.core, self.ghost, self.var(v), lo, hi)
    }

    /// Unpack a buffer into the box `[lo, hi)` of variable `v`.
    pub fn unpack_box(&mut self, v: usize, lo: [usize; 3], hi: [usize; 3], buf: &[f64]) {
        let (core, g) = (self.core, self.ghost);
        field::unpack_box_in(core, g, self.var_mut(v), lo, hi, buf);
    }

    /// Mirror variable `v`'s owned boundary layer into its ghost layer
    /// on a physical boundary.
    pub fn reflect_into_ghost(&mut self, v: usize, axis: usize, side: Side, sign: f64) {
        let (core, g) = (self.core, self.ghost);
        field::reflect_into_ghost_in(core, g, self.var_mut(v), axis, side, sign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{Centering, Field};

    fn sub() -> Subdomain {
        Subdomain::new([0, 0, 0], [4, 3, 2], 1)
    }

    #[test]
    fn slab_shape_is_var_major() {
        let b = SoaBlock::new(&sub(), 5);
        assert_eq!(b.nvar(), 5);
        assert_eq!(b.core(), [4, 3, 2]);
        assert_eq!(b.dims(), [6, 5, 4]);
        assert_eq!(b.var_len(), 6 * 5 * 4);
        assert_eq!(b.slab().len(), 5 * 6 * 5 * 4);
        assert_eq!(b.strides(), [1, 6, 30]);
        for v in 0..5 {
            assert_eq!(b.var(v).len(), b.var_len());
        }
    }

    #[test]
    fn get_set_roundtrip_does_not_leak_across_vars() {
        let mut b = SoaBlock::new(&sub(), 5);
        b.set(2, 1, 2, 1, 7.5);
        assert_eq!(b.get(2, 1, 2, 1), 7.5);
        for v in [0, 1, 3, 4] {
            assert_eq!(b.get(v, 1, 2, 1), 0.0, "var {v} contaminated");
        }
    }

    #[test]
    fn geometry_matches_field_exactly() {
        // Same tagged payload through a Field and a SoaBlock variable:
        // every shared geometry op must agree bit for bit.
        let s = sub();
        let mut f = Field::new(&s, Centering::Zone);
        let mut b = SoaBlock::new(&s, 3);
        for k in 0..2 {
            for j in 0..3 {
                for i in 0..4 {
                    let tag = (i as f64) + 10.0 * (j as f64) + 100.0 * (k as f64) + 0.25;
                    f.set(i, j, k, tag);
                    b.set(1, i, j, k, tag);
                }
            }
        }
        assert_eq!(f.sum_owned().to_bits(), b.sum_owned(1).to_bits());
        for axis in 0..3 {
            assert_eq!(f.face_len(axis, 1), b.face_len(axis, 1));
            for side in [Side::Low, Side::High] {
                assert_eq!(f.pack_face(axis, side, 1), b.pack_face(1, axis, side, 1));
            }
        }
        f.reflect_into_ghost(1, Side::High, -1.0);
        b.reflect_into_ghost(1, 1, Side::High, -1.0);
        assert_eq!(f.data(), b.var(1));
        let lo = [0, 1, 1];
        let hi = [6, 4, 3];
        assert_eq!(f.pack_box(lo, hi), b.pack_box(1, lo, hi));
    }

    #[test]
    fn pack_unpack_ghost_roundtrip() {
        let mut a = SoaBlock::new(&sub(), 2);
        let mut c = SoaBlock::new(&Subdomain::new([4, 0, 0], [8, 3, 2], 1), 2);
        for k in 0..2 {
            for j in 0..3 {
                a.set(0, 3, j, k, (10 * j + 100 * k + 3) as f64);
            }
        }
        let msg = a.pack_face(0, 0, Side::High, 1);
        c.unpack_ghost(0, 0, Side::Low, 1, &msg);
        for k in 0..2 {
            for j in 0..3 {
                let idx = c.idx(0, j + 1, k + 1);
                assert_eq!(c.var(0)[idx], a.get(0, 3, j, k));
            }
        }
    }

    #[test]
    fn vars_mut_splits_disjointly() {
        let mut b = SoaBlock::new(&sub(), 3);
        let [a, c, d] = b.vars_mut();
        a.fill(1.0);
        c.fill(2.0);
        d.fill(3.0);
        assert!(b.var(0).iter().all(|&v| v == 1.0));
        assert!(b.var(1).iter().all(|&v| v == 2.0));
        assert!(b.var(2).iter().all(|&v| v == 3.0));
    }

    #[test]
    fn copy_from_duplicates_the_whole_slab() {
        let mut a = SoaBlock::new(&sub(), 2);
        let mut b = SoaBlock::new(&sub(), 2);
        a.fill(0, 3.0);
        a.fill(1, -1.5);
        b.copy_from(&a);
        assert_eq!(a.slab(), b.slab());
    }

    #[test]
    fn fill_owned_leaves_ghosts_alone() {
        let mut b = SoaBlock::new(&sub(), 2);
        b.fill(0, -1.0);
        b.fill_owned(0, 2.0);
        assert_eq!(b.get(0, 0, 0, 0), 2.0);
        assert_eq!(b.var(0)[0], -1.0);
        assert_eq!(b.sum_owned(0), 2.0 * (4 * 3 * 2) as f64);
    }
}
