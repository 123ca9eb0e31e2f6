//! Multi-variable structure-of-arrays storage for one subdomain.
//!
//! A [`SoaBlock`] packs `nvar` zone-centered variables into a single
//! contiguous `f64` slab, var-major: variable `v`'s core+ghost box
//! occupies `data[v*var_len .. (v+1)*var_len]`, x fastest inside the
//! box. Cache-blocked kernels can then walk all variables of a tile
//! while it is resident in cache, and per-variable views (`var`,
//! `var_mut`) recover the classic one-field-at-a-time API.
//!
//! Per-variable geometry (pack/unpack/reflect/fill/sum) is written
//! once, as free functions over one variable's core+ghost box at the
//! bottom of this module.

use crate::domain::Subdomain;

/// Which side of an axis a face is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Low,
    High,
}

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
        dims_of(self.core, self.ghost)
    }

    /// Core (owned) extents.
    pub fn core(&self) -> [usize; 3] {
        self.core
    }

    /// Strides (x, y, z) within one variable's box, x fastest.
    pub fn strides(&self) -> [usize; 3] {
        strides_of(self.core, self.ghost)
    }

    /// Linear index within one variable's box, in allocated
    /// coordinates (ghosts addressable).
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        idx_in(self.core, self.ghost, i, j, k)
    }

    /// Linear index within one variable's box, in owned coordinates.
    #[inline]
    pub fn idx_owned(&self, i: usize, j: usize, k: usize) -> usize {
        idx_owned_in(self.core, self.ghost, i, j, k)
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
        fill_owned_in(core, g, self.var_mut(v), val);
    }

    /// Sum of variable `v`'s owned entries (conservation checks).
    pub fn sum_owned(&self, v: usize) -> f64 {
        sum_owned_in(self.core, self.ghost, self.var(v))
    }

    /// Pack an arbitrary box `[lo, hi)` of variable `v` in allocated
    /// coordinates.
    pub fn pack_box(&self, v: usize, lo: [usize; 3], hi: [usize; 3]) -> Vec<f64> {
        let mut out = Vec::new();
        self.pack_box_into(v, lo, hi, &mut out);
        out
    }

    /// [`SoaBlock::pack_box`], appended to `out`.
    pub fn pack_box_into(&self, v: usize, lo: [usize; 3], hi: [usize; 3], out: &mut Vec<f64>) {
        pack_box_in(self.core, self.ghost, self.var(v), lo, hi, out);
    }

    /// Unpack a buffer into the box `[lo, hi)` of variable `v`.
    pub fn unpack_box(&mut self, v: usize, lo: [usize; 3], hi: [usize; 3], buf: &[f64]) {
        let (core, g) = (self.core, self.ghost);
        unpack_box_in(core, g, self.var_mut(v), lo, hi, buf);
    }

    /// Mirror variable `v`'s owned boundary layer into its ghost layer
    /// on a physical boundary.
    pub fn reflect_into_ghost(&mut self, v: usize, axis: usize, side: Side, sign: f64) {
        let (core, g) = (self.core, self.ghost);
        reflect_into_ghost_in(core, g, self.var_mut(v), axis, side, sign);
    }
}

// ---------------------------------------------------------------------------
// Geometry of one variable's box: a dense core+ghost box, x fastest,
// parameterized by (core, ghost, data-slice).
// ---------------------------------------------------------------------------

fn dims_of(core: [usize; 3], ghost: usize) -> [usize; 3] {
    let g = 2 * ghost;
    [core[0] + g, core[1] + g, core[2] + g]
}

fn strides_of(core: [usize; 3], ghost: usize) -> [usize; 3] {
    let d = dims_of(core, ghost);
    [1, d[0], d[0] * d[1]]
}

#[inline]
fn idx_in(core: [usize; 3], ghost: usize, i: usize, j: usize, k: usize) -> usize {
    let s = strides_of(core, ghost);
    i + j * s[1] + k * s[2]
}

#[inline]
fn idx_owned_in(core: [usize; 3], ghost: usize, i: usize, j: usize, k: usize) -> usize {
    debug_assert!(i < core[0] && j < core[1] && k < core[2]);
    idx_in(core, ghost, i + ghost, j + ghost, k + ghost)
}

fn fill_owned_in(core: [usize; 3], ghost: usize, data: &mut [f64], v: f64) {
    let s = strides_of(core, ghost);
    for k in 0..core[2] {
        for j in 0..core[1] {
            let row = (k + ghost) * s[2] + (j + ghost) * s[1] + ghost;
            data[row..row + core[0]].fill(v);
        }
    }
}

fn sum_owned_in(core: [usize; 3], ghost: usize, data: &[f64]) -> f64 {
    let s = strides_of(core, ghost);
    let mut total = 0.0;
    for k in 0..core[2] {
        for j in 0..core[1] {
            let row = (k + ghost) * s[2] + (j + ghost) * s[1] + ghost;
            total += data[row..row + core[0]].iter().sum::<f64>();
        }
    }
    total
}

fn pack_box_in(
    core: [usize; 3],
    ghost: usize,
    data: &[f64],
    lo: [usize; 3],
    hi: [usize; 3],
    out: &mut Vec<f64>,
) {
    let d = dims_of(core, ghost);
    assert!(
        (0..3).all(|a| lo[a] < hi[a] && hi[a] <= d[a]),
        "box {lo:?}..{hi:?} outside field dims {d:?}"
    );
    let s = strides_of(core, ghost);
    let n = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    out.reserve(n);
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            let base = lo[0] + j * s[1] + k * s[2];
            out.extend_from_slice(&data[base..base + (hi[0] - lo[0])]);
        }
    }
}

fn unpack_box_in(
    core: [usize; 3],
    ghost: usize,
    data: &mut [f64],
    lo: [usize; 3],
    hi: [usize; 3],
    buf: &[f64],
) {
    let d = dims_of(core, ghost);
    assert!(
        (0..3).all(|a| lo[a] < hi[a] && hi[a] <= d[a]),
        "box {lo:?}..{hi:?} outside field dims {d:?}"
    );
    let n = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    assert_eq!(buf.len(), n, "buffer length mismatch");
    let s = strides_of(core, ghost);
    let mut cursor = 0;
    let run = hi[0] - lo[0];
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            let base = lo[0] + j * s[1] + k * s[2];
            data[base..base + run].copy_from_slice(&buf[cursor..cursor + run]);
            cursor += run;
        }
    }
}

/// Write `sign ×` each owned layer next to the `side` face of `axis`
/// into its mirror ghost layer — the nearest owned layer into the
/// nearest ghost layer — over the owned transverse extent.
fn reflect_into_ghost_in(
    core: [usize; 3],
    ghost: usize,
    data: &mut [f64],
    axis: usize,
    side: Side,
    sign: f64,
) {
    let g = ghost;
    let s = strides_of(core, ghost);
    let c = core[axis];
    // Allocated coordinates along `axis` of ghost layer `w` and of the
    // owned layer it mirrors.
    let layer = |w: usize| match side {
        Side::Low => (g - 1 - w, g + w),
        Side::High => (g + c + w, g + c - 1 - w),
    };
    if axis == 0 {
        // Along x both layers sit in every owned row.
        for k in g..g + core[2] {
            for j in g..g + core[1] {
                let row = &mut data[j * s[1] + k * s[2]..][..s[1]];
                for w in 0..g {
                    let (dst, src) = layer(w);
                    row[dst] = sign * row[src];
                }
            }
        }
        return;
    }
    // Across y or z each layer is a set of owned x-runs, one per owned
    // row along the other transverse axis.
    let other = 3 - axis;
    for w in 0..g {
        let (dst, src) = layer(w);
        for y in g..g + core[other] {
            let run = |at: usize| at * s[axis] + y * s[other] + g;
            let (src, dst) = (run(src), run(dst));
            let (from, to) = if src < dst {
                let (lo, hi) = data.split_at_mut(dst);
                (&lo[src..src + core[0]], &mut hi[..core[0]])
            } else {
                let (lo, hi) = data.split_at_mut(src);
                (&hi[..core[0]], &mut lo[dst..dst + core[0]])
            };
            for (t, f) in to.iter_mut().zip(from) {
                *t = sign * f;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reflect_into_ghost_mirrors_with_sign() {
        // Two ghost layers: the nearest owned layer lands in the
        // nearest ghost layer, along x (interleaved in a row) and
        // along z (whole planes).
        let mut b = SoaBlock::new(&Subdomain::new([0, 0, 0], [4, 3, 3], 2), 2);
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..4 {
                    b.set(1, i, j, k, (1 + i + 10 * j + 100 * k) as f64);
                }
            }
        }
        b.reflect_into_ghost(1, 0, Side::Low, -1.0);
        b.reflect_into_ghost(1, 2, Side::High, 1.0);
        let at = |i, j, k| b.var(1)[b.idx(i, j, k)];
        let g = 2;
        for (w, owned) in [(1, 0), (0, 1)] {
            assert_eq!(at(w, g, g), -b.get(1, owned, 0, 0), "x ghost {w}");
        }
        for (w, owned) in [(g + 3, 2), (g + 4, 1)] {
            assert_eq!(at(g + 3, g + 2, w), b.get(1, 3, 2, owned), "z ghost {w}");
        }
        assert!(b.var(0).iter().all(|&v| v == 0.0), "var 0 untouched");
    }

    #[test]
    fn every_face_mirrors_its_owned_layers_and_touches_nothing_else() {
        for g in [1, 2] {
            for axis in 0..3 {
                for (side, sign) in [(Side::Low, -1.0), (Side::High, 0.5)] {
                    let mut b = SoaBlock::new(&Subdomain::new([0, 0, 0], [5, 4, 3], g), 1);
                    let d = b.dims();
                    for (n, v) in b.var_mut(0).iter_mut().enumerate() {
                        *v = n as f64;
                    }
                    let before = b.clone();
                    b.reflect_into_ghost(0, axis, side, sign);
                    let c = b.core()[axis];
                    for k in 0..d[2] {
                        for j in 0..d[1] {
                            for i in 0..d[0] {
                                let at = [i, j, k];
                                let owned_across = (0..3)
                                    .filter(|&a| a != axis)
                                    .all(|a| at[a] >= g && at[a] < g + b.core()[a]);
                                let x = at[axis];
                                let mirror = match side {
                                    Side::Low if x < g => Some(2 * g - 1 - x),
                                    Side::High if x >= g + c => Some(2 * (g + c) - 1 - x),
                                    _ => None,
                                };
                                let got = b.var(0)[b.idx(i, j, k)];
                                let expect = match mirror {
                                    Some(m) if owned_across => {
                                        let mut src = at;
                                        src[axis] = m;
                                        sign * before.var(0)[b.idx(src[0], src[1], src[2])]
                                    }
                                    _ => before.var(0)[b.idx(i, j, k)],
                                };
                                assert_eq!(got, expect, "g {g} axis {axis} {side:?} at {at:?}");
                            }
                        }
                    }
                }
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

    #[test]
    #[should_panic(expected = "outside field dims")]
    fn a_box_past_the_ghosts_panics() {
        let b = SoaBlock::new(&sub(), 1);
        let _ = b.pack_box(0, [0, 0, 0], [7, 5, 4]);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn unpack_checks_buffer_length() {
        let mut b = SoaBlock::new(&sub(), 1);
        b.unpack_box(0, [1, 1, 1], [5, 4, 3], &[0.0; 5]);
    }
}
