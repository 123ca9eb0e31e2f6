//! Zone- and node-centered fields over a subdomain.
//!
//! A `Field` owns a dense `f64` array covering the subdomain's owned
//! extent plus its ghost layer, x fastest. Kernels written against the
//! portability layer receive the raw slice and strides; the pack/
//! unpack helpers here implement the functional side of the halo
//! exchange.
//!
//! The geometry itself (dims/strides/pack/unpack/reflect over one
//! core+ghost box) is implemented once as free functions at the bottom
//! of this module, shared with the multi-variable
//! [`SoaBlock`](crate::soa::SoaBlock) slab.

use crate::domain::Subdomain;

/// Where values live on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Centering {
    /// One value per zone (density, pressure, energy…).
    Zone,
    /// One value per node (velocity, position…): extents + 1.
    Node,
}

/// Which side of an axis a face is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Low,
    High,
}

/// A dense field on one subdomain (owned + ghost).
#[derive(Debug, Clone)]
pub struct Field {
    data: Vec<f64>,
    /// Core (owned) extents, excluding ghosts, in field units
    /// (zones, or zones+1 for node centering).
    core: [usize; 3],
    ghost: usize,
    centering: Centering,
}

impl Field {
    /// Allocate a zero-filled field for `sub`.
    pub fn new(sub: &Subdomain, centering: Centering) -> Self {
        let bump = match centering {
            Centering::Zone => 0,
            Centering::Node => 1,
        };
        let core = [
            sub.extent(0) + bump,
            sub.extent(1) + bump,
            sub.extent(2) + bump,
        ];
        let g = sub.ghost;
        let len = (core[0] + 2 * g) * (core[1] + 2 * g) * (core[2] + 2 * g);
        Field {
            data: vec![0.0; len],
            core,
            ghost: g,
            centering,
        }
    }

    pub fn centering(&self) -> Centering {
        self.centering
    }

    pub fn ghost(&self) -> usize {
        self.ghost
    }

    /// Total allocated extents (core + 2·ghost).
    pub fn dims(&self) -> [usize; 3] {
        dims_of(self.core, self.ghost)
    }

    /// Core (owned) extents.
    pub fn core(&self) -> [usize; 3] {
        self.core
    }

    /// Strides (x, y, z) of the allocated array, x fastest.
    pub fn strides(&self) -> [usize; 3] {
        strides_of(self.core, self.ghost)
    }

    /// Linear index of core-relative coordinates (may address ghosts
    /// with indices in `-ghost..core+ghost` shifted by `ghost`, i.e.
    /// callers pass *allocated* indices).
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        let s = self.strides();
        i + j * s[1] + k * s[2]
    }

    /// Linear index of owned coordinates (0-based within the core).
    #[inline]
    pub fn idx_owned(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.core[0] && j < self.core[1] && k < self.core[2]);
        let g = self.ghost;
        self.idx(i + g, j + g, k + g)
    }

    /// Value at owned coordinates.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx_owned(i, j, k)]
    }

    /// Set value at owned coordinates.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx_owned(i, j, k);
        self.data[idx] = v;
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Fill every entry (including ghosts).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Fill owned entries only.
    pub fn fill_owned(&mut self, v: f64) {
        fill_owned_in(self.core, self.ghost, &mut self.data, v);
    }

    /// Sum of owned entries (conservation checks).
    pub fn sum_owned(&self) -> f64 {
        sum_owned_in(self.core, self.ghost, &self.data)
    }

    /// Number of f64 values in one face strip of `width` layers.
    pub fn face_len(&self, axis: usize, width: usize) -> usize {
        face_len_of(self.core, axis, width)
    }

    /// Pack the outermost `width` owned layers on `side` of `axis`
    /// into a buffer (k, j, i ascending order).
    pub fn pack_face(&self, axis: usize, side: Side, width: usize) -> Vec<f64> {
        pack_face_in(self.core, self.ghost, &self.data, axis, side, width)
    }

    /// Unpack a neighbor's face buffer into the ghost layers on `side`
    /// of `axis` (the mirror of [`Field::pack_face`] on the peer).
    pub fn unpack_ghost(&mut self, axis: usize, side: Side, width: usize, buf: &[f64]) {
        unpack_ghost_in(
            self.core,
            self.ghost,
            &mut self.data,
            axis,
            side,
            width,
            buf,
        );
    }

    /// Pack an arbitrary box `[lo, hi)` in *allocated* local
    /// coordinates (so ghosts are addressable) into a buffer, k, j, i
    /// ascending.
    pub fn pack_box(&self, lo: [usize; 3], hi: [usize; 3]) -> Vec<f64> {
        pack_box_in(self.core, self.ghost, &self.data, lo, hi)
    }

    /// Unpack a buffer (as produced by [`Field::pack_box`]) into the
    /// box `[lo, hi)` in allocated local coordinates.
    pub fn unpack_box(&mut self, lo: [usize; 3], hi: [usize; 3], buf: &[f64]) {
        unpack_box_in(self.core, self.ghost, &mut self.data, lo, hi, buf);
    }

    /// Mirror the owned boundary layer into the ghost layer on a
    /// physical boundary (reflecting BC support).
    pub fn reflect_into_ghost(&mut self, axis: usize, side: Side, sign: f64) {
        reflect_into_ghost_in(self.core, self.ghost, &mut self.data, axis, side, sign);
    }
}

// ---------------------------------------------------------------------------
// Shared geometry kernels.
//
// One variable's geometry is a dense core+ghost box, x fastest. `Field`
// (one variable per allocation) and `SoaBlock` (all variables packed in
// one slab) share these implementations, parameterized by
// (core, ghost, data-slice) so neither container pays for the other.
// ---------------------------------------------------------------------------

pub(crate) fn dims_of(core: [usize; 3], ghost: usize) -> [usize; 3] {
    let g = 2 * ghost;
    [core[0] + g, core[1] + g, core[2] + g]
}

pub(crate) fn strides_of(core: [usize; 3], ghost: usize) -> [usize; 3] {
    let d = dims_of(core, ghost);
    [1, d[0], d[0] * d[1]]
}

#[inline]
pub(crate) fn idx_in(core: [usize; 3], ghost: usize, i: usize, j: usize, k: usize) -> usize {
    let s = strides_of(core, ghost);
    i + j * s[1] + k * s[2]
}

#[inline]
pub(crate) fn idx_owned_in(core: [usize; 3], ghost: usize, i: usize, j: usize, k: usize) -> usize {
    debug_assert!(i < core[0] && j < core[1] && k < core[2]);
    idx_in(core, ghost, i + ghost, j + ghost, k + ghost)
}

pub(crate) fn fill_owned_in(core: [usize; 3], ghost: usize, data: &mut [f64], v: f64) {
    let s = strides_of(core, ghost);
    for k in 0..core[2] {
        for j in 0..core[1] {
            let row = (k + ghost) * s[2] + (j + ghost) * s[1] + ghost;
            data[row..row + core[0]].fill(v);
        }
    }
}

pub(crate) fn sum_owned_in(core: [usize; 3], ghost: usize, data: &[f64]) -> f64 {
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

pub(crate) fn face_len_of(core: [usize; 3], axis: usize, width: usize) -> usize {
    let mut len = width;
    for (a, &extent) in core.iter().enumerate() {
        if a != axis {
            len *= extent;
        }
    }
    len
}

pub(crate) fn pack_face_in(
    core: [usize; 3],
    ghost: usize,
    data: &[f64],
    axis: usize,
    side: Side,
    width: usize,
) -> Vec<f64> {
    assert!(width <= core[axis], "face wider than the core");
    let range = |a: usize| -> (usize, usize) {
        if a == axis {
            match side {
                Side::Low => (0, width),
                Side::High => (core[a] - width, core[a]),
            }
        } else {
            (0, core[a])
        }
    };
    let (i0, i1) = range(0);
    let (j0, j1) = range(1);
    let (k0, k1) = range(2);
    let mut out = Vec::with_capacity((i1 - i0) * (j1 - j0) * (k1 - k0));
    for k in k0..k1 {
        for j in j0..j1 {
            let base = idx_owned_in(core, ghost, i0, j, k);
            out.extend_from_slice(&data[base..base + (i1 - i0)]);
        }
    }
    out
}

pub(crate) fn unpack_ghost_in(
    core: [usize; 3],
    ghost: usize,
    data: &mut [f64],
    axis: usize,
    side: Side,
    width: usize,
    buf: &[f64],
) {
    assert!(width <= ghost, "ghost layer narrower than the message");
    let g = ghost;
    // Ghost index range in allocated coordinates along `axis`.
    let range = |a: usize| -> (usize, usize) {
        if a == axis {
            match side {
                Side::Low => (g - width, g),
                Side::High => (g + core[a], g + core[a] + width),
            }
        } else {
            (g, g + core[a])
        }
    };
    let (i0, i1) = range(0);
    let (j0, j1) = range(1);
    let (k0, k1) = range(2);
    assert_eq!(buf.len(), (i1 - i0) * (j1 - j0) * (k1 - k0));
    let s = strides_of(core, ghost);
    let mut cursor = 0;
    for k in k0..k1 {
        for j in j0..j1 {
            let base = i0 + j * s[1] + k * s[2];
            let n = i1 - i0;
            data[base..base + n].copy_from_slice(&buf[cursor..cursor + n]);
            cursor += n;
        }
    }
}

pub(crate) fn pack_box_in(
    core: [usize; 3],
    ghost: usize,
    data: &[f64],
    lo: [usize; 3],
    hi: [usize; 3],
) -> Vec<f64> {
    let d = dims_of(core, ghost);
    assert!(
        (0..3).all(|a| lo[a] < hi[a] && hi[a] <= d[a]),
        "box {lo:?}..{hi:?} outside field dims {d:?}"
    );
    let s = strides_of(core, ghost);
    let n = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    let mut out = Vec::with_capacity(n);
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            let base = lo[0] + j * s[1] + k * s[2];
            out.extend_from_slice(&data[base..base + (hi[0] - lo[0])]);
        }
    }
    out
}

pub(crate) fn unpack_box_in(
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

pub(crate) fn reflect_into_ghost_in(
    core: [usize; 3],
    ghost: usize,
    data: &mut [f64],
    axis: usize,
    side: Side,
    sign: f64,
) {
    let g = ghost;
    if g == 0 {
        return;
    }
    let face = pack_face_in(core, ghost, data, axis, side, g);
    // Reverse the layer order along `axis` so the nearest owned
    // layer lands in the nearest ghost layer.
    let mut mirrored = vec![0.0; face.len()];
    let layer = face_len_of(core, axis, 1);
    debug_assert_eq!(face.len(), layer * g);
    // pack_face orders k,j,i ascending; along x the layers are
    // interleaved, so handle the general case index-wise.
    if axis == 0 {
        // For axis 0 the "layers" are contiguous runs of length g
        // within each row; easier to mirror via index arithmetic.
        let rows = face.len() / g;
        for r in 0..rows {
            for w in 0..g {
                mirrored[r * g + w] = sign * face[r * g + (g - 1 - w)];
            }
        }
    } else {
        for w in 0..g {
            let src = &face[w * layer..(w + 1) * layer];
            let dst = &mut mirrored[(g - 1 - w) * layer..(g - w) * layer];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = sign * s;
            }
        }
    }
    unpack_ghost_in(core, ghost, data, axis, side, g, &mirrored);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> Subdomain {
        Subdomain::new([0, 0, 0], [4, 3, 2], 1)
    }

    #[test]
    fn zone_field_dimensions() {
        let f = Field::new(&sub(), Centering::Zone);
        assert_eq!(f.core(), [4, 3, 2]);
        assert_eq!(f.dims(), [6, 5, 4]);
        assert_eq!(f.data().len(), 6 * 5 * 4);
        assert_eq!(f.strides(), [1, 6, 30]);
    }

    #[test]
    fn node_field_is_one_larger() {
        let f = Field::new(&sub(), Centering::Node);
        assert_eq!(f.core(), [5, 4, 3]);
        assert_eq!(f.centering(), Centering::Node);
    }

    #[test]
    fn get_set_roundtrip_in_owned_region() {
        let mut f = Field::new(&sub(), Centering::Zone);
        f.set(2, 1, 1, 7.5);
        assert_eq!(f.get(2, 1, 1), 7.5);
        assert_eq!(f.get(0, 0, 0), 0.0);
    }

    #[test]
    fn fill_owned_leaves_ghosts_alone() {
        let mut f = Field::new(&sub(), Centering::Zone);
        f.fill(-1.0);
        f.fill_owned(2.0);
        assert_eq!(f.get(0, 0, 0), 2.0);
        // A ghost corner is still -1.
        assert_eq!(f.data()[0], -1.0);
        let zones = 4 * 3 * 2;
        assert_eq!(f.sum_owned(), 2.0 * zones as f64);
    }

    #[test]
    fn pack_face_extracts_the_right_strip() {
        let mut f = Field::new(&sub(), Centering::Zone);
        // Tag each owned entry with i + 10j + 100k.
        for k in 0..2 {
            for j in 0..3 {
                for i in 0..4 {
                    f.set(i, j, k, (i + 10 * j + 100 * k) as f64);
                }
            }
        }
        let hi_x = f.pack_face(0, Side::High, 1);
        assert_eq!(hi_x.len(), 3 * 2);
        assert!(hi_x.iter().all(|&v| (v as usize) % 10 == 3), "{hi_x:?}");
        let lo_y = f.pack_face(1, Side::Low, 1);
        assert_eq!(lo_y.len(), 4 * 2);
        assert!(lo_y.iter().all(|&v| ((v as usize) / 10).is_multiple_of(10)));
    }

    #[test]
    fn pack_unpack_between_neighbors_matches() {
        // Two neighbors along x: left's High face becomes right's Low
        // ghosts.
        let left_sub = Subdomain::new([0, 0, 0], [4, 3, 2], 1);
        let right_sub = Subdomain::new([4, 0, 0], [8, 3, 2], 1);
        let mut left = Field::new(&left_sub, Centering::Zone);
        let mut right = Field::new(&right_sub, Centering::Zone);
        for k in 0..2 {
            for j in 0..3 {
                for i in 0..4 {
                    left.set(i, j, k, (100 + i) as f64 + (10 * j + 100 * k) as f64);
                }
            }
        }
        let msg = left.pack_face(0, Side::High, 1);
        right.unpack_ghost(0, Side::Low, 1, &msg);
        // Right's low-x ghost at (g-1, j+g, k+g) equals left's i=3.
        let g = 1;
        for k in 0..2 {
            for j in 0..3 {
                let idx = right.idx(g - 1, j + g, k + g);
                assert_eq!(right.data()[idx], left.get(3, j, k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "face wider")]
    fn pack_wider_than_core_panics() {
        let f = Field::new(&sub(), Centering::Zone);
        let _ = f.pack_face(2, Side::Low, 3);
    }

    #[test]
    fn unpack_checks_buffer_length() {
        let mut f = Field::new(&sub(), Centering::Zone);
        let bad = vec![0.0; 5];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.unpack_ghost(0, Side::Low, 1, &bad);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reflect_into_ghost_mirrors_with_sign() {
        let mut f = Field::new(&sub(), Centering::Zone);
        for i in 0..4 {
            f.set(i, 0, 0, (i + 1) as f64);
        }
        f.reflect_into_ghost(0, Side::Low, -1.0);
        // Ghost at allocated (0, g, g) should be -value at owned i=0.
        let idx = f.idx(0, 1, 1);
        assert_eq!(f.data()[idx], -1.0);
    }

    #[test]
    fn face_len_matches_pack_len() {
        let f = Field::new(&sub(), Centering::Zone);
        for axis in 0..3 {
            assert_eq!(f.face_len(axis, 1), f.pack_face(axis, Side::Low, 1).len());
        }
    }
}
