//! Tile-claimed mutable rows of one contiguous slab.
//!
//! Fused tile kernels run on the work pool with each y–z tile writing
//! the x-rows of its own (j, k) range of an output slab. Rust cannot
//! express "many `&mut` rows of one slice, each owned by a different
//! worker" without interior mutability, so [`TiledSlabMut`] provides
//! exactly that: a shared view over an exclusively borrowed slab whose
//! tiles are each claimed once, with one atomic flag per tile. A
//! claimed tile ([`TileRows`]) hands out the rows of its own range
//! through `&mut self`, bounds-checked, so a second claim of a tile or
//! a row outside it is a deterministic panic instead of UB.
//!
//! This is the only `unsafe` the fused kernels need, and it is confined
//! to this module — `hsim-hydro` itself stays `#![forbid(unsafe_code)]`
//! and consumes rows through the safe claim API.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::indexset::{Tile2, TileSet2};

/// A shared view of a mutable var-major slab of boxes shaped `dims`
/// (x fastest), whose x-rows are claimed a tile at a time.
///
/// Tile coordinates are shifted by `offset`: a tile row `(j, k)` is the
/// slab's row at `(j + offset, k + offset)`, so tiles of the owned plane
/// address the allocated rows of a box with `offset` ghost layers.
pub struct TiledSlabMut<'a> {
    ptr: *mut f64,
    dims: [usize; 3],
    nvar: usize,
    tiles: TileSet2,
    offset: usize,
    claimed: Box<[AtomicBool]>,
    _slab: PhantomData<&'a mut [f64]>,
}

// SAFETY: the view is constructed from an exclusive `&mut [f64]`
// borrow held for 'a, so no other alias of the slab exists. Rows are
// reached only through `claim`, whose per-tile atomic swap makes at
// most one `TileRows` per tile, and a `TileRows` hands out only rows of
// its tile's (j, k) range; the tiles of a `TileSet2` partition the
// plane, so rows of different claims are disjoint memory.
unsafe impl Send for TiledSlabMut<'_> {}
// SAFETY: see the `Send` impl — concurrent `claim` calls are
// serialized per tile by the atomic flag, and disjoint tiles never
// share a row.
unsafe impl Sync for TiledSlabMut<'_> {}

impl<'a> TiledSlabMut<'a> {
    /// View `slab`, a whole number of boxes shaped `dims`, tiled by
    /// `tiles` shifted by `offset`. Panics if the slab is ragged or the
    /// shifted tiles overrun a box's y–z plane.
    pub fn new(slab: &'a mut [f64], dims: [usize; 3], tiles: TileSet2, offset: usize) -> Self {
        let var_len = dims[0] * dims[1] * dims[2];
        assert!(var_len > 0, "boxes must be non-empty");
        assert_eq!(
            slab.len() % var_len,
            0,
            "slab length {} is not a whole number of {dims:?} boxes",
            slab.len()
        );
        let [ny, nz] = tiles.plane();
        assert!(
            offset + ny <= dims[1] && offset + nz <= dims[2],
            "a {ny}×{nz} tiling shifted by {offset} overruns {dims:?} boxes"
        );
        TiledSlabMut {
            ptr: slab.as_mut_ptr(),
            dims,
            nvar: slab.len() / var_len,
            tiles,
            offset,
            claimed: (0..tiles.len()).map(|_| AtomicBool::new(false)).collect(),
            _slab: PhantomData,
        }
    }

    /// Claim `tile`'s rows for the life of the view. Panics if `tile`
    /// is not a tile of the view's set or was claimed before —
    /// disjoint-tile schedules claim each tile once, so a panic here
    /// means the tiling (not this view) is wrong.
    pub fn claim(&self, tile: Tile2) -> TileRows<'_> {
        let flag = &self.claimed[self.tiles.index_of(tile)];
        assert!(
            !flag.swap(true, Ordering::AcqRel),
            "tile {tile:?} claimed twice (overlapping tiles?)"
        );
        let shift = |r: Range<usize>| r.start + self.offset..r.end + self.offset;
        TileRows {
            ptr: self.ptr,
            dims: self.dims,
            nvar: self.nvar,
            j: shift(tile.j0..tile.j1),
            k: shift(tile.k0..tile.k1),
            _rows: PhantomData,
        }
    }
}

/// One claimed tile: exclusive access to the x-rows of every variable
/// at the slab's `(j, k)` in the tile's (shifted) range.
pub struct TileRows<'s> {
    ptr: *mut f64,
    dims: [usize; 3],
    nvar: usize,
    j: Range<usize>,
    k: Range<usize>,
    _rows: PhantomData<&'s mut [f64]>,
}

impl TileRows<'_> {
    /// Slab offset of variable `v`'s row at `(j, k)`. Panics unless the
    /// row belongs to this tile.
    fn start(&self, v: usize, j: usize, k: usize) -> usize {
        assert!(
            v < self.nvar && self.j.contains(&j) && self.k.contains(&k),
            "row (var {v}, j {j}, k {k}) is outside the tile (j {:?}, k {:?}, {} vars)",
            self.j,
            self.k,
            self.nvar
        );
        ((v * self.dims[2] + k) * self.dims[1] + j) * self.dims[0]
    }

    /// Variable `v`'s x-row at the slab's `(j, k)`.
    pub fn row(&mut self, v: usize, j: usize, k: usize) -> &mut [f64] {
        let start = self.start(v, j, k);
        // SAFETY: `start` is a row of this tile (checked above), so it
        // lies inside the slab the view borrows for its lifetime, and
        // no other claim reaches it (tiles are disjoint and claimed
        // once). The `&mut self` borrow keeps this the only live row
        // of the claim.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), self.dims[0]) }
    }

    /// Every variable's x-row at `(j, k)`, in variable order. `N` must
    /// be the slab's variable count.
    pub fn rows<const N: usize>(&mut self, j: usize, k: usize) -> [&mut [f64]; N] {
        assert_eq!(N, self.nvar, "rows::<{N}> of a {}-var slab", self.nvar);
        let starts: [usize; N] = std::array::from_fn(|v| self.start(v, j, k));
        // SAFETY: as in `row` — each start is a row of this tile; the
        // rows of distinct variables are disjoint windows, and the
        // `&mut self` borrow keeps them the claim's only live rows.
        starts.map(|s| unsafe { std::slice::from_raw_parts_mut(self.ptr.add(s), self.dims[0]) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkPool;

    /// Two variables of 4×3×2 boxes tiled by 1×1 over the 3×2 plane.
    fn small() -> (Vec<f64>, [usize; 3], TileSet2) {
        (vec![0.0; 2 * 24], [4, 3, 2], TileSet2::new(3, 2, [1, 1]))
    }

    #[test]
    fn tiles_partition_the_slab() {
        let (mut slab, dims, tiles) = small();
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        for tile in tiles.iter() {
            let mut rows = view.claim(tile);
            let [a, b] = rows.rows(tile.j0, tile.k0);
            a.fill((tile.j0 + 10 * tile.k0) as f64);
            b.fill(-1.0);
        }
        drop(view);
        for (r, row) in slab[..24].chunks(4).enumerate() {
            assert_eq!(row, [(r % 3 + 10 * (r / 3)) as f64; 4]);
        }
        assert!(slab[24..].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn an_offset_tile_reaches_the_shifted_rows() {
        // The owned 1×1 plane of boxes with one ghost layer.
        let mut slab = vec![0.0; 3 * 3 * 3];
        let tiles = TileSet2::new(1, 1, [4, 4]);
        let view = TiledSlabMut::new(&mut slab, [3, 3, 3], tiles, 1);
        let mut rows = view.claim(tiles.tile(0));
        rows.row(0, 1, 1).fill(7.0);
        drop(view);
        assert_eq!(slab[12..15], [7.0; 3]);
        assert_eq!(slab.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn claiming_a_tile_twice_panics() {
        let (mut slab, dims, tiles) = small();
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        // A claim lasts as long as the view, not as long as its rows.
        view.claim(tiles.tile(1)).row(0, 1, 0).fill(1.0);
        let _again = view.claim(tiles.tile(1));
    }

    #[test]
    #[should_panic(expected = "outside the tile")]
    fn a_row_outside_the_tile_panics() {
        let (mut slab, dims, tiles) = small();
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        let mut rows = view.claim(tiles.tile(0));
        let _ = rows.row(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "outside the tile")]
    fn a_variable_past_the_slab_panics() {
        let (mut slab, dims, tiles) = small();
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        let mut rows = view.claim(tiles.tile(0));
        let _ = rows.row(2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "not a tile of this set")]
    fn a_foreign_tile_cannot_be_claimed() {
        let (mut slab, dims, tiles) = small();
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        let _ = view.claim(Tile2 {
            j0: 0,
            j1: 2,
            k0: 0,
            k1: 1,
        });
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_slab_is_rejected() {
        let mut slab = vec![0.0f64; 25];
        let _ = TiledSlabMut::new(&mut slab, [4, 3, 2], TileSet2::new(3, 2, [1, 1]), 0);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn a_shifted_tiling_past_the_box_is_rejected() {
        let (mut slab, dims, tiles) = small();
        let _ = TiledSlabMut::new(&mut slab, dims, tiles, 1);
    }

    #[test]
    fn parallel_disjoint_tiles_each_land_once() {
        let pool = WorkPool::new(3);
        let dims = [16, 12, 10];
        let tiles = TileSet2::new(12, 10, [5, 3]);
        let mut slab = vec![0.0f64; 16 * 12 * 10];
        let view = TiledSlabMut::new(&mut slab, dims, tiles, 0);
        pool.for_each(0, tiles.len(), 1, |t| {
            let tile = tiles.tile(t);
            let mut rows = view.claim(tile);
            for k in tile.k0..tile.k1 {
                for j in tile.j0..tile.j1 {
                    for (i, v) in rows.row(0, j, k).iter_mut().enumerate() {
                        *v += ((k * 12 + j) * 16 + i) as f64;
                    }
                }
            }
        });
        drop(view);
        for (i, v) in slab.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }
}
