//! Tile sets: the y–z tiling of a 3D iteration space that the fused
//! cache-blocked sweeps iterate over.

/// One y–z tile of a 3D iteration space: the j/k half-open ranges a
/// cache-blocked kernel sweeps while the x runs inside stay whole rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile2 {
    pub j0: usize,
    pub j1: usize,
    pub k0: usize,
    pub k1: usize,
}

/// A y–z tiling of a `ny × nz` plane: the tiled iteration policy for
/// fused cache-blocked sweeps. Tiles are enumerated j-fastest (tile
/// row-major), matching the serial k-outer/j-inner visit order, and
/// partition the plane exactly — every (j, k) lands in one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSet2 {
    ty: usize,
    tz: usize,
    tiles_y: usize,
    tiles_z: usize,
    ny: usize,
    nz: usize,
}

impl TileSet2 {
    /// Tile a `ny × nz` plane with `tile = [ty, tz]` blocks (clamped
    /// to at least 1×1; edge tiles are trimmed to the plane).
    pub fn new(ny: usize, nz: usize, tile: [usize; 2]) -> Self {
        let ty = tile[0].max(1);
        let tz = tile[1].max(1);
        TileSet2 {
            ty,
            tz,
            tiles_y: ny.div_ceil(ty),
            tiles_z: nz.div_ceil(tz),
            ny,
            nz,
        }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles_y * self.tiles_z
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The requested (clamped) tile shape `[ty, tz]`.
    pub fn tile_shape(&self) -> [usize; 2] {
        [self.ty, self.tz]
    }

    /// The `idx`-th tile, j-fastest.
    pub fn tile(&self, idx: usize) -> Tile2 {
        debug_assert!(idx < self.len());
        let jt = idx % self.tiles_y;
        let kt = idx / self.tiles_y;
        let j0 = jt * self.ty;
        let k0 = kt * self.tz;
        Tile2 {
            j0,
            j1: (j0 + self.ty).min(self.ny),
            k0,
            k1: (k0 + self.tz).min(self.nz),
        }
    }

    /// Iterate tiles in handout order.
    pub fn iter(&self) -> impl Iterator<Item = Tile2> + '_ {
        (0..self.len()).map(|i| self.tile(i))
    }

    /// The tiled plane's extents `[ny, nz]`.
    pub fn plane(&self) -> [usize; 2] {
        [self.ny, self.nz]
    }

    /// The handout index of `tile`. Panics if `tile` is not one of
    /// this set's tiles.
    pub fn index_of(&self, tile: Tile2) -> usize {
        let idx = (tile.k0 / self.tz) * self.tiles_y + tile.j0 / self.ty;
        assert!(
            tile.j0 < self.ny && tile.k0 < self.nz && self.tile(idx) == tile,
            "{tile:?} is not a tile of this set"
        );
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tileset_partitions_the_plane_exactly() {
        for (ny, nz, tile) in [
            (7usize, 5usize, [3usize, 2usize]),
            (8, 8, [8, 8]),
            (1, 9, [4, 4]),
            (6, 6, [16, 16]),
        ] {
            let tiles = TileSet2::new(ny, nz, tile);
            let mut hits = vec![0u32; ny * nz];
            for t in tiles.iter() {
                assert!(t.j0 < t.j1 && t.j1 <= ny, "{t:?}");
                assert!(t.k0 < t.k1 && t.k1 <= nz, "{t:?}");
                for k in t.k0..t.k1 {
                    for j in t.j0..t.j1 {
                        hits[k * ny + j] += 1;
                    }
                }
            }
            assert!(
                hits.iter().all(|&h| h == 1),
                "ny={ny} nz={nz} tile={tile:?}"
            );
        }
    }

    #[test]
    fn tileset_handout_order_is_j_fastest() {
        let tiles = TileSet2::new(4, 4, [2, 2]);
        assert_eq!(tiles.len(), 4);
        let order: Vec<(usize, usize)> = tiles.iter().map(|t| (t.j0, t.k0)).collect();
        assert_eq!(order, vec![(0, 0), (2, 0), (0, 2), (2, 2)]);
    }

    #[test]
    fn every_tile_knows_its_handout_index() {
        let tiles = TileSet2::new(7, 5, [3, 2]);
        assert_eq!(tiles.plane(), [7, 5]);
        for (idx, t) in tiles.iter().enumerate() {
            assert_eq!(tiles.index_of(t), idx);
        }
    }

    #[test]
    fn tileset_clamps_degenerate_shapes() {
        let tiles = TileSet2::new(3, 3, [0, 0]);
        assert_eq!(tiles.tile_shape(), [1, 1]);
        assert_eq!(tiles.len(), 9);
        assert!(TileSet2::new(0, 5, [4, 4]).is_empty());
    }
}
