pub fn sweep(exec: &mut Exec, tiles: &TileSet2, u: &[f64], out: &mut [f64]) {
    let n = 8;
    exec.run_tiles(tiles, |tile| {
        for j in tile.j0..tile.j1 {
            let row = &u[j * n..(j + 1) * n];
            let mut guard = claim(out, j);
            let tgt = &mut guard[..];
            for (t, r) in tgt.iter_mut().zip(&row[..n]) {
                *t = *r * 0.5;
            }
            let _tail = &row[1..];
        }
    });
}

pub fn outside_run_tiles_may_index(u: &[f64]) -> f64 {
    u[0] + u[1]
}

pub fn masses(exec: &mut Exec, tiles: &TileSet2, rho: &[f64]) -> Vec<f64> {
    let n = 8;
    exec.run_tiles(tiles, |tile| {
        let mut acc = 0.0;
        for j in tile.j0..tile.j1 {
            let row = &rho[j * n..(j + 1) * n];
            for r in row.iter() {
                acc += *r;
            }
        }
        acc
    })
}

pub fn bound(exec: &mut Exec, tiles: &TileSet2, cs: &[f64]) -> f64 {
    let n = 8;
    exec.run_tiles_min(tiles, |tile| {
        let mut acc = f64::INFINITY;
        for j in tile.j0..tile.j1 {
            let [lo, _] = [&cs[j * n..], &cs[..j]];
            for c in &lo[..n] {
                acc = acc.min(*c);
            }
        }
        acc
    })
}
