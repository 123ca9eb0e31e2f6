pub fn sweep(exec: &mut Exec, tiles: &TileSet2, u: &[f64], out: &mut [f64]) {
    let n = 8;
    exec.run_tiles(tiles, |tile| {
        for j in tile.j0..tile.j1 {
            let row = &u[j * n..(j + 1) * n];
            let mut tgt = claim(out, j);
            for i in 0..n {
                tgt[i] = row[i] * 0.5;
            }
        }
    });
}

pub fn outside_is_fine(u: &[f64]) -> f64 {
    u[0] + u[1]
}

pub fn masses(exec: &mut Exec, tiles: &TileSet2, rho: &[f64]) -> Vec<f64> {
    let n = 8;
    exec.run_tiles(tiles, |tile| {
        let peek = |j: usize| rho[j * n];
        let mut acc = 0.0;
        for j in tile.j0..tile.j1 {
            acc += peek(j) + rho[j * n + 1];
        }
        acc
    })
}
