//! Every mode's rank layout, box for box.
//!
//! One line per (grid, mode, fraction) on both node presets: the grid,
//! then each rank's owned box `x0:x1,y0:y1,z0:z1` and owner (`gN` for
//! GPU `N`, `c` for a CPU core) in rank order — or `! why` where the
//! grid cannot host the mode's ranks. Heterogeneous lines also carry
//! the balancer's granularity floor (`runner::hetero_min_fraction`).
//! The grids are the first, middle and last point of every figure,
//! plus odd extents and grids some mode cannot carve. The files under
//! `tests/golden/decomp/` were written by the code that still had one
//! decomposition function per mode; a change to one of them is a
//! change to which rank computes which zones.
//!
//! A file that differs is written out whole to the temp directory
//! (the failure names the path), for a deliberate layout change to
//! copy over the golden.

use heterosim::core::figures::all_figures;
use heterosim::core::runner::{build_decomposition, hetero_min_fraction};
use heterosim::core::{ExecMode, NodeConfig, RunConfig};
use heterosim::mesh::{Decomposition, OwnerKind};

/// The fractions every Heterogeneous grid is cut at.
const FRACTIONS: [f64; 6] = [0.0, 0.01, 0.05, 0.15, 0.30, 0.49];

fn grids() -> Vec<(usize, usize, usize)> {
    let mut grids = Vec::new();
    for fig in all_figures() {
        let points = fig.points();
        for i in [0, points.len() / 2, points.len() - 1] {
            grids.push(points[i].grid());
        }
    }
    grids.extend([
        // Odd extents: remainders land on the leading pieces.
        (64, 101, 63),
        (37, 23, 11),
        (65, 49, 33),
        (64, 48, 32),
        (320, 40, 320),
        (31, 97, 7),
        // Grids some mode cannot carve.
        (64, 64, 2),
        (64, 3, 64),
        (32, 1, 32),
        (64, 64, 1),
        (3, 3, 3),
        (1, 1, 1),
        (64, 8, 4),
        (64, 7, 7),
    ]);
    let mut seen = std::collections::HashSet::new();
    grids.retain(|&g| seen.insert(g));
    grids
}

fn layout(d: &Decomposition) -> String {
    let owner = |o: OwnerKind| match o {
        OwnerKind::Gpu(g) => format!("g{g}"),
        OwnerKind::Cpu => "c".to_string(),
    };
    let boxes: Vec<String> = (d.domains.iter().zip(&d.owners))
        .map(|(s, &o)| {
            format!(
                "{}:{},{}:{},{}:{}{}",
                s.lo[0],
                s.hi[0],
                s.lo[1],
                s.hi[1],
                s.lo[2],
                s.hi[2],
                owner(o)
            )
        })
        .collect();
    boxes.join(" ")
}

/// One line: the grid, the mode (and fraction), then the layout.
fn line(node: &NodeConfig, grid: (usize, usize, usize), mode: ExecMode, fraction: f64) -> String {
    let mut cfg = RunConfig::sweep(grid, mode);
    cfg.node = node.clone();
    let (nx, ny, nz) = grid;
    let mut out = format!("{nx},{ny},{nz} {}", mode.key());
    if matches!(mode, ExecMode::Heterogeneous { .. }) {
        out += &format!(" f={fraction}");
        match hetero_min_fraction(&cfg) {
            Ok(floor) => out += &format!(" floor={floor:?}"),
            Err(e) => out += &format!(" floor! {e}"),
        }
    }
    match build_decomposition(&cfg, fraction) {
        Ok(d) => out += &format!(" | {}", layout(&d)),
        Err(e) => out += &format!(" ! {e}"),
    }
    out + "\n"
}

/// Compare one golden file, line by line.
fn check(file: &str, got: String) {
    let path = format!("{}/tests/golden/decomp/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).expect("read the golden");
    if got != want {
        let fresh = std::env::temp_dir().join(format!("hsim-decomp-{file}"));
        std::fs::write(&fresh, &got).expect("write the new layout");
        eprintln!("{file}: the new layout is in {}", fresh.display());
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{file}:{}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{file}");
}

/// Every mode's file for one node preset: `<preset>-<mode key>.txt`,
/// one Heterogeneous file per fraction.
fn preset(node: NodeConfig, name: &str) {
    let cases = [
        ExecMode::CpuOnly,
        ExecMode::Default,
        ExecMode::Mps { per_gpu: 2 },
        ExecMode::mps4(),
    ]
    .map(|mode| (mode, 0.0, mode.key()))
    .into_iter()
    .chain(FRACTIONS.map(|f| (ExecMode::hetero(), f, format!("hetero-{f}"))));
    for (mode, f, key) in cases {
        let got = grids()
            .into_iter()
            .map(|grid| line(&node, grid, mode, f))
            .collect();
        check(&format!("{name}-{key}.txt"), got);
    }
}

#[test]
fn rzhasgpu() {
    preset(NodeConfig::rzhasgpu(), "rzhasgpu");
}

#[test]
fn sierra() {
    preset(NodeConfig::sierra_ea(), "sierra");
}
