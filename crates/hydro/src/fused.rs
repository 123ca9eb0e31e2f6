//! Fused cache-blocked hydro kernels — the production CPU path.
//!
//! The legacy modules ([`crate::eos`], [`crate::flux`],
//! [`crate::muscl`]) launch one fine-grained kernel per (pass,
//! variable, axis), so every pass streams the whole grid through cache
//! again. This module fuses each multi-kernel stage into a single pass over y–z
//! **tiles**: a tile's x-rows of every variable are loaded once, all
//! passes for that tile run while the rows are cache-resident, and the
//! tile writes its outputs through the rows of its one [`TiledSlabMut`]
//! claim. The stage sweep ([`sweep_from`]) goes furthest: per tile plane it
//! computes each kind of face once, all five fluxes in one call of a
//! face kernel, and writes each target row once, starting from the
//! value the RK step's save or combine would have left there
//! ([`Start`]). The two reconstruction orders share that sweep and
//! differ only in the face kernel: first order reads the zones on
//! either side of a face, MUSCL forms limited states from the four
//! zones bracketing it.
//!
//! Two invariants make the fusion invisible to everything downstream:
//!
//! 1. **Charge parity.** Each fused stage first replays the *exact*
//!    legacy launch sequence through [`Executor::charge3`] — same
//!    kernel descriptors, shapes, and order — so virtual time, launch
//!    counts, telemetry spans, and therefore every figure and trace
//!    byte are identical to the per-pass path. [`Executor::run_tiles`]
//!    itself charges nothing, [`charge_start`] charges the save and
//!    combine launches the stage sweep executes, and [`cfl_dt`] charges
//!    the CFL reduction whose min [`primitives_bound`] took.
//! 2. **Owned-zone bitwise identity.** Per owned zone, the fused
//!    arithmetic performs the same f64 operations in the same order as
//!    the legacy kernels (helpers below mirror the legacy loop bodies
//!    expression for expression): the save or combine expression, then
//!    the x, y and z flux differences in that order. Zones are
//!    independent within a pass, and faces on tile seams are recomputed
//!    by both neighboring tiles — pure functions of unmodified inputs,
//!    so both compute the same bits. Tile shape and worker count
//!    therefore never change results; the property tests in `tests/`
//!    check this exhaustively. Ghost zones are another matter: a sweep
//!    from [`Start::Snapshot`] or [`Start::Average`] leaves the target's
//!    ghosts as they were, where a whole-slab save or combine would
//!    rewrite them. That is invisible because no result that is kept depends
//!    on a ghost that `bc::apply` and the halo exchange have not just
//!    rewritten: the fluxes of owned zones read only face ghosts (the
//!    rows beside an owned row, at owned coordinates across), which
//!    those two rewrite every stage, and edge and corner ghosts feed
//!    only primitive values and ghost-column faces that are computed
//!    and dropped. `tests/ghosts_are_never_read.rs` and `hsim-core`'s
//!    multirank twin hold runs with every ghost poisoned to NaN between
//!    cycles to the bits of runs without.
//!
//! Row helpers live at module scope (not inside tile bodies): the
//! `tile-bounds` tidy lint forbids per-element indexing inside
//! `run_tiles` bodies, so bodies only carve ranges
//! and call helpers.
//!
//! The row helpers themselves are written for autovectorization:
//! every loop first re-borrows its operands as exact-length subslices
//! (so the compiler proves all bounds once, outside the loop), outputs
//! are parameters of their own (so no store may alias an input), each
//! output's physical-flux arm is fixed in the flux loop instead of
//! chosen per element (each arm keeps the legacy per-element
//! arithmetic, including the `+ 0.0` of the perpendicular-momentum
//! arm), the face normal is a const generic where a loop selects by it,
//! per-tile scratch is one contiguous [`ScratchArena`] allocation
//! carved into dense slabs, and MUSCL's per-face states sit in a
//! fixed-size stack chunk.

use hsim_gpu::GpuError;
use hsim_raja::{Executor, Fidelity, TileSet2, TiledSlabMut};
use hsim_time::RankClock;

use crate::kernels;
use crate::muscl::{minmod, Reconstruction};
use crate::state::{
    HydroState, ScratchArena, CS, EN, GAMMA, MX, MY, MZ, NCONS, PR, P_FLOOR, RHO, RHO_FLOOR, VX,
};

/// One variable's allocated x-row of a var-major slab at allocated
/// transverse coordinates `(j, k)`.
#[inline]
pub(crate) fn row_of(slab: &[f64], dims: [usize; 3], v: usize, j: usize, k: usize) -> &[f64] {
    let start = (v * dims[1] * dims[2] + k * dims[1] + j) * dims[0];
    &slab[start..start + dims[0]]
}

/// The owned-i interior of [`row_of`] (ghost ends trimmed).
#[inline]
fn owned_row(slab: &[f64], dims: [usize; 3], g: usize, v: usize, j: usize, k: usize) -> &[f64] {
    let row = row_of(slab, dims, v, j, k);
    &row[g..row.len() - g]
}

// ---------------------------------------------------------------------
// Primitive recovery (legacy: eos::primitives, 3 kernels).
// ---------------------------------------------------------------------

/// One row of the fused primitive recovery. Mirrors the legacy
/// VELOCITY → PRESSURE → SOUND_SPEED chain per element: the stored
/// intermediate values the legacy kernels re-read are recomputed here
/// from identical expressions, so the outputs agree bitwise.
#[allow(clippy::too_many_arguments)]
fn prim_row(
    rho: &[f64],
    mx: &[f64],
    my: &[f64],
    mz: &[f64],
    en: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    vz: &mut [f64],
    p: &mut [f64],
    cs: &mut [f64],
) {
    let n = rho.len();
    let (mx, my, mz, en) = (&mx[..n], &my[..n], &mz[..n], &en[..n]);
    let (vx, vy, vz) = (&mut vx[..n], &mut vy[..n], &mut vz[..n]);
    let (p, cs) = (&mut p[..n], &mut cs[..n]);
    for i in 0..n {
        let r = rho[i].max(RHO_FLOOR);
        let ux = mx[i] / r;
        let uy = my[i] / r;
        let uz = mz[i] / r;
        vx[i] = ux;
        vy[i] = uy;
        vz[i] = uz;
        let ke = 0.5 * r * (ux * ux + uy * uy + uz * uz);
        let pv = ((GAMMA - 1.0) * (en[i] - ke)).max(P_FLOOR);
        p[i] = pv;
        cs[i] = (GAMMA * pv / r).sqrt();
    }
}

/// The CFL bound of one owned row, `min h / (vmax + cs).max(1e-30)`
/// over its zones — the legacy CFL closure per element, from the
/// primitives [`prim_row`] just wrote.
fn cfl_row(vx: &[f64], vy: &[f64], vz: &[f64], cs: &[f64], h: f64) -> f64 {
    let n = cs.len();
    let (vx, vy, vz) = (&vx[..n], &vy[..n], &vz[..n]);
    let mut bound = f64::INFINITY;
    for i in 0..n {
        let vmax = vx[i].abs().max(vy[i].abs()).max(vz[i].abs());
        bound = bound.min(h / (vmax + cs[i]).max(1e-30));
    }
    bound
}

/// Fused primitive recovery: charges the legacy VELOCITY, PRESSURE,
/// SOUND_SPEED launches, then fills all five primitive variables in
/// one tiled pass over the allocated y–z plane.
pub fn primitives(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    recover(state, exec, clock, false).map(|_| ())
}

/// [`primitives`], also returning the owned zones' CFL bound `min h /
/// (vmax + cs).max(1e-30)`, which the same tiled pass takes as it
/// writes them: each tile's min, reduced over tiles with `min`. `min`
/// is exact and order-free, so the bound is bitwise the legacy CFL
/// reduction's ([`crate::eos::cfl_dt`]). Charges nothing for the
/// bound: [`cfl_dt`] charges the CFL launch in its own phase. Returns
/// `f64::INFINITY` under [`Fidelity::CostOnly`].
pub fn primitives_bound(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<f64, GpuError> {
    recover(state, exec, clock, true)
}

/// The CFL-limited timestep from a bound [`primitives_bound`] took:
/// charges the legacy CFL reduction (its launch and, on a GPU, its
/// 8-byte readback) and returns `cfl × bound`, or `cfl × (default /
/// cfl)` under [`Fidelity::CostOnly`] — bitwise [`crate::eos::cfl_dt`].
pub fn cfl_dt(
    state: &HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    bound: f64,
    cfl: f64,
    default: f64,
) -> Result<f64, GpuError> {
    exec.charge3_min(clock, &kernels::CFL, state.ext())?;
    let bound = match exec.fidelity {
        Fidelity::Full => bound,
        Fidelity::CostOnly => default / cfl,
    };
    Ok(cfl * bound)
}

/// The one primitive-recovery pass, taking the owned zones' CFL bound
/// as it goes if `bound` (`f64::INFINITY` otherwise).
fn recover(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    bound: bool,
) -> Result<f64, GpuError> {
    let ext = state.ext_all();
    exec.charge3(clock, &kernels::VELOCITY, ext)?;
    exec.charge3(clock, &kernels::PRESSURE, ext)?;
    exec.charge3(clock, &kernels::SOUND_SPEED, ext)?;
    if exec.fidelity != Fidelity::Full {
        return Ok(f64::INFINITY);
    }
    let dims = state.u.dims();
    let g = state.sub.ghost;
    let owned = state.ext();
    let h = state.dx();
    let tiles = TileSet2::new(dims[1], dims[2], state.tile);
    let (u, prim) = (&state.u, &mut state.prim);
    let u_slab = u.slab();
    let slab = TiledSlabMut::new(prim.slab_mut(), dims, tiles, 0);
    // Allocated rows whose zones are owned: the bound reads those.
    let n0 = owned[0];
    let in_owned = |j: usize, k: usize| {
        bound && (g..g + owned[1]).contains(&j) && (g..g + owned[2]).contains(&k)
    };
    Ok(exec.run_tiles_min(&tiles, |tile| {
        let mut rows = slab.claim(tile);
        let mut tile_bound = f64::INFINITY;
        for k in tile.k0..tile.k1 {
            for j in tile.j0..tile.j1 {
                let cons = |v| row_of(u_slab, dims, v, j, k);
                let [vx, vy, vz, p, cs] = rows.rows(j, k);
                prim_row(
                    cons(RHO),
                    cons(MX),
                    cons(MY),
                    cons(MZ),
                    cons(EN),
                    vx,
                    vy,
                    vz,
                    p,
                    cs,
                );
                if in_owned(j, k) {
                    let (i0, i1) = (g, g + n0);
                    let (vx, vy, vz) = (&vx[i0..i1], &vy[i0..i1], &vz[i0..i1]);
                    tile_bound = tile_bound.min(cfl_row(vx, vy, vz, &cs[i0..i1], h));
                }
            }
        }
        tile_bound
    }))
}

// ---------------------------------------------------------------------
// Stage start (charged as 5 SAVE_STATE or 5 COMBINE kernels).
// ---------------------------------------------------------------------

/// The value a stage's update starts from in each owned target zone.
///
/// The RK snapshot and the Heun combine are not passes of their own:
/// the stage sweep computes this value as it writes the zone. Only
/// owned zones get it: the target's ghost zones
/// keep whatever they held, which no kept result depends on before
/// `bc::apply` and the halo exchange rewrite them (see the module
/// doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// The target `u0` as it stands: the bare [`sweep`].
    Target,
    /// `u`: RK stage 1, absorbing the snapshot `u0 ← u`.
    Snapshot,
    /// `½u0 + ½u`: RK stage 2, absorbing the Heun combine.
    Average,
}

/// Charges the five legacy launches of the whole-slab step `start`
/// absorbs — SAVE_STATE for [`Start::Snapshot`], COMBINE for
/// [`Start::Average`], nothing for [`Start::Target`] — and runs no
/// arithmetic: the stage sweep started from `start` does that work.
pub fn charge_start(
    state: &HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    start: Start,
) -> Result<(), GpuError> {
    let kernel = match start {
        Start::Target => return Ok(()),
        Start::Snapshot => &kernels::SAVE_STATE,
        Start::Average => &kernels::COMBINE,
    };
    let ext = state.ext_all();
    for _ in 0..NCONS {
        exec.charge3(clock, kernel, ext)?;
    }
    Ok(())
}

/// Flux-difference update of one owned target row from the stage's
/// start: `t = ((start − s·Δ₁) − s·Δ₂) − …` over the `(lo, hi)` face
/// pairs in order — the legacy UPDATE arithmetic, axis after axis,
/// preceded by the save (`u`) or combine (`½t + ½u`) expression. `u`
/// is the matching owned row of `u`.
#[inline]
fn update_row<const N: usize>(
    t: &mut [f64],
    u: &[f64],
    start: Start,
    scale: f64,
    faces: [(&[f64], &[f64]); N],
) {
    match start {
        Start::Target => update_row_from(t, u, scale, faces, |t, _| t),
        Start::Snapshot => update_row_from(t, u, scale, faces, |_, u| u),
        Start::Average => update_row_from(t, u, scale, faces, |t, u| 0.5 * t + 0.5 * u),
    }
}

/// [`update_row`] with the start expression monomorphized, so the
/// element loop is branch-free over exact-length windows.
#[inline(always)]
fn update_row_from<const N: usize>(
    t: &mut [f64],
    u: &[f64],
    scale: f64,
    mut faces: [(&[f64], &[f64]); N],
    start: impl Fn(f64, f64) -> f64,
) {
    let n = t.len();
    let u = &u[..n];
    for (lo, hi) in &mut faces {
        (*lo, *hi) = (&lo[..n], &hi[..n]);
    }
    for i in 0..n {
        let mut x = start(t[i], u[i]);
        for (lo, hi) in &faces {
            x -= scale * (hi[i] - lo[i]);
        }
        t[i] = x;
    }
}

// ---------------------------------------------------------------------
// Stage sweep (legacy: flux::sweep, 33 kernels; muscl::sweep_muscl,
// 48 kernels — 16 per axis).
// ---------------------------------------------------------------------

/// One side of a run of faces: the slab elements from flat offset `at`
/// of each variable on, running on through the following rows of the
/// same plane. Along x the two sides are one run and the same run
/// shifted by one element; across y or z they are the runs starting
/// one row or one plane apart. The offset is flat, so MUSCL's outer
/// windows — the sides shifted one stride (`r − l`) back and forward —
/// are plain offsets too: along x they start one element before the
/// run and end one after it, in the neighbouring ghost rows (those
/// faces are computed and dropped), and every `l` side of
/// [`sweep_from`] starts at least one stride into the slab, so reaching
/// back cannot underflow.
#[derive(Clone, Copy)]
struct Side {
    at: usize,
}

impl Side {
    /// The run starting at element `i0` of the allocated x-row `(j, k)`.
    #[inline]
    fn new(dims: [usize; 3], j: usize, k: usize, i0: usize) -> Side {
        Side {
            at: (k * dims[1] + j) * dims[0] + i0,
        }
    }

    /// Variable `v`'s run of `slab` on this side, `n` long.
    #[inline]
    fn window(self, slab: &[f64], dims: [usize; 3], v: usize, n: usize) -> &[f64] {
        let var_len = dims[0] * dims[1] * dims[2];
        &slab[v * var_len + self.at..][..n]
    }

    /// What a first-order flux across faces normal to `axis` reads on
    /// this side, `n` faces long: the zone values themselves.
    #[inline]
    fn load<'a>(
        self,
        u: &'a [f64],
        prim: &'a [f64],
        dims: [usize; 3],
        axis: usize,
        n: usize,
    ) -> FaceSide<'a> {
        let (cons, prim) = (
            |v| self.window(u, dims, v, n),
            |v| self.window(prim, dims, v, n),
        );
        FaceSide::new(axis, cons, prim(VX + axis), prim(CS), prim(PR))
    }
}

/// The runs one side of a run of faces contributes to its fluxes: the
/// conserved variables with the momentum normal to the faces first
/// (`mn`) and the two transverse components after it (`mt`, `mu`),
/// then the normal velocity, sound speed and pressure.
struct FaceSide<'a> {
    rho: &'a [f64],
    mn: &'a [f64],
    mt: &'a [f64],
    mu: &'a [f64],
    en: &'a [f64],
    va: &'a [f64],
    cs: &'a [f64],
    p: &'a [f64],
}

impl<'a> FaceSide<'a> {
    /// The side whose conserved variable `v` is `cons(v)`.
    #[inline]
    fn new(
        axis: usize,
        cons: impl Fn(usize) -> &'a [f64],
        va: &'a [f64],
        cs: &'a [f64],
        p: &'a [f64],
    ) -> Self {
        FaceSide {
            rho: cons(RHO),
            mn: cons(MX + axis),
            mt: cons(MX + (axis + 1) % 3),
            mu: cons(MX + (axis + 2) % 3),
            en: cons(EN),
            va,
            cs,
            p,
        }
    }

    /// Every run cut to exactly `n` elements, so the flux loop's
    /// bounds are proven once, outside it.
    #[inline]
    fn cut(&self, n: usize) -> FaceSide<'_> {
        FaceSide {
            rho: &self.rho[..n],
            mn: &self.mn[..n],
            mt: &self.mt[..n],
            mu: &self.mu[..n],
            en: &self.en[..n],
            va: &self.va[..n],
            cs: &self.cs[..n],
            p: &self.p[..n],
        }
    }
}

/// The five flux runs of a var-major plane `out` (`NCONS` runs of
/// `out.len() / NCONS` faces) in [`FaceSide`] order for faces normal
/// to `axis`: ρ, the normal and the two transverse momenta, E.
fn flux_rows(out: &mut [f64], axis: usize) -> [&mut [f64]; NCONS] {
    let n = out.len() / NCONS;
    let (rho, rest) = out.split_at_mut(n);
    let (mx, rest) = rest.split_at_mut(n);
    let (my, rest) = rest.split_at_mut(n);
    let (mz, rest) = rest.split_at_mut(n);
    let en = &mut rest[..n];
    match axis {
        0 => [rho, mx, my, mz, en],
        1 => [rho, my, mz, mx, en],
        _ => [rho, mz, mx, my, en],
    }
}

/// A stage sweep's face kernel: all five fluxes across one run of
/// faces normal to `axis`, between sides `l` and `r` of `u` (with its
/// primitives `prim`), into the var-major plane `out`.
type FaceKernel = fn(&[f64], &[f64], [usize; 3], usize, Side, Side, &mut [f64]);

/// The first-order face kernel: the Rusanov fluxes of the zone values
/// on either side.
fn face_fluxes(
    u: &[f64],
    prim: &[f64],
    dims: [usize; 3],
    axis: usize,
    l: Side,
    r: Side,
    out: &mut [f64],
) {
    let f = flux_rows(out, axis);
    let n = f[0].len();
    let (l, r) = (
        l.load(u, prim, dims, axis, n),
        r.load(u, prim, dims, axis, n),
    );
    rusanov5(&l, &r, f);
}

/// Faces the MUSCL kernel reconstructs at a time: both sides' states
/// and face primitives, 16 runs of this length (8 KiB), stay on the
/// stack.
const MUSCL_CHUNK: usize = 64;

/// One side of a MUSCL chunk of faces: the five reconstructed
/// conserved variables, and the normal velocity, sound speed and
/// pressure of those states.
struct ChunkSide {
    q: [[f64; MUSCL_CHUNK]; NCONS],
    va: [f64; MUSCL_CHUNK],
    cs: [f64; MUSCL_CHUNK],
    p: [f64; MUSCL_CHUNK],
}

impl ChunkSide {
    const ZERO: ChunkSide = ChunkSide {
        q: [[0.0; MUSCL_CHUNK]; NCONS],
        va: [0.0; MUSCL_CHUNK],
        cs: [0.0; MUSCL_CHUNK],
        p: [0.0; MUSCL_CHUNK],
    };

    /// The normal velocity, sound speed and pressure of the first `m`
    /// states, for faces normal to `AXIS` — the legacy FACE_PRIMS
    /// closure verbatim, the normal component picked at compile time so
    /// the loop vectorizes.
    fn face_prims<const AXIS: usize>(&mut self, m: usize) {
        let [rho, mx, my, mz, en] = [RHO, MX, MY, MZ, EN].map(|v| &self.q[v][..m]);
        let (va, cs, p) = (&mut self.va[..m], &mut self.cs[..m], &mut self.p[..m]);
        for i in 0..m {
            let r = rho[i].max(RHO_FLOOR);
            let v = [mx[i] / r, my[i] / r, mz[i] / r];
            let ke = 0.5 * r * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
            let pv = ((GAMMA - 1.0) * (en[i] - ke)).max(P_FLOOR);
            va[i] = v[AXIS];
            cs[i] = (GAMMA * pv / r).sqrt();
            p[i] = pv;
        }
    }

    /// The first `m` faces of this side, as a flux reads them.
    fn load(&self, axis: usize, m: usize) -> FaceSide<'_> {
        let q = |v: usize| &self.q[v][..m];
        FaceSide::new(axis, q, &self.va[..m], &self.cs[..m], &self.p[..m])
    }
}

/// The MUSCL face kernel. A face's four bracketing zones are `l`, `r`
/// and the two shifted one stride (`r − l`) further out; per face it
/// forms the minmod-limited state of all five conserved variables on
/// each side (legacy MUSCL_RECON), their primitives (FACE_PRIMS), and
/// the Rusanov fluxes of those states (FLUX), `MUSCL_CHUNK` faces at a
/// time. `prim` is not read.
fn muscl_face_fluxes(
    u: &[f64],
    _prim: &[f64],
    dims: [usize; 3],
    axis: usize,
    l: Side,
    r: Side,
    out: &mut [f64],
) {
    let stride = r.at - l.at;
    let (lm, rp) = (Side { at: l.at - stride }, Side { at: r.at + stride });
    let mut f = flux_rows(out, axis);
    let n = f[0].len();
    let face_prims = match axis {
        0 => ChunkSide::face_prims::<0>,
        1 => ChunkSide::face_prims::<1>,
        _ => ChunkSide::face_prims::<2>,
    };
    let (mut sl, mut sr) = (ChunkSide::ZERO, ChunkSide::ZERO);
    for c0 in (0..n).step_by(MUSCL_CHUNK) {
        let m = MUSCL_CHUNK.min(n - c0);
        for v in 0..NCONS {
            let w = |s: Side| Side { at: s.at + c0 }.window(u, dims, v, m);
            let (ql, qr) = (&mut sl.q[v][..m], &mut sr.q[v][..m]);
            recon_row(w(lm), w(l), w(r), w(rp), ql, qr);
        }
        face_prims(&mut sl, m);
        face_prims(&mut sr, m);
        let [f_rho, f_mn, f_mt, f_mu, f_en] = &mut f;
        let runs = [f_rho, f_mn, f_mt, f_mu, f_en].map(|run| &mut run[c0..c0 + m]);
        rusanov5(&sl.load(axis, m), &sr.load(axis, m), runs);
    }
}

/// Rusanov fluxes of all five conserved variables across one run of
/// faces from one load of each side, into `f` in [`FaceSide`] order:
/// per face the max wavespeed `s`, then per variable `½(F_L + F_R) −
/// ½·s·(q_R − q_L)`. Each arm is the legacy [`crate::flux::phys_flux`]
/// / [`crate::muscl::phys_flux_axis`] expression, including the
/// transverse arm's `+ 0.0` (which maps `-0.0` to `+0.0`), and `s` is
/// the legacy WAVESPEED / FACE_PRIMS one, so every flux is bitwise the
/// legacy one. The outputs are parameters of their own so the compiler
/// knows no store aliases an input.
#[inline]
fn rusanov5(l: &FaceSide<'_>, r: &FaceSide<'_>, f: [&mut [f64]; NCONS]) {
    let [f_rho, f_mn, f_mt, f_mu, f_en] = f;
    let n = f_rho.len();
    let (l, r) = (l.cut(n), r.cut(n));
    let (f_mn, f_mt, f_mu, f_en) = (
        &mut f_mn[..n],
        &mut f_mt[..n],
        &mut f_mu[..n],
        &mut f_en[..n],
    );
    for i in 0..n {
        let s = (l.va[i].abs() + l.cs[i]).max(r.va[i].abs() + r.cs[i]);
        let rusanov = |fl: f64, fr: f64, ql: f64, qr: f64| 0.5 * (fl + fr) - 0.5 * s * (qr - ql);
        let (vl, vr, pl, pr) = (l.va[i], r.va[i], l.p[i], r.p[i]);
        let (rho, mn) = ((l.rho[i], r.rho[i]), (l.mn[i], r.mn[i]));
        let (mt, mu, en) = ((l.mt[i], r.mt[i]), (l.mu[i], r.mu[i]), (l.en[i], r.en[i]));
        f_rho[i] = rusanov(rho.0 * vl, rho.1 * vr, rho.0, rho.1);
        f_mn[i] = rusanov(mn.0 * vl + pl, mn.1 * vr + pr, mn.0, mn.1);
        f_mt[i] = rusanov(mt.0 * vl + 0.0, mt.1 * vr + 0.0, mt.0, mt.1);
        f_mu[i] = rusanov(mu.0 * vl + 0.0, mu.1 * vr + 0.0, mu.0, mu.1);
        f_en[i] = rusanov((en.0 + pl) * vl, (en.1 + pr) * vr, en.0, en.1);
    }
}

/// Minmod-limited face states of one variable over a run of faces from
/// its four bracketing windows (`q_lm`, `q_l` | `q_r`, `q_rp`). The
/// limiter is the branchless select form of [`minmod`], and all
/// operands are exact-length subslices.
fn recon_row(q_lm: &[f64], q_l: &[f64], q_r: &[f64], q_rp: &[f64], ql: &mut [f64], qr: &mut [f64]) {
    let n = ql.len();
    let (q_lm, q_l) = (&q_lm[..n], &q_l[..n]);
    let (q_r, q_rp) = (&q_r[..n], &q_rp[..n]);
    let qr = &mut qr[..n];
    for i in 0..n {
        let slope_l = minmod(q_l[i] - q_lm[i], q_r[i] - q_l[i]);
        let slope_r = minmod(q_r[i] - q_l[i], q_rp[i] - q_r[i]);
        ql[i] = q_l[i] + 0.5 * slope_l;
        qr[i] = q_r[i] - 0.5 * slope_r;
    }
}

/// Fused first-order sweep from the target as it stands (`u0 −=
/// dt·L(u)`): [`sweep_from`] with [`Start::Target`].
pub fn sweep(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    sweep_from(
        state,
        exec,
        clock,
        dt,
        Start::Target,
        Reconstruction::FirstOrder,
    )
}

/// Fused second-order MUSCL sweep from the target as it stands:
/// [`sweep_from`] with [`Start::Target`].
pub fn sweep_muscl(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    sweep_from(state, exec, clock, dt, Start::Target, Reconstruction::Muscl)
}

/// Fused stage sweep `u0 ← start − dt·L(u)` at reconstruction order
/// `recon`. Charges the legacy launch sequence, per axis: first order
/// WAVESPEED, MUSCL 5 MUSCL_RECON and FACE_PRIMS; then per variable
/// FLUX + UPDATE (33 launches, or 48). Then makes one pass per y–z
/// tile. At each k it computes the tile plane's x, y and high z faces
/// — all five fluxes in one kernel call per kind — and the low z faces
/// are carried from the previous k. Each of a row's five target rows
/// is then claimed once and written once, `t = ((start − s·Δx) − s·Δy)
/// − s·Δz`. MUSCL requires `state.sub.ghost >= 2`, like the legacy
/// path.
pub fn sweep_from(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
    start: Start,
    recon: Reconstruction,
) -> Result<(), GpuError> {
    let kernel: FaceKernel = match recon {
        Reconstruction::FirstOrder => face_fluxes,
        Reconstruction::Muscl => {
            assert!(
                state.sub.ghost >= 2,
                "MUSCL needs two ghost layers (got {})",
                state.sub.ghost
            );
            muscl_face_fluxes
        }
    };
    for axis in 0..3 {
        let fd = state.face_dims(axis);
        match recon {
            Reconstruction::FirstOrder => exec.charge3(clock, &kernels::WAVESPEED, fd)?,
            Reconstruction::Muscl => {
                for _var in 0..NCONS {
                    exec.charge3(clock, &kernels::MUSCL_RECON, fd)?;
                }
                exec.charge3(clock, &kernels::FACE_PRIMS, fd)?;
            }
        }
        for _var in 0..NCONS {
            exec.charge3(clock, &kernels::FLUX, fd)?;
            exec.charge3(clock, &kernels::UPDATE, state.ext())?;
        }
    }
    if exec.fidelity != Fidelity::Full {
        return Ok(());
    }
    let ext = state.ext();
    let dims = state.u.dims();
    let g = state.sub.ghost;
    let n0 = ext[0];
    let scale = dt / state.dx();
    let tiles = TileSet2::new(ext[1], ext[2], state.tile);
    let (u, prim, u0) = (&state.u, &state.prim, &mut state.u0);
    let u_slab = u.slab();
    let prim_slab = prim.slab();
    let slab = TiledSlabMut::new(u0.slab_mut(), dims, tiles, g);
    let d0 = dims[0];
    let faces = |axis, l, r, out: &mut [f64]| kernel(u_slab, prim_slab, dims, axis, l, r, out);
    exec.run_tiles(&tiles, |tile| {
        // At one k, the tile's x-rows (ghost columns included) are one
        // contiguous run of each variable. Each kind of face is computed
        // for the whole run in one call: x faces between neighbours
        // along the run, y faces against the run one row lower, z faces
        // against the run one plane up. Faces at ghost columns come out
        // too and are never read (MUSCL's first and last x faces reach
        // into the neighbouring rows). Scratch, carved from one
        // allocation: the run's x and y faces and the low and high
        // z-face planes.
        let mut rows = slab.claim(tile);
        let run = (tile.j1 - tile.j0) * d0;
        let mut arena = ScratchArena::zeroed(NCONS * (4 * run + d0 - 1));
        let mut carve = arena.carver();
        let fx = carve.take(NCONS * (run - 1));
        let fy = carve.take(NCONS * (run + d0));
        let (mut z_lo, mut z_hi) = (carve.take(NCONS * run), carve.take(NCONS * run));
        let aj0 = tile.j0 + g;
        let at = |j, k, i0| Side::new(dims, j, k, i0);
        for ak in tile.k0 + g..tile.k1 + g {
            if ak == tile.k0 + g {
                faces(2, at(aj0, ak - 1, 0), at(aj0, ak, 0), z_lo);
            }
            faces(0, at(aj0, ak, 0), at(aj0, ak, 1), fx);
            faces(1, at(aj0 - 1, ak, 0), at(aj0, ak, 0), fy);
            faces(2, at(aj0, ak, 0), at(aj0, ak + 1, 0), z_hi);
            for (row, aj) in (aj0..tile.j1 + g).enumerate() {
                // Owned zone i of this row is run element `o + i`: its x
                // faces are run faces `o + i − 1` and `o + i`, its y and
                // z faces sit at `o + i` of the low planes and one row
                // (y) or one plane (z) further on.
                let o = row * d0 + g;
                let xy = fx.chunks_exact(run - 1).zip(fy.chunks_exact(run + d0));
                let z = z_lo.chunks_exact(run).zip(z_hi.chunks_exact(run));
                for (var, ((fxv, fyv), (zl, zh))) in xy.zip(z).enumerate() {
                    let diffs = [
                        (&fxv[o - 1..o - 1 + n0], &fxv[o..o + n0]),
                        (&fyv[o..o + n0], &fyv[o + d0..o + d0 + n0]),
                        (&zl[o..o + n0], &zh[o..o + n0]),
                    ];
                    let t = &mut rows.row(var, aj, ak)[g..g + n0];
                    let u_row = owned_row(u_slab, dims, g, var, aj, ak);
                    update_row(t, u_row, start, scale, diffs);
                }
            }
            std::mem::swap(&mut z_lo, &mut z_hi);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, PerturbedConfig};
    use hsim_mesh::{GlobalGrid, Subdomain};
    use hsim_raja::{CpuModel, Target};

    fn perturbed(n: usize, ghost: usize) -> HydroState {
        let grid = GlobalGrid::new(n, n, n);
        let sub = Subdomain::new([0, 0, 0], [n, n, n], ghost);
        let mut st = HydroState::new(grid, sub, Fidelity::Full);
        workload::init(&mut st, &PerturbedConfig::default());
        for var in 0..NCONS {
            for axis in 0..3 {
                st.u.reflect_into_ghost(var, axis, hsim_mesh::Side::Low, 1.0);
                st.u.reflect_into_ghost(var, axis, hsim_mesh::Side::High, 1.0);
            }
        }
        st.u0 = st.u.clone();
        st
    }

    fn exec_seq() -> (Executor, RankClock) {
        (
            Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full),
            RankClock::new(0),
        )
    }

    fn assert_slabs_identical(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: slab element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn fused_primitives_match_legacy_bitwise() {
        let mut legacy = perturbed(10, 1);
        let mut fused = perturbed(10, 1);
        let (mut e1, mut c1) = exec_seq();
        let (mut e2, mut c2) = exec_seq();
        crate::eos::primitives(&mut legacy, &mut e1, &mut c1).unwrap();
        primitives(&mut fused, &mut e2, &mut c2).unwrap();
        assert_slabs_identical(legacy.prim.slab(), fused.prim.slab(), "primitives");
        assert_eq!(c1.now(), c2.now(), "charge parity");
        assert_eq!(e1.kernels.total_launches(), e2.kernels.total_launches());
    }

    #[test]
    fn fused_sweep_matches_legacy_bitwise() {
        let mut legacy = perturbed(10, 1);
        let mut fused = perturbed(10, 1);
        let (mut e1, mut c1) = exec_seq();
        let (mut e2, mut c2) = exec_seq();
        crate::eos::primitives(&mut legacy, &mut e1, &mut c1).unwrap();
        crate::flux::sweep(&mut legacy, &mut e1, &mut c1, 0.004).unwrap();
        primitives(&mut fused, &mut e2, &mut c2).unwrap();
        sweep(&mut fused, &mut e2, &mut c2, 0.004).unwrap();
        assert_slabs_identical(legacy.u0.slab(), fused.u0.slab(), "sweep u0");
        assert_eq!(c1.now(), c2.now(), "charge parity");
        assert_eq!(e1.kernels.total_launches(), e2.kernels.total_launches());
    }

    #[test]
    fn fused_sweep_is_tile_shape_invariant_and_parallel_safe() {
        let (mut e1, mut c1) = exec_seq();
        let mut reference = perturbed(11, 1);
        primitives(&mut reference, &mut e1, &mut c1).unwrap();
        sweep(&mut reference, &mut e1, &mut c1, 0.002).unwrap();
        for (tile, threads) in [([1, 1], 1), ([3, 2], 3), ([16, 16], 4), ([5, 11], 2)] {
            let mut st = perturbed(11, 1);
            st.tile = tile;
            let mut exec = Executor::new(
                Target::cpu_parallel(threads),
                CpuModel::haswell_fixed(),
                Fidelity::Full,
            );
            let mut clock = RankClock::new(0);
            primitives(&mut st, &mut exec, &mut clock).unwrap();
            sweep(&mut st, &mut exec, &mut clock, 0.002).unwrap();
            assert_slabs_identical(
                reference.u0.slab(),
                st.u0.slab(),
                &format!("tile {tile:?} threads {threads}"),
            );
        }
    }

    #[test]
    fn fused_muscl_matches_legacy_bitwise() {
        let mut legacy = perturbed(9, 2);
        let mut fused = perturbed(9, 2);
        let (mut e1, mut c1) = exec_seq();
        let (mut e2, mut c2) = exec_seq();
        crate::eos::primitives(&mut legacy, &mut e1, &mut c1).unwrap();
        crate::muscl::sweep_muscl(&mut legacy, &mut e1, &mut c1, 0.003).unwrap();
        primitives(&mut fused, &mut e2, &mut c2).unwrap();
        sweep_muscl(&mut fused, &mut e2, &mut c2, 0.003).unwrap();
        assert_slabs_identical(legacy.u0.slab(), fused.u0.slab(), "muscl u0");
        assert_eq!(c1.now(), c2.now(), "charge parity");
        assert_eq!(e1.kernels.total_launches(), e2.kernels.total_launches());
    }

    #[test]
    fn each_start_charges_the_step_it_absorbs() {
        let st = perturbed(6, 1);
        for (start, launches) in [
            (Start::Target, 0),
            (Start::Snapshot, 5),
            (Start::Average, 5),
        ] {
            let (mut exec, mut clock) = exec_seq();
            charge_start(&st, &mut exec, &mut clock, start).unwrap();
            assert_eq!(exec.kernels.total_launches(), launches, "{start:?}");
        }
    }

    #[test]
    fn fused_sweep_charges_the_legacy_launch_count_per_order() {
        for (recon, launches) in [
            (Reconstruction::FirstOrder, 33),
            (Reconstruction::Muscl, 48),
        ] {
            let mut st = perturbed(6, 2);
            let (mut exec, mut clock) = exec_seq();
            primitives(&mut st, &mut exec, &mut clock).unwrap();
            exec.kernels.clear();
            sweep_from(&mut st, &mut exec, &mut clock, 0.01, Start::Target, recon).unwrap();
            assert_eq!(exec.kernels.total_launches(), launches, "{recon:?}");
        }
    }

    fn cost_only(ghost: usize) -> (HydroState, Executor, RankClock) {
        let grid = GlobalGrid::new(48, 48, 48);
        let sub = Subdomain::new([0, 0, 0], [48, 48, 48], ghost);
        let st = HydroState::new(grid, sub, Fidelity::CostOnly);
        let exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        (st, exec, RankClock::new(0))
    }

    #[test]
    fn cost_only_fused_path_charges_without_allocating() {
        let (mut st, mut exec, mut clock) = cost_only(1);
        primitives(&mut st, &mut exec, &mut clock).unwrap();
        sweep(&mut st, &mut exec, &mut clock, 0.01).unwrap();
        charge_start(&st, &mut exec, &mut clock, Start::Snapshot).unwrap();
        charge_start(&st, &mut exec, &mut clock, Start::Average).unwrap();
        assert!(clock.now().as_nanos() > 0);
        assert_eq!(exec.kernels.total_launches(), 3 + 33 + 5 + 5);
        assert!(st.u.var(RHO).len() < 64, "no full-size allocation");
    }

    #[test]
    fn cost_only_fused_muscl_charges_without_allocating() {
        let (mut st, mut exec, mut clock) = cost_only(2);
        sweep_muscl(&mut st, &mut exec, &mut clock, 0.01).unwrap();
        assert!(clock.now().as_nanos() > 0);
        assert_eq!(exec.kernels.total_launches(), 48);
        for slab in [st.u.slab(), st.u0.slab(), st.prim.slab()] {
            assert!(slab.len() < 64 * NCONS, "no full-size allocation");
        }
    }
}
