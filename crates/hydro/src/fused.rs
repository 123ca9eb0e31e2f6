//! Fused cache-blocked hydro kernels — the production CPU path.
//!
//! The legacy modules ([`crate::eos`], [`crate::flux`],
//! [`crate::muscl`], and the per-variable save/combine loops) launch
//! one fine-grained kernel per (pass, variable, axis), so every pass
//! streams the whole grid through cache again. This module fuses each
//! multi-kernel stage into a single pass over y–z **tiles**: a tile's
//! x-rows of every variable are loaded once, all passes for that tile
//! run while the rows are cache-resident, and the tile writes its
//! outputs through [`DisjointRowsMut`] row guards.
//!
//! Two invariants make the fusion invisible to everything downstream:
//!
//! 1. **Charge parity.** Each fused stage first replays the *exact*
//!    legacy launch sequence through [`Executor::charge3`] — same
//!    kernel descriptors, shapes, and order — so virtual time, launch
//!    counts, telemetry spans, and therefore every figure and trace
//!    byte are identical to the per-pass path. [`Executor::run_tiles`]
//!    itself charges nothing.
//! 2. **Bitwise identity.** Per zone, the fused arithmetic performs
//!    the same f64 operations in the same order as the legacy kernels
//!    (helpers below mirror the legacy loop bodies expression for
//!    expression), zones are independent within a pass, and per-zone
//!    accumulation keeps the legacy axis-then-variable order. Faces on
//!    tile seams are recomputed by both neighboring tiles — pure
//!    functions of unmodified inputs, so both compute the same bits.
//!    Tile shape and worker count therefore never change results; the
//!    property tests in `tests/` check this exhaustively.
//!
//! Row helpers live at module scope (not inside tile bodies): the
//! `tile-bounds` tidy lint forbids per-element indexing inside
//! `run_tiles` bodies, so bodies only carve ranges
//! and call helpers.
//!
//! The row helpers themselves are written for autovectorization:
//! every loop first re-borrows its operands as exact-length subslices
//! (so the compiler proves all bounds once, outside the loop), the
//! physical-flux `match` arm is selected once per row instead of per
//! element (see `rusanov_row_var` — each arm keeps the legacy
//! per-element arithmetic, including the `+ 0.0` of the
//! perpendicular-momentum arm), and per-tile scratch is one
//! contiguous [`ScratchArena`] allocation carved into dense slabs
//! instead of a `Vec<Vec<f64>>` per plane.

use hsim_gpu::GpuError;
use hsim_raja::{DisjointRowsMut, Executor, Fidelity, TileSet2};
use hsim_time::RankClock;

use crate::kernels;
use crate::muscl::minmod;
use crate::state::{
    HydroState, ScratchArena, CS, EN, GAMMA, MX, MY, MZ, NCONS, PR, P_FLOOR, RHO, RHO_FLOOR, VX,
};

/// One variable's allocated x-row of a var-major slab at allocated
/// transverse coordinates `(j, k)`.
#[inline]
fn row_of(slab: &[f64], dims: [usize; 3], v: usize, j: usize, k: usize) -> &[f64] {
    let start = (v * dims[1] * dims[2] + k * dims[1] + j) * dims[0];
    &slab[start..start + dims[0]]
}

/// The owned-i interior of [`row_of`] (ghost ends trimmed).
#[inline]
fn owned_row(slab: &[f64], dims: [usize; 3], g: usize, v: usize, j: usize, k: usize) -> &[f64] {
    let row = row_of(slab, dims, v, j, k);
    &row[g..row.len() - g]
}

/// Global row index of variable `v`'s x-row at allocated `(j, k)` in a
/// [`DisjointRowsMut`] over the slab with `row_len = dims[0]`.
#[inline]
fn row_index(dims: [usize; 3], v: usize, j: usize, k: usize) -> usize {
    v * dims[1] * dims[2] + k * dims[1] + j
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

/// Fused primitive recovery: charges the legacy VELOCITY, PRESSURE,
/// SOUND_SPEED launches, then fills all five primitive variables in
/// one tiled pass over the allocated y–z plane.
pub fn primitives(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let ext = state.ext_all();
    exec.charge3(clock, &kernels::VELOCITY, ext)?;
    exec.charge3(clock, &kernels::PRESSURE, ext)?;
    exec.charge3(clock, &kernels::SOUND_SPEED, ext)?;
    if exec.fidelity != Fidelity::Full {
        return Ok(());
    }
    let dims = state.u.dims();
    let tiles = TileSet2::new(dims[1], dims[2], state.tile);
    let (u, prim) = (&state.u, &mut state.prim);
    let u_slab = u.slab();
    let rows = DisjointRowsMut::new(prim.slab_mut(), dims[0]);
    exec.run_tiles(&tiles, |tile| {
        for k in tile.k0..tile.k1 {
            for j in tile.j0..tile.j1 {
                let rho = row_of(u_slab, dims, RHO, j, k);
                let mx = row_of(u_slab, dims, MX, j, k);
                let my = row_of(u_slab, dims, MY, j, k);
                let mz = row_of(u_slab, dims, MZ, j, k);
                let en = row_of(u_slab, dims, EN, j, k);
                let mut vx = rows.claim(row_index(dims, VX, j, k));
                let mut vy = rows.claim(row_index(dims, VX + 1, j, k));
                let mut vz = rows.claim(row_index(dims, VX + 2, j, k));
                let mut p = rows.claim(row_index(dims, PR, j, k));
                let mut cs = rows.claim(row_index(dims, CS, j, k));
                prim_row(
                    rho,
                    mx,
                    my,
                    mz,
                    en,
                    &mut vx[..],
                    &mut vy[..],
                    &mut vz[..],
                    &mut p[..],
                    &mut cs[..],
                );
            }
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Save / combine (legacy: cycle-private per-variable loops, 5 kernels).
// ---------------------------------------------------------------------

/// Fused RK snapshot `u0 ← u`: charges the five legacy SAVE_STATE
/// launches, then copies the whole slab once.
pub fn save_state(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let ext = st.ext_all();
    for _ in 0..NCONS {
        exec.charge3(clock, &kernels::SAVE_STATE, ext)?;
    }
    if exec.fidelity == Fidelity::Full {
        let (u, u0) = (&st.u, &mut st.u0);
        u0.copy_from(u);
    }
    Ok(())
}

/// Fused Heun combine `u0 ← ½u0 + ½u`: charges the five legacy
/// COMBINE launches, then runs the element-wise average once over the
/// whole slab (same per-element expression as the legacy kernel).
pub fn combine(
    st: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
) -> Result<(), GpuError> {
    let ext = st.ext_all();
    for _ in 0..NCONS {
        exec.charge3(clock, &kernels::COMBINE, ext)?;
    }
    if exec.fidelity == Fidelity::Full {
        let (u, u0) = (&st.u, &mut st.u0);
        for (dst, src) in u0.slab_mut().iter_mut().zip(u.slab()) {
            *dst = 0.5 * *dst + 0.5 * *src;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// First-order sweep (legacy: flux::sweep, 33 kernels).
// ---------------------------------------------------------------------

/// Per-face max wavespeed for one row of faces, given the zone rows on
/// either side of the face line (`_l`/`_r`). Along x these are the
/// `g−1`- and `g`-shifted windows of the same row; transverse they are
/// the owned-i rows of the two bracketing planes.
fn wavespeed_row(va_l: &[f64], va_r: &[f64], cs_l: &[f64], cs_r: &[f64], ws: &mut [f64]) {
    let n = ws.len();
    let (va_l, va_r) = (&va_l[..n], &va_r[..n]);
    let (cs_l, cs_r) = (&cs_l[..n], &cs_r[..n]);
    for i in 0..n {
        let sl = va_l[i].abs() + cs_l[i];
        let sr = va_r[i].abs() + cs_r[i];
        ws[i] = sl.max(sr);
    }
}

/// Rusanov flux for one row of faces with the physical flux supplied
/// as a per-element closure, monomorphized per arm by
/// [`rusanov_row_var`]: the arm dispatch happens once per row, so the
/// element loop is branch-free and runs over exact-length subslices.
#[allow(clippy::too_many_arguments)]
#[inline]
fn rusanov_row(
    q_l: &[f64],
    q_r: &[f64],
    va_l: &[f64],
    va_r: &[f64],
    p_l: &[f64],
    p_r: &[f64],
    ws: &[f64],
    fx: &mut [f64],
    flux: impl Fn(f64, f64, f64) -> f64,
) {
    let n = fx.len();
    let (q_l, q_r) = (&q_l[..n], &q_r[..n]);
    let (va_l, va_r) = (&va_l[..n], &va_r[..n]);
    let (p_l, p_r) = (&p_l[..n], &p_r[..n]);
    let ws = &ws[..n];
    for i in 0..n {
        let fl = flux(q_l[i], va_l[i], p_l[i]);
        let fr = flux(q_r[i], va_r[i], p_r[i]);
        fx[i] = 0.5 * (fl + fr) - 0.5 * ws[i] * (q_r[i] - q_l[i]);
    }
}

/// [`rusanov_row`] with the physical-flux arm of
/// [`crate::flux::phys_flux`] / [`crate::muscl::phys_flux_axis`]
/// selected once for (`var`, `axis`). Each arm's per-element
/// arithmetic is the legacy expression verbatim — note the perpendicular
/// momentum arm keeps the legacy `+ 0.0` (which maps `-0.0` to `+0.0`)
/// so outputs stay bitwise identical.
#[allow(clippy::too_many_arguments)]
fn rusanov_row_var(
    var: usize,
    axis: usize,
    q_l: &[f64],
    q_r: &[f64],
    va_l: &[f64],
    va_r: &[f64],
    p_l: &[f64],
    p_r: &[f64],
    ws: &[f64],
    fx: &mut [f64],
) {
    match var {
        RHO => rusanov_row(q_l, q_r, va_l, va_r, p_l, p_r, ws, fx, |q, va, _p| q * va),
        EN => rusanov_row(q_l, q_r, va_l, va_r, p_l, p_r, ws, fx, |q, va, p| {
            (q + p) * va
        }),
        _ if var - MX == axis => rusanov_row(q_l, q_r, va_l, va_r, p_l, p_r, ws, fx, |q, va, p| {
            q * va + p
        }),
        _ => rusanov_row(q_l, q_r, va_l, va_r, p_l, p_r, ws, fx, |q, va, _p| {
            q * va + 0.0
        }),
    }
}

/// Flux-difference update of one owned row: `tgt[g+i] -= scale·(f_hi −
/// f_lo)` — the legacy UPDATE arithmetic, over exact-length windows.
fn update_row(tgt: &mut [f64], g: usize, scale: f64, f_lo: &[f64], f_hi: &[f64]) {
    let n = f_lo.len();
    let tgt = &mut tgt[g..g + n];
    let f_hi = &f_hi[..n];
    for i in 0..n {
        tgt[i] -= scale * (f_hi[i] - f_lo[i]);
    }
}

/// Fused first-order sweep: charges the legacy 33-launch sequence
/// (per axis: WAVESPEED, then per variable FLUX + UPDATE), then runs
/// all three axis updates for each y–z tile in one cache-resident
/// pass, writing the target slab `u0` through row guards.
pub fn sweep(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    for axis in 0..3 {
        exec.charge3(clock, &kernels::WAVESPEED, state.face_dims(axis))?;
        for _var in 0..NCONS {
            exec.charge3(clock, &kernels::FLUX, state.face_dims(axis))?;
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
    let rows = DisjointRowsMut::new(u0.slab_mut(), dims[0]);
    exec.run_tiles(&tiles, |tile| {
        // Tile-contiguous scratch: face wavespeed/flux rows plus the
        // two transverse flux planes, carved from one allocation.
        let mut arena = ScratchArena::zeroed(2 * (n0 + 1) + (1 + 2 * NCONS) * n0);
        let mut carve = arena.carver();
        let ws = carve.take(n0 + 1);
        let fx = carve.take(n0 + 1);
        let tws = carve.take(n0);
        let mut prev = carve.take(NCONS * n0);
        let mut cur = carve.take(NCONS * n0);
        // x sweep: faces lie along the row, one pass per (j, k); face i
        // sits between the g−1- and g-shifted windows of the row.
        for k in tile.k0..tile.k1 {
            for j in tile.j0..tile.j1 {
                let (aj, ak) = (j + g, k + g);
                let va = row_of(prim_slab, dims, VX, aj, ak);
                let cs = row_of(prim_slab, dims, CS, aj, ak);
                let p = row_of(prim_slab, dims, PR, aj, ak);
                wavespeed_row(&va[g - 1..], &va[g..], &cs[g - 1..], &cs[g..], ws);
                for var in 0..NCONS {
                    let q = row_of(u_slab, dims, var, aj, ak);
                    rusanov_row_var(
                        var,
                        0,
                        &q[g - 1..],
                        &q[g..],
                        &va[g - 1..],
                        &va[g..],
                        &p[g - 1..],
                        &p[g..],
                        ws,
                        fx,
                    );
                    let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                    update_row(&mut tgt[..], g, scale, &fx[..n0], &fx[1..]);
                }
            }
        }
        // Transverse sweeps: walk faces along the transverse axis with
        // a prev/cur flux-plane pair, so each face is computed once per
        // tile and each zone updates as soon as both its faces exist.
        // y sweep (axis 1): face jf sits between allocated rows
        // jf+g−1 and jf+g.
        for k in tile.k0..tile.k1 {
            let ak = k + g;
            for jf in tile.j0..=tile.j1 {
                let (jl, jr) = (jf + g - 1, jf + g);
                let va_l = owned_row(prim_slab, dims, g, VX + 1, jl, ak);
                let va_r = owned_row(prim_slab, dims, g, VX + 1, jr, ak);
                let cs_l = owned_row(prim_slab, dims, g, CS, jl, ak);
                let cs_r = owned_row(prim_slab, dims, g, CS, jr, ak);
                let p_l = owned_row(prim_slab, dims, g, PR, jl, ak);
                let p_r = owned_row(prim_slab, dims, g, PR, jr, ak);
                wavespeed_row(va_l, va_r, cs_l, cs_r, tws);
                for (var, fxr) in cur.chunks_exact_mut(n0).enumerate() {
                    let q_l = owned_row(u_slab, dims, g, var, jl, ak);
                    let q_r = owned_row(u_slab, dims, g, var, jr, ak);
                    rusanov_row_var(var, 1, q_l, q_r, va_l, va_r, p_l, p_r, tws, fxr);
                }
                if jf > tile.j0 {
                    let aj = jf - 1 + g;
                    for (var, (f_lo, f_hi)) in
                        prev.chunks_exact(n0).zip(cur.chunks_exact(n0)).enumerate()
                    {
                        let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                        update_row(&mut tgt[..], g, scale, f_lo, f_hi);
                    }
                }
                std::mem::swap(&mut prev, &mut cur);
            }
        }
        // z sweep (axis 2): j outer, kf inner, so prev/cur walk faces
        // of constant j.
        for j in tile.j0..tile.j1 {
            let aj = j + g;
            for kf in tile.k0..=tile.k1 {
                let (kl, kr) = (kf + g - 1, kf + g);
                let va_l = owned_row(prim_slab, dims, g, VX + 2, aj, kl);
                let va_r = owned_row(prim_slab, dims, g, VX + 2, aj, kr);
                let cs_l = owned_row(prim_slab, dims, g, CS, aj, kl);
                let cs_r = owned_row(prim_slab, dims, g, CS, aj, kr);
                let p_l = owned_row(prim_slab, dims, g, PR, aj, kl);
                let p_r = owned_row(prim_slab, dims, g, PR, aj, kr);
                wavespeed_row(va_l, va_r, cs_l, cs_r, tws);
                for (var, fxr) in cur.chunks_exact_mut(n0).enumerate() {
                    let q_l = owned_row(u_slab, dims, g, var, aj, kl);
                    let q_r = owned_row(u_slab, dims, g, var, aj, kr);
                    rusanov_row_var(var, 2, q_l, q_r, va_l, va_r, p_l, p_r, tws, fxr);
                }
                if kf > tile.k0 {
                    let ak = kf - 1 + g;
                    for (var, (f_lo, f_hi)) in
                        prev.chunks_exact(n0).zip(cur.chunks_exact(n0)).enumerate()
                    {
                        let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                        update_row(&mut tgt[..], g, scale, f_lo, f_hi);
                    }
                }
                std::mem::swap(&mut prev, &mut cur);
            }
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------
// MUSCL sweep (legacy: muscl::sweep_muscl, 17 kernels per axis).
// ---------------------------------------------------------------------

/// Minmod-limited face reconstruction for one row of faces from the
/// four bracketing zone rows (along x these are shifted windows of
/// one row; transverse they are the four bracketing planes' rows).
/// The limiter is the branchless select form of [`minmod`], and all
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

/// Primitives of one reconstructed face state — the legacy FACE_PRIMS
/// closure verbatim.
fn face_prim(axis: usize, rho: f64, mx: f64, my: f64, mz: f64, en: f64) -> (f64, f64, f64) {
    let r = rho.max(RHO_FLOOR);
    let v = [mx / r, my / r, mz / r];
    let ke = 0.5 * r * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    let p = ((GAMMA - 1.0) * (en - ke)).max(P_FLOOR);
    let cs = (GAMMA * p / r).sqrt();
    (v[axis], p, cs)
}

/// The five conserved-variable rows of a var-major plane, in
/// `RHO`..=`EN` order.
type ConsRows<'a> = (&'a [f64], &'a [f64], &'a [f64], &'a [f64], &'a [f64]);

/// The five contiguous variable rows (ρ, ρu, ρv, ρw, E) of a
/// var-major scratch plane of row length `n` — the conserved-variable
/// indices are contiguous from `RHO` to `EN`, so the plane splits into
/// exact-length rows without indexing.
#[inline]
fn cons_rows(q: &[f64], n: usize) -> ConsRows<'_> {
    let (rho, rest) = q.split_at(n);
    let (mx, rest) = rest.split_at(n);
    let (my, rest) = rest.split_at(n);
    let (mz, rest) = rest.split_at(n);
    (rho, mx, my, mz, &rest[..n])
}

/// Face primitives + max wavespeed for one row of faces from the
/// reconstructed left/right conserved planes (var-major contiguous,
/// `NCONS` rows of `val.len()`).
#[allow(clippy::too_many_arguments)]
fn face_prims_rows(
    axis: usize,
    ql: &[f64],
    qr: &[f64],
    val: &mut [f64],
    var_: &mut [f64],
    pl: &mut [f64],
    pr: &mut [f64],
    smax: &mut [f64],
) {
    let nf = val.len();
    let (ql_rho, ql_mx, ql_my, ql_mz, ql_en) = cons_rows(ql, nf);
    let (qr_rho, qr_mx, qr_my, qr_mz, qr_en) = cons_rows(qr, nf);
    let (var_, pl, pr, smax) = (
        &mut var_[..nf],
        &mut pl[..nf],
        &mut pr[..nf],
        &mut smax[..nf],
    );
    for f in 0..nf {
        let (vl, p_l, cl) = face_prim(axis, ql_rho[f], ql_mx[f], ql_my[f], ql_mz[f], ql_en[f]);
        let (vr, p_r, cr) = face_prim(axis, qr_rho[f], qr_mx[f], qr_my[f], qr_mz[f], qr_en[f]);
        val[f] = vl;
        var_[f] = vr;
        pl[f] = p_l;
        pr[f] = p_r;
        smax[f] = (vl.abs() + cl).max(vr.abs() + cr);
    }
}

/// Fused second-order MUSCL sweep: charges the legacy per-axis
/// sequence (5 MUSCL_RECON, FACE_PRIMS, then per variable FLUX +
/// UPDATE), then runs all three axes tile by tile. Requires
/// `state.sub.ghost >= 2`, like the legacy path.
pub fn sweep_muscl(
    state: &mut HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
) -> Result<(), GpuError> {
    assert!(
        state.sub.ghost >= 2,
        "MUSCL needs two ghost layers (got {})",
        state.sub.ghost
    );
    for axis in 0..3 {
        let fd = state.face_dims(axis);
        for _var in 0..NCONS {
            exec.charge3(clock, &kernels::MUSCL_RECON, fd)?;
        }
        exec.charge3(clock, &kernels::FACE_PRIMS, fd)?;
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
    let (u, u0) = (&state.u, &mut state.u0);
    let u_slab = u.slab();
    let rows = DisjointRowsMut::new(u0.slab_mut(), dims[0]);
    exec.run_tiles(&tiles, |tile| {
        let nf = n0 + 1;
        // Tile-contiguous scratch: x-face reconstruction/primitive/flux
        // rows plus the transverse planes, carved from one allocation.
        let mut arena = ScratchArena::zeroed((2 * NCONS + 6) * nf + (4 * NCONS + 5) * n0);
        let mut carve = arena.carver();
        let ql = carve.take(NCONS * nf);
        let qr = carve.take(NCONS * nf);
        let val = carve.take(nf);
        let var_ = carve.take(nf);
        let pl = carve.take(nf);
        let pr = carve.take(nf);
        let smax = carve.take(nf);
        let fx = carve.take(nf);
        let tql = carve.take(NCONS * n0);
        let tqr = carve.take(NCONS * n0);
        let tval = carve.take(n0);
        let tvar = carve.take(n0);
        let tpl = carve.take(n0);
        let tpr = carve.take(n0);
        let tsmax = carve.take(n0);
        let mut prev = carve.take(NCONS * n0);
        let mut cur = carve.take(NCONS * n0);
        // x sweep: face f reads the windows shifted by g−2 … g+1.
        for k in tile.k0..tile.k1 {
            for j in tile.j0..tile.j1 {
                let (aj, ak) = (j + g, k + g);
                for (var, (qlr, qrr)) in ql
                    .chunks_exact_mut(nf)
                    .zip(qr.chunks_exact_mut(nf))
                    .enumerate()
                {
                    let q = row_of(u_slab, dims, var, aj, ak);
                    recon_row(&q[g - 2..], &q[g - 1..], &q[g..], &q[g + 1..], qlr, qrr);
                }
                face_prims_rows(0, ql, qr, val, var_, pl, pr, smax);
                for (var, (qlr, qrr)) in ql.chunks_exact(nf).zip(qr.chunks_exact(nf)).enumerate() {
                    rusanov_row_var(var, 0, qlr, qrr, val, var_, pl, pr, smax, fx);
                    let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                    update_row(&mut tgt[..], g, scale, &fx[..n0], &fx[1..]);
                }
            }
        }
        // Transverse sweeps share prev/cur flux planes like the
        // first-order path; reconstruction reads the four bracketing
        // rows of each face.
        // y sweep.
        for k in tile.k0..tile.k1 {
            let ak = k + g;
            for jf in tile.j0..=tile.j1 {
                for (var, (qlr, qrr)) in tql
                    .chunks_exact_mut(n0)
                    .zip(tqr.chunks_exact_mut(n0))
                    .enumerate()
                {
                    let q_lm = owned_row(u_slab, dims, g, var, jf + g - 2, ak);
                    let q_l = owned_row(u_slab, dims, g, var, jf + g - 1, ak);
                    let q_r = owned_row(u_slab, dims, g, var, jf + g, ak);
                    let q_rp = owned_row(u_slab, dims, g, var, jf + g + 1, ak);
                    recon_row(q_lm, q_l, q_r, q_rp, qlr, qrr);
                }
                face_prims_rows(1, tql, tqr, tval, tvar, tpl, tpr, tsmax);
                for (var, (fxr, (qlr, qrr))) in cur
                    .chunks_exact_mut(n0)
                    .zip(tql.chunks_exact(n0).zip(tqr.chunks_exact(n0)))
                    .enumerate()
                {
                    rusanov_row_var(var, 1, qlr, qrr, tval, tvar, tpl, tpr, tsmax, fxr);
                }
                if jf > tile.j0 {
                    let aj = jf - 1 + g;
                    for (var, (f_lo, f_hi)) in
                        prev.chunks_exact(n0).zip(cur.chunks_exact(n0)).enumerate()
                    {
                        let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                        update_row(&mut tgt[..], g, scale, f_lo, f_hi);
                    }
                }
                std::mem::swap(&mut prev, &mut cur);
            }
        }
        // z sweep.
        for j in tile.j0..tile.j1 {
            let aj = j + g;
            for kf in tile.k0..=tile.k1 {
                for (var, (qlr, qrr)) in tql
                    .chunks_exact_mut(n0)
                    .zip(tqr.chunks_exact_mut(n0))
                    .enumerate()
                {
                    let q_lm = owned_row(u_slab, dims, g, var, aj, kf + g - 2);
                    let q_l = owned_row(u_slab, dims, g, var, aj, kf + g - 1);
                    let q_r = owned_row(u_slab, dims, g, var, aj, kf + g);
                    let q_rp = owned_row(u_slab, dims, g, var, aj, kf + g + 1);
                    recon_row(q_lm, q_l, q_r, q_rp, qlr, qrr);
                }
                face_prims_rows(2, tql, tqr, tval, tvar, tpl, tpr, tsmax);
                for (var, (fxr, (qlr, qrr))) in cur
                    .chunks_exact_mut(n0)
                    .zip(tql.chunks_exact(n0).zip(tqr.chunks_exact(n0)))
                    .enumerate()
                {
                    rusanov_row_var(var, 2, qlr, qrr, tval, tvar, tpl, tpr, tsmax, fxr);
                }
                if kf > tile.k0 {
                    let ak = kf - 1 + g;
                    for (var, (f_lo, f_hi)) in
                        prev.chunks_exact(n0).zip(cur.chunks_exact(n0)).enumerate()
                    {
                        let mut tgt = rows.claim(row_index(dims, var, aj, ak));
                        update_row(&mut tgt[..], g, scale, f_lo, f_hi);
                    }
                }
                std::mem::swap(&mut prev, &mut cur);
            }
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
        let u = st.u.clone();
        st.u0.copy_from(&u);
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
        assert_eq!(e1.registry.total_launches(), e2.registry.total_launches());
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
        assert_eq!(e1.registry.total_launches(), e2.registry.total_launches());
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
        assert_eq!(e1.registry.total_launches(), e2.registry.total_launches());
    }

    #[test]
    fn fused_save_and_combine_match_legacy_semantics() {
        let mut st = perturbed(8, 1);
        let (mut exec, mut clock) = exec_seq();
        st.u0.fill(RHO, 3.25);
        save_state(&mut st, &mut exec, &mut clock).unwrap();
        assert_slabs_identical(st.u.slab(), st.u0.slab(), "save");
        // combine of identical slabs is a fixed point: ½a + ½a = a.
        let before = st.u0.slab().to_vec();
        combine(&mut st, &mut exec, &mut clock).unwrap();
        assert_slabs_identical(&before, st.u0.slab(), "combine fixed point");
        // 5 SAVE_STATE + 5 COMBINE launches.
        assert_eq!(exec.registry.total_launches(), 10);
    }

    #[test]
    fn fused_sweep_charges_33_launches() {
        let mut st = perturbed(6, 1);
        let (mut exec, mut clock) = exec_seq();
        primitives(&mut st, &mut exec, &mut clock).unwrap();
        exec.registry.clear();
        sweep(&mut st, &mut exec, &mut clock, 0.01).unwrap();
        assert_eq!(exec.registry.total_launches(), 33);
    }

    #[test]
    fn cost_only_fused_path_charges_without_allocating() {
        let grid = GlobalGrid::new(48, 48, 48);
        let sub = Subdomain::new([0, 0, 0], [48, 48, 48], 1);
        let mut st = HydroState::new(grid, sub, Fidelity::CostOnly);
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        primitives(&mut st, &mut exec, &mut clock).unwrap();
        sweep(&mut st, &mut exec, &mut clock, 0.01).unwrap();
        save_state(&mut st, &mut exec, &mut clock).unwrap();
        combine(&mut st, &mut exec, &mut clock).unwrap();
        assert!(clock.now().as_nanos() > 0);
        assert_eq!(exec.registry.total_launches(), 3 + 33 + 5 + 5);
        assert!(st.u.var(RHO).len() < 64, "no full-size allocation");
    }
}
