//! Calibration constants — the single source of truth for every
//! tunable in the cost model, with the figure each one drives.
//!
//! Absolute runtimes are not comparable to the paper's (its testbed is
//! gone and its compilers were pre-release); these constants are set
//! so the *shape* of every figure — who wins, by what factor, where
//! the crossovers and the memory kink fall — matches.

/// Courant factor for the hydro scheme (stability bound ≈ 0.45 for
/// first-order Rusanov + Heun in 3D).
pub const CFL: f64 = 0.3;

/// Timestep used in cost-only sweeps (the CFL reduction body is
/// skipped there; any positive value gives identical virtual time).
pub const COST_ONLY_DT: f64 = 1e-4;

/// Cycles per figure sweep point. The paper plots end-to-end runtime
/// for a fixed problem duration; 10 cycles make per-cycle overheads
/// visible at the paper's proportions. The count no longer sets a
/// sweep's host time: a cost-only point steps the three or four cycles
/// it takes to see its period and adds the rest up in integer
/// nanoseconds (`runner::run_with_fraction`), so the reported runtime
/// is that of all ten while the host prices four.
pub const SWEEP_CYCLES: u64 = 10;

/// Host-side memory-bandwidth threshold (paper Figure 12): the
/// Default mode's runtime slope kinks at ≈ 37 M zones = 4 active
/// cores × this. "We speculate that this threshold may be due to CPU
/// memory bandwidth utilization, where more MPI ranks (and therefore
/// cores utilized) add additional capacity."
pub const HOST_ZONES_PER_CORE: f64 = 9.25e6;

/// Extra host-side nanoseconds per excess zone per cycle once the
/// node's aggregate host traffic exceeds the active cores' capacity.
/// Sized so the Default mode's slope visibly steepens past the kink
/// (Figures 12, 15, 17, 18) without dwarfing compute.
pub const HOST_PENALTY_NS_PER_ZONE: f64 = 18.0;

/// Persistent mesh fields a rank allocates (5 conserved + 5 RK
/// snapshot + 5 primitives ≈ the hydro state's footprint), used for
/// unified-memory sizing (Figure 8).
pub const MESH_FIELDS: u64 = 15;

/// Scratch/temporary fields routed through the device pool (Figure 8).
pub const TEMP_FIELDS: u64 = 2;

/// Conserved fields exchanged per halo pass.
pub const HALO_FIELDS: u64 = 5;

/// Serial host control-code nanoseconds per kernel launch (driver
/// bookkeeping between kernels, identical for all modes).
pub const CONTROL_NS_PER_LAUNCH: f64 = 1500.0;

/// Load-balancer smoothing gain (0 = frozen, 1 = jump to measured).
pub const BALANCE_GAIN: f64 = 0.7;

/// Conservatism on the balanced CPU share: the cycle's phase structure
/// means a whole-cycle-balanced slab still straggles inside phases
/// (see `balance::LoadBalancer::phase_derate`). 0.55 reproduces the
/// paper's observed 1–2% CPU share against a ~4% FLOPS share.
pub const PHASE_DERATE: f64 = 0.55;

/// Tile shapes tried by the [`auto_tile`] probe, smallest first.
pub const TILE_CANDIDATES: [[usize; 2]; 3] = [[4, 4], [8, 8], [16, 16]];

/// Zones per edge of the auto-tune probe grid: big enough that the
/// fused sweep's working set exceeds L2 (so tile shape matters), small
/// enough that the one-shot probe costs a few milliseconds.
pub const TILE_PROBE_N: usize = 32;

/// Process-wide cache behind [`auto_tile`] / [`seed_tile`]: one probe
/// (or one seed) per process, shared by every subsequent run.
static TILE: std::sync::OnceLock<[usize; 2]> = std::sync::OnceLock::new();

/// Per-worker-count probe results for [`auto_tile_for`] beyond the
/// serial case: `(host threads, probed tile)` pairs. Each worker
/// count's shape is fixed at its first request, so repeated sweeps
/// at the same `--host-threads` always agree.
static TILE_BY_THREADS: std::sync::Mutex<Vec<(usize, [usize; 2])>> =
    std::sync::Mutex::new(Vec::new());

/// One-shot y–z tile auto-tune for the fused cache-blocked kernels:
/// time a fused first-order sweep on a small full-fidelity grid for
/// each of [`TILE_CANDIDATES`] and return the fastest. Cached for the
/// process lifetime — every run in a sweep shares one probe.
///
/// This is deliberately a *wall-clock* measurement, not virtual time:
/// the virtual cost model charges per logical kernel and cannot see
/// cache effects, which are exactly what the tile knob moves. Results
/// are bitwise-independent of the choice, so the probe can never
/// change physics or figures — only throughput.
pub fn auto_tile() -> [usize; 2] {
    *TILE.get_or_init(|| probe_tile(1))
}

/// Worker-count-aware variant of [`auto_tile`]: the best tile shape
/// for the *parallel* fused path need not match the serial one (small
/// tiles feed more workers; big tiles amortize per-tile scratch), so
/// the probe runs the fused sweep on the same shared pool the runner
/// will use at `threads` host threads.
///
/// Caching rules, in order:
/// * `threads <= 1` defers to [`auto_tile`] (the serial OnceLock).
/// * A worker count already probed reuses its cached shape — per
///   worker count, the first request's answer is sticky.
/// * A shape seeded via [`seed_tile`] *before* a worker count's first
///   request wins for that count (operators pin one shape for every
///   worker count; the probe never overrides a pin).
pub fn auto_tile_for(threads: usize) -> [usize; 2] {
    if threads <= 1 {
        return auto_tile();
    }
    let mut cache = TILE_BY_THREADS.lock().expect("tile cache poisoned");
    if let Some(&(_, tile)) = cache.iter().find(|(t, _)| *t == threads) {
        return tile;
    }
    let tile = match TILE.get() {
        Some(&seeded) => seeded,
        None => probe_tile(threads),
    };
    cache.push((threads, tile));
    tile
}

/// Seed the process-wide tile cache with an externally calibrated
/// shape (e.g. one carried over from a previous server process via
/// [`tile_spec`]), skipping the wall-clock probe entirely. Returns the
/// *effective* tile: if a probe or earlier seed already populated the
/// cache, that value wins and is returned — first write is sticky, so
/// concurrent runs always agree on one shape.
pub fn seed_tile(tile: [usize; 2]) -> [usize; 2] {
    *TILE.get_or_init(|| tile)
}

/// Serialize a tile shape as `"8x8"` — the stable textual form used
/// by `--tile`-style flags, the serve handshake, and log lines.
pub fn tile_spec(tile: [usize; 2]) -> String {
    format!("{}x{}", tile[0], tile[1])
}

/// Parse the [`tile_spec`] form back into a shape; the CLI's `8,8`
/// spelling is accepted too. Accepts any positive dimensions (not
/// just [`TILE_CANDIDATES`]) so operators can pin shapes the probe
/// would never pick.
pub fn parse_tile_spec(s: &str) -> Result<[usize; 2], String> {
    let (ty, tz) = s
        .split_once(['x', ','])
        .ok_or_else(|| format!("bad tile spec `{s}`: expected TYxTZ, e.g. 8x8"))?;
    let ty: usize = ty
        .trim()
        .parse()
        .map_err(|e| format!("bad tile spec `{s}`: {e}"))?;
    let tz: usize = tz
        .trim()
        .parse()
        .map_err(|e| format!("bad tile spec `{s}`: {e}"))?;
    if ty == 0 || tz == 0 {
        return Err(format!("bad tile spec `{s}`: dimensions must be positive"));
    }
    Ok([ty, tz])
}

fn probe_tile(threads: usize) -> [usize; 2] {
    use hsim_raja::{CpuModel, Executor, Fidelity, Target, WorkPool};
    let n = TILE_PROBE_N;
    let grid = hsim_mesh::GlobalGrid::new(n, n, n);
    let sub = hsim_mesh::Subdomain::new([0, 0, 0], [n, n, n], 1);
    let mut st = hsim_hydro::HydroState::new(grid, sub, Fidelity::Full);
    st.init_ambient(1.0, 0.4);
    let target = if threads > 1 {
        // Probe on the same process-wide shared pool the runner uses,
        // so the measurement sees the real scheduling overheads.
        Target::CpuParallel {
            pool: WorkPool::shared(threads - 1),
        }
    } else {
        Target::CpuSeq
    };
    let mut exec = Executor::new(target, CpuModel::haswell_fixed(), Fidelity::Full);
    let mut clock = hsim_time::RankClock::new(0);
    hsim_hydro::fused::primitives(&mut st, &mut exec, &mut clock).expect("probe primitives");
    let mut best = TILE_CANDIDATES[0];
    let mut best_ns = u128::MAX;
    for tile in TILE_CANDIDATES {
        st.tile = tile;
        // Warm-up rep so first-touch and allocator effects don't bias
        // the first candidate.
        hsim_hydro::fused::sweep(&mut st, &mut exec, &mut clock, 1e-6).expect("probe sweep");
        // tidy-allow: wall-clock -- the tile probe measures real cache behavior by design
        let t0 = std::time::Instant::now();
        for _ in 0..2 {
            hsim_hydro::fused::sweep(&mut st, &mut exec, &mut clock, 1e-6).expect("probe sweep");
        }
        let ns = t0.elapsed().as_nanos();
        if ns < best_ns {
            best_ns = ns;
            best = tile;
        }
    }
    best
}

/// Load-balancer iteration cap for `run_balanced`.
pub const BALANCE_MAX_ITERS: usize = 6;

/// Convergence tolerance on the CPU fraction between balance
/// iterations.
pub const BALANCE_TOL: f64 = 0.002;

/// EWMA smoothing factor for the online rebalancer's speed estimator
/// (1 = trust only the latest window, 0 = frozen). 0.5 filters
/// single-window noise while still converging in a handful of
/// boundaries.
pub const REBALANCE_EWMA_ALPHA: f64 = 0.5;

/// Default re-split interval, in cycles, for `--rebalance` when the
/// spec omits `every=`.
pub const REBALANCE_DEFAULT_EVERY: u64 = 2;

/// Default hysteresis threshold for `--rebalance` when the spec omits
/// `hysteresis=`: the predicted cycle-time improvement a re-split must
/// exceed before the controller pays for one.
pub const REBALANCE_DEFAULT_HYSTERESIS: f64 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kink_lands_at_thirty_seven_million_for_default_mode() {
        // 4 GPU-driving ranks on RZHasGPU.
        let kink = 4.0 * HOST_ZONES_PER_CORE;
        assert!((kink - 3.7e7).abs() < 3e5, "kink at {kink}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn sixteen_rank_modes_never_kink_in_the_sweeps() {
        // Largest sweep in the paper ≈ 5e7 zones.
        assert!(16.0 * HOST_ZONES_PER_CORE > 5.5e7);
    }

    #[test]
    fn auto_tile_returns_a_candidate_and_is_stable() {
        let t = auto_tile();
        assert!(TILE_CANDIDATES.contains(&t), "probe picked {t:?}");
        assert_eq!(t, auto_tile(), "probe result is cached");
    }

    #[test]
    fn auto_tile_for_is_per_worker_count_stable() {
        // Serial defers to the OnceLock path.
        assert_eq!(auto_tile_for(0), auto_tile());
        assert_eq!(auto_tile_for(1), auto_tile());
        // A parallel count gets its own probe (or inherits a shape
        // already pinned), and repeats reuse the cached answer.
        let t = auto_tile_for(3);
        assert!(TILE_CANDIDATES.contains(&t), "probe picked {t:?}");
        assert_eq!(t, auto_tile_for(3), "per-count result is cached");
    }

    // seed_tile itself is covered by `tests/calib_seed.rs`, which gets
    // its own process: the OnceLock here is already claimed by the
    // probe in `auto_tile_returns_a_candidate_and_is_stable`.

    #[test]
    fn tile_spec_round_trips() {
        for tile in TILE_CANDIDATES {
            assert_eq!(parse_tile_spec(&tile_spec(tile)), Ok(tile));
        }
        assert_eq!(parse_tile_spec(" 8 x 16 "), Ok([8, 16]));
        assert_eq!(parse_tile_spec("8,16"), Ok([8, 16]));
        assert!(parse_tile_spec("8,8,8").is_err());
        assert!(parse_tile_spec("8").is_err());
        assert!(parse_tile_spec("8x").is_err());
        assert!(parse_tile_spec("0x8").is_err());
        assert!(parse_tile_spec("8x0").is_err());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_sane() {
        assert!(CFL > 0.0 && CFL < 0.5);
        assert!(BALANCE_GAIN > 0.0 && BALANCE_GAIN <= 1.0);
        assert!(MESH_FIELDS >= HALO_FIELDS);
    }
}
