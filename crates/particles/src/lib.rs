//! # hsim-particles
//!
//! A Lagrangian tracer/drag particle phase riding on the hydro field —
//! the second physics package of the multi-physics pairing in the
//! paper's §2 (ARES couples hydrodynamics to particle-based transport
//! packages). Particles are advected through the gas velocity field
//! with a linear drag relaxation, owned by whichever rank's subdomain
//! contains them, and shipped between ranks through the
//! [`Coupler::migrate_particles`] collective so migration is priced on
//! the same simulated-MPI timeline as halo exchange.
//!
//! **Determinism.** Initialization is a pure function of the particle
//! id and the seed (SplitMix64), so the *global* particle set is
//! identical for every decomposition; each rank keeps the particles
//! its subdomain contains. Advection under [`Fidelity::Full`] samples
//! the containing zone's velocity — owned by the advecting rank by
//! construction — so trajectories are bitwise identical across rank
//! counts, host-thread counts, and tilings. Under
//! [`Fidelity::CostOnly`] the hydro field does not exist; particles
//! instead take a synthetic drift that is a pure function of
//! `(id, cycle, seed)` — still decomposition-independent, and still
//! crossing rank boundaries so chaos/rebalance runs exercise the
//! migration collective. The two fidelities advect *differently* (one
//! follows gas, one a hash), which is fine: cost-only runs exist to
//! measure time, and the migration volume is what the time model
//! consumes.
//!
//! **Cost.** Each advection sweep is charged through the portability
//! layer as one `particle_advect` kernel over the rank's live
//! particles, exactly like a hydro kernel; migration is an
//! `alltoallv` on the simulated communicator, so wire time, eager
//! overheads, and the collectives counter all see it.

use hsim_gpu::KernelDesc;
use hsim_hydro::cycle::{CoupleError, Coupler, CycleError};
use hsim_hydro::state::{HydroState, MX, MY, MZ, RHO};
use hsim_mesh::{Decomposition, GlobalGrid, Subdomain};
use hsim_raja::{Executor, Fidelity};
use hsim_time::RankClock;

/// Gather + interpolate + drag update + position integrate, per
/// particle. Flops/bytes are modeled, like every entry in the hydro
/// kernel catalog.
pub const ADVECT: KernelDesc = KernelDesc {
    name: "particle_advect",
    flops_per_elem: 28.0,
    bytes_per_elem: 88.0,
};

/// Doubles on the wire per migrated particle: id (bit-cast), 3
/// positions, 3 velocities.
pub const WIRE_DOUBLES: usize = 7;

/// Wire bytes per migrated particle.
pub const WIRE_BYTES: u64 = (WIRE_DOUBLES * 8) as u64;

/// The particle phase configuration carried on `RunConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticlesConfig {
    /// Global particle count (shared across all ranks).
    pub count: u64,
    /// Drag relaxation rate: velocity relaxes toward the gas velocity
    /// as `v += (v_gas − v)·min(1, drag·dt)` each cycle.
    pub drag: f64,
    /// Seed for the deterministic initial placement.
    pub seed: u64,
}

impl Default for ParticlesConfig {
    fn default() -> Self {
        ParticlesConfig {
            count: 512,
            drag: 4.0,
            seed: 2018,
        }
    }
}

/// One tracer particle. `id` is globally unique and stable for the
/// whole run; every cross-rank merge re-sorts by it, so particle order
/// is deterministic no matter which rank computed what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub id: u64,
    pub pos: [f64; 3],
    pub vel: [f64; 3],
}

/// SplitMix64: the standard 64-bit finalizer-based PRNG step. Pure,
/// allocation-free, and identical on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform double in `[0, 1)` from one SplitMix64 draw.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Particle `id` of the global set: a pure function of the config, the
/// id and the grid's physical box.
fn particle(cfg: &ParticlesConfig, grid: &GlobalGrid, id: u64) -> Particle {
    let mut s = cfg.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Burn one draw so consecutive ids decorrelate fully.
    let _ = splitmix64(&mut s);
    let pos = [
        unit_f64(&mut s) * grid.lx,
        unit_f64(&mut s) * grid.ly,
        unit_f64(&mut s) * grid.lz,
    ];
    Particle {
        id,
        pos,
        vel: [0.0; 3],
    }
}

/// A particle set the process cannot allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unallocatable {
    pub count: u64,
}

impl std::fmt::Display for Unallocatable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bytes = u128::from(self.count) * std::mem::size_of::<Particle>() as u128;
        write!(
            f,
            "{} particles need {bytes} bytes, more than can be allocated",
            self.count
        )
    }
}

impl std::error::Error for Unallocatable {}

/// The full global particle set: a pure function of the config and the
/// grid's physical box, independent of any decomposition. A set the
/// allocator refuses is [`Unallocatable`], not an abort.
pub fn init_global(
    cfg: &ParticlesConfig,
    grid: &GlobalGrid,
) -> Result<Vec<Particle>, Unallocatable> {
    let refused = Unallocatable { count: cfg.count };
    let count = usize::try_from(cfg.count).map_err(|_| refused)?;
    let mut parts = Vec::new();
    parts.try_reserve_exact(count).map_err(|_| refused)?;
    parts.extend((0..cfg.count).map(|id| particle(cfg, grid, id)));
    Ok(parts)
}

/// The zone containing `pos`, clamped to the grid.
pub fn zone_of(grid: &GlobalGrid, pos: [f64; 3]) -> [usize; 3] {
    let (i, j, k) = grid.zone_at(pos[0], pos[1], pos[2]);
    [i, j, k]
}

/// Does `sub` own the zone?
pub fn sub_contains(sub: &Subdomain, zone: [usize; 3]) -> bool {
    (0..3).all(|a| zone[a] >= sub.lo[a] && zone[a] < sub.hi[a])
}

/// The per-rank particle phase.
#[derive(Debug, Clone)]
pub struct PhaseState {
    pub cfg: ParticlesConfig,
    /// Particles owned by this rank, sorted by id.
    pub parts: Vec<Particle>,
    /// Particles this rank has shipped to a peer so far.
    pub migrated: u64,
}

impl PhaseState {
    /// This rank's slice of the global set: deterministic filter of
    /// [`init_global`] by subdomain ownership, drawn particle by
    /// particle without holding the global set.
    pub fn init_owned(cfg: ParticlesConfig, grid: &GlobalGrid, sub: &Subdomain) -> PhaseState {
        let parts = (0..cfg.count)
            .map(|id| particle(&cfg, grid, id))
            .filter(|p| sub_contains(sub, zone_of(grid, p.pos)))
            .collect();
        PhaseState {
            cfg,
            parts,
            migrated: 0,
        }
    }

    /// Go on from a globally-merged snapshot (any segment boundary:
    /// held tick, re-split or foldback): keep what the new subdomain
    /// owns.
    pub fn from_global(
        cfg: ParticlesConfig,
        global: &[Particle],
        grid: &GlobalGrid,
        sub: &Subdomain,
    ) -> PhaseState {
        let parts = global
            .iter()
            .filter(|p| sub_contains(sub, zone_of(grid, p.pos)))
            .copied()
            .collect();
        PhaseState {
            cfg,
            parts,
            migrated: 0,
        }
    }

    /// Sum of particle velocities — the drag-phase momentum surrogate
    /// conservation tests pin across re-splits and foldbacks.
    pub fn momentum(&self) -> [f64; 3] {
        momentum(&self.parts)
    }
}

/// Sum of particle velocities over any slice (id order first for a
/// decomposition-independent summation order).
pub fn momentum(parts: &[Particle]) -> [f64; 3] {
    let mut sorted: Vec<&Particle> = parts.iter().collect();
    sorted.sort_unstable_by_key(|p| p.id);
    let mut m = [0.0; 3];
    for p in sorted {
        for (mv, v) in m.iter_mut().zip(p.vel) {
            *mv += v;
        }
    }
    m
}

/// Order-independent FNV-1a digest of a particle set: callers pass any
/// rank-local or merged slice; the sum over sorted ids is identical
/// however ownership is split.
pub fn checksum(parts: &[Particle]) -> u64 {
    let mut sorted: Vec<&Particle> = parts.iter().collect();
    sorted.sort_unstable_by_key(|p| p.id);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in sorted {
        eat(p.id);
        for a in 0..3 {
            eat(p.pos[a].to_bits());
        }
        for a in 0..3 {
            eat(p.vel[a].to_bits());
        }
    }
    h
}

/// Flatten particles into `WIRE_DOUBLES` f64s each for the migration
/// collective. Ids travel bit-cast so the payload is one homogeneous
/// f64 buffer (what the simulated communicator ships).
pub fn encode(parts: &[Particle]) -> Vec<f64> {
    let mut out = Vec::with_capacity(parts.len() * WIRE_DOUBLES);
    for p in parts {
        out.push(f64::from_bits(p.id));
        out.extend_from_slice(&p.pos);
        out.extend_from_slice(&p.vel);
    }
    out
}

/// Inverse of [`encode`]. Ignores a trailing partial record (cannot
/// happen on the simulated wire, which never corrupts payload counts).
pub fn decode(wire: &[f64]) -> Vec<Particle> {
    wire.chunks_exact(WIRE_DOUBLES)
        .map(|c| Particle {
            id: c[0].to_bits(),
            pos: [c[1], c[2], c[3]],
            vel: [c[4], c[5], c[6]],
        })
        .collect()
}

/// Reflect `pos`/`vel` back into `[0, len)` on one axis (rigid walls,
/// matching the hydro boundary conditions).
fn reflect(pos: &mut f64, vel: &mut f64, len: f64) {
    if *pos < 0.0 {
        *pos = -*pos;
        *vel = -*vel;
    }
    if *pos > len {
        *pos = 2.0 * len - *pos;
        *vel = -*vel;
    }
    // Degenerate dt·v overshoot beyond one box length cannot occur
    // (CFL bounds v·dt ≪ L), but clamp so ownership lookup stays sane.
    *pos = pos.clamp(0.0, len * (1.0 - 1e-12));
}

/// Advance every particle one cycle. Kernel cost is charged through
/// the portability layer; the physics body runs only under
/// [`Fidelity::Full`], like every hydro kernel.
///
/// Full fidelity: sample the containing zone's gas velocity `m/ρ`,
/// relax toward it with the drag rate, integrate position, reflect at
/// walls. Cost-only: a synthetic drift, pure in `(id, cycle, seed)`,
/// bounded by 0.45 zone widths per cycle — enough to cross slab
/// boundaries, small enough to stay physical.
pub fn advect(
    phase: &mut PhaseState,
    state: &HydroState,
    exec: &mut Executor,
    clock: &mut RankClock,
    dt: f64,
    cycle: u64,
) -> Result<(), CycleError> {
    let n = phase.parts.len();
    if n > 0 {
        exec.forall_par(clock, &ADVECT, n, n.min(u32::MAX as usize) as u32, |_| {})?;
    }
    let grid = state.grid;
    let sub = state.sub;
    let (dx, dy, dz) = grid.spacing();
    if exec.fidelity == Fidelity::Full {
        let drag = phase.cfg.drag;
        for p in &mut phase.parts {
            let zone = zone_of(&grid, p.pos);
            let (li, lj, lk) = (
                zone[0] - sub.lo[0],
                zone[1] - sub.lo[1],
                zone[2] - sub.lo[2],
            );
            let rho = state.u.get(RHO, li, lj, lk).max(1e-300);
            let gas = [
                state.u.get(MX, li, lj, lk) / rho,
                state.u.get(MY, li, lj, lk) / rho,
                state.u.get(MZ, li, lj, lk) / rho,
            ];
            let alpha = (drag * dt).min(1.0);
            for ((v, x), g) in p.vel.iter_mut().zip(&mut p.pos).zip(gas) {
                *v += (g - *v) * alpha;
                *x += *v * dt;
            }
            reflect(&mut p.pos[0], &mut p.vel[0], grid.lx);
            reflect(&mut p.pos[1], &mut p.vel[1], grid.ly);
            reflect(&mut p.pos[2], &mut p.vel[2], grid.lz);
        }
    } else {
        let seed = phase.cfg.seed;
        for p in &mut phase.parts {
            let mut s = seed
                ^ p.id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ cycle.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let _ = splitmix64(&mut s);
            let step = [
                (unit_f64(&mut s) * 2.0 - 1.0) * 0.45 * dx,
                (unit_f64(&mut s) * 2.0 - 1.0) * 0.45 * dy,
                (unit_f64(&mut s) * 2.0 - 1.0) * 0.45 * dz,
            ];
            for ((x, v), s) in p.pos.iter_mut().zip(&mut p.vel).zip(step) {
                *x += s;
                *v = s;
            }
            reflect(&mut p.pos[0], &mut p.vel[0], grid.lx);
            reflect(&mut p.pos[1], &mut p.vel[1], grid.ly);
            reflect(&mut p.pos[2], &mut p.vel[2], grid.lz);
        }
    }
    Ok(())
}

/// Ship every particle that left this rank's subdomain to its new
/// owner through the coupler's migration collective, and absorb
/// arrivals. Collective: **all ranks must call this every cycle**,
/// outbound or not, exactly like a halo exchange. Returns the number
/// of particles this rank sent. A resumable task: it waits in the
/// collective.
pub async fn migrate<C: Coupler + ?Sized>(
    phase: &mut PhaseState,
    decomp: &Decomposition,
    rank: usize,
    coupler: &mut C,
    clock: &mut RankClock,
) -> Result<u64, CoupleError> {
    let nranks = decomp.domains.len();
    let sub = &decomp.domains[rank];
    let grid = &decomp.grid;
    let mut keep = Vec::with_capacity(phase.parts.len());
    let mut leaving: Vec<Vec<Particle>> = vec![Vec::new(); nranks];
    for p in phase.parts.drain(..) {
        let zone = zone_of(grid, p.pos);
        if sub_contains(sub, zone) {
            keep.push(p);
        } else {
            match decomp.domains.iter().position(|d| sub_contains(d, zone)) {
                Some(dst) => leaving[dst].push(p),
                // Malformed decomposition: hold the particle rather
                // than lose it (conservation over placement).
                None => keep.push(p),
            }
        }
    }
    let sent: u64 = leaving
        .iter()
        .enumerate()
        .map(|(dst, v)| if dst == rank { 0 } else { v.len() as u64 })
        .sum();
    let outbound: Vec<Vec<f64>> = leaving.iter().map(|v| encode(v)).collect();
    let inbound = coupler.migrate_particles(outbound, clock).await?;
    for wire in &inbound {
        keep.extend(decode(wire));
    }
    keep.sort_unstable_by_key(|p| p.id);
    phase.parts = keep;
    phase.migrated += sent;
    if sent > 0 {
        hsim_telemetry::count(hsim_telemetry::Counter::ParticlesMigrated, sent);
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_hydro::SoloCoupler;
    use hsim_mesh::decomp::block_decomp;
    use hsim_raja::{CpuModel, Target};
    use hsim_time::task::block_on;

    fn grid(n: usize) -> GlobalGrid {
        GlobalGrid::new(n, n, n)
    }

    #[test]
    fn init_is_a_pure_function_of_config() {
        let g = grid(32);
        let cfg = ParticlesConfig::default();
        let a = init_global(&cfg, &g).unwrap();
        let b = init_global(&cfg, &g).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.count as usize);
        for p in &a {
            assert!(p.pos[0] >= 0.0 && p.pos[0] < g.lx);
            assert!(p.pos[1] >= 0.0 && p.pos[1] < g.ly);
            assert!(p.pos[2] >= 0.0 && p.pos[2] < g.lz);
        }
        let other = init_global(&ParticlesConfig { seed: 7, ..cfg }, &g).unwrap();
        assert_ne!(a, other, "seed must move the placement");
    }

    #[test]
    fn ownership_partition_is_exact() {
        let g = grid(32);
        let cfg = ParticlesConfig::default();
        let decomp = block_decomp(g, 4, 1);
        let total: usize = decomp
            .domains
            .iter()
            .map(|sub| PhaseState::init_owned(cfg, &g, sub).parts.len())
            .sum();
        assert_eq!(total, cfg.count as usize, "ranks must partition the set");
        // Drawn particle by particle, a rank's slice is the global set's.
        let all = init_global(&cfg, &g).unwrap();
        for sub in &decomp.domains {
            let owned = PhaseState::init_owned(cfg, &g, sub).parts;
            assert_eq!(owned, PhaseState::from_global(cfg, &all, &g, sub).parts);
        }
    }

    #[test]
    fn an_unallocatable_set_is_an_error_not_an_abort() {
        let cfg = ParticlesConfig {
            count: 1_000_000_000_000_000,
            ..ParticlesConfig::default()
        };
        let refused = init_global(&cfg, &grid(16)).unwrap_err();
        assert_eq!(refused, Unallocatable { count: cfg.count });
        assert_eq!(
            refused.to_string(),
            "1000000000000000 particles need 56000000000000000 bytes, more than can be allocated"
        );
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let g = grid(16);
        let parts = init_global(&ParticlesConfig::default(), &g).unwrap();
        assert_eq!(decode(&encode(&parts)), parts);
    }

    #[test]
    fn checksum_is_split_invariant() {
        let g = grid(16);
        let parts = init_global(&ParticlesConfig::default(), &g).unwrap();
        let whole = checksum(&parts);
        let (a, b) = parts.split_at(parts.len() / 3);
        let mut shuffled: Vec<Particle> = b.to_vec();
        shuffled.extend_from_slice(a);
        assert_eq!(checksum(&shuffled), whole);
    }

    #[test]
    fn cost_only_advection_is_decomposition_independent() {
        let g = grid(32);
        let cfg = ParticlesConfig::default();
        let sub_all = Subdomain::new([0, 0, 0], [32, 32, 32], 1);
        let st = HydroState::new(g, sub_all, Fidelity::CostOnly);
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);

        // Solo: the whole set on one rank.
        let mut solo_phase = PhaseState::init_owned(cfg, &g, &sub_all);
        let mut solo = SoloCoupler;
        for cycle in 0..6 {
            advect(&mut solo_phase, &st, &mut exec, &mut clock, 1e-3, cycle).unwrap();
            let solo_decomp = block_decomp(g, 1, 1);
            block_on(migrate(
                &mut solo_phase,
                &solo_decomp,
                0,
                &mut solo,
                &mut clock,
            ))
            .unwrap();
        }

        // Split: 4 slabs advected independently, migration emulated by
        // hand-merging the global set each cycle (what alltoallv does).
        let decomp = block_decomp(g, 4, 1);
        let mut phases: Vec<PhaseState> = decomp
            .domains
            .iter()
            .map(|sub| PhaseState::init_owned(cfg, &g, sub))
            .collect();
        for cycle in 0..6 {
            let mut merged: Vec<Particle> = Vec::new();
            for (r, phase) in phases.iter_mut().enumerate() {
                let st_r = HydroState::new(g, decomp.domains[r], Fidelity::CostOnly);
                advect(phase, &st_r, &mut exec, &mut clock, 1e-3, cycle).unwrap();
                merged.extend_from_slice(&phase.parts);
            }
            for (r, phase) in phases.iter_mut().enumerate() {
                *phase = PhaseState::from_global(cfg, &merged, &g, &decomp.domains[r]);
            }
        }
        let mut split_all: Vec<Particle> = phases.iter().flat_map(|p| p.parts.clone()).collect();
        split_all.sort_unstable_by_key(|p| p.id);
        assert_eq!(split_all, solo_phase.parts);
    }

    #[test]
    fn full_fidelity_drag_relaxes_toward_the_gas() {
        let g = GlobalGrid::new(16, 16, 16);
        let sub = Subdomain::new([0, 0, 0], [16, 16, 16], 1);
        let mut st = HydroState::new(g, sub, Fidelity::Full);
        // Uniform gas moving in +x at speed 2.
        let rho = 1.0;
        let e = st.ext();
        for k in 0..e[2] {
            for j in 0..e[1] {
                for i in 0..e[0] {
                    st.u.set(RHO, i, j, k, rho);
                    st.u.set(MX, i, j, k, rho * 2.0);
                    st.u.set(MY, i, j, k, 0.0);
                    st.u.set(MZ, i, j, k, 0.0);
                }
            }
        }
        let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
        let mut clock = RankClock::new(0);
        let mut phase = PhaseState {
            cfg: ParticlesConfig::default(),
            parts: vec![Particle {
                id: 0,
                pos: [0.1, 0.5, 0.5],
                vel: [0.0; 3],
            }],
            migrated: 0,
        };
        // dt·drag = 0.04 per cycle; 50 cycles entrains to
        // 2·(1 − 0.96⁵⁰) ≈ 1.74 while traveling well short of the wall.
        for cycle in 0..50 {
            advect(&mut phase, &st, &mut exec, &mut clock, 0.01, cycle).unwrap();
        }
        let p = phase.parts[0];
        assert!(p.vel[0] > 1.7 && p.vel[0] < 2.0, "entrainment: {:?}", p.vel);
        assert!(p.vel[1].abs() < 1e-12 && p.vel[2].abs() < 1e-12);
        assert!(p.pos[0] > 0.1 && p.pos[0] < g.lx, "drift: {:?}", p.pos);
    }

    #[test]
    fn advection_charges_kernel_time() {
        let g = grid(16);
        let sub = Subdomain::new([0, 0, 0], [16, 16, 16], 1);
        let st = HydroState::new(g, sub, Fidelity::CostOnly);
        let mut exec = Executor::new(
            Target::CpuSeq,
            CpuModel::haswell_fixed(),
            Fidelity::CostOnly,
        );
        let mut clock = RankClock::new(0);
        let mut phase = PhaseState::init_owned(ParticlesConfig::default(), &g, &sub);
        let t0 = clock.now();
        advect(&mut phase, &st, &mut exec, &mut clock, 1e-3, 0).unwrap();
        assert!(clock.now() > t0, "advection must charge virtual time");
    }

    #[test]
    fn migrate_conserves_under_solo() {
        let g = grid(16);
        let decomp = block_decomp(g, 1, 1);
        let mut phase = PhaseState::init_owned(ParticlesConfig::default(), &g, &decomp.domains[0]);
        let before = checksum(&phase.parts);
        let mut solo = SoloCoupler;
        let mut clock = RankClock::new(0);
        let sent = block_on(migrate(&mut phase, &decomp, 0, &mut solo, &mut clock)).unwrap();
        assert_eq!(sent, 0);
        assert_eq!(checksum(&phase.parts), before);
    }
}
