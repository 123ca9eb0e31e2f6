//! The hydrodynamic state on one rank's subdomain.

use hsim_mesh::{GlobalGrid, SoaBlock, Subdomain};
use hsim_raja::Fidelity;

/// Number of conserved variables: ρ, ρu, ρv, ρw, E.
pub const NCONS: usize = 5;

/// Conserved-variable indices into [`HydroState::u`].
pub const RHO: usize = 0;
pub const MX: usize = 1;
pub const MY: usize = 2;
pub const MZ: usize = 3;
pub const EN: usize = 4;

/// Number of primitive variables: vx, vy, vz, p, cs.
pub const NPRIM: usize = 5;

/// Primitive-variable indices into [`HydroState::prim`].
pub const VX: usize = 0;
pub const VY: usize = 1;
pub const VZ: usize = 2;
pub const PR: usize = 3;
pub const CS: usize = 4;

/// Ratio of specific heats (ideal gas).
pub const GAMMA: f64 = 1.4;

/// Density/pressure floors keeping the cold background physical.
pub const RHO_FLOOR: f64 = 1e-10;
pub const P_FLOOR: f64 = 1e-12;

/// Default y–z tile shape for fused cache-blocked sweeps. Tile size
/// never changes results (tiles write disjoint rows), only wall-clock
/// speed, so any default is correct; the runner overrides it from the
/// config knob or the calibration probe.
pub const DEFAULT_TILE: [usize; 2] = [8, 8];

/// Tile-contiguous scratch for the fused cache-blocked sweeps: one
/// dense allocation per tile body, carved into exact-length slabs by
/// [`ScratchArena::carver`]. Keeping a tile's whole working set (face
/// wavespeeds, flux rows, reconstruction planes) in a handful of
/// contiguous slabs — instead of a `Vec<Vec<f64>>` per plane — keeps
/// the tile resident in cache and gives the autovectorized row loops
/// exact-length slices with no pointer chasing.
pub struct ScratchArena {
    buf: Vec<f64>,
}

impl ScratchArena {
    /// One zero-filled contiguous allocation of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        ScratchArena {
            buf: vec![0.0; len],
        }
    }

    /// Start carving the allocation into disjoint slabs.
    pub fn carver(&mut self) -> Carver<'_> {
        Carver {
            rest: &mut self.buf,
        }
    }
}

/// Hands out disjoint dense slabs of a [`ScratchArena`] front to back.
pub struct Carver<'a> {
    rest: &'a mut [f64],
}

impl<'a> Carver<'a> {
    /// Take the next `len` elements as one dense slab. Panics if the
    /// arena was sized too small.
    pub fn take(&mut self, len: usize) -> &'a mut [f64] {
        let rest = std::mem::take(&mut self.rest);
        let (head, rest) = rest.split_at_mut(len);
        self.rest = rest;
        head
    }
}

/// The per-rank hydro state: conserved fields, primitive scratch and
/// the RK stage copy — three slabs.
///
/// Conserved and primitive storage are structure-of-arrays slabs
/// ([`SoaBlock`]): all five variables of a zone row are contiguous
/// per-variable, var-major, so a cache-blocked tile touches every
/// variable while resident in cache.
///
/// Under [`Fidelity::CostOnly`] the arrays are not allocated (the
/// bodies never run); the logical extents are retained so kernel
/// launches charge exactly the same virtual time.
pub struct HydroState {
    pub grid: GlobalGrid,
    pub sub: Subdomain,
    pub fidelity: Fidelity,
    /// Conserved variables ρ, ρu, ρv, ρw, E (ghost width ≥ 1).
    pub u: SoaBlock,
    /// RK stage target: each stage sweep writes `start − dt·L(u)` into
    /// its owned zones (see [`crate::fused::Start`]) and swaps it with
    /// `u`. Only owned zones are meaningful; ghosts hold stale values.
    pub u0: SoaBlock,
    /// Primitive scratch: vx, vy, vz, pressure, sound speed.
    pub prim: SoaBlock,
    /// y–z tile shape used by the fused cache-blocked sweep path.
    pub tile: [usize; 2],
    /// Simulated physical time.
    pub t: f64,
    /// Completed cycles.
    pub cycle: u64,
}

impl HydroState {
    /// Allocate the state for `sub` of `grid`.
    pub fn new(grid: GlobalGrid, sub: Subdomain, fidelity: Fidelity) -> Self {
        assert!(sub.ghost >= 1, "hydro needs at least one ghost layer");
        let alloc_sub = match fidelity {
            Fidelity::Full => sub,
            // Cost-only states allocate a token 1³ subdomain so slab
            // construction stays cheap while extents for cost purposes
            // come from `sub` itself.
            Fidelity::CostOnly => {
                Subdomain::new(sub.lo, [sub.lo[0] + 1, sub.lo[1] + 1, sub.lo[2] + 1], 1)
            }
        };
        HydroState {
            grid,
            sub,
            fidelity,
            u: SoaBlock::new(&alloc_sub, NCONS),
            u0: SoaBlock::new(&alloc_sub, NCONS),
            prim: SoaBlock::new(&alloc_sub, NPRIM),
            tile: DEFAULT_TILE,
            t: 0.0,
            cycle: 0,
        }
    }

    /// Faces along `axis` for extents `ext`: `(ext[axis]+1) · rest`.
    pub fn face_count(ext: [usize; 3], axis: usize) -> usize {
        (ext[axis] + 1) * ext[(axis + 1) % 3] * ext[(axis + 2) % 3]
    }

    /// Owned zone extents.
    pub fn ext(&self) -> [usize; 3] {
        self.sub.extents()
    }

    /// Allocated (owned + ghost) extents of the zone fields.
    pub fn ext_all(&self) -> [usize; 3] {
        let g = 2 * self.sub.ghost;
        let e = self.ext();
        [e[0] + g, e[1] + g, e[2] + g]
    }

    /// Zone spacing (cubic zones).
    pub fn dx(&self) -> f64 {
        self.grid.spacing().0
    }

    /// Total owned mass (Σ ρ · V).
    pub fn total_mass(&self) -> f64 {
        let h = self.dx();
        self.u.sum_owned(RHO) * h * h * h
    }

    /// Total owned energy (Σ E · V).
    pub fn total_energy(&self) -> f64 {
        let h = self.dx();
        self.u.sum_owned(EN) * h * h * h
    }

    /// Initialize a uniform ambient gas: density `rho0`, pressure
    /// `p0`, at rest.
    pub fn init_ambient(&mut self, rho0: f64, p0: f64) {
        if self.fidelity == Fidelity::CostOnly {
            return;
        }
        self.u.fill(RHO, rho0);
        self.u.fill(MX, 0.0);
        self.u.fill(MY, 0.0);
        self.u.fill(MZ, 0.0);
        self.u.fill(EN, p0 / (GAMMA - 1.0));
    }

    /// Face-grid dimensions along `axis` (owned).
    pub fn face_dims(&self, axis: usize) -> [usize; 3] {
        let mut d = self.ext();
        d[axis] += 1;
        d
    }

    /// Linear index into a face array for `axis` with face coordinate
    /// `f` along the axis and zone coordinates transverse.
    #[inline]
    pub fn face_idx(&self, axis: usize, i: usize, j: usize, k: usize) -> usize {
        let d = self.face_dims(axis);
        i + j * d[0] + k * d[0] * d[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HydroState {
        let grid = GlobalGrid::new(8, 8, 8);
        let sub = Subdomain::new([0, 0, 0], [8, 8, 8], 1);
        HydroState::new(grid, sub, Fidelity::Full)
    }

    #[test]
    fn allocation_shapes() {
        let s = small();
        assert_eq!(s.ext(), [8, 8, 8]);
        assert_eq!(s.ext_all(), [10, 10, 10]);
        assert_eq!(s.u.nvar(), NCONS);
        assert_eq!(s.u.var(RHO).len(), 1000);
        // The conserved slab is one contiguous allocation of all vars.
        assert_eq!(s.u.slab().len(), NCONS * 1000);
        assert_eq!(s.u0.slab().len(), NCONS * 1000);
        assert_eq!(s.prim.nvar(), NPRIM);
        assert_eq!(s.prim.slab().len(), NPRIM * 1000);
        assert_eq!(s.tile, DEFAULT_TILE);
    }

    #[test]
    fn cost_only_is_tiny() {
        let grid = GlobalGrid::new(320, 480, 160);
        let sub = Subdomain::new([0, 0, 0], [320, 480, 160], 1);
        let s = HydroState::new(grid, sub, Fidelity::CostOnly);
        // Logical extents are the real ones…
        assert_eq!(s.ext(), [320, 480, 160]);
        // …but allocation is token-sized.
        for slab in [s.u.slab(), s.u0.slab(), s.prim.slab()] {
            assert_eq!(slab.len(), 5 * 27, "one token 1³ box per variable");
        }
    }

    #[test]
    fn ambient_init_sets_energy_from_pressure() {
        let mut s = small();
        s.init_ambient(1.0, 0.4);
        // E = p/(γ-1) = 0.4/0.4 = 1.0 per zone.
        assert!((s.u.get(EN, 3, 3, 3) - 1.0).abs() < 1e-12);
        let h = s.dx();
        let expect_mass = 1.0 * (8.0 * h) * (8.0 * h) * (8.0 * h);
        assert!((s.total_mass() - expect_mass).abs() < 1e-12);
    }

    #[test]
    fn face_counts() {
        assert_eq!(HydroState::face_count([4, 3, 2], 0), 5 * 3 * 2);
        assert_eq!(HydroState::face_count([4, 3, 2], 1), 4 * 4 * 2);
        assert_eq!(HydroState::face_count([4, 3, 2], 2), 4 * 3 * 3);
    }

    #[test]
    fn face_idx_is_dense_and_unique() {
        let s = small();
        let d = s.face_dims(0);
        let mut seen = vec![false; d[0] * d[1] * d[2]];
        for k in 0..d[2] {
            for j in 0..d[1] {
                for i in 0..d[0] {
                    let idx = s.face_idx(0, i, j, k);
                    assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn scratch_arena_carves_disjoint_exact_slabs() {
        let mut arena = ScratchArena::zeroed(10);
        let mut carve = arena.carver();
        let a = carve.take(3);
        let b = carve.take(7);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 7);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&x| x == 1.0));
        assert!(b.iter().all(|&x| x == 2.0));
    }

    #[test]
    #[should_panic]
    fn scratch_arena_rejects_overflow() {
        let mut arena = ScratchArena::zeroed(4);
        let mut carve = arena.carver();
        let _ = carve.take(5);
    }

    #[test]
    #[should_panic(expected = "ghost")]
    fn ghostless_subdomain_rejected() {
        let grid = GlobalGrid::new(8, 8, 8);
        let sub = Subdomain::new([0, 0, 0], [8, 8, 8], 0);
        let _ = HydroState::new(grid, sub, Fidelity::Full);
    }
}
