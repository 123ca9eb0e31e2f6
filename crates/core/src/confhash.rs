//! Canonical content hashing for [`RunConfig`].
//!
//! The serve layer caches completed results keyed by the *content* of
//! a run configuration: because runs are deterministic in virtual
//! time, two configs that hash equal produce byte-identical output,
//! so a cache hit is exact, not approximate.
//!
//! The hash is FNV-1a (64-bit) over a canonical byte encoding:
//! every field is folded in declaration order, each prefixed with a
//! one-byte field tag so adjacent fields can never alias (e.g. a grid
//! of `(1, 0, 0)` vs `(0, 1, 0)` or an absent option vs a zero).
//! Floats contribute their IEEE-754 bit patterns (`to_bits`), strings
//! are length-prefixed, enums contribute a discriminant tag plus
//! their payload, and the fault plan round-trips through its textual
//! [`spec`](hsim_faults::FaultPlan::spec) form, which is already
//! canonical.
//!
//! The encoding is pinned by a golden test below: any refactor that
//! silently changes the cache key breaks the pin, so stale-cache bugs
//! surface as a test failure, never as a wrong served result.

use hsim_hydro::{NohConfig, PerturbedConfig, SedovConfig, SodConfig, TaylorGreenConfig};

use crate::mode::ExecMode;
use crate::node::NodeConfig;
use crate::runner::RunConfig;
use crate::scenario::{Problem, Scenario};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over the canonical encoding.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    pub fn finish(&self) -> u64 {
        self.state
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.state ^= u64::from(x);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// One-byte field/discriminant tag.
    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.bytes(&[t])
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.tag(u8::from(v))
    }

    /// Length-prefixed string bytes.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}

fn hash_mode(h: &mut ContentHasher, mode: &ExecMode) {
    match mode {
        ExecMode::CpuOnly => {
            h.tag(0);
        }
        ExecMode::Default => {
            h.tag(1);
        }
        ExecMode::Mps { per_gpu } => {
            h.tag(2).usize(*per_gpu);
        }
        ExecMode::Heterogeneous { cpu_fraction } => {
            h.tag(3);
            match cpu_fraction {
                None => h.tag(0),
                Some(f) => h.tag(1).f64(*f),
            };
        }
    }
}

fn hash_node(h: &mut ContentHasher, node: &NodeConfig) {
    h.str(node.name).usize(node.cores).usize(node.gpus);
    let g = &node.gpu_spec;
    h.str(g.name)
        .u64(u64::from(g.sm_count))
        .f64(g.fp64_gflops)
        .f64(g.mem_bandwidth_gbs)
        .u64(g.mem_capacity)
        .u64(g.launch_overhead.0)
        .f64(g.mps_launch_factor)
        .f64(g.pcie_bandwidth_gbs)
        .u64(g.pcie_latency.0)
        .u64(g.um_page_size)
        .u64(g.um_page_migration.0)
        .f64(g.saturation_elems)
        .f64(g.inner_half_extent)
        .f64(g.sharing_penalty);
    let c = &node.cpu;
    h.f64(c.ghz)
        .f64(c.flops_per_cycle)
        .f64(c.bw_gbs_per_core)
        .f64(c.dispatch_ns)
        .bool(c.bug_active);
    let m = &node.comm;
    h.u64(m.latency.0)
        .f64(m.bandwidth_gbs)
        .u64(m.send_overhead.0)
        .u64(m.recv_overhead.0);
}

/// A problem's tag, then the values of the (default) configuration it
/// runs at. They are constants, but they are part of the pinned
/// encoding: dropping them would move every cache key.
fn hash_problem(h: &mut ContentHasher, p: Problem) {
    match p {
        Problem::Scenario(Scenario::Sedov) => {
            let s = SedovConfig::default();
            h.tag(0)
                .f64(s.e0)
                .f64(s.rho0)
                .f64(s.p0)
                .f64(s.deposit_radius_zones);
        }
        Problem::Scenario(Scenario::Sod) => {
            let s = SodConfig::default();
            h.tag(1);
            for gs in [&s.left, &s.right] {
                h.f64(gs.rho).f64(gs.u).f64(gs.p);
            }
            h.f64(s.diaphragm);
        }
        Problem::Perturbed => {
            let s = PerturbedConfig::default();
            h.tag(2)
                .u64(s.seed)
                .f64(s.rho0)
                .f64(s.p0)
                .f64(s.amplitude)
                .usize(s.modes)
                .f64(s.mach);
        }
        Problem::Scenario(Scenario::Noh) => {
            let s = NohConfig::default();
            h.tag(3).f64(s.rho0).f64(s.p0).f64(s.u0);
        }
        Problem::Scenario(Scenario::TaylorGreen) => {
            let s = TaylorGreenConfig::default();
            h.tag(4).f64(s.rho0).f64(s.v0).f64(s.mach);
        }
    }
}

impl RunConfig {
    /// Stable 64-bit content hash of this configuration (see module
    /// docs). Equal hashes ⇒ equal canonical encodings ⇒ the runs
    /// produce byte-identical reports, so the hash is a sound cache
    /// key for served results.
    ///
    /// Note that [`RunConfig::tile`] *is* hashed even though results
    /// are bitwise-independent of the tile shape: keeping the encoding
    /// total (every field folded in) is what the pinned-golden test
    /// guards, and collapsing "performance-equivalent" configs is a
    /// cache-sizing optimization the serve layer can do above this.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.tag(3) // encoding version (3: scenario problems + particle phase)
            .usize(self.grid.0)
            .usize(self.grid.1)
            .usize(self.grid.2);
        hash_mode(&mut h, &self.mode);
        hash_node(&mut h, &self.node);
        h.u64(self.cycles);
        h.tag(match self.fidelity {
            hsim_raja::Fidelity::Full => 0,
            hsim_raja::Fidelity::CostOnly => 1,
        });
        h.bool(self.gpu_direct);
        match &self.diffusion {
            None => h.tag(0),
            Some(d) => h.tag(1).f64(d.kappa),
        };
        h.u64(self.multipolicy_threshold);
        h.bool(self.trace).bool(self.telemetry);
        hash_problem(&mut h, self.problem);
        match &self.faults {
            None => h.tag(0),
            Some(plan) => h.tag(1).str(&plan.spec()),
        };
        match &self.rebalance {
            None => h.tag(0),
            Some(r) => h.tag(1).u64(r.every).f64(r.hysteresis),
        };
        h.usize(self.host_threads);
        match &self.tile {
            None => h.tag(0),
            Some([ty, tz]) => h.tag(1).usize(*ty).usize(*tz),
        };
        match &self.particles {
            None => h.tag(0),
            Some(p) => h.tag(1).u64(p.count).f64(p.drag).u64(p.seed),
        };
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RunConfig {
        RunConfig::sweep((64, 48, 32), ExecMode::hetero())
    }

    /// Pinned golden hash: if this changes, the canonical encoding
    /// changed, and every persisted cache key is invalid. Bump the
    /// encoding-version tag in `content_hash` and re-pin deliberately;
    /// never let the key drift silently through a refactor.
    #[test]
    fn golden_hash_is_pinned() {
        assert_eq!(base().content_hash(), 0xe4b3_93af_4fb9_828e);
    }

    #[test]
    fn hash_is_deterministic_across_clones() {
        let a = base();
        let b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_field_moves_the_hash() {
        let base_hash = base().content_hash();
        let variants: Vec<RunConfig> = vec![
            RunConfig {
                grid: (48, 64, 32),
                ..base()
            },
            RunConfig {
                mode: ExecMode::Default,
                ..base()
            },
            RunConfig {
                mode: ExecMode::Heterogeneous {
                    cpu_fraction: Some(0.0),
                },
                ..base()
            },
            RunConfig {
                node: crate::node::NodeConfig::sierra_ea(),
                ..base()
            },
            RunConfig {
                cycles: 11,
                ..base()
            },
            RunConfig {
                fidelity: hsim_raja::Fidelity::Full,
                ..base()
            },
            RunConfig {
                gpu_direct: true,
                ..base()
            },
            RunConfig {
                diffusion: Some(hsim_hydro::DiffusionConfig { kappa: 0.0 }),
                ..base()
            },
            RunConfig {
                multipolicy_threshold: 1,
                ..base()
            },
            RunConfig {
                trace: true,
                ..base()
            },
            RunConfig {
                telemetry: true,
                ..base()
            },
            RunConfig {
                problem: Scenario::Sod.problem(),
                ..base()
            },
            RunConfig {
                problem: Scenario::Noh.problem(),
                ..base()
            },
            RunConfig {
                problem: Scenario::TaylorGreen.problem(),
                ..base()
            },
            RunConfig {
                problem: Problem::Perturbed,
                ..base()
            },
            RunConfig {
                faults: Some(
                    hsim_faults::FaultPlan::parse("xfer.delay@rank1.cycle2:ns=200000").unwrap(),
                ),
                ..base()
            },
            RunConfig {
                rebalance: Some(crate::balance::RebalanceConfig::default()),
                ..base()
            },
            RunConfig {
                host_threads: 2,
                ..base()
            },
            RunConfig {
                tile: Some([8, 8]),
                ..base()
            },
            RunConfig {
                particles: Some(Default::default()),
                ..base()
            },
        ];
        let mut seen = vec![base_hash];
        for (i, v) in variants.iter().enumerate() {
            let h = v.content_hash();
            assert!(
                !seen.contains(&h),
                "variant {i} collided with an earlier hash"
            );
            seen.push(h);
        }
    }

    #[test]
    fn option_none_differs_from_zero_payload() {
        // The tag byte keeps `tile: None` apart from `tile: Some([0,0])`
        // and a fraction of Some(0.0) apart from None (checked above).
        let none = base().content_hash();
        let zero = RunConfig {
            tile: Some([0, 0]),
            ..base()
        }
        .content_hash();
        assert_ne!(none, zero);
    }
}
