//! The four workloads. Each is a *round* of identical work: a fixed
//! list of operations built once from `--seed`, run the same way
//! every time, so the timed unit never changes inside a run. The
//! library sees generated inputs only; the seed never reaches it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hsim_bench::sweep::{paper_modes, run_figure_jobs};
use hsim_core::confhash::ContentHasher;
use hsim_core::figures::{self, FigureSpec};
use hsim_core::{calib, ExecMode, RebalanceConfig, RunConfig, RunResult, Scenario};
use hsim_hydro::DiffusionConfig;
use hsim_particles::ParticlesConfig;
use hsim_raja::Fidelity;
use hsim_serve::{http, render_response, Server, ServerConfig};
use hsim_time::SplitMix64;

use crate::host;
use crate::spans::{Ctx, Recorder};
use crate::stats::shuffle;

/// The y–z tile every run of the benchmark is pinned to, so the
/// timing-based `calib::auto_tile` probe never chooses the program
/// being measured.
pub const TILE: [usize; 2] = [8, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CpuFull,
    HeteroFull,
    FigureSweep,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::CpuFull,
        Kind::HeteroFull,
        Kind::FigureSweep,
        Kind::ServeMixed,
    ];

    /// The name in `spec::WORKLOADS`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CpuFull => "cpu-full",
            Kind::HeteroFull => "hetero-full",
            Kind::FigureSweep => "figure-sweep",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// `cpu-full` grids: ≈ 98 k zones each, at the aspect ratio of the
/// scenario's `fig_scenario` sweep (thin tube, long-axis implosion,
/// fat planes).
fn cpu_full_grid(s: Scenario) -> (usize, usize, usize) {
    match s {
        Scenario::Sedov => (64, 48, 32),
        Scenario::Sod => (192, 32, 16),
        Scenario::Noh => (76, 36, 36),
        Scenario::TaylorGreen => (40, 48, 52),
    }
}

const CPU_FULL_CYCLES: u64 = 10;
const HETERO_GRID: (usize, usize, usize) = (64, 96, 64);
const HETERO_CYCLES: u64 = 8;
const HETERO_PARTICLES: u64 = 2048;
const HETERO_CPU_FRACTION: f64 = 0.30;

/// Ceilings on each scenario's analytic-solution error, recorded at
/// the commit that added the benchmark. The check phase allows 1.05×
/// (the rule `perf ci-gate --section scenarios` uses), so a later
/// model change may move the error a little but not break the physics.
fn error_ceiling(kind: Kind, scenario: &str) -> Option<f64> {
    match (kind, scenario) {
        (Kind::CpuFull, "sod") => Some(0.001_100_695_037_154_915_7),
        (Kind::CpuFull, "noh") => Some(0.005_066_666_666_666_848_5),
        (Kind::CpuFull, "taylor-green") => Some(0.022_379_304_043_629_644),
        (Kind::HeteroFull, "taylor-green") => Some(0.011_335_967_254_870_294),
        _ => None,
    }
}

/// Grids of the 48 distinct `serve-mixed` configs (× 4 modes): the
/// paper's figure range, cost-only.
const SERVE_X: [usize; 3] = [100, 200, 300];
const SERVE_YZ: [(usize, usize); 4] = [(240, 160), (240, 320), (480, 160), (480, 320)];
const SERVE_MODES: [(&str, ExecMode); 4] = [
    ("cpuonly", ExecMode::CpuOnly),
    ("default", ExecMode::Default),
    ("mps", ExecMode::Mps { per_gpu: 4 }),
    ("hetero", ExecMode::Heterogeneous { cpu_fraction: None }),
];
/// Requests per distinct config in one round: 48 × 16 = 768 requests,
/// 48 misses and 720 repeats.
const SERVE_REPEAT: usize = 16;

/// One distinct configuration of a round, for the account pass.
pub struct Distinct {
    pub cfg: RunConfig,
    /// Runs through `run_balanced` (the §6.2 loop) rather than `run`.
    pub balanced: bool,
    /// Times the round *executes* it (cache hits do not execute).
    pub per_round: u32,
}

enum Plan {
    /// Direct `hsim_core::run` calls, in this order.
    Runs(Vec<RunConfig>),
    /// `run_figure_jobs(spec, &paper_modes(), 1)` per figure.
    Figures(Vec<FigureSpec>),
    /// `POST /run` bodies and the order the round sends them in
    /// (indices into `bodies`).
    Serve {
        bodies: Vec<String>,
        configs: Vec<RunConfig>,
        schedule: Vec<u16>,
    },
}

pub struct Workload {
    pub kind: Kind,
    plan: Plan,
}

/// What one round did. Everything but the latencies must be identical
/// from round to round.
#[derive(Debug, Default, Clone)]
pub struct RoundOut {
    /// Operations: one `run`, one figure, or one HTTP request.
    pub attempted: u64,
    pub failed: u64,
    /// Σ zones × cycles over the runs the round executed.
    pub zone_cycles: u64,
    /// Σ `RunResult::runtime` over the same runs, in virtual ns.
    pub virt_ns: u64,
    /// Order-independent digest of every output the round produced.
    pub digest: u64,
    pub sweep_points: u64,
    pub sweep_skipped: u64,
    pub serve_requests: u64,
    pub serve_executions: u64,
    pub serve_rejected: u64,
    pub serve_queue_high_water: f64,
    /// Per-request HTTP latencies (client side).
    pub hit_us: Vec<f64>,
    pub miss_ms: Vec<f64>,
}

/// The part of a round that must repeat exactly, round after round
/// and run after run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    pub attempted: u64,
    pub zone_cycles: u64,
    pub virt_ns: u64,
    pub digest: u64,
    pub sweep_points: u64,
    pub sweep_skipped: u64,
    pub serve_requests: u64,
    pub serve_executions: u64,
}

impl Exact {
    /// Million zone-cycles per virtual second: the modelled node's
    /// throughput over the runs the round executed.
    pub fn virt_mzc_per_s(&self) -> f64 {
        self.zone_cycles as f64 * 1e3 / self.virt_ns as f64
    }
}

impl RoundOut {
    pub fn exact(&self) -> Exact {
        Exact {
            attempted: self.attempted,
            zone_cycles: self.zone_cycles,
            virt_ns: self.virt_ns,
            digest: self.digest,
            sweep_points: self.sweep_points,
            sweep_skipped: self.sweep_skipped,
            serve_requests: self.serve_requests,
            serve_executions: self.serve_executions,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    ContentHasher::new().bytes(bytes).finish()
}

fn full_cfg(
    grid: (usize, usize, usize),
    mode: ExecMode,
    scenario: Scenario,
    cycles: u64,
) -> RunConfig {
    let mut cfg = RunConfig::sweep(grid, mode);
    cfg.problem = scenario.problem();
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = cycles;
    cfg.tile = Some(TILE);
    cfg
}

/// The request order of one `serve-mixed` round: every config
/// [`SERVE_REPEAT`] times, shuffled by the seed, so each config's
/// first occurrence is a miss and hits queue behind misses.
pub fn serve_schedule(seed: u64, configs: usize) -> Vec<u16> {
    let mut schedule: Vec<u16> = (0..configs * SERVE_REPEAT)
        .map(|i| (i % configs) as u16)
        .collect();
    shuffle(&mut SplitMix64::new(seed), &mut schedule);
    schedule
}

impl Workload {
    /// Build the round from the seed. Pins the tile first thing.
    pub fn build(kind: Kind, seed: u64) -> Workload {
        calib::seed_tile(TILE);
        let mut rng = SplitMix64::new(seed);
        let plan = match kind {
            Kind::CpuFull => {
                let mut runs: Vec<RunConfig> = Scenario::ALL
                    .into_iter()
                    .flat_map(|s| {
                        let cfg = full_cfg(cpu_full_grid(s), ExecMode::CpuOnly, s, CPU_FULL_CYCLES);
                        [cfg.clone(), cfg]
                    })
                    .collect();
                shuffle(&mut rng, &mut runs);
                Plan::Runs(runs)
            }
            Kind::HeteroFull => {
                let particle_seed = rng.next_u64();
                let mut runs: Vec<RunConfig> = [Scenario::Sedov, Scenario::TaylorGreen]
                    .into_iter()
                    .map(|s| {
                        let mode = ExecMode::Heterogeneous {
                            cpu_fraction: Some(HETERO_CPU_FRACTION),
                        };
                        let mut cfg = full_cfg(HETERO_GRID, mode, s, HETERO_CYCLES);
                        cfg.rebalance = Some(RebalanceConfig {
                            every: 2,
                            hysteresis: 0.02,
                        });
                        cfg.particles = Some(ParticlesConfig {
                            count: HETERO_PARTICLES,
                            seed: particle_seed,
                            ..ParticlesConfig::default()
                        });
                        cfg.diffusion = Some(DiffusionConfig::default());
                        cfg
                    })
                    .collect();
                shuffle(&mut rng, &mut runs);
                Plan::Runs(runs)
            }
            Kind::FigureSweep => {
                let mut figs = vec![figures::fig12(), figures::fig13(), figures::fig17()];
                shuffle(&mut rng, &mut figs);
                Plan::Figures(figs)
            }
            Kind::ServeMixed => {
                let mut bodies = Vec::new();
                let mut configs = Vec::new();
                for (mode_key, mode) in SERVE_MODES {
                    for x in SERVE_X {
                        for (y, z) in SERVE_YZ {
                            bodies.push(format!(
                                "mode={mode_key}&grid={x},{y},{z}&cycles={}&balanced=1",
                                calib::SWEEP_CYCLES
                            ));
                            configs.push(RunConfig::sweep((x, y, z), mode));
                        }
                    }
                }
                let schedule = serve_schedule(rng.next_u64(), bodies.len());
                Plan::Serve {
                    bodies,
                    configs,
                    schedule,
                }
            }
        };
        Workload { kind, plan }
    }

    /// The same round with library telemetry collection switched on
    /// (only the direct-run workloads have the flag in reach).
    pub fn with_telemetry(mut self) -> Workload {
        if let Plan::Runs(runs) = &mut self.plan {
            for cfg in runs {
                cfg.telemetry = true;
            }
        }
        self
    }

    /// Every distinct configuration the round executes.
    pub fn distinct(&self) -> Vec<Distinct> {
        match &self.plan {
            Plan::Runs(runs) => {
                let mut out: Vec<Distinct> = Vec::new();
                for cfg in runs {
                    let key = cfg.content_hash();
                    match out.iter_mut().find(|d| d.cfg.content_hash() == key) {
                        Some(d) => d.per_round += 1,
                        None => out.push(Distinct {
                            cfg: cfg.clone(),
                            balanced: false,
                            per_round: 1,
                        }),
                    }
                }
                out
            }
            Plan::Figures(figs) => figs
                .iter()
                .flat_map(|spec| {
                    paper_modes().into_iter().flat_map(move |mode| {
                        spec.points().into_iter().map(move |p| {
                            let mut cfg = RunConfig::sweep(p.grid(), mode);
                            cfg.problem = spec.scenario.problem();
                            Distinct {
                                cfg,
                                balanced: true,
                                per_round: 1,
                            }
                        })
                    })
                })
                .collect(),
            Plan::Serve { configs, .. } => configs
                .iter()
                .map(|cfg| Distinct {
                    cfg: cfg.clone(),
                    balanced: true,
                    per_round: 1,
                })
                .collect(),
        }
    }

    /// The check phase: invariants on every distinct configuration of
    /// the round, not golden values. `Err` names the first violation.
    pub fn check_phase(&self) -> Result<(), String> {
        match &self.plan {
            Plan::Runs(_) => {
                for d in self.distinct() {
                    self.check_full_run(&d.cfg)?;
                }
                Ok(())
            }
            Plan::Figures(figs) => {
                for spec in figs {
                    let a = run_figure_jobs(spec, &paper_modes(), 1);
                    let b = run_figure_jobs(spec, &paper_modes(), 1);
                    if !a.skipped.is_empty() {
                        return Err(format!("{}: {} skipped points", spec.id, a.skipped.len()));
                    }
                    if a.to_markdown() != b.to_markdown() {
                        return Err(format!("{}: two sweeps rendered differently", spec.id));
                    }
                }
                Ok(())
            }
            Plan::Serve { bodies, .. } => check_serve(bodies),
        }
    }

    fn check_full_run(&self, cfg: &RunConfig) -> Result<(), String> {
        let label = format!("{:?} {:?}", cfg.mode, cfg.grid);
        let a = hsim_core::run(cfg).map_err(|e| format!("{label}: {e}"))?;
        let b = hsim_core::run(cfg).map_err(|e| format!("{label}: {e}"))?;
        if render_response(&a) != render_response(&b) {
            return Err(format!("{label}: two runs rendered differently"));
        }
        match (a.mass, b.mass) {
            (Some(ma), Some(mb)) if ma.is_finite() && ma.to_bits() == mb.to_bits() => {}
            other => {
                return Err(format!(
                    "{label}: mass not finite and repeatable: {other:?}"
                ))
            }
        }
        let want = cfg.particles.map(|p| p.count);
        let got = a.particles.as_ref().map(|p| p.count);
        if want != got {
            return Err(format!("{label}: particles {got:?}, configured {want:?}"));
        }
        if let Some(sc) = &a.scenario {
            if let (Some(err), Some(ceiling)) = (sc.error, error_ceiling(self.kind, sc.name)) {
                if !(err.is_finite() && err <= 1.05 * ceiling) {
                    return Err(format!(
                        "{label}: {} {} = {err} above 1.05 x {ceiling}",
                        sc.name, sc.metric
                    ));
                }
            }
        }
        if cfg.rebalance.is_some() && a.balance_history.windows(2).all(|w| w[0] == w[1]) {
            return Err(format!(
                "{label}: the controller never re-split: {:?}",
                a.balance_history
            ));
        }
        Ok(())
    }

    /// Run one round. `ctx` is the round's own span (already open).
    pub fn round(&self, rec: &Recorder, ctx: Ctx) -> RoundOut {
        let mut out = RoundOut::default();
        match &self.plan {
            Plan::Runs(runs) => {
                for (op, cfg) in runs.iter().enumerate() {
                    out.attempted += 1;
                    match rec.scope(ctx, "core", "run", op as u32, |_| hsim_core::run(cfg)) {
                        Ok(r) => tally_run(&mut out, &r),
                        Err(_) => out.failed += 1,
                    }
                }
            }
            Plan::Figures(figs) => {
                for (op, spec) in figs.iter().enumerate() {
                    out.attempted += 1;
                    let data = rec.scope(ctx, "bench-sweep", "run_figure_jobs", op as u32, |_| {
                        run_figure_jobs(spec, &paper_modes(), 1)
                    });
                    out.sweep_skipped += data.skipped.len() as u64;
                    if !data.skipped.is_empty() {
                        out.failed += 1;
                    }
                    for &(zones, _, runtime_s, _) in data.series.iter().flat_map(|s| &s.points) {
                        out.sweep_points += 1;
                        out.zone_cycles += zones * calib::SWEEP_CYCLES;
                        out.virt_ns += (runtime_s * 1e9).round() as u64;
                    }
                    out.digest = out
                        .digest
                        .wrapping_add(fnv1a(data.to_markdown().as_bytes()));
                }
            }
            Plan::Serve {
                bodies, schedule, ..
            } => serve_round(rec, ctx, bodies, schedule, &mut out),
        }
        out
    }
}

fn tally_run(out: &mut RoundOut, r: &RunResult) {
    out.zone_cycles += r.zones * r.cycles;
    out.virt_ns += r.runtime.as_nanos();
    out.digest = out.digest.wrapping_add(fnv1a(&render_response(r)));
}

// ---------------------------------------------------------------------------
// serve-mixed: a fresh server behind the HTTP front end, closed-loop clients
// ---------------------------------------------------------------------------

struct HttpReply {
    status: u16,
    /// `X-Cache: hit` → `Some(true)`, `miss` → `Some(false)`.
    cache_hit: Option<bool>,
    body: Vec<u8>,
}

/// One request on one connection (`Connection: close`), as the
/// scripts and CI jobs that call the server do.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<HttpReply> {
    let mut stream = TcpStream::connect(addr)?;
    // A reply that never comes fails the request instead of hanging the run.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::with_capacity(2048);
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 headers"))?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let cache_hit = head.lines().find_map(|l| match l.trim() {
        "X-Cache: hit" => Some(true),
        "X-Cache: miss" => Some(false),
        _ => None,
    });
    Ok(HttpReply {
        status,
        cache_hit,
        body: raw[split + 4..].to_vec(),
    })
}

/// `(zones × cycles, virtual ns)` from the CSV row a `/run` reply
/// carries on its second line.
fn reply_account(body: &[u8]) -> Option<(u64, u64)> {
    let row = std::str::from_utf8(body).ok()?.lines().nth(1)?;
    let (_, _, zones, cycles, runtime_s, ..) = RunResult::parse_csv_row(row).ok()?;
    Some((zones * cycles, (runtime_s * 1e9).round() as u64))
}

fn fresh_server() -> Server {
    Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 32,
        default_deadline: None,
        tile: Some(TILE),
    })
}

/// Serve `requests` connections on a loopback listener while
/// `clients` runs, then make sure the accept loop has ended.
fn with_http_server<R>(
    rec: &Recorder,
    ctx: Ctx,
    server: &Server,
    requests: usize,
    clients: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<R> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok(std::thread::scope(|s| {
        let accept_ctx = Ctx { lane: 9, ..ctx };
        let accept = s.spawn(move || {
            rec.scope(accept_ctx, "serve", "http::serve", 0, |_| {
                http::serve(server, listener, Some(requests))
            })
        });
        let out = clients(addr);
        // The loop ends right after the last reply. A request that
        // failed before it was accepted leaves it one connection short;
        // top it up so the scope can join.
        while !accept.is_finished() {
            std::thread::sleep(Duration::from_micros(200));
            if !accept.is_finished() {
                let _ = http_request(addr, "GET", "/healthz", "");
            }
        }
        out
    }))
}

fn serve_round(rec: &Recorder, ctx: Ctx, bodies: &[String], schedule: &[u16], out: &mut RoundOut) {
    let server = rec.scope(ctx, "serve", "Server::new", 0, |_| fresh_server());
    let threads = host::load_threads();
    out.attempted += schedule.len() as u64;
    out.serve_requests = schedule.len() as u64;
    // Each client walks its own slice of the schedule, one connection
    // at a time: closed loop, `threads` requests in flight at most.
    let client = |addr: SocketAddr, lane: usize| {
        let mut part = RoundOut::default();
        let lane_ctx = Ctx {
            lane: lane as u32 + 1,
            ..ctx
        };
        for (op, &cfg_idx) in schedule.iter().enumerate().skip(lane).step_by(threads) {
            let t0 = Instant::now();
            let reply = rec.scope(lane_ctx, "client", "POST /run", op as u32, |_| {
                http_request(addr, "POST", "/run", &bodies[cfg_idx as usize])
            });
            let elapsed = t0.elapsed().as_secs_f64();
            match reply {
                Ok(r) if r.status == 200 => {
                    part.digest = part.digest.wrapping_add(fnv1a(&r.body));
                    if r.cache_hit == Some(false) {
                        part.serve_executions += 1;
                        part.miss_ms.push(elapsed * 1e3);
                        match reply_account(&r.body) {
                            Some((zc, ns)) => {
                                part.zone_cycles += zc;
                                part.virt_ns += ns;
                            }
                            None => part.failed += 1,
                        }
                    } else {
                        part.hit_us.push(elapsed * 1e6);
                    }
                }
                _ => part.failed += 1,
            }
        }
        part
    };
    let parts = with_http_server(rec, ctx, &server, schedule.len(), |addr| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|lane| s.spawn(move || client(addr, lane)))
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().ok())
                .collect::<Vec<RoundOut>>()
        })
    });
    match parts {
        Ok(parts) if parts.len() == threads => {
            for p in parts {
                out.failed += p.failed;
                out.zone_cycles += p.zone_cycles;
                out.virt_ns += p.virt_ns;
                out.digest = out.digest.wrapping_add(p.digest);
                out.serve_executions += p.serve_executions;
                out.hit_us.extend(p.hit_us);
                out.miss_ms.extend(p.miss_ms);
            }
        }
        _ => out.failed = out.attempted,
    }
    let stats = server.stats();
    out.serve_rejected = stats.rejected;
    out.serve_queue_high_water = stats.queue_depth_high_water;
    rec.scope(ctx, "serve", "Server::drop", 0, |_| drop(server));
}

/// Check phase of `serve-mixed`: over HTTP, the first request of a key
/// is a miss, its repeat is a hit with identical bytes, and the server
/// runs on the pinned tile.
fn check_serve(bodies: &[String]) -> Result<(), String> {
    let server = fresh_server();
    if server.tile() != TILE {
        return Err(format!("server tile {:?}, pinned {TILE:?}", server.tile()));
    }
    let rec = Recorder::new(false);
    let verdict = with_http_server(&rec, Ctx::root(0), &server, 2 * bodies.len(), |addr| {
        for body in bodies {
            let fetch =
                || http_request(addr, "POST", "/run", body).map_err(|e| format!("`{body}`: {e}"));
            let miss = fetch()?;
            let hit = fetch()?;
            if (miss.status, hit.status) != (200, 200) {
                return Err(format!(
                    "`{body}`: HTTP {} then {}",
                    miss.status, hit.status
                ));
            }
            if (miss.cache_hit, hit.cache_hit) != (Some(false), Some(true)) {
                return Err(format!(
                    "`{body}`: X-Cache {:?} then {:?}, want miss then hit",
                    miss.cache_hit, hit.cache_hit
                ));
            }
            if miss.body != hit.body {
                return Err(format!("`{body}`: the hit's bytes differ from the miss's"));
            }
            if reply_account(&miss.body).is_none() {
                return Err(format!("`{body}`: reply carries no CSV row"));
            }
        }
        Ok(())
    });
    verdict.map_err(|e| format!("loopback listener: {e}"))?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_schedule_is_seeded_with_48_keys_and_720_repeats() {
        let a = serve_schedule(11, 48);
        assert_eq!(a, serve_schedule(11, 48));
        assert_ne!(a, serve_schedule(12, 48));
        assert_eq!(a.len(), 768);
        let mut first_seen = std::collections::BTreeSet::new();
        let repeats = a.iter().filter(|&&k| !first_seen.insert(k)).count();
        assert_eq!((first_seen.len(), repeats), (48, 720));
    }

    #[test]
    fn serve_workload_has_48_distinct_bodies_and_cache_keys() {
        let Plan::Serve {
            bodies, configs, ..
        } = Workload::build(Kind::ServeMixed, 5).plan
        else {
            panic!("serve-mixed builds a serve plan");
        };
        let mut keys: Vec<u64> = configs.iter().map(RunConfig::content_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!((bodies.len(), keys.len()), (48, 48));
    }

    #[test]
    fn seed_permutes_the_round_but_not_its_contents() {
        for kind in [Kind::CpuFull, Kind::HeteroFull, Kind::FigureSweep] {
            let count = |seed| {
                let mut d: Vec<(u64, u32)> = Workload::build(kind, seed)
                    .distinct()
                    .iter()
                    .map(|d| (d.cfg.content_hash(), d.per_round))
                    .collect();
                d.sort_unstable();
                d
            };
            let (a, b) = (count(1), count(2));
            assert_eq!(a.len(), b.len(), "{kind:?}");
            if kind != Kind::HeteroFull {
                // hetero-full draws its particle seed from --seed.
                assert_eq!(a, b, "{kind:?}");
            }
        }
        assert_eq!(Workload::build(Kind::CpuFull, 1).distinct().len(), 4);
    }

    #[test]
    fn reply_account_reads_the_csv_row() {
        let body = b"schema,mode,nx,ny,nz,zones,cycles,runtime_s,cpu_fraction,launches,mpi_bytes\n\
                     2,default,10,20,30,6000,10,0.012345,0.0000,850,1024\n\nrest";
        assert_eq!(reply_account(body), Some((60_000, 12_345_000)));
        assert_eq!(reply_account(b"nope"), None);
    }

    #[test]
    fn virtual_throughput_is_zone_cycles_per_virtual_second() {
        let out = RoundOut {
            zone_cycles: 2_000_000,
            virt_ns: 1_000_000_000,
            ..RoundOut::default()
        };
        assert_eq!(out.exact().virt_mzc_per_s(), 2.0);
    }

    #[test]
    fn kind_names_match_the_spec_table() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        let spec: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, spec);
        assert_eq!(Kind::parse("serve-mixed"), Some(Kind::ServeMixed));
        assert_eq!(Kind::parse("nope"), None);
    }
}
