//! Deterministic fault injection for the simulated heterogeneous stack.
//!
//! A [`FaultPlan`] is a small, fully explicit list of failures to
//! provoke at named sites — GPU launch failure, device OOM, MPS client
//! rejection, transfer delay/corruption, rank loss, worker-pool panic.
//! Plans come from a textual spec (the CLI's `--faults` flag) or from a
//! seed, and everything downstream is deterministic: the same plan and
//! simulation seed must produce byte-identical recovery traces.
//!
//! # Spec grammar
//!
//! ```text
//! plan    := event (';' event)*
//! event   := site '@' 'rank' N '.' 'cycle' M (':' opt (',' opt)*)?
//! site    := 'gpu.launch' | 'gpu.oom' | 'mps.connect' | 'xfer.delay'
//!          | 'xfer.corrupt' | 'rank.loss' | 'pool.panic'
//! opt     := 'perm' | 'count=' N | 'ns=' N
//! ```
//!
//! Examples:
//!
//! ```text
//! xfer.delay@rank1.cycle2:ns=200000
//! gpu.launch@rank0.cycle3:count=2;rank.loss@rank5.cycle4
//! ```
//!
//! `rank.loss` is permanent by default; every other site defaults to a
//! single transient occurrence (recovered by bounded retry-with-backoff
//! charged to the *virtual* clocks). `perm` makes any site permanent,
//! which recovery must surface as a typed error or a degraded
//! decomposition — never a panic or hang.
//!
//! # Injection model
//!
//! Rank threads install a thread-local injector
//! ([`install`]/[`uninstall`], mirroring the telemetry collector
//! pattern) and advance it with [`set_cycle`]; instrumented sites call
//! [`check`], which consumes at most one matching event per call. Code
//! running on the coordinating thread (e.g. MPS connect during device
//! setup) queries the plan directly via [`FaultPlan::of_site`]. When no
//! injector is installed every check is a branch-and-return: fault-free
//! runs pay nothing and change no behavior.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::Arc;

use hsim_time::{rng::SplitMix64, SimDuration};

/// Named injection sites, one per failure class the stack models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// GPU kernel launch failure (retried in the executor).
    GpuLaunch,
    /// Device out-of-memory during unified-memory setup.
    GpuOom,
    /// MPS client rejected at connect time.
    MpsConnect,
    /// Halo transfer stalls; recovery charges the delay and goes on.
    XferDelay,
    /// Halo transfer corrupted; recovery re-stages and re-sends.
    XferCorrupt,
    /// An MPI rank drops out of the job.
    RankLoss,
    /// A worker thread panics inside a parallel region.
    PoolPanic,
}

impl Site {
    /// Every site, in spec-name order (stable for seeded plans).
    pub const ALL: [Site; 7] = [
        Site::GpuLaunch,
        Site::GpuOom,
        Site::MpsConnect,
        Site::XferDelay,
        Site::XferCorrupt,
        Site::RankLoss,
        Site::PoolPanic,
    ];

    /// The dotted name used in fault specs.
    pub fn spec_name(&self) -> &'static str {
        match self {
            Site::GpuLaunch => "gpu.launch",
            Site::GpuOom => "gpu.oom",
            Site::MpsConnect => "mps.connect",
            Site::XferDelay => "xfer.delay",
            Site::XferCorrupt => "xfer.corrupt",
            Site::RankLoss => "rank.loss",
            Site::PoolPanic => "pool.panic",
        }
    }

    /// Parse a dotted spec name.
    pub fn from_spec(name: &str) -> Result<Site, String> {
        Site::ALL
            .iter()
            .copied()
            .find(|s| s.spec_name() == name)
            .ok_or_else(|| format!("unknown fault site {name:?}"))
    }
}

/// How long a fault lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `count` attempts, then the operation succeeds; recovery
    /// is bounded retry-with-backoff charged to virtual time.
    Transient { count: u32 },
    /// Never succeeds; recovery must degrade or return a typed error.
    Permanent,
}

/// One planned failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: Site,
    /// MPI rank the fault targets.
    pub rank: usize,
    /// Cycle at which it fires (setup-time sites use cycle 0).
    pub cycle: u64,
    pub severity: Severity,
    /// Site-specific parameter (`ns=` in specs): the stall for
    /// `xfer.delay`, ignored elsewhere.
    pub param: u64,
}

/// Default `xfer.delay` stall when the spec omits `ns=`.
pub const DEFAULT_XFER_DELAY_NS: u64 = 200_000;

/// Retry budget for transient faults before they are escalated.
pub const MAX_RETRIES: u32 = 3;

/// First retry backoff; doubles per attempt (virtual time).
pub const BACKOFF_BASE_NS: u64 = 50_000;

/// Virtual-time backoff before retry `attempt` (0-based): exponential,
/// `BACKOFF_BASE_NS << attempt`.
pub fn backoff_delay(attempt: u32) -> SimDuration {
    SimDuration::from_nanos(BACKOFF_BASE_NS << attempt.min(MAX_RETRIES))
}

/// A deterministic list of failures to inject into one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with a single event using the site's default severity.
    pub fn single(site: Site, rank: usize, cycle: u64) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                site,
                rank,
                cycle,
                severity: default_severity(site),
                param: default_param(site),
            }],
        }
    }

    /// Parse the textual spec grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (head, opts) = match part.split_once(':') {
                Some((h, o)) => (h, o),
                None => (part, ""),
            };
            let (site_s, at) = head
                .split_once('@')
                .ok_or_else(|| format!("fault {part:?}: missing '@rankN.cycleM'"))?;
            let site = Site::from_spec(site_s.trim())?;
            let (rank_s, cycle_s) = at
                .split_once('.')
                .ok_or_else(|| format!("fault {part:?}: expected rankN.cycleM, got {at:?}"))?;
            let rank: usize = rank_s
                .strip_prefix("rank")
                .ok_or_else(|| format!("fault {part:?}: expected rankN, got {rank_s:?}"))?
                .parse()
                .map_err(|e| format!("fault {part:?}: bad rank: {e}"))?;
            let cycle: u64 = cycle_s
                .strip_prefix("cycle")
                .ok_or_else(|| format!("fault {part:?}: expected cycleM, got {cycle_s:?}"))?
                .parse()
                .map_err(|e| format!("fault {part:?}: bad cycle: {e}"))?;
            let mut severity = default_severity(site);
            let mut param = default_param(site);
            for opt in opts.split(',').map(str::trim).filter(|o| !o.is_empty()) {
                if opt == "perm" {
                    severity = Severity::Permanent;
                } else if let Some(v) = opt.strip_prefix("count=") {
                    let count = v
                        .parse()
                        .map_err(|e| format!("fault {part:?}: bad count: {e}"))?;
                    severity = Severity::Transient { count };
                } else if let Some(v) = opt.strip_prefix("ns=") {
                    param = v
                        .parse()
                        .map_err(|e| format!("fault {part:?}: bad ns: {e}"))?;
                } else {
                    return Err(format!("fault {part:?}: unknown option {opt:?}"));
                }
            }
            events.push(FaultEvent {
                site,
                rank,
                cycle,
                severity,
                param,
            });
        }
        Ok(FaultPlan { events })
    }

    /// A single-event plan drawn deterministically from `seed`: equal
    /// seeds yield equal plans for equal `(ranks, cycles)` bounds.
    pub fn seeded(seed: u64, ranks: usize, cycles: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let site = Site::ALL[rng.next_below(Site::ALL.len() as u64) as usize];
        let rank = rng.next_below(ranks.max(1) as u64) as usize;
        let cycle = rng.next_below(cycles.max(1));
        FaultPlan::single(site, rank, cycle)
    }

    /// Round-trip the plan back to its textual spec.
    pub fn spec(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&format!(
                "{}@rank{}.cycle{}",
                e.site.spec_name(),
                e.rank,
                e.cycle
            ));
            let mut opts = Vec::new();
            if e.severity != default_severity(e.site) {
                match e.severity {
                    Severity::Permanent => opts.push("perm".to_string()),
                    Severity::Transient { count } => opts.push(format!("count={count}")),
                }
            }
            if e.param != default_param(e.site) {
                opts.push(format!("ns={}", e.param));
            }
            if !opts.is_empty() {
                out.push(':');
                out.push_str(&opts.join(","));
            }
        }
        out
    }

    /// Events targeting `site`, in plan order.
    pub fn of_site(&self, site: Site) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.site == site)
    }

    /// `(rank, cycle)` of every permanent rank loss, in plan order.
    pub fn rank_losses(&self) -> Vec<(usize, u64)> {
        self.of_site(Site::RankLoss)
            .filter(|e| e.severity == Severity::Permanent)
            .map(|e| (e.rank, e.cycle))
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn default_severity(site: Site) -> Severity {
    match site {
        Site::RankLoss => Severity::Permanent,
        _ => Severity::Transient { count: 1 },
    }
}

fn default_param(site: Site) -> u64 {
    match site {
        Site::XferDelay => DEFAULT_XFER_DELAY_NS,
        _ => 0,
    }
}

/// What an instrumented site learns when a planned fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultHit {
    pub site: Site,
    pub severity: Severity,
    pub param: u64,
}

/// One rank's armed fault plan: its position in the plan and which
/// events it has already consumed. Opaque; it exists outside the
/// thread-local only while [`swap`]ped out.
pub struct Injector {
    rank: usize,
    cycle: u64,
    plan: Arc<FaultPlan>,
    consumed: Vec<bool>,
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// Arm fault injection on this thread for `rank`. Pairs with
/// [`uninstall`]; nested installs replace the previous injector.
pub fn install(rank: usize, plan: Arc<FaultPlan>) {
    let consumed = vec![false; plan.events.len()];
    swap(Some(Injector {
        rank,
        cycle: 0,
        plan,
        consumed,
    }));
}

/// Disarm fault injection on this thread.
pub fn uninstall() {
    swap(None);
}

/// Exchange this thread's injector for `inj` and return the one that
/// was armed. Ranks that share a thread trade places this way, each
/// keeping its consumed-event state while another runs.
pub fn swap(inj: Option<Injector>) -> Option<Injector> {
    INJECTOR.with(|slot| slot.replace(inj))
}

/// Advance the injector to `cycle`; events fire only on their cycle.
pub fn set_cycle(cycle: u64) {
    INJECTOR.with(|inj| {
        if let Some(inj) = inj.borrow_mut().as_mut() {
            inj.cycle = cycle;
        }
    });
}

/// Consume and return the first unconsumed event matching `site` on
/// this thread's rank at the current cycle, if any. No injector → no
/// fault, no cost.
pub fn check(site: Site) -> Option<FaultHit> {
    INJECTOR.with(|inj| {
        let mut borrow = inj.borrow_mut();
        let inj = borrow.as_mut()?;
        for (i, e) in inj.plan.events.iter().enumerate() {
            if !inj.consumed[i] && e.site == site && e.rank == inj.rank && e.cycle == inj.cycle {
                inj.consumed[i] = true;
                return Some(FaultHit {
                    site,
                    severity: e.severity,
                    param: e.param,
                });
            }
        }
        None
    })
}

/// Marker payload for an injected worker panic: the pool's poison path
/// downcasts to this type to tell a planned chaos panic (retry the
/// region once) from a genuine bug (propagate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedWorkerPanic;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan =
            FaultPlan::parse("xfer.delay@rank1.cycle2:ns=123;rank.loss@rank5.cycle4").unwrap();
        assert_eq!(plan.events.len(), 2);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                site: Site::XferDelay,
                rank: 1,
                cycle: 2,
                severity: Severity::Transient { count: 1 },
                param: 123,
            }
        );
        assert_eq!(
            plan.events[1],
            FaultEvent {
                site: Site::RankLoss,
                rank: 5,
                cycle: 4,
                severity: Severity::Permanent,
                param: 0,
            }
        );
        assert_eq!(plan.rank_losses(), vec![(5, 4)]);
    }

    #[test]
    fn parses_severity_options() {
        let plan = FaultPlan::parse("gpu.launch@rank0.cycle3:count=2").unwrap();
        assert_eq!(plan.events[0].severity, Severity::Transient { count: 2 });
        let plan = FaultPlan::parse("gpu.oom@rank2.cycle0:perm").unwrap();
        assert_eq!(plan.events[0].severity, Severity::Permanent);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "gpu.launch",
            "nosuch.site@rank0.cycle0",
            "gpu.launch@rank0",
            "gpu.launch@core0.cycle1",
            "gpu.launch@rank0.cycle1:bogus=3",
            "gpu.launch@rankX.cycle1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn spec_round_trips() {
        for spec in [
            "gpu.launch@rank0.cycle3",
            "xfer.delay@rank1.cycle2:ns=123",
            "gpu.launch@rank0.cycle3:count=2",
            "rank.loss@rank5.cycle4",
            "xfer.delay@rank1.cycle2:ns=123;rank.loss@rank5.cycle4",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_bounds() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 16, 10);
            let b = FaultPlan::seeded(seed, 16, 10);
            assert_eq!(a, b);
            assert_eq!(a.events.len(), 1);
            assert!(a.events[0].rank < 16);
            assert!(a.events[0].cycle < 10);
        }
        // Different seeds explore different sites eventually.
        let distinct: std::collections::HashSet<_> = (0..64)
            .map(|s| FaultPlan::seeded(s, 16, 10).events[0].site.spec_name())
            .collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn injector_fires_once_on_the_right_rank_and_cycle() {
        let plan = Arc::new(FaultPlan::parse("gpu.launch@rank3.cycle2").unwrap());
        install(3, plan.clone());
        assert!(check(Site::GpuLaunch).is_none(), "cycle 0: nothing");
        set_cycle(2);
        assert!(check(Site::GpuOom).is_none(), "wrong site");
        let hit = check(Site::GpuLaunch).expect("fires at rank3.cycle2");
        assert_eq!(hit.severity, Severity::Transient { count: 1 });
        assert!(check(Site::GpuLaunch).is_none(), "consumed");
        uninstall();

        // The wrong rank never sees it.
        install(1, plan);
        set_cycle(2);
        assert!(check(Site::GpuLaunch).is_none());
        uninstall();
    }

    #[test]
    fn no_injector_means_no_faults() {
        uninstall();
        assert!(check(Site::XferDelay).is_none());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_delay(0), SimDuration::from_nanos(BACKOFF_BASE_NS));
        assert_eq!(
            backoff_delay(1),
            SimDuration::from_nanos(BACKOFF_BASE_NS * 2)
        );
        assert_eq!(backoff_delay(MAX_RETRIES), backoff_delay(MAX_RETRIES + 9));
    }
}
