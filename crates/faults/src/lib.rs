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
//! # Recovery policy
//!
//! Recovery is written once, here: a site that catches a fault hands
//! it to [`recover`] with what one failed attempt costs it, and gets
//! back `Ok` (every cost charged, counted and spanned) or a typed
//! [`Escalation`]. Failed attempt `k` (0-based) pays the site's cost,
//! then [`backoff_delay`]`(k)` as `Wait`; a fault fails `count`
//! attempts, and the budget is [`MAX_RETRIES`]. Every recovery counts
//! `fault_injected`, `fault_retries` (one per failed attempt) and
//! `fault_recovered`, and opens one span from the fault to the end of
//! its recovery.
//!
//! | site | a failed attempt costs | `perm`, or `count` > 3 | error text |
//! |---|---|---|---|
//! | `gpu.launch` | backoff | escalates | `injected permanent launch fault` / `launch retry budget exhausted` |
//! | `pool.panic` | the region's `Compute` + backoff | escalates | `injected permanent worker panic` / `worker panic retry budget exhausted` |
//! | `gpu.oom` | backoff | escalates | `injected device OOM: mesh allocation permanently refused` / `injected device OOM exceeded the retry budget` |
//! | `mps.connect` | backoff | escalates before any rank starts | `injected MPS rejection: the server permanently refused rank N's client` / `rank N: injected MPS rejection exceeded the retry budget` |
//! | `xfer.corrupt` | the resend's `Memory` + backoff | caps at 3 retries | — |
//! | `xfer.delay` | no retry: one `Comm` stall of `ns=` | the same stall | — |
//! | `rank.loss` | no retry: the run loop folds the rank's box back | — | — |
//!
//! Two sites fire at set-up rather than in a cycle: `gpu.oom` at the
//! set-up of the segment that starts at its cycle, and `mps.connect`
//! at the set-up of the first segment *whatever cycle it names* — an
//! MPS client connects once per run.
//!
//! # Injection model
//!
//! Rank threads install a thread-local injector
//! ([`install`]/[`uninstall`], mirroring the telemetry collector
//! pattern) and advance it with [`set_cycle`]; instrumented sites call
//! [`check`], which consumes at most one matching event per call. MPS
//! connect, which fires on no cycle, reads the plan directly via
//! [`FaultPlan::of_site`]. When no injector is installed every check is
//! a branch-and-return: fault-free runs pay nothing and change no
//! behavior.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use hsim_telemetry::{Category, Counter};
use hsim_time::clock::ChargeKind;
use hsim_time::{rng::SplitMix64, RankClock, SimDuration};

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

impl FaultEvent {
    /// How many failed attempts recovery pays for, or why it gives up:
    /// the site's row of the table in the module docs.
    pub fn attempts(&self) -> Result<u32, Escalation> {
        let count = match self.severity {
            Severity::Permanent => u32::MAX,
            Severity::Transient { count } => count,
        };
        let (permanent, exhausted) = match self.site {
            // A stall and a foldback: nothing is retried.
            Site::XferDelay | Site::RankLoss => return Ok(0),
            // Corruption is transient by nature (the resend re-reads
            // still-correct fields): past the budget, it pays the budget.
            Site::XferCorrupt => return Ok(count.min(MAX_RETRIES)),
            Site::GpuLaunch => (
                "injected permanent launch fault",
                "launch retry budget exhausted",
            ),
            Site::PoolPanic => (
                "injected permanent worker panic",
                "worker panic retry budget exhausted",
            ),
            Site::GpuOom => (
                "injected device OOM: mesh allocation permanently refused",
                "injected device OOM exceeded the retry budget",
            ),
            Site::MpsConnect => (
                "injected MPS rejection: the server permanently refused rank {rank}'s client",
                "rank {rank}: injected MPS rejection exceeded the retry budget",
            ),
        };
        let text = match self.severity {
            Severity::Permanent => permanent,
            Severity::Transient { .. } if count > MAX_RETRIES => exhausted,
            Severity::Transient { .. } => return Ok(count),
        };
        Err(Escalation {
            site: self.site,
            rank: self.rank,
            text,
        })
    }
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

/// A fault recovery gave up on: permanent, or past the retry budget at
/// a site that escalates. `Display` is the error text the site's
/// caller reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    pub site: Site,
    pub rank: usize,
    /// The site's text, `{rank}` where it names the rank.
    text: &'static str,
}

impl Escalation {
    /// The text with `{rank}` unfilled, for a caller that names the
    /// rank itself (only `mps.connect`'s texts name it).
    pub fn reason(&self) -> &'static str {
        self.text
    }
}

impl fmt::Display for Escalation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text.replace("{rank}", &self.rank.to_string()))
    }
}

impl std::error::Error for Escalation {}

/// Pay for `fault` on `clock`, the one place recovery is charged:
/// failed attempt `k` charges `cost` (what an attempt wastes at the
/// site, if anything), then [`backoff_delay`]`(k)` as `Wait`;
/// `xfer.delay` charges `cost` once, as its stall. Counts the three
/// `fault_*` counters and records `span` from the fault to the end of
/// recovery.
pub fn recover(
    clock: &mut RankClock,
    fault: FaultEvent,
    cost: Option<(ChargeKind, SimDuration)>,
    span: (Category, &'static str),
) -> Result<(), Escalation> {
    let t0 = clock.now();
    hsim_telemetry::count(Counter::FaultsInjected, 1);
    let attempts = fault.attempts()?;
    if let (Site::XferDelay, Some((kind, stall))) = (fault.site, cost) {
        clock.charge(kind, stall);
    }
    for attempt in 0..attempts {
        if let Some((kind, wasted)) = cost {
            clock.charge(kind, wasted);
        }
        clock.charge(ChargeKind::Wait, backoff_delay(attempt));
        hsim_telemetry::count(Counter::FaultRetries, 1);
    }
    hsim_telemetry::count(Counter::FaultsRecovered, 1);
    hsim_telemetry::rank_span(span.0, span.1, t0, clock.now());
    Ok(())
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

/// Whether this thread has an injector armed.
pub fn armed() -> bool {
    INJECTOR.with(|slot| slot.borrow().is_some())
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
pub fn check(site: Site) -> Option<FaultEvent> {
    INJECTOR.with(|inj| {
        let mut borrow = inj.borrow_mut();
        let inj = borrow.as_mut()?;
        for (i, e) in inj.plan.events.iter().enumerate() {
            if !inj.consumed[i] && e.site == site && e.rank == inj.rank && e.cycle == inj.cycle {
                inj.consumed[i] = true;
                return Some(*e);
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

    fn attempts(spec: &str) -> Result<u32, String> {
        let plan = FaultPlan::parse(spec).unwrap();
        plan.events[0].attempts().map_err(|e| e.to_string())
    }

    #[test]
    fn the_table_escalates_caps_and_stalls() {
        assert_eq!(attempts("gpu.launch@rank1.cycle0:count=3"), Ok(3));
        assert_eq!(
            attempts("gpu.launch@rank1.cycle0:count=4"),
            Err("launch retry budget exhausted".into())
        );
        assert_eq!(
            attempts("mps.connect@rank2.cycle5:perm"),
            Err("injected MPS rejection: the server permanently refused rank 2's client".into())
        );
        assert_eq!(
            attempts("mps.connect@rank2.cycle0:count=9"),
            Err("rank 2: injected MPS rejection exceeded the retry budget".into())
        );
        assert_eq!(attempts("xfer.corrupt@rank0.cycle0:count=9"), Ok(3));
        assert_eq!(attempts("xfer.corrupt@rank0.cycle0:perm"), Ok(3));
        assert_eq!(attempts("xfer.delay@rank0.cycle0:perm"), Ok(0));
    }

    #[test]
    fn recovery_charges_each_attempt_then_its_backoff() {
        let us = SimDuration::from_nanos(1_000);
        let hit = |spec| FaultPlan::parse(spec).unwrap().events[0];
        let span = (Category::Runtime, "fault_test");

        let mut clock = RankClock::new(0);
        let corrupt = hit("xfer.corrupt@rank0.cycle0:count=2");
        recover(&mut clock, corrupt, Some((ChargeKind::Memory, us)), span).unwrap();
        assert_eq!(clock.bucket(ChargeKind::Memory), us + us);
        assert_eq!(
            clock.bucket(ChargeKind::Wait),
            backoff_delay(0) + backoff_delay(1)
        );

        let mut clock = RankClock::new(0);
        let delay = hit("xfer.delay@rank0.cycle0:count=3");
        recover(&mut clock, delay, Some((ChargeKind::Comm, us)), span).unwrap();
        assert_eq!(clock.bucket(ChargeKind::Comm), us, "one stall");
        assert_eq!(clock.bucket(ChargeKind::Wait), SimDuration::ZERO);

        let mut clock = RankClock::new(0);
        let oom = hit("gpu.oom@rank0.cycle0:perm");
        assert!(recover(&mut clock, oom, None, span).is_err());
        assert_eq!(
            clock.now(),
            hsim_time::SimTime::ZERO,
            "an escalation charges nothing"
        );
    }
}
