//! Heterogeneous load balancing (paper §6.2).
//!
//! "We started with an initial guess of work split between the
//! processors based on FLOPS. We measured the respective contributions
//! of CPU vs. GPU, and adjusted the split to achieve load balance. …
//! Our approach is static within an iteration, but the decomposition
//! can be adjusted between iterations."

use hsim_hydro::kernels;
use hsim_time::SimDuration;

use crate::calib;
use crate::node::NodeConfig;

/// The between-iterations load balancer for the Heterogeneous mode.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    /// Current CPU work fraction.
    pub fraction: f64,
    /// Minimum realizable fraction (decomposition granularity: one
    /// y-plane per CPU rank).
    pub min_fraction: f64,
    /// Smoothing gain toward the measured optimum.
    pub gain: f64,
    /// Conservatism applied to the balanced target. The cycle is a
    /// chain of bulk-synchronous *phases* (save → dt → sweep → …)
    /// whose cost distribution differs between processor kinds, so a
    /// CPU slab sized to match the GPU's whole-cycle time still
    /// straggles inside individual phases. Derating the target keeps
    /// the CPU off the critical path — this is why the paper could
    /// give the CPUs only 1–2% against a ~4% FLOPS share.
    pub phase_derate: f64,
    /// Fractions tried so far (first entry = initial guess).
    pub history: Vec<f64>,
}

impl LoadBalancer {
    /// FLOPS-based initial guess: the CPU workers' share of effective
    /// node throughput on the flux kernel (the cycle's workhorse),
    /// including the lambda-bug penalty the paper had to account for.
    pub fn initial_guess(node: &NodeConfig) -> f64 {
        let desc = &kernels::FLUX;
        let cpu_rate = node.worker_cores() as f64 * node.cpu.elems_per_sec(desc);
        // GPU per-element rate at high occupancy.
        let spec = &node.gpu_spec;
        let per_elem = (desc.flops_per_elem / (spec.fp64_gflops * 1e9))
            .max(desc.bytes_per_elem / (spec.mem_bandwidth_gbs * 1e9));
        let gpu_rate = node.gpus as f64 * 0.9 / per_elem;
        (cpu_rate / (cpu_rate + gpu_rate)).clamp(0.001, 0.5)
    }

    /// Start from the FLOPS guess.
    pub fn new(node: &NodeConfig) -> Self {
        let f = Self::initial_guess(node);
        let f = f * calib::PHASE_DERATE;
        LoadBalancer {
            fraction: f,
            min_fraction: 0.0,
            gain: calib::BALANCE_GAIN,
            phase_derate: calib::PHASE_DERATE,
            history: vec![f],
        }
    }

    /// Start from an explicit fraction (no derate applied: the caller
    /// states exactly what they want).
    pub fn with_fraction(fraction: f64) -> Self {
        LoadBalancer {
            fraction,
            min_fraction: 0.0,
            gain: calib::BALANCE_GAIN,
            phase_derate: 1.0,
            history: vec![fraction],
        }
    }

    /// Record the decomposition's granularity bound (`min_planes /
    /// carve_extent`): fractions below it are not realizable.
    pub fn set_min_fraction(&mut self, min_fraction: f64) {
        self.min_fraction = min_fraction.clamp(0.0, 0.5);
    }

    /// Feed back measured per-cycle busy times of the slowest CPU
    /// worker and the slowest GPU rank; returns the adjusted fraction.
    ///
    /// At fraction `f` the implied rates are `R_cpu = f / t_cpu` and
    /// `R_gpu = (1−f) / t_gpu`; the balanced split is
    /// `f* = R_cpu / (R_cpu + R_gpu)`, approached with smoothing gain.
    pub fn observe(&mut self, cpu_time: SimDuration, gpu_time: SimDuration) -> f64 {
        let f = self.fraction;
        let t_cpu = cpu_time.as_secs_f64();
        let t_gpu = gpu_time.as_secs_f64();
        if t_cpu > 0.0 && t_gpu > 0.0 && f > 0.0 && f < 1.0 {
            let r_cpu = f / t_cpu;
            let r_gpu = (1.0 - f) / t_gpu;
            let f_star = self.phase_derate * r_cpu / (r_cpu + r_gpu);
            self.fraction += self.gain * (f_star - f);
        }
        self.fraction = self.fraction.clamp(self.min_fraction.max(1e-4), 0.5);
        self.history.push(self.fraction);
        self.fraction
    }

    /// Whether the last adjustment moved less than `tol`.
    pub fn converged(&self, tol: f64) -> bool {
        match self.history.len() {
            0 | 1 => false,
            n => (self.history[n - 1] - self.history[n - 2]).abs() < tol,
        }
    }
}

/// Configuration of the online rebalancing controller, parsed from the
/// CLI's `--rebalance every=N,hysteresis=X` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Re-split decision interval in cycles (a boundary every `every`
    /// cycles; the decomposition is static between boundaries, exactly
    /// the paper's "static within an iteration" discipline at a finer
    /// grain).
    pub every: u64,
    /// Minimum predicted relative cycle-time improvement a re-split
    /// must exceed; below it the controller holds the current split.
    pub hysteresis: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            every: calib::REBALANCE_DEFAULT_EVERY,
            hysteresis: calib::REBALANCE_DEFAULT_HYSTERESIS,
        }
    }
}

impl RebalanceConfig {
    /// Parse `every=N,hysteresis=X` (either key optional, any order).
    pub fn parse(spec: &str) -> Result<RebalanceConfig, String> {
        let mut cfg = RebalanceConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(v) = part.strip_prefix("every=") {
                cfg.every = v
                    .parse()
                    .map_err(|e| format!("rebalance spec {spec:?}: bad every: {e}"))?;
                if cfg.every == 0 {
                    return Err(format!("rebalance spec {spec:?}: every must be positive"));
                }
            } else if let Some(v) = part.strip_prefix("hysteresis=") {
                cfg.hysteresis = v
                    .parse()
                    .map_err(|e| format!("rebalance spec {spec:?}: bad hysteresis: {e}"))?;
                if !(0.0..1.0).contains(&cfg.hysteresis) {
                    return Err(format!(
                        "rebalance spec {spec:?}: hysteresis must be in [0, 1)"
                    ));
                }
            } else {
                return Err(format!(
                    "rebalance spec {spec:?}: unknown key {part:?} (expected every=N,hysteresis=X)"
                ));
            }
        }
        Ok(cfg)
    }

    /// Round-trip the config back to its textual spec.
    pub fn spec(&self) -> String {
        format!("every={},hysteresis={}", self.every, self.hysteresis)
    }
}

/// What the controller decided at one rebalance boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalanceDecision {
    /// Move to a new CPU fraction: the predicted relative cycle-time
    /// gain exceeded the hysteresis threshold.
    Resplit { fraction: f64, predicted_gain: f64 },
    /// Keep the current split (hysteresis held, or degenerate timings).
    Hold { predicted_gain: f64 },
    /// The controller is frozen (post-`rank.loss` recovery: the folded
    /// decomposition is no longer expressible as a uniform weighted
    /// re-split, so the world stays as recovery left it).
    Frozen,
}

/// The online measured-speed rebalancing controller (paper §6.1/§6.2
/// generalized from the whole-run [`LoadBalancer`] loop to in-run
/// re-splits every N cycles).
///
/// Per-boundary measured CPU/GPU busy times feed an EWMA speed
/// estimator; the analytic balance point of the smoothed rates is the
/// target, and a re-split happens only when its predicted cycle-time
/// improvement clears the hysteresis threshold. The minimum-granularity
/// guard (one carve-axis plane per CPU rank — the `12/ny` bottleneck of
/// Figs 13–14) clamps every target. All inputs are virtual-time
/// measurements, so the decision sequence is a pure function of the
/// timings: same seed, same re-splits, byte-identical runs.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    /// Current (realized) CPU work fraction.
    pub fraction: f64,
    /// Granularity guard: fractions below it are not realizable.
    pub min_fraction: f64,
    /// Hysteresis threshold on predicted relative improvement.
    pub hysteresis: f64,
    /// EWMA smoothing factor for the speed estimator.
    pub alpha: f64,
    /// EWMA-smoothed CPU rate (work-fraction per second); 0 until the
    /// first observation.
    r_cpu: f64,
    /// EWMA-smoothed GPU rate.
    r_gpu: f64,
    observations: u64,
    frozen: bool,
    /// Fraction after every boundary decision (first entry = initial).
    pub history: Vec<f64>,
    /// Every boundary decision, in order.
    pub decisions: Vec<RebalanceDecision>,
}

impl Rebalancer {
    /// Start from an explicit fraction (the runner clamps it to the
    /// granularity guard before the first segment).
    pub fn new(fraction: f64, cfg: &RebalanceConfig) -> Self {
        Rebalancer {
            fraction,
            min_fraction: 0.0,
            hysteresis: cfg.hysteresis,
            alpha: calib::REBALANCE_EWMA_ALPHA,
            r_cpu: 0.0,
            r_gpu: 0.0,
            observations: 0,
            frozen: false,
            history: vec![fraction],
            decisions: Vec::new(),
        }
    }

    /// Record the decomposition's granularity bound and clamp the
    /// current fraction to it.
    pub fn set_min_fraction(&mut self, min_fraction: f64) {
        self.min_fraction = min_fraction.clamp(0.0, 0.5);
        self.fraction = self.clamp(self.fraction);
        if let Some(first) = self.history.first_mut() {
            *first = self.fraction;
        }
    }

    fn clamp(&self, f: f64) -> f64 {
        f.clamp(self.min_fraction.max(1e-4), 0.5)
    }

    /// The CPU/GPU work weights; they always sum to 1.
    pub fn weights(&self) -> (f64, f64) {
        (self.fraction, 1.0 - self.fraction)
    }

    /// The smoothed `(R_cpu, R_gpu)` rate estimates.
    pub fn rates(&self) -> (f64, f64) {
        (self.r_cpu, self.r_gpu)
    }

    /// The analytic optimum weight for rates `(r_cpu, r_gpu)` under
    /// derate `d` and granularity guard `min_fraction`: the fixed point
    /// of [`LoadBalancer::observe`]'s update,
    /// `clamp(d · R_cpu / (R_cpu + R_gpu))`.
    pub fn analytic_optimum(r_cpu: f64, r_gpu: f64, derate: f64, min_fraction: f64) -> f64 {
        if r_cpu <= 0.0 || r_gpu <= 0.0 {
            return min_fraction.max(1e-4);
        }
        (derate * r_cpu / (r_cpu + r_gpu)).clamp(min_fraction.max(1e-4), 0.5)
    }

    /// Predicted per-cycle time at fraction `f` under the smoothed
    /// rates: the slower of the CPU side and the GPU side.
    fn predicted_cycle_time(&self, f: f64) -> f64 {
        (f / self.r_cpu).max((1.0 - f) / self.r_gpu)
    }

    /// Feed back one boundary window's measured busy times (slowest
    /// CPU worker, slowest device) and decide. On
    /// [`RebalanceDecision::Resplit`] the runner rebuilds the
    /// decomposition at the returned fraction and reports the realized
    /// value back via [`Rebalancer::note_realized`].
    pub fn observe(&mut self, cpu_time: SimDuration, gpu_time: SimDuration) -> RebalanceDecision {
        let decision = self.decide(cpu_time, gpu_time);
        if let RebalanceDecision::Resplit { fraction, .. } = decision {
            self.fraction = fraction;
        }
        self.history.push(self.fraction);
        self.decisions.push(decision);
        decision
    }

    fn decide(&mut self, cpu_time: SimDuration, gpu_time: SimDuration) -> RebalanceDecision {
        if self.frozen {
            return RebalanceDecision::Frozen;
        }
        let f = self.fraction;
        let (t_cpu, t_gpu) = (cpu_time.as_secs_f64(), gpu_time.as_secs_f64());
        if !(t_cpu > 0.0 && t_gpu > 0.0 && f > 0.0 && f < 1.0) {
            return RebalanceDecision::Hold {
                predicted_gain: 0.0,
            };
        }
        // Instantaneous rates implied by this window, EWMA-folded into
        // the running estimates (first observation seeds them).
        let (r_cpu, r_gpu) = (f / t_cpu, (1.0 - f) / t_gpu);
        if self.observations == 0 {
            self.r_cpu = r_cpu;
            self.r_gpu = r_gpu;
        } else {
            self.r_cpu = self.alpha * r_cpu + (1.0 - self.alpha) * self.r_cpu;
            self.r_gpu = self.alpha * r_gpu + (1.0 - self.alpha) * self.r_gpu;
        }
        self.observations += 1;
        let target = Self::analytic_optimum(self.r_cpu, self.r_gpu, 1.0, self.min_fraction);
        let now = self.predicted_cycle_time(f);
        let then = self.predicted_cycle_time(target);
        let predicted_gain = if now > 0.0 { 1.0 - then / now } else { 0.0 };
        if predicted_gain > self.hysteresis && (target - f).abs() > f64::EPSILON {
            RebalanceDecision::Resplit {
                fraction: target,
                predicted_gain,
            }
        } else {
            RebalanceDecision::Hold { predicted_gain }
        }
    }

    /// Record the fraction the decomposition actually realized after a
    /// re-split (plane rounding moves the request), so the next
    /// window's rate estimates use the true split.
    pub fn note_realized(&mut self, fraction: f64) {
        self.fraction = self.clamp(fraction);
        if let Some(last) = self.history.last_mut() {
            *last = self.fraction;
        }
    }

    /// Freeze the controller at a recovery-realized split, verbatim:
    /// the foldback hands the lost slab to a GPU block, so the
    /// resulting fraction may legitimately sit below the granularity
    /// guard — it is recorded unclamped, and every later boundary
    /// returns [`RebalanceDecision::Frozen`] at this value.
    pub fn freeze_at(&mut self, fraction: f64) {
        self.fraction = fraction;
        if let Some(last) = self.history.last_mut() {
            *last = self.fraction;
        }
        self.frozen = true;
    }

    /// Count of re-splits actually taken.
    pub fn resplits(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| matches!(d, RebalanceDecision::Resplit { .. }))
            .count() as u64
    }

    /// Count of boundaries where hysteresis (or degenerate timings)
    /// held the split.
    pub fn holds(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| matches!(d, RebalanceDecision::Hold { .. }))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_guess_is_a_few_percent_with_the_bug() {
        // Paper: with the compiler bug, only 1–2% of zones can go to
        // the CPU; the effective-FLOPS guess should land in the low
        // single digits.
        let f = LoadBalancer::initial_guess(&NodeConfig::rzhasgpu());
        assert!(
            (0.005..0.08).contains(&f),
            "initial CPU fraction {f} should be a few percent"
        );
    }

    #[test]
    fn fixed_compiler_raises_the_guess() {
        let bug = LoadBalancer::initial_guess(&NodeConfig::rzhasgpu());
        let fixed = LoadBalancer::initial_guess(&NodeConfig::rzhasgpu_fixed_compiler());
        assert!(
            fixed > bug * 1.5,
            "fixing the compiler should raise the CPU share: {bug} → {fixed}"
        );
    }

    #[test]
    fn observe_converges_to_the_true_optimum() {
        // Synthetic processors: CPU rate 3 work/s, GPU rate 97 work/s
        // ⇒ optimal fraction 0.03.
        let mut lb = LoadBalancer::with_fraction(0.20);
        for _ in 0..25 {
            let f = lb.fraction;
            let cpu_time = SimDuration::from_secs_f64(f / 3.0);
            let gpu_time = SimDuration::from_secs_f64((1.0 - f) / 97.0);
            lb.observe(cpu_time, gpu_time);
        }
        assert!(
            (lb.fraction - 0.03).abs() < 0.003,
            "converged to {}",
            lb.fraction
        );
        assert!(lb.converged(1e-3));
    }

    #[test]
    fn min_fraction_is_respected() {
        let mut lb = LoadBalancer::with_fraction(0.10);
        lb.set_min_fraction(0.05);
        // Processors want ~1%: the floor binds.
        for _ in 0..10 {
            let f = lb.fraction;
            let cpu_time = SimDuration::from_secs_f64(f / 1.0);
            let gpu_time = SimDuration::from_secs_f64((1.0 - f) / 99.0);
            lb.observe(cpu_time, gpu_time);
        }
        assert!(
            (lb.fraction - 0.05).abs() < 1e-12,
            "floored at {}",
            lb.fraction
        );
    }

    #[test]
    fn degenerate_measurements_leave_fraction_stable() {
        let mut lb = LoadBalancer::with_fraction(0.05);
        lb.observe(SimDuration::ZERO, SimDuration::from_secs(1));
        assert!((lb.fraction - 0.05).abs() < 1e-12);
    }

    #[test]
    fn history_records_every_step() {
        let mut lb = LoadBalancer::with_fraction(0.1);
        lb.observe(SimDuration::from_secs(1), SimDuration::from_secs(1));
        lb.observe(SimDuration::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(lb.history.len(), 3);
    }

    /// Drive a [`Rebalancer`] against synthetic constant-rate
    /// processors for `n` boundaries; returns it for inspection.
    fn drive(mut rb: Rebalancer, r_cpu: f64, r_gpu: f64, n: usize) -> Rebalancer {
        for _ in 0..n {
            let f = rb.fraction;
            rb.observe(
                SimDuration::from_secs_f64(f / r_cpu),
                SimDuration::from_secs_f64((1.0 - f) / r_gpu),
            );
        }
        rb
    }

    #[test]
    fn rebalance_spec_round_trips_and_rejects_garbage() {
        let cfg = RebalanceConfig::parse("every=5,hysteresis=0.1").unwrap();
        assert_eq!(cfg.every, 5);
        assert!((cfg.hysteresis - 0.1).abs() < 1e-12);
        assert_eq!(RebalanceConfig::parse(&cfg.spec()).unwrap(), cfg);
        // Either key may be omitted (defaults fill in).
        let d = RebalanceConfig::default();
        assert_eq!(RebalanceConfig::parse("").unwrap(), d);
        assert_eq!(
            RebalanceConfig::parse("every=3").unwrap().hysteresis,
            d.hysteresis
        );
        for bad in ["every=0", "hysteresis=1.5", "evry=2", "every=x"] {
            assert!(
                RebalanceConfig::parse(bad).is_err(),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn rebalancer_converges_to_the_analytic_optimum() {
        // CPU 3 work/s, GPU 97 work/s ⇒ optimum fraction 0.03.
        let rb = drive(
            Rebalancer::new(0.40, &RebalanceConfig::default()),
            3.0,
            97.0,
            12,
        );
        let opt = Rebalancer::analytic_optimum(3.0, 97.0, 1.0, 0.0);
        assert!((opt - 0.03).abs() < 1e-12);
        assert!(
            (rb.fraction - opt).abs() / opt < 0.05,
            "converged to {} vs optimum {opt}",
            rb.fraction
        );
        assert!(rb.resplits() >= 1);
    }

    #[test]
    fn rebalancer_weights_always_sum_to_one() {
        let mut rb = Rebalancer::new(0.3, &RebalanceConfig::default());
        rb.set_min_fraction(0.02);
        for i in 0..20u64 {
            let f = rb.fraction;
            rb.observe(
                SimDuration::from_secs_f64(f / (1.0 + (i % 5) as f64)),
                SimDuration::from_secs_f64((1.0 - f) / 50.0),
            );
            let (c, g) = rb.weights();
            assert!((c + g - 1.0).abs() < 1e-15);
            assert!(c >= rb.min_fraction && c <= 0.5);
        }
    }

    #[test]
    fn rebalancer_never_splits_below_the_granularity_guard() {
        // Processors that want ~1% CPU against a 12/ny-style guard of
        // 25%: the clamp binds at every boundary.
        let mut rb = Rebalancer::new(0.4, &RebalanceConfig::default());
        rb.set_min_fraction(0.25);
        let rb = drive(rb, 1.0, 99.0, 10);
        assert!(
            (rb.fraction - 0.25).abs() < 1e-12,
            "guard must bind: {}",
            rb.fraction
        );
        for &f in &rb.history {
            assert!(f >= 0.25 - 1e-12);
        }
    }

    #[test]
    fn hysteresis_prevents_oscillation_on_noisy_timings() {
        // Multiplicative measurement noise around fixed true rates:
        // with hysteresis the controller settles and stops re-splitting;
        // with none it keeps chasing the noise.
        let noisy = |hysteresis: f64| {
            let mut rb = Rebalancer::new(
                0.30,
                &RebalanceConfig {
                    every: 2,
                    hysteresis,
                },
            );
            let mut rng = hsim_time::rng::SplitMix64::new(7);
            for _ in 0..40 {
                let f = rb.fraction;
                let (jc, jg) = (rng.next_range_f64(0.9, 1.1), rng.next_range_f64(0.9, 1.1));
                rb.observe(
                    SimDuration::from_secs_f64(f / 5.0 * jc),
                    SimDuration::from_secs_f64((1.0 - f) / 95.0 * jg),
                );
            }
            rb
        };
        let with = noisy(0.05);
        let without = noisy(0.0);
        assert!(
            with.resplits() < without.resplits(),
            "hysteresis must damp re-splits: {} vs {}",
            with.resplits(),
            without.resplits()
        );
        // Once converged, the tail is all holds.
        let tail = &with.decisions[with.decisions.len() - 10..];
        assert!(
            tail.iter()
                .all(|d| matches!(d, RebalanceDecision::Hold { .. })),
            "tail still re-splitting: {tail:?}"
        );
    }

    #[test]
    fn same_timings_give_a_deterministic_resplit_sequence() {
        let run = || {
            let mut rb = Rebalancer::new(0.25, &RebalanceConfig::default());
            rb.set_min_fraction(0.01);
            for i in 1..=15u64 {
                rb.observe(
                    SimDuration::from_nanos(1000 + 37 * (i % 4)),
                    SimDuration::from_nanos(9000 + 11 * (i % 3)),
                );
            }
            rb
        };
        let (a, b) = (run(), run());
        assert_eq!(a.history, b.history);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn frozen_rebalancer_holds_the_post_recovery_split() {
        let mut rb = drive(
            Rebalancer::new(0.3, &RebalanceConfig::default()),
            3.0,
            97.0,
            3,
        );
        rb.freeze_at(0.02);
        let before = rb.fraction;
        let d = rb.observe(SimDuration::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(d, RebalanceDecision::Frozen);
        assert!((rb.fraction - before).abs() < 1e-15);
    }

    #[test]
    fn degenerate_timings_hold_without_poisoning_the_estimator() {
        let mut rb = Rebalancer::new(0.1, &RebalanceConfig::default());
        let d = rb.observe(SimDuration::ZERO, SimDuration::from_secs(1));
        assert!(matches!(d, RebalanceDecision::Hold { .. }));
        assert_eq!(rb.rates(), (0.0, 0.0), "no estimate from a zero time");
        assert!((rb.fraction - 0.1).abs() < 1e-15);
    }
}
