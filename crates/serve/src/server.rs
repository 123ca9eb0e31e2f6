//! The long-lived simulation server: content-hash result cache,
//! single-flight execution, bounded LPT admission queue, deadlines,
//! and `serve_*` telemetry.
//!
//! ## Why sharing is sound
//!
//! Runs are deterministic in virtual time: a `RunConfig` fully
//! determines the report bytes, so the cache key is
//! [`RunConfig::content_hash`] (plus the balanced/direct flag) and a
//! hit is byte-exact. Calibration state is process-wide by design —
//! the `auto_tile` probe is a `OnceLock` and the host
//! [`hsim_raja::WorkPool`] is obtained via `WorkPool::shared`, whose
//! region lock serializes concurrent submitters — so any number of
//! worker threads can execute requests at once without re-probing or
//! re-spawning anything.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ── cache hit ──────────────────────────────► bytes (serve_hits)
//!    │
//!    ├── in flight (same key) ── join, wait ────────► bytes (serve_hits)
//!    │
//!    └── first flight ── queue full ────────────────► QueueFull (serve_rejected)
//!                   └── admitted (serve_admitted, serve_misses)
//!                         └── worker pops LPT-max ──► run → cache → bytes
//! ```
//!
//! A waiter whose deadline passes gets [`ServeError::DeadlineExpired`]
//! immediately; if *every* waiter on a queued task has given up by the
//! time a worker picks it up, the task is dropped without running
//! (`serve_deadline_drops`) — graceful cancellation, not a hang.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hsim_core::confhash::ContentHasher;
use hsim_core::runner::RunConfig;
use hsim_core::{calib, figures, ExecMode, RunResult};
use hsim_telemetry::{Counter, Gauge, Metrics};

/// Lock a mutex, recovering the data from a poisoned lock: server
/// state is plain data (maps, vectors, counters) that stays coherent
/// even if a panicking thread held the guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads. `0` accepts work but never runs it — only
    /// useful in admission tests.
    pub workers: usize,
    /// Bound on the admission queue; submissions beyond it are
    /// rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Pre-calibrated tile shape (e.g. from a previous process via
    /// [`calib::tile_spec`]); `None` runs the one-shot probe.
    pub tile: Option<[usize; 2]>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            default_deadline: None,
            tile: None,
        }
    }
}

/// Typed request failures; each maps onto an HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full (HTTP 429).
    QueueFull { capacity: usize },
    /// The caller's deadline passed before the result was ready
    /// (HTTP 504).
    DeadlineExpired { waited_ms: u64 },
    /// The run itself failed (HTTP 422).
    Run(String),
    /// The request could not be interpreted (HTTP 400).
    BadRequest(String),
    /// The server is shutting down (HTTP 503).
    ShuttingDown,
}

impl ServeError {
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::QueueFull { .. } => 429,
            ServeError::DeadlineExpired { .. } => 504,
            ServeError::Run(_) => 422,
            ServeError::BadRequest(_) => 400,
            ServeError::ShuttingDown => 503,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity}); retry later")
            }
            ServeError::DeadlineExpired { waited_ms } => {
                write!(f, "deadline expired after {waited_ms} ms")
            }
            ServeError::Run(e) => write!(f, "run failed: {e}"),
            ServeError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// One unit of client work.
#[derive(Debug, Clone)]
pub struct Request {
    pub cfg: RunConfig,
    /// `true` runs the §6.2 load balancer (`run_balanced`), `false`
    /// the static split (`runner::run`). Part of the cache key: the
    /// two produce different (each individually deterministic) bytes.
    pub balanced: bool,
    /// Per-request deadline; `None` falls back to the server default.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A balanced run of `cfg` with the server's default deadline.
    pub fn balanced(cfg: RunConfig) -> Self {
        Request {
            cfg,
            balanced: true,
            deadline: None,
        }
    }

    /// A static-split run of `cfg` (what chaos/fault plans require).
    pub fn direct(cfg: RunConfig) -> Self {
        Request {
            cfg,
            balanced: false,
            deadline: None,
        }
    }

    /// The cache key: the config's content hash folded with the
    /// balanced flag.
    pub fn key(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.u64(self.cfg.content_hash()).bool(self.balanced);
        h.finish()
    }
}

/// A completed, cached run: the rendered response plus the scalar
/// fields figure assembly needs.
#[derive(Debug)]
pub struct RunOutcome {
    /// The full rendered response (CSV header + row + breakdown
    /// table) — the bytes served to clients.
    pub bytes: Arc<Vec<u8>>,
    pub zones: u64,
    pub runtime_s: f64,
    pub cpu_fraction: f64,
}

/// Render a run result into the served byte format. Public so tests
/// and clients can compute the expected bytes of a cold run.
pub fn render_response(r: &RunResult) -> Vec<u8> {
    let mut s = String::with_capacity(512);
    s.push_str(RunResult::csv_header());
    s.push('\n');
    s.push_str(&r.csv_row());
    s.push_str("\n\n");
    s.push_str(&r.breakdown_table());
    s.into_bytes()
}

/// A successful submission.
#[derive(Debug)]
pub struct Response {
    pub key: u64,
    /// `true` when the bytes came from the cache or an already
    /// in-flight execution; `false` when this request ran the config.
    pub cached: bool,
    pub outcome: Arc<RunOutcome>,
}

/// Counter snapshot + latency quantiles, for the load driver and the
/// perf gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    pub hits: u64,
    pub misses: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub deadline_drops: u64,
    pub queue_depth_high_water: f64,
    /// Latency quantiles in microseconds (fractional). Recorded in
    /// nanoseconds end-to-end so sub-millisecond cache hits — the
    /// common case — report real numbers instead of truncating to 0.
    pub p50_us: f64,
    pub p99_us: f64,
}

impl ServeStats {
    /// Fraction of admitted requests answered without a fresh
    /// execution. 0 when nothing was admitted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A one-shot result slot: `None` until an execution (or a typed
/// failure) fills it.
type ResultSlot = Mutex<Option<Result<Arc<RunOutcome>, ServeError>>>;

/// Waiter rendezvous for one in-flight execution (single-flight: all
/// concurrent requests for a key share one of these).
struct Pending {
    slot: ResultSlot,
    cv: Condvar,
    /// Waiters still interested in the result; when it reaches zero
    /// before a worker picks the task up, the task is dropped.
    waiters: AtomicUsize,
}

impl Pending {
    fn new() -> Self {
        Pending {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(1),
        }
    }

    fn complete(&self, r: Result<Arc<RunOutcome>, ServeError>) {
        let mut s = lock(&self.slot);
        if s.is_none() {
            *s = Some(r);
        }
        drop(s);
        self.cv.notify_all();
    }

    fn wait(&self, deadline: Option<Duration>) -> Result<Arc<RunOutcome>, ServeError> {
        let start = Instant::now();
        let mut s = lock(&self.slot);
        loop {
            if let Some(r) = s.as_ref() {
                return r.clone();
            }
            match deadline {
                None => s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner()),
                Some(d) => {
                    let elapsed = start.elapsed();
                    if elapsed >= d {
                        self.waiters.fetch_sub(1, Ordering::AcqRel);
                        return Err(ServeError::DeadlineExpired {
                            waited_ms: elapsed.as_millis() as u64,
                        });
                    }
                    s = self
                        .cv
                        .wait_timeout(s, d - elapsed)
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
            }
        }
    }
}

/// A queued execution.
struct Task {
    key: u64,
    /// Admission order, for deterministic LPT tie-breaking.
    seq: u64,
    /// LPT cost ([`figures::lpt_cost`]), the sweep engine's weighting.
    cost: u64,
    cfg: RunConfig,
    balanced: bool,
    pending: Arc<Pending>,
}

struct Inner {
    capacity: usize,
    tile: [usize; 2],
    default_deadline: Option<Duration>,
    queue: Mutex<Vec<Arc<Task>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    seq: AtomicU64,
    cache: Mutex<BTreeMap<u64, Arc<RunOutcome>>>,
    inflight: Mutex<BTreeMap<u64, Arc<Pending>>>,
    metrics: Mutex<Metrics>,
    latencies_ns: Mutex<Vec<u64>>,
}

/// The long-lived simulation server. See the module docs for the
/// request lifecycle; construct with [`Server::new`], drive with
/// [`Server::submit`] / [`Server::figure_csv`], observe with
/// [`Server::stats`] / [`Server::metrics_text`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Calibrate (tile probe or seed) and spawn the worker threads.
    pub fn new(cfg: ServerConfig) -> Server {
        let tile = match cfg.tile {
            Some(t) => calib::seed_tile(t),
            None => calib::auto_tile(),
        };
        let inner = Arc::new(Inner {
            capacity: cfg.queue_capacity.max(1),
            tile,
            default_deadline: cfg.default_deadline,
            queue: Mutex::new(Vec::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            cache: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(Metrics::new()),
            latencies_ns: Mutex::new(Vec::new()),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// The tile shape every served run uses (calibrated once at
    /// construction). Export with [`calib::tile_spec`] to seed the
    /// next process.
    pub fn tile(&self) -> [usize; 2] {
        self.inner.tile
    }

    /// Current admission-queue length (tests; racy by nature).
    pub fn queue_len(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Submit one request and block until bytes, rejection, or
    /// deadline.
    pub fn submit(&self, req: Request) -> Result<Response, ServeError> {
        let t0 = Instant::now();
        let inner = &*self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let key = req.key();
        let deadline = req.deadline.or(inner.default_deadline);

        // Fast path: an exact cached result.
        if let Some(out) = lock(&inner.cache).get(&key).cloned() {
            let mut m = lock(&inner.metrics);
            m.count(Counter::ServeAdmitted, 1);
            m.count(Counter::ServeHits, 1);
            drop(m);
            self.record_latency(t0);
            return Ok(Response {
                key,
                cached: true,
                outcome: out,
            });
        }

        // Single-flight: join an in-flight execution of the same key,
        // or become its first flight by enqueueing a task. The
        // inflight lock covers the whole decision so joiners can never
        // latch onto a pending that lost its queue slot.
        let (pending, first) = {
            let mut infl = lock(&inner.inflight);
            if let Some(p) = infl.get(&key) {
                p.waiters.fetch_add(1, Ordering::AcqRel);
                (Arc::clone(p), false)
            } else {
                // The execution may have completed between the cache
                // probe above and taking the inflight lock.
                if let Some(out) = lock(&inner.cache).get(&key).cloned() {
                    let mut m = lock(&inner.metrics);
                    m.count(Counter::ServeAdmitted, 1);
                    m.count(Counter::ServeHits, 1);
                    drop(m);
                    self.record_latency(t0);
                    return Ok(Response {
                        key,
                        cached: true,
                        outcome: out,
                    });
                }
                let mut q = lock(&inner.queue);
                // Re-check under the queue lock: shutdown() sets the
                // flag before draining, so a push that slips past the
                // entry check is either drained or stopped here.
                if inner.shutdown.load(Ordering::Acquire) {
                    return Err(ServeError::ShuttingDown);
                }
                if q.len() >= inner.capacity {
                    lock(&inner.metrics).count(Counter::ServeRejected, 1);
                    return Err(ServeError::QueueFull {
                        capacity: inner.capacity,
                    });
                }
                let p = Arc::new(Pending::new());
                infl.insert(key, Arc::clone(&p));
                q.push(Arc::new(Task {
                    key,
                    seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                    cost: figures::lpt_cost(&req.cfg),
                    cfg: req.cfg,
                    balanced: req.balanced,
                    pending: Arc::clone(&p),
                }));
                let depth = q.len() as f64;
                drop(q);
                lock(&inner.metrics).gauge_max(Gauge::ServeQueueDepth, depth);
                inner.queue_cv.notify_one();
                (p, true)
            }
        };
        {
            let mut m = lock(&inner.metrics);
            m.count(Counter::ServeAdmitted, 1);
            m.count(
                if first {
                    Counter::ServeMisses
                } else {
                    Counter::ServeHits
                },
                1,
            );
        }

        let result = pending.wait(deadline);
        self.record_latency(t0);
        result.map(|outcome| Response {
            key,
            cached: !first,
            outcome,
        })
    }

    /// [`Server::submit`] with client-side backpressure: a full queue
    /// is not an error for a batch — retry while workers drain.
    fn submit_batched(&self, req: Request) -> Result<Response, ServeError> {
        let mut res = self.submit(req.clone());
        let mut tries = 0u32;
        while matches!(res, Err(ServeError::QueueFull { .. })) && tries < 10_000 {
            std::thread::sleep(Duration::from_millis(1));
            res = self.submit(req.clone());
            tries += 1;
        }
        res
    }

    /// Serve a whole figure sweep: the sweep engine
    /// ([`figures::run_figure_with`]) with this server as its executor,
    /// so every (mode × sweep point) goes through the same queue/cache
    /// as any other request and concurrent figure requests share
    /// executions. A point that fails fails the figure with that
    /// point's error.
    pub fn figure_csv(&self, id: &str, modes: &[ExecMode]) -> Result<String, ServeError> {
        let spec = figures::all_figures()
            .into_iter()
            .find(|s| s.id == id)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown figure `{id}`")))?;
        if modes.is_empty() {
            return Err(ServeError::BadRequest("no modes requested".to_string()));
        }
        let errors = Mutex::new(Vec::new());
        let clients = self.workers.len().max(1) * 2;
        let data = figures::run_figure_with(&spec, modes, clients, |cfg| {
            let sent = self.submit_batched(Request::balanced(cfg.clone()));
            let o = sent.map(|r| r.outcome).map_err(|e| {
                let reason = e.to_string();
                lock(&errors).push(e);
                reason
            })?;
            Ok((o.zones, o.runtime_s, o.cpu_fraction))
        });
        // The skipped point carries its error's rendering; hand back
        // the typed error that rendered it.
        let Some(skip) = data.skipped.first() else {
            return Ok(data.to_csv());
        };
        let typed = lock(&errors)
            .iter()
            .find(|e| e.to_string() == skip.reason)
            .cloned();
        Err(typed.unwrap_or_else(|| ServeError::Run(skip.reason.clone())))
    }

    fn record_latency(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        lock(&self.inner.latencies_ns).push(ns);
    }

    /// The `q` latency quantile in (fractional) microseconds.
    fn latency_quantile_us(&self, q: f64) -> f64 {
        let mut lat = lock(&self.inner.latencies_ns).clone();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_unstable();
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat.get(idx).or_else(|| lat.last()).copied().unwrap_or(0) as f64 * 1e-3
    }

    /// Counter snapshot + latency quantiles.
    pub fn stats(&self) -> ServeStats {
        let m = lock(&self.inner.metrics);
        let stats = ServeStats {
            hits: m.counter(Counter::ServeHits),
            misses: m.counter(Counter::ServeMisses),
            admitted: m.counter(Counter::ServeAdmitted),
            rejected: m.counter(Counter::ServeRejected),
            deadline_drops: m.counter(Counter::ServeDeadlineDrops),
            queue_depth_high_water: m.gauge(Gauge::ServeQueueDepth),
            p50_us: 0.0,
            p99_us: 0.0,
        };
        drop(m);
        ServeStats {
            p50_us: self.latency_quantile_us(0.50),
            p99_us: self.latency_quantile_us(0.99),
            ..stats
        }
    }

    /// The live `/metrics` payload: the telemetry registry in
    /// Prometheus text format plus request-latency quantiles.
    pub fn metrics_text(&self) -> String {
        let mut out = lock(&self.inner.metrics).to_prometheus_text();
        out.push_str("# TYPE hsim_serve_latency_us summary\n");
        for (q, tag) in [(0.50, "0.5"), (0.99, "0.99")] {
            out.push_str(&format!(
                "hsim_serve_latency_us{{quantile=\"{tag}\"}} {}\n",
                self.latency_quantile_us(q)
            ));
        }
        out
    }

    /// Stop accepting work, fail all queued requests with
    /// [`ServeError::ShuttingDown`], and let in-flight runs finish.
    /// Idempotent; [`Drop`] calls it and then joins the workers.
    pub fn shutdown(&self) {
        let inner = &*self.inner;
        if inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        inner.queue_cv.notify_all();
        let drained: Vec<Arc<Task>> = {
            let mut q = lock(&inner.queue);
            std::mem::take(&mut *q)
        };
        for task in drained {
            lock(&inner.inflight).remove(&task.key);
            task.pending.complete(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let task = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(i) = pick_lpt(&q) {
                    break q.remove(i);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = inner.queue_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        // Graceful cancellation: every waiter's deadline has passed,
        // so running the task serves nobody.
        if task.pending.waiters.load(Ordering::Acquire) == 0 {
            lock(&inner.inflight).remove(&task.key);
            task.pending
                .complete(Err(ServeError::DeadlineExpired { waited_ms: 0 }));
            lock(&inner.metrics).count(Counter::ServeDeadlineDrops, 1);
            continue;
        }
        match execute(inner, &task) {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                lock(&inner.cache).insert(task.key, Arc::clone(&outcome));
                lock(&inner.inflight).remove(&task.key);
                task.pending.complete(Ok(outcome));
            }
            Err(e) => {
                lock(&inner.inflight).remove(&task.key);
                task.pending.complete(Err(e));
            }
        }
    }
}

/// Pick the queued task with the largest LPT cost (earliest admission
/// wins ties), mirroring the sweep engine's longest-processing-time
/// batching.
fn pick_lpt(q: &[Arc<Task>]) -> Option<usize> {
    q.iter()
        .enumerate()
        .max_by_key(|(_, t)| (t.cost, std::cmp::Reverse(t.seq)))
        .map(|(i, _)| i)
}

fn execute(inner: &Inner, task: &Task) -> Result<RunOutcome, ServeError> {
    let mut cfg = task.cfg.clone();
    if cfg.tile.is_none() {
        // Calibrate-once-then-share: every run reuses the server's
        // one-shot tile probe instead of racing on its own.
        cfg.tile = Some(inner.tile);
    }
    let balanced = task.balanced;
    // A panicking run (e.g. an injected chaos panic that escaped the
    // pool's absorption) must fail this request, not kill the worker:
    // the pool itself survives poisoned regions, so the server keeps
    // serving.
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        if balanced {
            hsim_core::run_balanced(&cfg).map(|(r, _)| r)
        } else {
            hsim_core::run(&cfg)
        }
    }));
    match run {
        Ok(Ok(r)) => Ok(RunOutcome {
            bytes: Arc::new(render_response(&r)),
            zones: r.zones,
            runtime_s: r.runtime.as_secs_f64(),
            cpu_fraction: r.cpu_fraction,
        }),
        Ok(Err(e)) => Err(ServeError::Run(e)),
        Err(_) => Err(ServeError::Run("run panicked".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig::sweep((24, 16, 8), ExecMode::Default)
    }

    #[test]
    fn request_key_separates_balanced_from_direct() {
        let a = Request::balanced(tiny());
        let b = Request::direct(tiny());
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), Request::balanced(tiny()).key());
    }

    #[test]
    fn lpt_prefers_heavy_then_earliest() {
        let mk = |seq, cost| {
            Arc::new(Task {
                key: seq,
                seq,
                cost,
                cfg: tiny(),
                balanced: false,
                pending: Arc::new(Pending::new()),
            })
        };
        let q = vec![mk(0, 10), mk(1, 40), mk(2, 40), mk(3, 5)];
        assert_eq!(pick_lpt(&q), Some(1), "heaviest, earliest-admitted wins");
        assert_eq!(pick_lpt(&[]), None);
    }

    #[test]
    fn submit_roundtrip_and_cache_hit() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let cold = server.submit(Request::direct(tiny())).expect("cold run");
        assert!(!cold.cached);
        let warm = server.submit(Request::direct(tiny())).expect("warm run");
        assert!(warm.cached);
        assert_eq!(cold.outcome.bytes, warm.outcome.bytes);
        let stats = server.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_errors_are_typed_not_cached() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // Zero-size grid fails inside the runner with a message.
        let bad = RunConfig::sweep((0, 0, 0), ExecMode::Default);
        let err = server.submit(Request::direct(bad)).unwrap_err();
        assert!(matches!(err, ServeError::Run(_)), "got {err:?}");
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        server.shutdown();
        let err = server.submit(Request::direct(tiny())).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn figure_csv_is_deterministic_and_mode_major() {
        let server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let modes = [ExecMode::Default, ExecMode::hetero()];
        let a = server.figure_csv("fig14", &modes).expect("figure serves");
        let b = server.figure_csv("fig14", &modes).expect("figure serves");
        assert_eq!(a, b, "second serving must be byte-identical");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(
            lines[0],
            "figure,mode,zones,swept_dim,runtime_s,cpu_fraction"
        );
        assert!(lines[1].starts_with("fig14,"));
        // Second serving came wholly from cache.
        let s = server.stats();
        assert!(s.hits >= s.misses, "stats: {s:?}");
        assert!(
            server.figure_csv("no-such-figure", &modes).is_err(),
            "unknown figure must be a typed BadRequest"
        );
    }
}
