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

/// Buckets of a [`LatencyHistogram`]: one per value below 8 ns, then
/// eight per power of two up to `u64::MAX`.
const LATENCY_BUCKETS: usize = 62 * 8;

/// Request latencies in nanoseconds as a fixed log-bucket histogram of
/// atomic counters: recording is two relaxed adds under no lock,
/// reading never stops a recorder, and the memory is the same 4 KiB
/// after a billion requests as after one. Each power of two is split
/// in eight, so a bucket is at most 12.5 % wide; below 16 ns every
/// value has its own.
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// The bucket `ns` falls in: its leading one and the three bits
    /// after it.
    fn bucket_of(ns: u64) -> usize {
        if ns < 8 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let eighth = (ns >> (exp - 3)) & 7;
        (exp as usize - 2) * 8 + eighth as usize
    }

    /// Smallest value of bucket `i` and how many values it spans.
    fn bucket_span(i: usize) -> (u64, u64) {
        if i < 8 {
            return (i as u64, 1);
        }
        let shift = i / 8 - 1;
        ((8 + i as u64 % 8) << shift, 1 << shift)
    }

    fn record(&self, ns: u64) {
        // Statistics: the counts publish no other memory.
        if let Some(bucket) = self.buckets.get(Self::bucket_of(ns)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn counts(&self) -> [u64; LATENCY_BUCKETS] {
        let mut counts = [0; LATENCY_BUCKETS];
        for (count, bucket) in counts.iter_mut().zip(&self.buckets) {
            *count = bucket.load(Ordering::Relaxed);
        }
        counts
    }

    /// The `q` quantile of `counts` in (fractional) microseconds: the
    /// middle of the bucket holding that rank, 0 when nothing was
    /// recorded.
    fn quantile_us(counts: &[u64; LATENCY_BUCKETS], q: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        let rank = (total.saturating_sub(1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (floor, width) = Self::bucket_span(i);
                return (floor as f64 + (width - 1) as f64 / 2.0) / 1e3;
            }
        }
        0.0
    }
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
    latency: LatencyHistogram,
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
            latency: LatencyHistogram::new(),
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
        self.inner.latency.record(ns);
    }

    /// Counter snapshot + latency quantiles.
    pub fn stats(&self) -> ServeStats {
        let latency = self.inner.latency.counts();
        let m = lock(&self.inner.metrics);
        ServeStats {
            hits: m.counter(Counter::ServeHits),
            misses: m.counter(Counter::ServeMisses),
            admitted: m.counter(Counter::ServeAdmitted),
            rejected: m.counter(Counter::ServeRejected),
            deadline_drops: m.counter(Counter::ServeDeadlineDrops),
            queue_depth_high_water: m.gauge(Gauge::ServeQueueDepth),
            p50_us: LatencyHistogram::quantile_us(&latency, 0.50),
            p99_us: LatencyHistogram::quantile_us(&latency, 0.99),
        }
    }

    /// The live `/metrics` payload: the telemetry registry in
    /// Prometheus text format plus the request latencies, as two
    /// quantiles and as a cumulative histogram (bounds in microseconds
    /// at every other power of two of nanoseconds, 1 µs to 17 s) that
    /// can be aggregated across servers.
    pub fn metrics_text(&self) -> String {
        let mut out = lock(&self.inner.metrics).to_prometheus_text();
        let latency = self.inner.latency.counts();
        out.push_str("# TYPE hsim_serve_latency_us summary\n");
        for (q, tag) in [(0.50, "0.5"), (0.99, "0.99")] {
            out.push_str(&format!(
                "hsim_serve_latency_us{{quantile=\"{tag}\"}} {}\n",
                LatencyHistogram::quantile_us(&latency, q)
            ));
        }
        out.push_str("# TYPE hsim_serve_latency_hist_us histogram\n");
        for log2_ns in (10..=34).step_by(2) {
            // 2^k ns opens bucket (k - 2) * 8: every value in the
            // buckets before it is at most 2^k - 1 ns.
            let below: u64 = latency.iter().take((log2_ns - 2) * 8).sum();
            out.push_str(&format!(
                "hsim_serve_latency_hist_us_bucket{{le=\"{}\"}} {below}\n",
                ((1u64 << log2_ns) - 1) as f64 / 1e3
            ));
        }
        let total: u64 = latency.iter().sum();
        out.push_str(&format!(
            "hsim_serve_latency_hist_us_bucket{{le=\"+Inf\"}} {total}\n\
             hsim_serve_latency_hist_us_sum {}\n\
             hsim_serve_latency_hist_us_count {total}\n",
            self.inner.latency.sum_ns.load(Ordering::Relaxed) as f64 / 1e3
        ));
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
    fn latency_buckets_tile_the_range_an_eighth_wide_at_most() {
        let mut next = 0u64;
        for i in 0..LATENCY_BUCKETS {
            let (floor, width) = LatencyHistogram::bucket_span(i);
            assert_eq!(
                floor,
                next,
                "bucket {i} starts where {} ended",
                i.max(1) - 1
            );
            assert!(
                width == 1 || width * 8 <= floor,
                "bucket {i}: {width} wide at {floor}"
            );
            for ns in [floor, floor + (width - 1)] {
                assert_eq!(LatencyHistogram::bucket_of(ns), i, "{ns} ns");
            }
            next = floor.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn latency_quantiles_resolve_sub_microsecond_hits_in_constant_memory() {
        let h = LatencyHistogram::new();
        assert_eq!(LatencyHistogram::quantile_us(&h.counts(), 0.5), 0.0);
        // 98 hits of 300-odd ns, one miss of 5 ms, one of 2 s.
        for i in 0..98 {
            h.record(300 + i);
        }
        h.record(5_000_000);
        h.record(2_000_000_000);
        let counts = h.counts();
        let within = |got: f64, want_ns: f64| (got * 1e3 / want_ns - 1.0).abs() <= 0.0625;
        let p50 = LatencyHistogram::quantile_us(&counts, 0.50);
        assert!(p50 > 0.0 && within(p50, 349.0), "p50 {p50} us");
        let p99 = LatencyHistogram::quantile_us(&counts, 0.99);
        assert!(within(p99, 5_000_000.0), "p99 {p99} us");
        assert!(within(LatencyHistogram::quantile_us(&counts, 1.0), 2e9));
        assert_eq!(
            h.sum_ns.load(Ordering::Relaxed),
            2_005_000_000 + 98 * 300 + 97 * 49
        );
    }

    #[test]
    fn metrics_text_carries_quantiles_and_an_aggregatable_histogram() {
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        for _ in 0..3 {
            server.submit(Request::direct(tiny())).expect("serves");
        }
        let stats = server.stats();
        assert!(
            stats.p50_us > 0.0 && stats.p50_us <= stats.p99_us,
            "{stats:?}"
        );
        let text = server.metrics_text();
        let sample = |name: &str| -> f64 {
            let line = text.lines().find(|l| l.starts_with(name));
            let value = line.and_then(|l| l.rsplit(' ').next());
            value.and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
        };
        assert_eq!(
            sample("hsim_serve_latency_us{quantile=\"0.5\"}"),
            stats.p50_us
        );
        assert_eq!(
            sample("hsim_serve_latency_us{quantile=\"0.99\"}"),
            stats.p99_us
        );
        assert_eq!(sample("hsim_serve_latency_hist_us_count"), 3.0);
        assert_eq!(
            sample("hsim_serve_latency_hist_us_bucket{le=\"+Inf\"}"),
            3.0
        );
        assert!(sample("hsim_serve_latency_hist_us_sum") >= stats.p50_us);
        // Cumulative and complete: nothing here takes 17 s.
        let buckets: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("hsim_serve_latency_hist_us_bucket"))
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .collect();
        assert_eq!(buckets.len(), 14, "{text}");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(buckets[12], 3.0, "{buckets:?}");
        assert!(text.contains("_bucket{le=\"1.023\"} "), "{text}");
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
