//! The call-graph-deep analyses: determinism taint, panic-freedom
//! reachability, and virtual-time cost accounting. Each walks the
//! workspace call graph from a configured root set and reports every
//! violation with a **blame path** — the root → … → site call chain,
//! one hop per line with file:line evidence — so a finding is an
//! argument, not an assertion.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::Graph;
use crate::parser::{Event, FnDef};
use crate::Finding;

/// Per-file facts the analyses need beyond the call graph.
#[derive(Debug, Default)]
pub struct FileInfo {
    /// Identifiers declared with `HashMap`/`HashSet` types.
    pub unordered_names: Vec<String>,
    /// Line ranges under an `allow(clippy::disallowed_types)`
    /// attribute: their wall-clock reads are sanctioned host timing,
    /// not taint sources.
    pub wall_clock_allowed: Vec<(usize, usize)>,
}

pub struct Workspace {
    pub graph: Graph,
    pub files: BTreeMap<String, FileInfo>,
}

/// Run all three deep analyses.
pub fn run_all(ws: &Workspace, out: &mut Vec<Finding>) {
    panic_reach(ws, out);
    nondet_taint(ws, out);
    cost_charge(ws, out);
}

// ---------------------------------------------------------------------------
// panic-freedom reachability
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Where unguarded slice indexing counts as a panic site: the serve
/// request path handles untrusted input, so an out-of-bounds there is
/// a remote crash. (Hydro kernel indexing is governed separately by
/// the tile-bounds lint.)
const INDEX_PANIC_PATH: &str = "serve/src/";

/// No-panic root names matched anywhere in the workspace: the
/// fallible rank runner, its driver (whose workers resume every rank
/// body) and the segmented run loop.
const PANIC_ROOTS: &[&str] = &["run_fallible", "drive_ranks", "run_with_fraction"];

/// Root names that count only on the serve request path: a panic in
/// `handler_loop` (outside the per-connection body it guards) ends
/// `http::serve` through the scope's join.
const SERVE_PANIC_ROOTS: &[&str] = &[
    "submit",
    "worker_loop",
    "execute",
    "handler_loop",
    "handle_connection",
];

/// The no-panic roots: [`PANIC_ROOTS`], every `Coupler`
/// implementation, and the serve request path.
fn is_panic_root(f: &FnDef) -> bool {
    let name = f.name.as_str();
    f.trait_name.as_deref() == Some("Coupler")
        || PANIC_ROOTS.contains(&name)
        || (SERVE_PANIC_ROOTS.contains(&name) && f.file.contains("serve/src/"))
}

/// Configured root names that no function in the graph answers to. A
/// renamed or deleted root silently takes its whole subtree out of
/// panic-reach, so the live-workspace self-test requires this to be
/// empty (fixture trees legitimately lack most roots).
pub fn unresolved_panic_roots(g: &Graph) -> Vec<&'static str> {
    PANIC_ROOTS
        .iter()
        .chain(SERVE_PANIC_ROOTS)
        .copied()
        .filter(|&name| !g.fns.iter().any(|f| f.name == name && is_panic_root(f)))
        .collect()
}

fn panic_reach(ws: &Workspace, out: &mut Vec<Finding>) {
    let g = &ws.graph;
    let roots: Vec<usize> = (0..g.fns.len())
        .filter(|&i| is_panic_root(&g.fns[i]))
        .collect();
    let origin = g.reach(&roots);
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (i, f) in g.fns.iter().enumerate() {
        if origin[i].is_none() {
            continue;
        }
        for ev in &f.events {
            let site = match ev {
                Event::Call {
                    path,
                    method: true,
                    line,
                    ..
                } if matches!(path.last().map(String::as_str), Some("unwrap" | "expect")) => {
                    Some((*line, format!("`.{}()`", path.last().unwrap())))
                }
                Event::MacroUse { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                    Some((*line, format!("`{name}!`")))
                }
                Event::Index { recv, line } if f.file.contains(INDEX_PANIC_PATH) => {
                    Some((*line, format!("unguarded index `{recv}[...]`")))
                }
                _ => None,
            };
            let Some((line, what)) = site else { continue };
            if !seen.insert((f.file.as_str(), line)) {
                continue;
            }
            out.push(Finding {
                lint: "panic-reach",
                path: f.file.clone(),
                line,
                msg: format!(
                    "{what} can panic and is reachable from a no-panic root — return a \
                     typed error instead; blame path:\n{}",
                    g.blame(&origin, i)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// determinism taint
// ---------------------------------------------------------------------------

/// Emission sinks by name: everything that produces externally
/// visible bytes (traces, metrics, CSV, Prometheus, HTTP bodies) or
/// feeds the content hash. Any function constructing a `RunResult`
/// literal is a sink too.
const DETERMINISM_SINKS: &[&str] = &[
    "to_chrome_json",
    "to_metrics_json",
    "to_csv",
    "to_json",
    "to_markdown",
    "csv_row",
    "csv_header",
    "breakdown_table",
    "render_gantt",
    "render_response",
    "figure_csv",
    "metrics_text",
    "content_hash",
];

/// Methods whose call on an unordered container observes its
/// (nondeterministic) iteration order.
const UNORDERED_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

fn is_sink(f: &FnDef) -> bool {
    DETERMINISM_SINKS.contains(&f.name.as_str())
        || f.events
            .iter()
            .any(|e| matches!(e, Event::StructLit { name, .. } if name == "RunResult"))
}

fn nondet_taint(ws: &Workspace, out: &mut Vec<Finding>) {
    let g = &ws.graph;
    let roots: Vec<usize> = (0..g.fns.len()).filter(|&i| is_sink(&g.fns[i])).collect();
    let origin = g.reach(&roots);
    let empty = FileInfo::default();
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (i, f) in g.fns.iter().enumerate() {
        if origin[i].is_none() {
            continue;
        }
        let info = ws.files.get(&f.file).unwrap_or(&empty);
        for ev in &f.events {
            let site: Option<(usize, String)> = match ev {
                Event::Call {
                    path,
                    method: true,
                    receiver: Some(r),
                    line,
                } if UNORDERED_ITER_METHODS
                    .contains(&path.last().map(String::as_str).unwrap_or(""))
                    && info.unordered_names.iter().any(|n| n == r) =>
                {
                    Some((
                        *line,
                        format!(
                            "iteration order of unordered `{r}` (`.{}()`)",
                            path.last().unwrap()
                        ),
                    ))
                }
                Event::ForHeader { idents, line } => idents
                    .iter()
                    .find(|id| info.unordered_names.contains(id))
                    .map(|id| (*line, format!("for-loop over unordered `{id}`"))),
                Event::Call { path, line, .. }
                    if path.iter().any(|s| s == "Instant" || s == "SystemTime")
                        && !info
                            .wall_clock_allowed
                            .iter()
                            .any(|&(a, b)| (a..=b).contains(line)) =>
                {
                    Some((*line, "a wall-clock read".to_string()))
                }
                Event::Call { path, line, .. }
                    if path.last().map(String::as_str) == Some("current")
                        && path.iter().any(|s| s == "thread") =>
                {
                    Some((*line, "thread identity".to_string()))
                }
                Event::PtrIntCast { line } => {
                    Some((*line, "a pointer observed as an integer".to_string()))
                }
                _ => None,
            };
            let Some((line, what)) = site else { continue };
            if !seen.insert((f.file.as_str(), line)) {
                continue;
            }
            out.push(Finding {
                lint: "nondet-taint",
                path: f.file.clone(),
                line,
                msg: format!(
                    "{what} is reachable from a deterministic emission sink — outputs must \
                     be byte-identical run to run (sort, use BTree collections, or route \
                     through RegionSlots); blame path:\n{}",
                    g.blame(&origin, i)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// virtual-time cost accounting
// ---------------------------------------------------------------------------

/// `Comm` methods that model a communication primitive: each must
/// charge the rank's virtual clock (directly or through a callee) on
/// every completing path. The `i`-named ones are the resumable forms
/// (`async fn`); the plain ones block on them.
const COMM_PRIMITIVES: &[&str] = &[
    "send",
    "irecv",
    "recv",
    "iallreduce",
    "allreduce_sum",
    "allreduce_max",
    "ibarrier",
    "barrier",
    "ialltoallv_f64",
];

/// Cost-model primitives that *return* a `SimDuration` the caller is
/// obliged to charge (or pass upward).
const COST_RETURNING: &[&str] = &[
    "launch",
    "um_alloc_and_touch",
    "p2p_time",
    "halo_leg_time",
    "retry_leg_time",
    "xfer_time",
    "msg_time",
];

/// Calls that settle a cost against the virtual clock.
const CHARGE_CALLS: &[&str] = &["charge", "wait_until"];

/// Paths exempt from the caller-side obligation: the cost models
/// themselves (gpusim primitives call each other while composing
/// costs) and the host-perf bench harness.
const COST_EXEMPT_PATHS: &[&str] = &["crates/gpusim/", "crates/bench/"];

/// Configured cost-charge names that no function in the graph answers
/// to: a `COMM_PRIMITIVES` entry that is no `Comm` method, or a
/// `COST_RETURNING` / `CHARGE_CALLS` entry that names no function.
/// A stale entry silently checks nothing, so the live-workspace
/// self-test requires this to be empty (fixture trees legitimately
/// lack most names).
pub fn unresolved_cost_names(g: &Graph) -> Vec<&'static str> {
    let defined = |name: &str, comm: bool| {
        g.fns
            .iter()
            .any(|f| f.name == name && (!comm || f.self_ty.as_deref() == Some("Comm")))
    };
    let comm = COMM_PRIMITIVES.iter().filter(|&&n| !defined(n, true));
    let other = COST_RETURNING.iter().chain(CHARGE_CALLS);
    comm.chain(other.filter(|&&n| !defined(n, false)))
        .copied()
        .collect()
}

fn has_charge_call(f: &FnDef) -> bool {
    f.events.iter().any(|e| {
        matches!(e, Event::Call { path, .. }
            if CHARGE_CALLS.contains(&path.last().map(String::as_str).unwrap_or("")))
    })
}

fn cost_charge(ws: &Workspace, out: &mut Vec<Finding>) {
    let g = &ws.graph;
    let direct: Vec<bool> = g.fns.iter().map(has_charge_call).collect();
    // Which fns transitively reach a charge call.
    let charges = g.reaches(&direct);

    for (i, f) in g.fns.iter().enumerate() {
        // Rule 1: Comm primitives charge on every completing path.
        if f.self_ty.as_deref() == Some("Comm") && COMM_PRIMITIVES.contains(&f.name.as_str()) {
            // First event that settles a cost: a direct charge call or
            // a call into a (transitively) charging callee.
            let charge_pos = f.events.iter().position(|ev| match ev {
                Event::Call { path, .. } => {
                    CHARGE_CALLS.contains(&path.last().map(String::as_str).unwrap_or(""))
                        || g.resolve_at(i, ev).iter().any(|&c| charges[c])
                }
                _ => false,
            });
            match charge_pos {
                None => out.push(Finding {
                    lint: "cost-charge",
                    path: f.file.clone(),
                    line: f.line,
                    msg: format!(
                        "communication primitive `{}` never charges the virtual clock \
                         (no `charge`/`wait_until` on any path through it)",
                        g.qual_name(i)
                    ),
                }),
                Some(p) => {
                    for ev in &f.events[..p] {
                        if let Event::Return {
                            conditional: true,
                            kind,
                            degenerate_guard: false,
                            line,
                        } = ev
                        {
                            if kind == "Ok" || kind == "Some" {
                                out.push(Finding {
                                    lint: "cost-charge",
                                    path: f.file.clone(),
                                    line: *line,
                                    msg: format!(
                                        "`{}` returns successfully before its first \
                                         virtual-clock charge — this control-flow path \
                                         models the operation as free (guard it on a \
                                         degenerate size, or charge first)",
                                        g.qual_name(i)
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            continue;
        }

        // Rule 2: call sites of cost-returning primitives must sit in
        // a function that (transitively) charges, or that returns the
        // `SimDuration` upward for its caller to charge.
        if COST_EXEMPT_PATHS.iter().any(|p| f.file.starts_with(p))
            || COST_RETURNING.contains(&f.name.as_str())
        {
            continue;
        }
        if f.ret.iter().any(|r| r == "SimDuration") || charges[i] {
            continue;
        }
        for ev in &f.events {
            if let Event::Call { path, line, .. } = ev {
                let name = path.last().map(String::as_str).unwrap_or("");
                if COST_RETURNING.contains(&name) {
                    out.push(Finding {
                        lint: "cost-charge",
                        path: f.file.clone(),
                        line: *line,
                        msg: format!(
                            "`{}` calls cost primitive `{name}` but neither charges a \
                             virtual clock on any path nor returns the SimDuration to \
                             its caller — the modelled cost is silently dropped",
                            g.qual_name(i)
                        ),
                    });
                }
            }
        }
    }
}
