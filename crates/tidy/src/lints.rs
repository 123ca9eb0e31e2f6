//! The lint passes. Each pass walks one file's token stream and
//! reports raw findings; allowlist handling (`// tidy-allow:`) is
//! applied by the driver in `lib.rs`.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Finding;

/// Lint registry: name and one-line description, used by `--list` and
/// by allow-directive validation.
pub const LINTS: &[(&str, &str)] = &[
    (
        "wall-clock",
        "Instant/SystemTime outside the host-perf allowlist (virtual-time purity)",
    ),
    (
        "panic-reach",
        "unwrap/expect/panic!/unguarded index reachable from a no-panic root (call-graph)",
    ),
    (
        "nondet-taint",
        "nondeterminism source reachable from a deterministic emission sink (call-graph)",
    ),
    (
        "cost-charge",
        "gpusim/mpisim cost site that can skip charging the virtual clock (call-graph)",
    ),
    (
        "unordered-iter",
        "HashMap/HashSet in trace/metrics/report/CSV emission paths (byte-identical output)",
    ),
    (
        "safety-comment",
        "`unsafe` without an adjacent `// SAFETY:` comment",
    ),
    (
        "unsafe-crate",
        "crate-level unsafe hygiene: forbid(unsafe_code) on pure crates, workspace lint opt-in on unsafe crates",
    ),
    (
        "stray-thread",
        "thread::spawn, thread::scope or spawn_scoped outside the files that own threads",
    ),
    (
        "telemetry-naming",
        "counter/span names off the fault_*/host_*/serve_*/balance_*/snake_case conventions",
    ),
    (
        "tile-bounds",
        "indexed `[i]` element access inside run_tiles kernel bodies (require slice re-borrows)",
    ),
    (
        "bad-allow",
        "malformed or unknown tidy-allow directive",
    ),
    (
        "unused-allow",
        "tidy-allow directive that suppresses nothing",
    ),
];

/// Files (by workspace-relative path prefix) where wall-clock reads
/// are legitimate: the host-perf harness, the worker-pool region
/// timer (both feed the `host_*` telemetry counters by design), the
/// serve request-latency recorder behind the `serve_*` p50/p99
/// export, and the HTTP front end's per-connection request and reply
/// deadlines — all measure real elapsed time, never a rank's virtual
/// clock.
pub(crate) const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/bench/",
    "crates/raja/src/pool.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/http.rs",
];

/// File-name fragments marking trace/metrics/report/CSV emission
/// paths, where unordered-map iteration silently breaks the
/// byte-identical CI diffs.
const EMISSION_FILE_FRAGMENTS: &[&str] = &[
    "trace", "metrics", "report", "chrome", "summary", "figures", "profile", "csv", "plot",
    "registry",
];

/// Where threads may be started, free (`thread::spawn`) or scoped
/// (`thread::scope`, `spawn_scoped`): the raja pool, the long-lived
/// serve workers (whose lifetime is the server's, not a region's, so
/// scoped threads cannot express them), the HTTP front end's
/// connection handlers, thread-per-rank `mpisim` worlds, the sweep
/// engine's `--jobs` fan-out, and the host-perf harness.
const THREAD_SPAWN_ALLOWED: &[&str] = &[
    "crates/raja/src/pool.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/http.rs",
    "crates/mpisim/src/world.rs",
    "crates/core/src/figures.rs",
    "crates/bench/",
];

/// Where the tile-bounds lint applies: the fused cache-blocked hydro
/// kernels, whose inner loops must stay free of per-element indexed
/// access so bounds checks hoist out of the hot x-loops.
const TILE_KERNEL_PATH: &str = "crates/hydro/src/";

/// Context handed to every pass.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    pub lexed: &'a Lexed,
    /// Per-token mask: true when the token is inside `#[cfg(test)]` /
    /// `#[test]` items or the file itself is a test/bench target.
    pub is_test: &'a [bool],
}

impl FileCtx<'_> {
    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

/// Run every per-file pass.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    wall_clock(ctx, out);
    unordered_iter(ctx, out);
    safety_comment(ctx, out);
    stray_thread(ctx, out);
    telemetry_naming(ctx, out);
    tile_bounds(ctx, out);
}

fn finding(ctx: &FileCtx<'_>, lint: &'static str, line: usize, msg: String) -> Finding {
    Finding {
        lint,
        path: ctx.rel.to_string(),
        line,
        msg,
    }
}

/// Lint: virtual-time purity. Wall clocks must never leak into
/// simulated time; `Instant`/`SystemTime` are confined to the
/// allowlisted host-perf modules.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if WALL_CLOCK_ALLOWED.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    for (i, t) in ctx.toks().iter().enumerate() {
        if ctx.is_test[i] {
            continue;
        }
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            out.push(finding(
                ctx,
                "wall-clock",
                t.line,
                format!(
                    "`{}` outside the host-perf allowlist: wall clocks must not leak into \
                     simulated time (use SimTime/SimDuration, or move timing into crates/bench)",
                    t.text
                ),
            ));
        }
    }
}

/// Lint: determinism of emission paths — no unordered maps where
/// trace/metrics/report/CSV bytes are produced.
fn unordered_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let name = ctx.rel.rsplit('/').next().unwrap_or(ctx.rel);
    if !EMISSION_FILE_FRAGMENTS.iter().any(|f| name.contains(f)) {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(finding(
                ctx,
                "unordered-iter",
                t.line,
                format!(
                    "`{}` in an emission path: unordered iteration breaks byte-identical \
                     trace/metrics diffs — use BTreeMap/BTreeSet or sort explicitly",
                    t.text
                ),
            ));
        }
    }
}

/// Lint: every `unsafe` needs an adjacent `// SAFETY:` comment (same
/// line, or in the contiguous comment block directly above; `# Safety`
/// doc sections also satisfy it).
fn safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks();
    let mut last_line = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" || t.line == last_line {
            continue;
        }
        // `unsafe fn` declarations are exempt: with
        // `unsafe_op_in_unsafe_fn = "deny"` the obligations sit on the
        // inner blocks, which this lint still covers.
        if toks.get(i + 1).is_some_and(|n| n.text == "fn") {
            continue;
        }
        last_line = t.line; // one report per line, however many keywords
        let mut ok = false;
        // Same line, then walk up through the contiguous comment block.
        let mut l = t.line;
        loop {
            if let Some(c) = ctx.lexed.comment_on(l) {
                if c.contains("SAFETY:") || c.contains("# Safety") {
                    ok = true;
                    break;
                }
            } else if l != t.line {
                break; // gap above: comment block ended
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }
        if !ok {
            out.push(finding(
                ctx,
                "safety-comment",
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` comment stating the invariant \
                 that makes it sound"
                    .to_string(),
            ));
        }
    }
}

/// Lint: no stray threads. Starting one — `thread::spawn`, or a scoped
/// one through `thread::scope` / `Builder::spawn_scoped` — is confined
/// to [`THREAD_SPAWN_ALLOWED`]; everything else must submit regions to
/// a pool. A scoped `scope.spawn(..)` is found by the `thread::scope`
/// call that made its scope (the receiver's name is free, the call is
/// not), so a function handed a `&Scope` by another file is only as
/// covered as that file.
fn stray_thread(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if THREAD_SPAWN_ALLOWED.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        if ctx.is_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let path_call = |name: &str| {
            toks[i].text == "thread"
                && i + 3 < toks.len()
                && toks[i + 1].text == ":"
                && toks[i + 2].text == ":"
                && toks[i + 3].text == name
        };
        let what = if path_call("spawn") {
            "thread::spawn"
        } else if path_call("scope") {
            "thread::scope"
        } else if toks[i].text == "spawn_scoped" {
            "spawn_scoped"
        } else {
            continue;
        };
        out.push(finding(
            ctx,
            "stray-thread",
            toks[i].line,
            format!(
                "`{what}` outside the files that own threads: submit work to the persistent \
                 WorkPool instead of starting ad-hoc threads"
            ),
        ));
    }
}

/// Lint: telemetry naming. Counter/gauge/time-stat labels must be
/// snake_case with `Host*`/`Fault*`/`Serve*`/`Balance*` variants
/// mapped to `host_*` / `fault_*` / `serve_*` / `balance_*` labels;
/// span names passed to `rank_span` must be snake_case, with
/// `fault…`/`host…`/`serve…`/`balance…` names carrying the
/// underscore.
fn telemetry_naming(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks();

    // (a) Label match arms in the telemetry metrics registry:
    //     `Counter::Variant => "label"`.
    if ctx.rel.contains("telemetry") && ctx.rel.ends_with("metrics.rs") {
        for i in 0..toks.len() {
            if i + 6 >= toks.len() {
                break;
            }
            let e = &toks[i];
            if e.kind != TokKind::Ident
                || !matches!(e.text.as_str(), "Counter" | "Gauge" | "TimeStat")
            {
                continue;
            }
            if toks[i + 1].text != ":" || toks[i + 2].text != ":" {
                continue;
            }
            let variant = &toks[i + 3];
            if variant.kind != TokKind::Ident
                || toks[i + 4].text != "="
                || toks[i + 5].text != ">"
                || toks[i + 6].kind != TokKind::Str
            {
                continue;
            }
            let label = &toks[i + 6];
            if !is_snake_case(&label.text) {
                out.push(finding(
                    ctx,
                    "telemetry-naming",
                    label.line,
                    format!("label \"{}\" is not snake_case", label.text),
                ));
            }
            for (vprefix, lprefix) in [
                ("Host", "host_"),
                ("Fault", "fault_"),
                ("Serve", "serve_"),
                ("Balance", "balance_"),
            ] {
                if variant.text.starts_with(vprefix) && !label.text.starts_with(lprefix) {
                    out.push(finding(
                        ctx,
                        "telemetry-naming",
                        label.line,
                        format!(
                            "{}::{} must carry a `{}` label (got \"{}\")",
                            e.text, variant.text, lprefix, label.text
                        ),
                    ));
                }
            }
        }
    }

    // (b) Span names at every `rank_span(...)` call site.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || toks[i].text != "rank_span"
            || i + 1 >= toks.len()
            || toks[i + 1].text != "("
        {
            continue;
        }
        let mut depth = 0usize;
        for t in toks.iter().skip(i + 1).take(50) {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if t.kind == TokKind::Str {
                check_span_name(ctx, t, out);
                break;
            }
        }
    }
}

/// Lint: no per-element `[i]` indexing inside `run_tiles` kernel
/// bodies in the fused hydro kernels.
/// Element access there must go through slice re-borrows (`&row[..]`,
/// `&buf[a..b]`) or iterators, which keep tile bounds explicit and
/// let bounds checks hoist out of the hot x-loops; a stray `x[i]`
/// silently re-checks every element. The scan walks the entire
/// argument list, so closures captured into the parallel tile body
/// cannot smuggle per-iteration indexing back in either.
fn tile_bounds(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.rel.starts_with(TILE_KERNEL_PATH) {
        return;
    }
    let toks = ctx.toks();
    let mut i = 0;
    while i < toks.len() {
        let call = toks[i].kind == TokKind::Ident
            && toks[i].text == "run_tiles"
            && !ctx.is_test[i]
            && toks.get(i + 1).is_some_and(|t| t.text == "(");
        if !call {
            i += 1;
            continue;
        }
        // Walk the run_tiles(...) argument list to its closing paren.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "[" if j > 0 => {
                    let prev = &toks[j - 1];
                    // `expr[...]` indexing: the bracket follows a value
                    // (identifier, `]`, or `)`). Anything else — `&[`,
                    // `vec![`, attribute brackets — is not an index.
                    if prev.kind == TokKind::Ident || prev.text == "]" || prev.text == ")" {
                        let (end, reborrow) = bracket_is_reborrow(toks, j);
                        if !reborrow {
                            out.push(finding(
                                ctx,
                                "tile-bounds",
                                toks[j].line,
                                format!(
                                    "indexed element access `{}[...]` inside a `run_tiles` kernel \
                                     body: re-borrow the row as a slice (`&row[..]`, `&buf[a..b]`) \
                                     or iterate, so tile bounds stay explicit and bounds checks \
                                     hoist out of the x-loop",
                                    prev.text
                                ),
                            ));
                        }
                        j = end;
                        continue;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Scan a `[`..`]` pair starting at `open`; returns the index just
/// past the matching `]` and whether the contents are a range
/// re-borrow (a `..` at bracket depth 1) rather than a single-element
/// index.
pub(crate) fn bracket_is_reborrow(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut reborrow = false;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" | "(" | "{" => depth += 1,
            "]" | ")" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, reborrow);
                }
            }
            "." if depth == 1 && toks.get(j + 1).is_some_and(|t| t.text == ".") => {
                reborrow = true;
            }
            _ => {}
        }
        j += 1;
    }
    (j, reborrow)
}

fn check_span_name(ctx: &FileCtx<'_>, t: &Tok, out: &mut Vec<Finding>) {
    if !is_snake_case(&t.text) {
        out.push(finding(
            ctx,
            "telemetry-naming",
            t.line,
            format!("span name \"{}\" is not snake_case", t.text),
        ));
        return;
    }
    for prefix in ["fault", "host", "serve", "balance"] {
        if t.text.starts_with(prefix)
            && t.text != prefix
            && !t.text.starts_with(&format!("{prefix}_"))
        {
            out.push(finding(
                ctx,
                "telemetry-naming",
                t.line,
                format!(
                    "span name \"{}\" must use the `{}_` prefix convention",
                    t.text, prefix
                ),
            ));
        }
    }
}

fn is_snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
