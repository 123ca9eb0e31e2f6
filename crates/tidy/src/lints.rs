//! The lint passes. Each pass walks one file's token stream and
//! reports raw findings; allowlist handling (`// tidy-allow:`) is
//! applied by the driver in `lib.rs`.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Finding;

/// Lint registry: name and one-line description, used by `--list` and
/// by allow-directive validation.
pub const LINTS: &[(&str, &str)] = &[
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
        "workspace-lints",
        "member manifest without `[lints] workspace = true` (escapes the workspace lint table)",
    ),
    (
        "telemetry-naming",
        "counter/span names off the fault_*/host_*/serve_*/balance_*/snake_case conventions",
    ),
    (
        "tile-bounds",
        "indexed `[i]` element access inside run_tiles/run_tiles_min kernel bodies (require slice re-borrows)",
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

/// File-name fragments marking trace/metrics/report/CSV emission
/// paths, where unordered-map iteration silently breaks the
/// byte-identical CI diffs.
const EMISSION_FILE_FRAGMENTS: &[&str] = &[
    "trace", "metrics", "report", "chrome", "summary", "figures", "profile", "csv", "plot",
    "registry",
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
    /// `#[test]` items or the file itself is a test/example target.
    pub is_test: &'a [bool],
}

impl FileCtx<'_> {
    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

/// Run every per-file pass.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    unordered_iter(ctx, out);
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

/// Keywords the lexer reads as identifiers that a `[` can follow
/// without indexing anything: a slice pattern or an array literal.
const NOT_VALUES: &[&str] = &["let", "mut", "ref", "in", "return", "break", "else"];

/// The executor entry points that run a tile body per tile:
/// `run_tiles`, and `run_tiles_min`, whose bodies also return a value.
const TILE_ENTRY_POINTS: &[&str] = &["run_tiles", "run_tiles_min"];

/// Lint: no per-element `[i]` indexing inside `run_tiles` (or
/// `run_tiles_min`) kernel bodies in the fused hydro kernels.
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
            && TILE_ENTRY_POINTS.contains(&toks[i].text.as_str())
            && !ctx.is_test[i]
            && toks.get(i + 1).is_some_and(|t| t.text == "(");
        if !call {
            i += 1;
            continue;
        }
        // Walk the call's argument list to its closing paren.
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
                    // `vec![`, attribute brackets, a keyword's slice
                    // pattern or array (`let [a, b] =`, `in [..]`) — is
                    // not an index.
                    let value =
                        prev.kind == TokKind::Ident && !NOT_VALUES.contains(&prev.text.as_str());
                    if value || prev.text == "]" || prev.text == ")" {
                        let (end, reborrow) = bracket_is_reborrow(toks, j);
                        if !reborrow {
                            out.push(finding(
                                ctx,
                                "tile-bounds",
                                toks[j].line,
                                format!(
                                    "indexed element access `{}[...]` inside a `{}` kernel \
                                     body: re-borrow the row as a slice (`&row[..]`, `&buf[a..b]`) \
                                     or iterate, so tile bounds stay explicit and bounds checks \
                                     hoist out of the x-loop",
                                    prev.text, toks[i].text
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
