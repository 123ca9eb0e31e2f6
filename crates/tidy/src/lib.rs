//! hsim-tidy: the workspace invariant linter.
//!
//! A rustc-tidy-style checker built on a tiny pure-`std` lexer — no
//! external dependencies, fully offline. It enforces the invariants
//! the simulator's correctness story rests on but the compiler cannot
//! see:
//!
//! - **wall-clock** — virtual-time purity: `Instant`/`SystemTime`
//!   only in the host-perf allowlist (`crates/bench/`, the pool's
//!   region timer, the serve latency recorder and connection
//!   deadlines).
//! - **unordered-iter** — no `HashMap`/`HashSet` in trace/metrics/
//!   report/CSV emission paths (byte-identical output).
//! - **safety-comment** — every `unsafe` carries an adjacent
//!   `// SAFETY:` comment.
//! - **unsafe-crate** — crates without `unsafe` must
//!   `#![forbid(unsafe_code)]`; crates with it must opt into the
//!   workspace `unsafe_op_in_unsafe_fn = "deny"` table.
//! - **stray-thread** — threads, free or scoped, start only in the
//!   files that own them (`raja::pool`, the serve workers and
//!   connection handlers, `mpisim` worlds, the sweep fan-out).
//! - **telemetry-naming** — counter labels and span names follow the
//!   `fault_*`/`host_*`/snake_case conventions.
//!
//! On top of the token lints, a recursive-descent parser
//! ([`parser`]) and a workspace call graph ([`callgraph`]) drive
//! three interprocedural analyses ([`deep`]), each reporting blame
//! paths (root → … → site with file:line per hop):
//!
//! - **panic-reach** — no `unwrap`/`expect`/`panic!`/unguarded serve
//!   index reachable from `World::run_fallible` and its stepped
//!   driver, the run loop `run_with_fraction`, any `Coupler` impl, or
//!   the serve request path. Calls are followed through `.await`: an
//!   `async fn` is a node like any other.
//! - **nondet-taint** — no nondeterminism source (unordered-container
//!   iteration, unsanctioned wall-clock reads, thread identity,
//!   pointer-as-integer casts) reachable from a deterministic
//!   emission sink (trace/metrics/CSV/Prometheus writers,
//!   `content_hash`, `RunResult` construction).
//! - **cost-charge** — every mpisim communication primitive charges
//!   the virtual clock on all completing paths, and every caller of a
//!   cost-returning gpusim primitive either charges or passes the
//!   `SimDuration` upward.
//!
//! Suppression is inline and audited: a comment of the form
//! `"tidy-allow: <lint> -- <reason>"` (at the start of the comment)
//! silences that lint on its own line and the next one. A malformed
//! or unknown directive is itself a violation (**bad-allow**), and a
//! directive that suppresses nothing is flagged (**unused-allow**),
//! so allowlist entries cannot rot silently.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod deep;
pub mod lexer;
pub mod lints;
pub mod parser;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One violation: which lint, where, and why it matters.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.msg
        )
    }
}

/// The result of a full workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations sorted by (path, line, lint) for stable output.
    pub violations: Vec<Finding>,
    /// `.rs` files and `Cargo.toml`s examined.
    pub files_scanned: usize,
    /// Configured panic-reach root names that matched no function
    /// (see [`deep::unresolved_panic_roots`]).
    pub unresolved_roots: Vec<&'static str>,
}

/// Directories never descended into. `fixtures` keeps tidy's own
/// deliberately-bad test inputs out of the live scan.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Path fragments marking test/bench/example targets, which are
/// exempt from the runtime-invariant lints.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Scan the workspace rooted at `root` and report every violation:
/// the per-file token lints, the call-graph deep analyses
/// (panic-reach / nondet-taint / cost-charge), and crate hygiene.
pub fn check_dir(root: &Path) -> io::Result<Report> {
    let mut rs_files = Vec::new();
    let mut tomls = Vec::new();
    walk(root, &mut rs_files, &mut tomls)?;
    rs_files.sort();
    tomls.sort();

    let mut report = Report {
        files_scanned: rs_files.len() + tomls.len(),
        ..Report::default()
    };

    let crates = crate_idents(root, &tomls);

    // Per-file state kept until the deep analyses have run, so that
    // their findings route through the same tidy-allow machinery as
    // the token lints.
    let mut lexed_files: Vec<(String, lexer::Lexed)> = Vec::new();
    let mut raw_by_file: Vec<Vec<Finding>> = Vec::new();
    let mut parsed: Vec<(String, parser::ParsedFile)> = Vec::new();
    let mut infos: std::collections::BTreeMap<String, deep::FileInfo> =
        std::collections::BTreeMap::new();

    for path in &rs_files {
        let rel = rel_path(root, path);
        let Ok(src) = fs::read_to_string(path) else {
            continue; // non-UTF-8 or vanished mid-scan: nothing to lint
        };
        let lexed = lexer::lex(&src);
        let mask = if is_test_path(&rel) {
            vec![true; lexed.toks.len()]
        } else {
            lexer::test_mask(&lexed.toks)
        };

        let ctx = lints::FileCtx {
            rel: &rel,
            lexed: &lexed,
            is_test: &mask,
        };
        let mut raw = Vec::new();
        lints::run_all(&ctx, &mut raw);

        if !is_test_path(&rel) {
            let (crate_ident, module) = crate_ctx(&rel, &crates);
            let pf = parser::parse_file(&rel, &crate_ident, &module, &lexed, &mask);
            let sanctioned_wall_clock = lexed
                .comments
                .iter()
                .filter(|c| {
                    c.text
                        .trim()
                        .strip_prefix("tidy-allow:")
                        .is_some_and(|r| r.trim_start().starts_with("wall-clock"))
                })
                .map(|c| c.line)
                .collect();
            infos.insert(
                rel.clone(),
                deep::FileInfo {
                    unordered_names: pf.unordered_names.clone(),
                    sanctioned_wall_clock,
                },
            );
            parsed.push((rel.clone(), pf));
        }

        raw_by_file.push(raw);
        lexed_files.push((rel, lexed));
    }

    // Build the workspace call graph and run the deep analyses, then
    // merge their findings into the owning file's raw list so inline
    // `tidy-allow` directives (and unused-allow auditing) apply.
    let ws = deep::Workspace {
        graph: callgraph::Graph::build(&parsed),
        files: infos,
    };
    report.unresolved_roots = deep::unresolved_panic_roots(&ws.graph);
    let mut deep_raw = Vec::new();
    deep::run_all(&ws, &mut deep_raw);
    for f in deep_raw {
        match lexed_files.iter().position(|(rel, _)| *rel == f.path) {
            Some(i) => raw_by_file[i].push(f),
            None => report.violations.push(f),
        }
    }

    for (i, (rel, lexed)) in lexed_files.iter().enumerate() {
        apply_allows(
            rel,
            lexed,
            std::mem::take(&mut raw_by_file[i]),
            &mut report.violations,
        );
    }

    check_crate_hygiene(root, &tomls, &lexed_files, &mut report.violations);

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(report)
}

/// Map each package directory to its crate identifier (`name` with
/// `-` → `_`), longest directory first so nested crates win over the
/// workspace root.
fn crate_idents(root: &Path, tomls: &[PathBuf]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for toml in tomls {
        let Ok(text) = fs::read_to_string(toml) else {
            continue;
        };
        let mut in_package = false;
        let mut name = None;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
                continue;
            }
            if in_package {
                if let Some(rest) = line.strip_prefix("name") {
                    if let Some(val) = rest.trim_start().strip_prefix('=') {
                        name = Some(val.trim().trim_matches('"').replace('-', "_"));
                    }
                }
            }
        }
        if let Some(name) = name {
            let dir = rel_path(root, toml.parent().unwrap_or(root));
            out.push((dir, name));
        }
    }
    out.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
    out
}

/// Crate ident and in-crate module path for one source file. Files
/// outside any discovered package share the `unknown` crate, which
/// keeps same-crate resolution working in manifest-less fixture trees.
fn crate_ctx(rel: &str, crates: &[(String, String)]) -> (String, Vec<String>) {
    for (dir, ident) in crates {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        if rel.starts_with(&prefix) {
            let module = rel[prefix.len()..]
                .strip_prefix("src/")
                .map(parser::module_path_of)
                .unwrap_or_default();
            return (ident.clone(), module);
        }
    }
    ("unknown".to_string(), Vec::new())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn walk(dir: &Path, rs: &mut Vec<PathBuf>, tomls: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, rs, tomls)?;
        } else if name == "Cargo.toml" {
            tomls.push(path);
        } else if name.ends_with(".rs") {
            rs.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// tidy-allow resolution
// ---------------------------------------------------------------------------

struct Allow {
    line: usize,
    lint: String,
    used: bool,
}

/// Lints that may be targeted by an allow directive: the real passes,
/// not the meta-lints about directives themselves.
fn allowable(lint: &str) -> bool {
    lints::LINTS
        .iter()
        .any(|(n, _)| *n == lint && *n != "bad-allow" && *n != "unused-allow")
}

/// Parse directives out of the comment table, suppress matching
/// findings, and emit bad-allow / unused-allow for the rest.
fn apply_allows(rel: &str, lexed: &lexer::Lexed, raw: Vec<Finding>, out: &mut Vec<Finding>) {
    let mut allows: Vec<Allow> = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("tidy-allow:") else {
            continue;
        };
        match rest.split_once("--") {
            Some((lint, reason)) => {
                let lint = lint.trim();
                let reason = reason.trim();
                if !allowable(lint) {
                    out.push(Finding {
                        lint: "bad-allow",
                        path: rel.to_string(),
                        line: c.line,
                        msg: format!("tidy-allow names unknown lint `{lint}`"),
                    });
                } else if reason.is_empty() {
                    out.push(Finding {
                        lint: "bad-allow",
                        path: rel.to_string(),
                        line: c.line,
                        msg: format!("tidy-allow for `{lint}` has an empty reason"),
                    });
                } else {
                    allows.push(Allow {
                        line: c.line,
                        lint: lint.to_string(),
                        used: false,
                    });
                }
            }
            None => out.push(Finding {
                lint: "bad-allow",
                path: rel.to_string(),
                line: c.line,
                msg: "tidy-allow is missing its ` -- <reason>` clause".to_string(),
            }),
        }
    }

    for f in raw {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.lint == f.lint && (a.line == f.line || a.line + 1 == f.line));
        match suppressed {
            Some(a) => a.used = true,
            None => out.push(f),
        }
    }

    for a in allows.iter().filter(|a| !a.used) {
        out.push(Finding {
            lint: "unused-allow",
            path: rel.to_string(),
            line: a.line,
            msg: format!(
                "tidy-allow for `{}` suppresses nothing on this or the next line — remove it",
                a.lint
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// crate-level unsafe hygiene
// ---------------------------------------------------------------------------

/// Enforce the crate-level contract:
/// - every member `Cargo.toml` opts into `[lints] workspace = true`;
/// - a crate whose `src/` has no `unsafe` must `#![forbid(unsafe_code)]`;
/// - a crate that does use `unsafe` must be covered by the workspace
///   `unsafe_op_in_unsafe_fn = "deny"` table (or carry the attr itself).
fn check_crate_hygiene(
    root: &Path,
    tomls: &[PathBuf],
    lexed_files: &[(String, lexer::Lexed)],
    out: &mut Vec<Finding>,
) {
    let workspace_denies_unsafe_op = fs::read_to_string(root.join("Cargo.toml"))
        .map(|t| {
            t.lines()
                .any(|l| l.contains("unsafe_op_in_unsafe_fn") && l.contains("deny"))
        })
        .unwrap_or(false);

    for toml_path in tomls {
        let Ok(text) = fs::read_to_string(toml_path) else {
            continue;
        };
        if !text.contains("[package]") {
            continue; // virtual manifest
        }
        let toml_rel = rel_path(root, toml_path);
        let crate_dir = toml_path.parent().unwrap_or(root);
        let src_prefix = format!(
            "{}src/",
            match rel_path(root, crate_dir).as_str() {
                "" => String::new(),
                d => format!("{d}/"),
            }
        );

        // The crate's lexed sources (lib/bin targets only — benches
        // and tests are separate targets not covered by inner attrs).
        let srcs: Vec<&(String, lexer::Lexed)> = lexed_files
            .iter()
            .filter(|(rel, _)| rel.starts_with(&src_prefix))
            .collect();
        let uses_unsafe = srcs.iter().any(|(_, lx)| {
            lx.toks
                .iter()
                .any(|t| t.kind == lexer::TokKind::Ident && t.text == "unsafe")
        });

        let root_rel = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| format!("{src_prefix}{f}"))
            .find(|r| srcs.iter().any(|(rel, _)| rel == r));
        let Some(root_rel) = root_rel else {
            continue; // no lib/bin root discovered (e.g. bench-only crate)
        };
        let root_lexed = &srcs.iter().find(|(rel, _)| *rel == root_rel).unwrap().1;

        if !has_workspace_lints_optin(&text) {
            out.push(Finding {
                lint: "unsafe-crate",
                path: toml_rel.clone(),
                line: 1,
                msg: "member manifest lacks `[lints] workspace = true` — crate escapes the \
                      workspace deny table"
                    .to_string(),
            });
        }

        if uses_unsafe {
            let covered = (workspace_denies_unsafe_op && has_workspace_lints_optin(&text))
                || has_inner_attr(root_lexed, "deny", "unsafe_op_in_unsafe_fn");
            if !covered {
                out.push(Finding {
                    lint: "unsafe-crate",
                    path: root_rel.clone(),
                    line: 1,
                    msg: "crate uses `unsafe` but is not covered by \
                          `unsafe_op_in_unsafe_fn = \"deny\"` (workspace table or crate attr)"
                        .to_string(),
                });
            }
        } else if !has_inner_attr(root_lexed, "forbid", "unsafe_code") {
            out.push(Finding {
                lint: "unsafe-crate",
                path: root_rel.clone(),
                line: 1,
                msg: "crate has no `unsafe` in src/ — add `#![forbid(unsafe_code)]` to keep \
                      it that way"
                    .to_string(),
            });
        }
    }
}

/// Does the manifest contain a `[lints]` section whose body sets
/// `workspace = true`?
fn has_workspace_lints_optin(toml: &str) -> bool {
    let mut in_lints = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Does the file carry an inner attribute `#![<outer>(<inner>)]`
/// (matched loosely over tokens: `outer` followed by `(` then `inner`)?
fn has_inner_attr(lexed: &lexer::Lexed, outer: &str, inner: &str) -> bool {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if toks[i].kind == lexer::TokKind::Ident
            && toks[i].text == outer
            && i + 2 < toks.len()
            && toks[i + 1].text == "("
            && toks[i + 2].text == inner
        {
            return true;
        }
    }
    false
}
