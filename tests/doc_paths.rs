//! Every back-quoted `hsim_*::…` path in README.md and DESIGN.md names
//! a crate of the workspace, modules of it, and an item declared there:
//! prose that names a deleted type or module fails here, not in review.
//!
//! A path resolves segment by segment from the crate's `lib.rs`: a
//! `mod` declared in the current file descends into it (its own file,
//! or the same file for an inline module such as `tests`); any other
//! segment must be an item declared in the current file (`fn`,
//! `struct`, `enum`, `trait`, `type`, `const`, `static`, `macro_rules!`)
//! or re-exported there by a `pub use`, whose declaration is then
//! looked up in the crate. Segments after an item (a method, an
//! associated constant) must be declared in the item's file. `{a,b}`
//! checks each alternative; a trailing `*` checks the module alone.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace's crates by import name (`hsim_core`), each with its
/// `src` directory.
fn crates(root: &Path) -> BTreeMap<String, PathBuf> {
    let mut out = BTreeMap::new();
    for dir in fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        let Ok(manifest) = fs::read_to_string(dir.path().join("Cargo.toml")) else {
            continue;
        };
        let name = manifest.lines().find_map(|l| {
            let rest = l.trim().strip_prefix("name")?.trim().strip_prefix('=')?;
            Some(rest.trim().trim_matches('"').replace('-', "_"))
        });
        if let Some(name) = name {
            out.insert(name, dir.path().join("src"));
        }
    }
    out
}

/// The back-quoted `hsim_*::…` paths of `text`, one per line they are
/// on, with `{a,b}` groups expanded.
fn doc_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for quoted in line.split('`').skip(1).step_by(2) {
            let path: String = quoted
                .chars()
                .take_while(|c| c.is_alphanumeric() || "_:{},* ".contains(*c))
                .collect();
            let path = path.trim().trim_end_matches("::").replace(' ', "");
            if path.starts_with("hsim_") && path.contains("::") {
                out.extend(expand(&path).into_iter().map(|p| (n + 1, p)));
            }
        }
    }
    out
}

/// `a::{b,c}::d` → `a::b::d`, `a::c::d`.
fn expand(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "macro_rules!",
];

/// Whether `text` declares `name` after keyword `kw`.
fn declares(text: &str, kw: &str, name: &str) -> bool {
    let needle = format!("{kw} {name}");
    text.match_indices(&needle).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + needle.len()..].chars().next();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

fn declares_item(text: &str, name: &str) -> bool {
    ITEM_KEYWORDS.iter().any(|kw| declares(text, kw, name))
}

/// Whether a `pub use` of `text` re-exports `name`.
fn reexports(text: &str, name: &str) -> bool {
    text.split(';')
        .filter(|stmt| stmt.trim_start().starts_with("pub use"))
        .any(|stmt| {
            stmt.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|word| word == name)
        })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Resolve `segments` in the crate whose source is `src`.
fn resolve(src: &Path, segments: &[&str]) -> Result<(), String> {
    let (mut file, mut dir) = (src.join("lib.rs"), src.to_path_buf());
    for (i, &seg) in segments.iter().enumerate() {
        let text = read(&file);
        if seg == "*" {
            return Ok(());
        }
        if declares(&text, "mod", seg) {
            let (own, nested) = (dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs"));
            if let Some(child) = [own, nested].into_iter().find(|p| p.exists()) {
                (file, dir) = (child, dir.join(seg));
            }
            continue;
        }
        let declared = if declares_item(&text, seg) {
            Some(file.clone())
        } else if reexports(&text, seg) {
            let mut all = Vec::new();
            rust_files(src, &mut all);
            all.into_iter().find(|f| declares_item(&read(f), seg))
        } else {
            None
        };
        let Some(declared) = declared else {
            return Err(format!("no module or item `{seg}` in {}", file.display()));
        };
        let text = read(&declared);
        return match segments[i + 1..].iter().find(|s| !declares_item(&text, s)) {
            Some(missing) => Err(format!("no `{missing}` in {}", declared.display())),
            None => Ok(()),
        };
    }
    Ok(())
}

#[test]
fn every_crate_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = crates(root);
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in ["README.md", "DESIGN.md"] {
        for (line, path) in doc_paths(&read(&root.join(doc))) {
            checked += 1;
            let segments: Vec<&str> = path.split("::").collect();
            let found = match crates.get(segments[0]) {
                Some(src) => resolve(src, &segments[1..]),
                None => Err(format!("no crate `{}`", segments[0])),
            };
            if let Err(why) = found {
                let why = why.replace(&format!("{}/", root.display()), "");
                broken.push(format!("{doc}:{line}: `{path}`: {why}"));
            }
        }
    }
    assert!(
        checked >= 24,
        "only {checked} paths found: is the scan broken?"
    );
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn a_deleted_item_or_module_does_not_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = crates(root);
    let raja = &crates["hsim_raja"];
    assert_eq!(resolve(raja, &["simgpu", "SharedDevice", "new"]), Ok(()));
    assert_eq!(resolve(raja, &["SharedDevice", "new"]), Ok(()));
    assert!(resolve(raja, &["SharedDevice", "no_such_method"]).is_err());
    assert!(resolve(raja, &["no_such_module", "SharedDevice"]).is_err());
    let telemetry = &crates["hsim_telemetry"];
    assert_eq!(resolve(telemetry, &["profile", "KernelTable"]), Ok(()));
    assert!(resolve(telemetry, &["profile", "NoSuchTable"]).is_err());
    let hydro = &crates["hsim_hydro"];
    let test = ["muscl", "tests", "muscl_halves_the_sod_error"];
    assert_eq!(resolve(hydro, &test), Ok(()));
    let paths = doc_paths("see `hsim_raja::{forall,simgpu}` and `hsim_x::y::Z`.");
    let paths: Vec<_> = paths.into_iter().map(|(_, p)| p).collect();
    assert_eq!(
        paths,
        ["hsim_raja::forall", "hsim_raja::simgpu", "hsim_x::y::Z"]
    );
}
