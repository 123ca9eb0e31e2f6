//! A recursive-descent item/expression parser over the lexer's token
//! stream — just enough Rust to build a workspace call graph: `mod` /
//! `impl` / `trait` scopes, `fn` items with bodies, `use` imports,
//! and inside bodies the events the deep analyses consume (calls,
//! method calls, macro invocations, indexing, struct literals, `for`
//! headers, conditional returns). Closures and `async` blocks are
//! attributed to their enclosing function, an `async fn` is a `fn`,
//! and `f(x).await` is the call `f(x)`. No full Rust grammar is
//! attempted; everything this parser cannot classify is simply not an
//! event, which the analyses treat conservatively (see DESIGN.md).

use crate::lexer::{Lexed, Tok, TokKind};

/// One source event inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// `a::b::f(...)` or `.f(...)`. `path` holds the written segments
    /// (last one is the callee name); `receiver` is the identifier
    /// directly left of the dot for simple method calls.
    Call {
        path: Vec<String>,
        method: bool,
        receiver: Option<String>,
        line: usize,
    },
    /// `name!(...)` / `name!{...}` / `name![...]`.
    MacroUse { name: String, line: usize },
    /// Non-range indexing `recv[expr]` in value position.
    Index { recv: String, line: usize },
    /// `Name { ... }` struct literal (or struct pattern) mention.
    StructLit { name: String, line: usize },
    /// Identifiers appearing in a `for ... in HEADER {` header.
    ForHeader { idents: Vec<String>, line: usize },
    /// `x.as_ptr() as <int>`: a pointer observed as an integer, whose
    /// value varies run to run under ASLR/allocator behaviour.
    PtrIntCast { line: usize },
    /// A `return` statement. `conditional` means it sits deeper than
    /// the function's top brace level; `kind` is the token right after
    /// `return` (`Ok`, `Err`, `Some`, `;`, ...); `degenerate_guard`
    /// means the nearest enclosing `if` condition looks like an
    /// empty/size-one fast path (`== 0`, `== 1`, `is_empty`, `len`,
    /// `size`), which the cost analysis exempts.
    Return {
        conditional: bool,
        kind: String,
        degenerate_guard: bool,
        line: usize,
    },
}

/// One parsed function (free fn, inherent/trait-impl method, or trait
/// default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `impl Type` / `impl Trait for Type` self type, if a method.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for Type` methods and trait default
    /// methods.
    pub trait_name: Option<String>,
    /// Crate identifier (package name with `-` → `_`).
    pub crate_ident: String,
    /// Module path inside the crate (from the file path plus inline
    /// `mod` blocks).
    pub module: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` / a test target.
    pub is_test: bool,
    /// Identifier tokens of the return type (between `->` and the
    /// body), e.g. `["Result", "SimDuration", "GpuError"]`.
    pub ret: Vec<String>,
    pub events: Vec<Event>,
}

/// One parsed file: its functions, its `use` imports (alias → full
/// path), and the identifiers declared with an unordered container
/// type (`HashMap` / `HashSet`), which the determinism analysis
/// treats as unordered iteration receivers.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    pub imports: Vec<(String, Vec<String>)>,
    pub unordered_names: Vec<String>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "fn", "let", "mut", "ref", "unsafe", "dyn", "impl", "where", "use", "pub", "crate",
    "super", "self", "Self", "true", "false", "const", "static", "struct", "enum", "trait", "type",
    "mod", "extern", "box", "await", "async", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Derive the in-crate module path from a file path relative to the
/// crate's `src/` dir: `src/decomp/block.rs` → `["decomp", "block"]`,
/// `src/lib.rs` / `src/main.rs` / `mod.rs` components are dropped.
pub fn module_path_of(rel_in_src: &str) -> Vec<String> {
    rel_in_src
        .trim_end_matches(".rs")
        .split('/')
        .filter(|s| !matches!(*s, "lib" | "main" | "mod" | ""))
        .map(str::to_string)
        .collect()
}

/// Parse one lexed file. `is_test` is the per-token test mask from
/// [`crate::lexer::test_mask`].
pub fn parse_file(
    rel: &str,
    crate_ident: &str,
    file_module: &[String],
    lexed: &Lexed,
    is_test: &[bool],
) -> ParsedFile {
    let toks = &lexed.toks;
    let mut out = ParsedFile::default();
    collect_unordered_names(toks, &mut out.unordered_names);

    // Scope stacks. Depth counts `{` nesting; entries remember the
    // depth *at which their brace opened* so `}` pops them.
    let mut depth = 0usize;
    let mut mods: Vec<(String, usize)> = Vec::new();
    // (self_ty, trait_name, depth)
    let mut impls: Vec<(Option<String>, Option<String>, usize)> = Vec::new();

    let mut i = 0;
    let n = toks.len();
    while i < n {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                while mods.last().is_some_and(|m| m.1 == depth) {
                    mods.pop();
                }
                while impls.last().is_some_and(|m| m.2 == depth) {
                    impls.pop();
                }
                i += 1;
            }
            "#" if toks.get(i + 1).is_some_and(|t| t.text == "[") => {
                i = skip_balanced(toks, i + 1, "[", "]");
            }
            "use" => {
                i = parse_use(toks, i, &mut out.imports);
            }
            "mod" => {
                // `mod name;` or `mod name {`.
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        if toks.get(i + 2).is_some_and(|t| t.text == "{") {
                            mods.push((name.text.clone(), depth));
                        }
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            "impl" => {
                let (self_ty, trait_name, next) = parse_impl_header(toks, i);
                if toks.get(next).is_some_and(|t| t.text == "{") {
                    impls.push((self_ty, trait_name, depth));
                }
                i = next;
            }
            "trait" => {
                // `trait Name ... {`: default methods get trait_name.
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        let open = seek(toks, i + 2, &["{", ";"]);
                        if toks.get(open).is_some_and(|t| t.text == "{") {
                            impls.push((None, Some(name.text.clone()), depth));
                        }
                        i = open;
                        continue;
                    }
                }
                i += 1;
            }
            "fn" => {
                let Some(name) = toks.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if name.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let mut module: Vec<String> = file_module.to_vec();
                module.extend(mods.iter().map(|(m, _)| m.clone()));
                let (self_ty, trait_name) = impls
                    .last()
                    .map(|(s, tr, _)| (s.clone(), tr.clone()))
                    .unwrap_or((None, None));
                let mut def = FnDef {
                    name: name.text.clone(),
                    self_ty,
                    trait_name,
                    crate_ident: crate_ident.to_string(),
                    module,
                    file: rel.to_string(),
                    line: t.line,
                    is_test: is_test.get(i).copied().unwrap_or(false),
                    ret: Vec::new(),
                    events: Vec::new(),
                };
                // Signature: skip to the body `{` or a `;` (trait
                // decl), capturing return-type idents after `->`.
                // Brackets nest like parens: the `;` of an array type
                // (`-> [usize; 2]`) ends nothing.
                let mut j = i + 2;
                let mut angle = 0isize;
                let mut paren = 0isize;
                let mut in_ret = false;
                while j < n {
                    let s = toks[j].text.as_str();
                    match s {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "<" if paren == 0 => angle += 1,
                        ">" if paren == 0 => {
                            if toks.get(j.wrapping_sub(1)).is_some_and(|p| p.text == "-") {
                                in_ret = true;
                            } else {
                                angle -= 1;
                            }
                        }
                        "where" => in_ret = false,
                        "{" if paren == 0 && angle <= 0 => break,
                        ";" if paren == 0 && angle <= 0 => break,
                        _ => {
                            if in_ret && toks[j].kind == TokKind::Ident {
                                def.ret.push(toks[j].text.clone());
                            }
                        }
                    }
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.text == "{") {
                    let end = parse_body(toks, j, &mut def.events);
                    out.fns.push(def);
                    i = end;
                } else {
                    // Declaration only (trait method without default).
                    i = j + 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Parse a `{`-delimited body starting at `open`; push events; return
/// the index just past the matching `}`.
fn parse_body(toks: &[Tok], open: usize, events: &mut Vec<Event>) -> usize {
    let n = toks.len();
    let mut depth = 0usize;
    // Stack of enclosing `if` conditions: (depth_at_open, degenerate).
    let mut ifs: Vec<(usize, bool)> = Vec::new();
    let mut i = open;
    while i < n {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                while ifs.last().is_some_and(|f| f.0 >= depth) {
                    ifs.pop();
                }
                if depth == 0 {
                    return i + 1;
                }
                i += 1;
                continue;
            }
            "#" if toks.get(i + 1).is_some_and(|t| t.text == "[") => {
                i = skip_balanced(toks, i + 1, "[", "]");
                continue;
            }
            "if" => {
                // Collect condition tokens to the opening `{`. A `=>`
                // or a bare `}` first means this `if` was a match
                // guard, not an if-statement: no frame, resume normal
                // scanning from where we stopped.
                let mut j = i + 1;
                let mut par = 0isize;
                let mut degenerate = false;
                let mut guard = false;
                while j < n {
                    let s = toks[j].text.as_str();
                    match s {
                        "(" | "[" => par += 1,
                        ")" | "]" => {
                            par -= 1;
                            if par < 0 {
                                // Left the enclosing expression: this
                                // was a guard inside macro/call parens
                                // (`matches!(x, P if c)`).
                                guard = true;
                                break;
                            }
                        }
                        "{" if par == 0 => break,
                        "}" if par == 0 => {
                            guard = true;
                            break;
                        }
                        "is_empty" | "len" | "size" => degenerate = true,
                        "=" if toks.get(j + 1).is_some_and(|t| t.text == ">") => {
                            guard = true;
                            break;
                        }
                        "=" if toks.get(j + 1).is_some_and(|t| t.text == "=") => {
                            let operand = toks.get(j + 2).map(|t| t.text.as_str());
                            let before = j.checked_sub(1).map(|k| toks[k].text.as_str());
                            if matches!(operand, Some("0") | Some("1"))
                                || matches!(before, Some("0") | Some("1"))
                            {
                                degenerate = true;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if !guard {
                    ifs.push((depth, degenerate));
                }
                i = j;
                continue;
            }
            "for" => {
                let mut idents = Vec::new();
                let mut j = i + 1;
                while j < n && toks[j].text != "{" {
                    if toks[j].kind == TokKind::Ident && !is_keyword(&toks[j].text) {
                        idents.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                events.push(Event::ForHeader {
                    idents,
                    line: t.line,
                });
                i = j;
                continue;
            }
            "return" => {
                let kind = toks
                    .get(i + 1)
                    .map(|t| t.text.clone())
                    .unwrap_or_else(|| ";".to_string());
                events.push(Event::Return {
                    conditional: depth > 1,
                    kind,
                    degenerate_guard: ifs.last().is_some_and(|f| f.1),
                    line: t.line,
                });
                i += 1;
                continue;
            }
            _ => {}
        }

        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            // Macro invocation.
            if next == Some("!") {
                events.push(Event::MacroUse {
                    name: t.text.clone(),
                    line: t.line,
                });
                i += 2;
                continue;
            }
            // Call or method call.
            if next == Some("(") {
                let (path, method, receiver) = call_shape(toks, i);
                if matches!(
                    path.last().map(String::as_str),
                    Some("as_ptr" | "as_mut_ptr")
                ) {
                    let close = skip_balanced(toks, i + 1, "(", ")");
                    if toks.get(close).is_some_and(|t| t.text == "as") {
                        events.push(Event::PtrIntCast { line: t.line });
                    }
                }
                events.push(Event::Call {
                    path,
                    method,
                    receiver,
                    line: t.line,
                });
                i += 1;
                continue;
            }
            // Struct literal / pattern `Name {` (uppercase names only;
            // lowercase `name {` is almost always control flow input).
            if next == Some("{")
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
            {
                events.push(Event::StructLit {
                    name: t.text.clone(),
                    line: t.line,
                });
                // Do not consume the `{`: depth tracking handles it.
                i += 1;
                continue;
            }
            // Indexing `recv[expr]` (value position, non-range).
            if next == Some("[") {
                let (end, reborrow) = crate::lints::bracket_is_reborrow(toks, i + 1);
                if !reborrow {
                    events.push(Event::Index {
                        recv: t.text.clone(),
                        line: t.line,
                    });
                }
                // Walk *into* the bracket so nested events are seen;
                // only skip when the bracket was empty-ish.
                let _ = end;
                i += 1;
                continue;
            }
        }
        i += 1;
    }
    n
}

/// Classify the call whose name token sits at `idx` (followed by `(`).
/// Returns (path segments ending in the name, is_method, receiver).
fn call_shape(toks: &[Tok], idx: usize) -> (Vec<String>, bool, Option<String>) {
    let mut segs = vec![toks[idx].text.clone()];
    let mut k = idx;
    // Leading `a :: b ::` path segments.
    while k >= 3 && toks[k - 1].text == ":" && toks[k - 2].text == ":" {
        let before = &toks[k - 3];
        if before.kind == TokKind::Ident {
            segs.insert(0, before.text.clone());
            k -= 3;
        } else {
            break;
        }
    }
    if k >= 1 && toks[k - 1].text == "." {
        let receiver = if k >= 2 && toks[k - 2].kind == TokKind::Ident {
            Some(toks[k - 2].text.clone())
        } else {
            None
        };
        return (segs, true, receiver);
    }
    (segs, false, None)
}

/// Parse `use path::to::{a, b as c};` into alias → path entries.
/// Returns the index just past the closing `;`. Glob imports are
/// ignored (the call graph treats them as unresolved).
fn parse_use(toks: &[Tok], start: usize, imports: &mut Vec<(String, Vec<String>)>) -> usize {
    let n = toks.len();
    let mut prefix: Vec<String> = Vec::new();
    let mut group: Vec<usize> = Vec::new(); // prefix lengths at `{`
    let mut pending: Vec<String> = Vec::new();
    let mut i = start + 1;
    while i < n && toks[i].text != ";" {
        let t = &toks[i];
        match t.text.as_str() {
            ":" => {}
            "{" => {
                group.push(prefix.len());
                prefix.append(&mut pending);
            }
            "}" => {
                flush_use(&prefix, &mut pending, imports);
                if let Some(len) = group.pop() {
                    prefix.truncate(len);
                }
            }
            "," => flush_use(&prefix, &mut pending, imports),
            "as" => {
                // `path as alias`: alias maps to the pending path.
                if let Some(alias) = toks.get(i + 1) {
                    let mut full = prefix.clone();
                    full.append(&mut pending);
                    imports.push((alias.text.clone(), full));
                    i += 2;
                    continue;
                }
            }
            "*" => {
                pending.clear();
            }
            _ if t.kind == TokKind::Ident => pending.push(t.text.clone()),
            _ => {}
        }
        i += 1;
    }
    flush_use(&prefix, &mut pending, imports);
    i + 1
}

fn flush_use(
    prefix: &[String],
    pending: &mut Vec<String>,
    imports: &mut Vec<(String, Vec<String>)>,
) {
    if pending.is_empty() {
        return;
    }
    let mut full = prefix.to_vec();
    full.append(pending);
    if let Some(last) = full.last() {
        imports.push((last.clone(), full.clone()));
    }
}

/// Parse an `impl` header starting at the `impl` token. Returns
/// (self_ty, trait_name, index of the token ending the header — the
/// `{` for a real impl block).
fn parse_impl_header(toks: &[Tok], start: usize) -> (Option<String>, Option<String>, usize) {
    let n = toks.len();
    let mut i = start + 1;
    // Skip `<...>` generics.
    if toks.get(i).is_some_and(|t| t.text == "<") {
        let mut angle = 0isize;
        while i < n {
            match toks[i].text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Scan to `{`, remembering the last top-level ident before and
    // after `for`.
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0isize;
    while i < n {
        let s = toks[i].text.as_str();
        match s {
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => saw_for = true,
            "where" if angle == 0 => break,
            "{" if angle <= 0 => break,
            _ => {
                if toks[i].kind == TokKind::Ident && angle == 0 && !is_keyword(s) {
                    if saw_for {
                        second = Some(s.to_string());
                    } else {
                        first = Some(s.to_string());
                    }
                }
            }
        }
        i += 1;
    }
    if saw_for {
        (second, first, i)
    } else {
        (first, None, i)
    }
}

/// Identifiers declared with `HashMap` / `HashSet` types in this file
/// (fields, lets, params): `name: HashMap<..>`, `name: Mutex<HashMap>`,
/// `let name = HashMap::new()`.
fn collect_unordered_names(toks: &[Tok], out: &mut Vec<String>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || (toks[i].text != "HashMap" && toks[i].text != "HashSet")
        {
            continue;
        }
        // Walk left over type-wrapper noise to the `:` or `=` that
        // binds a name.
        let mut j = i;
        while j > 0 {
            j -= 1;
            let s = toks[j].text.as_str();
            if s == ":" && j > 0 && toks[j - 1].text == ":" {
                // `::` path segment: skip the ident before it too.
                j = j.saturating_sub(2);
                continue;
            }
            match s {
                "<" | "&" | "mut" => continue,
                _ if toks[j].kind == TokKind::Ident
                    && toks[j]
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase()) =>
                {
                    continue; // wrapper type (Mutex, Arc, Option, ...)
                }
                ":" | "=" => {
                    if j > 0 && toks[j - 1].kind == TokKind::Ident {
                        let name = toks[j - 1].text.clone();
                        if !is_keyword(&name) && !out.contains(&name) {
                            out.push(name);
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }
}

/// Skip a balanced pair starting at the token `open_at` (which must be
/// `open`); returns the index just past the matching closer.
fn skip_balanced(toks: &[Tok], open_at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open_at;
    while i < toks.len() {
        if toks[i].text == open {
            depth += 1;
        } else if toks[i].text == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// First index at or after `from` whose token text is in `stop`.
fn seek(toks: &[Tok], from: usize, stop: &[&str]) -> usize {
    let mut i = from;
    while i < toks.len() && !stop.contains(&toks[i].text.as_str()) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> ParsedFile {
        let lx = lexer::lex(src);
        let mask = lexer::test_mask(&lx.toks);
        parse_file("crates/x/src/lib.rs", "x", &[], &lx, &mask)
    }

    #[test]
    fn free_fns_and_calls() {
        let p = parse("fn a() { b(); m::c(1); }\nfn b() {}\n");
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.name, "a");
        let calls: Vec<_> = a
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { path, method, .. } => Some((path.join("::"), *method)),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            [("b".to_string(), false), ("m::c".to_string(), false)]
        );
    }

    #[test]
    fn impl_methods_get_self_ty_and_trait() {
        let p = parse(
            "impl Foo { fn m(&self) { self.n(); } }\n\
             impl Coupler for Bar { fn exchange(&mut self) {} }\n\
             trait Coupler { fn tick(&self) { helper(); } }\n",
        );
        let m = &p.fns[0];
        assert_eq!(m.self_ty.as_deref(), Some("Foo"));
        assert!(m.trait_name.is_none());
        let ex = &p.fns[1];
        assert_eq!(ex.self_ty.as_deref(), Some("Bar"));
        assert_eq!(ex.trait_name.as_deref(), Some("Coupler"));
        let tick = &p.fns[2];
        assert!(tick.self_ty.is_none());
        assert_eq!(tick.trait_name.as_deref(), Some("Coupler"));
    }

    #[test]
    fn method_calls_carry_receivers() {
        let p = parse("fn f(x: &M) { x.go(); self.inner.pending.drain(); }");
        let calls: Vec<_> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call {
                    path,
                    method: true,
                    receiver,
                    ..
                } => Some((path[0].clone(), receiver.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            [
                ("go".to_string(), Some("x".to_string())),
                ("drain".to_string(), Some("pending".to_string()))
            ]
        );
    }

    #[test]
    fn macros_and_struct_literals_and_indexing() {
        let p = parse(
            "fn f(v: &[u8], i: usize) -> R { panic!(\"x\"); let r = R { a: v[i] }; \
             let s = &v[1..3]; Ok(r) }",
        );
        let ev = &p.fns[0].events;
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::MacroUse { name, .. } if name == "panic")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::StructLit { name, .. } if name == "R")));
        let idx: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                Event::Index { recv, .. } => Some(recv.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(idx, ["v"], "range re-borrow must not be an Index event");
    }

    #[test]
    fn returns_classify_conditional_and_guards() {
        let p = parse(
            "fn f(n: usize) -> Result<(), E> {\n\
               if n == 1 { return Ok(()); }\n\
               if fast { return Ok(()); }\n\
               return Ok(());\n\
             }",
        );
        let rets: Vec<_> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Return {
                    conditional,
                    degenerate_guard,
                    ..
                } => Some((*conditional, *degenerate_guard)),
                _ => None,
            })
            .collect();
        assert_eq!(rets, [(true, true), (true, false), (false, false)]);
    }

    #[test]
    fn use_imports_resolve_groups_and_aliases() {
        let p = parse(
            "use hsim_raja::stats::{drain_stats, self as st};\n\
             use hsim_gpu::xfer;\n\
             use a::b as c;\n",
        );
        let find = |n: &str| {
            p.imports
                .iter()
                .find(|(a, _)| a == n)
                .map(|(_, p)| p.join("::"))
        };
        assert_eq!(
            find("drain_stats").as_deref(),
            Some("hsim_raja::stats::drain_stats")
        );
        assert_eq!(find("xfer").as_deref(), Some("hsim_gpu::xfer"));
        assert_eq!(find("c").as_deref(), Some("a::b"));
    }

    #[test]
    fn unordered_names_are_collected() {
        let p = parse(
            "struct S { cache: Mutex<HashMap<u64, V>>, jobs: HashMap<u64, u64>, v: Vec<u8> }\n\
             fn f() { let seen = HashSet::new(); let fine = Vec::new(); }",
        );
        assert_eq!(p.unordered_names, ["cache", "jobs", "seen"]);
    }

    #[test]
    fn test_fns_are_masked() {
        let p = parse("#[test]\nfn t() { x.unwrap(); }\nfn live() {}");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn for_headers_capture_idents() {
        let p = parse("fn f(m: &M) { for (k, v) in &self.pending { use_it(k, v); } }");
        let hdr = p.fns[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::ForHeader { idents, .. } => Some(idents.clone()),
                _ => None,
            })
            .unwrap();
        assert!(hdr.contains(&"pending".to_string()));
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(module_path_of("decomp/block.rs"), ["decomp", "block"]);
        assert_eq!(module_path_of("lib.rs"), Vec::<String>::new());
        assert_eq!(module_path_of("memory/mod.rs"), ["memory"]);
    }
}
