//! A minimal Rust lexer: just enough to lint over token streams
//! without external dependencies.
//!
//! Produces identifier / string / char / number / punctuation tokens
//! with line numbers, plus a per-line comment table (line and block
//! comments, including doc comments) so lints can resolve
//! `// tidy-allow:` directives. String
//! and comment *contents* never become code tokens, so a lint pattern
//! such as `unwrap` cannot be tripped by prose.

/// Token classification. Keywords are ordinary [`TokKind::Ident`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Str,
    Char,
    Num,
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

/// One comment's text on one source line (block comments spanning
/// multiple lines yield one entry per line).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. Never fails: unterminated
/// constructs simply end at EOF (the compiler is the authority on
/// validity; tidy only needs a faithful token stream for valid files).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    let n = b.len();

    macro_rules! bump_line {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_line!(c);
            i += 1;
            continue;
        }
        // Line comment (//, ///, //!).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let mut j = i + 2;
            // Swallow doc markers so comment text starts at the prose.
            if j < n && (b[j] == '/' || b[j] == '!') {
                j += 1;
            }
            let start = j;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: b[start..j].iter().collect(),
            });
            i = j;
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    if b[j] == '\n' {
                        out.comments.push(Comment {
                            line,
                            text: std::mem::take(&mut text),
                        });
                        line += 1;
                    } else {
                        text.push(b[j]);
                    }
                    j += 1;
                }
            }
            out.comments.push(Comment { line, text });
            i = j;
            continue;
        }
        // Raw identifiers: r#ident (but not r#"...", which is a raw
        // string). The token text drops the `r#` so lints and the
        // parser see the bare name.
        if c == 'r' && i + 2 < n && b[i + 1] == '#' && (b[i + 2].is_alphabetic() || b[i + 2] == '_')
        {
            let mut j = i + 2;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[i + 2..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let mut j = i + 1;
            if b[i] == 'b' {
                j += 1; // skip the r of br
            }
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            debug_assert!(j < n && b[j] == '"');
            j += 1;
            let start_line = line;
            let start = j;
            'raw: while j < n {
                if b[j] == '"' {
                    let mut k = 0;
                    while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                        k += 1;
                    }
                    if k == hashes {
                        out.toks.push(Tok {
                            kind: TokKind::Str,
                            text: b[start..j].iter().collect(),
                            line: start_line,
                        });
                        i = j + 1 + hashes;
                        break 'raw;
                    }
                }
                bump_line!(b[j]);
                j += 1;
            }
            if j >= n {
                i = n;
            }
            continue;
        }
        // Plain strings (and byte strings).
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let start_line = line;
            let start = j;
            while j < n {
                if b[j] == '\\' {
                    j += 2;
                    continue;
                }
                if b[j] == '"' {
                    break;
                }
                bump_line!(b[j]);
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: b[start..j.min(n)].iter().collect(),
                line: start_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // 'x' or '\n' → char; 'ident not followed by ' → lifetime.
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: scan to closing quote, keeping
                // the escape text verbatim (round-trip exactness). The
                // char right after the backslash is always part of the
                // escape, even when it is a quote (`'\''`).
                let mut j = i + 3;
                while j < n && b[j] != '\'' {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: b[i + 1..j.min(n)].iter().collect(),
                    line,
                });
                i = (j + 1).min(n);
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' {
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: b[i + 1].to_string(),
                    line,
                });
                i += 3;
                continue;
            }
            // Lifetime: 'a, 'static, '_.
            let mut j = i + 1;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text: b[i + 1..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Number (loose: digits plus alphanumeric suffix/radix chars,
        // including signed exponents of decimal floats: 1e-5, 2.5E+3).
        if c.is_ascii_digit() {
            let radix = c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'b' | 'o');
            let mut j = i + 1;
            while j < n {
                let ch = b[j];
                let signed_exp = !radix
                    && (ch == '+' || ch == '-')
                    && matches!(b[j - 1], 'e' | 'E')
                    && j + 1 < n
                    && b[j + 1].is_ascii_digit();
                if !(ch.is_alphanumeric() || ch == '_' || ch == '.' || signed_exp) {
                    break;
                }
                // Don't swallow a range operator `..`.
                if ch == '.' && j + 1 < n && b[j + 1] == '.' {
                    break;
                }
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: b[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Single-char punctuation.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Re-render a token stream as compilable-ish source text: every
/// token separated by one space, strings as raw strings with enough
/// `#` guards, comments dropped. `lex(render(lex(src)))` must produce
/// the same (kind, text) stream as `lex(src)` — the round-trip
/// exactness contract the parser depends on, asserted over every
/// workspace file by `tests/lexer_roundtrip.rs`.
pub fn render(lexed: &Lexed) -> String {
    let mut out = String::new();
    for t in &lexed.toks {
        match t.kind {
            TokKind::Ident | TokKind::Num | TokKind::Punct => out.push_str(&t.text),
            TokKind::Lifetime => {
                out.push('\'');
                out.push_str(&t.text);
            }
            TokKind::Char => {
                out.push('\'');
                out.push_str(&t.text);
                out.push('\'');
            }
            TokKind::Str => {
                // Enough hashes to cover any `"#...` run in the content.
                let mut hashes = 0usize;
                let chars: Vec<char> = t.text.chars().collect();
                for (k, &ch) in chars.iter().enumerate() {
                    if ch == '"' {
                        let mut run = 0;
                        while k + 1 + run < chars.len() && chars[k + 1 + run] == '#' {
                            run += 1;
                        }
                        hashes = hashes.max(run + 1);
                    }
                }
                out.push('r');
                for _ in 0..hashes {
                    out.push('#');
                }
                out.push('"');
                out.push_str(&t.text);
                out.push('"');
                for _ in 0..hashes {
                    out.push('#');
                }
            }
        }
        out.push(' ');
    }
    out
}

/// Is `b[i]` the start of a raw (byte) string: `r"`, `r#`, `br"`, `br#`?
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= n || b[j] != 'r' {
            return false;
        }
    }
    if b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < n && b[j] == '#' {
        j += 1;
    }
    j < n && b[j] == '"'
}

/// Token indices covered by `#[cfg(test)]` / `#[test]` items, as a
/// per-token mask. Lints that exempt test code consult this.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if is_test_attr_at(toks, i) {
            // Skip past this attribute and any further attributes to
            // the item they decorate, then mark through the item body.
            let mut j = skip_attr(toks, i);
            while j < toks.len() && toks[j].text == "#" {
                j = skip_attr(toks, j);
            }
            // The item ends at its matching `}` (fn/mod/impl) or at a
            // `;` seen before any `{` (use declarations etc.).
            let mut k = j;
            let mut depth = 0usize;
            let mut entered = false;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => {
                        depth += 1;
                        entered = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break;
                        }
                    }
                    ";" if !entered => break,
                    _ => {}
                }
                k += 1;
            }
            for m in mask.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                *m = true;
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Does an attribute starting at token `i` read `#[cfg(test)]` or
/// `#[test]` (possibly with trailing args such as `#[cfg(test)]`)?
fn is_test_attr_at(toks: &[Tok], i: usize) -> bool {
    if toks[i].text != "#" || i + 1 >= toks.len() || toks[i + 1].text != "[" {
        return false;
    }
    let end = attr_end(toks, i);
    let inner: Vec<&str> = toks[i + 2..end.min(toks.len())]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    matches!(inner.as_slice(), ["test"])
        || (inner.first() == Some(&"cfg") && inner.contains(&"test"))
}

/// Index of the `]` closing the attribute starting at `#` token `i`.
fn attr_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(i + 1) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// First token index after the attribute starting at `#` token `i`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    attr_end(toks, i) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let lx = lex("let s = \"unwrap() Instant::now\"; // unwrap too\n");
        assert!(lx
            .toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "Instant")));
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.comments[0].text.contains("unwrap too"));
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let lx = lex("let s = r#\"a \" b\"#; let t = 1;");
        let strs: Vec<_> = lx.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "a \" b");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lx.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        let lx = lex("fn r#type(r#fn: u32) -> u32 { r#fn }");
        let idents: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "type", "fn", "u32", "u32", "fn"]);
        // No stray `#` punct leaked out of the raw identifiers.
        assert!(lx.toks.iter().all(|t| t.text != "#"));
    }

    #[test]
    fn raw_ident_does_not_shadow_raw_string() {
        let lx = lex("let a = r#\"s\"#; let b = r#end;");
        assert!(lx
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "s"));
        assert!(lx
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "end"));
    }

    #[test]
    fn signed_exponents_are_one_number_token() {
        let lx = lex("let x = 1.5e-3 + 2E+4 - 7e2; let r = 0xAE-3;");
        let nums: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        // Hex `0xAE-3` must stay a subtraction (E is a hex digit).
        assert_eq!(nums, ["1.5e-3", "2E+4", "7e2", "0xAE", "3"]);
    }

    #[test]
    fn escaped_char_literals_keep_their_text() {
        let lx = lex(r"let a = '\n'; let b = '\''; let c = 'x';");
        let chars: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["\\n", "\\'", "x"]);
    }

    #[test]
    fn nested_block_comments_lex_exactly() {
        let lx =
            lex("/* a /* nested */ b */ fn f() {}\nlet x = 1; /* /* deep /* deeper */ */ */ y");
        let idents: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "f", "let", "x", "y"]);
        assert!(lx.comments[0].text.contains("a "));
        assert!(lx.comments[0].text.contains(" b"));
    }

    #[test]
    fn render_round_trips() {
        let src = "fn f<'a>(x: &'a str) -> u64 { let s = \"q\\\"uo\"; let r = r#\"a\"# ; \
                   let c = '\\n'; let n = 1e-5; x.len() as u64 }";
        let a = lex(src);
        let b = lex(&render(&a));
        let pairs = |l: &Lexed| -> Vec<(TokKind, String)> {
            l.toks.iter().map(|t| (t.kind, t.text.clone())).collect()
        };
        assert_eq!(pairs(&a), pairs(&b));
    }

    #[test]
    fn line_numbers_track_newlines_in_block_comments() {
        let lx = lex("/* a\nb */\nfn f() {}\n");
        let f = lx.toks.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        let unwrap_idx = lx.toks.iter().position(|t| t.text == "unwrap").unwrap();
        let live2_idx = lx.toks.iter().position(|t| t.text == "live2").unwrap();
        assert!(mask[unwrap_idx]);
        assert!(!mask[live2_idx]);
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn check() { y.expect(\"boom\"); }\nfn live() {}\n";
        let lx = lex(src);
        let mask = test_mask(&lx.toks);
        let expect_idx = lx.toks.iter().position(|t| t.text == "expect").unwrap();
        let live_idx = lx.toks.iter().position(|t| t.text == "live").unwrap();
        assert!(mask[expect_idx]);
        assert!(!mask[live_idx]);
    }
}
