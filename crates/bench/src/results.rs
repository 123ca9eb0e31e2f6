//! The perf results file: a flat, sorted `key → number | bool` table
//! under a three-field header. Every measurement and study returns
//! [`Row`]s; [`Results::to_json`] is the one writer and
//! [`Results::parse`] the one reader, for fresh files and the
//! checked-in `ci/perf-baseline.json` alike.
//!
//! Keys are dot-separated (`scenarios.sod.cpu.mzps`); the first
//! segment is the key's *section*. Numbers are written at Rust's
//! shortest round-trip precision, so a value survives write → read
//! bit for bit and the gate compares values, not their prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The results-file schema this crate writes and the only one the
/// gate accepts. Bump when the layout changes and regenerate
/// `ci/perf-baseline.json` (a unit test fails until you do).
pub const SCHEMA_VERSION: u32 = 7;

/// One measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Num(f64),
    Bool(bool),
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Num(v as f64)
            }
        }
    )*};
}
num_from!(f64, u64, usize);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One `(key, value)` result row.
pub type Row = (String, Value);

/// Build a [`Row`] from anything convertible to a [`Value`].
pub fn row(key: impl Into<String>, value: impl Into<Value>) -> Row {
    (key.into(), value.into())
}

/// The rows `"{at}.{field}"` for each `field => value` pair.
#[macro_export]
macro_rules! rows {
    ($at:expr; $($field:literal => $value:expr),+ $(,)?) => {
        [$($crate::results::row(format!("{}.{}", $at, $field), $value)),+]
    };
}

/// A results file in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// `None` when a parsed file carried no (numeric) version.
    pub schema_version: Option<f64>,
    pub host_cores: f64,
    pub metrics: BTreeMap<String, Value>,
}

impl Results {
    /// An empty current-schema results set for this host.
    pub fn new(host_cores: usize) -> Self {
        Results {
            schema_version: Some(f64::from(SCHEMA_VERSION)),
            host_cores: host_cores as f64,
            metrics: BTreeMap::new(),
        }
    }

    /// Add rows; a key may be produced only once.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        for (key, value) in rows {
            let clash = self.metrics.insert(key.clone(), value);
            assert!(clash.is_none(), "metric key {key} emitted twice");
        }
    }

    /// The numeric value under `key` (`None` if absent or a bool).
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.metrics.get(key) {
            Some(Value::Num(v)) => Some(*v),
            _ => None,
        }
    }

    /// The distinct sections (first key segments) present, sorted.
    pub fn sections(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.metrics.keys().map(|k| section_of(k)).collect();
        out.dedup();
        out
    }

    /// Render the file.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        if let Some(v) = self.schema_version {
            let _ = writeln!(s, "  \"schema_version\": {v},");
        }
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        let sections: Vec<String> = self
            .sections()
            .iter()
            .map(|name| format!("\"{name}\""))
            .collect();
        let _ = writeln!(s, "  \"sections\": [{}],", sections.join(", "));
        s.push_str("  \"metrics\": {\n");
        let last = self.metrics.len().saturating_sub(1);
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let comma = if i < last { "," } else { "" };
            let _ = match value {
                Value::Num(v) => writeln!(s, "    \"{key}\": {v}{comma}"),
                Value::Bool(b) => writeln!(s, "    \"{key}\": {b}{comma}"),
            };
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Parse a results file. Any well-formed JSON object is accepted —
    /// a file from an older layout parses to its header with no
    /// metrics, so the gate can reject it by `schema_version` instead
    /// of by a syntax error — but a `metrics` entry that is neither a
    /// number nor a bool is an error.
    pub fn parse(text: &str) -> Result<Results, String> {
        let mut rest = text;
        let Json::Obj(top) = json(&mut rest)? else {
            return Err("results file is not a JSON object".to_string());
        };
        if !rest.trim_start().is_empty() {
            return Err("trailing text after the results object".to_string());
        }
        let mut out = Results {
            schema_version: None,
            host_cores: f64::NAN,
            metrics: BTreeMap::new(),
        };
        for (key, value) in top {
            match (key.as_str(), value) {
                ("schema_version", Json::Num(v)) => out.schema_version = Some(v),
                ("host_cores", Json::Num(v)) => out.host_cores = v,
                ("metrics", Json::Obj(rows)) => {
                    for (k, v) in rows {
                        let v = match v {
                            Json::Num(v) => Value::Num(v),
                            Json::Bool(b) => Value::Bool(b),
                            _ => return Err(format!("metrics.{k}: not a number or bool")),
                        };
                        out.metrics.insert(k, v);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

/// The section a key belongs to: its first dot-separated segment.
pub fn section_of(key: &str) -> &str {
    key.split('.').next().unwrap_or(key)
}

/// Does `key` match `pattern`, segment by segment, where a `*` pattern
/// segment matches any one key segment?
pub fn key_matches(pattern: &str, key: &str) -> bool {
    let (mut p, mut k) = (pattern.split('.'), key.split('.'));
    loop {
        match (p.next(), k.next()) {
            (None, None) => return true,
            (Some(ps), Some(ks)) if ps == "*" || ps == ks => {}
            _ => return false,
        }
    }
}

enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
    /// An array or null: nothing the reader looks inside.
    Other,
}

/// Parse one JSON value off the front of `s`: just enough JSON to read
/// what [`Results::to_json`] writes and to skip over what older
/// layouts wrote (escapes are stepped over, not decoded).
fn json(s: &mut &str) -> Result<Json, String> {
    *s = s.trim_start();
    let near =
        |what: &str, s: &str| format!("expected {what} before {:?}", s.get(..12).unwrap_or(s));
    match s.bytes().next() {
        Some(open @ (b'{' | b'[')) => {
            let close = if open == b'{' { '}' } else { ']' };
            *s = &s[1..];
            let mut fields = Vec::new();
            loop {
                *s = s.trim_start();
                if let Some(rest) = s.strip_prefix(close) {
                    *s = rest;
                    break;
                }
                if !fields.is_empty() {
                    *s = s.strip_prefix(',').ok_or_else(|| near("`,`", s))?;
                }
                let mut key = String::new();
                if open == b'{' {
                    match json(s)? {
                        Json::Str(k) => key = k,
                        _ => return Err(near("a key", s)),
                    }
                    *s = s
                        .trim_start()
                        .strip_prefix(':')
                        .ok_or_else(|| near("`:`", s))?;
                }
                fields.push((key, json(s)?));
            }
            Ok(if open == b'{' {
                Json::Obj(fields)
            } else {
                Json::Other
            })
        }
        Some(b'"') => {
            let mut end = 1;
            while s.as_bytes().get(end) != Some(&b'"') {
                end += match s.as_bytes().get(end) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'\\') => 2,
                    Some(_) => 1,
                };
            }
            let text = s.get(1..end).ok_or("bad escape in string")?.to_string();
            *s = &s[end + 1..];
            Ok(Json::Str(text))
        }
        _ => {
            let end = s.find(|c| ",]} \t\r\n".contains(c)).unwrap_or(s.len());
            let (word, rest) = s.split_at(end);
            *s = rest;
            match word {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Other),
                _ => match word.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(Json::Num(v)),
                    _ => Err(near("a value", word)),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_is_the_identity_bit_for_bit() {
        let mut r = Results::new(2);
        r.extend([
            row("scenarios.sod.cpu.mzps", 6.680880681818182),
            row("rebalance.r100_s30.final_minus_guard", -1.0e-12),
            row("serve.rejected", 3u64),
            row("serve.rejections_typed", true),
            row("kernels.tiles.8x8.ratio", 1.0 / 3.0),
        ]);
        let text = r.to_json();
        assert_eq!(Results::parse(&text).unwrap(), r);
        let twice = std::panic::catch_unwind(move || r.extend([row("serve.rejected", 4u64)]));
        assert!(twice.is_err(), "a key may be emitted only once");
        assert!(text.contains("\"schema_version\": 7,"), "{text}");
        assert!(
            text.contains("\"sections\": [\"kernels\", \"rebalance\", \"scenarios\", \"serve\"]"),
            "{text}"
        );
        assert!(text.contains("\"serve.rejected\": 3,"), "{text}");
    }

    #[test]
    fn older_layouts_parse_to_their_header_and_malformed_rows_are_errors() {
        let v6 = "{\"comment\": \"a \\\"quoted\\\" note\", \"schema_version\": 6, \
                  \"sweeps\": [{\"id\": \"quick\", \"speedup\": 1.32e0}], \"serve\": null}";
        let r = Results::parse(v6).unwrap();
        assert_eq!(r.schema_version, Some(6.0));
        assert!(r.metrics.is_empty());
        assert_eq!(Results::parse("{}").unwrap().schema_version, None);
        for bad in [
            "",
            "[1]",
            "{\"metrics\": {\"a.b\": \"text\"}}",
            "{\"metrics\": {\"a.b\": NaN}}",
            "{\"host_cores\": 2} trailing",
            "{\"host_cores\": 2",
        ] {
            assert!(Results::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn wildcards_match_exactly_one_segment() {
        assert!(key_matches("scenarios.*.*.mzps", "scenarios.sod.cpu.mzps"));
        assert!(key_matches("pool.workers", "pool.workers"));
        assert!(!key_matches("sweeps.*.speedup", "sweeps.jobs"));
        assert!(!key_matches("kernels.*.ratio", "kernels.tiles.8x8.ratio"));
        assert!(!key_matches("serve.*", "serve"));
    }
}
