//! The perf results file: a flat, sorted `key → number | bool` table
//! under a two-field header. Every measurement and study returns
//! [`Row`]s; [`Results::to_json`] is the one writer. `perf` gates the
//! rows in memory, in the process that measured them, so nothing reads
//! the file back: it is the run's record.
//!
//! Keys are dot-separated (`scenarios.sod.cpu.mzps`); the first
//! segment is the key's *section*. Numbers are written at Rust's
//! shortest round-trip precision, the value the gate compared.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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

/// As the results file writes it: a number at shortest round-trip
/// precision, or `true` / `false`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
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
#[derive(Debug, Clone)]
pub struct Results {
    pub host_cores: usize,
    pub metrics: BTreeMap<String, Value>,
}

impl Results {
    /// An empty results set for this host.
    pub fn new(host_cores: usize) -> Self {
        Results {
            host_cores,
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
            let _ = writeln!(s, "    \"{key}\": {value}{comma}");
        }
        s.push_str("  }\n}\n");
        s
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_written_at_round_trip_precision_and_keys_once() {
        let mut r = Results::new(2);
        r.extend([
            row("scenarios.sod.cpu.mzps", 6.680880681818182),
            row("rebalance.r100_s30.final_minus_guard", -1.0e-12),
            row("serve.rejected", 3u64),
            row("serve.rejections_typed", true),
            row("kernels.tiles.8x8.ratio", 1.0 / 3.0),
        ]);
        let text = r.to_json();
        let twice = std::panic::catch_unwind(move || r.extend([row("serve.rejected", 4u64)]));
        assert!(twice.is_err(), "a key may be emitted only once");
        assert!(text.starts_with("{\n  \"host_cores\": 2,\n"), "{text}");
        assert!(
            text.contains("\"sections\": [\"kernels\", \"rebalance\", \"scenarios\", \"serve\"]"),
            "{text}"
        );
        for line in [
            "\"kernels.tiles.8x8.ratio\": 0.3333333333333333,",
            "\"rebalance.r100_s30.final_minus_guard\": -0.000000000001,",
            "\"scenarios.sod.cpu.mzps\": 6.680880681818182,",
            "\"serve.rejected\": 3,",
            "\"serve.rejections_typed\": true\n",
        ] {
            assert!(text.contains(line), "{line} not in {text}");
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
