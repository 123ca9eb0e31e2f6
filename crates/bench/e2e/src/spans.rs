//! In-memory spans recorded by the harness around every call into a
//! layer's public function: name, layer, start, end, parent, round
//! and op id. Kept in memory during the run; written as Chrome trace
//! JSON and folded into per-layer self time when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Span id 0 is "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The crate the call went into (`harness` for the round itself).
    pub layer: &'static str,
    pub name: &'static str,
    pub round: u32,
    pub op: u32,
    /// Harness thread lane (0 = main, 1.. = load-generator threads).
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a span sits: its parent, the round it belongs to and the
/// harness thread lane it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: SpanId,
    pub round: u32,
    pub lane: u32,
}

impl Ctx {
    /// A top-level span of `round` on the main lane.
    pub fn root(round: u32) -> Ctx {
        Ctx {
            parent: 0,
            round,
            lane: 0,
        }
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span (when recording is on; otherwise just run
    /// it). `f` receives the context for spans nested inside it.
    pub fn scope<R>(
        &self,
        ctx: Ctx,
        layer: &'static str,
        name: &'static str,
        op: u32,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        if !self.on {
            return f(ctx);
        }
        // Reserve the id first so children can name their parent.
        let id = {
            let mut spans = self.lock();
            let id = spans.len() as SpanId + 1;
            spans.push(Span {
                id,
                parent: ctx.parent,
                layer,
                name,
                round: ctx.round,
                op,
                lane: ctx.lane,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx { parent: id, ..ctx });
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.lock().get_mut(id as usize - 1) {
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A poisoned lock only means a load thread panicked mid-push;
        // the vector of plain records is still coherent.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Per-layer self time: each span's duration minus the part of it its
/// child spans cover (children on parallel lanes may overlap, so the
/// covered part is the union of their intervals). Summed per layer,
/// in ns. The `harness` entry is the time inside rounds that no layer
/// span covers: the unattributed residual.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_len(kids, s.start_ns, s.end_ns));
        *by_layer.entry(s.layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    by_layer
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
/// complete event per span, one lane per harness thread.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"round\":{},\"op\":{}}}}}{comma}",
            sp.name,
            sp.layer,
            sp.lane,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.id,
            sp.parent,
            sp.round,
            sp.op
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            round: 0,
            op: 0,
            lane: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "harness", 0, 100),
            // Two overlapping children on parallel lanes cover [10, 70].
            span(2, 1, "serve", 10, 50),
            span(3, 1, "client", 30, 70),
            span(4, 3, "core", 40, 60),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["harness"], 40);
        assert_eq!(t["serve"], 40);
        assert_eq!(t["client"], 20);
        assert_eq!(t["core"], 20);
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        let rec = Recorder::new(true);
        let root = Ctx::root(3);
        rec.scope(root, "harness", "round", 0, |ctx| {
            rec.scope(ctx, "core", "run", 7, |_| ());
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].round, spans[1].op), (1, 3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(chrome_json(&spans).contains("\"cat\":\"core\""));

        let off = Recorder::new(false);
        assert_eq!(off.scope(root, "core", "run", 0, |_| 5), 5);
        assert!(off.take().is_empty());
    }
}
