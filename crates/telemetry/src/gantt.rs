//! The ASCII Gantt: who was busy and who waited, one row per rank.
//!
//! The terminal view of the span store (what `heterosim --trace`
//! prints), which makes the paper's Figures 1–4 — who computes when —
//! readable off a run.

use hsim_time::SimTime;

use crate::span::SpanEvent;

/// Render the rank-timeline spans that `keep` selects, one row per
/// rank, `width` columns covering `[0, makespan]`. Device timelines
/// (`pid >= DEVICE_PID_BASE`) have no row. Later spans overwrite
/// earlier ones in the same cell; empty cells are spaces.
pub fn render_gantt(
    spans: &[SpanEvent],
    width: usize,
    keep: impl Fn(&SpanEvent) -> bool,
) -> String {
    let width = width.max(10);
    let kept = || {
        spans
            .iter()
            .filter(|s| s.pid < crate::DEVICE_PID_BASE && keep(s))
    };
    let makespan = kept()
        .map(SpanEvent::end)
        .fold(SimTime::ZERO, SimTime::merge);
    if makespan == SimTime::ZERO {
        return String::from("(empty trace)\n");
    }
    let max_rank = kept().map(|s| s.pid as usize).max().unwrap_or(0);
    let mut rows = vec![vec![' '; width]; max_rank + 1];
    let span_ns = makespan.as_nanos() as f64;
    let column = |t: SimTime| (t.as_nanos() as f64 / span_ns) * width as f64;
    for s in kept() {
        // A span that starts at the makespan still gets the last cell.
        let c0 = (column(s.ts) as usize).min(width - 1);
        let c1 = (column(s.end()).ceil() as usize).clamp(c0 + 1, width);
        rows[s.pid as usize][c0..c1].fill(s.cat.glyph());
    }
    let mut out = String::with_capacity((width + 16) * rows.len());
    for (rank, row) in rows.iter().enumerate() {
        out.push_str(&format!("r{rank:>3} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!("      0{:>width$}\n", makespan.to_string()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Category;
    use hsim_time::SimDuration;

    /// A span in microseconds.
    fn ev(pid: u32, cat: Category, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            pid,
            tid: 0,
            cat,
            name: "s",
            ts: SimTime::from_nanos(ts * 1_000),
            dur: SimDuration::from_nanos(dur * 1_000),
            args: Vec::new(),
        }
    }

    fn all(_: &SpanEvent) -> bool {
        true
    }

    #[test]
    fn one_row_per_rank_and_columns_scale_to_the_makespan() {
        let spans = [
            ev(0, Category::GpuKernel, 0, 100),
            ev(1, Category::CpuKernel, 0, 50),
        ];
        let chart = render_gantt(&spans, 40, all);
        assert_eq!(
            chart,
            format!(
                "r  0 |{}|\nr  1 |{}{}|\n      0{:>40}\n",
                "G".repeat(40),
                "C".repeat(20),
                " ".repeat(20),
                "0.000100s"
            )
        );
    }

    #[test]
    fn an_empty_store_is_graceful() {
        assert_eq!(render_gantt(&[], 40, all), "(empty trace)\n");
        let spans = [ev(0, Category::Idle, 0, 10)];
        assert_eq!(render_gantt(&spans, 40, |_| false), "(empty trace)\n");
    }

    #[test]
    fn device_timelines_get_no_row() {
        let spans = [
            ev(0, Category::CpuKernel, 0, 10),
            ev(crate::DEVICE_PID_BASE, Category::GpuKernel, 0, 50),
        ];
        let chart = render_gantt(&spans, 20, all);
        assert_eq!(chart.lines().count(), 2); // one rank + axis
        assert!(chart.contains('C') && !chart.contains('G'));
        // Nor does a device span stretch the axis.
        assert!(chart.ends_with(" 0.000010s\n"), "{chart}");
    }

    #[test]
    fn a_span_that_starts_at_the_makespan_paints_the_last_cell() {
        // The runner records zero-length `wait` spans; one at the very
        // end of the run used to ask for `clamp(width + 1, width)`.
        let spans = [
            ev(0, Category::CpuKernel, 0, 100),
            ev(0, Category::Idle, 100, 0),
        ];
        let chart = render_gantt(&spans, 20, all);
        assert_eq!(chart.lines().next(), Some("r  0 |CCCCCCCCCCCCCCCCCCC.|"));
    }

    #[test]
    fn later_spans_overwrite_and_short_ones_keep_a_cell() {
        let spans = [
            ev(0, Category::CpuKernel, 0, 100),
            ev(0, Category::Collective, 50, 1),
        ];
        let chart = render_gantt(&spans, 10, all);
        assert_eq!(chart.lines().next(), Some("r  0 |CCCCCxCCCC|"));
    }
}
