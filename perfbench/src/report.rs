//! The traced run's outputs: the span dump, the per-layer self-time
//! summary, and the check that each record's spans form one tree.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::harness::{Ctx, Outcome};
use crate::probe::{Span, LAYERS};

/// Where a traced run writes its files, relative to the working directory
/// (the repository root when run through `perfbench/run.py`).
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Default, Clone, Copy)]
struct LayerSummary {
    count: u64,
    busy_ns: u64,
    wait_ns: u64,
    failures: u64,
}

/// Intervals `[a, b)` covered by `children` inside `[start, end)`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(a, b) in children.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Summarise, check and write the traced run's spans; a trace that is not
/// a single tree is a problem of the run.
pub fn trace_report(ctx: &Ctx, spans: &[Span], over_cap: u64, out: &mut Outcome) {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut summary = [LayerSummary::default(); LAYERS.len()];
    for s in spans {
        let l = &mut summary[s.layer as usize];
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        l.count += 1;
        l.busy_ns += (s.end - s.start) - covered(s.start, s.end, &mut kids);
        if let Some(p) = by_id.get(&s.parent) {
            l.wait_ns += s.start.saturating_sub(p.end);
        }
        if !s.ok {
            l.failures += 1;
        }
    }
    // One tree per trace: exactly one root, and every parent present.
    let mut traces: HashMap<u64, (u64, bool)> = HashMap::new();
    for s in spans {
        let t = traces.entry(s.trace).or_insert((0, false));
        if s.parent == 0 {
            t.0 += 1;
        } else if !by_id.contains_key(&s.parent) {
            t.1 = true;
        }
    }
    let mut broken = 0u64;
    let mut truncated = 0u64;
    for &(roots, orphan) in traces.values() {
        if roots > 1 || (roots == 1 && orphan) {
            broken += 1;
        } else if roots == 0 {
            // The root fell beyond the span cap (a publish's root is its
            // reply, recorded last); without a cap that is a broken tree.
            if over_cap > 0 {
                truncated += 1;
            } else {
                broken += 1;
            }
        }
    }
    out.envelope.put("trace.trees_checked", traces.len() as f64);
    out.envelope.put("trace.trees_broken", broken as f64);
    out.envelope.put("trace.trees_truncated", truncated as f64);
    out.envelope.put("trace.spans_kept", spans.len() as f64);
    out.envelope.put("trace.spans_over_cap", over_cap as f64);
    if broken > 0 {
        out.problem(format!(
            "{broken} of {} traces do not form a single tree",
            traces.len()
        ));
    }

    let stem = format!("{OUT_DIR}/{}-seed{}", ctx.workload, ctx.seed);
    let mut layers = String::from("{\n");
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            let s = summary[*l as usize];
            format!(
                "  \"{}\": {{\"count\": {}, \"busy_ms\": {:.3}, \"wait_ms\": {:.3}, \"failures\": {}}}",
                l.name(),
                s.count,
                s.busy_ns as f64 / 1e6,
                s.wait_ns as f64 / 1e6,
                s.failures
            )
        })
        .collect();
    layers.push_str(&rows.join(",\n"));
    layers.push_str("\n}\n");
    let mut dump = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            dump,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ok\":{}}}",
            s.id,
            s.parent,
            s.trace,
            s.layer.name(),
            s.start,
            s.end,
            s.ok
        );
    }
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}-layers.json"), layers))
        .and_then(|()| std::fs::write(format!("{stem}-spans.jsonl"), dump));
    if let Err(e) = written {
        out.problem(format!(
            "could not write the trace files under {}: {e}",
            OUT_DIR
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlapping_children() {
        let mut kids = vec![(15, 30), (10, 20), (40, 50), (90, 120)];
        assert_eq!(covered(0, 100, &mut kids), 20 + 10 + 10);
    }
}
