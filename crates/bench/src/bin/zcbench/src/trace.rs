//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark's own code, around each call
//! it makes into a layer's public API. They are kept in memory and written
//! at the end as Chrome trace-event JSON (open it at ui.perfetto.dev) plus
//! a per-layer self-time table. The replay is single-threaded, so spans
//! nest strictly and a span's children never overlap one another.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Request, ticket, job or batch id the call served, if any.
    pub id: Option<u64>,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The recorder: a clock origin, the finished spans, and the stack of
/// open ones.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.open.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span with this layer and name.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// timestamps in microseconds.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("span", Value::Num(i as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::Num(p as f64)));
                }
                if let Some(id) = s.id {
                    args.push(("id", Value::Num(id as f64)));
                }
                obj([
                    ("name", Value::Str(format!("{}.{}", s.layer, s.name))),
                    ("cat", Value::Str(s.layer.into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_s * 1e6)),
                    ("dur", Value::Num(s.duration_s() * 1e6)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                obj([("workload", Value::Str(workload.into()))]),
            ),
        ])
        .render()
    }

    /// Per-layer self time: each span's duration minus the time its child
    /// spans cover, summed by layer. Returns `layer -> (spans, total
    /// seconds, self seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_s) {
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.duration_s();
            e.2 += s.duration_s() - c;
        }
        out
    }

    /// The self-time table as text.
    pub fn self_time_table(&self) -> String {
        let rows = self.self_times();
        let total_self: f64 = rows.values().map(|r| r.2).sum();
        let mut out = format!(
            "{:<10} {:>8} {:>12} {:>12} {:>8}\n",
            "layer", "spans", "total (s)", "self (s)", "self %"
        );
        for (layer, (n, total, own)) in &rows {
            out.push_str(&format!(
                "{layer:<10} {n:>8} {total:>12.6} {own:>12.6} {:>7.2}%\n",
                if total_self > 0.0 {
                    100.0 * own / total_self
                } else {
                    0.0
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("engine", "drain", Some(0), |t| {
            t.span("data", "generate", None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rows = t.self_times();
        let (n, total, own) = rows["engine"];
        assert_eq!(n, 1);
        let child = rows["data"].1;
        assert!((own - (total - child)).abs() < 1e-12);
        assert_eq!(t.spans()[1].parent, Some(0));
        let doc = crate::json::parse(&t.chrome_json("w")).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
