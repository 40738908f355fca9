//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out when the run ends, plus per-span self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use mega_serve::http::json::Json;

use crate::stats::Samples;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the log's epoch.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The request id (`Ticket::id()`, the engine's `TraceRecord.id`), or
    /// 0 for spans that belong to no request.
    pub id: u64,
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `at` as microseconds since the epoch.
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span and returns its index (the handle children name as
    /// their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let index = self.push(name, self.us(start), self.us(end), parent, id);
        (out, index)
    }

    /// The duration of span `index` in ms.
    pub fn duration_ms(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        (span.end_us - span.start_us) / 1e3
    }

    /// Self time in ms, summed and as a median per span name.
    pub fn self_time_summary(&self) -> Json {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(self_us / 1e3);
        }
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, values)| {
                    let total: f64 = values.iter().sum();
                    let samples = Samples::new(values);
                    let p50 = samples.median().map_or(0.0, |s| s.value);
                    let entry = Json::Obj(vec![
                        ("count".into(), Json::from(samples.count() as u64)),
                        ("self_total_ms".into(), Json::from(total)),
                        ("self_p50_ms".into(), Json::from(p50)),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_us)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::from(p as u64));
            let line = Json::Obj(vec![
                ("span".into(), Json::from(i as u64)),
                ("name".into(), Json::from(span.name.to_string())),
                ("start_us".into(), Json::from(span.start_us)),
                ("end_us".into(), Json::from(span.end_us)),
                ("parent".into(), parent),
                ("id".into(), Json::from(span.id)),
                ("self_us".into(), Json::from(self_us)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers. Overlapping
/// children count once, and a child's time outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (start, end) = (
                span.start_us.max(parent.start_us),
                span.end_us.min(parent.end_us),
            );
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (start, end) in intervals {
                match current {
                    Some((s, e)) if start <= e => current = Some((s, e.max(end))),
                    Some((s, e)) => {
                        covered += e - s;
                        current = Some((start, end));
                    }
                    None => current = Some((start, end)),
                }
            }
            if let Some((s, e)) = current {
                covered += e - s;
            }
            (span.end_us - span.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            // Two overlapping children cover [10, 50): counted once.
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 50.0, Some(0)),
            // A disjoint child covers [60, 70).
            span("c", 60.0, 70.0, Some(0)),
            // A grandchild is charged to its own parent only.
            span("d", 12.0, 20.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 22.0, 20.0, 10.0, 8.0]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("late", 5.0, 30.0, Some(0)),
            span("nested", 6.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5.0, 25.0, 2.0]);
    }

    #[test]
    fn a_leaf_keeps_its_whole_duration() {
        assert_eq!(self_times(&[span("leaf", 3.0, 7.5, None)]), vec![4.5]);
    }
}
