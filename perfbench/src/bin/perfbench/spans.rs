//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Spans of one conditional message share its id; the message's root
//! span runs from its due send time to the consumption of its outcome,
//! and the calls made on its behalf (send, receiver reads and commits,
//! the outcome get) are its children. A root's self time is therefore
//! the time the message spent inside the program's own threads: queues,
//! evaluation, journal flusher, transport.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The message's root span (program time not covered by a call).
    Program,
    Messenger,
    Receiver,
    Eval,
    Analyze,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Program => "program",
            Layer::Messenger => "messenger",
            Layer::Receiver => "receiver",
            Layer::Eval => "eval",
            Layer::Analyze => "analyze",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// The conditional message the span belongs to; its root is the
    /// parent of every other span carrying the same id.
    pub cond_id: Option<u128>,
}

/// Spans recorded by one thread.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
        cond_id: Option<u128>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start: ns(start),
            end: ns(end),
            cond_id,
        });
    }
}

/// Per-layer self time summed over all spans, in nanoseconds, plus the
/// number of message roots it covers.
pub struct SelfTimes {
    pub by_layer: HashMap<Layer, u64>,
    pub roots: usize,
}

/// Self time of each layer: a child's whole duration, and each root's
/// duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut by_layer: HashMap<Layer, u64> = HashMap::new();
    let mut children: HashMap<u128, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer != Layer::Program) {
        *by_layer.entry(s.layer).or_default() += s.end.saturating_sub(s.start);
        if let Some(id) = s.cond_id {
            children.entry(id).or_default().push((s.start, s.end));
        }
    }
    let mut roots = 0;
    for root in spans.iter().filter(|s| s.layer == Layer::Program) {
        roots += 1;
        let mut covered = 0;
        if let Some(kids) = root.cond_id.and_then(|id| children.get_mut(&id)) {
            kids.sort_unstable();
            let mut cursor = root.start;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(root.end));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
        }
        *by_layer.entry(Layer::Program).or_default() +=
            root.end.saturating_sub(root.start).saturating_sub(covered);
    }
    SelfTimes { by_layer, roots }
}

/// Writes the spans as JSON lines: name, layer, start/end in ns since the
/// run's epoch, the message id, and the parent (the message's root).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let id = s
            .cond_id
            .map_or("null".to_owned(), |id| format!("\"{id:032x}\""));
        let parent = match (s.layer, s.cond_id) {
            (Layer::Program, _) | (_, None) => "null".to_owned(),
            (_, Some(id)) => format!("\"root:{id:032x}\""),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cond_id\":{id},\"parent\":{parent}}}",
            s.name,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, id: u128) -> Span {
        Span {
            name: "x",
            layer,
            start,
            end,
            cond_id: Some(id),
        }
    }

    #[test]
    fn root_self_time_excludes_overlapping_children() {
        let spans = vec![
            span(Layer::Program, 0, 100, 1),
            span(Layer::Messenger, 0, 10, 1),
            span(Layer::Receiver, 5, 30, 1),
            span(Layer::Messenger, 90, 110, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t.roots, 1);
        // Children cover [0,30) and [90,100) of the root.
        assert_eq!(t.by_layer[&Layer::Program], 60);
        assert_eq!(t.by_layer[&Layer::Messenger], 30);
        assert_eq!(t.by_layer[&Layer::Receiver], 25);
    }
}
