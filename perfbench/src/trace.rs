//! Spans recorded by the benchmark's own code around each call into the
//! engine: set-up steps, serve phases, every submit→response, every
//! `read_field` and every freshness probe. They are kept in memory and
//! written out as CSV once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the id of what it covers (a session
/// sequence number for calls) and the id of the enclosing phase span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Phase spans use ids 1 (saturated) and 2
/// (paced); 0 is the run itself.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Close a span that began at `start`.
    pub fn end(&mut self, name: &'static str, id: u64, parent: u64, start: Instant) {
        self.span(name, id, parent, start, Instant::now());
    }

    /// Record a span with both ends known.
    pub fn span(&mut self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as `name,id,parent,start_ns,end_ns` lines.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "name,id,parent,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_relative_to_the_origin_and_ordered() {
        let mut t = Tracer::new();
        let s = Instant::now();
        t.end("x", 7, 0, s);
        assert_eq!(t.len(), 1);
        let span = t.spans[0];
        assert!(span.start_ns <= span.end_ns);
        assert_eq!((span.name, span.id, span.parent), ("x", 7, 0));
    }
}
