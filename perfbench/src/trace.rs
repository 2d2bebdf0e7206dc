//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, written out as JSON lines when the run ends.
//! Spans inside the program itself are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Free-form tag: engine and scenario, wire command, and so on.
    pub tag: String,
    /// Job (session, grid run, repetition) the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink. Disabled tracers record nothing, so the untraced run pays
/// only a branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (workloads alternate traced and
    /// untraced repetitions to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a finished interval `[start, end]`; returns its index when
    /// recording is on.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: impl Into<String>,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at =
            |instant: Instant| instant.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag: tag.into(),
            job,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that encloses spans recorded later; close it with
    /// [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        tag: impl Into<String>,
        job: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, tag, job, parent, now, now)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name` whose tag equals `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name && span.tag == tag)
            .map(|span| span.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"tag\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                span.tag.replace('\\', "\\\\").replace('"', "\\\""),
                span.job,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}
