//! In-memory spans for the traced run: one span per timed call into a
//! layer, written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    request: u64,
}

/// Span recorder; `None` in an untraced run, where timing helpers only
/// read the clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id (closed by [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.epoch.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` as one span (when tracing) and returns its result with the
/// call's wall time in microseconds.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let span = tracer.as_deref_mut().map(|t| t.open(name, parent, request));
    let start = Instant::now();
    let out = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.close(id);
    }
    (out, us)
}
