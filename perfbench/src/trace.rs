//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Each thread fills its own preallocated [`SpanLog`]; finished logs are
//! handed to the [`Tracer`], which writes every span out as JSON lines when
//! the run ends. A span has a name, start and end (nanoseconds since the
//! tracer's origin), the span that caused it and the request it belongs to.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Request (or batch, or cycle) the span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    logs: Mutex<Vec<SpanLog>>,
    next_tag: Mutex<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), logs: Mutex::new(Vec::new()), next_tag: Mutex::new(1) }
    }

    /// A log for one thread, with room for `capacity` spans.
    pub fn log(&self, capacity: usize) -> SpanLog {
        let mut tag = self.next_tag.lock().expect("tracer tag lock");
        let log = SpanLog { tag: *tag, origin: self.origin, spans: Vec::with_capacity(capacity) };
        *tag += 1;
        log
    }

    /// Takes a finished thread log into the run's record.
    pub fn absorb(&self, log: SpanLog) {
        self.logs.lock().expect("tracer log lock").push(log);
    }

    /// Every span recorded so far under `name`.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        let logs = self.logs.lock().expect("tracer log lock");
        logs.iter().flat_map(|l| l.spans.iter().filter(|s| s.name == name).copied()).collect()
    }

    pub fn span_count(&self) -> usize {
        self.logs.lock().expect("tracer log lock").iter().map(|l| l.spans.len()).sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for log in self.logs.lock().expect("tracer log lock").iter() {
            for s in &log.spans {
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    tag: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its id (usable as a later
    /// span's parent only if that span is recorded under it, see
    /// [`open`](Self::open)).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(name, parent, request, start);
        self.close(id, end);
        id
    }

    /// Starts a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64, start: Instant) -> u64 {
        let id = (self.tag << 40) | (self.spans.len() as u64 + 1);
        let start_ns = self.ns(start);
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
        id
    }

    /// Ends a span opened by this log.
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this log.
    pub fn close(&mut self, id: u64, end: Instant) {
        assert_eq!(id >> 40, self.tag, "span closed by another log");
        let end_ns = self.ns(end);
        let ix = usize::try_from((id & ((1 << 40) - 1)) - 1).expect("span index fits usize");
        self.spans[ix].end_ns = end_ns;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_record_duration_and_parent() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut log = tracer.log(4);
        let parent = log.open("request", 0, 7, t0);
        log.record("submit", parent, 7, t0, t0 + ms(2));
        log.record("wait", parent, 7, t0 + ms(3), t0 + ms(8));
        log.close(parent, t0 + ms(10));
        tracer.absorb(log);
        let wait = tracer.spans("wait")[0];
        assert_eq!(wait.dur_ns(), 5_000_000);
        assert_eq!(wait.parent, parent);
        assert_eq!(tracer.spans("request")[0].dur_ns(), 10_000_000);
        assert_eq!(tracer.span_count(), 3);
    }

    #[test]
    fn span_ids_are_unique_across_logs() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let mut a = tracer.log(1);
        let mut b = tracer.log(1);
        assert_ne!(a.record("x", 0, 0, t0, t0), b.record("x", 0, 0, t0, t0));
    }
}
