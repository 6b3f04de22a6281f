//! In-memory spans, written out when the run ends.
//!
//! A span is one call across a layer boundary: `{id, parent, stmt, name,
//! start_ns, end_ns}`.  Spans of one statement share `stmt`; a layer's self
//! time is its span minus the part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use hique_benchmark::tcp::Sample;

pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub stmt: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// A span that has started; [`Recorder::close`] names and ends it.
pub struct Open {
    pub id: u64,
    start: Duration,
}

/// One thread's span buffer.  Ids carry the thread number in their high
/// bits, so buffers merge without renumbering.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    /// Off for the untraced replay: calls are still timed, nothing is kept.
    keep: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64, keep: bool) -> Recorder {
        Recorder {
            epoch,
            next: (thread << 40) + 1,
            keep,
            spans: Vec::new(),
        }
    }

    /// A fresh id: a statement number, or a span about to start.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    pub fn open(&mut self) -> Open {
        Open {
            id: self.id(),
            start: self.epoch.elapsed(),
        }
    }

    /// End `open` now; returns how long it lasted, in seconds.
    pub fn close(&mut self, open: Open, name: &'static str, parent: u64, stmt: u64) -> f64 {
        let end = self.epoch.elapsed();
        if self.keep {
            self.spans.push(Span {
                id: open.id,
                parent,
                stmt,
                name,
                start: open.start,
                end,
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// The TCP window's round trips, as the wire layer's spans.
    pub fn import_wire(&mut self, samples: &[Sample]) {
        for s in samples {
            let (id, stmt) = (self.id(), self.id());
            self.spans.push(Span {
                id,
                parent: 0,
                stmt,
                name: "wire.roundtrip",
                start: s.start,
                end: s.end,
            });
        }
    }
}

pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"stmt\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.stmt,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos()
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}
