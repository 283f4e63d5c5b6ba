//! In-memory span recorder for the traced run. Spans are taken by the
//! harness around its calls into each layer (spans inside the program are a
//! later change), kept in memory while the window runs and written out as
//! one JSON array when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The harness clock: nanoseconds since the process started measuring.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One timed call. Spans of one task share `trace_id`; `parent` names the
/// span that caused this one (empty for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub span: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nothing unless switched on, so the untraced run pays one branch
/// per call.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        trace_id: u64,
        span: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                trace_id,
                span,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Write every span as a JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                r#"{{"trace_id":{},"span":"{}","parent":"{}","start_ns":{},"end_ns":{}}}{comma}"#,
                s.trace_id, s.span, s.parent, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_on_records_in_order() {
        let mut off = Tracer::new(false);
        off.record(1, "task", "", 0, 10);
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        on.record(1, "task", "", 0, 10);
        on.record(1, "submit", "task", 0, 4);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, "task");
    }

    #[test]
    fn json_file_parses_back() {
        let mut t = Tracer::new(true);
        t.record(7, "task", "", 5, 50);
        t.record(7, "status", "task", 10, 20);
        let path = std::env::temp_dir().join(format!("e2e_perf_trace_{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let spans = v.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1]["span"].as_str(), Some("status"));
        assert_eq!(spans[1]["end_ns"].as_u64(), Some(20));
    }
}
