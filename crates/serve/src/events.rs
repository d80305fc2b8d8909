//! Structured serving telemetry, mirroring the JSONL shape of the training
//! telemetry in `msd-harness` (`{"event": "<kind>", ...}` — one object per
//! line) so the same tolerant readers and dashboards consume both streams.
//!
//! The sink is optional and purely observational: with no path configured,
//! emitting an event is a no-op and serving numerics are unchanged.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::ServeStats;

/// One structured event emitted by the serving runtime.
#[derive(Clone, Debug)]
pub enum ServeEvent {
    /// A micro-batch was evaluated and all its responses delivered.
    BatchEnd {
        /// Requests packed into the batch.
        size: usize,
        /// Wall-clock of the batched forward pass, microseconds.
        eval_us: u64,
    },
    /// A request was refused at intake because the queue was full.
    Reject,
    /// A request's deadline passed before evaluation; it was shed with
    /// [`crate::ServeError::DeadlineExceeded`] instead of running the
    /// model.
    Expired,
    /// A worker panicked mid-batch; every request in the batch received
    /// [`crate::ServeError::Internal`] instead of a prediction.
    WorkerPanic {
        /// The panic payload, as text.
        message: String,
    },
    /// The runtime drained and stopped; final counter snapshot.
    Stop {
        /// Final statistics at shutdown.
        stats: ServeStats,
    },
}

impl ServeEvent {
    /// Stable machine-readable tag for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::BatchEnd { .. } => "serve_batch",
            ServeEvent::Reject => "serve_reject",
            ServeEvent::Expired => "serve_expired",
            ServeEvent::WorkerPanic { .. } => "serve_panic",
            ServeEvent::Stop { .. } => "serve_stop",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"event\":\"{}\"", self.kind());
        match self {
            ServeEvent::BatchEnd { size, eval_us } => {
                let _ = write!(s, ",\"size\":{size},\"eval_us\":{eval_us}");
            }
            ServeEvent::Reject => {}
            ServeEvent::Expired => {}
            ServeEvent::WorkerPanic { message } => {
                let _ = write!(s, ",\"message\":\"{}\"", json_escape(message));
            }
            ServeEvent::Stop { stats } => {
                // Splice the stats object's fields into this event object.
                let body = stats.to_json();
                let _ = write!(s, ",{}", &body[1..body.len() - 1]);
            }
        }
        s.push('}');
        s
    }
}

/// Escapes `raw` for inclusion inside a JSON string literal. The one
/// escaper every JSON emitter in the workspace shares (serve telemetry,
/// gateway bodies, training telemetry), so they agree byte for byte.
pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Optional append-only JSONL sink, shared by every runtime thread.
///
/// Unbuffered on purpose: each event reaches the file as one append of the
/// object plus its newline, so servers sharing one path (a gateway's
/// replicas) never split or interleave a line, and the file is complete
/// whenever a reader looks.
pub(crate) struct EventSink {
    out: Option<Mutex<File>>,
}

impl EventSink {
    /// A sink that drops every event.
    pub(crate) fn disabled() -> Self {
        EventSink { out: None }
    }

    /// A sink appending to `path` (created if absent).
    pub(crate) fn to_path(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventSink {
            out: Some(Mutex::new(file)),
        })
    }

    pub(crate) fn emit(&self, event: &ServeEvent) {
        if let Some(out) = &self.out {
            let mut line = event.to_json();
            line.push('\n');
            let mut file = out.lock().unwrap_or_else(|p| p.into_inner());
            let _ = file.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_one_json_object_each() {
        let stats = ServeStats {
            submitted: 3,
            rejected: 1,
            completed: 2,
            failed: 0,
            expired: 0,
            batches: 1,
            plan_batches: 0,
            mean_batch: 2.0,
            p50_us: 5,
            p95_us: 9,
            p99_us: 9,
        };
        let cases = [
            (
                ServeEvent::BatchEnd {
                    size: 8,
                    eval_us: 120,
                },
                "serve_batch",
            ),
            (ServeEvent::Reject, "serve_reject"),
            (ServeEvent::Expired, "serve_expired"),
            (
                ServeEvent::WorkerPanic {
                    message: "bad \"shape\"\n".into(),
                },
                "serve_panic",
            ),
            (ServeEvent::Stop { stats }, "serve_stop"),
        ];
        for (event, kind) in cases {
            let json = event.to_json();
            assert!(json.starts_with(&format!("{{\"event\":\"{kind}\"")), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert_eq!(json.matches('{').count(), 1, "flat object: {json}");
        }
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn sink_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join("msd_serve_events_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = EventSink::to_path(&path).unwrap();
        sink.emit(&ServeEvent::Reject);
        sink.emit(&ServeEvent::BatchEnd {
            size: 2,
            eval_us: 7,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("serve_reject"));
        assert!(lines[1].contains("\"size\":2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sinks_sharing_one_path_never_split_a_line() {
        // Two servers (a gateway's replicas) appending to one events file.
        // Events larger than any write buffer plus small ones, alternating
        // between the sinks: every line must still be one whole object.
        let dir = std::env::temp_dir().join("msd_serve_events_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("shared_events.jsonl");
        let _ = std::fs::remove_file(&path);
        let sinks = [
            EventSink::to_path(&path).unwrap(),
            EventSink::to_path(&path).unwrap(),
        ];
        let big = ServeEvent::WorkerPanic {
            message: "x".repeat(10_000),
        };
        let small = ServeEvent::BatchEnd {
            size: 3,
            eval_us: 42,
        };
        for i in 0..40 {
            let sink = &sinks[i % 2];
            sink.emit(if i % 3 == 0 { &small } else { &big });
        }
        drop(sinks);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 40, "one line per event");
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with("{\"event\":\"serve_") && line.ends_with('}'),
                "line {i} is not one whole event: {}",
                &line[..line.len().min(80)]
            );
            assert_eq!(line.matches('{').count(), 1, "line {i} holds two objects");
        }
        let _ = std::fs::remove_file(&path);
    }
}
