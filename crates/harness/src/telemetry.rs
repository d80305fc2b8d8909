//! Structured training telemetry: every batch, epoch, and recovery action
//! of the training driver is recorded as a [`TrainEvent`], aggregated into
//! an in-memory [`TelemetrySummary`], and optionally appended as JSON Lines
//! to the path named by the `MSD_TELEMETRY` environment variable.
//!
//! The monitor is pure observation: with the sink disabled it only bumps
//! counters, so enabling or disabling telemetry never changes training
//! numerics.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use msd_serve::json_escape;

/// One structured event emitted by the training driver.
#[derive(Clone, Debug)]
pub enum TrainEvent {
    /// A mini-batch completed with an applied optimiser update.
    BatchEnd {
        /// Epoch index (0-based).
        epoch: usize,
        /// Batch index within the epoch (0-based).
        batch: usize,
        /// Training loss of the batch.
        loss: f32,
        /// Global L2 gradient norm before clipping.
        grad_norm: f32,
        /// Clipping scale applied (1.0 = inactive).
        clip_scale: f32,
        /// Learning rate in effect for the update.
        lr: f32,
        /// Wall-clock time of forward+backward+step, in milliseconds.
        wall_ms: f64,
    },
    /// A batch produced a non-finite loss or gradient and was not applied.
    NonFinite {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// The (non-finite or finite) loss value observed.
        loss: f32,
        /// The gradient norm observed (NaN when the loss itself was bad).
        grad_norm: f32,
    },
    /// The recovery policy rolled parameters back to the last good snapshot,
    /// reset optimiser state, and backed the learning rate off.
    Rollback {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Learning rate after the backoff.
        new_lr: f32,
        /// Remaining retries before the run aborts.
        retries_left: usize,
    },
    /// Divergence retries were exhausted; the run stopped early.
    Abort {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Human-readable diagnostic.
        reason: String,
    },
    /// An epoch finished.
    EpochEnd {
        /// Epoch index.
        epoch: usize,
        /// Mean training loss over applied batches (NaN when every batch
        /// was dropped).
        train_loss: f32,
        /// Validation loss, when a validation source was given.
        val_loss: Option<f32>,
        /// Learning rate used during the epoch (after schedule + backoff).
        lr: f32,
        /// Batches skipped as non-finite during the epoch.
        skipped: usize,
    },
    /// A parameter snapshot was taken (`kind`: `"good-state"` for the
    /// rollback target, `"best-val"` for the early-stopping checkpoint).
    Snapshot {
        /// Epoch index.
        epoch: usize,
        /// What the snapshot is for.
        kind: &'static str,
    },
    /// A snapshot was restored into the parameter store.
    Restore {
        /// Epoch index at which the restore happened.
        epoch: usize,
        /// Which snapshot was restored (`"good-state"` / `"best-val"`).
        kind: &'static str,
    },
    /// Validation stopped improving for `patience` epochs.
    EarlyStop {
        /// Epoch index at which training stopped.
        epoch: usize,
    },
    /// Training state was restored from a durable on-disk checkpoint and
    /// the run continues mid-stream.
    Resume {
        /// Epoch the run resumes inside.
        epoch: usize,
        /// First batch index the resumed run will execute.
        batch: usize,
        /// Path of the checkpoint file that was loaded.
        path: String,
    },
    /// A streaming drift detector crossed its trigger threshold. Emitted by
    /// `msd-stream` on the shared JSONL schema; every field is a function of
    /// the seeded stream, so the event is replay-deterministic.
    Drift {
        /// Stream step (sample index) at which the trigger fired.
        step: u64,
        /// The windowed drift statistic that crossed the threshold.
        statistic: f32,
        /// Trigger threshold in effect.
        threshold: f32,
    },
    /// A model version was hot-swapped into the serving registry (the
    /// BUILD→PUBLISH→DRAIN path) after a warm retrain.
    Swap {
        /// Stream step at which the new version was published.
        step: u64,
        /// Registry version now live.
        version: u32,
    },
}

impl TrainEvent {
    /// Stable machine-readable tag for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TrainEvent::BatchEnd { .. } => "batch",
            TrainEvent::NonFinite { .. } => "non_finite",
            TrainEvent::Rollback { .. } => "rollback",
            TrainEvent::Abort { .. } => "abort",
            TrainEvent::EpochEnd { .. } => "epoch",
            TrainEvent::Snapshot { .. } => "snapshot",
            TrainEvent::Restore { .. } => "restore",
            TrainEvent::EarlyStop { .. } => "early_stop",
            TrainEvent::Resume { .. } => "resume",
            TrainEvent::Drift { .. } => "drift",
            TrainEvent::Swap { .. } => "swap",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"event\":\"{}\"", self.kind());
        match self {
            TrainEvent::BatchEnd {
                epoch,
                batch,
                loss,
                grad_norm,
                clip_scale,
                lr,
                wall_ms,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"batch\":{batch},\"loss\":{},\"grad_norm\":{},\
                     \"clip_scale\":{},\"lr\":{},\"wall_ms\":{:.3}",
                    json_f32(*loss),
                    json_f32(*grad_norm),
                    json_f32(*clip_scale),
                    json_f32(*lr),
                    wall_ms
                );
            }
            TrainEvent::NonFinite {
                epoch,
                batch,
                loss,
                grad_norm,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"batch\":{batch},\"loss\":{},\"grad_norm\":{}",
                    json_f32(*loss),
                    json_f32(*grad_norm)
                );
            }
            TrainEvent::Rollback {
                epoch,
                batch,
                new_lr,
                retries_left,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"batch\":{batch},\"new_lr\":{},\"retries_left\":{retries_left}",
                    json_f32(*new_lr)
                );
            }
            TrainEvent::Abort {
                epoch,
                batch,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"batch\":{batch},\"reason\":\"{}\"",
                    json_escape(reason)
                );
            }
            TrainEvent::EpochEnd {
                epoch,
                train_loss,
                val_loss,
                lr,
                skipped,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"train_loss\":{},\"lr\":{},\"skipped\":{skipped}",
                    json_f32(*train_loss),
                    json_f32(*lr)
                );
                if let Some(v) = val_loss {
                    let _ = write!(s, ",\"val_loss\":{}", json_f32(*v));
                }
            }
            TrainEvent::Snapshot { epoch, kind } | TrainEvent::Restore { epoch, kind } => {
                let _ = write!(s, ",\"epoch\":{epoch},\"kind\":\"{kind}\"");
            }
            TrainEvent::EarlyStop { epoch } => {
                let _ = write!(s, ",\"epoch\":{epoch}");
            }
            TrainEvent::Resume { epoch, batch, path } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"batch\":{batch},\"path\":\"{}\"",
                    json_escape(path)
                );
            }
            TrainEvent::Drift {
                step,
                statistic,
                threshold,
            } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"statistic\":{},\"threshold\":{}",
                    json_f32(*statistic),
                    json_f32(*threshold)
                );
            }
            TrainEvent::Swap { step, version } => {
                let _ = write!(s, ",\"step\":{step},\"version\":{version}");
            }
        }
        s.push('}');
        s
    }
}

/// An f32 as a JSON token: finite values print as numbers, non-finite as
/// `"NaN"` / `"inf"` / `"-inf"` strings (strict JSON has no NaN literal).
/// Public so other JSONL emitters (the stream score log) format floats with
/// the exact same bytes as training telemetry.
pub fn json_f32(v: f32) -> String {
    if v.is_nan() {
        "\"NaN\"".into()
    } else if v == f32::INFINITY {
        "\"inf\"".into()
    } else if v == f32::NEG_INFINITY {
        "\"-inf\"".into()
    } else {
        format!("{v}")
    }
}

/// Aggregated counters over one training run — always collected, embedded
/// in `FitReport` so callers can audit a run without parsing the JSONL log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Batches whose update was applied.
    pub batches: usize,
    /// Batches dropped for a non-finite loss or gradient.
    pub skipped_batches: usize,
    /// Updates where gradient clipping activated (`clip_scale < 1`).
    pub clip_activations: usize,
    /// Rollback-and-backoff recoveries performed.
    pub rollbacks: usize,
    /// Parameter snapshots restored (rollbacks + best-checkpoint restores).
    pub restores: usize,
    /// Largest finite gradient norm observed.
    pub max_grad_norm: f32,
    /// Total wall-clock spent in applied batches, in milliseconds.
    pub batch_wall_ms: f64,
}

/// Where recorded events go, beyond the always-on summary counters.
enum Sink {
    /// Counters only.
    None,
    /// Append JSON lines to a file.
    File(BufWriter<File>),
    /// Keep JSON lines in memory (tests, programmatic inspection).
    Memory(Vec<String>),
}

/// Records [`TrainEvent`]s from the training driver.
///
/// Construct with [`TrainMonitor::from_env`] (honours `MSD_TELEMETRY`),
/// [`TrainMonitor::to_path`], or [`TrainMonitor::in_memory`]; a
/// [`TrainMonitor::disabled`] monitor costs a few counter bumps per batch.
pub struct TrainMonitor {
    summary: TelemetrySummary,
    sink: Sink,
}

impl Default for TrainMonitor {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TrainMonitor {
    /// A monitor that aggregates counters but persists nothing.
    pub fn disabled() -> Self {
        Self {
            summary: TelemetrySummary::default(),
            sink: Sink::None,
        }
    }

    /// Honours `MSD_TELEMETRY`: when set, events append to that path as
    /// JSONL; otherwise equivalent to [`TrainMonitor::disabled`]. A path
    /// that cannot be opened disables the sink with a warning on stderr
    /// rather than failing the run.
    pub fn from_env() -> Self {
        match std::env::var("MSD_TELEMETRY") {
            Ok(path) if !path.is_empty() => Self::to_path(&path).unwrap_or_else(|e| {
                eprintln!("[telemetry] cannot open {path}: {e}; telemetry disabled");
                Self::disabled()
            }),
            _ => Self::disabled(),
        }
    }

    /// Appends events to `path` as JSON lines (the file is created or
    /// appended to, so several runs can share one log).
    pub fn to_path(path: impl AsRef<Path>) -> std::io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            summary: TelemetrySummary::default(),
            sink: Sink::File(BufWriter::new(file)),
        })
    }

    /// Keeps the rendered JSON lines in memory; read back with
    /// [`TrainMonitor::lines`].
    pub fn in_memory() -> Self {
        Self {
            summary: TelemetrySummary::default(),
            sink: Sink::Memory(Vec::new()),
        }
    }

    /// Records one event: updates the summary and forwards to the sink.
    pub fn record(&mut self, event: &TrainEvent) {
        match event {
            TrainEvent::BatchEnd {
                grad_norm,
                clip_scale,
                wall_ms,
                ..
            } => {
                self.summary.batches += 1;
                self.summary.batch_wall_ms += wall_ms;
                if *clip_scale < 1.0 {
                    self.summary.clip_activations += 1;
                }
                if grad_norm.is_finite() && *grad_norm > self.summary.max_grad_norm {
                    self.summary.max_grad_norm = *grad_norm;
                }
            }
            TrainEvent::NonFinite { .. } => self.summary.skipped_batches += 1,
            TrainEvent::Rollback { .. } => self.summary.rollbacks += 1,
            TrainEvent::Restore { .. } => self.summary.restores += 1,
            _ => {}
        }
        match &mut self.sink {
            Sink::None => {}
            Sink::File(w) => {
                // Write and flush per event: a crash can tear at most the
                // line being written, never lose earlier events to a
                // buffered writer that died with the process.
                let _ = writeln!(w, "{}", event.to_json());
                let _ = w.flush();
            }
            Sink::Memory(lines) => lines.push(event.to_json()),
        }
    }

    /// The aggregated counters so far.
    pub fn summary(&self) -> &TelemetrySummary {
        &self.summary
    }

    /// Replaces the counters wholesale — used when a run resumes from a
    /// durable checkpoint, so the final summary covers the logical run
    /// rather than just the post-resume tail.
    pub fn restore_summary(&mut self, summary: TelemetrySummary) {
        self.summary = summary;
    }

    /// The JSON lines recorded by an [`TrainMonitor::in_memory`] monitor
    /// (empty for other sinks).
    pub fn lines(&self) -> &[String] {
        match &self.sink {
            Sink::Memory(lines) => lines,
            _ => &[],
        }
    }

    /// Flushes a file sink; a no-op otherwise.
    pub fn flush(&mut self) {
        if let Sink::File(w) = &mut self.sink {
            let _ = w.flush();
        }
    }
}

impl Drop for TrainMonitor {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Reads a telemetry JSONL file crash-tolerantly: returns the complete
/// event lines plus the number of torn lines skipped. A process killed
/// mid-write leaves at most one partial trailing line (events are flushed
/// per record); a reader that choked on it would make the log useless
/// exactly when it matters most, so malformed lines are counted and
/// skipped instead.
pub fn read_events_tolerant(path: impl AsRef<Path>) -> std::io::Result<(Vec<String>, usize)> {
    let content = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut torn = 0usize;
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('{') && line.ends_with('}') {
            events.push(line.to_string());
        } else {
            torn += 1;
        }
    }
    Ok((events, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_one_json_object_per_line() {
        let mut mon = TrainMonitor::in_memory();
        mon.record(&TrainEvent::BatchEnd {
            epoch: 0,
            batch: 3,
            loss: 0.5,
            grad_norm: 1.25,
            clip_scale: 1.0,
            lr: 1e-3,
            wall_ms: 2.5,
        });
        mon.record(&TrainEvent::NonFinite {
            epoch: 0,
            batch: 4,
            loss: f32::NAN,
            grad_norm: f32::INFINITY,
        });
        mon.record(&TrainEvent::Abort {
            epoch: 1,
            batch: 0,
            reason: "lr \"backoff\" exhausted".into(),
        });
        let lines = mon.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"event\":\"batch\""));
        assert!(lines[0].contains("\"loss\":0.5"));
        assert!(lines[1].contains("\"loss\":\"NaN\""));
        assert!(lines[1].contains("\"grad_norm\":\"inf\""));
        assert!(lines[2].contains("\\\"backoff\\\""));
        // Every line is brace-balanced with quoted keys (JSONL shape).
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn stream_events_render_on_the_shared_schema() {
        let drift = TrainEvent::Drift {
            step: 2048,
            statistic: 6.5,
            threshold: 4.0,
        };
        assert_eq!(
            drift.to_json(),
            "{\"event\":\"drift\",\"step\":2048,\"statistic\":6.5,\"threshold\":4}"
        );
        let swap = TrainEvent::Swap {
            step: 2304,
            version: 2,
        };
        assert_eq!(swap.to_json(), "{\"event\":\"swap\",\"step\":2304,\"version\":2}");
        // Neither event touches the training counters.
        let mut mon = TrainMonitor::in_memory();
        mon.record(&drift);
        mon.record(&swap);
        assert_eq!(mon.summary(), &TelemetrySummary::default());
        assert_eq!(mon.lines().len(), 2);
    }

    #[test]
    fn summary_aggregates_counters() {
        let mut mon = TrainMonitor::disabled();
        for b in 0..3 {
            mon.record(&TrainEvent::BatchEnd {
                epoch: 0,
                batch: b,
                loss: 1.0,
                grad_norm: b as f32,
                clip_scale: if b == 2 { 0.5 } else { 1.0 },
                lr: 1e-3,
                wall_ms: 1.0,
            });
        }
        mon.record(&TrainEvent::NonFinite {
            epoch: 0,
            batch: 3,
            loss: f32::NAN,
            grad_norm: f32::NAN,
        });
        mon.record(&TrainEvent::Rollback {
            epoch: 0,
            batch: 3,
            new_lr: 5e-4,
            retries_left: 3,
        });
        let s = mon.summary();
        assert_eq!(s.batches, 3);
        assert_eq!(s.skipped_batches, 1);
        assert_eq!(s.clip_activations, 1);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.max_grad_norm, 2.0);
        assert!((s.batch_wall_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tolerant_reader_skips_torn_final_line() {
        let path = std::env::temp_dir().join("msd_telemetry_torn.jsonl");
        let mut content = String::new();
        content.push_str(&TrainEvent::EarlyStop { epoch: 1 }.to_json());
        content.push('\n');
        content.push_str(
            &TrainEvent::Snapshot {
                epoch: 2,
                kind: "durable",
            }
            .to_json(),
        );
        content.push('\n');
        // A crash mid-write leaves a partial line with no closing brace.
        content.push_str("{\"event\":\"batch\",\"epoch\":3,\"lo");
        std::fs::write(&path, &content).unwrap();

        let (events, torn) = read_events_tolerant(&path).unwrap();
        assert_eq!(events.len(), 2, "complete lines must survive: {events:?}");
        assert_eq!(torn, 1, "the torn tail must be counted, not fatal");
        assert!(events[0].contains("early_stop"));
        assert!(events[1].contains("durable"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_appends_jsonl() {
        let path = std::env::temp_dir().join("msd_telemetry_unit.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut mon = TrainMonitor::to_path(&path).unwrap();
            mon.record(&TrainEvent::EarlyStop { epoch: 2 });
        } // drop flushes
        {
            let mut mon = TrainMonitor::to_path(&path).unwrap();
            mon.record(&TrainEvent::EpochEnd {
                epoch: 0,
                train_loss: 0.25,
                val_loss: Some(0.5),
                lr: 1e-3,
                skipped: 0,
            });
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2, "append across runs: {content}");
        assert!(lines[0].contains("early_stop"));
        assert!(lines[1].contains("\"val_loss\":0.5"));
        let _ = std::fs::remove_file(&path);
    }
}
