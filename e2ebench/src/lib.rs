//! End-to-end benchmark of the MSD-Mixer serving stack and adaptive
//! stream, run from outside the program through its public APIs.
//!
//! Three workloads (`gateway_fleet`, `serve_mixer`, `stream_drift`) each
//! check every output against an oracle and report end-to-end metrics; a
//! traced run adds per-layer metrics from spans recorded around calls into
//! the program and around every method of a wrapped [`msd_nn::Model`].
//! `METRICS.md` beside this crate defines each metric.

pub mod gateway_fleet;
pub mod json;
pub mod pace;
pub mod serve_mixer;
pub mod stats;
pub mod stream_drift;
pub mod trace;

use std::time::{Duration, Instant};

use trace::{Span, UNKNOWN_ROW};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// Length of one measured pass.
    pub seconds: Duration,
    /// Whether to add a traced pass and per-layer metrics.
    pub trace: bool,
}

impl RunArgs {
    /// Length of one measured pass: a traced run fits an untraced and a
    /// traced pass into the same time an untraced run measures.
    pub fn pass_len(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// The end-to-end numbers of one measured pass.
#[derive(Clone, Copy, Debug)]
pub struct PassNumbers {
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Completed work per second.
    pub capacity_per_s: f64,
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics every workload reports (the gated set).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload reports in a traced run.
    pub layers: Vec<Metric>,
    /// Metrics that exist only for this workload; printed, not gated.
    pub extra: Vec<Metric>,
    /// Requests (windows, for the stream) attempted in measured passes.
    pub attempted: u64,
    /// Attempts that failed, were refused, lost or answered wrongly.
    pub failed: u64,
    /// Output checks: name and failure detail (`None` = passed).
    pub checks: Vec<(String, Option<String>)>,
    /// Spans of the traced pass, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a gated end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records a per-layer metric of the traced run.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records a workload-specific metric.
    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extra.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl FnOnce() -> String) {
        self.checks.push((name.into(), (!passed).then(detail)));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, d)| d.is_none())
    }
}

impl Outcome {
    /// Records the end-to-end metrics of the untraced pass and, for a traced
    /// run, the traced pass's tail latency and the tracing overhead (traced
    /// minus untraced). `p99_us` repeats too poorly between runs on a shared
    /// two-core host to be gated, so it is a per-layer metric.
    pub fn report_passes(&mut self, setup_s: f64, plain: PassNumbers, traced: Option<PassNumbers>) {
        self.e2e("setup_s", "s", setup_s);
        self.e2e("p50_us", "us", plain.p50_us);
        self.e2e("capacity_per_s", "1/s", plain.capacity_per_s);
        self.extra("p99_us", "us", plain.p99_us);
        if let Some(t) = traced {
            self.layer("p99_us", "us", t.p99_us);
            self.extra("trace.overhead.p50_us", "us", t.p50_us - plain.p50_us);
            self.extra("trace.overhead.p99_us", "us", t.p99_us - plain.p99_us);
            self.extra(
                "trace.overhead.capacity_per_s",
                "1/s",
                t.capacity_per_s - plain.capacity_per_s,
            );
        }
    }
}

/// Length of the windows a paced pass is cut into for its gated figures.
pub const WINDOW: Duration = Duration::from_millis(200);

/// Other tenants of the host take the CPU in bursts, and a burst only ever
/// adds time. So the paced workloads read their gated latency and capacity
/// from the least disturbed tenth of a pass's windows.
pub const QUIET_PCT: u64 = 10;

/// A paced pass cut into [`WINDOW`]s: the median open-loop latency and the
/// closed-loop answer count of each window.
#[derive(Default)]
pub struct Windows {
    p50_ns: Vec<u64>,
    answers: Vec<u64>,
}

/// Index of the window of a phase begun at `start` that `at` falls in.
fn window_of(start: Instant, at: Instant) -> usize {
    (at.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos()) as usize
}

impl Windows {
    /// Adds an open-loop phase begun at `start`: `(due, latency_ns)` of
    /// each correct answer, grouped by the window it was due in.
    pub fn add_open(&mut self, start: Instant, answers: impl IntoIterator<Item = (Instant, u64)>) {
        let mut by_window: Vec<Vec<u64>> = Vec::new();
        for (due, ns) in answers {
            let w = window_of(start, due);
            if by_window.len() <= w {
                by_window.resize(w + 1, Vec::new());
            }
            by_window[w].push(ns);
        }
        self.p50_ns.extend(
            by_window
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| stats::percentile(w, 50)),
        );
    }

    /// Adds a closed-loop phase of length `len` begun at `start`: the
    /// instants its correct answers arrived, those past `len` left out.
    pub fn add_closed(
        &mut self,
        start: Instant,
        len: Duration,
        done: impl IntoIterator<Item = Instant>,
    ) {
        let mut counts = vec![0; len.as_nanos().div_ceil(WINDOW.as_nanos()) as usize];
        for at in done {
            if at <= start + len {
                let w = window_of(start, at).min(counts.len() - 1);
                counts[w] += 1;
            }
        }
        self.answers.extend(counts);
    }

    /// Median latency of the windows at the [`QUIET_PCT`] percentile, µs.
    pub fn p50_us(&self) -> f64 {
        stats::percentile(&self.p50_ns, QUIET_PCT) as f64 / 1e3
    }

    /// Answers per second of the windows at the `100 - QUIET_PCT`
    /// percentile.
    pub fn capacity_per_s(&self) -> f64 {
        stats::percentile(&self.answers, 100 - QUIET_PCT) as f64 / WINDOW.as_secs_f64()
    }
}

/// One request as the load generator saw it at the serving layer, for linking
/// batch evaluations back to it.
#[derive(Clone, Copy, Debug)]
pub struct ReqSpan {
    /// Request id (unique within the run, never 0).
    pub id: u64,
    /// Id of the input it carried (see [`trace::Tracer::register_inputs`]).
    pub input: u32,
    /// When the request entered the layer, ns since the tracer epoch.
    pub start_ns: u64,
    /// When its answer came back, ns since the tracer epoch.
    pub end_ns: u64,
}

/// The served batches among `spans`: a plan evaluation opens with
/// `nn.plan_prelude`, a tape evaluation is one `autograd.forward`.
pub fn batch_spans(spans: &[Span]) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| matches!(s.name, "nn.plan_prelude" | "autograd.forward"))
        .cloned()
        .collect()
}

/// For each request, the batches that carried its input while it was in
/// flight. A row links to the request with that input whose interval
/// contains the batch span.
pub fn link_batches(reqs: &[ReqSpan], batches: &[Span]) -> Vec<Vec<usize>> {
    let mut by_input: std::collections::HashMap<u32, Vec<usize>> = Default::default();
    for (i, r) in reqs.iter().enumerate() {
        by_input.entry(r.input).or_default().push(i);
    }
    for list in by_input.values_mut() {
        list.sort_by_key(|&i| reqs[i].start_ns);
    }
    let mut linked = vec![Vec::new(); reqs.len()];
    for (b, span) in batches.iter().enumerate() {
        for &row in &span.rows {
            if row == UNKNOWN_ROW {
                continue;
            }
            let Some(list) = by_input.get(&row) else {
                continue;
            };
            // The last request with this input admitted before the batch.
            let k = list.partition_point(|&i| reqs[i].start_ns <= span.start_ns);
            if k > 0 {
                let i = list[k - 1];
                if reqs[i].end_ns >= span.end_ns {
                    linked[i].push(b);
                }
            }
        }
    }
    linked
}

/// Per-request serve-layer wait, microseconds: from entering the layer to
/// the start of the batch that evaluated it — queueing plus coalescing.
/// One value per request that has a linked batch.
pub fn wait_us(reqs: &[ReqSpan], batches: &[Span]) -> Vec<u64> {
    link_batches(reqs, batches)
        .iter()
        .zip(reqs)
        .filter_map(|(l, r)| {
            let first = l.iter().map(|&b| batches[b].start_ns).min()?;
            Some(first.saturating_sub(r.start_ns) / 1000)
        })
        .collect()
}

/// Request spans plus, under each, the batch span that evaluated it, for
/// the trace file.
pub fn request_spans(name: &'static str, reqs: &[ReqSpan], batches: &[Span]) -> Vec<Span> {
    let mut out = Vec::with_capacity(reqs.len() * 2);
    for (r, links) in reqs.iter().zip(link_batches(reqs, batches)) {
        out.push(Span {
            name,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            parent: 0,
            req: r.id,
            rows: Vec::new(),
        });
        for b in links {
            out.push(Span {
                parent: r.id,
                req: r.id,
                rows: Vec::new(),
                ..batches[b].clone()
            });
        }
    }
    out
}

/// A fresh path for a server's JSONL telemetry ([`msd_serve::ServeConfig::events_path`])
/// under `e2ebench/out`, named after `tag` and this process.
pub fn events_path(tag: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("e2ebench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("events-{tag}-{}.jsonl", std::process::id()));
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    Ok(path)
}

/// One batch a server evaluated, as its `serve_batch` telemetry line
/// reports it: rows, and the worker's wall time around the evaluation in
/// whole microseconds (a plan compile on that batch included).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchEvent {
    /// Requests in the batch.
    pub size: u64,
    /// Evaluation wall time, microseconds.
    pub eval_us: u64,
}

/// The JSON objects of a telemetry stream, in order. Servers that share
/// one file can interleave their lines, because each writes a line's
/// object and its newline separately (`{..}{..}\n\n`), so the stream is
/// split on object boundaries, not on newlines.
fn json_objects(text: &str) -> Result<Vec<&str>, String> {
    let (mut out, mut depth, mut start) = (Vec::new(), 0usize, 0);
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in text.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' if depth > 0 => in_str = true,
            '{' | '[' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' | ']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&text[start..=i]);
                }
            }
            c if depth == 0 && !c.is_whitespace() => {
                return Err(format!("stray {c:?} at byte {i} of the telemetry"));
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("telemetry ends inside an object".into());
    }
    Ok(out)
}

/// The `serve_batch` events of a telemetry stream, in stream order.
pub fn parse_batch_events(text: &str) -> Result<Vec<BatchEvent>, String> {
    let mut out = Vec::new();
    for obj in json_objects(text)? {
        let e = json::Json::parse(obj)?;
        if e.get("event").and_then(json::Json::str) != Some("serve_batch") {
            continue;
        }
        let n = |k: &str| {
            e.get(k)
                .and_then(json::Json::num)
                .map(|v| v as u64)
                .ok_or(format!("serve_batch event without {k}: {obj}"))
        };
        out.push(BatchEvent {
            size: n("size")?,
            eval_us: n("eval_us")?,
        });
    }
    Ok(out)
}

/// Reads and removes a telemetry file written by servers that have shut
/// down, returning its `serve_batch` events.
pub fn take_batch_events(path: &std::path::Path) -> Result<Vec<BatchEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = std::fs::remove_file(path);
    parse_batch_events(&text)
}

/// The events after the first `rows` requests' worth: the batches of a
/// single server that served `rows` warm-up requests, each answered before
/// the next phase began, and then the measured ones. One server writes its
/// lines in the order its batches finish.
pub fn skip_rows(events: &[BatchEvent], rows: u64) -> &[BatchEvent] {
    let mut seen = 0;
    let k = events
        .iter()
        .take_while(|e| {
            let before = seen;
            seen += e.size;
            before < rows
        })
        .count();
    &events[k..]
}

/// Checks that the servers' telemetry covers exactly the requests the
/// wrapper saw in measured batches plus `warm` warm-up requests.
pub fn check_events_cover(
    out: &mut Outcome,
    name: &str,
    events: &[BatchEvent],
    batches: &[Span],
    warm: u64,
) {
    let told: u64 = events.iter().map(|e| e.size).sum();
    let seen = warm + batches.iter().map(|s| s.rows.len() as u64).sum::<u64>();
    out.check(name, told == seen, || {
        format!("telemetry reports {told} served rows, the wrapper saw {seen}")
    });
}

/// The per-layer metrics every workload derives from the served batches.
/// Count, size and plan share come from the wrapper's batch spans of the
/// traced pass (`batches`, lasting `wall_ns`). Evaluation cost comes from
/// the servers' own `serve_batch` telemetry (`events`), less the plan
/// compiles those servers ran inside it (`compiles`: shape and ns, as the
/// wrapper timed them). `eval_us` is whole microseconds per batch, so the
/// means read up to 1 µs per batch low.
pub fn eval_layers(
    out: &mut Outcome,
    batches: &[Span],
    events: &[BatchEvent],
    wall_ns: u64,
    compiles: &[(Vec<usize>, u64)],
) {
    let n = batches.len().max(1) as f64;
    let rows: usize = batches.iter().map(|s| s.rows.len()).sum();
    let plan = batches
        .iter()
        .filter(|s| s.name == "nn.plan_prelude")
        .count();
    let compile_ns: u64 = compiles.iter().map(|c| c.1).sum();
    let eval_ns = (events.iter().map(|e| e.eval_us).sum::<u64>() * 1000).saturating_sub(compile_ns);
    let eval_rows: u64 = events.iter().map(|e| e.size).sum();
    let mean_eval_ns = eval_ns as f64 / events.len().max(1) as f64;
    out.layer("serve.batches", "count", batches.len() as f64);
    out.layer("serve.mean_batch", "requests", rows as f64 / n);
    out.layer("serve.plan_share", "fraction", plan as f64 / n);
    out.layer("nn.eval_us", "us", mean_eval_ns / 1e3);
    out.layer(
        "nn.eval_us_per_sample",
        "us",
        eval_ns as f64 / 1e3 / eval_rows.max(1) as f64,
    );
    out.layer(
        "nn.busy_share",
        "fraction",
        mean_eval_ns * batches.len() as f64 / wall_ns.max(1) as f64,
    );
    out.layer("nn.compiles", "count", compiles.len() as f64);
    out.layer("nn.compile_ms", "ms", compile_ns as f64 / 1e6);
}

/// Jiffies the host took from this machine's CPUs (steal) and all jiffies
/// so far, from `/proc/stat`; their difference over a run says how much
/// other tenants contended for the cores.
pub fn cpu_steal() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_leave_out_a_stalled_stretch() {
        // Twenty open-loop windows answer in 1 ms except three stalled ones
        // at 9 ms; closed-loop windows hold 100 answers except three with 10.
        let t0 = Instant::now();
        let mut w = Windows::default();
        let open = (0..20u32).flat_map(|k| {
            let ns = if (5..8).contains(&k) {
                9_000_000
            } else {
                1_000_000
            };
            (0..10).map(move |i| (t0 + WINDOW * k + WINDOW / 20 * i, ns))
        });
        w.add_open(t0, open);
        assert_eq!(w.p50_us(), 1_000.0);
        let phase = WINDOW * 20;
        let done = (0..20u32).flat_map(|k| {
            let n = if (5..8).contains(&k) { 10 } else { 100 };
            (0..n).map(move |i| t0 + WINDOW * k + WINDOW / 200 * (i + 1))
        });
        // Answers after the phase's end are not counted.
        w.add_closed(t0, phase, done.chain([t0 + phase * 2]));
        assert_eq!(w.capacity_per_s(), 100.0 / WINDOW.as_secs_f64());
        assert_eq!(w.answers.iter().sum::<u64>(), 17 * 100 + 3 * 10);
    }

    fn batch(start: u64, end: u64, rows: Vec<u32>) -> Span {
        Span {
            name: "nn.plan_prelude",
            start_ns: start,
            end_ns: end,
            parent: 0,
            req: 0,
            rows,
        }
    }

    #[test]
    fn batches_link_to_the_request_in_flight_with_that_input() {
        // Input 7 is sent twice; each batch belongs to the request whose
        // interval contains it.
        let reqs = [
            ReqSpan {
                id: 1,
                input: 7,
                start_ns: 0,
                end_ns: 100_000,
            },
            ReqSpan {
                id: 2,
                input: 8,
                start_ns: 0,
                end_ns: 100_000,
            },
            ReqSpan {
                id: 3,
                input: 7,
                start_ns: 200_000,
                end_ns: 300_000,
            },
        ];
        let batches = [
            batch(40_000, 41_000, vec![7, 8]),
            batch(220_000, 221_000, vec![UNKNOWN_ROW, 7]),
        ];
        assert_eq!(
            link_batches(&reqs, &batches),
            vec![vec![0], vec![0], vec![1]]
        );
        assert_eq!(wait_us(&reqs, &batches), vec![40, 40, 20]);
    }

    #[test]
    fn batch_events_parse_and_skip_the_warm_up() {
        let text = concat!(
            "{\"event\":\"serve_batch\",\"size\":2,\"eval_us\":40}\n",
            "{\"event\":\"serve_reject\"}\n",
            "{\"event\":\"serve_batch\",\"size\":1,\"eval_us\":15}\n",
            "{\"event\":\"serve_batch\",\"size\":3,\"eval_us\":52}\n",
            "{\"event\":\"serve_stop\",\"submitted\":6}\n",
        );
        let events = parse_batch_events(text).unwrap();
        let ev = |size, eval_us| BatchEvent { size, eval_us };
        assert_eq!(events, vec![ev(2, 40), ev(1, 15), ev(3, 52)]);
        assert_eq!(skip_rows(&events, 0), &events[..]);
        assert_eq!(skip_rows(&events, 3), &events[2..]);
        assert!(parse_batch_events("{\"event\":\"serve_batch\",\"size\":1}").is_err());
        assert!(parse_batch_events("{\"event\":\"serve_batch\",").is_err());
    }

    #[test]
    fn interleaved_lines_of_servers_sharing_a_file_still_parse() {
        // Two servers flushed between an object and its newline.
        let text = concat!(
            "{\"event\":\"serve_batch\",\"size\":1,\"eval_us\":9}",
            "{\"event\":\"serve_panic\",\"message\":\"a } in \\\"text\\\"\"}\n\n",
            "{\"event\":\"serve_batch\",\"size\":2,\"eval_us\":11}\n",
        );
        let sizes: Vec<u64> = parse_batch_events(text)
            .unwrap()
            .iter()
            .map(|e| e.size)
            .collect();
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn eval_cost_comes_from_telemetry_less_the_compiles_inside_it() {
        let batches = [batch(0, 1, vec![1, 2]), batch(2, 3, vec![3])];
        let events = [
            BatchEvent {
                size: 2,
                eval_us: 1_030,
            },
            BatchEvent {
                size: 1,
                eval_us: 20,
            },
        ];
        // The first batch compiled its plan for 1 ms inside its evaluation.
        let compiles = [(vec![2, 2, 24], 1_000_000)];
        let mut out = Outcome::default();
        eval_layers(&mut out, &batches, &events, 100_000, &compiles);
        let get = |name: &str| out.layers.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("nn.eval_us"), 25.0);
        assert_eq!(get("nn.eval_us_per_sample"), 50.0 / 3.0);
        assert_eq!(get("nn.busy_share"), 0.5);
        assert_eq!(get("serve.mean_batch"), 1.5);
        assert_eq!(get("nn.compiles"), 1.0);
        assert_eq!(get("nn.compile_ms"), 1.0);
    }
}
