//! The benchmark command. Run from the root of the repository:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_mixer --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one line per metric (`metric <name> <value> <unit>`), a
//! fingerprint of the environment, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! failed output check names itself on stderr and exits non-zero.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use msd_e2ebench::stats::fnv1a;
use msd_e2ebench::{gateway_fleet, serve_mixer, stream_drift, trace, Metric, Outcome, RunArgs};

const USAGE: &str = "usage: msd-e2ebench --workload <gateway_fleet|serve_mixer|stream_drift> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Environment variables the program reads that would change what is
/// measured. Fault injection and the plan switch are removed; thread count
/// and kernel tier are fixed.
const UNSET: [&str; 4] = ["MSD_CHAOS", "MSD_CHAOS_LOG", "MSD_PLAN", "MSD_TELEMETRY"];
const FIXED: [(&str, &str); 2] = [("MSD_NUM_THREADS", "1"), ("MSD_KERNEL_FORCE", "auto")];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// CPU 0. The stream engine hands each sample from the caller to its
/// batcher and worker and back, one at a time; across two virtual CPUs the
/// scheduler's placement of those threads flips a run between two modes
/// whose scoring latency differs twofold, so `stream_drift` runs on one.
fn pin_to_cpu0() -> bool {
    let mask: u64 = 1;
    // SAFETY: `mask` outlives the call, the size passed is its size in
    // bytes, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let seconds = seconds.ok_or_else(|| missing("seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        RunArgs {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or_else(|| missing("trace"))?,
        },
    ))
}

/// Digest of the program's sources, standing in for a commit id where the
/// checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let bytes = files.iter().flat_map(|p| {
        let mut v = p.to_string_lossy().into_owned().into_bytes();
        v.extend(std::fs::read(p).unwrap_or_default());
        v
    });
    format!("{:016x}", fnv1a(bytes))
}

fn fingerprint(pinned: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut s = format!(
        "{{\"cores\":{cores},\"pinned_to_cpu0\":{pinned},\"isa\":\"{}\",\"kernel_tier\":\"{}\",\"rustc\":\"{rustc}\",\"source\":\"{}\"",
        msd_tensor::ops::kernels::detected_tier().name(),
        msd_tensor::ops::kernels::tier().name(),
        source_digest(),
    );
    for (k, v) in FIXED {
        let _ = write!(s, ",\"{k}\":\"{v}\"");
    }
    for k in UNSET {
        let _ = write!(s, ",\"{k}\":null");
    }
    s.push('}');
    s
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind} {} {} {}", m.name, m.value, m.unit);
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("run from the root of the repository (no crates/ here)");
        return ExitCode::from(2);
    }
    // Pinned before any program code runs and before any thread starts.
    for k in UNSET {
        std::env::remove_var(k);
    }
    for (k, v) in FIXED {
        std::env::set_var(k, v);
    }
    let pinned = workload == "stream_drift" && pin_to_cpu0();
    let steal0 = msd_e2ebench::cpu_steal();
    let mut outcome: Outcome = match workload.as_str() {
        "gateway_fleet" => gateway_fleet::run(&args),
        "serve_mixer" => serve_mixer::run(&args),
        "stream_drift" => match stream_drift::run(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("stream_drift: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let steal1 = msd_e2ebench::cpu_steal();
    let steal_share = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    outcome.extra("host.steal_share", "fraction", steal_share);
    println!("fingerprint {}", fingerprint(pinned));
    print_metrics("metric", &outcome.e2e);
    print_metrics("layer", &outcome.layers);
    print_metrics("extra", &outcome.extra);
    if args.trace {
        let path =
            Path::new("e2ebench/out").join(format!("trace-{workload}-seed{}.jsonl", args.seed));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => println!("trace {} spans -> {}", outcome.spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    for (name, detail) in &outcome.checks {
        match detail {
            None => println!("check {name} ok"),
            Some(d) => eprintln!("CHECK FAILED {name}: {d}"),
        }
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(metrics)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
