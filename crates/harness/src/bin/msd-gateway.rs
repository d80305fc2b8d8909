//! The demo gateway server process: binds the network edge, registers the
//! fixed demo fleet ([`msd_harness::gwdemo`]), and serves until killed or
//! `--run-secs` elapses.
//!
//! The bound address goes to stdout (and optionally `--addr-file`, written
//! atomically so a polling script never reads a torn line), which is how
//! `scripts/tier1.sh` and the load generator find an ephemeral-port
//! instance. Try it:
//!
//! ```text
//! msd-gateway --demo --addr 127.0.0.1:8787 &
//! curl -s http://127.0.0.1:8787/healthz
//! curl -s http://127.0.0.1:8787/stats
//! ```

use std::io::Write as _;
use std::time::{Duration, Instant};

use msd_gateway::{Gateway, GatewayConfig};
use msd_harness::gwdemo::DEMO_MODELS;
use msd_serve::ServeConfig;

fn usage() -> ! {
    eprintln!(
        "usage: msd-gateway --demo [options]\n\
           --demo              serve the fixed demo fleet (required; the only mode)\n\
           --addr <ip:port>    bind address; port 0 = ephemeral (default 127.0.0.1:0)\n\
           --addr-file <path>  write the bound address here for scripts\n\
           --replicas <n>      replica servers per model (default 2)\n\
           --workers <n>       worker threads per replica (default 2)\n\
           --max-batch <n>     micro-batch cap per replica (default 8)\n\
           --queue-cap <n>     admission queue bound per replica (default 256)\n\
           --tier <t>          publish demo params at precision tier f32|f16|int8\n\
                               (default f32; int8 serves via lowered plans)\n\
           --deadline-ms <n>   default per-request deadline; 0 = none (default 0)\n\
           --run-secs <n>      exit after n seconds; 0 = run until killed (default 0)\n\
         \n\
         MSD_CHAOS=<spec> injects a deterministic fault plan (see msd-serve\n\
         chaos docs); MSD_CHAOS_LOG=<path> appends fired faults as JSONL."
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut demo = false;
    let mut addr = String::from("127.0.0.1:0");
    let mut addr_file: Option<String> = None;
    let mut replicas = 2usize;
    let mut workers = 2usize;
    let mut max_batch = 8usize;
    let mut queue_cap = 256usize;
    let mut tier = msd_nn::PrecisionTier::F32;
    let mut deadline_ms = 0u64;
    let mut run_secs = 0u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--addr" => addr = parse(it.next()),
            "--addr-file" => addr_file = Some(parse(it.next())),
            "--replicas" => replicas = parse(it.next()),
            "--workers" => workers = parse(it.next()),
            "--max-batch" => max_batch = parse(it.next()),
            "--queue-cap" => queue_cap = parse(it.next()),
            "--tier" => {
                tier = it
                    .next()
                    .and_then(|s| msd_nn::PrecisionTier::parse(s))
                    .unwrap_or_else(|| usage())
            }
            "--deadline-ms" => deadline_ms = parse(it.next()),
            "--run-secs" => run_secs = parse(it.next()),
            _ => usage(),
        }
    }
    if !demo {
        usage();
    }

    let cfg = GatewayConfig {
        serve: ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(200),
            queue_cap,
            workers,
            events_path: None,
            default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            ..ServeConfig::default()
        },
        replicas,
        ..GatewayConfig::default()
    };
    // Surface an armed fault plan before serving a single request, so a CI
    // log always shows whether a run was a chaos run and under which seed.
    match msd_serve::Chaos::from_env() {
        Some(chaos) => eprintln!("chaos armed: {}", chaos.plan().to_spec()),
        None => eprintln!("chaos: off (set MSD_CHAOS=<spec> to arm)"),
    }
    let gw = Gateway::bind(addr.as_str(), cfg).expect("bind gateway");
    for m in DEMO_MODELS {
        // Always register through an encoded artifact at the requested tier
        // (f32 included) and declare that tier as the expectation, so the
        // demo exercises the same validated load path real deployments use.
        let params = m.params(1, tier);
        let version = gw
            .registry()
            .register_tiered(m.name, m.factory(), Some(&params), Some(tier))
            .expect("register demo model");
        eprintln!("registered {} v{version} tier={tier} ({} replicas)", m.name, replicas);
    }
    let bound = gw.local_addr().to_string();
    println!("{bound}");
    std::io::stdout().flush().ok();
    if let Some(path) = addr_file {
        // Write-then-rename: a script polling the file never sees half an
        // address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, &bound).expect("write addr file");
        std::fs::rename(&tmp, &path).expect("publish addr file");
    }
    eprintln!("msd-gateway listening on {bound}");

    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        if run_secs > 0 && started.elapsed() >= Duration::from_secs(run_secs) {
            break;
        }
    }
    gw.shutdown();
    eprintln!("msd-gateway: clean shutdown after {run_secs}s");
}
