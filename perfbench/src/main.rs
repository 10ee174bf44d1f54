//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload from its seed for the given time, checks its
//! outputs, and prints as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric on a
//! plain run, every per-layer metric on a traced run (`--trace 1`),
//! whose spans are also written to `<target dir>/perfbench-traces/`.
//! Exits 1 when a correctness check fails, 2 on bad arguments or a
//! configuration-changing environment variable. See `NOTES.md`.

mod arrivals;
mod faulty;
mod frames;
mod hostref;
mod report;
mod serving;
mod stats;
mod substrate;
mod trace;
mod workload;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Environment variables the library reads as hidden configuration
/// (`ScReramConfig::new` and the tile-thread count); any of them would
/// silently change a workload.
const CONFIG_ENV: [&str; 3] = ["IMSC_OPTIMIZE", "IMSC_PLAN_CACHE", "IMGPROC_TILE_THREADS"];

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "frames-fresh-n64",
    "frames-repeat-n4096",
    "serve-poisson",
    "faulty-replay-n256",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    use frames::{Content, Spec};
    match args.workload.as_str() {
        "frames-fresh-n64" => frames::run(
            Spec {
                n: 64,
                content: Content::Fresh,
                limit_ms: 100.0,
            },
            args.seed,
            args.seconds,
            tracer,
        ),
        "frames-repeat-n4096" => frames::run(
            Spec {
                n: 4096,
                content: Content::Repeat,
                limit_ms: 300.0,
            },
            args.seed,
            args.seconds,
            tracer,
        ),
        "serve-poisson" => serving::run(args.seed, args.seconds, tracer),
        _ => faulty::run(args.seed, args.seconds, tracer),
    }
}

/// Where a traced run's spans go: under the cargo target directory.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = CONFIG_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set: it would change the pinned workload configuration");
        std::process::exit(2);
    }

    let mut tracer = if args.trace {
        Tracer::new(Instant::now())
    } else {
        Tracer::disabled()
    };
    let mut out = run(&args, &mut tracer);
    let tile_threads = workload::frame_tile_threads();
    out.metrics.set("host.cores", workload::cores() as f64);
    out.metrics.set("host.tile_threads", tile_threads as f64);
    if args.trace {
        let path = trace_path(&args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&args.workload, args.seed)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => out
                .problems
                .push(format!("cannot write trace {}: {e}", path.display())),
        }
    }
    let samples = out.metrics.get("e2e.latency_samples").unwrap_or(0.0);
    let host_ref = out.metrics.get("host.ref_ms").unwrap_or(0.0);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={} tile_threads={} latency_samples={samples} host_ref_ms={host_ref}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::cores(),
        tile_threads,
    );
    let line = report::render(&mut out, args.trace);
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}
