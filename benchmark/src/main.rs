//! `hyperbench --workload W --seed S --seconds T --trace 0|1`
//!
//! Runs one workload for `T` seconds on two worker threads and prints one
//! `name value unit` line per metric, then `digest <hex>`, then (traced)
//! the per-layer self-time table, and last one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans as JSONL to `benchmark/.hyperbench/<workload>-<seed>.jsonl`.
//! Exits 1 when a correctness check fails, 2 on bad arguments.

use std::process::ExitCode;

use hyperbench::{run_workload, trace, Budget, RunResult, Workload};
use hyperpath_bench::{CountingAlloc, Json, ToJson};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Worker threads every op runs on.
const THREADS: usize = 2;
/// Where traced runs write their spans: inside the benchmark package,
/// whatever the working directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.hyperbench");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hyperbench --workload <{}> [--seed N] [--seconds T] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: Workload::TenantsSteady, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be a finite number >= 0, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn print_result(r: &RunResult, seed: u64) {
    for m in &r.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("digest {:016x}", r.digest);
    if !r.spans.is_empty() {
        let path = format!("{TRACE_DIR}/{}-{seed}.jsonl", r.workload.name());
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&r.spans)))
        {
            Ok(()) => println!("trace {path} ({} spans)", r.spans.len()),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
        let layers = trace::layer_times(&r.spans);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        println!("{:<28} {:>9} {:>12} {:>7}", "layer (span)", "count", "self_ms", "share");
        for (name, l) in &layers {
            println!(
                "{:<28} {:>9} {:>12.3} {:>6.1}%",
                name,
                l.count,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / total.max(1) as f64
            );
        }
    }
    for e in r.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let metrics = Json::Object(
        r.metrics
            .iter()
            .map(|m| {
                let v = Json::object([("value", Json::Float(m.value)), ("unit", m.unit.to_json())]);
                (m.name.to_string(), v)
            })
            .collect(),
    );
    let summary = Json::object([
        ("correct", r.correct().to_json()),
        ("attempted", r.attempted.to_json()),
        ("failed", r.failed.to_json()),
        ("metrics", metrics),
    ]);
    println!("{}", summary.render());
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let budget = Budget::timed(args.workload, args.seconds);
    let result = run_workload(args.workload, args.seed, budget, THREADS, args.trace);
    print_result(&result, args.seed);
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
