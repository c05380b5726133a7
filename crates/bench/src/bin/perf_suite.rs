//! Runs the perf suite and writes the schema-versioned `BENCH_PERF.json`
//! artifact (plus a human-readable table on stdout).
//!
//! ```text
//! perf_suite [--out <path>] [--tiny]
//! ```
//!
//! * `--out <path>` — artifact destination (default `BENCH_PERF.json`).
//! * `--tiny` — seconds-scale configuration for smoke runs.

use hyperpath_bench::perf::{run_perf_suite, PerfConfig};
use std::path::PathBuf;
use std::process::ExitCode;

// Installs the counting global allocator for this binary, so the
// `alloc_calls` / `alloc_bytes` counters are live.
#[global_allocator]
static COUNTING_ALLOC: hyperpath_bench::CountingAlloc = hyperpath_bench::CountingAlloc;

const USAGE: &str = "usage: perf_suite [--out <path>] [--tiny]";

fn main() -> ExitCode {
    let mut out = PathBuf::from("BENCH_PERF.json");
    let mut cfg = PerfConfig::full();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("perf_suite: --out needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--tiny" => cfg = PerfConfig::tiny(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("perf_suite: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    assert!(
        hyperpath_bench::counting_allocator_installed(),
        "counting allocator must be live in the perf binary"
    );
    let suite = run_perf_suite(&cfg);
    print!("{}", suite.render_table());
    let body = suite.to_json().render_pretty();
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("perf_suite: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
