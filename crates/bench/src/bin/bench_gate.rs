//! Perf-regression gate: reruns the perf suite and compares it against a
//! committed baseline.
//!
//! ```text
//! bench_gate [--baseline <path>] [--time-tolerance <x>] [--out <path>]
//!            [--tiny] [--bless] [--bless-append]
//! ```
//!
//! * `--baseline <path>` — baseline artifact (default
//!   `crates/bench/baselines/perf_baseline.json`).
//! * `--time-tolerance <x>` — wall-clock slowdown band (default 25.0;
//!   `0` disables every wall-clock check, including the kernel speedup
//!   floors below). Deterministic counters are always compared exactly.
//! * `--out <path>` — also write the fresh artifact (for CI upload).
//! * `--tiny` — seconds-scale suite (for smoke runs against a tiny
//!   baseline; the committed baseline is full-size).
//! * `--bless` — overwrite the baseline with the fresh run instead of
//!   comparing.
//! * `--bless-append` — append only the benchmarks the baseline has never
//!   seen; existing records keep their blessed values byte-for-byte, so
//!   the baseline diff shows additions only. Use when the suite grows.
//!
//! Besides the baseline comparison, a compare run also enforces the
//! cross-record **speedup floors** ([`check_speedups`]): the bit-sliced
//! Monte-Carlo kernel and the word-level IDA codec must keep beating
//! their scalar references inside the same fresh run (skipped under
//! `--tiny`, whose microsecond workloads sit below the floors'
//! calibration size and measure scheduler noise) — and the
//! **memory-scaling pins** ([`check_memory`]): every implicit-host scale
//! workload must stay under the 1 GiB peak-allocation ceiling with
//! bytes-per-node non-increasing in `n`. The memory pins are
//! deterministic-counter checks, so they run even under
//! `--time-tolerance 0`.
//!
//! Exit codes: `0` pass/blessed, `1` regression found, `2` usage error or
//! unusable baseline.

use hyperpath_bench::gate::{
    append_new_records, check_memory, check_speedups, compare, GateConfig,
};
use hyperpath_bench::perf::{run_perf_suite, PerfConfig};
use hyperpath_bench::Json;
use std::path::PathBuf;
use std::process::ExitCode;

// Live allocation counters for this binary.
#[global_allocator]
static COUNTING_ALLOC: hyperpath_bench::CountingAlloc = hyperpath_bench::CountingAlloc;

const USAGE: &str = "usage: bench_gate [--baseline <path>] [--time-tolerance <x>] [--out <path>] [--tiny] [--bless] [--bless-append]";

fn default_baseline() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/perf_baseline.json"))
}

fn main() -> ExitCode {
    let mut baseline_path = default_baseline();
    let mut cfg = GateConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut perf_cfg = PerfConfig::full();
    let mut tiny = false;
    let mut bless = false;
    let mut bless_append = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| -> Result<String, ExitCode> {
            args.next().ok_or_else(|| {
                eprintln!("bench_gate: {flag} needs a value\n{USAGE}");
                ExitCode::from(2)
            })
        };
        match arg.as_str() {
            "--baseline" => match take("--baseline") {
                Ok(p) => baseline_path = PathBuf::from(p),
                Err(c) => return c,
            },
            "--time-tolerance" => match take("--time-tolerance") {
                Ok(v) => match v.parse::<f64>() {
                    Ok(t) if t.is_finite() && t >= 0.0 => cfg.time_tolerance = t,
                    _ => {
                        eprintln!(
                            "bench_gate: --time-tolerance needs a finite ratio >= 0\n{USAGE}"
                        );
                        return ExitCode::from(2);
                    }
                },
                Err(c) => return c,
            },
            "--out" => match take("--out") {
                Ok(p) => out = Some(PathBuf::from(p)),
                Err(c) => return c,
            },
            "--tiny" => {
                perf_cfg = PerfConfig::tiny();
                tiny = true;
            }
            "--bless" => bless = true,
            "--bless-append" => bless_append = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench_gate: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    assert!(
        hyperpath_bench::counting_allocator_installed(),
        "counting allocator must be live in the gate binary"
    );
    eprintln!("bench_gate: running perf suite...");
    let suite = run_perf_suite(&perf_cfg);
    let fresh = suite.to_json();

    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, fresh.render_pretty()) {
            eprintln!("bench_gate: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("bench_gate: wrote fresh artifact to {}", path.display());
    }

    if bless {
        if let Some(dir) = baseline_path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("bench_gate: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, fresh.render_pretty()) {
            eprintln!("bench_gate: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("blessed baseline: {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read baseline {}: {e}\n(run `bench_gate --bless` to create one)",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let mut baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_gate: baseline {} is not valid JSON: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    if bless_append {
        let added = match append_new_records(&mut baseline, &fresh) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&baseline_path, baseline.render_pretty()) {
            eprintln!("bench_gate: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        if added.is_empty() {
            println!("blessed baseline unchanged: no new benchmarks");
        } else {
            println!("appended {} new benchmark(s) to {}:", added.len(), baseline_path.display());
            for name in added {
                println!("  + {name}");
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    match compare(&baseline, &fresh, &cfg) {
        Ok(report) => {
            print!("{}", report.render());
            failed |= !report.passed();
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    }

    // Cross-record speedup floors (kernel vs scalar-reference pairs inside
    // the fresh run). Wall-clock based, so they obey the same switch that
    // disables the slowdown band: `--time-tolerance 0` = counters only.
    // The floors are calibrated against the full-size workloads; `--tiny`
    // runs sit an order of magnitude below that, where the measured ratio
    // is scheduler noise, so the tiny smoke skips them.
    if tiny && cfg.time_tolerance > 0.0 {
        println!("speedup floors skipped: --tiny workloads are below calibration size");
    } else if cfg.time_tolerance > 0.0 {
        match check_speedups(&fresh) {
            Ok(report) => {
                if report.time_checks > 0 || !report.passed() {
                    if report.passed() {
                        println!(
                            "speedup floors OK: {} kernel/reference pair(s)",
                            report.time_checks
                        );
                    } else {
                        print!("{}", report.render());
                    }
                }
                failed |= !report.passed();
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Memory-scaling pins on the fresh run: peak bytes are deterministic
    // counters, so these run unconditionally.
    match check_memory(&fresh) {
        Ok(report) => {
            if report.records_checked > 0 || !report.passed() {
                if report.passed() {
                    println!(
                        "memory pins OK: {} scale record(s), {} ceiling/trend check(s)",
                        report.records_checked, report.counters_checked
                    );
                } else {
                    print!("{}", report.render());
                }
            }
            failed |= !report.passed();
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
