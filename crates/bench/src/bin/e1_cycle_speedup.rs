//! E1 — Section 2 illustration: m-packet cycle communication.
//!
//! Paper claim: the classical Gray-code embedding needs ≥ m/2 steps (and
//! realizes m); the multiple-path embedding needs Θ(m/n). We simulate one
//! phase of the 2^n-cycle with m packets per edge under both embeddings.
//!
//! `--json [PATH]` additionally writes the sweep artifact
//! (`BENCH_E1_CYCLE_SPEEDUP.json` by default).

use hyperpath_bench::experiments::{e1_cycle_speedup, maybe_write_json, parse_cli_for, CliAccepts};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E1: m-packet cycle phase, Gray code vs Theorem 1 (Section 2)\n");
    let (table, out) = e1_cycle_speedup(&[6, 8, 10, 12, 14]);
    println!("{}", table.render());
    println!(
        "Expectation: gray = m exactly; multipath ≈ 3m/⌊n/2⌋ + O(1); speedup grows ~linearly in n."
    );
    maybe_write_json(&out, &opts);
}
