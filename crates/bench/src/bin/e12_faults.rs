//! E12 — fault tolerance: width-w bundles + (w,k) IDA vs a single path.
//!
//! `--trials N` sets the Monte-Carlo trial count per grid point (default
//! 200); `--dims N[,N...]` picks the dimensions to sweep (default `8,10`;
//! this binary materializes embeddings, so it is for `n <= 12` — use
//! `e18_scale` beyond that); `--json [PATH]` additionally writes the sweep
//! artifact (`BENCH_E12_FAULTS.json` by default). Every grid point draws
//! its faults from its own ChaCha stream, so the artifact is byte-stable
//! across thread counts.
//!
//! The `struct` columns count surviving paths combinatorially; the `sim`
//! columns grade one IDA dispersal phase per trial (threshold `⌈w/2⌉`,
//! without and with retries) by the fail-stop closed form — static
//! fail-stop faults deliver a share iff its path is fault-free, so the
//! grade follows from path survival without running the packet engine,
//! and `tests/fastpath_conformance.rs` pins the closed form equal to the
//! engine lane by lane. Both are evaluated against the *same* fault draw
//! per trial, 256 trials per kernel word.

use hyperpath_bench::experiments::{e12_faults, ida_sanity_line, maybe_write_json, parse_cli_with};

fn main() {
    let opts = parse_cli_with(true, true);
    let trials = opts.trials.unwrap_or(200);
    let dims = opts.dims.clone().unwrap_or_else(|| vec![8, 10]);
    println!("E12: phase delivery probability under link faults (Monte-Carlo, {trials} trials)");
    println!("Claim (Sections 1-2): w edge-disjoint paths + Rabin IDA tolerate link faults.\n");

    // Demonstrate the IDA machinery end to end once.
    println!("{}\n", ida_sanity_line());

    let (table, out) = e12_faults(&dims, trials, 99);
    println!("{}", table.render());
    println!("'struct k' = trials where every bundle keeps >= k fault-free paths;");
    println!("'sim' = shares routed through the faulty machine and IDA-reconstructed");
    println!("(k = \u{2308}w/2\u{2309}), without / with retries over the surviving paths.");
    maybe_write_json(&out, &opts);
}
