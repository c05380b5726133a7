//! E19 — multi-tenant saturation on the shared implicit host.
//!
//! Sweeps the number of tenants sharing one implicit `Q_20` host (1M
//! nodes, never materialized): each tenant embeds a guest — Theorem 1
//! cycle, Theorem 2 load-2 cycle, Gray-coded grid, or binomial spanning
//! tree — into a `Q_8` window, and the `sim::tenants` engine runs ledger
//! admission, congestion-aware path-subset selection down to the IDA
//! threshold, and batched packet-engine phases per window group.
//!
//! Counts above 4 pile tenants into shared windows, so the sweep walks
//! from an uncontended host to ledger saturation. `--threads N` pins the
//! worker pool for the round-parallel group phases; `--json [PATH]`
//! additionally writes the sweep artifact (`BENCH_E19_SATURATION.json` by
//! default). The artifact is byte-identical at any `--threads` /
//! `RAYON_NUM_THREADS` value (CI's determinism manifest compares runs
//! at 1, 2, 3 and 4 workers).

use hyperpath_bench::experiments::{
    e19_saturation_with_threads, maybe_write_json, parse_cli_for, CliAccepts,
};

fn main() {
    let opts = parse_cli_for(CliAccepts { seed: true, threads: true, ..CliAccepts::default() });
    let seed = opts.seed.unwrap_or(1990);
    let counts = [2u32, 4, 6, 8, 10, 12];
    println!("E19: multi-tenant saturation on a shared implicit Q_20 host");
    println!("Tenants (cycles, grids, trees) admit width-w bundles through a link ledger");
    println!("at capacity 2; contended requests degrade to the IDA threshold or requeue.\n");

    let (table, out) = e19_saturation_with_threads(&counts, seed, opts.threads);
    println!("{}", table.render());
    println!("'tput' = delivered messages per machine step; 'jain' = Jain fairness index");
    println!("over per-tenant deliveries; 'cong' = measured max cumulative link load vs");
    println!("'bound' = the counting lower bound \u{2308}slots / (n \u{b7} 2^(n-1))\u{2309}, gap = cong - bound.");
    maybe_write_json(&out, &opts);
}
