//! E18 — structural fault estimators at million-node scale.
//!
//! Re-runs the E12 structural columns (`gray_w1` / `struct_k1` /
//! `struct_k_half`) on the implicit host layer, where nothing `O(n·2^n)`
//! is ever allocated: Theorem 1 bundles come from a closed-form
//! [`hyperpath_topology::Theorem1Plan`] and fault trials are recomputed
//! per link from a seed, so `n = 20` (1M nodes) runs in megabytes.
//!
//! `--dims N[,N...]` picks the dimensions (default `8,12,16,20`);
//! `--trials N` the Monte-Carlo trials per grid point (default 128);
//! `--json [PATH]` additionally writes the sweep artifact
//! (`BENCH_E18_SCALE.json` by default). Block seeds are drawn serially
//! per grid point and all folds commute, so the artifact is
//! byte-identical at any `RAYON_NUM_THREADS` (CI's determinism manifest
//! compares two runs).

use hyperpath_bench::experiments::{e18_scale, maybe_write_json, parse_cli_with};

fn main() {
    let opts = parse_cli_with(true, true);
    let trials = opts.trials.unwrap_or(128);
    let dims = opts.dims.clone().unwrap_or_else(|| vec![8, 12, 16, 20]);
    println!("E18: structural delivery estimators on the implicit host ({trials} trials)");
    println!("Claim (Theorem 1): width-⌊n/2⌋ bundles survive faults that kill single paths,");
    println!("evaluated here without materializing the embedding (n = 20 is 1M nodes).\n");

    let (table, out) = e18_scale(&dims, trials, 1807);
    println!("{}", table.render());
    println!("'gray (w=1)' = trials where every Gray-cycle guest edge's single host link");
    println!("survives; 'struct k' = trials where every Theorem-1 bundle keeps >= k");
    println!("fault-free paths (k = \u{2308}w/2\u{2309} is the IDA reconstruction threshold).");
    maybe_write_json(&out, &opts);
}
