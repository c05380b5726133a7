//! E21 — chaos-hardened multi-tenant service under random fault plans.
//!
//! Sweeps a link-cut probability × tenant-count grid on a shared `Q_10`
//! host: each point draws a seed-pinned static fail-stop
//! `TenantFaultPlan`, then runs the fault-aware `sim::tenants` engine
//! with ledger-learned quarantine — batched packet-engine phases, ACK/
//! NACK health learning, congestion-aware re-routing down to the IDA
//! threshold, and the retry-with-backoff queue. Columns report delivery,
//! recoveries (with mean rounds-to-recover), losses, throughput, Jain
//! fairness, and quarantined links.
//!
//! `--threads N` pins the worker pool for the round-parallel group
//! phases; `--json [PATH]` additionally writes the sweep artifact
//! (`BENCH_E21_CHAOS_TENANTS.json` by default). The artifact is
//! byte-identical at any `--threads` / `RAYON_NUM_THREADS` value (CI's
//! determinism manifest compares runs at 1, 2, 3 and 4 workers).

use hyperpath_bench::experiments::{
    e21_chaos_tenants_with_threads, maybe_write_json, parse_cli_for, CliAccepts,
};

fn main() {
    let opts = parse_cli_for(CliAccepts { seed: true, threads: true, ..CliAccepts::default() });
    let seed = opts.seed.unwrap_or(1990);
    let rates = [0.0, 0.02, 0.05];
    let counts = [2u32, 4, 8];
    println!("E21: chaos-hardened multi-tenant service on a shared Q_10 host (seed {seed})");
    println!("Random link cuts at rate p; the ledger learns link health from phase ACK/NACKs,");
    println!("quarantines suspects with aged re-admission, and fault-failed tenants retry");
    println!("with bounded backoff instead of being dropped.\n");

    let (table, out) = e21_chaos_tenants_with_threads(&rates, &counts, seed, opts.threads);
    println!("{}", table.render());
    println!("'recovered' = messages delivered only via the retry-with-backoff queue;");
    println!("'recover' = mean rounds from first issue to eventual delivery; 'quar' =");
    println!("links the ledger quarantined; 'tput'/'jain' as in E19.");
    maybe_write_json(&out, &opts);
}
