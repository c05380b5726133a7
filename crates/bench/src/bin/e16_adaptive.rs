//! E16 — oracle-free adaptive delivery vs the omniscient oracle.
//!
//! `--trials N` sets the Monte-Carlo trial count per grid point (default
//! 100); `--json [PATH]` additionally writes the sweep artifact
//! (`BENCH_E16_ADAPTIVE.json` by default). Every grid point draws its
//! plans from its own ChaCha stream, so the artifact is byte-stable across
//! thread counts.
//!
//! Both protocols face the *same* randomized fault plan per trial. The
//! oracle's retry planner reads the plan's hazard set; the adaptive sender
//! learns path health only from ACK/NACK feedback on keyed tagged shares.
//! Against static fail-stop adversaries the `equal outcomes` column must
//! read 1.000 — the oracle's knowledge buys nothing there (pinned by
//! `tests/adaptive_conformance.rs`).

use hyperpath_bench::experiments::{e16_adaptive, maybe_write_json, parse_cli_for, CliAccepts};

fn main() {
    let opts = parse_cli_for(CliAccepts { trials: true, ..CliAccepts::default() });
    let trials = opts.trials.unwrap_or(100);
    println!("E16: oracle-free adaptive delivery vs the omniscient oracle ({trials} trials)");
    println!("Claim: ACK/NACK feedback + keyed tagged shares recover everything the");
    println!("fault-oracle pipeline recovers, without ever reading the fault set.\n");

    let (table, out) = e16_adaptive(&[8, 10], trials, 1616);
    println!("{}", table.render());
    println!("'equal outcomes' = trials where adaptive and oracle graded every guest");
    println!("edge identically; 'rejected' = shares that arrived but failed their");
    println!("keyed fingerprint (corruption observed as erasure); 'wrong bytes' = 0");
    println!("means no reconstruction ever silently produced a wrong message.");
    maybe_write_json(&out, &opts);
}
