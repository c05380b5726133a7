//! E10 — Section 7: wormhole routing of M-packet permutations; single path
//! vs n-way CCC-copy splitting.
//!
//! Each `(n, M)` point routes a random permutation, then bit reversal,
//! then transpose (the classic worst cases for e-cube routing).
//!
//! `--json [PATH]` additionally writes the sweep artifact
//! (`BENCH_E10_WORMHOLE.json` by default). Every random point draws its
//! permutation from its own ChaCha stream, so the artifact is byte-stable
//! across thread counts.

use hyperpath_bench::experiments::{e10_wormhole, maybe_write_json, parse_cli_for, CliAccepts};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E10: M-flit permutation routing, wormhole mode (Section 7)");
    println!("Claim: single-path completion grows ~ n·M under contention; splitting each");
    println!("message across the n CCC copies completes in O(M).\n");
    let (table, out) = e10_wormhole(&[4, 8], 7);
    println!("{}", table.render());
    maybe_write_json(&out, &opts);
}
