//! E2 — Theorem 1: width-⌊n/2⌋ load-1 cycle embeddings, certified cost 3.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E2_THEOREM1.json` by default).

use hyperpath_bench::experiments::{
    maybe_write_json, parse_cli_for, tables_output, theorem1_table, CliAccepts,
};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E2: Theorem 1 across n (claim: width ⌊n/2⌋, ⌊n/2⌋-packet cost 3, load 1)\n");
    let t = theorem1_table(4..=16);
    println!("{}", t.render());
    println!("Cost 3 whenever 2⌊n/4⌋ is a power of two (the paper's implicit assumption);");
    println!("n=12..15 (2k=6) certify cost 4 via the phase-aligned scheduler — see DESIGN.md.");
    maybe_write_json(&tables_output("e2_theorem1", &[("theorem1", &t)]), &opts);
}
