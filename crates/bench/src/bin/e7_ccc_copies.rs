//! E7 — Theorem 3: n CCC copies at edge-congestion 2, plus the Section 5.3
//! ablations.
//!
//! `--json [PATH]` additionally writes both tables as a sweep artifact
//! (`BENCH_E7_CCC_COPIES.json` by default).

use hyperpath_bench::experiments::{
    butterfly_copies_table, ccc_copies_table, maybe_write_json, parse_cli_for, tables_output,
    CliAccepts,
};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!(
        "E7: Theorem 3 CCC copies in Q_(n+log n) (claim: congestion 2, dilation 1) + ablations\n"
    );
    let ccc = ccc_copies_table(&[4, 8, 16]);
    println!("{}", ccc.render());
    println!("Section 5.4 transfer — n butterfly copies via CCC (dilation 2, congestion ≤ 4):\n");
    let bf = butterfly_copies_table(&[4, 8]);
    println!("{}", bf.render());
    maybe_write_json(
        &tables_output("e7_ccc_copies", &[("ccc_copies", &ccc), ("butterfly_copies", &bf)]),
        &opts,
    );
}
