//! E4 — Lemma 3: the width/cost counting bound, and Theorem 2's optimality.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E4_LOWER_BOUND.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::bounds::{max_width_for_cost3, verify_lemma3_counting};
use hyperpath_core::cycles::{theorem2, Theorem2Variant};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E4: Lemma 3 counting bound vs achieved widths (load-2 cycles, cost 3)\n");
    let mut t = Table::new(&["n", "bound ⌊n/2⌋", "counting bound", "achieved (cost-3)", "tight?"]);
    for n in 4..=13u32 {
        let r = theorem2(n, Theorem2Variant::Cost3).expect("construction");
        verify_lemma3_counting(n, r.claimed_width as u32, r.cost).expect("bound respected");
        let bound = max_width_for_cost3(n);
        t.row(vec![
            n.to_string(),
            (n / 2).to_string(),
            bound.to_string(),
            r.claimed_width.to_string(),
            (r.claimed_width as u32 == bound).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("n ≡ 0 (mod 4): achieved = counting bound (optimal). Odd n: the printed counting");
    println!("argument leaves one unit of slack above ⌊n/2⌋ (see bounds.rs docs).");
    maybe_write_json(&tables_output("e4_lower_bound", &[("lemma3", &t)]), &opts);
}
