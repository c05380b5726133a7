//! E3 — Theorem 2: load-2 embeddings and full link utilization.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E3_THEOREM2.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::cycles::{theorem2, Theorem2Variant};
use hyperpath_embedding::metrics::multi_path_metrics;

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E3: Theorem 2 across n and variants (claim table of Section 4.3)\n");
    let mut t = Table::new(&[
        "n",
        "n mod 4",
        "variant",
        "width",
        "cost",
        "load",
        "utilization",
        "hops=3|E_dir|?",
    ]);
    for n in 4..=13u32 {
        for (v, name) in
            [(Theorem2Variant::Cost3, "cost3"), (Theorem2Variant::FullWidth, "fullwidth")]
        {
            if n % 4 <= 1 && matches!(v, Theorem2Variant::FullWidth) {
                continue; // identical to cost3 for these residues
            }
            let r = theorem2(n, v).expect("construction");
            let m = multi_path_metrics(&r.embedding);
            let host = r.embedding.host;
            let hops: usize = r.embedding.all_paths().map(|(_, _, p)| p.len()).sum();
            t.row(vec![
                n.to_string(),
                (n % 4).to_string(),
                name.into(),
                r.claimed_width.to_string(),
                r.cost.to_string(),
                m.load.to_string(),
                format!("{:.3}", m.utilization),
                (hops as u64 == 3 * host.num_directed_edges()).to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("n ≡ 0 (mod 4): utilization 1.0 and exactly 3·|directed links| path-hops —");
    println!("every link busy in every one of the 3 steps, as the paper claims.");
    maybe_write_json(&tables_output("e3_theorem2", &[("theorem2", &t)]), &opts);
}
