//! E5 — Corollary 1: multi-dimensional grid/torus embeddings.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E5_GRIDS.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::grids::grid_embedding;
use hyperpath_embedding::metrics::multi_path_metrics;

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E5: Corollary 1 — k-axis tori with sides 2^a (claim: width ⌊a/2⌋, cost 3, expansion ≤ k+1)\n");
    let mut t = Table::new(&[
        "axes (log2 sides)",
        "host dims",
        "width",
        "cost",
        "expansion",
        "dirs",
        "load",
    ]);
    let cases: Vec<(Vec<u32>, bool)> = vec![
        (vec![4, 4], false),
        (vec![4, 4], true),
        (vec![5, 5], false),
        (vec![4, 4, 4], false),
        (vec![5, 4], false),
        (vec![3, 3, 3, 3], false),
        (vec![6, 6], false),
    ];
    for (axes, bidir) in cases {
        let g = grid_embedding(&axes, bidir).expect("construction");
        let m = multi_path_metrics(&g.embedding);
        t.row(vec![
            format!("{axes:?}"),
            g.embedding.host.dims().to_string(),
            g.width.to_string(),
            g.cost.to_string(),
            format!("{:.2}", m.expansion),
            if bidir { "both".into() } else { "fwd".into() },
            m.load.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Directed tori certify cost 3 (the paper's claim); bidirectional phases double it");
    println!("(both directions' first edges contend — measured, see grids.rs docs).");
    maybe_write_json(&tables_output("e5_grids", &[("grids", &t)]), &opts);
}
