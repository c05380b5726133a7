//! E9 — Theorem 5 and Section 6.2: binary tree embeddings.
//!
//! `--json [PATH]` additionally writes both tables as a sweep artifact
//! (`BENCH_E9_TREES.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::trees::{arbitrary_tree, cbt_naive_widened, theorem5};
use hyperpath_embedding::metrics::multi_path_metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E9a: Theorem 5 — CBT_(2n) in Q_2n (claim: width n, O(1) load, O(1) cost)\n");
    let mut t = Table::new(&["n", "host", "tree", "width", "load", "cost", "naive-ablation cost"]);
    for n in [2u32, 3, 4, 5, 6] {
        let r = theorem5(n).expect("construction");
        let m = multi_path_metrics(&r.embedding);
        let naive = cbt_naive_widened(2 * n).expect("ablation");
        t.row(vec![
            n.to_string(),
            format!("Q_{}", 2 * n),
            format!("CBT_{}", 2 * n),
            r.width.to_string(),
            m.load.to_string(),
            r.cost.to_string(),
            naive.cost.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("The naive single-cube widening is exactly linear (5L-4); the two-factor layout");
    println!("stays far below it. Residual growth reflects our substitute for the paper's [4]");
    println!("black box (random automorph collisions) — discussed in EXPERIMENTS.md.\n");

    println!("E9b: Section 6.2 — arbitrary binary trees (claim: cost O(log n))\n");
    let mut t2 = Table::new(&["tree size", "CBT levels", "width", "cost", "cost/levels"]);
    let mut rng = StdRng::seed_from_u64(2026);
    for size in [15u32, 63, 255, 1023] {
        let tree = hyperpath_guests::random_binary_tree(size, &mut rng);
        let r = arbitrary_tree(&tree).expect("construction");
        let levels = 32 - size.leading_zeros();
        t2.row(vec![
            size.to_string(),
            levels.to_string(),
            r.width.to_string(),
            r.cost.to_string(),
            format!("{:.1}", r.cost as f64 / f64::from(levels)),
        ]);
    }
    println!("{}", t2.render());
    maybe_write_json(
        &tables_output("e9_trees", &[("theorem5", &t), ("arbitrary_trees", &t2)]),
        &opts,
    );
}
