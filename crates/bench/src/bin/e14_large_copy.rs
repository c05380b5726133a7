//! E14 — Corollary 3 and Lemma 9: large-copy embeddings.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E14_LARGE_COPY.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::large_copy::{large_copy_ccc_like, large_copy_cycle, CcLike};
use hyperpath_embedding::metrics::multi_path_metrics;
use hyperpath_embedding::validate::validate_multi_path;

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!(
        "E14: large-copy embeddings (claims: cycle dil 1/cong 1; CCC cong 1; FFT/BF cong 2)\n"
    );
    let mut t = Table::new(&[
        "guest",
        "n",
        "vertices",
        "load",
        "dilation",
        "congestion",
        "utilization",
        "valid",
    ]);
    for n in [4u32, 6, 8] {
        let e = large_copy_cycle(n).expect("Corollary 3");
        let m = multi_path_metrics(&e);
        let ok = validate_multi_path(&e, 1, Some(n as usize)).is_ok();
        t.row(vec![
            format!("C_{}", e.guest.num_vertices()),
            n.to_string(),
            e.guest.num_vertices().to_string(),
            m.load.to_string(),
            m.dilation.to_string(),
            m.congestion.to_string(),
            format!("{:.2}", m.utilization),
            ok.to_string(),
        ]);
    }
    for kind in [CcLike::Ccc, CcLike::Butterfly, CcLike::Fft] {
        for n in [4u32, 6] {
            let e = large_copy_ccc_like(kind, n).expect("Lemma 9");
            let m = multi_path_metrics(&e);
            let ok = validate_multi_path(&e, 1, Some(n as usize + 1)).is_ok();
            t.row(vec![
                e.guest.name().to_string(),
                n.to_string(),
                e.guest.num_vertices().to_string(),
                m.load.to_string(),
                m.dilation.to_string(),
                m.congestion.to_string(),
                format!("{:.2}", m.utilization),
                ok.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    maybe_write_json(&tables_output("e14_large_copy", &[("large_copy", &t)]), &opts);
}
