//! E8 — Theorem 4: the multiple-copy → multiple-path transformation.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E8_INDUCED.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::baseline::multi_copy_cycles;
use hyperpath_core::ccc_copies::butterfly_multi_copy;
use hyperpath_core::induced::theorem4;
use hyperpath_embedding::validate::validate_multi_path;

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E8: Theorem 4 — X(G) in Q_2n with width n, n-packet cost c + 2δ\n");
    let mut t = Table::new(&[
        "G",
        "n",
        "host",
        "width",
        "packets",
        "claimed c+2δ",
        "certified cost",
        "natural?",
    ]);
    for n in [4u32, 6, 8] {
        let copies = multi_copy_cycles(n).expect("Lemma 1");
        let (x, claimed) = theorem4(&copies).expect("transformation");
        validate_multi_path(&x.embedding, n as usize, Some(1)).expect("validation");
        t.row(vec![
            format!("C_{}", 1u64 << n),
            n.to_string(),
            format!("Q_{}", 2 * n),
            n.to_string(),
            x.packets.to_string(),
            claimed.to_string(),
            x.cost.to_string(),
            x.natural_schedule_ok.to_string(),
        ]);
    }
    for m in [2u32, 4] {
        let copies = butterfly_multi_copy(m).expect("Section 5.4");
        let n = copies.host.dims();
        let (x, claimed) = theorem4(&copies).expect("transformation");
        validate_multi_path(&x.embedding, n as usize, Some(1)).expect("validation");
        t.row(vec![
            format!("BF_{m}"),
            n.to_string(),
            format!("Q_{}", 2 * n),
            n.to_string(),
            x.packets.to_string(),
            claimed.to_string(),
            x.cost.to_string(),
            x.natural_schedule_ok.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Cycles: c=1, δ=1 → cost 3, exactly as Theorem 1 (power-of-two n certify naturally).");
    println!(
        "Butterflies: dilation-2 copies and non-power-of-two n cost a few extra steps (measured)."
    );
    maybe_write_json(&tables_output("e8_induced", &[("theorem4", &t)]), &opts);
}
