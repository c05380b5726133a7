//! E13 — Section 2's grid-relaxation speedup, and where the crossover falls.
//!
//! Per directed guest edge the classical embedding ships 1 packet/step on
//! its dedicated link; the width-w multiple-path embedding ships w packets
//! every 3 steps. The crossover is therefore at w = 3 (axis length 2^6),
//! and the speedup grows as w/3 = ⌊a/2⌋/3 = Θ(log N) beyond it — exactly
//! the paper's Θ(M/N) vs Θ(M/(N log N)) claim, constants included.

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::grids::grid_embedding;
use hyperpath_sim::{NopRecorder, PacketSim};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E13: 2-D torus relaxation phase (directed), M/N packets per edge\n");
    let mut t = Table::new(&[
        "a (side 2^a)",
        "host",
        "axis width",
        "M/N",
        "classical",
        "free-run",
        "scheduled",
        "speedup",
    ]);
    for a in [4u32, 6, 8] {
        let g = grid_embedding(&[a, a], false).expect("torus embedding");
        for ratio in [8u64, 32, 128] {
            if a == 8 && ratio > 32 {
                continue; // keep the big host quick
            }
            let classical = PacketSim::phase_workload_with_width(&g.embedding, ratio, 1)
                .run(100_000_000, &mut NopRecorder)
                .makespan;
            let wide = PacketSim::phase_workload(&g.embedding, ratio)
                .run(100_000_000, &mut NopRecorder)
                .makespan;
            let sched = g.cost * ratio.div_ceil(g.width as u64 + 1); // +1: direct path rides along
            let best = wide.min(sched);
            t.row(vec![
                a.to_string(),
                format!("Q_{}", 2 * a),
                g.width.to_string(),
                ratio.to_string(),
                classical.to_string(),
                wide.to_string(),
                sched.to_string(),
                format!("{:.2}x", classical as f64 / best as f64),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Crossover at width 3 (a = 6): below it the classical blocked mapping is");
    println!("competitive — as the paper itself concedes in Section 8.3 for small N.");
    maybe_write_json(&tables_output("e13_relaxation", &[("relaxation", &t)]), &opts);
}
