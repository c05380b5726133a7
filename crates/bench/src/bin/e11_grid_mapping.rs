//! E11 — Section 8.3: three ways to map a large grid relaxation.
//!
//! `--json [PATH]` additionally writes the table as a sweep artifact
//! (`BENCH_E11_GRID_MAPPING.json` by default).

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::grids::grid_embedding;
use hyperpath_core::large_copy::large_copy_cycle;
use hyperpath_sim::{NopRecorder, PacketSim};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E11: Section 8.3 — mapping an M×M grid onto N²=2^(2a) processors");
    println!("Approach 1: point-per-process large-copy; Approach 2: blocked multiple-path;");
    println!("Approach 3: blocked large-copy with log N × more processes.\n");
    let mut t = Table::new(&[
        "a (N=2^a)",
        "M/N",
        "total traffic 1",
        "traffic 2",
        "traffic 3",
        "phase steps (2)",
    ]);
    for a in [2u32, 3, 4] {
        for ratio in [4u64, 16, 64] {
            let m_side = (1u64 << a) * ratio;
            // Traffic: boundary exchanges per phase (grid points sent).
            let t1_traffic = 4 * m_side * m_side; // every point to a neighbor processor (worst case)
            let t2_traffic = 4 * m_side * (1u64 << a); // O(M N): block boundaries
            let logn = u64::from(a);
            let t3_traffic = 4 * m_side * (1u64 << a) * logn.max(1); // O(M N log N)
                                                                     // Phase time under approach 2: the 2a-dim torus embedding ships
                                                                     // M/N boundary packets per edge.
            let g = grid_embedding(&[a, a], true).expect("torus");
            let steps = PacketSim::phase_workload(&g.embedding, ratio)
                .run(10_000_000, &mut NopRecorder)
                .makespan;
            // Approach 1 sanity: the large-copy cycle exists (its per-phase
            // step count is 1 packet/edge by construction).
            let _ = large_copy_cycle(2 * a).expect("large copy");
            t.row(vec![
                a.to_string(),
                ratio.to_string(),
                t1_traffic.to_string(),
                t2_traffic.to_string(),
                t3_traffic.to_string(),
                steps.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Traffic ratios follow the paper: O(M²) vs O(MN) vs O(MN log N) — the blocked");
    println!("multiple-path mapping minimizes total communication.");
    maybe_write_json(&tables_output("e11_grid_mapping", &[("mappings", &t)]), &opts);
}
