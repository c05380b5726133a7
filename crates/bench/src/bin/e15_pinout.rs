//! E15 — Section 1's constant-pinout comparison: a narrow-channel hypercube
//! simulating a wide-channel grid with O(1) slowdown, while crushing the
//! grid on low-diameter (tree) patterns.

use hyperpath_bench::experiments::{maybe_write_json, parse_cli_for, tables_output, CliAccepts};
use hyperpath_bench::Table;
use hyperpath_core::grids::grid_embedding;
use hyperpath_core::trees::theorem5;
use hyperpath_sim::{NopRecorder, PacketSim};

fn main() {
    let opts = parse_cli_for(CliAccepts::default());
    println!("E15: constant-pinout model — W = 64 pins per node, B = 512 bytes per neighbor.");
    println!("Grid: 4 channels of width W/4 → B/(W/4) steps per phase.");
    println!("Hypercube: 2a channels of width W/(2a) → more packets, but the width-⌊a/2⌋");
    println!("bundles ship ⌊a/2⌋+1 of them every 3 steps. Claim: O(1) slowdown for all sizes.\n");
    let mut t = Table::new(&[
        "a",
        "nodes",
        "grid phase",
        "cube phase (scheduled)",
        "slowdown",
        "cube tree-phase",
        "grid tree diameter",
    ]);
    let w_pins = 64u64;
    let b_bytes = 512u64;
    for a in [4u32, 6, 8] {
        let n_nodes = 1u64 << (2 * a);
        let grid_steps = b_bytes / (w_pins / 4);
        let packets = b_bytes / (w_pins / (2 * u64::from(a)));
        let g = grid_embedding(&[a, a], false).expect("torus");
        let free = PacketSim::phase_workload(&g.embedding, packets)
            .run(100_000_000, &mut NopRecorder)
            .makespan;
        let sched = g.cost * packets.div_ceil(g.width as u64 + 1);
        let cube_steps = free.min(sched);
        // Tree pattern: one CBT phase on the cube (O(1)-cost Theorem 5
        // embedding) vs the grid's diameter lower bound for root-leaf flows.
        let t5 = theorem5(a).expect("tree");
        let tree_steps =
            PacketSim::phase_workload(&t5.embedding, 4).run(100_000_000, &mut NopRecorder).makespan;
        let grid_diameter = 2 * ((1u64 << a) - 1);
        t.row(vec![
            a.to_string(),
            n_nodes.to_string(),
            grid_steps.to_string(),
            cube_steps.to_string(),
            format!("{:.2}x", cube_steps as f64 / grid_steps as f64),
            tree_steps.to_string(),
            grid_diameter.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Grid-phase slowdown stays a small constant as the machine grows (the paper's");
    println!("O(1)-slowdown claim); tree phases beat the grid's Ω(N)-diameter floor badly.");
    maybe_write_json(&tables_output("e15_pinout", &[("pinout", &t)]), &opts);
}
