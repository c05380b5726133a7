//! Quickstart: build the Theorem 1 multiple-path cycle embedding, validate
//! it, certify its cost, and watch the Θ(n) speedup in the simulator.
//!
//! Run with: `cargo run --example quickstart --release`

use hyperpath_suite::core::baseline::gray_cycle_embedding;
use hyperpath_suite::core::cycles::theorem1;
use hyperpath_suite::embedding::metrics::multi_path_metrics;
use hyperpath_suite::embedding::validate::validate_multi_path;
use hyperpath_suite::sim::{NopRecorder, PacketSim};

fn main() {
    let n = 10;
    println!("== hyperpath quickstart: the 2^{n}-node cycle in Q_{n} ==\n");

    // The classical Gray-code embedding (Figure 1): 1 of n links used.
    let gray = gray_cycle_embedding(n);
    let mg = multi_path_metrics(&gray);
    println!(
        "Gray code: dilation {}, congestion {}, {:.1}% of links used",
        mg.dilation,
        mg.congestion,
        100.0 * mg.utilization
    );

    // Theorem 1: every cycle edge widens to ⌊n/2⌋ edge-disjoint length-3
    // paths chosen via node moments; certified ⌊n/2⌋-packet cost 3.
    let t1 = theorem1(n).expect("construction is total for 4 <= n <= 19");
    validate_multi_path(&t1.embedding, t1.claimed_width, Some(1)).expect("machine-checked");
    let mt = multi_path_metrics(&t1.embedding);
    println!(
        "Theorem 1: width {} (claimed {}), load {}, certified {}-packet cost {}, {:.1}% links used",
        mt.width,
        t1.claimed_width,
        mt.load,
        t1.packets,
        t1.cost,
        100.0 * mt.utilization
    );

    // Race them: one phase with m packets per cycle edge.
    let m = 8 * u64::from(n);
    let g_steps = PacketSim::phase_workload(&gray, m).run(1_000_000, &mut NopRecorder).makespan;
    let t_steps =
        PacketSim::phase_workload(&t1.embedding, m).run(1_000_000, &mut NopRecorder).makespan;
    let sched = t1.cost * m.div_ceil(t1.packets);
    println!("\nOne phase, m = {m} packets per edge:");
    println!("  gray code:            {g_steps} steps");
    println!("  multipath (freerun):  {t_steps} steps");
    println!("  multipath (schedule): {sched} steps");
    println!("  speedup:              {:.2}x", g_steps as f64 / t_steps.min(sched) as f64);
}
