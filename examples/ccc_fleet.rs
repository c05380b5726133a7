//! Theorem 3 up close: n independent CCC "virtual machines" time-sharing
//! one hypercube with edge-congestion 2 — every copy runs a full pipeline
//! phase simultaneously with at most 2x slowdown.
//!
//! Run with: `cargo run --example ccc_fleet --release`

use hyperpath_suite::core::ccc_copies::ccc_multi_copy;
use hyperpath_suite::embedding::metrics::multi_copy_metrics;
use hyperpath_suite::sim::{NopRecorder, PacketSim};

fn main() {
    let n = 8u32;
    let fleet = ccc_multi_copy(n).expect("Theorem 3");
    let m = multi_copy_metrics(&fleet.multi_copy);
    println!(
        "== {} CCC_{} copies in Q_{} ==",
        fleet.multi_copy.num_copies(),
        n,
        fleet.multi_copy.host.dims()
    );
    println!(
        "dilation {}, edge congestion {} (the theorem's bound, exactly)\n",
        m.dilation, m.edge_congestion
    );

    // One phase: every CCC vertex sends a packet along its straight and
    // cross edges, in every copy at once.
    let mut sim = PacketSim::new(fleet.multi_copy.host);
    for copy in &fleet.multi_copy.copies {
        for path in &copy.edge_paths {
            sim.add_flow(path.nodes(), 1);
        }
    }
    let r = sim.run(1_000_000, &mut NopRecorder);
    println!("one full phase of ALL {} copies simultaneously:", fleet.multi_copy.num_copies());
    println!("  makespan {} steps (congestion-2 bound: 2)", r.makespan);
    println!(
        "  {} packets delivered, mean link utilization {:.1}%",
        r.delivered,
        100.0 * r.mean_utilization
    );
}
