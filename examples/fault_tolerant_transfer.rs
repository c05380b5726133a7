//! Fault-tolerant bulk transfer (Sections 1-2): disperse a message with
//! Rabin's IDA across the edge-disjoint paths of a width-w bundle, kill
//! random links, and reconstruct from the surviving shares — first
//! structurally (which paths survive on paper), then for real: the whole
//! phase driven through the faulty simulated machine with a retry round
//! (`sim::delivery`).
//!
//! Run with: `cargo run --example fault_tolerant_transfer --release`

use hyperpath_suite::core::cycles::theorem1;
use hyperpath_suite::ida::Ida;
use hyperpath_suite::sim::delivery::{deliver_phase_plan, DeliveryConfig};
use hyperpath_suite::sim::faults::{random_fault_set, surviving_paths, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 10u32;
    let t1 = theorem1(n).expect("embedding");
    let w = t1.embedding.edge_paths[0].len() as u8; // paths of guest edge 0
    let k = w / 2;
    let ida = Ida::new(w, k);
    println!("== fault-tolerant transfer over {w} edge-disjoint paths, IDA({w},{k}) ==\n");

    let message: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let shares = ida.disperse(&message);
    println!(
        "message: {} bytes -> {} shares of {} bytes (overhead {:.2}x)",
        message.len(),
        shares.len(),
        shares[0].data.len(),
        ida.overhead()
    );

    let mut rng = StdRng::seed_from_u64(41);
    for p in [0.01f64, 0.05, 0.15] {
        let faults = random_fault_set(&t1.embedding.host, p, &mut rng);
        let alive = surviving_paths(&t1.embedding, &faults)[0];
        // Shares whose path survived:
        let ok_shares: Vec<_> = t1.embedding.edge_paths[0]
            .iter()
            .enumerate()
            .filter(|(_, path)| path.edges().all(|e| !faults.is_failed(&t1.embedding.host, e)))
            .map(|(i, _)| shares[i].clone())
            .collect();
        print!("p = {p:<5} | {} dead links | {alive}/{w} paths alive | ", faults.count() / 2);
        if ok_shares.len() >= usize::from(k) {
            let rec = ida.reconstruct(&ok_shares).expect("enough shares");
            println!("reconstructed: {}", rec == message);
        } else {
            println!("LOST (fewer than k = {k} shares survived)");
        }
    }

    // Now for real: every guest edge's message dispersed, each share
    // routed as a packet down its own disjoint path through the faulty
    // machine, reconstructed at the destination, lost shares re-sent over
    // the surviving paths.
    println!("\n== full phase on the simulated machine (k = {k}, one retry round) ==\n");
    let cfg = DeliveryConfig { threshold: usize::from(k), max_retries: 1, message_len: 64 };
    for p in [0.01f64, 0.05, 0.15] {
        let faults = random_fault_set(&t1.embedding.host, p, &mut rng);
        let r = deliver_phase_plan(&t1.embedding, &FaultPlan::from_set(faults), &cfg);
        println!(
            "p = {p:<5} | {:>3} shares dropped in flight | messages: {} delivered, \
             {} degraded (retry saved them), {} lost of {} | {} shares re-sent",
            r.initial.lost,
            r.delivered,
            r.degraded,
            r.lost,
            r.edges.len(),
            r.shares_resent
        );
    }
}
