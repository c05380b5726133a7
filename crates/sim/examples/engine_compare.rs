//! Compares the production packet engine against the reference engine on a
//! contended Theorem 1 workload: asserts bit-identical reports and prints
//! the wall-clock ratio.
//!
//! ```sh
//! cargo run --release -p hyperpath-sim --example engine_compare
//! ```

use hyperpath_core::cycles::theorem1;
use hyperpath_sim::{NopRecorder, PacketSim};
use std::time::Instant;

fn main() {
    for (n, m) in [(8u32, 64u64), (10, 128), (12, 128)] {
        let e = theorem1(n).unwrap().embedding;
        let sim = PacketSim::phase_workload(&e, m);
        let t0 = Instant::now();
        let new = sim.run(1_000_000, &mut NopRecorder);
        let t_new = t0.elapsed();
        let t0 = Instant::now();
        let reference = sim.run_reference(1_000_000);
        let t_ref = t0.elapsed();
        assert_eq!(new, reference, "engines must agree bit for bit");
        println!(
            "n={n:2} m={m:3}: makespan {:5}  new {:>10.3?}  reference {:>10.3?}  ({:.2}x)",
            new.makespan,
            t_new,
            t_ref,
            t_ref.as_secs_f64() / t_new.as_secs_f64()
        );
    }
}
