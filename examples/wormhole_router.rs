//! Section 7's bit-serial routing: route a random permutation of M-flit
//! messages, either as one worm per message or split across the n CCC
//! copies of Theorem 3.
//!
//! Run with: `cargo run --example wormhole_router --release`

use hyperpath_suite::core::ccc_copies::ccc_multi_copy;
use hyperpath_suite::sim::routing::{ecube_path, random_permutation, CccRouter};
use hyperpath_suite::sim::{NopRecorder, WormholeSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 8u32; // CCC stages; host Q_11
    let m_flits = 128u64;
    let copies = ccc_multi_copy(n).expect("Theorem 3");
    let host = copies.multi_copy.host;
    let router = CccRouter::new(&copies);
    let mut rng = StdRng::seed_from_u64(13);
    let perm = random_permutation(&host, &mut rng);
    println!("== wormhole permutation routing on Q_{}, {m_flits}-flit messages ==\n", host.dims());

    let mut single = WormholeSim::new(host);
    let mut split = WormholeSim::new(host);
    for (src, &dst) in perm.iter().enumerate() {
        let src = src as u64;
        if src == dst {
            continue;
        }
        single.add_worm(&ecube_path(src, dst), m_flits);
        for route in router.routes(src, dst) {
            split.add_worm(&route, (m_flits / u64::from(n)).max(1));
        }
    }
    let r1 = single.run(100_000_000, &mut NopRecorder);
    let r2 = split.run(100_000_000, &mut NopRecorder);
    println!("single worm per message : makespan {r1}");
    println!("split across {n} CCC copies: makespan {r2} ({:.2}x)", r1 as f64 / r2 as f64);
    println!("\nSplitting bounds each worm's length by M/n flits, so blocked links clear");
    println!("n times faster — the O(M) completion the paper argues for.");
}
