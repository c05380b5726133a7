//! Criterion benches: simulator throughput and IDA coding.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sim(c: &mut Criterion) {
    let t1 = hyperpath_core::cycles::theorem1(10).unwrap();
    c.bench_function("packet_sim_theorem1_n10_m40", |b| {
        b.iter(|| {
            hyperpath_sim::PacketSim::phase_workload(black_box(&t1.embedding), 40)
                .run(1_000_000, &mut hyperpath_sim::NopRecorder)
        })
    });
    let gray = hyperpath_core::baseline::gray_cycle_embedding(10);
    c.bench_function("packet_sim_gray_n10_m40", |b| {
        b.iter(|| {
            hyperpath_sim::PacketSim::phase_workload(black_box(&gray), 40)
                .run(1_000_000, &mut hyperpath_sim::NopRecorder)
        })
    });
    let ida = hyperpath_ida::Ida::new(8, 4);
    let msg = vec![0xabu8; 64 * 1024];
    c.bench_function("ida_disperse_64k_8of4", |b| b.iter(|| ida.disperse(black_box(&msg))));
    let shares = ida.disperse(&msg);
    c.bench_function("ida_reconstruct_64k_4shares", |b| {
        b.iter(|| ida.reconstruct(black_box(&shares[2..6])).unwrap())
    });
}

criterion_group!(benches, sim);
criterion_main!(benches);
