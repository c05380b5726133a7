//! Cross-crate integration tests: every theorem's output drives the
//! simulator and the measured step counts agree with the certified costs.

use hyperpath_suite::core::baseline::{gray_cycle_embedding, multi_copy_cycles};
use hyperpath_suite::core::bounds::verify_lemma3_counting;
use hyperpath_suite::core::ccc_copies::ccc_multi_copy;
use hyperpath_suite::core::cycles::{theorem1, theorem2, Theorem2Variant};
use hyperpath_suite::core::grids::grid_embedding;
use hyperpath_suite::core::induced::theorem4;
use hyperpath_suite::core::large_copy::large_copy_cycle;
use hyperpath_suite::core::trees::theorem5;
use hyperpath_suite::embedding::metrics::{multi_copy_metrics, multi_path_metrics};
use hyperpath_suite::embedding::validate::{validate_multi_copy, validate_multi_path};
use hyperpath_suite::ida::Ida;
use hyperpath_suite::sim::faults::{random_fault_set, surviving_paths};
use hyperpath_suite::sim::{NopRecorder, PacketSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The certified schedule is executable: driving the simulator with one
/// batch of `packets` per edge finishes within the certified cost.
#[test]
fn certified_cost_is_achieved_in_simulation() {
    for n in [8u32, 9] {
        let t1 = theorem1(n).unwrap();
        // One batch: `packets` packets per edge over the bundle.
        let r =
            PacketSim::phase_workload(&t1.embedding, t1.packets).run(1_000_000, &mut NopRecorder);
        // Free-running may reorder across step classes, but a single batch
        // stays within a small factor of the certified cost.
        assert!(
            r.makespan <= 2 * t1.cost + 2,
            "n={n}: simulated batch took {} vs certified {}",
            r.makespan,
            t1.cost
        );
    }
}

#[test]
fn theorem1_against_gray_end_to_end() {
    let n = 10u32;
    let m = 80u64;
    let gray = gray_cycle_embedding(n);
    let t1 = theorem1(n).unwrap();
    let g = PacketSim::phase_workload(&gray, m).run(1_000_000, &mut NopRecorder).makespan;
    let w = PacketSim::phase_workload(&t1.embedding, m).run(1_000_000, &mut NopRecorder).makespan;
    let sched = t1.cost * m.div_ceil(t1.packets);
    assert_eq!(g, m);
    assert!(w.min(sched) * 3 < m * 2, "multipath must clearly win at n=10");
}

#[test]
fn theorem2_respects_lemma3_and_simulates() {
    for n in [8u32, 10] {
        let t2 = theorem2(n, Theorem2Variant::Cost3).unwrap();
        verify_lemma3_counting(n, t2.claimed_width as u32, t2.cost).unwrap();
        validate_multi_path(&t2.embedding, t2.claimed_width, Some(2)).unwrap();
        let r = PacketSim::phase_workload(&t2.embedding, t2.claimed_width as u64)
            .run(1_000_000, &mut NopRecorder);
        assert!(r.makespan <= 2 * t2.cost + 2, "n={n}: {} vs {}", r.makespan, t2.cost);
    }
}

#[test]
fn lemma1_copies_fill_the_cube() {
    let mc = multi_copy_cycles(8).unwrap();
    validate_multi_copy(&mc).unwrap();
    let m = multi_copy_metrics(&mc);
    assert_eq!((m.copies, m.dilation, m.edge_congestion), (8, 1, 1));
    assert!((m.utilization - 1.0).abs() < 1e-12);
}

#[test]
fn ccc_fleet_phase_takes_two_steps() {
    let fleet = ccc_multi_copy(8).unwrap();
    let m = multi_copy_metrics(&fleet.multi_copy);
    assert_eq!(m.edge_congestion, 2);
    let mut sim = PacketSim::new(fleet.multi_copy.host);
    for copy in &fleet.multi_copy.copies {
        for path in &copy.edge_paths {
            sim.add_flow(path.nodes(), 1);
        }
    }
    let r = sim.run(1_000, &mut NopRecorder);
    assert_eq!(r.makespan, 2, "congestion 2 = two steps for a full fleet phase");
}

#[test]
fn theorem4_reproduces_theorem1_shape() {
    let copies = multi_copy_cycles(4).unwrap();
    let (x, claimed) = theorem4(&copies).unwrap();
    assert_eq!((x.cost, claimed), (3, 3));
    let r = PacketSim::phase_workload(&x.embedding, 4).run(100_000, &mut NopRecorder);
    assert!(r.makespan <= 8);
}

#[test]
fn grids_compose_and_run() {
    let g = grid_embedding(&[4, 4], false).unwrap();
    assert_eq!(g.cost, 3);
    let m = multi_path_metrics(&g.embedding);
    assert_eq!(m.load, 1);
    let r = PacketSim::phase_workload(&g.embedding, 6).run(100_000, &mut NopRecorder);
    assert!(r.makespan <= 12);
}

#[test]
fn tree_embedding_phase_is_constant_cost() {
    let t5 = theorem5(4).unwrap();
    let m = multi_path_metrics(&t5.embedding);
    assert_eq!(m.load, 1);
    let r =
        PacketSim::phase_workload(&t5.embedding, t5.width as u64).run(100_000, &mut NopRecorder);
    assert!(r.makespan <= 2 * t5.cost, "{} vs {}", r.makespan, t5.cost);
}

#[test]
fn large_copy_cycle_saturates_links() {
    let e = large_copy_cycle(8).unwrap();
    let r = PacketSim::phase_workload(&e, 1).run(1_000, &mut NopRecorder);
    assert_eq!(r.makespan, 1, "dilation 1, congestion 1: a phase is one step");
    assert!((r.mean_utilization - 1.0).abs() < 1e-12, "every link busy");
}

#[test]
fn ida_over_faulty_multipaths_end_to_end() {
    let t1 = theorem1(8).unwrap();
    let w = t1.embedding.edge_paths[0].len() as u8;
    let ida = Ida::new(w, w / 2);
    let message: Vec<u8> = (0..2048u32).map(|i| (i % 256) as u8).collect();
    let shares = ida.disperse(&message);
    let mut rng = StdRng::seed_from_u64(17);
    let faults = random_fault_set(&t1.embedding.host, 0.02, &mut rng);
    let alive = surviving_paths(&t1.embedding, &faults);
    // Reconstruct guest edge 0's message from its surviving shares.
    let ok: Vec<_> = t1.embedding.edge_paths[0]
        .iter()
        .enumerate()
        .filter(|(_, p)| p.edges().all(|e| !faults.is_failed(&t1.embedding.host, e)))
        .map(|(i, _)| shares[i].clone())
        .collect();
    assert_eq!(ok.len(), alive[0]);
    if ok.len() >= usize::from(w / 2) {
        assert_eq!(ida.reconstruct(&ok).unwrap(), message);
    }
}
