//! Property tests for the simulators: empty-plan bit-identity, traced runs,
//! fail-stop guarantees and `surviving_paths` monotonicity. The engines'
//! oracle tests live in `hyperpath-bench` (`tests/engine_oracles.rs`).

use hyperpath_core::cycles::theorem1;
use hyperpath_sim::faults::{random_fault_set, surviving_paths};
use hyperpath_sim::routing::ecube_path;
use hyperpath_sim::{FaultPlan, NopRecorder, PacketSim, TraceRecorder, WormholeSim};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A node walk and the packets (or flits) that travel it.
type Walk = (Vec<Node>, u64);

/// Derives a random-walk flow from one 64-bit seed: start node, then up to
/// six hops along seed-chosen dimensions (repeats allowed — walks may
/// backtrack), carrying 1..=4 packets.
fn flow_from_seed(host: Hypercube, seed: u64) -> Walk {
    let n = host.dims() as u64;
    let mut path = vec![seed % host.num_nodes()];
    let hops = (seed >> 8) % 7;
    for h in 0..hops {
        let dim = ((seed >> (12 + 5 * h)) % n) as u32;
        path.push(path.last().unwrap() ^ (1u64 << dim));
    }
    (path, 1 + (seed >> 56) % 4)
}

/// An e-cube worm from one seed: seed-chosen endpoints, dimension-ordered
/// path (deadlock-free for any worm set), 1..=8 flits.
fn worm_from_seed(host: Hypercube, seed: u64) -> Walk {
    let src: Node = seed % host.num_nodes();
    let dst: Node = (seed >> 20) % host.num_nodes();
    (ecube_path(src, dst), 1 + (seed >> 56) % 8)
}

/// The directed edges a node walk crosses, in order.
fn walk_edges(path: &[Node]) -> Vec<DirEdge> {
    path.windows(2).map(|w| DirEdge::new(w[0], (w[0] ^ w[1]).trailing_zeros())).collect()
}

/// A packet simulator on `host` loaded with `flows`.
fn packet_sim(host: Hypercube, flows: &[Walk]) -> PacketSim {
    let mut sim = PacketSim::new(host);
    for (path, packets) in flows {
        sim.add_flow(path, *packets);
    }
    sim
}

/// A wormhole simulator on `host` loaded with `worms`.
fn wormhole_sim(host: Hypercube, worms: &[Walk]) -> WormholeSim {
    let mut sim = WormholeSim::new(host);
    for (path, flits) in worms {
        sim.add_worm(path, *flits);
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The traced run reports the same `SimReport` as the untraced one, and
    /// its trace is consistent with the report.
    #[test]
    fn traced_run_matches_untraced(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        let host = Hypercube::new(n);
        let flows: Vec<Walk> = seeds.iter().map(|&s| flow_from_seed(host, s)).collect();
        let mut sim = packet_sim(host, &flows);
        let plain = sim.run(1_000_000, &mut NopRecorder);
        let mut rec = TraceRecorder::new();
        let traced = sim.run(1_000_000, &mut rec);
        let trace = rec.summary();
        prop_assert_eq!(&traced, &plain);
        prop_assert_eq!(trace.steps, plain.makespan);
        prop_assert_eq!(trace.latency.count, plain.delivered);
    }

    /// Fault plumbing is free when unused: under an *empty* `FaultPlan`
    /// the planned packet run reproduces the fault-free run bit-for-bit,
    /// with nothing lost or tainted and one delivery per injected packet.
    #[test]
    fn planless_packet_run_is_bit_identical(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let flows: Vec<Walk> = seeds.iter().map(|&s| flow_from_seed(host, s)).collect();
        let mut sim = packet_sim(host, &flows);
        let plain = sim.run(1_000_000, &mut NopRecorder);
        let planned = sim.run_planned(1_000_000, &FaultPlan::none(&host), &mut NopRecorder);
        prop_assert_eq!(&planned.report, &plain);
        prop_assert_eq!(planned.lost, 0);
        prop_assert_eq!(planned.corrupted, 0);
        prop_assert_eq!(sim.flow_corrupted().iter().sum::<u64>(), 0);
        prop_assert_eq!(sim.flow_delivered().iter().sum::<u64>(), plain.delivered);
    }

    /// Same for the wormhole engine under an empty plan.
    #[test]
    fn planless_wormhole_run_is_bit_identical(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let worms: Vec<Walk> = seeds.iter().map(|&s| worm_from_seed(host, s)).collect();
        let mut sim = wormhole_sim(host, &worms);
        let plain = sim.run(1_000_000, &mut NopRecorder);
        let completion = sim.completion().to_vec();
        let planned = sim.run_planned(1_000_000, &FaultPlan::none(&host), &mut NopRecorder);
        prop_assert_eq!(planned, plain);
        prop_assert_eq!(sim.completion(), &completion[..]);
        prop_assert!(sim.lost().iter().all(|&l| !l));
        prop_assert!(sim.corrupted().iter().all(|&c| !c));
    }

    /// Fail-stop guarantees of the one plan engine on both simulators,
    /// over random static cuts plus timed `cut_link_at` events: every
    /// packet (worm) is either delivered or lost, a flow (worm) whose
    /// links are never in the plan's `hazard_set` delivers everything,
    /// and one whose first link is down from step 0 delivers nothing.
    #[test]
    fn fail_stop_plans_conserve_spare_and_kill(
        n in 2u32..6,
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..10),
        cut_seed in 0u64..u64::MAX,
        cuts in proptest::collection::vec((0u64..64, 0u64..u64::MAX), 0..6),
    ) {
        let host = Hypercube::new(n);
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let mut plan = FaultPlan::from_set(random_fault_set(&host, 0.03, &mut rng));
        for &(step, s) in &cuts {
            let node: Node = s % host.num_nodes();
            let dim = ((s >> 40) % u64::from(host.dims())) as u32;
            plan.cut_link_at(step, DirEdge::new(node, dim));
        }
        let hazard = plan.hazard_set(&host);
        let mut down_at_start = plan.initial().clone();
        for &(step, edge, _) in plan.events() {
            if step == 0 {
                down_at_start.fail_link(&host, edge);
            }
        }
        let spared = |edges: &[DirEdge]| edges.iter().all(|&e| !hazard.is_failed(&host, e));
        let doomed = |edges: &[DirEdge]| edges.first().is_some_and(|&e| down_at_start.is_failed(&host, e));

        let flows: Vec<Walk> = seeds.iter().map(|&s| flow_from_seed(host, s)).collect();
        let mut psim = packet_sim(host, &flows);
        let pr = psim.run_planned(1_000_000, &plan, &mut NopRecorder);
        let (delivered, lost) = (psim.flow_delivered(), psim.flow_lost());
        for (i, (path, packets)) in flows.iter().enumerate() {
            prop_assert_eq!(delivered[i] + lost[i], *packets, "flow {}", i);
            let edges = walk_edges(path);
            if spared(&edges) {
                prop_assert_eq!(delivered[i], *packets, "hazard-free flow {} lost packets", i);
            }
            if doomed(&edges) {
                prop_assert_eq!(delivered[i], 0, "flow {} crossed a dead first link", i);
            }
        }
        prop_assert_eq!(pr.report.delivered + pr.lost, flows.iter().map(|f| f.1).sum::<u64>());

        let worms: Vec<Walk> = seeds.iter().map(|&s| worm_from_seed(host, s)).collect();
        let mut wsim = wormhole_sim(host, &worms);
        let mut rec = TraceRecorder::new();
        wsim.run_planned(1_000_000, &plan, &mut rec);
        let trace = rec.summary();
        for (i, (path, _)) in worms.iter().enumerate() {
            let (delivered, lost) = (trace.flows[i].delivered, trace.flows[i].lost);
            prop_assert_eq!(delivered + lost, 1, "worm {}", i);
            prop_assert_eq!(lost == 1, wsim.lost()[i], "worm {}", i);
            let edges = walk_edges(path);
            if spared(&edges) {
                prop_assert!(!wsim.lost()[i], "hazard-free worm {} was killed", i);
            }
            if doomed(&edges) {
                prop_assert!(wsim.lost()[i], "worm {} entered a dead first link", i);
            }
        }
    }

    /// `surviving_paths` is monotone under fault-set inclusion: failing
    /// additional links can only reduce each bundle's survivor count.
    #[test]
    fn surviving_paths_monotone_under_inclusion(
        n in 4u32..7,
        seed in 0u64..u64::MAX,
        extra in proptest::collection::vec(0u64..u64::MAX, 0..8),
    ) {
        let e = theorem1(n).unwrap().embedding;
        let host = e.host;
        let mut rng = StdRng::seed_from_u64(seed);
        let smaller = random_fault_set(&host, 0.02, &mut rng);
        let mut larger = smaller.clone();
        for &s in &extra {
            let node: Node = s % host.num_nodes();
            let dim = ((s >> 40) % u64::from(host.dims())) as u32;
            larger.fail_link(&host, DirEdge::new(node, dim));
        }
        prop_assert!(larger.count() >= smaller.count());
        let before = surviving_paths(&e, &smaller);
        let after = surviving_paths(&e, &larger);
        prop_assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a <= b, "survivors grew from {} to {} under more faults", b, a);
        }
    }
}
