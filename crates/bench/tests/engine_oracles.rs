//! Both simulators against their oracles (`hyperpath_bench::oracle`):
//! every run must reproduce its oracle's report, per-flow (per-worm)
//! outcomes and events, under random fault plans and, through `run`,
//! under none. `flow_from_seed`, `worm_from_seed` and `wormhole_sim` are
//! copies of `hyperpath-sim`'s `tests/props.rs` helpers, whose tests
//! cannot reach this crate: it depends on `hyperpath-sim`.

use hyperpath_bench::oracle::{
    packet_oracle, wormhole_oracle, EventLog, PacketOutcome, Walk, WormOutcome,
};
use hyperpath_core::cycles::theorem1;
use hyperpath_sim::routing::ecube_path;
use hyperpath_sim::{FaultPlan, NopRecorder, PacketSim, WormholeSim};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// A random node walk from one seed: up to eight hops along seed-chosen
/// dimensions (backtracking, revisits and re-entered links allowed),
/// carrying 1..=20 flits.
fn walk_from_seed(host: Hypercube, seed: u64) -> Walk {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = vec![rng.random_range(0..host.num_nodes())];
    for _ in 0..rng.random_range(0..=8u32) {
        path.push(path.last().unwrap() ^ (1u64 << rng.random_range(0..host.dims())));
    }
    (path, rng.random_range(1..=20u64))
}

/// A random fault plan from seeds, one fault per seed: an initial cut, a
/// timed cut, an outage, a timed restore, a timed node cut or a
/// corrupting link, at steps below 40.
fn plan_from_seeds(host: Hypercube, seeds: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::none(&host);
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let node = rng.random_range(0..host.num_nodes());
        let edge = DirEdge::new(node, rng.random_range(0..host.dims()));
        let at = rng.random_range(0..40u64);
        match seed % 6 {
            0 => plan.cut_link(&host, edge),
            1 => plan.cut_link_at(at, edge),
            2 => plan.outage(edge, at, at + rng.random_range(1..=12u64)),
            3 => plan.restore_link_at(at, edge),
            4 => plan.cut_node_at(at, &host, node),
            _ => plan.corrupt_link(&host, edge),
        }
    }
    plan
}

/// A wormhole simulator on `host` loaded with `worms`.
fn wormhole_sim(host: Hypercube, worms: &[Walk]) -> WormholeSim {
    let mut sim = WormholeSim::new(host);
    for (path, flits) in worms {
        sim.add_worm(path, *flits);
    }
    sim
}

/// `run` of `sim`, loaded with `flows`, against the oracle under an empty
/// plan: the report and the events, and the report of the recorder-free
/// run, which settles deliveries on its own path.
fn assert_plain_packet_run_matches_oracle(sim: &mut PacketSim, flows: &[Walk]) {
    let (mut log, mut oracle_log) = (EventLog::default(), EventLog::default());
    let report = sim.run(1_000_000, &mut log);
    let oracle = packet_oracle(sim.host(), flows, &FaultPlan::none(&sim.host()), &mut oracle_log);
    assert_eq!(sim.run(1_000_000, &mut NopRecorder), oracle.report.report);
    assert_eq!((report, log.canonical()), (oracle.report.report, oracle_log.canonical()));
}

/// `run` of `sim`, loaded with `worms`, against the oracle under an empty
/// plan: the makespan, the completion times and the events.
fn assert_plain_wormhole_run_matches_oracle(sim: &mut WormholeSim, worms: &[Walk]) {
    let (mut log, mut oracle_log) = (EventLog::default(), EventLog::default());
    let makespan = sim.run(1_000_000, &mut log);
    let oracle = wormhole_oracle(sim.host(), worms, &FaultPlan::none(&sim.host()), &mut oracle_log);
    let engine = (makespan, sim.completion(), log);
    assert_eq!(engine, (oracle.makespan(), &oracle.completion[..], oracle_log));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The event-driven packet engine against the per-link-queue oracle,
    /// under random plans (static and timed cuts, outages, restores, node
    /// faults, corrupting links). Two input families: random walks that
    /// may revisit links with up to four packets per flow, and the short
    /// seeded flows of `flow_from_seed`. One simulator is reused across
    /// every run of a case: `run_planned`, recorded or not, must match the
    /// oracle, and `run` the oracle under an empty plan.
    #[test]
    fn packet_planned_engines_agree(
        n in 2u32..6,
        seeded_flows in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        faults in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let host = Hypercube::new(n);
        let flows: Vec<Walk> = seeds
            .iter()
            .map(|&s| {
                if seeded_flows {
                    return flow_from_seed(host, s);
                }
                let (path, flits) = walk_from_seed(host, s);
                (path, 1 + flits % 4)
            })
            .collect();
        let plan = plan_from_seeds(host, &faults);
        let mut sim = PacketSim::new(host);
        for (path, packets) in &flows {
            sim.add_flow(path, *packets);
        }
        let (mut log, mut oracle_log) = (EventLog::default(), EventLog::default());
        let report = sim.run_planned(1_000_000, &plan, &mut log);
        let oracle = packet_oracle(host, &flows, &plan, &mut oracle_log);
        prop_assert_eq!(PacketOutcome::of_engine(&sim, report), oracle);
        prop_assert_eq!(log.canonical(), oracle_log.canonical());
        let quiet = sim.run_planned(1_000_000, &plan, &mut NopRecorder);
        prop_assert_eq!(PacketOutcome::of_engine(&sim, quiet), oracle);
        assert_plain_packet_run_matches_oracle(&mut sim, &flows);
    }

    /// Same for the wormhole engine against the step-every-worm oracle.
    /// Two input families: random walks that may revisit nodes and
    /// re-enter links, and deadlock-free e-cube worms of 1..=8 flits. One
    /// simulator is reused across both runs of every case: `run_planned`
    /// must match the oracle's outcomes and event stream, and `run` the
    /// oracle under an empty plan.
    #[test]
    fn wormhole_planned_engines_agree(
        n in 2u32..6,
        ecube in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        faults in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let host = Hypercube::new(n);
        let worms: Vec<Walk> = seeds
            .iter()
            .map(|&s| if ecube { worm_from_seed(host, s) } else { walk_from_seed(host, s) })
            .collect();
        let plan = plan_from_seeds(host, &faults);
        let mut sim = wormhole_sim(host, &worms);
        let (mut log, mut oracle_log) = (EventLog::default(), EventLog::default());
        sim.run_planned(1_000_000, &plan, &mut log);
        prop_assert_eq!(WormOutcome::of_engine(&sim), wormhole_oracle(host, &worms, &plan, &mut oracle_log));
        prop_assert_eq!(log, oracle_log);
        assert_plain_wormhole_run_matches_oracle(&mut sim, &worms);
    }
}

#[test]
fn packet_engine_matches_oracle_on_contended_phase() {
    let e = theorem1(6).unwrap().embedding;
    for m in [1u64, 5, 32] {
        let flows: Vec<Walk> =
            PacketSim::phase_flows(&e, m, usize::MAX).map(|(w, k)| (w.to_vec(), k)).collect();
        assert_plain_packet_run_matches_oracle(&mut PacketSim::phase_workload(&e, m), &flows);
    }
}

#[test]
fn wormhole_engine_matches_oracle_under_contention() {
    let worms: Vec<Walk> =
        vec![(vec![0, 1, 3, 7], 6), (vec![0, 1, 5], 3), (vec![2, 3, 7, 15], 9), (vec![8], 2)];
    assert_plain_wormhole_run_matches_oracle(&mut wormhole_sim(Hypercube::new(4), &worms), &worms);
}
