//! Property tests for the simulators.
//!
//! The load-bearing ones are the old-vs-new engine equivalences: the
//! reworked [`PacketSim::run`] / [`WormholeSim::run`] engines must produce
//! bit-identical reports to the original straightforward implementations
//! (kept as `run_reference`) on arbitrary workloads, the planned wormhole
//! runs must match an independent step-every-worm oracle, and the planned
//! runs must keep the fail-stop guarantees of the one fault model.

use hyperpath_core::cycles::theorem1;
use hyperpath_sim::faults::{random_fault_set, surviving_paths};
use hyperpath_sim::routing::ecube_path;
use hyperpath_sim::trace::Recorder;
use hyperpath_sim::wormhole::WormholeArena;
use hyperpath_sim::{
    FaultPlan, Flow, LinkEvent, NopRecorder, PacketSim, TraceRecorder, Worm, WormholeSim,
};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Derives a random-walk flow from one 64-bit seed: start node, then up to
/// six hops along seed-chosen dimensions (repeats allowed — walks may
/// backtrack), carrying 1..=4 packets.
fn flow_from_seed(host: Hypercube, seed: u64) -> Flow {
    let n = host.dims() as u64;
    let mut path = vec![seed % host.num_nodes()];
    let hops = (seed >> 8) % 7;
    for h in 0..hops {
        let dim = ((seed >> (12 + 5 * h)) % n) as u32;
        path.push(path.last().unwrap() ^ (1u64 << dim));
    }
    Flow { path, packets: 1 + (seed >> 56) % 4 }
}

/// An e-cube worm from one seed: seed-chosen endpoints, dimension-ordered
/// path (deadlock-free for any worm set), 1..=8 flits.
fn worm_from_seed(host: Hypercube, seed: u64) -> Worm {
    let src: Node = seed % host.num_nodes();
    let dst: Node = (seed >> 20) % host.num_nodes();
    Worm { path: ecube_path(src, dst), flits: 1 + (seed >> 56) % 8 }
}

/// The directed edges a node walk crosses, in order.
fn walk_edges(path: &[Node]) -> Vec<DirEdge> {
    path.windows(2).map(|w| DirEdge::new(w[0], (w[0] ^ w[1]).trailing_zeros())).collect()
}

/// Every event one run fires on its [`Recorder`], in firing order.
#[derive(Debug, Default, PartialEq, Eq)]
struct EventLog(Vec<(&'static str, u64, u64)>);

impl Recorder for EventLog {
    fn record_step(&mut self, step: u64, busy: u64) {
        self.0.push(("step", step, busy));
    }
    fn record_injection(&mut self, flow: u32, packets: u64, step: u64) {
        self.0.push(("inject", u64::from(flow), packets << 32 | step));
    }
    fn record_delivery(&mut self, flow: u32, step: u64) {
        self.0.push(("deliver", u64::from(flow), step));
    }
    fn record_drop(&mut self, flow: u32, step: u64) {
        self.0.push(("drop", u64::from(flow), step));
    }
    fn record_corrupt(&mut self, flow: u32, step: u64) {
        self.0.push(("corrupt", u64::from(flow), step));
    }
    fn record_flit_moves(&mut self, count: u64) {
        self.0.push(("flits", count, 0));
    }
}

/// Per-worm outcomes of one planned wormhole run plus its event stream.
#[derive(Debug, PartialEq, Eq)]
struct WormOutcome {
    completion: Vec<u64>,
    lost: Vec<bool>,
    corrupted: Vec<bool>,
    dropped_at: Vec<u32>,
    corrupted_at: Vec<u32>,
    log: EventLog,
}

/// Independent oracle for planned wormhole runs: every step it fires the
/// plan's events, then visits every live worm in id order, then lets each
/// hop whose last flit has crossed release its link. A link remembers the
/// `(worm, hop)` holding it, so a release (and the completion, which can
/// only find the last hop still holding) frees only its own hop's link.
fn planned_oracle(host: Hypercube, worms: &[Worm], plan: &FaultPlan) -> WormOutcome {
    let n = worms.len();
    let links: Vec<Vec<usize>> = worms
        .iter()
        .map(|w| walk_edges(&w.path).into_iter().map(|e| host.dir_edge_index(e)).collect())
        .collect();
    let mut failed = plan.initial().bits().to_vec();
    let corrupting = plan.corrupting_bits();
    let mut holder: Vec<Option<(usize, usize)>> = vec![None; failed.len()];
    let mut head = vec![0usize; n];
    let mut entered: Vec<Vec<u64>> = links.iter().map(|l| vec![0; l.len()]).collect();
    let mut done = vec![false; n];
    let mut out = WormOutcome {
        completion: vec![0; n],
        lost: vec![false; n],
        corrupted: vec![false; n],
        dropped_at: vec![u32::MAX; n],
        corrupted_at: vec![u32::MAX; n],
        log: EventLog::default(),
    };
    for w in 0..n {
        out.log.record_injection(w as u32, 1, 0);
        if links[w].is_empty() {
            done[w] = true;
            out.log.record_delivery(w as u32, 0);
        }
    }
    // Kills worm `w`, dropped on link `at`: it lets go of every link.
    let kill = |w: usize,
                at: usize,
                step: u64,
                holder: &mut [Option<(usize, usize)>],
                out: &mut WormOutcome| {
        for h in holder.iter_mut().filter(|h| matches!(h, Some((x, _)) if *x == w)) {
            *h = None;
        }
        out.completion[w] = step;
        out.lost[w] = true;
        out.dropped_at[w] = at as u32;
        out.log.record_drop(w as u32, step);
    };
    let (mut step, mut next_event) = (0u64, 0usize);
    while done.iter().any(|&d| !d) {
        while let Some(&(_, edge, ev)) = plan.events().get(next_event).filter(|e| e.0 <= step) {
            for idx in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                failed[idx] = ev == LinkEvent::Down;
                if let (LinkEvent::Down, Some((w, _))) = (ev, holder[idx]) {
                    done[w] = true;
                    kill(w, idx, step, &mut holder, &mut out);
                }
            }
            next_event += 1;
        }
        let mut advanced = 0;
        for w in 0..n {
            if done[w] {
                continue;
            }
            let (hops, flits) = (links[w].len(), worms[w].flits);
            if head[w] < hops {
                let idx = links[w][head[w]];
                if failed[idx] {
                    done[w] = true;
                    kill(w, idx, step, &mut holder, &mut out);
                } else if holder[idx].is_none() {
                    holder[idx] = Some((w, head[w]));
                    if corrupting[idx] && !out.corrupted[w] {
                        out.corrupted[w] = true;
                        out.corrupted_at[w] = idx as u32;
                        out.log.record_corrupt(w as u32, step);
                    }
                    entered[w][head[w]] = step;
                    head[w] += 1;
                    advanced += 1;
                }
            } else if step + 1 >= entered[w][hops - 1] + flits {
                let last = links[w][hops - 1];
                if holder[last] == Some((w, hops - 1)) {
                    holder[last] = None;
                }
                done[w] = true;
                out.completion[w] = entered[w][hops - 1] + flits;
                out.log.record_delivery(w as u32, out.completion[w]);
                out.log.record_flit_moves(hops as u64 * flits);
            }
        }
        for w in (0..n).filter(|&w| !done[w]) {
            for h in 0..head[w] {
                let idx = links[w][h];
                if holder[idx] == Some((w, h)) && step + 1 >= entered[w][h] + worms[w].flits {
                    holder[idx] = None;
                }
            }
        }
        out.log.record_step(step, advanced);
        step += 1;
    }
    out
}

/// A random node walk from one seed: up to eight hops along seed-chosen
/// dimensions (backtracking, revisits and re-entered links allowed),
/// carrying 1..=20 flits.
fn walk_from_seed(host: Hypercube, seed: u64) -> Worm {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = vec![rng.random_range(0..host.num_nodes())];
    for _ in 0..rng.random_range(0..=8u32) {
        path.push(path.last().unwrap() ^ (1u64 << rng.random_range(0..host.dims())));
    }
    Worm { path, flits: rng.random_range(1..=20u64) }
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

/// The engine's outcome for the worms loaded in `arena`.
fn arena_outcome(arena: &WormholeArena, log: EventLog) -> WormOutcome {
    WormOutcome {
        completion: arena.completion().to_vec(),
        lost: arena.lost().to_vec(),
        corrupted: arena.corrupted().to_vec(),
        dropped_at: arena.dropped_at().to_vec(),
        corrupted_at: arena.corrupted_at().to_vec(),
        log,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole invariant: the reworked packet engine is observationally
    /// identical to the original one on arbitrary flow sets.
    #[test]
    fn packet_engines_agree(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let mut sim = PacketSim::new(host);
        for &s in &seeds {
            sim.add_flow(flow_from_seed(host, s));
        }
        prop_assert_eq!(sim.run(1_000_000, &mut NopRecorder), sim.run_reference(1_000_000));
    }

    /// Same for the wormhole engine, on deadlock-free e-cube worm sets.
    #[test]
    fn wormhole_engines_agree(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let mut sim = WormholeSim::new(host);
        for &s in &seeds {
            sim.add_worm(worm_from_seed(host, s));
        }
        prop_assert_eq!(sim.run(1_000_000, &mut NopRecorder), sim.run_reference(1_000_000));
    }

    /// The event-driven wormhole engine against the step-every-worm
    /// oracle, under random plans, on random walks that may revisit nodes
    /// and re-enter links. One arena is reused across both runs of every
    /// case: `run_planned` must match the oracle's outcomes and event
    /// stream, and `run` the oracle under an empty plan.
    #[test]
    fn wormhole_planned_engines_agree(
        n in 2u32..5,
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        faults in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let host = Hypercube::new(n);
        let worms: Vec<Worm> = seeds.iter().map(|&s| walk_from_seed(host, s)).collect();
        let plan = plan_from_seeds(host, &faults);
        let mut arena = WormholeArena::new(host);
        for w in &worms {
            let links: Vec<u32> =
                walk_edges(&w.path).into_iter().map(|e| host.dir_edge_index(e) as u32).collect();
            arena.add_worm_links(&links, w.flits);
        }
        let mut log = EventLog::default();
        arena.run_planned(1_000_000, &plan, &mut log);
        prop_assert_eq!(arena_outcome(&arena, log), planned_oracle(host, &worms, &plan));

        let mut log = EventLog::default();
        arena.run(1_000_000, &mut log);
        let oracle = planned_oracle(host, &worms, &FaultPlan::none(&host));
        prop_assert_eq!(arena.completion(), &oracle.completion[..]);
        prop_assert_eq!(log, oracle.log);
    }

    /// The traced run reports the same `SimReport` as the untraced one, and
    /// its trace is consistent with the report.
    #[test]
    fn traced_run_matches_untraced(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        let host = Hypercube::new(n);
        let mut sim = PacketSim::new(host);
        for &s in &seeds {
            sim.add_flow(flow_from_seed(host, s));
        }
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
        let mut sim = PacketSim::new(host);
        for &s in &seeds {
            sim.add_flow(flow_from_seed(host, s));
        }
        let plain = sim.run(1_000_000, &mut NopRecorder);
        let planned = sim.run_planned(1_000_000, &FaultPlan::none(&host), &mut NopRecorder);
        prop_assert_eq!(&planned.report, &plain);
        prop_assert_eq!(planned.lost, 0);
        prop_assert_eq!(planned.corrupted, 0);
        prop_assert_eq!(planned.flow_corrupted.iter().sum::<u64>(), 0);
        prop_assert_eq!(planned.flow_delivered.iter().sum::<u64>(), plain.delivered);
    }

    /// Same for the wormhole engine under an empty plan.
    #[test]
    fn planless_wormhole_run_is_bit_identical(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let mut sim = WormholeSim::new(host);
        for &s in &seeds {
            sim.add_worm(worm_from_seed(host, s));
        }
        let plain = sim.run(1_000_000, &mut NopRecorder);
        let planned = sim.run_planned(1_000_000, &FaultPlan::none(&host), &mut NopRecorder);
        prop_assert_eq!(&planned.report, &plain);
        prop_assert_eq!(planned.lost_count(), 0);
        prop_assert_eq!(planned.corrupted_count(), 0);
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

        let flows: Vec<Flow> = seeds.iter().map(|&s| flow_from_seed(host, s)).collect();
        let mut psim = PacketSim::new(host);
        for f in &flows {
            psim.add_flow(f.clone());
        }
        let pr = psim.run_planned(1_000_000, &plan, &mut NopRecorder);
        for (i, f) in flows.iter().enumerate() {
            prop_assert_eq!(pr.flow_delivered[i] + pr.flow_lost[i], f.packets, "flow {}", i);
            let edges = walk_edges(&f.path);
            if spared(&edges) {
                prop_assert_eq!(pr.flow_delivered[i], f.packets, "hazard-free flow {} lost packets", i);
            }
            if doomed(&edges) {
                prop_assert_eq!(pr.flow_delivered[i], 0, "flow {} crossed a dead first link", i);
            }
        }
        prop_assert_eq!(pr.report.delivered + pr.lost, flows.iter().map(|f| f.packets).sum::<u64>());

        let worms: Vec<Worm> = seeds.iter().map(|&s| worm_from_seed(host, s)).collect();
        let mut wsim = WormholeSim::new(host);
        for w in &worms {
            wsim.add_worm(w.clone());
        }
        let mut rec = TraceRecorder::new();
        let wr = wsim.run_planned(1_000_000, &plan, &mut rec);
        let trace = rec.summary();
        for (i, w) in worms.iter().enumerate() {
            let (delivered, lost) = (trace.flows[i].delivered, trace.flows[i].lost);
            prop_assert_eq!(delivered + lost, 1, "worm {}", i);
            prop_assert_eq!(lost == 1, wr.lost[i], "worm {}", i);
            let edges = walk_edges(&w.path);
            if spared(&edges) {
                prop_assert!(!wr.lost[i], "hazard-free worm {} was killed", i);
            }
            if doomed(&edges) {
                prop_assert!(wr.lost[i], "worm {} entered a dead first link", i);
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
