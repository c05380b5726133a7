//! Property tests for the simulators.
//!
//! The load-bearing ones are the old-vs-new engine equivalences: the
//! event-driven [`PacketSim::run`] / [`WormholeSim::run`] engines must
//! produce bit-identical reports to the original straightforward
//! implementations (kept as `run_reference`) on arbitrary workloads, the
//! planned runs of both engines must match independent steppers
//! (per-link FIFO queues for packets, step-every-worm for worms), and the
//! planned runs must keep the fail-stop guarantees of the one fault model.

use hyperpath_core::cycles::theorem1;
use hyperpath_sim::faults::{random_fault_set, surviving_paths};
use hyperpath_sim::routing::ecube_path;
use hyperpath_sim::trace::{CountingRecorder, Recorder};
use hyperpath_sim::{
    FaultPlan, LinkEvent, NopRecorder, PacketSim, PlanReport, SimReport, TraceRecorder, WormholeSim,
};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

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
fn planned_oracle(host: Hypercube, worms: &[Walk], plan: &FaultPlan) -> WormOutcome {
    let n = worms.len();
    let links: Vec<Vec<usize>> = worms
        .iter()
        .map(|(path, _)| walk_edges(path).into_iter().map(|e| host.dir_edge_index(e)).collect())
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
            let (hops, flits) = (links[w].len(), worms[w].1);
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
                if holder[idx] == Some((w, h)) && step + 1 >= entered[w][h] + worms[w].1 {
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

/// The recorders the packet comparisons read: the work totals, the
/// per-step and per-link traces, and the event stream.
#[derive(Default)]
struct Tee(CountingRecorder, TraceRecorder, EventLog);

impl Recorder for Tee {
    fn record_step(&mut self, step: u64, busy: u64) {
        self.0.record_step(step, busy);
        self.1.record_step(step, busy);
        self.2.record_step(step, busy);
    }
    fn record_queue_depth(&mut self, link: u32, depth: usize) {
        self.0.record_queue_depth(link, depth);
        self.1.record_queue_depth(link, depth);
    }
    fn record_injection(&mut self, flow: u32, packets: u64, step: u64) {
        self.0.record_injection(flow, packets, step);
        self.1.record_injection(flow, packets, step);
        self.2.record_injection(flow, packets, step);
    }
    fn record_delivery(&mut self, flow: u32, step: u64) {
        self.0.record_delivery(flow, step);
        self.1.record_delivery(flow, step);
        self.2.record_delivery(flow, step);
    }
    fn record_drop(&mut self, flow: u32, step: u64) {
        self.0.record_drop(flow, step);
        self.1.record_drop(flow, step);
        self.2.record_drop(flow, step);
    }
    fn record_corrupt(&mut self, flow: u32, step: u64) {
        self.0.record_corrupt(flow, step);
        self.1.record_corrupt(flow, step);
        self.2.record_corrupt(flow, step);
    }
    fn record_queue_push(&mut self, link: u32, count: u64) {
        self.0.record_queue_push(link, count);
        self.1.record_queue_push(link, count);
    }
}

/// Everything a planned packet run reports: the plan report, the five
/// per-flow vectors, the work totals, the busy count of every step, the
/// queue high-water mark of every link, and the fired events with their
/// steps, sorted (within a step, hooks may fire in any order).
#[derive(Debug, PartialEq)]
struct PacketOutcome {
    report: PlanReport,
    delivered: Vec<u64>,
    lost: Vec<u64>,
    corrupted: Vec<u64>,
    dropped_at: Vec<u32>,
    corrupted_at: Vec<u32>,
    counts: CountingRecorder,
    busy_per_step: Vec<u64>,
    queue_high_water: Vec<usize>,
    events: Vec<(&'static str, u64, u64)>,
}

impl PacketOutcome {
    /// The outcome of a run with `report` and `per_flow` outcomes that
    /// fired its events into `tee`.
    fn new(report: PlanReport, per_flow: [Vec<u64>; 3], at: [Vec<u32>; 2], tee: Tee) -> Self {
        let [delivered, lost, corrupted] = per_flow;
        let [dropped_at, corrupted_at] = at;
        let mut events = tee.2 .0;
        events.sort_unstable();
        PacketOutcome {
            report,
            delivered,
            lost,
            corrupted,
            dropped_at,
            corrupted_at,
            counts: tee.0,
            busy_per_step: tee.1.busy_per_step,
            queue_high_water: tee.1.queue_high_water,
            events,
        }
    }
}

/// The engine's outcome for the flows loaded in `sim` after a planned
/// run recorded into `tee`.
fn packet_outcome(sim: &PacketSim, report: PlanReport, tee: Tee) -> PacketOutcome {
    let per_flow = [sim.flow_delivered(), sim.flow_lost(), sim.flow_corrupted()].map(<[_]>::to_vec);
    let at = [sim.flow_dropped_at(), sim.flow_corrupted_at()].map(<[_]>::to_vec);
    PacketOutcome::new(report, per_flow, at, tee)
}

/// Independent oracle for planned packet runs: one FIFO queue per directed
/// link. Each step fires the plan's events, then every non-empty queue
/// either drops its whole content (link down) or serves its head (taining
/// it on its first corrupting link), then the served packets join their
/// next queues in packet-id order. Drops and taints of one step settle in
/// packet-id order, so a flow's first drop and first taint are its
/// earliest by (step, packet id). A packet joining a queue records the
/// queue's length, itself included.
fn packet_oracle(host: Hypercube, flows: &[Walk], plan: &FaultPlan) -> PacketOutcome {
    let links: Vec<Vec<usize>> = flows
        .iter()
        .map(|(path, _)| walk_edges(path).into_iter().map(|e| host.dir_edge_index(e)).collect())
        .collect();
    let num_links = host.num_directed_edges() as usize;
    let mut failed = plan.initial().bits().to_vec();
    let corrupting = plan.corrupting_bits();
    let n = flows.len();
    let mut tee = Tee::default();
    let (mut delivered, mut lost, mut corrupted) = (vec![0; n], vec![0; n], vec![0; n]);
    let (mut dropped_at, mut corrupted_at) = (vec![u32::MAX; n], vec![u32::MAX; n]);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); num_links];
    // Per packet (ids in (flow, seq) order, zero-hop flows skipped): its
    // flow, hops crossed and taint.
    let mut packets: Vec<(usize, usize, bool)> = Vec::new();
    let join = |queues: &mut [VecDeque<usize>], link: usize, pid: usize, tee: &mut Tee| {
        queues[link].push_back(pid);
        tee.record_queue_push(link as u32, 1);
        tee.record_queue_depth(link as u32, queues[link].len());
    };
    for (f, &(_, count)) in flows.iter().enumerate() {
        tee.record_injection(f as u32, count, 0);
        for _ in 0..count {
            if links[f].is_empty() {
                tee.record_delivery(f as u32, 0);
                delivered[f] += 1;
            } else {
                join(&mut queues, links[f][0], packets.len(), &mut tee);
                packets.push((f, 0, false));
            }
        }
    }
    let mut pending = packets.len();
    let (mut step, mut next_event) = (0u64, 0usize);
    let (mut hops, mut max_queue, mut total_lost, mut total_corrupted) = (0u64, 0usize, 0u64, 0u64);
    while pending > 0 {
        while let Some(&(_, edge, ev)) = plan.events().get(next_event).filter(|e| e.0 <= step) {
            for idx in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                failed[idx] = ev == LinkEvent::Down;
            }
            next_event += 1;
        }
        let (mut moved, mut drops, mut taints) = (Vec::new(), Vec::new(), Vec::new());
        for (link, q) in queues.iter_mut().enumerate() {
            max_queue = max_queue.max(q.len());
            if failed[link] {
                drops.extend(q.drain(..).map(|pid| (pid, link)));
            } else if let Some(pid) = q.pop_front() {
                if corrupting[link] && !packets[pid].2 {
                    packets[pid].2 = true;
                    taints.push((pid, link));
                }
                moved.push(pid);
            }
        }
        drops.sort_unstable();
        for (pid, link) in drops {
            let f = packets[pid].0;
            tee.record_drop(f as u32, step);
            lost[f] += 1;
            total_lost += 1;
            if dropped_at[f] == u32::MAX {
                dropped_at[f] = link as u32;
            }
            pending -= 1;
        }
        taints.sort_unstable();
        for (pid, link) in taints {
            let f = packets[pid].0;
            tee.record_corrupt(f as u32, step);
            total_corrupted += 1;
            if corrupted_at[f] == u32::MAX {
                corrupted_at[f] = link as u32;
            }
        }
        hops += moved.len() as u64;
        tee.record_step(step, moved.len() as u64);
        moved.sort_unstable();
        for pid in moved {
            let (f, pos, tainted) = &mut packets[pid];
            *pos += 1;
            if let Some(&next) = links[*f].get(*pos) {
                join(&mut queues, next, pid, &mut tee);
            } else {
                tee.record_delivery(*f as u32, step + 1);
                delivered[*f] += 1;
                corrupted[*f] += u64::from(*tainted);
                pending -= 1;
            }
        }
        step += 1;
    }
    let injected: u64 = flows.iter().map(|f| f.1).sum();
    let report = SimReport {
        makespan: step,
        delivered: injected - total_lost,
        packet_hops: hops,
        mean_utilization: if step == 0 {
            0.0
        } else {
            hops as f64 / (step as f64 * num_links as f64)
        },
        max_queue,
    };
    let report = PlanReport { report, lost: total_lost, corrupted: total_corrupted };
    PacketOutcome::new(report, [delivered, lost, corrupted], [dropped_at, corrupted_at], tee)
}

/// The engine's outcome for the worms loaded in `sim`.
fn sim_outcome(sim: &WormholeSim, log: EventLog) -> WormOutcome {
    WormOutcome {
        completion: sim.completion().to_vec(),
        lost: sim.lost().to_vec(),
        corrupted: sim.corrupted().to_vec(),
        dropped_at: sim.dropped_at().to_vec(),
        corrupted_at: sim.corrupted_at().to_vec(),
        log,
    }
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

    /// Tentpole invariant: the reworked packet engine is observationally
    /// identical to the original one on arbitrary flow sets.
    #[test]
    fn packet_engines_agree(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let flows: Vec<Walk> = seeds.iter().map(|&s| flow_from_seed(host, s)).collect();
        let mut sim = packet_sim(host, &flows);
        prop_assert_eq!(sim.run(1_000_000, &mut NopRecorder), sim.run_reference(1_000_000));
    }

    /// The event-driven packet engine against the per-link-queue oracle,
    /// under random plans (static and timed cuts, outages, restores, node
    /// faults, corrupting links), on random walks that may revisit links,
    /// with up to four packets per flow. One simulator is reused across
    /// both runs of every case: `run_planned` must match the oracle, and
    /// `run` the oracle under an empty plan.
    #[test]
    fn packet_planned_engines_agree(
        n in 2u32..5,
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        faults in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let host = Hypercube::new(n);
        let flows: Vec<Walk> = seeds
            .iter()
            .map(|&s| {
                let (path, flits) = walk_from_seed(host, s);
                (path, 1 + flits % 4)
            })
            .collect();
        let plan = plan_from_seeds(host, &faults);
        let mut sim = packet_sim(host, &flows);
        let mut tee = Tee::default();
        let report = sim.run_planned(1_000_000, &plan, &mut tee);
        prop_assert_eq!(packet_outcome(&sim, report, tee), packet_oracle(host, &flows, &plan));

        let mut tee = Tee::default();
        let report = sim.run(1_000_000, &mut tee);
        let oracle = packet_oracle(host, &flows, &FaultPlan::none(&host));
        let plain = PacketOutcome::new(
            PlanReport { report, ..oracle.report.clone() },
            [oracle.delivered.clone(), oracle.lost.clone(), oracle.corrupted.clone()],
            [oracle.dropped_at.clone(), oracle.corrupted_at.clone()],
            tee,
        );
        prop_assert_eq!(plain, oracle);
    }

    /// Same for the wormhole engine, on deadlock-free e-cube worm sets.
    #[test]
    fn wormhole_engines_agree(n in 2u32..6, seeds in proptest::collection::vec(0u64..u64::MAX, 1..12)) {
        let host = Hypercube::new(n);
        let worms: Vec<Walk> = seeds.iter().map(|&s| worm_from_seed(host, s)).collect();
        let mut sim = wormhole_sim(host, &worms);
        let makespan = sim.run(1_000_000, &mut NopRecorder);
        let reference = sim.run_reference(1_000_000);
        prop_assert_eq!(makespan, reference.makespan);
        prop_assert_eq!(sim.completion(), &reference.completion[..]);
    }

    /// The event-driven wormhole engine against the step-every-worm
    /// oracle, under random plans, on random walks that may revisit nodes
    /// and re-enter links. One simulator is reused across both runs of
    /// every case: `run_planned` must match the oracle's outcomes and event
    /// stream, and `run` the oracle under an empty plan.
    #[test]
    fn wormhole_planned_engines_agree(
        n in 2u32..5,
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        faults in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let host = Hypercube::new(n);
        let worms: Vec<Walk> = seeds.iter().map(|&s| walk_from_seed(host, s)).collect();
        let plan = plan_from_seeds(host, &faults);
        let mut sim = wormhole_sim(host, &worms);
        let mut log = EventLog::default();
        sim.run_planned(1_000_000, &plan, &mut log);
        prop_assert_eq!(sim_outcome(&sim, log), planned_oracle(host, &worms, &plan));

        let mut log = EventLog::default();
        sim.run(1_000_000, &mut log);
        let oracle = planned_oracle(host, &worms, &FaultPlan::none(&host));
        prop_assert_eq!(sim.completion(), &oracle.completion[..]);
        prop_assert_eq!(log, oracle.log);
    }

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
