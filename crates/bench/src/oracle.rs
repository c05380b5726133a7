//! The simulators' specifications, one independent stepper per engine:
//! [`packet_oracle`] (Section 3: a FIFO queue per directed link, each
//! non-empty queue serving its head every step) and [`wormhole_oracle`]
//! (Section 7: every step visits every live worm in id order). Both read
//! node walks and a [`FaultPlan`] and fire the engines' [`Recorder`]
//! events, sharing nothing else with [`PacketSim`] and [`WormholeSim`].
//! `tests/engine_oracles.rs` and the perf suite hold the engines to them.

use hyperpath_sim::trace::Recorder;
use hyperpath_sim::{FaultPlan, LinkEvent, PacketSim, PlanReport, SimReport, WormholeSim};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use std::collections::VecDeque;

/// A node walk and the packets (or flits) that travel it.
pub type Walk = (Vec<Node>, u64);

/// The directed-link indices each walk of `walks` crosses, in order.
fn walk_links(host: Hypercube, walks: &[Walk]) -> Vec<Vec<usize>> {
    let link = |w: &[Node]| host.dir_edge_index(DirEdge::new(w[0], (w[0] ^ w[1]).trailing_zeros()));
    walks.iter().map(|(path, _)| path.windows(2).map(link).collect()).collect()
}

/// Every event one run fires on its [`Recorder`], in firing order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct EventLog(pub Vec<(&'static str, u64, u64)>);

impl EventLog {
    /// The events in a canonical order. Packet hooks may fire in any order
    /// within a step, so every event but the step events is sorted; those
    /// must fire for every step in order, so they keep their firing order.
    /// Packet runs compare this form, which fixes every counter total,
    /// `TraceRecorder::busy_per_step` and the per-link queue maxima.
    pub fn canonical(mut self) -> Vec<(&'static str, u64, u64)> {
        self.0
            .sort_by_key(|&(kind, a, b)| if kind == "step" { (kind, 0, 0) } else { (kind, a, b) });
        self.0
    }
}

impl Recorder for EventLog {
    fn record_step(&mut self, step: u64, busy: u64) {
        self.0.push(("step", step, busy));
    }
    fn record_queue_depth(&mut self, link: u32, depth: usize) {
        self.0.push(("depth", u64::from(link), depth as u64));
    }
    fn record_queue_push(&mut self, link: u32, count: u64) {
        self.0.push(("push", u64::from(link), count));
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

/// Everything a packet run reports: the plan report and the five per-flow
/// vectors (delivered, lost and corrupted packets, the links of the first
/// drop and the first taint).
#[derive(Debug, PartialEq)]
pub struct PacketOutcome {
    pub report: PlanReport,
    pub delivered: Vec<u64>,
    pub lost: Vec<u64>,
    pub corrupted: Vec<u64>,
    pub dropped_at: Vec<u32>,
    pub corrupted_at: Vec<u32>,
}

impl PacketOutcome {
    /// The engine's outcome for the flows loaded in `sim` after a planned
    /// run that returned `report`.
    pub fn of_engine(sim: &PacketSim, report: PlanReport) -> Self {
        PacketOutcome {
            report,
            delivered: sim.flow_delivered().to_vec(),
            lost: sim.flow_lost().to_vec(),
            corrupted: sim.flow_corrupted().to_vec(),
            dropped_at: sim.flow_dropped_at().to_vec(),
            corrupted_at: sim.flow_corrupted_at().to_vec(),
        }
    }
}

/// The packet machine: one FIFO queue per directed link. Each step fires
/// the plan's events, then every non-empty queue either drops its whole
/// content (link down) or serves its head (tainting it on its first
/// corrupting link), then the served packets join their next queues in
/// packet-id order. Packet ids follow (flow, seq), and zero-hop flows
/// deliver at step 0. Drops and taints of one step settle in packet-id
/// order, so a flow's first drop and first taint are its earliest by
/// (step, packet id). A packet joining a queue records the queue's
/// length, itself included.
pub fn packet_oracle<R: Recorder>(
    host: Hypercube,
    flows: &[Walk],
    plan: &FaultPlan,
    log: &mut R,
) -> PacketOutcome {
    let links = walk_links(host, flows);
    let num_links = host.num_directed_edges() as usize;
    let mut failed = plan.initial().bits().to_vec();
    let corrupting = plan.corrupting_bits();
    let n = flows.len();
    let (mut delivered, mut lost, mut corrupted) = (vec![0; n], vec![0; n], vec![0; n]);
    let (mut dropped_at, mut corrupted_at) = (vec![u32::MAX; n], vec![u32::MAX; n]);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); num_links];
    // Per packet (ids in (flow, seq) order, zero-hop flows skipped): its
    // flow, hops crossed and taint.
    let mut packets: Vec<(usize, usize, bool)> = Vec::new();
    let join = |queues: &mut [VecDeque<usize>], link: usize, pid: usize, log: &mut R| {
        queues[link].push_back(pid);
        log.record_queue_push(link as u32, 1);
        log.record_queue_depth(link as u32, queues[link].len());
    };
    for (f, &(_, count)) in flows.iter().enumerate() {
        log.record_injection(f as u32, count, 0);
        for _ in 0..count {
            if links[f].is_empty() {
                log.record_delivery(f as u32, 0);
                delivered[f] += 1;
            } else {
                join(&mut queues, links[f][0], packets.len(), log);
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
            log.record_drop(f as u32, step);
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
            log.record_corrupt(f as u32, step);
            total_corrupted += 1;
            if corrupted_at[f] == u32::MAX {
                corrupted_at[f] = link as u32;
            }
        }
        hops += moved.len() as u64;
        log.record_step(step, moved.len() as u64);
        moved.sort_unstable();
        for pid in moved {
            let (f, pos, tainted) = &mut packets[pid];
            *pos += 1;
            if let Some(&next) = links[*f].get(*pos) {
                join(&mut queues, next, pid, log);
            } else {
                log.record_delivery(*f as u32, step + 1);
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
    PacketOutcome {
        report: PlanReport { report, lost: total_lost, corrupted: total_corrupted },
        delivered,
        lost,
        corrupted,
        dropped_at,
        corrupted_at,
    }
}

/// Per-worm outcomes of one wormhole run: the completion or death step,
/// loss, taint, and the links of the death and of the first taint.
#[derive(Debug, PartialEq, Eq)]
pub struct WormOutcome {
    pub completion: Vec<u64>,
    pub lost: Vec<bool>,
    pub corrupted: Vec<bool>,
    pub dropped_at: Vec<u32>,
    pub corrupted_at: Vec<u32>,
}

impl WormOutcome {
    /// The engine's outcome for the worms loaded in `sim` after a planned
    /// run.
    pub fn of_engine(sim: &WormholeSim) -> Self {
        WormOutcome {
            completion: sim.completion().to_vec(),
            lost: sim.lost().to_vec(),
            corrupted: sim.corrupted().to_vec(),
            dropped_at: sim.dropped_at().to_vec(),
            corrupted_at: sim.corrupted_at().to_vec(),
        }
    }

    /// The step after which every worm had completed or died.
    pub fn makespan(&self) -> u64 {
        self.completion.iter().copied().max().unwrap_or(0)
    }
}

/// The wormhole machine: every step fires the plan's events, then visits
/// every live worm in id order, then lets each hop whose last flit has
/// crossed release its link. A link remembers the `(worm, hop)` holding
/// it, so a release (and the completion, which can only find the last
/// hop still holding) frees only its own hop's link.
pub fn wormhole_oracle<R: Recorder>(
    host: Hypercube,
    worms: &[Walk],
    plan: &FaultPlan,
    log: &mut R,
) -> WormOutcome {
    let n = worms.len();
    let links = walk_links(host, worms);
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
    };
    for w in 0..n {
        log.record_injection(w as u32, 1, 0);
        if links[w].is_empty() {
            done[w] = true;
            log.record_delivery(w as u32, 0);
        }
    }
    // Kills worm `w`, dropped on link `at`: it lets go of every link.
    let kill = |w: usize,
                at: usize,
                step: u64,
                holder: &mut [Option<(usize, usize)>],
                out: &mut WormOutcome,
                log: &mut R| {
        for h in holder.iter_mut().filter(|h| matches!(h, Some((x, _)) if *x == w)) {
            *h = None;
        }
        out.completion[w] = step;
        out.lost[w] = true;
        out.dropped_at[w] = at as u32;
        log.record_drop(w as u32, step);
    };
    let (mut step, mut next_event) = (0u64, 0usize);
    while done.iter().any(|&d| !d) {
        while let Some(&(_, edge, ev)) = plan.events().get(next_event).filter(|e| e.0 <= step) {
            for idx in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                failed[idx] = ev == LinkEvent::Down;
                if let (LinkEvent::Down, Some((w, _))) = (ev, holder[idx]) {
                    done[w] = true;
                    kill(w, idx, step, &mut holder, &mut out, log);
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
                    kill(w, idx, step, &mut holder, &mut out, log);
                } else if holder[idx].is_none() {
                    holder[idx] = Some((w, head[w]));
                    if corrupting[idx] && !out.corrupted[w] {
                        out.corrupted[w] = true;
                        out.corrupted_at[w] = idx as u32;
                        log.record_corrupt(w as u32, step);
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
                log.record_delivery(w as u32, out.completion[w]);
                log.record_flit_moves(hops as u64 * flits);
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
        log.record_step(step, advanced);
        step += 1;
    }
    out
}
