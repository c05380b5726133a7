//! Store-and-forward packet simulation.
//!
//! Semantics (Section 3's machine): time advances in synchronous steps; in
//! one step every directed link transmits at most one packet. Packets carry
//! fixed precomputed host paths, queue FIFO at each hop, and links
//! arbitrate deterministically (lowest flow id, then injection sequence),
//! so every run is exactly reproducible.
//!
//! Two engines implement these semantics:
//!
//! * [`PacketArena`] — the production engine. Packets live in a flat
//!   slab whose ids are assigned in (flow, seq) injection order, so
//!   ascending slab id *is* the arbitration order; per-link FIFOs are
//!   intrusive lists over the slab; and packets moving in one step are
//!   re-queued through per-destination-link buckets (sorted insertion into
//!   at most `n` slots), which reproduces the global (flow, seq) sort
//!   without sorting. The step loop allocates nothing, and a warmed arena
//!   allocates nothing per run. [`PacketSim`] is its node-walk front-end:
//!   each [`PacketSim::run`] / [`PacketSim::run_planned`] loads a fresh
//!   arena and returns what it reports.
//! * [`PacketSim::run_reference`] — the original straightforward engine
//!   (per-step `Vec`s plus an explicit `sort_by_key`). It is kept as the
//!   executable specification; property tests in `tests/props.rs` assert
//!   both engines produce bit-identical [`SimReport`]s.
//!
//! Every run reports to a [`Recorder`] (`sim::trace`); the
//! [`NopRecorder`](crate::trace::NopRecorder) monomorphizes every hook to
//! nothing, so tracing costs nothing when off.
//!
//! The planned runs execute under a [`FaultPlan`]: links severed from the
//! start or mid-run drop the packets queued at them instead of
//! transmitting, transient outages restore links, and byte-corrupting
//! links flag the packets that cross them — reported per flow in a
//! [`PlanReport`]. The fault logic is one `const`-generic switch on the
//! one engine, so the fault-free path compiles to exactly the code the
//! equivalence tests pin.

use crate::faults::{FaultPlan, LinkEvent};
use crate::trace::Recorder;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_topology::{DirEdge, Hypercube, Node};
use std::collections::VecDeque;

/// One flow: `packets` packets injected at step 0, every packet following
/// the same `path` (a node sequence; consecutive nodes host-adjacent).
/// Packets of later flows queue behind earlier ones on shared links.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Node sequence the packets follow.
    pub path: Vec<Node>,
    /// Number of packets.
    pub packets: u64,
}

/// Simulation outcome. The default is the report of a run with no flows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Step after which every packet had arrived (or, in a planned run,
    /// been dropped).
    pub makespan: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packet-hops executed.
    pub packet_hops: u64,
    /// Mean fraction of directed links busy per step (over the makespan).
    pub mean_utilization: f64,
    /// Largest per-link queue length observed.
    pub max_queue: usize,
}

/// Outcome of a planned run ([`PacketSim::run_planned`]): the machine
/// report plus per-flow loss and corruption accounting. Corrupting links
/// never affect delivery — a corrupted packet still arrives — so
/// `flow_corrupted[f] ≤ flow_delivered[f]`, while `corrupted` counts every
/// packet flagged (including ones later dropped on a failed link). The
/// default is the report of a run with no flows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// The machine report. `delivered` counts only packets that actually
    /// arrived; with an empty [`FaultPlan`] this is bit-identical to what
    /// [`PacketSim::run`] returns (pinned by `tests/props.rs`).
    pub report: SimReport,
    /// Packets dropped on failed links.
    pub lost: u64,
    /// Packets that crossed at least one byte-corrupting link (counted
    /// once per packet, whether or not they were later dropped).
    pub corrupted: u64,
    /// Packets of each flow that arrived, indexed by flow id.
    pub flow_delivered: Vec<u64>,
    /// Packets of each flow dropped on failed links, indexed by flow id.
    pub flow_lost: Vec<u64>,
    /// Packets of each flow that arrived with a corrupted payload,
    /// indexed by flow id.
    pub flow_corrupted: Vec<u64>,
    /// Directed-link index (see [`Hypercube::dir_edge_index`]) where the
    /// flow's *first* packet drop happened, `u32::MAX` if none was
    /// dropped. This is exactly what a per-hop NACK would carry, so
    /// oracle-free health learners (`sim::tenants`) can attribute losses
    /// without consulting the plan.
    pub flow_dropped_at: Vec<u32>,
    /// Directed-link index of the first corrupting link one of the
    /// flow's packets crossed, `u32::MAX` if the flow stayed clean —
    /// the per-hop CRC-trailer analogue of `flow_dropped_at`.
    pub flow_corrupted_at: Vec<u32>,
}

/// The simulator: a hypercube plus a set of flows given as node walks —
/// the one-shot front-end of [`PacketArena`].
#[derive(Debug, Clone)]
pub struct PacketSim {
    host: Hypercube,
    flows: Vec<Flow>,
}

/// Sentinel for "no packet" in the intrusive queue links.
const NONE: u32 = u32::MAX;

struct Packet {
    flow: u32,
    seq: u32,
    /// Index into the flow's path: next hop crosses `path[pos] -> path[pos+1]`.
    pos: u32,
}

impl PacketSim {
    /// Creates a simulator for `host` with no flows.
    pub fn new(host: Hypercube) -> Self {
        PacketSim { host, flows: Vec::new() }
    }

    /// Adds one flow; returns its id.
    pub fn add_flow(&mut self, flow: Flow) -> u32 {
        assert!(self.host.is_walk(&flow.path), "flow path must be a hypercube walk");
        self.flows.push(flow);
        (self.flows.len() - 1) as u32
    }

    /// The host cube.
    pub fn host(&self) -> Hypercube {
        self.host
    }

    /// The configured flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Builds the "one phase, `p` packets per guest edge" workload of an
    /// embedding: packets of guest edge `e` are spread round-robin over its
    /// bundle paths (path `i` carries `⌈(p - i)/w⌉` packets), all injected
    /// at step 0. Zero-length paths deliver instantly and are skipped.
    pub fn phase_workload(e: &MultiPathEmbedding, packets_per_edge: u64) -> PacketSim {
        let mut sim = PacketSim::new(e.host);
        for bundle in &e.edge_paths {
            let w = bundle.len() as u64;
            for (i, path) in bundle.iter().enumerate() {
                if path.is_empty() {
                    continue;
                }
                let count = (packets_per_edge + w - 1 - i as u64) / w;
                if count > 0 {
                    sim.add_flow(Flow { path: path.nodes().to_vec(), packets: count });
                }
            }
        }
        sim
    }

    /// Like [`phase_workload`](Self::phase_workload) but restricted to the
    /// first `width` paths of every bundle (to compare narrower variants of
    /// the same embedding).
    pub fn phase_workload_with_width(
        e: &MultiPathEmbedding,
        packets_per_edge: u64,
        width: usize,
    ) -> PacketSim {
        let mut sim = PacketSim::new(e.host);
        for bundle in &e.edge_paths {
            let w = bundle.len().min(width).max(1) as u64;
            for (i, path) in bundle.iter().take(w as usize).enumerate() {
                if path.is_empty() {
                    continue;
                }
                let count = (packets_per_edge + w - 1 - i as u64) / w;
                if count > 0 {
                    sim.add_flow(Flow { path: path.nodes().to_vec(), packets: count });
                }
            }
        }
        sim
    }

    /// Loads the flows into a fresh [`PacketArena`].
    fn arena(&self) -> PacketArena {
        let mut arena = PacketArena::new(self.host);
        let hops = self.flows.iter().map(|f| f.path.len().saturating_sub(1)).sum();
        arena.reserve(self.flows.len(), hops);
        for flow in &self.flows {
            arena.add_flow_walk(&flow.path, flow.packets);
        }
        arena
    }

    /// Runs to completion (or `max_steps`) and reports, firing every
    /// engine event on `rec`; pass
    /// [`NopRecorder`](crate::trace::NopRecorder), which monomorphizes
    /// every hook away, for an uninstrumented run.
    ///
    /// # Panics
    /// Panics if packets remain undelivered after `max_steps` (a stuck
    /// simulation is a bug in the workload, not a measurement).
    pub fn run<R: Recorder>(&self, max_steps: u64, rec: &mut R) -> SimReport {
        self.arena().run(max_steps, rec)
    }

    /// Runs under `plan`: permanent cuts and node faults are fail-stop —
    /// a packet queued at a failed link is dropped (the whole queue of a
    /// failed link drains as drops in one step), reported per flow and via
    /// the [`Recorder::record_drop`] hook; transient outages additionally
    /// restore links ([`LinkEvent::Up`]); and byte-corrupting links flag
    /// every packet that crosses them ([`Recorder::record_corrupt`])
    /// without affecting delivery. With an empty plan the report is
    /// bit-identical to [`run`](Self::run)'s.
    ///
    /// # Panics
    /// Panics if packets remain in flight after `max_steps`.
    pub fn run_planned<R: Recorder>(
        &self,
        max_steps: u64,
        plan: &FaultPlan,
        rec: &mut R,
    ) -> PlanReport {
        let mut arena = self.arena();
        let (report, corrupted) = arena.run_core::<R, true>(max_steps, Some(plan), rec);
        arena.into_plan_report(report, corrupted)
    }

    /// The original engine, kept verbatim as the executable specification:
    /// per-step `Vec`s plus an explicit `(flow, seq)` sort. Property tests
    /// assert [`run`](Self::run) matches it bit for bit; it is not meant
    /// for production use.
    ///
    /// # Panics
    /// Panics if packets remain undelivered after `max_steps`.
    pub fn run_reference(&self, max_steps: u64) -> SimReport {
        let num_links = self.host.num_directed_edges() as usize;
        // Per-link FIFO queues of packets waiting to cross it.
        let mut queues: Vec<VecDeque<Packet>> = (0..num_links).map(|_| VecDeque::new()).collect();
        let mut active: Vec<u32> = Vec::new(); // link indices with waiters
        let mut in_active = vec![false; num_links];

        let mut pending = 0u64;
        let enqueue = |pkt: Packet,
                       flows: &[Flow],
                       queues: &mut Vec<VecDeque<Packet>>,
                       active: &mut Vec<u32>,
                       in_active: &mut Vec<bool>|
         -> bool {
            let path = &flows[pkt.flow as usize].path;
            if (pkt.pos + 1) as usize >= path.len() {
                return false; // delivered
            }
            let from = path[pkt.pos as usize];
            let to = path[pkt.pos as usize + 1];
            let dim = (from ^ to).trailing_zeros();
            let idx = self.host.dir_edge_index(DirEdge::new(from, dim));
            // Keep FIFO order with (flow, seq) priority at insertion: queues
            // are served FIFO; packets are inserted in (flow, seq) order at
            // injection and re-queued on arrival, which preserves
            // determinism.
            queues[idx].push_back(pkt);
            if !in_active[idx] {
                in_active[idx] = true;
                active.push(idx as u32);
            }
            true
        };

        // Inject (flows are already in id order; packets in seq order).
        for (fid, flow) in self.flows.iter().enumerate() {
            for seq in 0..flow.packets {
                let pkt = Packet { flow: fid as u32, seq: seq as u32, pos: 0 };
                if enqueue(pkt, &self.flows, &mut queues, &mut active, &mut in_active) {
                    pending += 1;
                }
            }
        }
        let total_injected: u64 = self.flows.iter().map(|f| f.packets).sum();

        let mut step = 0u64;
        let mut packet_hops = 0u64;
        let mut busy_accum = 0u64;
        let mut max_queue = 0usize;
        while pending > 0 {
            if step >= max_steps {
                panic!("simulation did not finish within {max_steps} steps ({pending} pending)");
            }
            // One packet per active link.
            let mut next_active: Vec<u32> = Vec::with_capacity(active.len());
            let mut moved: Vec<Packet> = Vec::with_capacity(active.len());
            let mut busy = 0u64;
            for &idx in &active {
                let q = &mut queues[idx as usize];
                max_queue = max_queue.max(q.len());
                if let Some(mut pkt) = q.pop_front() {
                    pkt.pos += 1;
                    moved.push(pkt);
                    busy += 1;
                }
                if q.is_empty() {
                    in_active[idx as usize] = false;
                } else {
                    next_active.push(idx);
                }
            }
            packet_hops += busy;
            busy_accum += busy;
            active = next_active;
            // Re-queue moved packets (deterministic order: by link index,
            // which we iterated in insertion order; ties cannot occur since
            // one packet per link per step).
            moved.sort_by_key(|p| (p.flow, p.seq));
            for pkt in moved {
                if !enqueue(pkt, &self.flows, &mut queues, &mut active, &mut in_active) {
                    pending -= 1;
                }
            }
            step += 1;
        }
        SimReport {
            makespan: step,
            delivered: total_injected,
            packet_hops,
            mean_utilization: if step == 0 {
                0.0
            } else {
                busy_accum as f64 / (step as f64 * num_links as f64)
            },
            max_queue,
        }
    }
}

/// The directed-link indices ([`Hypercube::dir_edge_index`]) a walk
/// crosses, in order. The caller has checked the walk.
pub(crate) fn walk_links(host: Hypercube, path: &[Node]) -> impl Iterator<Item = u32> + '_ {
    path.windows(2).map(move |w| {
        host.dir_edge_index(DirEdge::new(w[0], (w[0] ^ w[1]).trailing_zeros())) as u32
    })
}

/// Every buffer the step machine mutates, grouped so a pooled caller
/// ([`PacketArena`]) can keep them alive across runs. Two invariant
/// classes:
///
/// * *Per-run* vectors (fault state, per-flow outcomes, the packet slab)
///   are re-prepared by the caller before each run.
/// * *Link-indexed* machine state (`q_head` … `stage_len`) is prepared
///   once per host and left **clean** by every completed run — all queues
///   empty, all links inactive, all staging buckets flushed — so reuse
///   needs no O(links) reset (`debug_assert`ed in [`engine_core`]).
#[derive(Debug, Clone, Default)]
struct PacketBufs {
    failed: Vec<bool>,
    flow_delivered: Vec<u64>,
    flow_lost: Vec<u64>,
    flow_corrupted: Vec<u64>,
    flow_dropped_at: Vec<u32>,
    flow_corrupted_at: Vec<u32>,
    pkt_flow: Vec<u32>,
    pkt_pos: Vec<u32>,
    pkt_next: Vec<u32>,
    pkt_corrupt: Vec<bool>,
    q_head: Vec<u32>,
    q_tail: Vec<u32>,
    q_len: Vec<u32>,
    active: Vec<u32>,
    in_active: Vec<bool>,
    moved: Vec<u32>,
    touched: Vec<u32>,
    stage: Vec<u32>,
    stage_len: Vec<u8>,
}

/// Aggregate counters [`engine_core`] returns; per-flow outcome vectors
/// stay behind in the [`PacketBufs`] the caller owns.
struct CoreOut {
    steps: u64,
    lost: u64,
    corrupted: u64,
    packet_hops: u64,
    busy_accum: u64,
    max_queue: usize,
}

/// The step machine behind [`PacketArena`]: injection plus the
/// pop/stage/flush loop over the arena's prepared buffers. The caller
/// guarantees the per-run vectors in `bufs` are sized for this workload
/// (see [`PacketBufs`]); nothing in here allocates.
///
/// `PLAN` is the one fault switch. Off, every fault branch below
/// monomorphizes away, so the fault-free loop is exactly the one the
/// engine-equivalence property tests pin against
/// [`PacketSim::run_reference`]. On, the plan's events for step `s` fire
/// at the start of step `s` (a [`LinkEvent::Down`] severs, an
/// [`LinkEvent::Up`] restores); during the pop phase a failed link
/// transmits nothing and instead drops its entire queue (each drop
/// recorded at the current step), and a packet crossing a corrupting
/// link is flagged once. Dropped packets count toward neither `busy` nor
/// `packet_hops`; `max_queue` still observes the doomed queue's depth.
#[allow(clippy::too_many_arguments)]
fn engine_core<R: Recorder, const PLAN: bool>(
    host: &Hypercube,
    flow_off: &[u32],
    hop_links: &[u32],
    flow_packets: &[u64],
    total_injected: u64,
    max_steps: u64,
    plan_events: &[(u64, DirEdge, LinkEvent)],
    corrupting: &[bool],
    bufs: &mut PacketBufs,
    rec: &mut R,
) -> CoreOut {
    assert!(total_injected < u64::from(u32::MAX), "packet slab holds at most u32::MAX - 1");
    let dims = host.dims() as usize;
    let num_flows = flow_off.len() - 1;
    let PacketBufs {
        failed,
        flow_delivered,
        flow_lost,
        flow_corrupted,
        flow_dropped_at,
        flow_corrupted_at,
        pkt_flow,
        pkt_pos,
        pkt_next,
        pkt_corrupt,
        q_head,
        q_tail,
        q_len,
        active,
        in_active,
        moved,
        touched,
        stage,
        stage_len,
    } = bufs;
    debug_assert!(
        active.is_empty()
            && pkt_flow.is_empty()
            && q_head.iter().all(|&h| h == NONE)
            && q_len.iter().all(|&l| l == 0)
            && in_active.iter().all(|&a| !a)
            && stage_len.iter().all(|&l| l == 0),
        "caller handed the engine dirty machine state"
    );
    let mut next_event = 0usize;
    let mut lost = 0u64;
    let mut corrupted = 0u64;

    let push_back =
        |link: usize, pid: u32, q_head: &mut [u32], q_tail: &mut [u32], pkt_next: &mut [u32]| {
            if q_head[link] == NONE {
                q_head[link] = pid;
            } else {
                pkt_next[q_tail[link] as usize] = pid;
            }
            q_tail[link] = pid;
        };

    // Inject (flows in id order, packets in seq order ⇒ slab order).
    let mut pending = 0u64;
    for fid in 0..num_flows {
        let packets = flow_packets[fid];
        rec.record_injection(fid as u32, packets, 0);
        let hops = flow_off[fid + 1] - flow_off[fid];
        for _seq in 0..packets {
            let pid = pkt_flow.len() as u32;
            pkt_flow.push(fid as u32);
            if hops == 0 {
                rec.record_delivery(fid as u32, 0); // delivered instantly
                if PLAN {
                    flow_delivered[fid] += 1;
                }
                continue;
            }
            let link = hop_links[flow_off[fid] as usize] as usize;
            push_back(link, pid, q_head, q_tail, pkt_next);
            rec.record_queue_push(link as u32, 1);
            q_len[link] += 1;
            if !in_active[link] {
                in_active[link] = true;
                active.push(link as u32);
            }
            pending += 1;
        }
    }

    let mut step = 0u64;
    let mut packet_hops = 0u64;
    let mut busy_accum = 0u64;
    let mut max_queue = 0usize;
    while pending > 0 {
        if step >= max_steps {
            panic!("simulation did not finish within {max_steps} steps ({pending} pending)");
        }
        // Fault events for this step fire before anything moves, in
        // insertion order, so a same-step Down-then-Up pair nets out to Up.
        if PLAN {
            while next_event < plan_events.len() && plan_events[next_event].0 <= step {
                let (_, edge, ev) = plan_events[next_event];
                let down = matches!(ev, LinkEvent::Down);
                failed[host.dir_edge_index(edge)] = down;
                failed[host.dir_edge_index(edge.reversed())] = down;
                next_event += 1;
            }
        }
        // Pop phase: one packet per active link; the active list is
        // compacted in place (a link stays active iff still non-empty).
        moved.clear();
        let mut busy = 0u64;
        let mut kept = 0usize;
        for r in 0..active.len() {
            let idx = active[r] as usize;
            let depth = q_len[idx] as usize;
            if depth > max_queue {
                max_queue = depth;
            }
            rec.record_queue_depth(idx as u32, depth);
            if PLAN && failed[idx] {
                // A severed link transmits nothing: its whole queue is
                // lost this step and the link goes quiet.
                let mut pid = q_head[idx];
                while pid != NONE {
                    let f = pkt_flow[pid as usize] as usize;
                    rec.record_drop(f as u32, step);
                    flow_lost[f] += 1;
                    if flow_dropped_at[f] == u32::MAX {
                        flow_dropped_at[f] = idx as u32;
                    }
                    lost += 1;
                    pending -= 1;
                    let nx = pkt_next[pid as usize];
                    pkt_next[pid as usize] = NONE;
                    pid = nx;
                }
                q_head[idx] = NONE;
                q_tail[idx] = NONE;
                q_len[idx] = 0;
                in_active[idx] = false;
                continue;
            }
            let pid = q_head[idx]; // active ⇒ non-empty
            let next = pkt_next[pid as usize];
            q_head[idx] = next;
            pkt_next[pid as usize] = NONE;
            q_len[idx] -= 1;
            pkt_pos[pid as usize] += 1;
            // Crossing a byte-corrupting link taints the packet (once);
            // it still travels and delivers normally.
            if PLAN && corrupting[idx] && !pkt_corrupt[pid as usize] {
                pkt_corrupt[pid as usize] = true;
                corrupted += 1;
                let f = pkt_flow[pid as usize] as usize;
                if flow_corrupted_at[f] == u32::MAX {
                    flow_corrupted_at[f] = idx as u32;
                }
                rec.record_corrupt(pkt_flow[pid as usize], step);
            }
            moved.push(pid);
            busy += 1;
            if next == NONE {
                q_tail[idx] = NONE;
                in_active[idx] = false;
            } else {
                active[kept] = idx as u32;
                kept += 1;
            }
        }
        active.truncate(kept);
        packet_hops += busy;
        busy_accum += busy;
        rec.record_step(step, busy);

        // Stage phase: bucket arrivals by destination link, keeping each
        // bucket id-sorted via sorted insertion (≤ `dims` slots). All
        // pops of a step happen before all re-queues, so per-link
        // arrival order is the only order the FIFOs can observe — and
        // per-bucket ascending ids reproduce exactly what the global
        // (flow, seq) sort produced.
        for &pid in moved.iter() {
            let f = pkt_flow[pid as usize] as usize;
            let pos = pkt_pos[pid as usize];
            if flow_off[f] + pos >= flow_off[f + 1] {
                pending -= 1;
                rec.record_delivery(f as u32, step + 1);
                if PLAN {
                    flow_delivered[f] += 1;
                    if pkt_corrupt[pid as usize] {
                        flow_corrupted[f] += 1;
                    }
                }
                continue;
            }
            let dest = hop_links[(flow_off[f] + pos) as usize] as usize;
            let len = stage_len[dest] as usize;
            let bucket = &mut stage[dest * dims..dest * dims + len + 1];
            let mut i = len;
            while i > 0 && bucket[i - 1] > pid {
                bucket[i] = bucket[i - 1];
                i -= 1;
            }
            bucket[i] = pid;
            if len == 0 {
                touched.push(dest as u32);
            }
            stage_len[dest] += 1;
        }

        // Flush phase: append each bucket (ascending ids) to its FIFO.
        for &t in touched.iter() {
            let dest = t as usize;
            let len = stage_len[dest] as usize;
            for i in 0..len {
                push_back(dest, stage[dest * dims + i], q_head, q_tail, pkt_next);
            }
            rec.record_queue_push(dest as u32, len as u64);
            q_len[dest] += len as u32;
            stage_len[dest] = 0;
            if !in_active[dest] {
                in_active[dest] = true;
                active.push(dest as u32);
            }
        }
        touched.clear();
        step += 1;
    }
    CoreOut { steps: step, lost, corrupted, packet_hops, busy_accum, max_queue }
}

/// The packet engine: all link-indexed machine state is allocated once
/// for a fixed host cube and reused across runs, and flows are loaded as
/// precomputed *directed-link* hop sequences (or node walks, converted on
/// load). Once warmed up (every reusable vector at its steady-state
/// capacity), [`run`](Self::run) and [`run_planned`](Self::run_planned)
/// allocate nothing — a completed run leaves every per-link queue empty
/// and every link inactive, so [`clear`](Self::clear) only truncates the
/// flow arena and no O(links) reset ever happens.
/// `bench/tests/alloc_zero.rs` pins the exact-zero behavior through the
/// tenant engine.
///
/// [`PacketSim`] runs load a fresh arena, so its reports are this
/// engine's by construction.
#[derive(Debug, Clone)]
pub struct PacketArena {
    host: Hypercube,
    flow_off: Vec<u32>,
    hop_links: Vec<u32>,
    flow_packets: Vec<u64>,
    total_injected: u64,
    bufs: PacketBufs,
}

impl PacketArena {
    /// Creates an arena for `host`, allocating the link-indexed machine
    /// state up front.
    pub fn new(host: Hypercube) -> Self {
        let num_links = host.num_directed_edges() as usize;
        let dims = host.dims() as usize;
        PacketArena {
            host,
            flow_off: vec![0],
            hop_links: Vec::new(),
            flow_packets: Vec::new(),
            total_injected: 0,
            bufs: PacketBufs {
                q_head: vec![NONE; num_links],
                q_tail: vec![NONE; num_links],
                q_len: vec![0; num_links],
                active: Vec::with_capacity(num_links),
                in_active: vec![false; num_links],
                moved: Vec::with_capacity(num_links),
                touched: Vec::with_capacity(num_links),
                stage: vec![0; num_links * dims],
                stage_len: vec![0; num_links],
                ..PacketBufs::default()
            },
        }
    }

    /// The host cube.
    pub fn host(&self) -> Hypercube {
        self.host
    }

    /// Number of flows currently loaded.
    pub fn num_flows(&self) -> usize {
        self.flow_packets.len()
    }

    /// Drops all flows so the next round can be loaded. Machine state
    /// needs no touch-up: a completed run left it clean.
    pub fn clear(&mut self) {
        self.flow_off.truncate(1);
        self.hop_links.clear();
        self.flow_packets.clear();
        self.total_injected = 0;
    }

    /// Reserves room for `flows` more flows of `hops` hop links in total,
    /// so loading a round of known size does not grow the flow arena step
    /// by step.
    pub fn reserve(&mut self, flows: usize, hops: usize) {
        self.flow_off.reserve(flows);
        self.flow_packets.reserve(flows);
        self.hop_links.reserve(hops);
    }

    /// Adds one flow as a sequence of directed link indices
    /// ([`Hypercube::dir_edge_index`]) that must chain head-to-tail —
    /// exactly the links [`PacketSim::add_flow`] would derive from the
    /// corresponding node walk. Returns the flow id.
    pub fn add_flow_links(&mut self, links: &[u32], packets: u64) -> u32 {
        debug_assert!(
            links.iter().all(|&l| u64::from(l) < self.host.num_directed_edges()),
            "hop link out of range for this host"
        );
        self.hop_links.extend_from_slice(links);
        self.push_flow(packets)
    }

    /// Adds one flow as a node walk, the pooled form of
    /// [`PacketSim::add_flow`]: the same walk check, with the hop links
    /// derived straight into the arena (no per-flow `Vec`). A zero-hop
    /// walk delivers instantly. Returns the flow id.
    ///
    /// # Panics
    /// Panics if `path` is not a walk in the host cube.
    pub fn add_flow_walk(&mut self, path: &[Node], packets: u64) -> u32 {
        assert!(self.host.is_walk(path), "flow path must be a hypercube walk");
        self.hop_links.extend(walk_links(self.host, path));
        self.push_flow(packets)
    }

    /// Closes the flow whose hops were just appended to `hop_links`.
    fn push_flow(&mut self, packets: u64) -> u32 {
        self.flow_off.push(self.hop_links.len() as u32);
        self.flow_packets.push(packets);
        self.total_injected += packets;
        (self.flow_packets.len() - 1) as u32
    }

    /// Runs the loaded flows fault-free, firing every engine event on
    /// `rec`.
    ///
    /// # Panics
    /// Panics if packets remain undelivered after `max_steps`.
    pub fn run<R: Recorder>(&mut self, max_steps: u64, rec: &mut R) -> SimReport {
        self.run_core::<R, false>(max_steps, None, rec).0
    }

    /// Runs the loaded flows under `plan` (semantics of
    /// [`PacketSim::run_planned`]); per-flow outcomes stay in the arena —
    /// read them via [`flow_delivered`](Self::flow_delivered) /
    /// [`flow_corrupted`](Self::flow_corrupted) /
    /// [`flow_dropped_at`](Self::flow_dropped_at) /
    /// [`flow_corrupted_at`](Self::flow_corrupted_at) — so the steady
    /// state allocates nothing.
    ///
    /// # Panics
    /// Panics if packets remain in flight after `max_steps`.
    pub fn run_planned<R: Recorder>(
        &mut self,
        max_steps: u64,
        plan: &FaultPlan,
        rec: &mut R,
    ) -> SimReport {
        self.run_core::<R, true>(max_steps, Some(plan), rec).0
    }

    /// The one buffer-preparation path: re-prepares the per-run vectors
    /// (the fault state and per-flow outcomes only when `PLAN`), runs
    /// [`engine_core`] and condenses its counters into the machine report,
    /// returned with the number of packets flagged as corrupted.
    fn run_core<R: Recorder, const PLAN: bool>(
        &mut self,
        max_steps: u64,
        plan: Option<&FaultPlan>,
        rec: &mut R,
    ) -> (SimReport, u64) {
        let PacketArena { host, flow_off, hop_links, flow_packets, total_injected, bufs } = self;
        let total = *total_injected as usize;
        let (plan_events, corrupting) = match plan {
            Some(plan) if PLAN => {
                let num_flows = flow_packets.len();
                bufs.failed.clear();
                bufs.failed.extend_from_slice(plan.initial().bits());
                bufs.flow_delivered.clear();
                bufs.flow_delivered.resize(num_flows, 0);
                bufs.flow_lost.clear();
                bufs.flow_lost.resize(num_flows, 0);
                bufs.flow_corrupted.clear();
                bufs.flow_corrupted.resize(num_flows, 0);
                bufs.flow_dropped_at.clear();
                bufs.flow_dropped_at.resize(num_flows, u32::MAX);
                bufs.flow_corrupted_at.clear();
                bufs.flow_corrupted_at.resize(num_flows, u32::MAX);
                bufs.pkt_corrupt.clear();
                bufs.pkt_corrupt.resize(total, false);
                (plan.events(), plan.corrupting_bits())
            }
            _ => (&[][..], &[][..]),
        };
        bufs.pkt_flow.clear();
        bufs.pkt_flow.reserve(total);
        bufs.pkt_pos.clear();
        bufs.pkt_pos.resize(total, 0);
        bufs.pkt_next.clear();
        bufs.pkt_next.resize(total, NONE);
        let out = engine_core::<R, PLAN>(
            host,
            flow_off,
            hop_links,
            flow_packets,
            *total_injected,
            max_steps,
            plan_events,
            corrupting,
            bufs,
            rec,
        );
        let num_links = host.num_directed_edges() as usize;
        let report = SimReport {
            makespan: out.steps,
            delivered: *total_injected - out.lost,
            packet_hops: out.packet_hops,
            mean_utilization: if out.steps == 0 {
                0.0
            } else {
                out.busy_accum as f64 / (out.steps as f64 * num_links as f64)
            },
            max_queue: out.max_queue,
        };
        (report, out.corrupted)
    }

    /// Moves the last planned run's per-flow outcomes out into a
    /// [`PlanReport`] around its machine `report` and `corrupted` count.
    fn into_plan_report(self, report: SimReport, corrupted: u64) -> PlanReport {
        let PacketBufs {
            flow_delivered,
            flow_lost,
            flow_corrupted,
            flow_dropped_at,
            flow_corrupted_at,
            ..
        } = self.bufs;
        PlanReport {
            lost: self.total_injected - report.delivered,
            report,
            corrupted,
            flow_delivered,
            flow_lost,
            flow_corrupted,
            flow_dropped_at,
            flow_corrupted_at,
        }
    }

    /// Copies the last planned run's per-flow outcomes into a [`PlanReport`]
    /// around its `report`; every flow must carry one packet.
    pub(crate) fn single_packet_plan_report(&self, report: SimReport) -> PlanReport {
        debug_assert!(self.flow_packets.iter().all(|&p| p == 1), "one packet per flow");
        let bufs = &self.bufs;
        PlanReport {
            lost: self.total_injected - report.delivered,
            report,
            corrupted: bufs.flow_corrupted_at.iter().filter(|&&at| at != u32::MAX).count() as u64,
            flow_delivered: bufs.flow_delivered.clone(),
            flow_lost: bufs.flow_lost.clone(),
            flow_corrupted: bufs.flow_corrupted.clone(),
            flow_dropped_at: bufs.flow_dropped_at.clone(),
            flow_corrupted_at: bufs.flow_corrupted_at.clone(),
        }
    }

    /// Packets of each flow that arrived in the last
    /// [`run_planned`](Self::run_planned), indexed by flow id.
    pub fn flow_delivered(&self) -> &[u64] {
        &self.bufs.flow_delivered
    }

    /// Packets of each flow that arrived corrupted in the last
    /// [`run_planned`](Self::run_planned), indexed by flow id.
    pub fn flow_corrupted(&self) -> &[u64] {
        &self.bufs.flow_corrupted
    }

    /// Directed link where each flow's first drop happened in the last
    /// [`run_planned`](Self::run_planned) (`u32::MAX` if none) — the
    /// per-hop NACK payload.
    pub fn flow_dropped_at(&self) -> &[u32] {
        &self.bufs.flow_dropped_at
    }

    /// Directed link where each flow first crossed a corrupting link in
    /// the last [`run_planned`](Self::run_planned) (`u32::MAX` if clean).
    pub fn flow_corrupted_at(&self) -> &[u32] {
        &self.bufs.flow_corrupted_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::trace::{CountingRecorder, NopRecorder};
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;

    #[test]
    fn single_packet_single_hop() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1], packets: 1 });
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r.makespan, 1);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.packet_hops, 1);
    }

    #[test]
    fn packets_serialize_on_one_link() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1], packets: 10 });
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r.makespan, 10, "one link, one packet per step");
    }

    #[test]
    fn pipeline_overlaps_hops() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3, 7], packets: 5 });
        let r = sim.run(100, &mut NopRecorder);
        // 3-hop path, 5 packets pipelined: 3 + 4 = 7 steps.
        assert_eq!(r.makespan, 7);
        assert_eq!(r.packet_hops, 15);
    }

    #[test]
    fn contention_is_fair_and_finite() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        // Two flows crossing the same first link.
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 3 });
        sim.add_flow(Flow { path: vec![0, 1, 5], packets: 3 });
        let r = sim.run(100, &mut NopRecorder);
        // 6 packets over the shared link: last crosses at step 6, one more
        // hop: 7.
        assert_eq!(r.makespan, 7);
        assert_eq!(r.delivered, 6);
    }

    #[test]
    fn gray_cycle_m_packet_cost_matches_section2() {
        // Section 2: with the classical embedding, m packets per node need
        // exactly m steps (each node's single outgoing cycle link serializes
        // them; all links work in parallel).
        let e = gray_cycle_embedding(5);
        for m in [1u64, 4, 16] {
            let sim = PacketSim::phase_workload(&e, m);
            let r = sim.run(10_000, &mut NopRecorder);
            assert_eq!(r.makespan, m, "m={m}");
        }
    }

    #[test]
    fn theorem1_workload_beats_gray_by_theta_n() {
        // Free-running (no global schedule) the width-w workload settles at
        // ~2.4·m/w steps (first edges of one bundle contend with middle
        // edges of others when batches overlap); that is still Θ(m/n), and
        // the speedup over the Gray baseline grows with n.
        let m = 64u64;
        let mut ratios = Vec::new();
        for n in [8u32, 12] {
            let gray = gray_cycle_embedding(n);
            let t1 = theorem1(n).unwrap();
            let r_gray =
                PacketSim::phase_workload(&gray, m).run(100_000, &mut NopRecorder).makespan;
            let r_t1 =
                PacketSim::phase_workload(&t1.embedding, m).run(100_000, &mut NopRecorder).makespan;
            assert_eq!(r_gray, m, "n={n}");
            let w = (n / 2) as u64;
            assert!(r_t1 <= 3 * m / w + 8, "n={n}: theorem1 makespan {r_t1} above 3m/w + O(1)");
            ratios.push(r_gray as f64 / r_t1 as f64);
        }
        assert!(ratios[1] > ratios[0], "speedup must grow with n: {ratios:?}");
        assert!(ratios[0] > 1.5, "already a clear win at n=8: {ratios:?}");
    }

    #[test]
    fn utilization_reported() {
        let e = gray_cycle_embedding(4);
        let r = PacketSim::phase_workload(&e, 8).run(10_000, &mut NopRecorder);
        // Only 1/n of links ever busy.
        assert!(r.mean_utilization <= 0.26);
        assert!(r.mean_utilization > 0.2);
    }

    #[test]
    #[should_panic]
    fn stuck_simulation_panics() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1], packets: 100 });
        let _ = sim.run(5, &mut NopRecorder);
    }

    #[test]
    fn engines_agree_on_contended_workload() {
        // Smoke-level old-vs-new equivalence (the exhaustive randomized
        // version lives in tests/props.rs).
        let e = theorem1(6).unwrap().embedding;
        for m in [1u64, 5, 32] {
            let sim = PacketSim::phase_workload(&e, m);
            assert_eq!(sim.run(100_000, &mut NopRecorder), sim.run_reference(100_000), "m={m}");
        }
    }

    #[test]
    fn initial_fault_drops_every_packet_of_the_flow() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 4 });
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, DirEdge::new(0, 0));
        let r = sim.run_planned(100, &FaultPlan::from_set(fs), &mut NopRecorder);
        assert_eq!(r.lost, 4);
        assert_eq!(r.report.delivered, 0);
        assert_eq!(r.flow_lost, vec![4]);
        assert_eq!(r.flow_delivered, vec![0]);
        assert_eq!(r.report.packet_hops, 0, "a severed link transmits nothing");
        assert_eq!(r.report.makespan, 1, "the whole queue drains as drops in one step");
    }

    #[test]
    fn mid_run_fault_splits_a_flow() {
        // Link (0,1) fails at the start of step 2: exactly two packets of
        // the five cross before the cut; the remaining three are dropped.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 5 });
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(2, DirEdge::new(0, 0));
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(r.flow_delivered, vec![2]);
        assert_eq!(r.flow_lost, vec![3]);
        assert_eq!(r.report.delivered, 2);
        assert_eq!(r.lost, 3);
    }

    #[test]
    fn fault_downstream_of_first_hop_drops_in_flight_packets() {
        // The second link of the path is dead from the start: packets
        // cross hop one, then die queued at the severed second link.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 3 });
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, DirEdge::new(1, 1));
        let r = sim.run_planned(100, &FaultPlan::from_set(fs), &mut NopRecorder);
        assert_eq!(r.report.delivered, 0);
        assert_eq!(r.lost, 3);
        assert!(r.report.packet_hops > 0, "packets crossed the healthy first hop");
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let e = theorem1(6).unwrap().embedding;
        let sim = PacketSim::phase_workload(&e, 16);
        let plan = FaultPlan::none(&e.host);
        let pr = sim.run_planned(100_000, &plan, &mut NopRecorder);
        assert_eq!(pr.report, sim.run(100_000, &mut NopRecorder));
        assert_eq!((pr.lost, pr.corrupted), (0, 0));
        assert!(pr.flow_corrupted.iter().all(|&c| c == 0));
        let per_flow: u64 = pr.flow_delivered.iter().sum();
        assert_eq!(per_flow, pr.report.delivered);
    }

    #[test]
    fn transient_outage_drops_only_packets_caught_in_the_window() {
        // Second link of the path is down over [0, 2): the first packet
        // reaches it at step 1 and is dropped with the usual fail-stop
        // queue drain; the link is healthy again from step 2, so every
        // later packet crosses it.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 5 });
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(1, 1), 0, 2);
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(r.lost, 1, "only the packet queued during the outage dies");
        assert_eq!(r.flow_delivered, vec![4]);
        assert_eq!(r.flow_lost, vec![1]);
    }

    #[test]
    fn corrupting_link_taints_without_touching_delivery() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 4 });
        sim.add_flow(Flow { path: vec![4, 5], packets: 2 });
        let mut plan = FaultPlan::none(&host);
        // Two corrupting links on flow 0's path: packets are still flagged
        // only once each.
        plan.corrupt_link(&host, DirEdge::new(0, 0));
        plan.corrupt_link(&host, DirEdge::new(1, 1));
        let mut c = CountingRecorder::new();
        let r = sim.run_planned(100, &plan, &mut c);
        assert_eq!(
            r.report,
            sim.run(100, &mut NopRecorder),
            "corruption must not change the machine run"
        );
        assert_eq!(r.lost, 0);
        assert_eq!(r.corrupted, 4);
        assert_eq!(c.corrupted, 4, "record_corrupt fires once per packet");
        assert_eq!(r.flow_corrupted, vec![4, 0]);
        assert_eq!(r.flow_delivered, vec![4, 2]);
    }

    #[test]
    fn node_fault_plan_kills_flows_through_the_node() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![0, 1, 3], packets: 3 }); // via node 1
        sim.add_flow(Flow { path: vec![4, 6], packets: 2 }); // avoids node 1
        let mut plan = FaultPlan::none(&host);
        plan.cut_node(&host, 1);
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(r.flow_lost, vec![3, 0], "every link into node 1 is severed");
        assert_eq!(r.flow_delivered, vec![0, 2]);
    }

    #[test]
    fn zero_hop_flows_deliver_instantly_in_both_engines() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(Flow { path: vec![4], packets: 3 });
        sim.add_flow(Flow { path: vec![0, 1], packets: 2 });
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r, sim.run_reference(100));
        assert_eq!(r.delivered, 5);
        assert_eq!(r.makespan, 2);
    }
}
