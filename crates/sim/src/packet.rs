//! Store-and-forward packet simulation.
//!
//! Semantics (Section 3's machine): time advances in synchronous steps; in
//! one step every directed link transmits at most one packet. Packets carry
//! fixed precomputed host paths, queue FIFO at each hop, and links
//! arbitrate deterministically (lowest flow id, then injection sequence),
//! so every run is exactly reproducible.
//!
//! [`PacketSim`] is the one engine. Flows are loaded as directed-link hop
//! sequences (node walks are converted on load) into one hop table, each
//! flow closed by a sentinel; packets get slab ids in (flow, seq)
//! injection order, so ascending id *is* the arbitration order. A link's
//! FIFO is ordered by (arrival step, id), and the link serves one packet
//! per step while the FIFO is non-empty. So the engine never builds a
//! queue: a packet that arrives at link `L` at step `a` departs at
//! `max(a, free[L])`, `L` is free again from the departure + 1, and the
//! packet reaches its next link at the departure + 1. The engine visits
//! packets in ascending (arrival step, id) — a calendar ring of due steps
//! feeding an id-ordered ready bitset per step, the wormhole engine's
//! idiom — so every link meets its arrivals in FIFO order, and each packet
//! is visited once per hop. The next-free step is the only per-link
//! state; it is stamped with the run's epoch, so a new run resets nothing.
//! A warmed simulator allocates nothing per run, so one simulator serves a
//! whole sequence of rounds: [`clear`](PacketSim::clear), load, run.
//!
//! The engine's specification, a per-link-FIFO stepper, lives outside the
//! product: `hyperpath_bench::oracle::packet_oracle`.
//!
//! Every run reports to a [`Recorder`] (`sim::trace`); the
//! [`NopRecorder`](crate::trace::NopRecorder) monomorphizes every hook to
//! nothing, so tracing costs nothing when off.
//!
//! The planned runs execute under a [`FaultPlan`]: links severed from the
//! start or mid-run drop the packets queued at them instead of
//! transmitting, transient outages restore links, and byte-corrupting
//! links flag the packets that cross them — totalled in a [`PlanReport`]
//! and read per flow through the simulator's accessors. The plan is known
//! up front, so a run builds each evented link's failure windows once and
//! settles a packet's fate when it arrives: it is dropped at the first
//! failed step of `[arrival, departure]`, with the rest of the queue that
//! failure drains, and a corrupting link taints it at its departure. The
//! fault logic is one `const`-generic switch on the one engine, so the
//! fault-free path compiles to exactly the code the equivalence tests pin.

use crate::faults::{FaultPlan, LinkEvent};
use crate::trace::Recorder;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_topology::{DirEdge, Hypercube, Node};

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
/// report plus loss and corruption totals. Per-flow outcomes stay in the
/// simulator ([`PacketSim::flow_delivered`] and its siblings). Corrupting
/// links never affect delivery — a corrupted packet still arrives — while
/// `corrupted` counts every packet flagged, including ones later dropped
/// on a failed link. The default is the report of a run with no flows.
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
}

/// Closes every flow's hops in the hop table.
const END: u32 = u32::MAX;
/// "No packet" in the calendar lists.
const NONE: u32 = u32::MAX;
/// A per-link value at or above this names a [`Side`] record (`SIDE +`
/// its index); below it, it is the step from which the link is free. So a
/// run counts its steps below `SIDE`.
const SIDE: u32 = 1 << 31;
/// The high half of a per-link word: the epoch of the run that wrote it.
const EPOCH: u64 = !(u32::MAX as u64);
/// `pkt_hop` flag: the packet crossed a corrupting link.
const TAINT: u32 = 1 << 31;
/// `pkt_hop` flag: the packet's next visit drops it.
const DROP: u32 = 1 << 30;
/// `pkt_hop` flag: the packet's next visit is its departure across a
/// corrupting link.
const DEPART: u32 = 1 << 29;
/// The `pkt_hop` bits holding the hop-table index.
const HOP: u32 = DEPART - 1;

/// The directed-link indices ([`Hypercube::dir_edge_index`]) a walk
/// crosses, in order. The caller has checked the walk.
pub(crate) fn walk_links(host: Hypercube, path: &[Node]) -> impl Iterator<Item = u32> + '_ {
    path.windows(2).map(move |w| {
        host.dir_edge_index(DirEdge::new(w[0], (w[0] ^ w[1]).trailing_zeros())) as u32
    })
}

/// A link a planned run may fail, or one that corrupts: its next-free
/// step, the queue a failure is draining, its failure windows and its
/// corruption bit. Links without events that are healthy and clean keep
/// their next-free step in the per-link word instead.
#[derive(Debug, Clone)]
struct Side {
    /// The step from which the link is free.
    free: u64,
    /// The step at which a failure drains the link's queue.
    drain_at: u64,
    /// Packets dropped at `drain_at` so far (0: no queue is draining).
    drained: u64,
    /// `windows[lo..hi]`: the link's failure windows, ascending.
    lo: u32,
    hi: u32,
    corrupting: bool,
}

/// Whether a link with failure windows `windows` (`[from, until)`
/// ascending, disjoint) is down at `step`.
fn failed_at(windows: &[(u64, u64)], step: u64) -> bool {
    let i = windows.partition_point(|&(_, until)| until <= step);
    windows.get(i).is_some_and(|&(from, _)| from <= step)
}

/// Every buffer the engine mutates, grouped so a [`PacketSim`] can keep
/// them alive across runs. `free` is link-indexed and allocated once per
/// host; an epoch stamp retires a run's words when the next run starts,
/// so nothing is reset per link. Everything else is per run and
/// re-prepared before each run.
#[derive(Debug, Clone, Default)]
struct PacketBufs {
    /// Per directed link: in the high half ([`EPOCH`]) the epoch of the
    /// run that wrote it; in the low half the step from which the link is
    /// free, or `SIDE +` its [`Side`] index. A word of an older epoch
    /// reads "free from step 0, no side".
    free: Vec<u64>,
    epoch: u32,
    sides: Vec<Side>,
    /// Failure windows `[from, until)` of the sides, grouped per side.
    windows: Vec<(u64, u64)>,
    /// Scratch: `(link, event index, step, down)` per directed link a
    /// plan event touches.
    events: Vec<(u32, u32, u64, bool)>,
    flow_delivered: Vec<u64>,
    flow_lost: Vec<u64>,
    flow_corrupted: Vec<u64>,
    flow_dropped_at: Vec<u32>,
    flow_corrupted_at: Vec<u32>,
    /// Per packet: its flow (only when a run reports per flow).
    pkt_flow: Vec<u32>,
    /// Per packet: the hop-table index of the link it is at (its
    /// destination's sentinel once it crossed the last), plus flags.
    pkt_hop: Vec<u32>,
    /// Per packet: the next packet in the same calendar slot.
    pkt_next: Vec<u32>,
    /// Bitset over packet ids: the packets the current step visits.
    ready: Vec<u64>,
    /// Calendar ring, slot `step % len`: the packets due at `step`.
    due: Vec<u32>,
    /// Ring like `due`: the packets departing at each step (recorded runs
    /// only).
    busy: Vec<u64>,
}

/// Aggregate counters [`Core::run`] returns; per-flow outcome vectors
/// stay behind in the [`PacketBufs`] the caller owns.
#[derive(Debug, Default)]
struct CoreOut {
    steps: u64,
    lost: u64,
    corrupted: u64,
    packet_hops: u64,
    max_queue: usize,
}

/// The engine behind [`PacketSim`], over prepared buffers (see
/// [`PacketSim::run_core`]); nothing in here allocates except a planned
/// run's side records, which a warmed simulator reuses.
///
/// A step visits its ready packets in ascending id. A packet is visited
/// at every link it arrives at, and it leaves its departure in the link's
/// next-free step; so each link meets its arrivals in FIFO order, and a
/// departure is `max(arrival, free)`. The packet then comes up again at
/// the departure + 1, at its next link. A recorded run also visits it on
/// arrival at its destination, so that its delivery fires in that step;
/// an unrecorded run settles the delivery at the last departure.
///
/// `PLAN` is the one fault switch. Off, every fault branch monomorphizes
/// away. On, a packet arriving at a failed or corrupting link (a [`Side`])
/// has its fate settled on arrival. The link serves without a pause from
/// the arrival to the departure, and a packet served before it saw no
/// failure over that stretch up to the departure − 1. So the packet is
/// dropped iff the link is down at its departure step, and the failure
/// then drains the whole queue: every later arrival up to that step is
/// dropped too, and the link is free from the next step. A drop or a
/// departure across a corrupting link that lies ahead is kept for a visit
/// in its own step, so per-flow firsts go to the earliest (step, id).
/// Dropped packets count toward neither `busy` nor `packet_hops`;
/// `max_queue` still observes the doomed queue's depth.
struct Core<'a, R, const PLAN: bool> {
    hop_links: &'a [u32],
    initial: &'a [bool],
    corrupting: &'a [bool],
    b: &'a mut PacketBufs,
    rec: &'a mut R,
    max_steps: u64,
    /// The first step no packet may depart at: `max_steps`, capped by
    /// the steps a per-link word holds.
    step_cap: u64,
    /// The run's epoch, shifted into [`EPOCH`].
    stamp: u64,
    /// The step being visited, and its calendar slot.
    t: u64,
    slot: usize,
    /// One past the last step at which a packet departs or drops.
    end: u64,
    out: CoreOut,
}

impl<R: Recorder, const PLAN: bool> Core<'_, R, PLAN> {
    /// Runs the step loop to the makespan.
    fn run(mut self) -> CoreOut {
        let (mut lo, mut hi) = (0, self.b.ready.len());
        loop {
            for word in lo..hi {
                let mut bits = std::mem::take(&mut self.b.ready[word]);
                while bits != 0 {
                    self.visit(word * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            if self.end <= self.t {
                break;
            }
            if !R::IS_NOP {
                let busy = std::mem::take(&mut self.b.busy[self.slot]);
                self.rec.record_step(self.t, busy);
            }
            self.t += 1;
            self.slot = if self.slot + 1 == self.b.due.len() { 0 } else { self.slot + 1 };
            // The packets due at the new step make up its ready set: the
            // ones filed a step ago, then the calendar's.
            (lo, hi) = (usize::MAX, 0);
            let mut p = std::mem::replace(&mut self.b.due[self.slot], NONE);
            while p != NONE {
                let word = p as usize / 64;
                self.b.ready[word] |= 1 << (p % 64);
                (lo, hi) = (lo.min(word), hi.max(word + 1));
                p = self.b.pkt_next[p as usize];
            }
        }
        self.out.steps = self.end;
        self.out
    }

    /// Visits packet `p` in step `t`: a kept drop or departure, a
    /// delivery, or an arrival at the link of its next hop.
    #[inline]
    fn visit(&mut self, p: usize) {
        let state = self.b.pkt_hop[p];
        let h = (state & HOP) as usize;
        let link = self.hop_links[h];
        if PLAN && state & (DROP | DEPART) != 0 {
            if state & DROP != 0 {
                self.drop_packet(p, link);
            } else {
                self.taint(p, link);
                self.cross(p, h, self.t);
            }
            return;
        }
        if !R::IS_NOP && link == END {
            self.deliver(p, self.t);
            return;
        }
        let t = self.t;
        let word = self.b.free[link as usize];
        let value = if word & EPOCH == self.stamp {
            word as u32
        } else if PLAN {
            self.first_touch(link as usize)
        } else {
            0
        };
        if !PLAN || value < SIDE {
            let d = t.max(u64::from(value));
            self.depart(d);
            self.b.free[link as usize] = self.stamp | (d + 1);
            self.joined(link, d - t + 1);
            self.cross(p, h, d);
            return;
        }
        let Side { free, drain_at, drained, lo, hi, corrupting } =
            self.b.sides[(value - SIDE) as usize];
        if drained > 0 && t <= drain_at {
            // The queue this packet joins is drained at `drain_at`: it
            // waits behind the packets served until then and the ones
            // already dropped, and is dropped with them.
            self.b.sides[(value - SIDE) as usize].drained += 1;
            self.joined(link, drain_at - t + drained + 1);
            self.doom(p, state, drain_at);
            return;
        }
        let d = t.max(free);
        self.check(d);
        self.joined(link, d - t + 1);
        let down = failed_at(&self.b.windows[lo as usize..hi as usize], d);
        let side = &mut self.b.sides[(value - SIDE) as usize];
        side.free = d + 1;
        if down {
            (side.drain_at, side.drained) = (d, 1);
            self.doom(p, state, d);
        } else if corrupting && state & TAINT == 0 {
            self.depart(d);
            if d == t {
                self.taint(p, link);
                self.cross(p, h, d);
            } else {
                self.b.pkt_hop[p] = state | DEPART;
                self.schedule(p, d);
            }
        } else {
            self.depart(d);
            self.cross(p, h, d);
        }
    }

    /// A planned run's first touch of `link`: the per-link word gets a
    /// side if the link is down from the start or corrupts, and a
    /// next-free step of 0 otherwise. Links with plan events got their
    /// side before the run.
    fn first_touch(&mut self, link: usize) -> u32 {
        let (down, corrupting) = (self.initial[link], self.corrupting[link]);
        let value = if down || corrupting {
            let lo = self.b.windows.len() as u32;
            if down {
                self.b.windows.push((0, u64::MAX));
            }
            let hi = self.b.windows.len() as u32;
            self.b.sides.push(Side { free: 0, drain_at: 0, drained: 0, lo, hi, corrupting });
            SIDE + (self.b.sides.len() - 1) as u32
        } else {
            0
        };
        self.b.free[link] = self.stamp | u64::from(value);
        value
    }

    /// Panics unless departure step `d` lies within `max_steps` (and
    /// within the engine's step range).
    #[inline]
    fn check(&self, d: u64) {
        if d >= self.step_cap {
            stuck(self.max_steps, d);
        }
    }

    /// Counts a departure at step `d`.
    #[inline]
    fn depart(&mut self, d: u64) {
        self.check(d);
        self.end = self.end.max(d + 1);
        self.out.packet_hops += 1;
        if !R::IS_NOP {
            let s = self.slot_of(d);
            self.b.busy[s] += 1;
        }
    }

    /// The packet joined the queue of `link` at length `depth`, counting
    /// itself.
    #[inline]
    fn joined(&mut self, link: u32, depth: u64) {
        self.out.max_queue = self.out.max_queue.max(depth as usize);
        self.rec.record_queue_push(link, 1);
        self.rec.record_queue_depth(link, depth as usize);
    }

    /// The packet crossed the link of hop `h` at step `d`: it arrives at
    /// its next link (or its destination) at `d + 1`.
    #[inline]
    fn cross(&mut self, p: usize, h: usize, d: u64) {
        let next = h as u32 + 1;
        if R::IS_NOP && self.hop_links[next as usize] == END {
            self.deliver(p, d + 1);
            return;
        }
        self.b.pkt_hop[p] = if PLAN { next | (self.b.pkt_hop[p] & TAINT) } else { next };
        self.schedule(p, d + 1);
    }

    /// Packet `p` arrived at its destination at `step`.
    #[inline]
    fn deliver(&mut self, p: usize, step: u64) {
        if PLAN || !R::IS_NOP {
            let f = self.b.pkt_flow[p];
            self.rec.record_delivery(f, step);
            if PLAN {
                self.b.flow_delivered[f as usize] += 1;
                if self.b.pkt_hop[p] & TAINT != 0 {
                    self.b.flow_corrupted[f as usize] += 1;
                }
            }
        }
    }

    /// Packet `p` (hop state `state`) is dropped at step `s`: now, or on a
    /// visit kept for that step.
    fn doom(&mut self, p: usize, state: u32, s: u64) {
        self.end = self.end.max(s + 1);
        if s == self.t {
            let link = self.hop_links[(state & HOP) as usize];
            self.drop_packet(p, link);
        } else {
            self.b.pkt_hop[p] = state | DROP;
            self.schedule(p, s);
        }
    }

    /// Drops packet `p` on `link` in step `t`.
    fn drop_packet(&mut self, p: usize, link: u32) {
        let f = self.b.pkt_flow[p];
        self.rec.record_drop(f, self.t);
        self.b.flow_lost[f as usize] += 1;
        if self.b.flow_dropped_at[f as usize] == u32::MAX {
            self.b.flow_dropped_at[f as usize] = link;
        }
        self.out.lost += 1;
    }

    /// Packet `p` crosses corrupting `link` in step `t`, untainted so far.
    fn taint(&mut self, p: usize, link: u32) {
        let f = self.b.pkt_flow[p];
        self.b.pkt_hop[p] |= TAINT;
        self.out.corrupted += 1;
        if self.b.flow_corrupted_at[f as usize] == u32::MAX {
            self.b.flow_corrupted_at[f as usize] = link;
        }
        self.rec.record_corrupt(f, self.t);
    }

    /// The ring slot of `step`, which lies less than a ring ahead of `t`.
    #[inline]
    fn slot_of(&self, step: u64) -> usize {
        let s = self.slot + (step - self.t) as usize;
        if s >= self.b.due.len() {
            s - self.b.due.len()
        } else {
            s
        }
    }

    /// Files packet `p` for a visit at step `at` (`at > t`).
    #[inline]
    fn schedule(&mut self, p: usize, at: u64) {
        let s = self.slot_of(at);
        self.b.pkt_next[p] = self.b.due[s];
        self.b.due[s] = p as u32;
    }
}

/// The `max_steps` panic: a packet would depart at step `d`.
#[cold]
#[inline(never)]
fn stuck(max_steps: u64, d: u64) -> ! {
    if d >= max_steps {
        panic!("simulation did not finish within {max_steps} steps (a packet departs at step {d})");
    }
    panic!("packet engine counts steps below 2^31, and a packet departs at step {d}");
}

impl PacketBufs {
    /// Gives every directed link a plan event touches a [`Side`] with its
    /// failure windows, stamped into its per-link word. Events fire at the
    /// start of their step in plan order, so a same-step Down-then-Up
    /// leaves no window.
    fn build_sides(&mut self, host: &Hypercube, plan: &FaultPlan, stamp: u64) {
        let PacketBufs { free, sides, windows, events, .. } = self;
        sides.clear();
        windows.clear();
        events.clear();
        for (i, &(step, edge, ev)) in plan.events().iter().enumerate() {
            for link in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                events.push((link as u32, i as u32, step, ev == LinkEvent::Down));
            }
        }
        events.sort_unstable();
        for run in events.chunk_by(|a, b| a.0 == b.0) {
            let link = run[0].0 as usize;
            let lo = windows.len() as u32;
            let mut down_since = plan.initial().bits()[link].then_some(0);
            for &(_, _, step, down) in run {
                match (down, down_since) {
                    (true, None) => down_since = Some(step),
                    (false, Some(from)) => {
                        if step > from {
                            windows.push((from, step));
                        }
                        down_since = None;
                    }
                    _ => {}
                }
            }
            if let Some(from) = down_since {
                windows.push((from, u64::MAX));
            }
            let hi = windows.len() as u32;
            let corrupting = plan.corrupting_bits()[link];
            free[link] = stamp | u64::from(SIDE + sides.len() as u32);
            sides.push(Side { free: 0, drain_at: 0, drained: 0, lo, hi, corrupting });
        }
    }
}

/// The packet simulator for one host cube. The per-link next-free words
/// are allocated once, in [`new`](Self::new), and reused across runs;
/// flows are loaded as precomputed *directed-link* hop sequences
/// ([`add_flow_links`](Self::add_flow_links)) or as node walks
/// ([`add_flow`](Self::add_flow), converted on load). Once warmed up
/// (every reusable vector at its steady-state capacity),
/// [`run`](Self::run) and [`run_planned`](Self::run_planned) allocate
/// nothing — a run retires the last run's per-link words by bumping an
/// epoch, so [`clear`](Self::clear) only truncates the flow arena and no
/// O(links) reset ever happens. `bench/tests/alloc_zero.rs` pins the
/// exact-zero behavior for a warmed run and for a warmed tenant round.
#[derive(Debug, Clone)]
pub struct PacketSim {
    host: Hypercube,
    /// Flow `f`'s hops start at `hop_links[flow_off[f]]` and run up to
    /// the [`END`] sentinel at `flow_off[f + 1] - 1`.
    flow_off: Vec<u32>,
    hop_links: Vec<u32>,
    flow_packets: Vec<u64>,
    total_injected: u64,
    bufs: PacketBufs,
}

impl PacketSim {
    /// Creates a simulator for `host` with no flows, allocating the
    /// per-link next-free words up front.
    pub fn new(host: Hypercube) -> Self {
        let num_links = host.num_directed_edges() as usize;
        PacketSim {
            host,
            flow_off: vec![0],
            hop_links: Vec::new(),
            flow_packets: Vec::new(),
            total_injected: 0,
            bufs: PacketBufs { free: vec![0; num_links], ..PacketBufs::default() },
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

    /// Drops all flows so the next round can be loaded. The per-link
    /// words need no touch-up: the next run's epoch retires them.
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
        self.hop_links.reserve(hops + flows);
    }

    /// Builds the "one phase, `p` packets per guest edge" workload of an
    /// embedding: packets of guest edge `e` are spread round-robin over its
    /// bundle paths (path `i` carries `⌈(p - i)/w⌉` packets), all injected
    /// at step 0. Zero-length paths deliver instantly and are skipped.
    pub fn phase_workload(e: &MultiPathEmbedding, packets_per_edge: u64) -> PacketSim {
        Self::phase_workload_with_width(e, packets_per_edge, usize::MAX)
    }

    /// Like [`phase_workload`](Self::phase_workload) but restricted to the
    /// first `width` paths of every bundle (to compare narrower variants of
    /// the same embedding). The flows are counted first, so they load into
    /// exactly reserved room.
    pub fn phase_workload_with_width(
        e: &MultiPathEmbedding,
        packets_per_edge: u64,
        width: usize,
    ) -> PacketSim {
        let flows = || Self::phase_flows(e, packets_per_edge, width);
        let (num, hops) =
            flows().fold((0, 0), |(num, hops), (path, _)| (num + 1, hops + path.len() - 1));
        let mut sim = PacketSim::new(e.host);
        sim.reserve(num, hops);
        for (path, packets) in flows() {
            sim.add_flow(path, packets);
        }
        sim
    }

    /// The flows [`phase_workload_with_width`](Self::phase_workload_with_width)
    /// loads, in load order: each path's node walk and its packet count.
    pub fn phase_flows(
        e: &MultiPathEmbedding,
        packets_per_edge: u64,
        width: usize,
    ) -> impl Iterator<Item = (&[Node], u64)> {
        // Path `i` of a `w`-path bundle carries ⌈(p - i)/w⌉ packets, so
        // it carries some exactly when `i < p`.
        e.edge_paths.iter().flat_map(move |bundle| {
            let w = bundle.len().min(width).max(1) as u64;
            let paths = bundle.iter().take(w as usize).enumerate();
            paths
                .filter(move |&(i, path)| !path.is_empty() && (i as u64) < packets_per_edge)
                .map(move |(i, path)| (path.nodes(), (packets_per_edge + w - 1 - i as u64) / w))
        })
    }

    /// Adds one flow as a sequence of directed link indices
    /// ([`Hypercube::dir_edge_index`]) that must chain head-to-tail —
    /// exactly the links [`add_flow`](Self::add_flow) derives from the
    /// corresponding node walk. Returns the flow id.
    pub fn add_flow_links(&mut self, links: &[u32], packets: u64) -> u32 {
        debug_assert!(
            links.iter().all(|&l| u64::from(l) < self.host.num_directed_edges()),
            "hop link out of range for this host"
        );
        self.hop_links.extend_from_slice(links);
        self.push_flow(packets)
    }

    /// Adds one flow: `packets` packets injected at step 0, every packet
    /// following the node walk `path` (consecutive nodes host-adjacent),
    /// whose hop links are derived straight into the simulator. Packets of
    /// later flows queue behind earlier ones on shared links, and a
    /// zero-hop walk delivers instantly. Returns the flow id.
    ///
    /// # Panics
    /// Panics if `path` is not a walk in the host cube.
    pub fn add_flow(&mut self, path: &[Node], packets: u64) -> u32 {
        assert!(self.host.is_walk(path), "flow path must be a hypercube walk");
        self.hop_links.extend(walk_links(self.host, path));
        self.push_flow(packets)
    }

    /// Closes the flow whose hops were just appended to `hop_links`.
    fn push_flow(&mut self, packets: u64) -> u32 {
        self.hop_links.push(END);
        self.flow_off.push(self.hop_links.len() as u32);
        self.flow_packets.push(packets);
        self.total_injected += packets;
        (self.flow_packets.len() - 1) as u32
    }

    /// Runs the loaded flows to completion (or `max_steps`) and reports,
    /// firing every engine event on `rec`; pass
    /// [`NopRecorder`](crate::trace::NopRecorder), which monomorphizes
    /// every hook away, for an uninstrumented run. The flows stay loaded,
    /// so the same workload can run again.
    ///
    /// # Panics
    /// Panics if packets remain undelivered after `max_steps` (a stuck
    /// simulation is a bug in the workload, not a measurement).
    pub fn run<R: Recorder>(&mut self, max_steps: u64, rec: &mut R) -> SimReport {
        self.run_core::<R, false>(max_steps, None, rec).0
    }

    /// Runs the loaded flows under `plan`: permanent cuts and node faults
    /// are fail-stop — a packet queued at a failed link is dropped (the
    /// whole queue of a failed link drains as drops in one step) and
    /// reported via the [`Recorder::record_drop`] hook; transient outages
    /// additionally restore links ([`LinkEvent::Up`]); and byte-corrupting
    /// links flag every packet that crosses them
    /// ([`Recorder::record_corrupt`]) without affecting delivery. With an
    /// empty plan the report is bit-identical to [`run`](Self::run)'s.
    /// Per-flow outcomes stay in the simulator — read them via
    /// [`flow_delivered`](Self::flow_delivered) /
    /// [`flow_lost`](Self::flow_lost) /
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
    ) -> PlanReport {
        let (report, corrupted) = self.run_core::<R, true>(max_steps, Some(plan), rec);
        PlanReport { lost: self.total_injected - report.delivered, report, corrupted }
    }

    /// The one buffer-preparation path: stamps a new epoch, lays out the
    /// packet slab, the ready set and the calendar ring (and, when `PLAN`,
    /// the per-flow outcomes and the side of every link with plan events),
    /// runs the [`Core`] and condenses its counters into the machine
    /// report, returned with the number of packets flagged as corrupted.
    fn run_core<R: Recorder, const PLAN: bool>(
        &mut self,
        max_steps: u64,
        plan: Option<&FaultPlan>,
        rec: &mut R,
    ) -> (SimReport, u64) {
        let PacketSim { host, flow_off, hop_links, flow_packets, total_injected, bufs: b } = self;
        assert!(hop_links.len() <= HOP as usize, "hop table holds at most 2^29 - 1 hops");
        b.epoch = b.epoch.wrapping_add(1);
        if b.epoch == 0 {
            b.free.fill(0);
            b.epoch = 1;
        }
        let stamp = u64::from(b.epoch) << 32;
        let num_flows = flow_packets.len();
        let (initial, corrupting) = match plan {
            Some(plan) if PLAN => {
                b.flow_delivered.clear();
                b.flow_delivered.resize(num_flows, 0);
                b.flow_lost.clear();
                b.flow_lost.resize(num_flows, 0);
                b.flow_corrupted.clear();
                b.flow_corrupted.resize(num_flows, 0);
                b.flow_dropped_at.clear();
                b.flow_dropped_at.resize(num_flows, u32::MAX);
                b.flow_corrupted_at.clear();
                b.flow_corrupted_at.resize(num_flows, u32::MAX);
                b.build_sides(host, plan, stamp);
                (plan.initial().bits(), plan.corrupting_bits())
            }
            _ => (&[][..], &[][..]),
        };

        // Inject: flows in id order, packets in seq order ⇒ slab order.
        // A zero-hop flow delivers instantly and takes no slab ids.
        let per_flow = PLAN || !R::IS_NOP;
        let total = *total_injected as usize;
        b.pkt_hop.clear();
        b.pkt_hop.reserve(total);
        b.pkt_flow.clear();
        if per_flow {
            b.pkt_flow.reserve(total);
        }
        for (fid, &packets) in flow_packets.iter().enumerate() {
            rec.record_injection(fid as u32, packets, 0);
            let first = flow_off[fid];
            if hop_links[first as usize] != END {
                b.pkt_hop.extend(std::iter::repeat_n(first, packets as usize));
                if per_flow {
                    b.pkt_flow.extend(std::iter::repeat_n(fid as u32, packets as usize));
                }
                continue;
            }
            for _ in 0..packets {
                rec.record_delivery(fid as u32, 0);
            }
            if PLAN {
                b.flow_delivered[fid] = packets;
            }
        }
        let packets = b.pkt_hop.len();
        assert!(packets < NONE as usize, "packet slab holds at most u32::MAX - 1");
        b.pkt_next.clear();
        b.pkt_next.resize(packets, NONE);
        // Every packet is ready for step 0.
        b.ready.clear();
        b.ready.resize(packets.div_ceil(64), u64::MAX);
        if packets % 64 != 0 {
            b.ready[packets / 64] = (1 << (packets % 64)) - 1;
        }
        // A packet waits at most behind every other packet, and no step
        // past `max_steps` is ever filed, so every due step lies less than
        // `min(packets, max_steps) + 1` steps ahead.
        let ring = (packets as u64).min(max_steps) as usize + 1;
        b.due.clear();
        b.due.resize(ring, NONE);
        if !R::IS_NOP {
            b.busy.clear();
            b.busy.resize(ring, 0);
        }
        let out = Core::<R, PLAN> {
            hop_links,
            initial,
            corrupting,
            b,
            rec,
            max_steps,
            step_cap: max_steps.min(u64::from(SIDE - 1)),
            stamp,
            t: 0,
            slot: 0,
            end: 0,
            out: CoreOut::default(),
        }
        .run();
        let num_links = host.num_directed_edges() as usize;
        let report = SimReport {
            makespan: out.steps,
            delivered: *total_injected - out.lost,
            packet_hops: out.packet_hops,
            mean_utilization: if out.steps == 0 {
                0.0
            } else {
                out.packet_hops as f64 / (out.steps as f64 * num_links as f64)
            },
            max_queue: out.max_queue,
        };
        (report, out.corrupted)
    }

    /// Packets of each flow that arrived in the last
    /// [`run_planned`](Self::run_planned), indexed by flow id.
    pub fn flow_delivered(&self) -> &[u64] {
        &self.bufs.flow_delivered
    }

    /// Packets of each flow dropped on failed links in the last
    /// [`run_planned`](Self::run_planned), indexed by flow id.
    pub fn flow_lost(&self) -> &[u64] {
        &self.bufs.flow_lost
    }

    /// Packets of each flow that arrived with a corrupted payload in the
    /// last [`run_planned`](Self::run_planned), indexed by flow id; never
    /// more than the flow's [`flow_delivered`](Self::flow_delivered).
    pub fn flow_corrupted(&self) -> &[u64] {
        &self.bufs.flow_corrupted
    }

    /// Directed-link index ([`Hypercube::dir_edge_index`]) where each
    /// flow's *first* packet drop happened in the last
    /// [`run_planned`](Self::run_planned), `u32::MAX` if none was dropped.
    /// "First" is the earliest drop by (step, packet id); it only matters
    /// for flows of several packets. This is exactly what a per-hop NACK
    /// would carry, so oracle-free health learners (`sim::tenants`) can
    /// attribute losses without consulting the plan.
    pub fn flow_dropped_at(&self) -> &[u32] {
        &self.bufs.flow_dropped_at
    }

    /// Directed-link index of the first corrupting link one of each flow's
    /// packets crossed in the last [`run_planned`](Self::run_planned),
    /// `u32::MAX` if the flow stayed clean — the per-hop CRC-trailer
    /// analogue of [`flow_dropped_at`](Self::flow_dropped_at), with the
    /// same earliest-(step, packet id) rule.
    pub fn flow_corrupted_at(&self) -> &[u32] {
        &self.bufs.flow_corrupted_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::trace::{CountingRecorder, NopRecorder, TraceRecorder};
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;

    #[test]
    fn single_packet_single_hop() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1], 1);
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r.makespan, 1);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.packet_hops, 1);
    }

    #[test]
    fn packets_serialize_on_one_link() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1], 10);
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r.makespan, 10, "one link, one packet per step");
    }

    #[test]
    fn pipeline_overlaps_hops() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3, 7], 5);
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
        sim.add_flow(&[0, 1, 3], 3);
        sim.add_flow(&[0, 1, 5], 3);
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
            let r = PacketSim::phase_workload(&e, m).run(10_000, &mut NopRecorder);
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
        sim.add_flow(&[0, 1], 100);
        let _ = sim.run(5, &mut NopRecorder);
    }

    #[test]
    fn initial_fault_drops_every_packet_of_the_flow() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 4);
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, DirEdge::new(0, 0));
        let r = sim.run_planned(100, &FaultPlan::from_set(fs), &mut NopRecorder);
        assert_eq!(r.lost, 4);
        assert_eq!(r.report.delivered, 0);
        assert_eq!(sim.flow_lost(), [4]);
        assert_eq!(sim.flow_delivered(), [0]);
        assert_eq!(r.report.packet_hops, 0, "a severed link transmits nothing");
        assert_eq!(r.report.makespan, 1, "the whole queue drains as drops in one step");
    }

    #[test]
    fn mid_run_fault_splits_a_flow() {
        // Link (0,1) fails at the start of step 2: exactly two packets of
        // the five cross before the cut; the remaining three are dropped.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 5);
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(2, DirEdge::new(0, 0));
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(sim.flow_delivered(), [2]);
        assert_eq!(sim.flow_lost(), [3]);
        assert_eq!(r.report.delivered, 2);
        assert_eq!(r.lost, 3);
    }

    #[test]
    fn fault_downstream_of_first_hop_drops_in_flight_packets() {
        // The second link of the path is dead from the start: packets
        // cross hop one, then die queued at the severed second link.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 3);
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
        let mut sim = PacketSim::phase_workload(&e, 16);
        let plan = FaultPlan::none(&e.host);
        let pr = sim.run_planned(100_000, &plan, &mut NopRecorder);
        assert_eq!((pr.lost, pr.corrupted), (0, 0));
        assert!(sim.flow_corrupted().iter().all(|&c| c == 0));
        let per_flow: u64 = sim.flow_delivered().iter().sum();
        assert_eq!(per_flow, pr.report.delivered);
        assert_eq!(pr.report, sim.run(100_000, &mut NopRecorder));
    }

    #[test]
    fn transient_outage_drops_only_packets_caught_in_the_window() {
        // Second link of the path is down over [0, 2): the first packet
        // reaches it at step 1 and is dropped with the usual fail-stop
        // queue drain; the link is healthy again from step 2, so every
        // later packet crosses it.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 5);
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(1, 1), 0, 2);
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(r.lost, 1, "only the packet queued during the outage dies");
        assert_eq!(sim.flow_delivered(), [4]);
        assert_eq!(sim.flow_lost(), [1]);
    }

    #[test]
    fn corrupting_link_taints_without_touching_delivery() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 4);
        sim.add_flow(&[4, 5], 2);
        let mut plan = FaultPlan::none(&host);
        // Two corrupting links on flow 0's path: packets are still flagged
        // only once each.
        plan.corrupt_link(&host, DirEdge::new(0, 0));
        plan.corrupt_link(&host, DirEdge::new(1, 1));
        let mut c = CountingRecorder::new();
        let r = sim.run_planned(100, &plan, &mut c);
        assert_eq!(r.lost, 0);
        assert_eq!(r.corrupted, 4);
        assert_eq!(c.corrupted, 4, "record_corrupt fires once per packet");
        assert_eq!(sim.flow_corrupted(), [4, 0]);
        assert_eq!(sim.flow_delivered(), [4, 2]);
        assert_eq!(
            r.report,
            sim.run(100, &mut NopRecorder),
            "corruption must not change the machine run"
        );
    }

    #[test]
    fn node_fault_plan_kills_flows_through_the_node() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 3); // via node 1
        sim.add_flow(&[4, 6], 2); // avoids node 1
        let mut plan = FaultPlan::none(&host);
        plan.cut_node(&host, 1);
        sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!(sim.flow_lost(), [3, 0], "every link into node 1 is severed");
        assert_eq!(sim.flow_delivered(), [0, 2]);
    }

    #[test]
    fn zero_hop_flows_deliver_instantly() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[4], 3);
        sim.add_flow(&[0, 1], 2);
        let mut trace = TraceRecorder::new();
        let r = sim.run(100, &mut trace);
        assert_eq!((r.delivered, r.makespan, r.packet_hops, r.max_queue), (5, 2, 2, 2));
        assert_eq!(trace.delivery_steps, [0, 0, 0, 1, 2], "zero-hop packets arrive at step 0");
    }

    #[test]
    fn failure_drains_a_waiting_queue_in_one_step() {
        // Flow 0 injects two packets at link 1→3; flows 1 and 2 each bring
        // one more there at step 1. The link serves one packet at step 0
        // and fails at step 1 with three queued: all three drop at step 1.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[1, 3], 2);
        sim.add_flow(&[0, 1, 3], 1);
        sim.add_flow(&[5, 1, 3], 1);
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(1, DirEdge::new(1, 1));
        let mut trace = TraceRecorder::new();
        let r = sim.run_planned(100, &plan, &mut trace);
        assert_eq!((r.lost, r.report.delivered, r.report.max_queue), (3, 1, 3));
        assert_eq!(r.report.makespan, 2, "the drain takes one step");
        assert_eq!(trace.busy_per_step, [3, 0], "step 1 only drops");
        assert_eq!(sim.flow_lost(), [1, 1, 1]);
        let l13 = host.dir_edge_index(DirEdge::new(1, 1)) as u32;
        assert_eq!(sim.flow_dropped_at(), [l13; 3]);
        assert_eq!(trace.queue_high_water[l13 as usize], 3);
    }

    #[test]
    fn outage_ends_while_a_packet_waits_upstream() {
        // Four packets cross 0→1 at steps 0..4; link 1→3 is down over
        // [1, 3). The first two reach it inside the outage and drop; the
        // third arrives as it ends, and the fourth, still queued at 0→1
        // during the outage, crosses at step 4.
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3], 4);
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(1, 1), 1, 3);
        let r = sim.run_planned(100, &plan, &mut NopRecorder);
        assert_eq!((r.lost, r.report.delivered), (2, 2));
        assert_eq!(r.report.makespan, 5);
        assert_eq!(r.report.packet_hops, 6);
        assert_eq!(r.report.max_queue, 4);
        assert_eq!(sim.flow_dropped_at(), [host.dir_edge_index(DirEdge::new(1, 1)) as u32]);
    }
}
