//! Zero-cost-when-off instrumentation for the simulators.
//!
//! Every engine run ([`PacketSim::run`], [`PacketSim::run_planned`] and
//! their wormhole twins) reports events to a [`Recorder`]. Every
//! hook has an empty default body and the engines are generic over the
//! recorder type, so running with [`NopRecorder`] monomorphizes the
//! instrumentation away entirely — the traced and untraced engines are
//! the same code path, which is what lets the equivalence tests cover
//! both at once.
//!
//! [`TraceRecorder`] is the collecting implementation: per-step busy-link
//! counts, per-flow injection/delivery accounting, and per-link queue-depth
//! high-water marks, condensed by [`TraceRecorder::summary`] into a
//! [`TraceSummary`] of nearest-rank percentiles.
//!
//! [`PacketSim::run`]: crate::packet::PacketSim::run
//! [`PacketSim::run_planned`]: crate::packet::PacketSim::run_planned

/// Event sink for one simulation run. All hooks default to no-ops; a
/// recorder implements only what it needs.
pub trait Recorder {
    /// Whether this recorder observes nothing at all. Engines that can
    /// exploit observation-free runs (the multi-tenant engine executes
    /// its disjoint window groups in parallel when no recorder is
    /// watching, falling back to deterministic serial order otherwise)
    /// key off this constant; the reports are identical either way, so a
    /// recorder that leaves the default `false` only loses the
    /// parallelism, never correctness.
    const IS_NOP: bool = false;

    /// A step completed with `busy_links` links transmitting. Engines fire
    /// it for every step `0..makespan`, in order; a step whose only event
    /// is a drop reports 0.
    #[inline]
    fn record_step(&mut self, _step: u64, _busy_links: u64) {}

    /// A packet joined the queue of `link` at length `depth`, itself
    /// included: once per packet per link it reaches, dropped packets too.
    /// A packet served at step `departure` after arriving at `arrival`
    /// joined at `departure − arrival + 1`, so the largest `depth` per link
    /// is the longest the queue ever was when served.
    #[inline]
    fn record_queue_depth(&mut self, _link: u32, _depth: usize) {}

    /// Flow `flow` injected `packets` packets at `step`.
    #[inline]
    fn record_injection(&mut self, _flow: u32, _packets: u64, _step: u64) {}

    /// One packet of `flow` reached its destination at `step`.
    #[inline]
    fn record_delivery(&mut self, _flow: u32, _step: u64) {}

    /// One packet of `flow` was dropped on a failed link at `step` (only
    /// the planned runs emit this).
    #[inline]
    fn record_drop(&mut self, _flow: u32, _step: u64) {}

    /// One packet (or worm) of `flow` crossed a byte-corrupting link at
    /// `step` for the first time — it will still be delivered, but its
    /// payload is no longer trustworthy. Only the planned runs
    /// ([`PacketSim::run_planned`], [`WormholeSim::run_planned`]) emit
    /// this, and at most once per packet however many corrupting links it
    /// crosses.
    ///
    /// [`PacketSim::run_planned`]: crate::packet::PacketSim::run_planned
    /// [`WormholeSim::run_planned`]: crate::wormhole::WormholeSim::run_planned
    #[inline]
    fn record_corrupt(&mut self, _flow: u32, _step: u64) {}

    /// `count` packets entered the FIFO of `link` (injection and every
    /// re-queue after a hop both count — this is the engine's total queue
    /// work, one of the deterministic counters the perf gate pins). The
    /// packet engine fires it once per packet per link, with `count` 1.
    /// Within one step, engines may fire the packet hooks in any order.
    #[inline]
    fn record_queue_push(&mut self, _link: u32, _count: u64) {}

    /// `count` flits crossed links (the wormhole engine reports a worm's
    /// `hops x flits` total when its tail arrives; worms killed by faults
    /// report nothing).
    #[inline]
    fn record_flit_moves(&mut self, _count: u64) {}
}

/// The do-nothing recorder: pass it for an uninstrumented run.
pub struct NopRecorder;

impl Recorder for NopRecorder {
    const IS_NOP: bool = true;
}

/// Accumulates the deterministic work counters of one run and nothing
/// else: no per-event storage, no allocation, just nine integers. These
/// are the machine-independent quantities the perf-regression gate
/// compares exactly (`crates/bench`): for a fixed workload every counter
/// is a pure function of the simulated machine's semantics, so any change
/// is a behavioral change, not noise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingRecorder {
    /// Steps simulated (`record_step` calls).
    pub steps: u64,
    /// Total busy-link observations — for the packet engine this equals
    /// `SimReport::packet_hops`.
    pub busy_total: u64,
    /// Packets pushed into link FIFOs (injections + re-queues).
    pub queue_pushes: u64,
    /// Sum of the queue lengths packets joined, themselves included
    /// ([`Recorder::record_queue_depth`]). Without drops this is also the
    /// sum, over steps and links, of the queue length at service time.
    pub queue_depth_sum: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets (or worms) delivered.
    pub delivered: u64,
    /// Packets (or worms) dropped on failed links.
    pub dropped: u64,
    /// Flits moved across links (wormhole runs only).
    pub flit_moves: u64,
    /// Packets (or worms) that crossed at least one byte-corrupting link
    /// (planned runs only; counted once per packet).
    pub corrupted: u64,
}

impl CountingRecorder {
    /// A zeroed counter set.
    pub fn new() -> Self {
        CountingRecorder::default()
    }
}

impl Recorder for CountingRecorder {
    fn record_step(&mut self, _step: u64, busy_links: u64) {
        self.steps += 1;
        self.busy_total += busy_links;
    }

    fn record_queue_depth(&mut self, _link: u32, depth: usize) {
        self.queue_depth_sum += depth as u64;
    }

    fn record_injection(&mut self, _flow: u32, packets: u64, _step: u64) {
        self.injected += packets;
    }

    fn record_delivery(&mut self, _flow: u32, _step: u64) {
        self.delivered += 1;
    }

    fn record_drop(&mut self, _flow: u32, _step: u64) {
        self.dropped += 1;
    }

    fn record_corrupt(&mut self, _flow: u32, _step: u64) {
        self.corrupted += 1;
    }

    fn record_queue_push(&mut self, _link: u32, count: u64) {
        self.queue_pushes += count;
    }

    fn record_flit_moves(&mut self, count: u64) {
        self.flit_moves += count;
    }
}

/// Collects the full event stream of one run.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// Busy-link count of step `i`.
    pub busy_per_step: Vec<u64>,
    /// Delivery step of every packet, in delivery order (all injections
    /// happen at step 0, so this is also the per-packet latency).
    pub delivery_steps: Vec<u64>,
    /// Per-link queue-depth high-water mark (indexed by directed link):
    /// the longest the link's queue was when served, doomed queues on
    /// failed links included.
    pub queue_high_water: Vec<usize>,
    /// Per-flow accounting, indexed by flow id.
    pub flows: Vec<FlowTrace>,
}

/// Per-flow injection/delivery accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowTrace {
    /// Packets injected.
    pub injected: u64,
    /// Step the flow's packets were injected (always 0 for phase loads).
    pub injected_at: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Sum of delivery latencies (delivery step − injection step).
    pub latency_sum: u64,
    /// Latest delivery latency observed.
    pub max_latency: u64,
    /// Packets dropped on failed links (0 unless a planned run).
    pub lost: u64,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    fn flow_mut(&mut self, flow: u32) -> &mut FlowTrace {
        let i = flow as usize;
        if i >= self.flows.len() {
            self.flows.resize(i + 1, FlowTrace::default());
        }
        &mut self.flows[i]
    }

    /// Condenses the collected stream into percentile summaries.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            steps: self.busy_per_step.len() as u64,
            busy_links: PercentileSummary::of(self.busy_per_step.iter().copied()),
            latency: PercentileSummary::of(self.delivery_steps.iter().copied()),
            queue_high_water: PercentileSummary::of(
                // Only links that ever queued anything carry signal; the
                // all-zero rest would drown the distribution.
                self.queue_high_water.iter().filter(|&&d| d > 0).map(|&d| d as u64),
            ),
            flows: self
                .flows
                .iter()
                .enumerate()
                .map(|(id, f)| FlowSummary {
                    flow: id as u32,
                    injected: f.injected,
                    delivered: f.delivered,
                    lost: f.lost,
                    mean_latency: if f.delivered == 0 {
                        0.0
                    } else {
                        f.latency_sum as f64 / f.delivered as f64
                    },
                    max_latency: f.max_latency,
                })
                .collect(),
        }
    }
}

impl Recorder for TraceRecorder {
    fn record_step(&mut self, step: u64, busy_links: u64) {
        debug_assert_eq!(step, self.busy_per_step.len() as u64);
        self.busy_per_step.push(busy_links);
    }

    fn record_queue_depth(&mut self, link: u32, depth: usize) {
        let i = link as usize;
        if i >= self.queue_high_water.len() {
            self.queue_high_water.resize(i + 1, 0);
        }
        if depth > self.queue_high_water[i] {
            self.queue_high_water[i] = depth;
        }
    }

    fn record_injection(&mut self, flow: u32, packets: u64, step: u64) {
        let f = self.flow_mut(flow);
        f.injected += packets;
        f.injected_at = step;
    }

    fn record_delivery(&mut self, flow: u32, step: u64) {
        let injected_at = self.flow_mut(flow).injected_at;
        let latency = step - injected_at;
        let f = self.flow_mut(flow);
        f.delivered += 1;
        f.latency_sum += latency;
        f.max_latency = f.max_latency.max(latency);
        self.delivery_steps.push(latency);
    }

    fn record_drop(&mut self, flow: u32, _step: u64) {
        self.flow_mut(flow).lost += 1;
    }
}

/// Nearest-rank percentiles of one observed distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
}

impl PercentileSummary {
    /// Summarizes `values` (any order; empty input gives all zeros).
    pub fn of(values: impl IntoIterator<Item = u64>) -> Self {
        let mut v: Vec<u64> = values.into_iter().collect();
        if v.is_empty() {
            return PercentileSummary {
                count: 0,
                min: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0,
                mean: 0.0,
            };
        }
        v.sort_unstable();
        let nearest = |p: f64| -> u64 {
            // Nearest-rank: the ⌈p·N⌉-th smallest observation.
            let rank = (p * v.len() as f64).ceil() as usize;
            v[rank.clamp(1, v.len()) - 1]
        };
        let sum: u64 = v.iter().sum();
        PercentileSummary {
            count: v.len() as u64,
            min: v[0],
            p50: nearest(0.50),
            p90: nearest(0.90),
            p99: nearest(0.99),
            max: v[v.len() - 1],
            mean: sum as f64 / v.len() as f64,
        }
    }
}

/// Percentile view of one run's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Steps simulated (= makespan).
    pub steps: u64,
    /// Distribution of per-step busy-link counts.
    pub busy_links: PercentileSummary,
    /// Distribution of per-packet delivery latencies.
    pub latency: PercentileSummary,
    /// Distribution of per-link queue high-water marks (links that queued).
    pub queue_high_water: PercentileSummary,
    /// Per-flow delivery summaries, indexed by flow id.
    pub flows: Vec<FlowSummary>,
}

/// One flow's delivery summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Flow id.
    pub flow: u32,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped on failed links (0 unless a planned run).
    pub lost: u64,
    /// Mean delivery latency.
    pub mean_latency: f64,
    /// Worst delivery latency.
    pub max_latency: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketSim;
    use hyperpath_core::cycles::theorem1;
    use hyperpath_topology::Hypercube;

    #[test]
    fn percentiles_nearest_rank() {
        let s = PercentileSummary::of(1..=100u64);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        let empty = PercentileSummary::of(std::iter::empty());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
        let one = PercentileSummary::of([7u64]);
        assert_eq!((one.min, one.p50, one.p99, one.max), (7, 7, 7, 7));
    }

    #[test]
    fn traced_report_matches_untraced() {
        let e = theorem1(6).unwrap().embedding;
        let mut sim = PacketSim::phase_workload(&e, 16);
        let mut rec = TraceRecorder::new();
        let report = sim.run(100_000, &mut rec);
        let trace = rec.summary();
        assert_eq!(report, sim.run(100_000, &mut NopRecorder));
        assert_eq!(trace.steps, report.makespan);
        assert_eq!(trace.latency.count, report.delivered);
        assert_eq!(trace.latency.max, report.makespan);
        assert_eq!(trace.queue_high_water.max, report.max_queue as u64);
        let delivered: u64 = trace.flows.iter().map(|f| f.delivered).sum();
        assert_eq!(delivered, report.delivered);
    }

    #[test]
    fn busy_counts_sum_to_packet_hops() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        sim.add_flow(&[0, 1, 3, 7], 5);
        sim.add_flow(&[0, 2, 3], 2);
        let mut rec = TraceRecorder::new();
        let report = sim.run(1_000, &mut rec);
        assert_eq!(rec.busy_per_step.iter().sum::<u64>(), report.packet_hops);
        assert_eq!(rec.busy_per_step.len() as u64, report.makespan);
    }

    #[test]
    fn counting_recorder_ties_out_with_the_report() {
        let e = theorem1(6).unwrap().embedding;
        let mut c = CountingRecorder::new();
        let report = PacketSim::phase_workload(&e, 16).run(100_000, &mut c);
        assert_eq!(c.steps, report.makespan);
        assert_eq!(c.busy_total, report.packet_hops);
        assert_eq!(c.delivered, report.delivered);
        assert_eq!(c.injected, report.delivered);
        assert_eq!(c.dropped, 0);
        assert_eq!(c.flit_moves, 0, "packet runs move no flits");
        // Every packet is pushed once per hop it crosses: the first push at
        // injection, then one re-queue per intermediate arrival.
        assert_eq!(c.queue_pushes, report.packet_hops);
    }

    #[test]
    fn counting_recorder_counts_wormhole_work() {
        use crate::wormhole::WormholeSim;
        let host = Hypercube::new(4);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3, 7], 6);
        sim.add_worm(&[0, 1, 5], 3);
        sim.add_worm(&[8], 2);
        let mut c = CountingRecorder::new();
        let makespan = sim.run(10_000, &mut c);
        let completion = sim.completion().to_vec();
        assert_eq!(
            (sim.run(10_000, &mut NopRecorder), sim.completion()),
            (makespan, &completion[..]),
            "recording must not change the run"
        );
        assert_eq!(c.steps, makespan);
        assert_eq!(c.injected, 3);
        assert_eq!(c.delivered, 3);
        assert_eq!(c.flit_moves, 3 * 6 + 2 * 3, "hops x flits per delivered worm");
        assert_eq!(c.busy_total, 3 + 2, "every hop advances a head exactly once");
    }

    #[test]
    fn per_flow_latencies_ordered_by_contention() {
        let host = Hypercube::new(3);
        let mut sim = PacketSim::new(host);
        // Flow 0 wins every arbitration on the shared first link.
        sim.add_flow(&[0, 1, 3], 4);
        sim.add_flow(&[0, 1, 5], 4);
        let mut rec = TraceRecorder::new();
        sim.run(1_000, &mut rec);
        let t = rec.summary();
        assert!(t.flows[1].mean_latency > t.flows[0].mean_latency);
        assert_eq!(t.flows[0].delivered, 4);
        assert_eq!(t.flows[1].delivered, 4);
    }
}
