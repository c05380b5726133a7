//! Link-fault injection (the Section 1/2 fault-tolerance application).
//!
//! Multiple-path embeddings tolerate link faults: a width-`w` bundle still
//! delivers if enough of its `w` edge-disjoint paths avoid the faulty
//! links; with Rabin's IDA (the `hyperpath-ida` crate) any `k` surviving
//! paths reconstruct the message. This module provides:
//!
//! * [`FaultPlan`] — the one fault model: links cut before step 0 or
//!   mid-run, transient outages, byte-corrupting links and node faults,
//!   consumed by the planned simulator runs
//!   ([`PacketSim::run_planned`], [`WormholeSim::run_planned`]) and the
//!   delivery layer ([`crate::delivery`]);
//! * [`FaultSet`] — a static set of severed links (both orientations):
//!   the value a static plan is built from ([`FaultPlan::from_set`]) and
//!   what path-survival analysis reads;
//! * structural analysis — [`surviving_paths`] counts fault-free paths
//!   without routing a packet. The measured counterpart (packets actually
//!   simulated, shares actually reconstructed) lives in
//!   [`crate::delivery`]; `tests/delivery_conformance.rs` in the bench
//!   crate pins the two views against each other.
//!
//! [`PacketSim::run_planned`]: crate::packet::PacketSim::run_planned
//! [`WormholeSim::run_planned`]: crate::wormhole::WormholeSim::run_planned

use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_topology::{DirEdge, Hypercube};
use rand::{Rng, RngExt};

/// A set of failed directed links (bitset over directed edge indices).
/// Faults here are direction-symmetric: killing a link kills both
/// orientations, modeling a severed physical channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    failed: Vec<bool>,
}

impl FaultSet {
    /// No faults.
    pub fn none(host: &Hypercube) -> Self {
        FaultSet { failed: vec![false; host.num_directed_edges() as usize] }
    }

    /// Marks the undirected link carrying `edge` as failed (both
    /// directions).
    pub fn fail_link(&mut self, host: &Hypercube, edge: DirEdge) {
        self.failed[host.dir_edge_index(edge)] = true;
        self.failed[host.dir_edge_index(edge.reversed())] = true;
    }

    /// Clears the failure mark on the undirected link carrying `edge`
    /// (both directions) — the inverse of [`fail_link`](Self::fail_link),
    /// used by pooled callers that maintain a persistent fault set
    /// incrementally instead of rebuilding it.
    pub fn unfail_link(&mut self, host: &Hypercube, edge: DirEdge) {
        self.failed[host.dir_edge_index(edge)] = false;
        self.failed[host.dir_edge_index(edge.reversed())] = false;
    }

    /// Whether the directed edge is failed.
    pub fn is_failed(&self, host: &Hypercube, edge: DirEdge) -> bool {
        self.failed[host.dir_edge_index(edge)]
    }

    /// Whether the directed edge with the given
    /// [`dir_edge_index`](Hypercube::dir_edge_index) is failed (the form
    /// the simulator engines use — they work in link indices).
    #[inline]
    pub fn is_failed_index(&self, index: usize) -> bool {
        self.failed[index]
    }

    /// Number of failed directed edges.
    pub fn count(&self) -> usize {
        self.failed.iter().filter(|&&b| b).count()
    }

    /// Whether no link is failed.
    pub fn is_empty(&self) -> bool {
        !self.failed.iter().any(|&b| b)
    }

    /// The raw per-directed-edge failure bits, indexed by
    /// [`dir_edge_index`](Hypercube::dir_edge_index).
    pub fn bits(&self) -> &[bool] {
        &self.failed
    }
}

/// Direction of one scheduled link-state change in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The link goes down (both orientations) at the start of the step.
    Down,
    /// The link comes back up (both orientations) at the start of the step.
    Up,
}

/// The adversarial fault model: fail-stop link cuts, from before step 0
/// ([`FaultPlan::cut_link`], or a whole [`FaultSet`] via
/// [`FaultPlan::from_set`]) or mid-run ([`FaultPlan::cut_link_at`]), plus
/// three further fault *kinds*:
///
/// * **transient outage** — a link is down over a step interval `[a, b)`
///   and healthy again afterwards ([`FaultPlan::outage`]);
/// * **byte corruption** — a link delivers every packet that crosses it,
///   but flips its payload bytes (per an RNG seeded from
///   [`FaultPlan::corrupt_seed`]); the plan-aware engines flag the packet
///   and fire [`Recorder::record_corrupt`](crate::trace::Recorder::record_corrupt)
///   the first time it crosses such a link ([`FaultPlan::corrupt_link`]);
/// * **node fault** — all `2n` directed links incident to a node are cut
///   atomically, from step 0 ([`FaultPlan::cut_node`]) or mid-run
///   ([`FaultPlan::cut_node_at`]), the "faulty vertices" regime of the
///   many-to-many disjoint-path literature.
///
/// Events apply at the **start** of their step, before any packet or flit
/// moves, in insertion order within a step. An empty plan is a no-op:
/// the planned engine runs are bit-identical to the plain ones (pinned by
/// `tests/props.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    initial: FaultSet,
    /// `(step, edge, event)` link-state changes, sorted by step (FIFO
    /// within a step).
    events: Vec<(u64, DirEdge, LinkEvent)>,
    /// Per-directed-edge corruption bits, indexed like [`FaultSet::bits`].
    corrupting: Vec<bool>,
    /// Seed of the byte-flipping RNG (consumed by the channel layer, e.g.
    /// [`crate::protocol::PlanNetwork`]; the engines only flag packets).
    corrupt_seed: u64,
}

impl FaultPlan {
    /// No faults of any kind, ever.
    pub fn none(host: &Hypercube) -> Self {
        FaultPlan {
            initial: FaultSet::none(host),
            events: Vec::new(),
            corrupting: vec![false; host.num_directed_edges() as usize],
            corrupt_seed: 0,
        }
    }

    /// Static fail-stop faults: `set` is down from before step 0 and
    /// nothing else ever fails or corrupts.
    pub fn from_set(set: FaultSet) -> Self {
        let corrupting = vec![false; set.bits().len()];
        FaultPlan { initial: set, events: Vec::new(), corrupting, corrupt_seed: 0 }
    }

    /// Cuts the undirected link carrying `edge` from before step 0.
    pub fn cut_link(&mut self, host: &Hypercube, edge: DirEdge) {
        self.initial.fail_link(host, edge);
    }

    /// Clears an initial cut on the undirected link carrying `edge` (both
    /// directions) — the inverse of [`cut_link`](Self::cut_link), used by
    /// pooled callers that keep one dense plan per subcube alive and flip
    /// only the cuts that changed between rounds.
    pub fn uncut_link(&mut self, host: &Hypercube, edge: DirEdge) {
        self.initial.unfail_link(host, edge);
    }

    /// Schedules the link carrying `edge` to go down at the start of
    /// `step`, permanently (unless a later [`Self::restore_link_at`]).
    pub fn cut_link_at(&mut self, step: u64, edge: DirEdge) {
        self.push_event(step, edge, LinkEvent::Down);
    }

    /// Schedules the link carrying `edge` to come back up at the start of
    /// `step`.
    pub fn restore_link_at(&mut self, step: u64, edge: DirEdge) {
        self.push_event(step, edge, LinkEvent::Up);
    }

    /// Transient outage: the link carrying `edge` is down over `[from,
    /// until)` — it transmits nothing at steps `from..until` and is
    /// healthy again from step `until` on. A zero-width window
    /// (`from == until`) covers no steps and is a no-op: no events are
    /// scheduled, so the plan stays identical to one without the call
    /// (adversary generators may legitimately draw empty windows).
    ///
    /// # Panics
    /// Panics if `from > until` (an inverted window is a call-site bug).
    pub fn outage(&mut self, edge: DirEdge, from: u64, until: u64) {
        assert!(from <= until, "outage window [{from}, {until}) is inverted");
        if from == until {
            return;
        }
        self.cut_link_at(from, edge);
        self.restore_link_at(until, edge);
    }

    /// Marks the undirected link carrying `edge` as byte-corrupting (both
    /// orientations): packets crossing it are still delivered, but their
    /// payloads are flipped by the channel layer and the engines flag
    /// them.
    pub fn corrupt_link(&mut self, host: &Hypercube, edge: DirEdge) {
        self.corrupting[host.dir_edge_index(edge)] = true;
        self.corrupting[host.dir_edge_index(edge.reversed())] = true;
    }

    /// Node fault from before step 0: atomically cuts all `2n` directed
    /// links incident to `node`.
    pub fn cut_node(&mut self, host: &Hypercube, node: u64) {
        for d in 0..host.dims() {
            self.initial.fail_link(host, DirEdge::new(node, d));
        }
    }

    /// Node fault at the start of `step`: all `2n` incident directed links
    /// go down in the same step (events fire before anything moves, so
    /// the cut is atomic).
    pub fn cut_node_at(&mut self, step: u64, host: &Hypercube, node: u64) {
        for d in 0..host.dims() {
            self.cut_link_at(step, DirEdge::new(node, d));
        }
    }

    /// Sets the seed of the byte-flipping RNG.
    pub fn set_corrupt_seed(&mut self, seed: u64) {
        self.corrupt_seed = seed;
    }

    /// The seed of the byte-flipping RNG.
    pub fn corrupt_seed(&self) -> u64 {
        self.corrupt_seed
    }

    /// The faults present before step 0.
    pub fn initial(&self) -> &FaultSet {
        &self.initial
    }

    /// The scheduled link-state changes, sorted by step.
    pub fn events(&self) -> &[(u64, DirEdge, LinkEvent)] {
        &self.events
    }

    /// The raw per-directed-edge corruption bits, indexed by
    /// [`dir_edge_index`](Hypercube::dir_edge_index).
    pub fn corrupting_bits(&self) -> &[bool] {
        &self.corrupting
    }

    /// Whether any link corrupts payloads.
    pub fn has_corruption(&self) -> bool {
        self.corrupting.iter().any(|&b| b)
    }

    /// Whether the plan contains no faults of any kind.
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty() && self.events.is_empty() && !self.has_corruption()
    }

    /// Whether every fault is a static fail-stop cut: no mid-run events
    /// (so no transient outages either) and no corrupting links. Under
    /// such plans the oracle-free adaptive protocol provably matches the
    /// omniscient one (`tests/adaptive_conformance.rs`, bench crate).
    pub fn is_static_fail_stop(&self) -> bool {
        self.events.is_empty() && !self.has_corruption()
    }

    /// Every link that is ever hazardous: down initially, scheduled to go
    /// down at any step (even if later restored), or byte-corrupting.
    /// This is what the omniscient retry pass avoids.
    pub fn hazard_set(&self, host: &Hypercube) -> FaultSet {
        let mut set = self.initial.clone();
        for &(_, edge, ev) in &self.events {
            if ev == LinkEvent::Down {
                set.fail_link(host, edge);
            }
        }
        for (i, &c) in self.corrupting.iter().enumerate() {
            if c {
                set.failed[i] = true;
            }
        }
        set
    }

    fn push_event(&mut self, step: u64, edge: DirEdge, ev: LinkEvent) {
        let at = self.events.partition_point(|&(s, _, _)| s <= step);
        self.events.insert(at, (step, edge, ev));
    }
}

/// Each undirected link fails independently with probability `p`.
pub fn random_fault_set(host: &Hypercube, p: f64, rng: &mut impl Rng) -> FaultSet {
    // NaN passes straight through `clamp` and only explodes later inside
    // the RNG's `(0.0..=1.0).contains(&p)` assert; a probability that is
    // not a number means "no faults", explicitly.
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    let mut fs = FaultSet::none(host);
    for e in host.undirected_edges() {
        if rng.random_bool(p) {
            fs.fail_link(host, e);
        }
    }
    fs
}

/// How many paths of each bundle survive the faults. Entry `i` is the
/// number of fault-free paths of guest edge `i`.
pub fn surviving_paths(e: &MultiPathEmbedding, faults: &FaultSet) -> Vec<usize> {
    e.edge_paths
        .iter()
        .map(|bundle| {
            bundle.iter().filter(|p| p.edges().all(|edge| !faults.is_failed(&e.host, edge))).count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;
    use hyperpath_topology::DirEdge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn no_faults_all_survive() {
        let t1 = theorem1(6).unwrap();
        let fs = FaultSet::none(&t1.embedding.host);
        let s = surviving_paths(&t1.embedding, &fs);
        assert!(s.iter().all(|&c| c >= t1.claimed_width));
    }

    #[test]
    fn single_link_fault_kills_at_most_one_path_per_undirected_disjoint_bundle() {
        // Theorem 1 bundles are disjoint on *undirected* links, not merely
        // on directed edges (verified below) — so although failing a link
        // kills both orientations, the two orientations can never belong to
        // two different paths of one bundle, and a single link fault costs
        // each bundle at most ONE path. (A bundle that were only
        // direction-disjoint could lose two.)
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let mut used: HashSet<usize> = HashSet::new();
        for bundle in &t1.embedding.edge_paths {
            let mut seen: HashSet<usize> = HashSet::new();
            for path in bundle {
                for e in path.edges() {
                    let link = host.dir_edge_index(e.undirected());
                    assert!(seen.insert(link), "bundle reuses undirected link {e:?}");
                    used.insert(link);
                }
            }
        }
        let full: Vec<usize> = t1.embedding.edge_paths.iter().map(|b| b.len()).collect();
        // Exhaustively fail each used link alone.
        for &link_idx in &used {
            let mut fs = FaultSet::none(&host);
            let edge = host
                .undirected_edges()
                .find(|&e| host.dir_edge_index(e) == link_idx)
                .expect("canonical undirected edge");
            fs.fail_link(&host, edge);
            let s = surviving_paths(&t1.embedding, &fs);
            for (i, (&survivors, &width)) in s.iter().zip(&full).enumerate() {
                assert!(
                    survivors + 1 >= width,
                    "bundle {i} lost more than one path to the single link {edge:?}"
                );
            }
        }
    }

    #[test]
    fn width_one_embedding_is_fragile() {
        let gray = gray_cycle_embedding(6);
        let host = gray.host;
        let mut rng = StdRng::seed_from_u64(11);
        // Kill one specific cycle link: some guest edge must lose its only
        // path.
        let path0 = &gray.edge_paths[0][0];
        let edge = path0.edges().next().unwrap();
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, edge);
        let s = surviving_paths(&gray, &fs);
        assert!(s.contains(&0), "gray embedding has no redundancy");
        // And over seeded random draws at p=0.02, every bundle keeps a
        // survivor far less often than in the wide embedding.
        let t1 = theorem1(6).unwrap();
        let every_bundle_survives =
            |e: &MultiPathEmbedding, fs: &FaultSet| surviving_paths(e, fs).iter().all(|&s| s >= 1);
        let (mut ok_gray, mut ok_t1) = (0u32, 0u32);
        for _ in 0..60 {
            let fs = random_fault_set(&host, 0.02, &mut rng);
            ok_gray += u32::from(every_bundle_survives(&gray, &fs));
            ok_t1 += u32::from(every_bundle_survives(&t1.embedding, &fs));
        }
        assert!(
            ok_t1 > ok_gray,
            "width-3 bundles should survive faults better: {ok_t1} vs {ok_gray}"
        );
    }

    #[test]
    fn fault_counting() {
        let host = Hypercube::new(4);
        let mut fs = FaultSet::none(&host);
        assert_eq!(fs.count(), 0);
        assert!(fs.is_empty());
        fs.fail_link(&host, DirEdge::new(3, 1));
        assert_eq!(fs.count(), 2, "both orientations fail");
        assert!(!fs.is_empty());
        assert!(fs.is_failed(&host, DirEdge::new(3, 1)));
        assert!(fs.is_failed(&host, DirEdge::new(3 ^ 2, 1)));
        assert!(fs.is_failed_index(host.dir_edge_index(DirEdge::new(3, 1))));
    }

    #[test]
    fn random_faults_scale_with_p() {
        let host = Hypercube::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let lo = random_fault_set(&host, 0.01, &mut rng).count();
        let hi = random_fault_set(&host, 0.2, &mut rng).count();
        assert!(hi > lo);
    }

    #[test]
    fn random_fault_set_treats_nan_p_as_zero() {
        // Regression: NaN passed through `clamp` and tripped the RNG's
        // `(0.0..=1.0).contains(&p)` assert deep inside `random_bool`.
        let host = Hypercube::new(5);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(random_fault_set(&host, f64::NAN, &mut rng).count(), 0);
        // Infinities clamp like ordinary out-of-range values.
        assert_eq!(random_fault_set(&host, f64::NEG_INFINITY, &mut rng).count(), 0);
        assert_eq!(random_fault_set(&host, -3.0, &mut rng).count(), 0);
        let all = random_fault_set(&host, f64::INFINITY, &mut rng);
        assert_eq!(all.count(), host.num_directed_edges() as usize);
    }

    #[test]
    fn plan_builders_and_queries() {
        let host = Hypercube::new(4);
        let mut plan = FaultPlan::none(&host);
        assert!(plan.is_empty() && plan.is_static_fail_stop());
        assert!(!plan.has_corruption());
        assert!(plan.hazard_set(&host).is_empty());

        plan.cut_link(&host, DirEdge::new(0, 1));
        assert!(!plan.is_empty() && plan.is_static_fail_stop());
        assert_eq!(plan.initial().count(), 2);

        plan.outage(DirEdge::new(3, 0), 4, 9);
        assert!(!plan.is_static_fail_stop());
        assert_eq!(
            plan.events(),
            &[(4, DirEdge::new(3, 0), LinkEvent::Down), (9, DirEdge::new(3, 0), LinkEvent::Up)]
        );

        plan.corrupt_link(&host, DirEdge::new(5, 2));
        assert!(plan.has_corruption());
        let idx = host.dir_edge_index(DirEdge::new(5, 2));
        let rev = host.dir_edge_index(DirEdge::new(5, 2).reversed());
        assert!(plan.corrupting_bits()[idx] && plan.corrupting_bits()[rev]);

        plan.set_corrupt_seed(0xfeed);
        assert_eq!(plan.corrupt_seed(), 0xfeed);

        // The hazard set covers initial cuts, every Down event (restored or
        // not), and corrupting links: 3 undirected links = 6 directed edges.
        let hz = plan.hazard_set(&host);
        assert_eq!(hz.count(), 6);
        assert!(hz.is_failed(&host, DirEdge::new(0, 1)));
        assert!(hz.is_failed(&host, DirEdge::new(3, 0)));
        assert!(hz.is_failed(&host, DirEdge::new(5, 2)));
    }

    #[test]
    fn plan_from_set_is_static_fail_stop() {
        let host = Hypercube::new(4);
        let mut set = FaultSet::none(&host);
        set.fail_link(&host, DirEdge::new(1, 3));
        let plan = FaultPlan::from_set(set.clone());
        assert!(plan.is_static_fail_stop() && !plan.is_empty());
        assert_eq!(plan.initial(), &set);
        assert_eq!(plan.hazard_set(&host), set);
        assert_eq!(FaultPlan::from_set(FaultSet::none(&host)), FaultPlan::none(&host));
    }

    #[test]
    fn plan_events_stay_sorted_fifo_within_step() {
        let mut plan = FaultPlan::none(&Hypercube::new(4));
        plan.cut_link_at(7, DirEdge::new(0, 0));
        plan.cut_link_at(2, DirEdge::new(1, 1));
        plan.cut_link_at(7, DirEdge::new(2, 2));
        plan.restore_link_at(7, DirEdge::new(0, 0));
        let got: Vec<(u64, u32, LinkEvent)> =
            plan.events().iter().map(|&(s, e, ev)| (s, e.dim, ev)).collect();
        assert_eq!(
            got,
            vec![
                (2, 1, LinkEvent::Down),
                (7, 0, LinkEvent::Down),
                (7, 2, LinkEvent::Down),
                (7, 0, LinkEvent::Up),
            ],
            "sorted by step; same-step events keep insertion order"
        );
    }

    #[test]
    fn node_fault_cuts_all_incident_directed_links() {
        let host = Hypercube::new(5);
        let mut plan = FaultPlan::none(&host);
        plan.cut_node(&host, 13);
        // 2n directed edges: n undirected incident links, both orientations.
        assert_eq!(plan.initial().count(), 2 * host.dims() as usize);
        for d in 0..host.dims() {
            assert!(plan.initial().is_failed(&host, DirEdge::new(13, d)));
            assert!(plan.initial().is_failed(&host, DirEdge::new(13 ^ (1 << d), d)));
        }
        // The mid-run variant lands every incident cut on the same step.
        let mut plan2 = FaultPlan::none(&host);
        plan2.cut_node_at(6, &host, 13);
        assert_eq!(plan2.events().len(), host.dims() as usize);
        assert!(plan2.events().iter().all(|&(s, _, ev)| s == 6 && ev == LinkEvent::Down));
        assert_eq!(plan2.hazard_set(&host).count(), 2 * host.dims() as usize);
    }

    #[test]
    fn outage_zero_width_window_is_noop() {
        let host = Hypercube::new(4);
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(0, 0), 5, 5);
        assert!(plan.events().is_empty(), "zero-width outage must schedule nothing");
        assert_eq!(plan.hazard_set(&host).count(), 0);
        // And it composes: a real outage before/after is unaffected.
        plan.outage(DirEdge::new(3, 1), 2, 7);
        plan.outage(DirEdge::new(0, 0), 9, 9);
        let mut expect = FaultPlan::none(&host);
        expect.outage(DirEdge::new(3, 1), 2, 7);
        assert_eq!(plan.events(), expect.events());
    }

    #[test]
    #[should_panic(expected = "is inverted")]
    fn outage_rejects_inverted_window() {
        let mut plan = FaultPlan::none(&Hypercube::new(4));
        plan.outage(DirEdge::new(0, 0), 6, 5);
    }
}
