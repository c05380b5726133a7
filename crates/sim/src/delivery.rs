//! End-to-end fault-tolerant message delivery: IDA dispersal over the
//! disjoint paths of a multiple-path embedding, measured on the simulated
//! machine.
//!
//! This is the layer the paper's Sections 1–2 promise but never spell out:
//! each guest edge's message is split by Rabin's IDA (`Ida::disperse`)
//! into `w` shares, share `i` rides path `i` of the edge's width-`w`
//! bundle through the store-and-forward machine under a [`FaultPlan`],
//! and the destination reconstructs (`Ida::reconstruct`) once any `k`
//! shares arrive. A bounded retry pass re-sends the shares that died on
//! hazardous links over the bundle's *surviving* paths (several shares may
//! share one surviving path — edge-disjointness is a bandwidth guarantee,
//! not a routing restriction), so a single surviving path suffices to
//! recover the whole message, at the cost of extra rounds.
//!
//! There is one dispersal loop, in [`crate::protocol`]. This module runs
//! it under the *omniscient* knowledge policy ([`deliver_phase_plan`]):
//! the sender reads the plan's hazard set instead of learning path health
//! from ACK/NACK, and every round, retries included, ships through one
//! [`PlanNetwork`] under the plan. It shares the oracle-free protocol's
//! setup ([`AdaptiveSetup`]) and keeps the fail-stop closed form
//! ([`deliver_phase_plan_outcome`]), which runs no loop at all.
//!
//! Every claim is checked end to end: a message counts as delivered only
//! if the reconstructed bytes equal the original. The per-flow outcome is
//! graded — [`EdgeOutcome::Delivered`] (threshold met in the first round),
//! [`EdgeOutcome::Degraded`] (met only after retries), or
//! [`EdgeOutcome::Lost`] — and `tests/delivery_conformance.rs` (bench
//! crate) pins the retry-free delivery rate to the structural
//! [`surviving_paths`](crate::faults::surviving_paths) bound.

use crate::faults::{FaultPlan, FaultSet};
use crate::packet::PlanReport;
use crate::protocol::{
    run_phase, AdaptiveReport, AdaptiveSetup, Knowledge, PlanNetwork, RoundNetwork, Submission,
};
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_ida::TaggedShare;

/// Parameters of one dispersal phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Reconstruction threshold `k`: any `k` of a bundle's `w` shares
    /// rebuild the message (clamped per edge into `1..=w`).
    pub threshold: usize,
    /// Retry rounds allowed after the initial round (0 disables retries).
    pub max_retries: u32,
    /// Message length in bytes per guest edge.
    pub message_len: usize,
}

/// What happened to one guest edge's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// ≥ `k` shares arrived in the initial round; reconstruction verified.
    Delivered,
    /// The threshold was met only after `rounds` retry rounds;
    /// reconstruction verified.
    Degraded {
        /// Retry rounds needed (1-based).
        rounds: u32,
    },
    /// Fewer than `k` shares ever arrived (or reconstruction failed).
    Lost {
        /// Distinct shares that did arrive.
        arrived: usize,
    },
}

/// Per-guest-edge delivery record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeDelivery {
    /// Guest edge id.
    pub guest_edge: usize,
    /// Bundle width `w` (shares dispersed).
    pub width: usize,
    /// Effective threshold `k` for this edge.
    pub threshold: usize,
    /// Distinct shares that arrived in the initial round.
    pub first_round_arrivals: usize,
    /// Final graded outcome.
    pub outcome: EdgeOutcome,
}

/// Outcome of one dispersal phase over the whole embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryReport {
    /// One record per guest edge.
    pub edges: Vec<EdgeDelivery>,
    /// Edges whose threshold was met in the initial round.
    pub delivered: usize,
    /// Edges recovered only by retries.
    pub degraded: usize,
    /// Edges whose message was lost.
    pub lost: usize,
    /// Retry rounds actually executed.
    pub rounds_run: u32,
    /// Shares re-sent across all retry rounds.
    pub shares_resent: u64,
    /// The initial round's machine report: flow `f` is the `f`-th bundle
    /// path in (guest edge, path) order.
    pub initial: PlanReport,
    /// Initial-round arrival bit of every bundle path, in the flow order
    /// of [`initial`](Self::initial), zero-hop paths included: set iff the
    /// share arrived uncorrupted, the same grading that counts it toward
    /// `first_round_arrivals`.
    pub initial_flow_delivered: Vec<bool>,
}

impl DeliveryReport {
    /// Whether every guest edge's message was recovered (possibly
    /// degraded).
    pub fn all_delivered(&self) -> bool {
        self.lost == 0
    }

    /// Messages recovered, degraded or not.
    pub fn recovered(&self) -> usize {
        self.delivered + self.degraded
    }

    /// Projects the machine telemetry away: everything in the report
    /// that is a pure function of the fault plan and the setup, keeping of
    /// the initial round only its per-flow arrival bits. This is the
    /// currency of the Monte-Carlo sweeps — and exactly what the fail-stop
    /// fast path ([`deliver_phase_plan_outcome`]) can compute without
    /// running the packet engine.
    pub fn outcome(&self) -> DeliveryOutcome {
        DeliveryOutcome {
            edges: self.edges.clone(),
            delivered: self.delivered,
            degraded: self.degraded,
            lost: self.lost,
            rounds_run: self.rounds_run,
            shares_resent: self.shares_resent,
            initial_flow_delivered: self.initial_flow_delivered.clone(),
        }
    }
}

/// The fault-determined half of a [`DeliveryReport`]: per-edge grades,
/// the delivered/degraded/lost partition, retry accounting, and the
/// initial round's per-flow arrival bits — everything except the machine
/// telemetry (makespan, utilization, queue depths), which by definition
/// only the packet engine can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// One record per guest edge.
    pub edges: Vec<EdgeDelivery>,
    /// Edges whose threshold was met in the initial round.
    pub delivered: usize,
    /// Edges recovered only by retries.
    pub degraded: usize,
    /// Edges whose message was lost.
    pub lost: usize,
    /// Retry rounds actually executed.
    pub rounds_run: u32,
    /// Shares re-sent across all retry rounds.
    pub shares_resent: u64,
    /// Initial-round arrival bit of every bundle path, in (guest edge,
    /// path) order, zero-hop paths included — the flow order of
    /// [`DeliveryReport::initial`]: set iff the share arrived uncorrupted.
    pub initial_flow_delivered: Vec<bool>,
}

impl DeliveryOutcome {
    /// Whether every guest edge's message was recovered (possibly
    /// degraded).
    pub fn all_delivered(&self) -> bool {
        self.lost == 0
    }

    /// Messages recovered, degraded or not.
    pub fn recovered(&self) -> usize {
        self.delivered + self.degraded
    }
}

/// The deterministic per-edge test message (delivery is verified by
/// comparing reconstructed bytes against this).
pub(crate) fn message_for_edge(edge: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (edge.wrapping_mul(131).wrapping_add(j.wrapping_mul(29)) ^ 0x5c) as u8)
        .collect()
}

/// Fingerprint key of the omniscient sender's shares. A share that crossed
/// a corrupting link fails verification under it, which is how the loop
/// sees that share as an erasure.
const ORACLE_KEY: u64 = 0x0ac1_e5ee_5a11_fa17;

/// The [`PlanNetwork`] of an omniscient phase, keeping round 0's report
/// and arrival bits for [`DeliveryReport::initial`] and
/// [`DeliveryReport::initial_flow_delivered`].
struct FirstRoundNetwork<'a> {
    net: PlanNetwork<'a>,
    initial: (PlanReport, Vec<bool>),
}

impl RoundNetwork for FirstRoundNetwork<'_> {
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
        let answers = self.net.ship(round, subs);
        if round == 0 {
            self.initial = self.net.last_round();
        }
        answers
    }
}

/// The *omniscient* counterpart of
/// [`deliver_adaptive`](crate::protocol::deliver_adaptive): one dispersal
/// phase of `e` under `plan` through the same loop, with a sender that
/// knows the plan's [`hazard_set`](FaultPlan::hazard_set) (every link that
/// is down, will go down, or corrupts) and re-sends each dead share once,
/// over a hazard-free path. A share that arrives *corrupted* fails its
/// fingerprint and counts as an erasure, never as wrong bytes.
///
/// Convenience form of [`deliver_phase_plan_prepared`]; sweeps that draw
/// many plans against one configuration should build the setup once.
///
/// # Panics
/// Panics if any bundle is empty or wider than 255 paths, or if a
/// simulation round exceeds its step cap.
pub fn deliver_phase_plan(
    e: &MultiPathEmbedding,
    plan: &FaultPlan,
    cfg: &DeliveryConfig,
) -> DeliveryReport {
    deliver_phase_plan_prepared(&AdaptiveSetup::new(e, cfg), plan)
}

/// [`deliver_phase_plan`] against a prebuilt [`AdaptiveSetup`]: only the
/// fault-dependent work (simulation rounds, retry planning, grading) runs
/// per call; dispersal is reused from the setup. Fully deterministic:
/// shares are injected in (guest edge, share) order and retries are
/// planned in the same order.
pub fn deliver_phase_plan_prepared(setup: &AdaptiveSetup<'_>, plan: &FaultPlan) -> DeliveryReport {
    let e = setup.e;
    let hazard = plan.hazard_set(&e.host);
    let hazardous = e
        .all_paths()
        .map(|(_, _, p)| p.is_empty() || p.edges().any(|edge| hazard.is_failed(&e.host, edge)))
        .collect();
    let mut net = FirstRoundNetwork { net: PlanNetwork::new(e, plan), initial: Default::default() };
    let AdaptiveReport { edges, delivered, degraded, lost, rounds_run, shares_resent, .. } =
        run_phase(setup, ORACLE_KEY, &mut net, &Knowledge::Omniscient(hazardous));
    let (initial, initial_flow_delivered) = net.initial;
    DeliveryReport {
        edges,
        delivered,
        degraded,
        lost,
        rounds_run,
        shares_resent,
        initial,
        initial_flow_delivered,
    }
}

/// Grades a dispersal phase under **static fail-stop** faults without
/// running the packet engine at all. With no mid-run events and no
/// corruption, every grade in [`deliver_phase_plan_prepared`] collapses
/// to a closed form over path survival:
///
/// * a share arrives iff its path is empty or avoids every failed link
///   (the engine delivers every unobstructed flow within the step cap);
/// * `a ≥ k` first-round arrivals → [`EdgeOutcome::Delivered`];
/// * otherwise, if retries are allowed and the bundle has a surviving
///   non-empty path, *all* `w − a` missing shares are resent over
///   surviving (fault-free) paths and arrive, so the edge grades
///   [`EdgeOutcome::Degraded`]` { rounds: 1 }`;
/// * otherwise [`EdgeOutcome::Lost`]. Reconstruction always byte-verifies
///   for genuine fail-stop shares, so no codec run is needed.
///
/// `rounds_run` is 1 iff any edge retried (the second retry round has
/// nothing to send, so the loop stops before counting it).
fn fail_stop_outcome(setup: &AdaptiveSetup<'_>, faults: &FaultSet) -> DeliveryOutcome {
    let e = setup.e;
    let host = e.host;
    let mut edges = Vec::with_capacity(e.edge_paths.len());
    let (mut delivered, mut degraded, mut lost) = (0usize, 0usize, 0usize);
    let mut shares_resent = 0u64;
    let mut rounds_run = 0u32;
    let mut initial_flow_delivered = Vec::new();
    for (eid, (bundle, es)) in e.edge_paths.iter().zip(&setup.edges).enumerate() {
        let first = initial_flow_delivered.len();
        initial_flow_delivered
            .extend(bundle.iter().map(|p| p.edges().all(|edge| !faults.is_failed(&host, edge))));
        let arrived = &initial_flow_delivered[first..];
        let a = arrived.iter().filter(|&&ok| ok).count();
        let survivor = bundle.iter().zip(arrived).any(|(p, &ok)| ok && !p.is_empty());
        let outcome = if a >= es.threshold {
            delivered += 1;
            EdgeOutcome::Delivered
        } else if setup.cfg.max_retries >= 1 && survivor {
            degraded += 1;
            rounds_run = 1;
            shares_resent += (bundle.len() - a) as u64;
            EdgeOutcome::Degraded { rounds: 1 }
        } else {
            lost += 1;
            EdgeOutcome::Lost { arrived: a }
        };
        edges.push(EdgeDelivery {
            guest_edge: eid,
            width: bundle.len(),
            threshold: es.threshold,
            first_round_arrivals: a,
            outcome,
        });
    }
    DeliveryOutcome {
        edges,
        delivered,
        degraded,
        lost,
        rounds_run,
        shares_resent,
        initial_flow_delivered,
    }
}

/// Outcome-level [`deliver_phase_plan_prepared`]: grades the phase and
/// projects the machine telemetry away ([`DeliveryReport::outcome`]).
/// When the plan [has no events and no
/// corruption](FaultPlan::is_static_fail_stop) the hazard set the retry
/// planner avoids is exactly the initial set, so the grades are evaluated
/// in closed form from path survival (`fail_stop_outcome`) and the packet
/// engine is skipped entirely; any corrupting bit or mid-run event falls
/// back to the dispersal loop, with which the closed form shares no code.
/// Equality of the two on static plans is pinned by the fast-path
/// conformance suite in the bench crate.
pub fn deliver_phase_plan_outcome(setup: &AdaptiveSetup<'_>, plan: &FaultPlan) -> DeliveryOutcome {
    if plan.is_static_fail_stop() {
        fail_stop_outcome(setup, plan.initial())
    } else {
        deliver_phase_plan_prepared(setup, plan).outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;

    fn kill_paths(e: &MultiPathEmbedding, edge: usize, how_many: usize) -> FaultPlan {
        let host = e.host;
        let mut fs = FaultSet::none(&host);
        for path in e.edge_paths[edge].iter().take(how_many) {
            let mid = path.edges().next().expect("non-empty path");
            fs.fail_link(&host, mid);
        }
        FaultPlan::from_set(fs)
    }

    #[test]
    fn fault_free_phase_delivers_everything_first_try() {
        let t1 = theorem1(6).unwrap();
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 96 };
        let r = deliver_phase_plan(&t1.embedding, &FaultPlan::none(&t1.embedding.host), &cfg);
        assert!(r.all_delivered());
        assert_eq!(r.delivered, t1.embedding.edge_paths.len());
        assert_eq!(r.degraded, 0);
        assert_eq!(r.rounds_run, 0);
        assert_eq!(r.shares_resent, 0);
        assert_eq!(r.initial.lost, 0);
        assert!(r.edges.iter().all(|ed| ed.outcome == EdgeOutcome::Delivered));
    }

    #[test]
    fn retry_recovers_a_degraded_edge_over_the_surviving_path() {
        // Kill 2 of the 3 paths of bundle 0 (n=6 ⇒ w=3, k=2): the first
        // round delivers only 1 share, the retry round re-sends the two
        // dead shares over the one surviving path.
        let t1 = theorem1(6).unwrap();
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 64 };
        let plan = kill_paths(&t1.embedding, 0, 2);
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        let ed = &r.edges[0];
        assert!(ed.first_round_arrivals < 2, "first round must miss the threshold");
        assert_eq!(ed.outcome, EdgeOutcome::Degraded { rounds: 1 });
        assert!(r.degraded >= 1);
        assert!(r.all_delivered(), "one surviving path recovers the bundle");
        assert!(r.shares_resent >= 2);
    }

    #[test]
    fn without_retries_the_same_fault_loses_the_message() {
        let t1 = theorem1(6).unwrap();
        let cfg = DeliveryConfig { threshold: 2, max_retries: 0, message_len: 64 };
        let plan = kill_paths(&t1.embedding, 0, 2);
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        assert!(matches!(r.edges[0].outcome, EdgeOutcome::Lost { arrived: 1 }));
        assert!(!r.all_delivered());
        assert_eq!(r.rounds_run, 0);
    }

    #[test]
    fn severing_every_path_loses_the_edge_even_with_retries() {
        let t1 = theorem1(6).unwrap();
        let w = t1.embedding.edge_paths[0].len();
        let cfg = DeliveryConfig { threshold: 1, max_retries: 3, message_len: 32 };
        let plan = kill_paths(&t1.embedding, 0, w);
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        assert!(matches!(r.edges[0].outcome, EdgeOutcome::Lost { arrived: 0 }));
        assert_eq!(r.lost, 1, "only the sabotaged edge is lost");
    }

    #[test]
    fn mid_run_cut_can_strand_shares_after_the_phase_started() {
        // Fail a first-hop link a step into the run: the affected share
        // is dropped mid-flight, then recovered by the retry pass over a
        // surviving path of the same bundle.
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let victim = t1.embedding.edge_paths[0][0].edges().next().unwrap();
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(0, victim);
        let cfg = DeliveryConfig { threshold: t1.claimed_width, max_retries: 1, message_len: 64 };
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        assert!(r.all_delivered());
        // At least the victim's bundle needed the retry round.
        assert!(r.degraded >= 1);
    }

    #[test]
    fn corrupted_share_counts_as_erasure_and_is_retried_cleanly() {
        // Corrupt the first link of path 0 of bundle 0: its share arrives
        // tainted, so the oracle treats it as missing; the retry pass
        // re-sends it over a hazard-free path and the edge recovers.
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let victim = t1.embedding.edge_paths[0][0].edges().next().unwrap();
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, victim);
        let w = t1.embedding.edge_paths[0].len();
        let cfg = DeliveryConfig { threshold: w, max_retries: 1, message_len: 64 };
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        assert!(r.all_delivered(), "corruption must degrade, not poison");
        assert!(r.degraded >= 1, "the tainted share forced a retry round");
        assert!(r.edges.iter().all(|ed| !matches!(ed.outcome, EdgeOutcome::Lost { .. })));
        // Without retries the tainted share is simply lost — never
        // reconstructed into wrong bytes.
        let cfg0 = DeliveryConfig { threshold: w, max_retries: 0, message_len: 64 };
        let r0 = deliver_phase_plan(&t1.embedding, &plan, &cfg0);
        assert!(r0.lost >= 1);
    }

    #[test]
    fn transient_outage_is_avoided_by_oracle_retries() {
        // An outage on the first link of path 0 of bundle 0, open only
        // briefly: the initial share dies in the window; the oracle knows
        // the link is hazardous and retries over a different path.
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let victim = t1.embedding.edge_paths[0][0].edges().next().unwrap();
        let mut plan = FaultPlan::none(&host);
        plan.outage(victim, 0, 3);
        let w = t1.embedding.edge_paths[0].len();
        let cfg = DeliveryConfig { threshold: w, max_retries: 1, message_len: 64 };
        let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
        assert!(r.all_delivered());
    }

    #[test]
    fn report_accounting_is_consistent_across_a_fault_grid() {
        // Satellite: `recovered()` counts exactly the Delivered + Degraded
        // edges, `all_delivered()` is false iff any edge graded Lost, and
        // the three buckets partition the edge set — across a grid of
        // fault intensities, thresholds, and retry budgets.
        let t1 = theorem1(6).unwrap();
        let n_edges = t1.embedding.edge_paths.len();
        for kills in [0usize, 1, 2, 3] {
            for threshold in [1usize, 2, 3] {
                for max_retries in [0u32, 2] {
                    let cfg = DeliveryConfig { threshold, max_retries, message_len: 32 };
                    let plan = kill_paths(&t1.embedding, 0, kills);
                    let r = deliver_phase_plan(&t1.embedding, &plan, &cfg);
                    let ctx = format!("kills={kills} k={threshold} retries={max_retries}");
                    let by_outcome = |pred: &dyn Fn(&EdgeOutcome) -> bool| {
                        r.edges.iter().filter(|ed| pred(&ed.outcome)).count()
                    };
                    let delivered = by_outcome(&|o| matches!(o, EdgeOutcome::Delivered));
                    let degraded = by_outcome(&|o| matches!(o, EdgeOutcome::Degraded { .. }));
                    let lost = by_outcome(&|o| matches!(o, EdgeOutcome::Lost { .. }));
                    assert_eq!(r.delivered, delivered, "{ctx}");
                    assert_eq!(r.degraded, degraded, "{ctx}");
                    assert_eq!(r.lost, lost, "{ctx}");
                    assert_eq!(r.recovered(), delivered + degraded, "{ctx}");
                    assert_eq!(r.all_delivered(), lost == 0, "{ctx}");
                    assert_eq!(delivered + degraded + lost, n_edges, "{ctx}: buckets partition");
                    assert_eq!(r.edges.len(), n_edges, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn gray_cycle_has_no_redundancy_to_retry_over() {
        // Width-1 bundles: killing the only path makes retries useless.
        let gray = gray_cycle_embedding(5);
        let cfg = DeliveryConfig { threshold: 1, max_retries: 5, message_len: 16 };
        let plan = kill_paths(&gray, 0, 1);
        let r = deliver_phase_plan(&gray, &plan, &cfg);
        assert!(matches!(r.edges[0].outcome, EdgeOutcome::Lost { .. }));
    }

    #[test]
    fn fast_path_matches_engine_outcome_across_a_fault_grid() {
        // The closed-form fail-stop grader must agree with the packet
        // engine field for field — including the per-flow arrival bits,
        // retry accounting, and every per-edge grade — across fault
        // intensities, thresholds, and retry budgets.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let mut rng = StdRng::seed_from_u64(0x0dd5eed);
        let mut plans: Vec<FaultPlan> =
            (0..[0usize, 1, 2, 3].len()).map(|kills| kill_paths(&t1.embedding, 0, kills)).collect();
        for p in [0.01, 0.05, 0.2] {
            for _ in 0..4 {
                plans
                    .push(FaultPlan::from_set(crate::faults::random_fault_set(&host, p, &mut rng)));
            }
        }
        for plan in &plans {
            for threshold in [1usize, 2, 3] {
                for max_retries in [0u32, 1, 2] {
                    let cfg = DeliveryConfig { threshold, max_retries, message_len: 32 };
                    let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
                    let engine = deliver_phase_plan_prepared(&setup, plan).outcome();
                    let fast = deliver_phase_plan_outcome(&setup, plan);
                    assert_eq!(fast, engine, "k={threshold} retries={max_retries}");
                }
            }
        }
    }

    #[test]
    fn fast_path_handles_width_one_bundles() {
        let gray = gray_cycle_embedding(5);
        let cfg = DeliveryConfig { threshold: 1, max_retries: 5, message_len: 16 };
        let setup = AdaptiveSetup::new(&gray, &cfg);
        let plan = kill_paths(&gray, 0, 1);
        let fast = deliver_phase_plan_outcome(&setup, &plan);
        assert_eq!(fast, deliver_phase_plan_prepared(&setup, &plan).outcome());
        assert!(matches!(fast.edges[0].outcome, EdgeOutcome::Lost { arrived: 0 }));
    }

    #[test]
    fn non_static_inputs_fall_back_to_the_engine() {
        // A plan with a mid-run event and a plan with corruption are
        // outside the fast path's model; the outcome entry point must
        // produce the engine's answer (trivially, by running it).
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let victim = t1.embedding.edge_paths[0][0].edges().next().unwrap();
        let mut cut = FaultPlan::none(&host);
        cut.cut_link_at(0, victim);
        assert!(!cut.is_static_fail_stop());
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 32 };
        let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
        assert_eq!(
            deliver_phase_plan_outcome(&setup, &cut),
            deliver_phase_plan_prepared(&setup, &cut).outcome()
        );
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, victim);
        assert!(!plan.is_static_fail_stop());
        assert_eq!(
            deliver_phase_plan_outcome(&setup, &plan),
            deliver_phase_plan_prepared(&setup, &plan).outcome()
        );
    }

    #[test]
    fn outcome_projection_keeps_the_flow_order() {
        // `initial_flow_delivered` holds one bit per bundle path: with no
        // faults every bit is set.
        let t1 = theorem1(6).unwrap();
        let cfg = DeliveryConfig { threshold: 2, max_retries: 0, message_len: 16 };
        let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
        let out = deliver_phase_plan_outcome(&setup, &FaultPlan::none(&t1.embedding.host));
        assert_eq!(out.initial_flow_delivered.len(), t1.embedding.all_paths().count());
        assert!(out.initial_flow_delivered.iter().all(|&b| b));
        assert!(out.all_delivered());
        assert_eq!(out.recovered(), out.edges.len());
    }

    #[test]
    fn initial_arrival_bits_count_only_uncorrupted_shares() {
        // Each edge's set arrival bits, zero-hop paths included, are
        // exactly its graded first-round arrivals: a share that arrived
        // corrupted is an erasure in both views. Covers the dispersal loop
        // (dynamic and corrupting plans) and the fail-stop fast path
        // (static plans).
        use rand::SeedableRng;
        let mut e = theorem1(6).unwrap().embedding;
        for bundle in e.edge_paths.iter_mut().step_by(5) {
            let source = bundle[0].nodes()[0];
            bundle.push(hyperpath_embedding::HostPath::new(vec![source]));
        }
        let host = e.host;
        let mut corrupting = FaultPlan::none(&host);
        corrupting.corrupt_link(&host, e.edge_paths[0][0].edges().next().unwrap());
        let mut plans = vec![FaultPlan::none(&host), corrupting];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xa441);
        for t in 0..12 {
            plans.push(crate::chaos::random_plan(&host, t % 2 == 0, &mut rng));
        }
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 16 };
        let setup = AdaptiveSetup::new(&e, &cfg);
        for (pi, plan) in plans.iter().enumerate() {
            let out = deliver_phase_plan_outcome(&setup, plan);
            let mut bits = out.initial_flow_delivered.iter();
            for (eid, bundle) in e.edge_paths.iter().enumerate() {
                let arrivals = bits.by_ref().take(bundle.len()).filter(|&&b| b).count();
                assert_eq!(arrivals, out.edges[eid].first_round_arrivals, "plan {pi} edge {eid}");
            }
            assert!(bits.next().is_none(), "plan {pi}: one bit per bundle path");
        }
    }

    #[test]
    fn a_phase_without_shares_reports_an_empty_first_round() {
        let mut e = theorem1(4).unwrap().embedding;
        e.edge_paths.clear();
        let cfg = DeliveryConfig { threshold: 1, max_retries: 1, message_len: 64 };
        let r = deliver_phase_plan(&e, &FaultPlan::none(&e.host), &cfg);
        assert_eq!((r.edges.len(), r.rounds_run, r.shares_resent), (0, 0, 0));
        assert_eq!(r.initial, PlanReport::default());
        assert!(r.initial_flow_delivered.is_empty());
    }
}
