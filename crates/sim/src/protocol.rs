//! The dispersal loop: one phase of IDA delivery, run under one of two
//! knowledge policies.
//!
//! A real machine has no fault oracle — it knows only which share indices
//! came back verified. [`deliver_adaptive`] is that protocol, the loop
//! under the *learned* policy, where the sender learns path health
//! **only** from per-round ACK/NACK feedback:
//!
//! 1. **Round 0**: disperse each guest edge's message into `w` keyed
//!    tagged shares ([`Ida::disperse_tagged`]) and send share `i` down
//!    bundle path `i`.
//! 2. **Feedback**: the destination ACKs each share that arrived *and*
//!    verified ([`Ida::verify_share`]); a missing or corrupt share is a
//!    NACK. The sender marks the submitting path observed-dead on NACK —
//!    the only fault information it ever receives.
//! 3. **Retry rounds**: missing shares are re-sent over paths not yet
//!    observed-dead, round-robin, with an exponentially growing per-share
//!    copy budget (round `r` sends up to `2^(r-1)` copies of each missing
//!    share over distinct live paths — redundancy substitutes for the
//!    knowledge the oracle has). If every path of a bundle has been
//!    observed dead, the observations are reset: transient outages heal,
//!    so written-off paths deserve a second look. The budget saturates at
//!    the live-path count, an edge whose full re-probes verify nothing
//!    [`MAX_FRUITLESS_PROBES`] times in a row is written off, and the
//!    round loop is capped at [`MAX_ADAPTIVE_ROUNDS`] — so an all-dead
//!    plan terminates promptly even under an absurd retry budget.
//!
//! The function is oracle-free *by construction*: its signature admits no
//! fault type — all fault state lives behind the [`RoundNetwork`] trait,
//! whose production implementation [`PlanNetwork`] runs each round through
//! the planned packet engine ([`PacketArena::run_planned`], one pooled
//! arena per network) and flips the payload bytes of corrupted deliveries
//! with the plan's seeded RNG.
//! `tests/adaptive_conformance.rs` (bench crate) pins this protocol
//! against the fail-stop closed form
//! ([`deliver_phase_plan_outcome`](crate::delivery::deliver_phase_plan_outcome)):
//! equal delivery on every static fail-stop draw, and never a silently
//! wrong reconstruction anywhere.
//!
//! [`deliver_phase_plan`](crate::delivery::deliver_phase_plan) runs the
//! same loop under a crate-private *omniscient* policy that knows the
//! plan's [`hazard_set`](FaultPlan::hazard_set): after round 0 every empty
//! or hazardous path is dead, an edge with no path left is skipped (no
//! probe), and each missing share is sent once, round-robin over the live
//! paths. Those retries cross no faulty link, so they ship through the
//! same [`PlanNetwork`] as round 0.
//!
//! # A phase on every worker
//!
//! A phase's IDA work is per item: fingerprinting each share when tagging
//! it, verifying each arrival after every round, and reconstructing each
//! recovered edge when grading. With shares of at least 600 bytes those
//! three stages run on the rayon pool, each over 8 contiguous chunks of its
//! items. The chunk count is a constant, never the pool size, so chunk
//! boundaries, per-chunk buffers and allocation counts are the same at any
//! thread count. Each chunk writes only its own items' results (tags,
//! per-submission verdicts, per-edge grades), so no locks are needed.
//! Everything that depends on order stays serial: building submissions,
//! planning retries, `ship`, the edge state transitions, and folding the
//! results into state and counters in submission or edge order. Shorter
//! shares run the same code as one inline chunk: below the cutoff the
//! two-worker gain on `Q_10` was small and cost too much extra CPU
//! (DESIGN.md §6 item 20). A report is byte-identical at any thread
//! count.

use crate::delivery::{message_for_edge, DeliveryConfig, EdgeDelivery, EdgeOutcome};
use crate::faults::FaultPlan;
use crate::packet::{PacketArena, PlanReport, SimReport};
use crate::trace::NopRecorder;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_ida::{share_fingerprint, Ida, Share, TaggedShare};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::ops::Range;

/// Step cap per simulated round (a stuck round is a workload bug).
const MAX_STEPS: u64 = 10_000_000;

/// Contiguous chunks a fanned-out stage splits its items into. A constant,
/// not the pool size, so the chunk boundaries and each chunk's grading
/// buffers, and with them every allocation, are the same at any thread
/// count.
const FAN_OUT_CHUNKS: usize = 8;

/// Share length (bytes, length header included) from which a phase fans
/// its IDA stages out over the rayon pool. Shorter shares fingerprint and
/// reconstruct too fast to pay for waking a worker and moving each share's
/// cache lines to it, so each stage runs as one inline chunk. On `Q_10`
/// with `k = 3` two workers cut a phase's p50 by 20–38% from 2 KiB
/// messages (691-byte shares) on, in both runs that checked for the
/// second CPU around every round; at 1.5 KiB (520-byte shares) and below
/// the gain varied from run to run and cost 7–22% more CPU (DESIGN.md §6
/// item 20).
const FAN_OUT_MIN_SHARE_BYTES: usize = 600;

/// Hard ceiling on retry rounds, regardless of
/// [`DeliveryConfig::max_retries`]. An all-dead bundle re-probes every
/// path each round, so without an explicit cap a pathological retry
/// budget (`u32::MAX`) would spin on identical fruitless rounds more or
/// less forever; any legitimate configuration sits far below this.
pub const MAX_ADAPTIVE_ROUNDS: u32 = 4096;

/// Consecutive full-bundle probes (all-dead resets) allowed to verify
/// nothing before an edge is written off. Two probes distinguish "every
/// path happened to be down this round" from "this bundle is gone": a
/// transient outage that heals mid-phase flips at least one NACK to an
/// ACK across two full sweeps of the bundle.
pub const MAX_FRUITLESS_PROBES: u32 = 2;

/// One share handed to the network: which guest edge it serves, which
/// bundle path it rides, and the tagged payload.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Guest edge the share belongs to.
    pub guest_edge: usize,
    /// Bundle path index it is sent down.
    pub via: usize,
    /// The keyed tagged share.
    pub payload: TaggedShare,
}

/// The channel [`deliver_adaptive`] speaks through — the *only* interface
/// between the protocol and the (possibly faulty) machine. Entry `i` of
/// the result corresponds to submission `i`: `None` is a drop, `Some` is
/// whatever arrived, bytes possibly mangled in transit.
pub trait RoundNetwork {
    /// Ships one round of submissions and reports what the destinations
    /// received.
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>>;
}

/// The production [`RoundNetwork`]: each round becomes one plan-aware
/// packet simulation (one single-packet flow per submission, injected in
/// submission order), re-running the [`FaultPlan`] from step 0 — each
/// protocol round experiences the same adversarial schedule, the modeling
/// analogue of a phase-synchronous machine. A dropped packet returns
/// `None`; a delivery that crossed a corrupting link returns the payload
/// with its bytes flipped by an RNG seeded from the plan's
/// [`corrupt_seed`](FaultPlan::corrupt_seed), the round, and the
/// submission index (deterministic, so every run replays identically).
///
/// The network builds one [`PacketArena`] for its host on its first
/// non-empty round and reuses it for every later round, so a phase pays
/// for the link-indexed machine state once, not once per round.
#[derive(Debug, Clone)]
pub struct PlanNetwork<'a> {
    e: &'a MultiPathEmbedding,
    plan: &'a FaultPlan,
    arena: Option<PacketArena>,
    /// The machine report of the last non-empty round.
    last: Option<SimReport>,
}

impl<'a> PlanNetwork<'a> {
    /// A network routing over `e`'s bundles under `plan`.
    pub fn new(e: &'a MultiPathEmbedding, plan: &'a FaultPlan) -> Self {
        PlanNetwork { e, plan, arena: None, last: None }
    }

    /// The last non-empty round as a [`PlanReport`], flow `i` being
    /// submission `i`; the empty report if no round carried a share.
    pub(crate) fn last_plan_report(&self) -> PlanReport {
        match (&self.arena, &self.last) {
            (Some(arena), Some(report)) => arena.single_packet_plan_report(report.clone()),
            _ => PlanReport::default(),
        }
    }
}

/// SplitMix64 finalizer (the seed-derivation permutation).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flips the payload of a share that crossed a corrupting link. Every
/// byte is XORed with a seeded stream; if the stream happens to be all
/// zeros the first byte is flipped anyway, so a "corrupted" delivery is
/// never byte-identical to the original.
pub(crate) fn corrupt_payload(
    ts: &TaggedShare,
    seed: u64,
    round: u32,
    index: usize,
) -> TaggedShare {
    let mut rng =
        ChaCha8Rng::seed_from_u64(mix64(seed ^ mix64(u64::from(round) << 32 | index as u64)));
    let mut bytes = ts.share.data.to_vec();
    let mut mask = vec![0u8; bytes.len()];
    rng.fill_bytes(&mut mask);
    let mut changed = false;
    for (b, m) in bytes.iter_mut().zip(&mask) {
        *b ^= m;
        changed |= *m != 0;
    }
    if !changed && !bytes.is_empty() {
        bytes[0] ^= 0x5a;
    }
    TaggedShare { share: Share { index: ts.share.index, data: bytes.into() }, tag: ts.tag }
}

impl RoundNetwork for PlanNetwork<'_> {
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
        if subs.is_empty() {
            return Vec::new();
        }
        let e = self.e;
        let path = |sub: &Submission| e.edge_paths[sub.guest_edge][sub.via].nodes();
        let arena = self.arena.get_or_insert_with(|| PacketArena::new(e.host));
        arena.clear();
        let hops = subs.iter().map(|sub| path(sub).len().saturating_sub(1)).sum();
        arena.reserve(subs.len(), hops);
        for sub in subs {
            // Submission `i` is flow `i`, so arbitration follows submission
            // order. Zero-hop paths are legal: the engine delivers them
            // instantly and they can never cross a (corrupting) link.
            arena.add_flow_walk(path(sub), 1);
        }
        self.last = Some(arena.run_planned(MAX_STEPS, self.plan, &mut NopRecorder));
        let (delivered, corrupted) = (arena.flow_delivered(), arena.flow_corrupted());
        subs.iter()
            .enumerate()
            .map(|(i, sub)| {
                if delivered[i] != 1 {
                    return None;
                }
                if corrupted[i] == 1 {
                    Some(corrupt_payload(&sub.payload, self.plan.corrupt_seed(), round, i))
                } else {
                    Some(sub.payload.clone())
                }
            })
            .collect()
    }
}

/// Outcome of one adaptive dispersal phase: the
/// [`DeliveryReport`](crate::delivery::DeliveryReport) accounting fields
/// plus the protocol's own counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// One record per guest edge (same grading as the oracle pipeline).
    pub edges: Vec<EdgeDelivery>,
    /// Edges whose threshold was met in round 0.
    pub delivered: usize,
    /// Edges recovered only by retries.
    pub degraded: usize,
    /// Edges whose message was lost.
    pub lost: usize,
    /// Retry rounds actually executed.
    pub rounds_run: u32,
    /// Shares re-sent across all retry rounds (copies count).
    pub shares_resent: u64,
    /// Shares that arrived but failed fingerprint verification (the
    /// corruption-to-erasure conversions).
    pub rejected_shares: u64,
    /// Reconstructions that produced bytes differing from the original
    /// message. With verified shares this must be 0 — the chaos harness
    /// asserts it.
    pub wrong_reconstructions: u64,
}

impl AdaptiveReport {
    /// Whether every guest edge's message was recovered.
    pub fn all_delivered(&self) -> bool {
        self.lost == 0
    }

    /// Messages recovered, degraded or not.
    pub fn recovered(&self) -> usize {
        self.delivered + self.degraded
    }
}

/// The fault- and key-independent half of an adaptive phase: per-edge IDA
/// schemes, messages, and *untagged* dispersed shares, built once and
/// reused across trials. Tags are keyed per call, so one setup serves any
/// number of `(key, network)` draws; the per-call tagging reproduces
/// [`Ida::disperse_tagged`] byte for byte (it is the same
/// [`share_fingerprint`] over the same share bytes).
///
/// # Panics
/// [`AdaptiveSetup::new`] panics if any bundle is empty or wider than 255
/// paths (the IDA share index is a byte).
pub struct AdaptiveSetup<'a> {
    pub(crate) e: &'a MultiPathEmbedding,
    pub(crate) cfg: DeliveryConfig,
    pub(crate) edges: Vec<AdaptiveEdgeSetup>,
    /// Every edge's untagged shares, edge after edge: share `i` of an edge
    /// sits at its [`offset`](AdaptiveEdgeSetup::offset) `+ i`.
    shares: Vec<Share>,
    /// Whether a phase fans its IDA stages out: the longest share reaches
    /// [`FAN_OUT_MIN_SHARE_BYTES`].
    wide: bool,
}

/// Per-edge precomputed state of an [`AdaptiveSetup`].
pub(crate) struct AdaptiveEdgeSetup {
    pub(crate) threshold: usize,
    ida: Ida,
    message: Vec<u8>,
    /// Where the edge's shares start in the phase-wide per-share arrays;
    /// share `i` travels first on bundle path `i`, so path state shares
    /// the indexing.
    offset: usize,
}

impl AdaptiveEdgeSetup {
    /// The edge's slots in the phase-wide per-share arrays.
    fn slots(&self) -> Range<usize> {
        self.offset..self.offset + usize::from(self.ida.shares())
    }
}

impl<'a> AdaptiveSetup<'a> {
    /// Disperses every edge's message once (untagged).
    pub fn new(e: &'a MultiPathEmbedding, cfg: &DeliveryConfig) -> Self {
        let mut shares = Vec::with_capacity(e.edge_paths.iter().map(Vec::len).sum());
        let edges: Vec<AdaptiveEdgeSetup> = e
            .edge_paths
            .iter()
            .enumerate()
            .map(|(eid, bundle)| {
                let w = bundle.len();
                assert!(
                    (1..=255).contains(&w),
                    "guest edge {eid}: bundle width {w} outside the IDA share range"
                );
                let threshold = cfg.threshold.clamp(1, w);
                let ida = Ida::new(w as u8, threshold as u8);
                let message = message_for_edge(eid, cfg.message_len);
                let offset = shares.len();
                shares.extend(ida.disperse(&message));
                AdaptiveEdgeSetup { threshold, ida, message, offset }
            })
            .collect();
        let wide = shares.iter().any(|s| s.data.len() >= FAN_OUT_MIN_SHARE_BYTES);
        AdaptiveSetup { e, cfg: *cfg, edges, shares, wide }
    }
}

/// Runs `f(start, chunk, scratch)` over `items` split into
/// [`FAN_OUT_CHUNKS`] contiguous chunks on the rayon pool when `wide`, and
/// once inline over all of `items` otherwise. `start` is the chunk's first
/// index in `items`; every chunk gets its own fresh `scratch`.
fn fan_out<T: Send, S: Default + Send>(
    items: &mut [T],
    wide: bool,
    f: impl Fn(usize, &mut [T], &mut S) + Sync,
) {
    if !wide {
        return f(0, items, &mut S::default());
    }
    let size = items.len().div_ceil(FAN_OUT_CHUNKS).max(1);
    let mut chunks = items.chunks_mut(size).enumerate();
    let mut parts: [_; FAN_OUT_CHUNKS] =
        std::array::from_fn(|_| chunks.next().map(|(c, chunk)| (c * size, chunk, S::default())));
    parts.par_iter_mut().for_each(|part| {
        if let Some((start, chunk, scratch)) = part {
            f(*start, chunk, scratch);
        }
    });
}

/// Runs one oracle-free adaptive dispersal phase of `e` through `net`.
///
/// `key` keys the share fingerprints; sender and receiver share it (the
/// adversary model is the fault plan's random corruption, not a
/// key-knowing forger). The function never sees a fault set, timeline, or
/// plan — path health is inferred exclusively from which submissions come
/// back verified. Fully deterministic for a deterministic network.
///
/// Convenience form of [`deliver_adaptive_prepared`] that builds the
/// [`AdaptiveSetup`] on the spot; sweeps that run many trials against one
/// configuration should build the setup once instead.
///
/// # Panics
/// Panics if any bundle is empty or wider than 255 paths (the IDA share
/// index is a byte).
pub fn deliver_adaptive<N: RoundNetwork>(
    e: &MultiPathEmbedding,
    cfg: &DeliveryConfig,
    key: u64,
    net: &mut N,
) -> AdaptiveReport {
    deliver_adaptive_prepared(&AdaptiveSetup::new(e, cfg), key, net)
}

/// What the sender of a phase knows about the faults (module docs).
pub(crate) enum Knowledge {
    /// Only the ACK/NACK feedback of each round.
    Learned,
    /// Per share slot: bundle path `i` is empty or crosses a hazard link.
    Omniscient(Vec<bool>),
}

/// [`deliver_adaptive`] against a prebuilt [`AdaptiveSetup`]: dispersal is
/// reused from the setup and only tagging, simulation rounds, and grading
/// run per call.
///
/// Per-share state lives in phase-wide arrays indexed by each edge's share
/// offset, so a phase allocates a fixed handful of buffers plus, per round,
/// the submission list and the network's answer. Nothing is allocated per
/// recovered edge: grading reconstructs into buffers it reuses
/// ([`Ida::reconstruct_into`]).
///
/// With shares of at least 600 bytes, tagging, arrival verification and
/// grading run on the rayon pool in 8 contiguous chunks (a constant, never
/// the pool size); shorter shares run them as one inline chunk. Building
/// submissions, planning retries, the edge state transitions and `ship`
/// stay serial, and results fold into state and counters in submission or
/// edge order, so the report is the same at any thread count (module docs,
/// "A phase on every worker").
pub fn deliver_adaptive_prepared<N: RoundNetwork>(
    setup: &AdaptiveSetup<'_>,
    key: u64,
    net: &mut N,
) -> AdaptiveReport {
    run_phase(setup, key, net, &Knowledge::Learned)
}

/// The dispersal loop behind [`deliver_adaptive_prepared`] and
/// [`deliver_phase_plan_prepared`](crate::delivery::deliver_phase_plan_prepared).
pub(crate) fn run_phase<N: RoundNetwork>(
    setup: &AdaptiveSetup<'_>,
    key: u64,
    net: &mut N,
    knowledge: &Knowledge,
) -> AdaptiveReport {
    let e = setup.e;
    let cfg = &setup.cfg;
    let n_edges = e.edge_paths.len();
    let wide = setup.wide;

    #[derive(Clone, Default)]
    struct EdgeState {
        first_round_arrivals: usize,
        recovered_in_round: Option<u32>, // 0 = initial round
        /// Consecutive full-bundle probes (all-dead resets) that verified
        /// nothing new; at [`MAX_FRUITLESS_PROBES`] the edge is written off.
        fruitless_probes: u32,
        /// Verified-share count snapshot taken when this round is a full
        /// probe, compared after the round to detect fruitlessness.
        probe_baseline: Option<usize>,
        /// Written off: every path probed [`MAX_FRUITLESS_PROBES`] times
        /// over with zero arrivals — stop spending budget on it.
        given_up: bool,
        /// Grading's reconstruction of a recovered edge.
        rebuilt: Rebuilt,
    }

    /// What reconstructing a recovered edge from its verified shares gave.
    #[derive(Clone, Copy, Default)]
    enum Rebuilt {
        /// Not attempted: the edge was never recovered.
        #[default]
        Untried,
        /// The setup's message, byte for byte.
        RightBytes,
        /// Bytes differing from the message (a fingerprint miss).
        WrongBytes,
        /// The verified shares did not reconstruct at all.
        Failed,
    }

    // Phase-wide per-share state, indexed by `offset + i`: the keyed
    // tagged shares, the verified arrivals (by share index), and the paths
    // observed dead (NACKed) so far. The tags are fingerprinted chunk by
    // chunk after the serial share clones.
    let mut tagged: Vec<TaggedShare> =
        setup.shares.iter().map(|share| TaggedShare { share: share.clone(), tag: 0 }).collect();
    fan_out(&mut tagged, wide, |_, chunk, _: &mut ()| {
        for ts in chunk {
            ts.tag = share_fingerprint(key, ts.share.index, &ts.share.data);
        }
    });
    let mut verified: Vec<Option<Share>> = vec![None; tagged.len()];
    let mut path_dead = vec![false; tagged.len()];
    let mut states = vec![EdgeState::default(); n_edges];
    let verified_count = |verified: &[Option<Share>], es: &AdaptiveEdgeSetup| {
        verified[es.slots()].iter().filter(|v| v.is_some()).count()
    };

    let mut rejected_shares = 0u64;
    // Each submission's verification verdict in the current round, sized
    // for round 0 (a retry round may grow it).
    let mut verdicts: Vec<bool> = Vec::with_capacity(tagged.len());

    // One round through the network: submissions out, verified shares in.
    // The verdicts are computed chunk by chunk, then fill verified slots
    // and mark NACKed paths in submission order.
    let mut run_round = |round: u32,
                         subs: &[Submission],
                         verified: &mut [Option<Share>],
                         path_dead: &mut [bool]| {
        let results = net.ship(round, subs);
        assert_eq!(results.len(), subs.len(), "network must answer every submission");
        verdicts.clear();
        verdicts.resize(subs.len(), false);
        fan_out(&mut verdicts, wide, |start, chunk, _: &mut ()| {
            for ((ok, sub), res) in chunk.iter_mut().zip(&subs[start..]).zip(&results[start..]) {
                let ida = &setup.edges[sub.guest_edge].ida;
                *ok = res.as_ref().is_some_and(|ts| ida.verify_share(key, ts));
            }
        });
        for ((sub, res), &ok) in subs.iter().zip(results).zip(&verdicts) {
            let es = &setup.edges[sub.guest_edge];
            let dead = &mut path_dead[es.slots()][sub.via];
            match res {
                Some(ts) if ok => {
                    let slot = es.offset + usize::from(ts.share.index);
                    verified[slot] = Some(ts.share);
                    // An ACK via this path: it worked this round.
                    *dead = false;
                }
                Some(_) => {
                    // Arrived but mangled: corruption observed as erasure.
                    rejected_shares += 1;
                    *dead = true;
                }
                None => *dead = true,
            }
        }
    };

    // Round 0: share `i` rides path `i` of its bundle.
    let mut subs: Vec<Submission> = Vec::with_capacity(tagged.len());
    for (eid, es) in setup.edges.iter().enumerate() {
        for (i, ts) in tagged[es.slots()].iter().enumerate() {
            subs.push(Submission { guest_edge: eid, via: i, payload: ts.clone() });
        }
    }
    run_round(0, &subs, &mut verified, &mut path_dead);
    if let Knowledge::Omniscient(hazardous) = knowledge {
        // Adds the paths that ACKed in round 0 but cross a hazard link.
        path_dead.copy_from_slice(hazardous);
    }
    for (st, es) in states.iter_mut().zip(&setup.edges) {
        st.first_round_arrivals = verified_count(&verified, es);
        if st.first_round_arrivals >= es.threshold {
            st.recovered_in_round = Some(0);
        }
    }

    // Retry rounds: re-send the missing shares over paths not yet
    // observed-dead, with an exponentially growing copy budget. The budget
    // saturates at the live-path count well before the shift could wrap,
    // and the round loop is explicitly capped at [`MAX_ADAPTIVE_ROUNDS`]:
    // an all-dead bundle resets and re-probes every path each round, so a
    // pathological `max_retries` (e.g. `u32::MAX`) would otherwise spin on
    // identical fruitless rounds essentially forever.
    let mut shares_resent = 0u64;
    let mut rounds_run = 0u32;
    let mut alive: Vec<usize> = Vec::new();
    let omniscient = matches!(knowledge, Knowledge::Omniscient(_));
    for round in 1..=cfg.max_retries.min(MAX_ADAPTIVE_ROUNDS) {
        subs.clear();
        for (eid, (st, es)) in states.iter_mut().zip(&setup.edges).enumerate() {
            if st.recovered_in_round.is_some() || st.given_up {
                continue;
            }
            let dead = &mut path_dead[es.slots()];
            if dead.iter().all(|&d| d) {
                // Every path written off. The omniscient sender knows none
                // will heal; the learned one gives up after
                // MAX_FRUITLESS_PROBES full re-probes that verified nothing.
                if omniscient || st.fruitless_probes >= MAX_FRUITLESS_PROBES {
                    st.given_up = true;
                    continue;
                }
                // Otherwise reset the observations and try every path
                // again — a transient outage may have healed.
                dead.fill(false);
                st.probe_baseline = Some(verified_count(&verified, es));
            }
            alive.clear();
            alive.extend(dead.iter().enumerate().filter(|&(_, &d)| !d).map(|(i, _)| i));
            // Up to 2^(round-1) copies of each missing share, saturated at
            // the live-path count (the cap binds from round 9 on, since a
            // bundle holds at most 255 paths — no shift ever overflows). An
            // omniscient sender's one copy rides a path that cannot fail.
            let copies = match round {
                _ if omniscient => 1,
                9.. => alive.len(),
                _ => (1usize << (round - 1)).min(alive.len()),
            };
            let missing = es.slots().filter(|&slot| verified[slot].is_none());
            for (j, slot) in missing.enumerate() {
                for c in 0..copies {
                    let via = alive[(j + c) % alive.len()];
                    subs.push(Submission { guest_edge: eid, via, payload: tagged[slot].clone() });
                }
            }
        }
        if subs.is_empty() {
            break;
        }
        rounds_run = round;
        shares_resent += subs.len() as u64;
        run_round(round, &subs, &mut verified, &mut path_dead);
        for (st, es) in states.iter_mut().zip(&setup.edges) {
            let count = verified_count(&verified, es);
            if let Some(base) = st.probe_baseline.take() {
                if count == base {
                    st.fruitless_probes += 1;
                } else {
                    st.fruitless_probes = 0;
                }
            }
            if st.recovered_in_round.is_none() && count >= es.threshold {
                st.recovered_in_round = Some(round);
            }
        }
    }

    // Reconstruct every recovered edge from its first `k` verified shares,
    // read in place, and compare with the setup's message. Each chunk
    // reuses one message and one scratch buffer.
    fan_out(&mut states, wide, |start, chunk, (out, scratch): &mut (Vec<u8>, Vec<u8>)| {
        for (st, es) in chunk.iter_mut().zip(&setup.edges[start..]) {
            if st.recovered_in_round.is_none() {
                continue;
            }
            let shares = verified[es.slots()].iter().flatten().take(es.threshold);
            st.rebuilt = match es.ida.reconstruct_into(shares, out, scratch) {
                Ok(()) if *out == es.message => Rebuilt::RightBytes,
                Ok(()) => Rebuilt::WrongBytes,
                Err(_) => Rebuilt::Failed,
            };
        }
    });

    // Grade every edge in edge order.
    let mut edges = Vec::with_capacity(n_edges);
    let (mut delivered, mut degraded, mut lost) = (0usize, 0usize, 0usize);
    let mut wrong_reconstructions = 0u64;
    for (eid, (st, es)) in states.iter().zip(&setup.edges).enumerate() {
        let outcome = match (st.recovered_in_round, st.rebuilt) {
            (Some(0), Rebuilt::RightBytes) => {
                delivered += 1;
                EdgeOutcome::Delivered
            }
            (Some(rounds), Rebuilt::RightBytes) => {
                degraded += 1;
                EdgeOutcome::Degraded { rounds }
            }
            (_, rebuilt) => {
                // A verified share set reconstructing to wrong bytes would
                // be a fingerprint miss; grade Lost and surface it loudly.
                if matches!(rebuilt, Rebuilt::WrongBytes) {
                    wrong_reconstructions += 1;
                }
                lost += 1;
                EdgeOutcome::Lost { arrived: verified_count(&verified, es) }
            }
        };
        edges.push(EdgeDelivery {
            guest_edge: eid,
            width: e.edge_paths[eid].len(),
            threshold: es.threshold,
            first_round_arrivals: st.first_round_arrivals,
            outcome,
        });
    }

    AdaptiveReport {
        edges,
        delivered,
        degraded,
        lost,
        rounds_run,
        shares_resent,
        rejected_shares,
        wrong_reconstructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::random_plan;
    use crate::faults::FaultSet;
    use crate::packet::{Flow, PacketSim};
    use hyperpath_core::cycles::theorem1;
    use hyperpath_embedding::HostPath;
    use hyperpath_topology::DirEdge;

    const KEY: u64 = 0x0dd5_ba11_c0de_cafe;

    #[test]
    fn fault_free_network_delivers_everything_in_round_zero() {
        let t1 = theorem1(6).unwrap();
        let plan = FaultPlan::none(&t1.embedding.host);
        let mut net = PlanNetwork::new(&t1.embedding, &plan);
        let cfg = DeliveryConfig { threshold: 2, max_retries: 2, message_len: 96 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut net);
        assert!(r.all_delivered());
        assert_eq!(r.delivered, t1.embedding.edge_paths.len());
        assert_eq!((r.degraded, r.rounds_run, r.shares_resent), (0, 0, 0));
        assert_eq!((r.rejected_shares, r.wrong_reconstructions), (0, 0));
    }

    #[test]
    fn adaptive_recovers_from_cut_paths_without_reading_the_plan() {
        // Cut the first link of two of bundle 0's three paths: round 0
        // NACKs those shares, and the retry round reroutes them over the
        // path observed alive.
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let mut fs = FaultSet::none(&host);
        for path in t1.embedding.edge_paths[0].iter().take(2) {
            fs.fail_link(&host, path.edges().next().unwrap());
        }
        let mut plan = FaultPlan::none(&host);
        for path in t1.embedding.edge_paths[0].iter().take(2) {
            plan.cut_link(&host, path.edges().next().unwrap());
        }
        let mut net = PlanNetwork::new(&t1.embedding, &plan);
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 64 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut net);
        assert!(r.all_delivered());
        assert!(r.degraded >= 1);
        assert_eq!(r.edges[0].outcome, EdgeOutcome::Degraded { rounds: 1 });
        assert_eq!(r.wrong_reconstructions, 0);
    }

    #[test]
    fn corrupted_shares_are_rejected_then_recovered_over_clean_paths() {
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let victim = t1.embedding.edge_paths[0][0].edges().next().unwrap();
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, victim);
        plan.set_corrupt_seed(77);
        let mut net = PlanNetwork::new(&t1.embedding, &plan);
        let w = t1.embedding.edge_paths[0].len();
        let cfg = DeliveryConfig { threshold: w, max_retries: 2, message_len: 64 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut net);
        assert!(r.rejected_shares >= 1, "the tainted share must be NACKed, not accepted");
        assert_eq!(r.wrong_reconstructions, 0, "corruption degrades to erasure, never to lies");
        assert!(r.all_delivered(), "clean paths carry the retries");
        assert!(r.degraded >= 1);
    }

    #[test]
    fn observed_dead_paths_are_reset_when_all_are_written_off() {
        // A scripted network that fails EVERY submission in rounds 0-1 and
        // delivers everything from round 2 on: the protocol must write all
        // paths off, reset, and still recover — no fault type in sight.
        struct FlakyNetwork {
            heal_at: u32,
        }
        impl RoundNetwork for FlakyNetwork {
            fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
                subs.iter()
                    .map(|s| if round >= self.heal_at { Some(s.payload.clone()) } else { None })
                    .collect()
            }
        }
        let t1 = theorem1(6).unwrap();
        let cfg = DeliveryConfig { threshold: 2, max_retries: 3, message_len: 48 };
        let mut net = FlakyNetwork { heal_at: 2 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut net);
        assert!(r.all_delivered(), "reset-and-retry must ride out the outage");
        assert_eq!(r.delivered, 0, "nothing arrived in round 0");
        assert!(r.edges.iter().all(|ed| ed.outcome == EdgeOutcome::Degraded { rounds: 2 }));
    }

    #[test]
    fn all_links_cut_terminates_under_an_absurd_retry_budget() {
        // Regression: an all-dead streak used to spend the entire retry
        // budget on identical fruitless probe rounds — with
        // `max_retries = u32::MAX` the protocol effectively never
        // returned. Two fruitless full probes now write each edge off and
        // the loop is capped at MAX_ADAPTIVE_ROUNDS, so this terminates
        // in a handful of rounds with everything graded Lost.
        let t1 = theorem1(4).unwrap();
        let host = t1.embedding.host;
        let mut plan = FaultPlan::none(&host);
        for e in host.undirected_edges() {
            plan.cut_link(&host, e);
        }
        let cfg = DeliveryConfig { threshold: 2, max_retries: u32::MAX, message_len: 48 };
        let mut net = PlanNetwork::new(&t1.embedding, &plan);
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut net);
        assert_eq!(r.recovered(), 0);
        assert_eq!(r.lost, t1.embedding.edge_paths.len());
        assert!(
            r.rounds_run <= MAX_FRUITLESS_PROBES + 1,
            "write-off must bound the rounds, ran {}",
            r.rounds_run
        );
        // Each retry round re-sent at most the saturated budget: every
        // missing share over every live path.
        let w = t1.embedding.edge_paths[0].len() as u64;
        let edges = t1.embedding.edge_paths.len() as u64;
        assert!(r.shares_resent <= u64::from(r.rounds_run) * edges * w * w);
        assert!(r.edges.iter().all(|ed| matches!(ed.outcome, EdgeOutcome::Lost { arrived: 0 })));
    }

    #[test]
    fn round_loop_is_capped_for_never_healing_networks() {
        // A network that drops everything, behind a budget that would
        // otherwise allow 4 billion rounds. The per-edge write-off ends
        // the loop long before MAX_ADAPTIVE_ROUNDS; the cap is the
        // backstop for custom networks that keep an edge half-alive.
        struct BlackholeNetwork;
        impl RoundNetwork for BlackholeNetwork {
            fn ship(&mut self, _round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
                vec![None; subs.len()]
            }
        }
        let t1 = theorem1(4).unwrap();
        let cfg = DeliveryConfig { threshold: 1, max_retries: u32::MAX, message_len: 16 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut BlackholeNetwork);
        assert_eq!(r.recovered(), 0);
        assert!(r.rounds_run <= MAX_ADAPTIVE_ROUNDS.min(MAX_FRUITLESS_PROBES + 1));
    }

    #[test]
    fn mangled_payloads_from_a_hostile_network_never_reconstruct_wrong() {
        // A network that delivers every share with flipped bytes: all
        // shares are rejected, every edge is Lost, and no reconstruction
        // ever fabricates wrong bytes.
        struct LiarNetwork;
        impl RoundNetwork for LiarNetwork {
            fn ship(&mut self, _round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
                subs.iter()
                    .map(|s| {
                        let mut bytes = s.payload.share.data.to_vec();
                        for b in &mut bytes {
                            *b ^= 0xa5;
                        }
                        Some(TaggedShare {
                            share: Share { index: s.payload.share.index, data: bytes.into() },
                            tag: s.payload.tag,
                        })
                    })
                    .collect()
            }
        }
        let t1 = theorem1(4).unwrap();
        let cfg = DeliveryConfig { threshold: 1, max_retries: 2, message_len: 32 };
        let r = deliver_adaptive(&t1.embedding, &cfg, KEY, &mut LiarNetwork);
        assert_eq!(r.recovered(), 0);
        assert_eq!(r.wrong_reconstructions, 0);
        assert!(r.rejected_shares > 0);
        assert!(r.edges.iter().all(|ed| matches!(ed.outcome, EdgeOutcome::Lost { arrived: 0 })));
    }

    #[test]
    fn wide_phase_grades_every_edge_from_its_own_shares() {
        // Every share of each third edge is dropped. Past the fan-out
        // cutoff each grading chunk must read its own edges' slots: the
        // dropped edges grade Lost and every other edge Delivered.
        struct DropEveryThirdEdge;
        impl RoundNetwork for DropEveryThirdEdge {
            fn ship(&mut self, _round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
                subs.iter().map(|s| (s.guest_edge % 3 != 0).then(|| s.payload.clone())).collect()
            }
        }
        let t1 = theorem1(6).unwrap();
        let message_len = 4 * FAN_OUT_MIN_SHARE_BYTES;
        let cfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len };
        let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
        assert!(setup.wide);
        let r = deliver_adaptive_prepared(&setup, KEY, &mut DropEveryThirdEdge);
        for ed in &r.edges {
            let expected = if ed.guest_edge % 3 == 0 {
                EdgeOutcome::Lost { arrived: 0 }
            } else {
                EdgeOutcome::Delivered
            };
            assert_eq!(ed.outcome, expected, "edge {}", ed.guest_edge);
        }
        assert_eq!((r.rejected_shares, r.wrong_reconstructions), (0, 0));
    }

    #[test]
    fn corrupt_payload_is_deterministic_and_always_differs() {
        let ida = Ida::new(4, 2);
        let tagged = ida.disperse_tagged(b"some message bytes", 9);
        let a = corrupt_payload(&tagged[1], 123, 2, 7);
        let b = corrupt_payload(&tagged[1], 123, 2, 7);
        assert_eq!(a, b, "same (seed, round, index) must corrupt identically");
        assert_ne!(a.share.data, tagged[1].share.data);
        let c = corrupt_payload(&tagged[1], 123, 3, 7);
        assert_ne!(a.share.data, c.share.data, "round is part of the stream seed");
        assert!(!ida.verify_share(9, &a), "corrupted payload must fail verification");
    }

    /// The one-shot ship `PlanNetwork` used before it pooled an arena: a
    /// fresh `PacketSim` per round. It lives on only here, as the oracle
    /// for the pooled network.
    fn fresh_sim_ship(
        e: &MultiPathEmbedding,
        plan: &FaultPlan,
        round: u32,
        subs: &[Submission],
    ) -> Vec<Option<TaggedShare>> {
        let mut sim = PacketSim::new(e.host);
        for sub in subs {
            let path = e.edge_paths[sub.guest_edge][sub.via].nodes().to_vec();
            sim.add_flow(Flow { path, packets: 1 });
        }
        let pr = sim.run_planned(MAX_STEPS, plan, &mut NopRecorder);
        subs.iter()
            .enumerate()
            .map(|(i, sub)| {
                (pr.flow_delivered[i] == 1).then(|| {
                    if pr.flow_corrupted[i] == 1 {
                        corrupt_payload(&sub.payload, plan.corrupt_seed(), round, i)
                    } else {
                        sub.payload.clone()
                    }
                })
            })
            .collect()
    }

    #[test]
    fn plan_network_reuses_one_arena_across_rounds_like_fresh_sims() {
        let mut e = theorem1(6).unwrap().embedding;
        // A zero-hop path on every fifth bundle: it must deliver instantly
        // and untouched, whatever the plan.
        for bundle in e.edge_paths.iter_mut().step_by(5) {
            let source = bundle[0].nodes()[0];
            bundle.push(HostPath::new(vec![source]));
        }
        let tagged = Ida::new(4, 2).disperse_tagged(b"pooled arena, fresh answers", KEY);
        let every_path = |keep: &dyn Fn(usize) -> bool| -> Vec<Submission> {
            e.all_paths()
                .filter(|&(eid, _, _)| keep(eid))
                .map(|(eid, via, _)| Submission {
                    guest_edge: eid,
                    via,
                    payload: tagged[(eid + via) % tagged.len()].clone(),
                })
                .collect()
        };
        // Rounds shrink, empty out and regrow, so the arena is reused at
        // every size.
        let mut reversed = every_path(&|_| true);
        reversed.reverse();
        let rounds = [every_path(&|_| true), every_path(&|eid| eid % 3 == 1), Vec::new(), reversed];
        let (mut zero_hop, mut dropped, mut corrupted) = (0, 0, 0);
        for draw in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(draw);
            let plan = random_plan(&e.host, false, &mut rng);
            let mut net = PlanNetwork::new(&e, &plan);
            for (round, subs) in rounds.iter().enumerate() {
                let round = round as u32;
                let got = net.ship(round, subs);
                assert_eq!(
                    got,
                    fresh_sim_ship(&e, &plan, round, subs),
                    "draw {draw} round {round}"
                );
                for (sub, res) in subs.iter().zip(&got) {
                    let hops = e.edge_paths[sub.guest_edge][sub.via].len();
                    match res {
                        _ if hops == 0 => {
                            assert_eq!(res.as_ref(), Some(&sub.payload), "zero-hop delivery");
                            zero_hop += 1;
                        }
                        None => dropped += 1,
                        Some(ts) if *ts != sub.payload => corrupted += 1,
                        Some(_) => {}
                    }
                }
            }
        }
        assert!(zero_hop > 0 && dropped > 0 && corrupted > 0, "{zero_hop} {dropped} {corrupted}");
    }

    #[test]
    fn plan_network_replays_identically() {
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, DirEdge::new(0, 1));
        plan.cut_link(&host, DirEdge::new(3, 0));
        plan.set_corrupt_seed(4242);
        let cfg = DeliveryConfig { threshold: 2, max_retries: 2, message_len: 64 };
        let r1 =
            deliver_adaptive(&t1.embedding, &cfg, KEY, &mut PlanNetwork::new(&t1.embedding, &plan));
        let r2 =
            deliver_adaptive(&t1.embedding, &cfg, KEY, &mut PlanNetwork::new(&t1.embedding, &plan));
        assert_eq!(r1, r2);
    }
}
