//! `delivery-small` and `delivery-large`: one op is one oracle-free
//! adaptive delivery phase (`deliver_adaptive_prepared`) of a Theorem-1
//! cycle on `Q_10` through a `PlanNetwork`.
//!
//! Phase `i` runs under fault plan `i % PLAN_POOL` of a pool of dynamic
//! `chaos::random_plan` draws made at set-up, with share key `seed ^ i`.
//! The digest covers the first [`PLAN_POOL`] phases.

use hyperpath_core::cycles::{theorem1, CycleEmbedding};
use hyperpath_ida::TaggedShare;
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::protocol::{
    deliver_adaptive_prepared, AdaptiveReport, AdaptiveSetup, PlanNetwork, RoundNetwork, Submission,
};
use hyperpath_sim::{DeliveryConfig, EdgeOutcome, FaultPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::meter::{ratio, setup_reps, Loop, Meter};
use crate::probes::ProbeParams;
use crate::trace::Tracer;
use crate::{digest_of, end_to_end, harness_layer, Budget, Ctx, Outcome};

const DIMS: u32 = 10;
const THRESHOLD: usize = 3;
const MAX_RETRIES: u32 = 3;
/// Fault plans drawn at set-up; phases cycle through them.
const PLAN_POOL: usize = 256;
pub(crate) const DIGEST_OPS: u64 = PLAN_POOL as u64;

/// Message length of `delivery-small`: per-share cost dominates.
pub(crate) const SMALL: usize = 64;
/// Message length of `delivery-large`: IDA byte work dominates.
pub(crate) const LARGE: usize = 4096;

/// The owned half of the state before the first op; the
/// `AdaptiveSetup` borrows the embedding.
struct Inputs {
    t1: CycleEmbedding,
    plans: Vec<FaultPlan>,
    cfg: DeliveryConfig,
}

impl Inputs {
    fn build(seed: u64, message_len: usize, tr: &mut Tracer) -> Inputs {
        tr.enter("core.theorem1", None);
        let t1 = theorem1(DIMS).expect("theorem 1");
        tr.exit();
        tr.enter("chaos.plan_pool", None);
        let plans = (0..PLAN_POOL)
            .map(|j| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.set_stream(j as u64 + 1);
                random_plan(&t1.embedding.host, false, &mut rng)
            })
            .collect();
        tr.exit();
        let cfg = DeliveryConfig { threshold: THRESHOLD, max_retries: MAX_RETRIES, message_len };
        Inputs { t1, plans, cfg }
    }

    fn adaptive_setup(&self, tr: &mut Tracer) -> AdaptiveSetup<'_> {
        tr.enter("protocol.adaptive_setup", None);
        let setup = AdaptiveSetup::new(&self.t1.embedding, &self.cfg);
        tr.exit();
        setup
    }
}

/// Submissions and arrivals crossing the network.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    sent: u64,
    arrived: u64,
}

/// A `PlanNetwork` inside a `packet.ship` span per round, counting what
/// crosses it.
struct MeteredNet<'a, 't> {
    inner: PlanNetwork<'a>,
    tr: &'t mut Tracer,
    traffic: Traffic,
}

impl RoundNetwork for MeteredNet<'_, '_> {
    fn ship(&mut self, round: u32, subs: &[Submission]) -> Vec<Option<TaggedShare>> {
        self.tr.enter("packet.ship", None);
        let out = self.inner.ship(round, subs);
        self.tr.exit();
        self.traffic.sent += subs.len() as u64;
        self.traffic.arrived += out.iter().filter(|s| s.is_some()).count() as u64;
        out
    }
}

/// One measured pass.
struct Pass {
    lp: Loop,
    /// Reports of the first [`PLAN_POOL`] phases.
    first: Vec<AdaptiveReport>,
    /// Edges whose message reconstructed, over every phase.
    recovered: u64,
    /// Network traffic over the first [`PLAN_POOL`] phases (metered pass
    /// only).
    traffic: Traffic,
}

fn pass(
    inp: &Inputs,
    setup: &AdaptiveSetup<'_>,
    budget: &Budget,
    ctx: &mut Ctx,
    metered: bool,
) -> Pass {
    let emb = &inp.t1.embedding;
    let seed = ctx.seed;
    let mut m = Meter::start(budget);
    let mut first = Vec::new();
    let mut recovered = 0;
    let mut traffic = Traffic::default();
    while m.more() {
        let i = m.done();
        let plan = &inp.plans[i as usize % PLAN_POOL];
        let key = seed ^ i;
        let (report, phase_traffic) = m.op(&mut ctx.tr, |tr| {
            tr.enter("protocol.deliver_adaptive", None);
            let out = if metered {
                let mut net = MeteredNet {
                    inner: PlanNetwork::new(emb, plan),
                    tr: &mut *tr,
                    traffic: Traffic::default(),
                };
                let r = deliver_adaptive_prepared(setup, key, &mut net);
                (r, net.traffic)
            } else {
                (
                    deliver_adaptive_prepared(setup, key, &mut PlanNetwork::new(emb, plan)),
                    Traffic::default(),
                )
            };
            tr.exit();
            out
        });
        if check_report(&report, emb.edge_paths.len(), i, ctx) {
            ctx.failed += 1;
        }
        recovered += report.recovered() as u64;
        if first.len() < PLAN_POOL {
            traffic.sent += phase_traffic.sent;
            traffic.arrived += phase_traffic.arrived;
            first.push(report);
        }
    }
    let lp = m.stop();
    ctx.attempted += lp.ops();
    Pass { lp, first, recovered, traffic }
}

/// Bucket-partition and no-wrong-bytes checks; true when one failed.
fn check_report(r: &AdaptiveReport, edges: usize, phase: u64, ctx: &mut Ctx) -> bool {
    let before = ctx.errors.len();
    let mut buckets = [0usize; 3];
    for e in &r.edges {
        buckets[match e.outcome {
            EdgeOutcome::Delivered => 0,
            EdgeOutcome::Degraded { .. } => 1,
            EdgeOutcome::Lost { .. } => 2,
        }] += 1;
    }
    if r.edges.len() != edges || buckets != [r.delivered, r.degraded, r.lost] {
        ctx.fail(format!(
            "phase {phase}: buckets {buckets:?} of {} edges do not partition the {edges} edges as \
             reported ({}, {}, {})",
            r.edges.len(),
            r.delivered,
            r.degraded,
            r.lost
        ));
    }
    if r.wrong_reconstructions != 0 {
        ctx.fail(format!("phase {phase}: {} wrong reconstructions", r.wrong_reconstructions));
    }
    ctx.errors.len() > before
}

pub(crate) fn run(ctx: &mut Ctx, budget: &Budget, traced: bool, message_len: usize) -> Outcome {
    let seed = ctx.seed;
    let threads = ctx.threads;
    let (inp, setup_s) = Ctx::in_pool(threads, || {
        setup_reps(&mut ctx.tr, |tr| {
            let inp = Inputs::build(seed, message_len, tr);
            drop(inp.adaptive_setup(tr));
            inp
        })
    });
    let setup = inp.adaptive_setup(&mut Tracer::new(false));

    if !traced {
        let a = ctx.measure(threads, false, |ctx| pass(&inp, &setup, budget, ctx, false));
        let edges: usize = a.first.iter().map(|r| r.edges.len()).sum();
        let lost: usize = a.first.iter().map(|r| r.lost).sum();
        let delivered_frac = 1.0 - ratio(lost as f64, edges as f64);
        return Outcome {
            values: end_to_end(setup_s, &a.lp, a.recovered as f64, delivered_frac),
            digest: digest_of(&a.first),
        };
    }

    let share = budget.share(3);
    let a = ctx.measure(threads, false, |ctx| pass(&inp, &setup, &share, ctx, false));
    let b = ctx.measure(1, false, |ctx| pass(&inp, &setup, &share, ctx, false));
    let c = ctx.measure(threads, true, |ctx| pass(&inp, &setup, &share, ctx, true));
    for (other, label) in [(&b, "1-thread"), (&c, "traced")] {
        if other.first != a.first {
            ctx.fail(format!("{label} pass reports differ from the {threads}-thread pass"));
        }
    }

    let phases = a.first.len() as f64;
    let sum = |f: fn(&AdaptiveReport) -> u64| a.first.iter().map(f).sum::<u64>() as f64;
    let rejected = sum(|r| r.rejected_shares);
    let recovered = sum(|r| r.recovered() as u64);
    let rounds = sum(|r| u64::from(r.rounds_run) + 1);
    let tagged: u64 = inp.t1.embedding.edge_paths.iter().map(|b| b.len() as u64).sum();

    let layers = ctx.tr.layer_times();
    let ship = layers.get("packet.ship").copied().unwrap_or_default();
    let ops = layers.get("harness.op").copied().unwrap_or_default();

    let mut values = harness_layer(&a.lp, &b.lp, &c.lp, false);
    values.extend([
        ("packet.ship_share", ratio(ship.total_ns as f64, ops.total_ns as f64)),
        ("packet.ship_us_per_round", ratio(ship.total_ns as f64 / 1e3, ship.count as f64)),
        ("protocol.rounds_per_phase", ratio(rounds, phases)),
        ("protocol.shares_sent_per_phase", ratio(c.traffic.sent as f64, phases)),
        ("protocol.rejected_per_phase", ratio(rejected, phases)),
        (
            "protocol.useful_ratio",
            ratio(c.traffic.arrived as f64 - rejected, c.traffic.sent as f64),
        ),
        ("delivery.alloc_calls_per_phase", a.lp.alloc_calls_per_op()),
        ("delivery.alloc_bytes_per_phase", a.lp.alloc_bytes_per_op()),
    ]);
    let w = inp.t1.claimed_width as u8;
    let probe =
        ProbeParams { w, k: THRESHOLD as u8, msg_len: message_len, theorem1_n: DIMS, plan_n: DIMS };
    let probes = crate::probes::run(ctx, &probe);
    let probe_us = |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
    // Every phase fingerprints each share once when tagging and once per
    // arrival when verifying, and reconstructs each recovered edge.
    let verify_calls = (tagged as f64 * phases + c.traffic.arrived as f64) / phases;
    let est_us = verify_calls * probe_us("ida.verify_us_per_share")
        + recovered / phases * probe_us("ida.reconstruct_us_per_msg");
    values.push(("ida.est_share", est_us / (a.lp.p50_ms() * 1e3)));
    values.extend(probes);
    Outcome { values, digest: digest_of(&a.first) }
}
