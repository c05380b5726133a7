//! Seed-pinned chaos harness: randomized adversarial [`FaultPlan`]s run
//! through both engines and the dispersal loop under both knowledge
//! policies, under invariant checks.
//!
//! Each trial draws a random plan — permanent cuts, transient outages,
//! correlated bursts, node storms, byte-corrupting links — and then runs:
//!
//! * the plan-aware **packet engine** under a [`CountingRecorder`],
//!   checking packet conservation (`injected == delivered + dropped`) and
//!   corruption accounting;
//! * the plan-aware **wormhole engine**, checking its loss/corruption
//!   vectors stay consistent;
//! * the **omniscient oracle** ([`deliver_phase_plan_outcome`], a closed
//!   form on static plans) and the **oracle-free adaptive protocol**
//!   ([`deliver_adaptive_prepared`]) on one [`AdaptiveSetup`], checking
//!   that no reconstruction ever silently yields wrong bytes, that the
//!   outcome buckets partition the guest edges, that the two agree
//!   *exactly* on static fail-stop plans, and that the oracle degrades
//!   monotonically when two more links are cut.
//!
//! Even-numbered trials draw **static fail-stop** plans (cuts only) so the
//! equality and monotonicity invariants bite; odd-numbered trials draw the
//! full dynamic repertoire. Under dynamic plans adaptive-vs-oracle
//! dominance can legitimately fail (the oracle's hazard set writes off
//! links that were only briefly down), so dominance violations are counted
//! informationally, never failed on.
//!
//! Everything is pinned to [`ChaosConfig::seed`]: trial `t` derives its
//! own [`ChaCha8Rng`] stream, so reports are identical across runs and
//! thread counts. The `chaos_soak` bench binary surfaces this as a JSON
//! report; CI runs a short smoke budget and fails on any invariant
//! violation.

use std::sync::Arc;

use crate::bitslice::{BitTrialBlock, SlicedPaths};
use crate::delivery::{deliver_phase_plan_outcome, DeliveryConfig};
use crate::faults::FaultPlan;
use crate::packet::PacketSim;
use crate::protocol::{corrupt_payload, deliver_adaptive_prepared, AdaptiveSetup, PlanNetwork};
use crate::tenants::{
    lift_path, ExecMode, FaultRouting, FlowStats, TenantEngine, TenantFaultPlan, TenantPlan,
    TenantSpec, TenantsConfig,
};
use crate::trace::{CountingRecorder, NopRecorder};
use crate::wormhole::WormholeSim;
use hyperpath_core::cycles::theorem1;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_ida::{Ida, Share};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan};
use hyperpath_topology::{DirEdge, Hypercube, Node};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Step cap per simulated run (a stuck run is itself a violation).
const MAX_STEPS: u64 = 10_000_000;

/// Chaos run parameters. Everything observable is a pure function of this
/// struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed: trial `t` uses stream `t + 1` of this seed.
    pub seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Host dimension `n` (even, ≥ 4 — Theorem 1's bundle construction).
    pub dims: u32,
    /// Message length per guest edge, bytes.
    pub message_len: usize,
    /// Retry rounds allowed per delivery protocol.
    pub max_retries: u32,
}

impl ChaosConfig {
    /// The CI smoke preset: small and fast, still covering every fault
    /// kind and both plan regimes.
    pub fn smoke(seed: u64) -> Self {
        ChaosConfig { seed, trials: 16, dims: 6, message_len: 48, max_retries: 2 }
    }
}

/// One trial's measurements. `violations` lists every broken invariant —
/// an empty list is the pass condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosTrial {
    /// Trial index.
    pub trial: usize,
    /// Whether the drawn plan is static fail-stop (even trials).
    pub static_fail_stop: bool,
    /// Directed links down at step 0.
    pub initial_faults: usize,
    /// Timed link events in the plan.
    pub events: usize,
    /// Directed links that corrupt payloads.
    pub corrupting_links: usize,
    /// Packet engine: packets delivered.
    pub packet_delivered: u64,
    /// Packet engine: packets dropped on failed links.
    pub packet_lost: u64,
    /// Packet engine: packets that crossed a corrupting link.
    pub packet_corrupted: u64,
    /// Wormhole engine: worms killed.
    pub worm_lost: usize,
    /// Wormhole engine: worms flagged corrupted.
    pub worm_corrupted: usize,
    /// Oracle pipeline: messages recovered (delivered + degraded).
    pub oracle_recovered: usize,
    /// Oracle pipeline: messages lost.
    pub oracle_lost: usize,
    /// Adaptive protocol: messages recovered.
    pub adaptive_recovered: usize,
    /// Adaptive protocol: messages lost.
    pub adaptive_lost: usize,
    /// Adaptive protocol: shares that arrived but failed verification.
    pub adaptive_rejected: u64,
    /// Dynamic plans only: adaptive recovered strictly more than the
    /// oracle (legitimate — informational, not a violation).
    pub dominance_violation: bool,
    /// Broken invariants, human-readable. Empty = trial passed.
    pub violations: Vec<String>,
}

/// Aggregate over all trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Per-trial measurements, in trial order.
    pub trials: Vec<ChaosTrial>,
    /// Total invariant violations across trials.
    pub violations: usize,
    /// Total informational dominance violations (dynamic trials).
    pub dominance_violations: usize,
}

impl ChaosReport {
    /// Whether every invariant held in every trial.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

/// Draws one directed edge uniformly.
fn random_edge(host: &Hypercube, rng: &mut ChaCha8Rng) -> DirEdge {
    let node: Node = rng.random_range(0..host.num_nodes());
    let dim = rng.random_range(0..host.dims());
    DirEdge::new(node, dim)
}

/// Draws a randomized fault plan. `static_draw` restricts the repertoire
/// to permanent cuts (a static fail-stop plan — [`FaultPlan::is_static_fail_stop`]
/// holds); otherwise the full adversary: cuts, transient outages, a
/// correlated burst of same-step cuts, an occasional node storm, and
/// byte-corrupting links.
pub fn random_plan(host: &Hypercube, static_draw: bool, rng: &mut ChaCha8Rng) -> FaultPlan {
    let mut plan = FaultPlan::none(host);
    // Permanent cuts, per undirected link.
    for from in 0..host.num_nodes() {
        for dim in 0..host.dims() {
            if (from >> dim) & 1 == 0 && rng.random_bool(0.02) {
                plan.cut_link(host, DirEdge::new(from, dim));
            }
        }
    }
    if static_draw {
        return plan;
    }
    // Transient outages on a handful of links. Zero-length draws are
    // deliberate: an empty window is a legal adversary move that must be
    // a plan-level no-op, so the generator exercises that path.
    for _ in 0..rng.random_range(0..6u32) {
        let edge = random_edge(host, rng);
        let from = rng.random_range(0..200u64);
        let len = rng.random_range(0..100u64);
        plan.outage(edge, from, from + len);
    }
    // A correlated burst: several links cut at the same step.
    if rng.random_bool(0.5) {
        let step = rng.random_range(1..150u64);
        for _ in 0..rng.random_range(2..5u32) {
            plan.cut_link_at(step, random_edge(host, rng));
        }
    }
    // Node storm: a whole node (all 2n incident directed links) dies.
    if rng.random_bool(0.25) {
        let node: Node = rng.random_range(0..host.num_nodes());
        let step = rng.random_range(0..100u64);
        plan.cut_node_at(step, host, node);
    }
    // Byte-corrupting links.
    for from in 0..host.num_nodes() {
        for dim in 0..host.dims() {
            if (from >> dim) & 1 == 0 && rng.random_bool(0.01) {
                plan.corrupt_link(host, DirEdge::new(from, dim));
            }
        }
    }
    plan.set_corrupt_seed(rng.random());
    plan
}

/// Runs one trial; pure function of `(e, cfg, t)`.
fn run_trial(e: &MultiPathEmbedding, cfg: &ChaosConfig, t: usize) -> ChaosTrial {
    let host = e.host;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    rng.set_stream(t as u64 + 1);
    let static_draw = t.is_multiple_of(2);
    let plan = random_plan(&host, static_draw, &mut rng);
    let key: u64 = rng.random();

    let mut violations = Vec::new();
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            violations.push(format!("trial {t}: {msg}"));
        }
    };

    // --- Packet engine: conservation + corruption accounting. ---
    let mut psim = PacketSim::new(host);
    for bundle in &e.edge_paths {
        for path in bundle {
            psim.add_flow(path.nodes(), 1 + (t as u64 % 3));
        }
    }
    let mut counts = CountingRecorder::default();
    let pr = psim.run_planned(MAX_STEPS, &plan, &mut counts);
    check(
        counts.injected == counts.delivered + counts.dropped,
        "packet conservation: injected != delivered + dropped",
    );
    check(pr.report.delivered == counts.delivered, "recorder and report disagree on deliveries");
    check(pr.lost == counts.dropped, "recorder and report disagree on drops");
    check(counts.corrupted == pr.corrupted, "recorder and report disagree on corruption");
    check(
        pr.corrupted >= psim.flow_corrupted().iter().sum::<u64>(),
        "per-flow corrupted deliveries exceed packets flagged",
    );
    if !plan.has_corruption() {
        check(pr.corrupted == 0, "corruption flagged under a corruption-free plan");
    }

    // --- Wormhole engine: loss/corruption vectors stay consistent. ---
    let mut wsim = WormholeSim::new(host);
    for bundle in &e.edge_paths {
        for path in bundle {
            wsim.add_worm(path.nodes(), 1 + (t as u64 % 4));
        }
    }
    wsim.run_planned(MAX_STEPS, &plan, &mut NopRecorder);
    let n_worms: usize = e.edge_paths.iter().map(Vec::len).sum();
    check(wsim.lost().len() == n_worms, "wormhole loss vector has wrong length");
    check(wsim.corrupted().len() == n_worms, "wormhole corruption vector has wrong length");
    let worm_lost = wsim.lost().iter().filter(|&&l| l).count();
    let worm_corrupted = wsim.corrupted().iter().filter(|&&c| c).count();
    if !plan.has_corruption() {
        check(worm_corrupted == 0, "worm corruption flagged under a corruption-free plan");
    }
    if plan.is_empty() {
        check(worm_lost == 0, "worms lost under an empty plan");
    }

    // --- Delivery protocols: oracle vs oracle-free. ---
    let w = e.edge_paths[0].len();
    let dcfg = DeliveryConfig {
        threshold: w.div_ceil(2),
        max_retries: cfg.max_retries,
        message_len: cfg.message_len,
    };
    let setup = AdaptiveSetup::new(e, &dcfg);
    let oracle = deliver_phase_plan_outcome(&setup, &plan);
    let adaptive = deliver_adaptive_prepared(&setup, key, &mut PlanNetwork::new(e, &plan));
    let n_edges = e.edge_paths.len();

    check(adaptive.wrong_reconstructions == 0, "a reconstruction silently produced wrong bytes");
    check(
        oracle.delivered + oracle.degraded + oracle.lost == n_edges,
        "oracle outcome buckets do not partition the guest edges",
    );
    check(
        adaptive.delivered + adaptive.degraded + adaptive.lost == n_edges,
        "adaptive outcome buckets do not partition the guest edges",
    );

    let mut dominance_violation = false;
    if plan.is_static_fail_stop() {
        // Oracle knowledge buys nothing against a static fail-stop
        // adversary: the protocol must agree edge-for-edge with the closed
        // form, which shares no code with the dispersal loop.
        check(
            (adaptive.delivered, adaptive.degraded, adaptive.lost)
                == (oracle.delivered, oracle.degraded, oracle.lost),
            "adaptive != oracle totals on a static fail-stop plan",
        );
        check(
            adaptive.edges == oracle.edges,
            "adaptive != oracle per-edge outcomes on a static fail-stop plan",
        );
        // Kernel cross-check: a single-lane bit-sliced block over the
        // plan's (static) fault set must grade round-0 survival exactly
        // like the packet engine did — on fail-stop faults a share
        // arrives iff its path is fault-free.
        let block = BitTrialBlock::<u64>::from_fault_sets(&host, &[plan.hazard_set(&host)]);
        let sliced = SlicedPaths::new(e);
        for (eid, ed) in adaptive.edges.iter().enumerate() {
            let structural = sliced.bundle_ge(&block, eid, ed.threshold) & 1 == 1;
            check(
                structural == (ed.first_round_arrivals >= ed.threshold),
                "bit-sliced survival disagrees with the packet engine on a static plan",
            );
        }
        // Monotone degradation: two more cuts can only hurt the oracle.
        let mut worse = plan.clone();
        for _ in 0..2 {
            worse.cut_link(&host, random_edge(&host, &mut rng));
        }
        let worse_oracle = deliver_phase_plan_outcome(&setup, &worse);
        check(
            worse_oracle.recovered() <= oracle.recovered(),
            "recovery improved after cutting two more links",
        );
    } else {
        // Dynamic plans: the oracle's hazard set permanently writes off
        // briefly-down links, so adaptive can legitimately beat it.
        dominance_violation = adaptive.recovered() > oracle.recovered();
    }

    ChaosTrial {
        trial: t,
        static_fail_stop: static_draw,
        initial_faults: plan.initial().count(),
        events: plan.events().len(),
        corrupting_links: plan.corrupting_bits().iter().filter(|&&b| b).count(),
        packet_delivered: counts.delivered,
        packet_lost: counts.dropped,
        packet_corrupted: counts.corrupted,
        worm_lost,
        worm_corrupted,
        oracle_recovered: oracle.recovered(),
        oracle_lost: oracle.lost,
        adaptive_recovered: adaptive.recovered(),
        adaptive_lost: adaptive.lost,
        adaptive_rejected: adaptive.rejected_shares,
        dominance_violation,
        violations,
    }
}

/// Runs the full chaos sweep. Deterministic: identical reports for
/// identical configs, regardless of thread count (trials are seeded
/// independently and collected in trial order).
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let e = theorem1(cfg.dims)
        .expect("chaos harness needs an even dimension >= 4 for Theorem 1 bundles")
        .embedding;
    let trials: Vec<ChaosTrial> =
        (0..cfg.trials).into_par_iter().map(|t| run_trial(&e, cfg, t)).collect();
    let violations = trials.iter().map(|t| t.violations.len()).sum();
    let dominance_violations = trials.iter().filter(|t| t.dominance_violation).count();
    ChaosReport { config: cfg.clone(), trials, violations, dominance_violations }
}

/// One tenants-mode trial. Aggregates are summed over tenants; all
/// fields are integers so reports stay `Eq`-comparable across thread
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosTenantsTrial {
    /// Trial index.
    pub trial: usize,
    /// Whether the drawn plan is static fail-stop (even trials).
    pub static_fail_stop: bool,
    /// Tenants sharing the host this trial.
    pub tenants: usize,
    /// Permanently cut host links in the plan.
    pub cuts: usize,
    /// Host links with at least one outage window.
    pub outages: usize,
    /// Byte-corrupting host links.
    pub corrupting_links: usize,
    /// Messages requested across tenants.
    pub requested: u64,
    /// Messages delivered (full + degraded).
    pub delivered: u64,
    /// Messages delivered below full width.
    pub degraded: u64,
    /// Messages delivered only via the retry-with-backoff queue.
    pub recovered: u64,
    /// Messages lost.
    pub lost: u64,
    /// Requeues across tenants.
    pub requeues: u64,
    /// Shares dropped on faulted links.
    pub shares_lost: u64,
    /// Delivered shares that crossed a corrupting link.
    pub shares_corrupted: u64,
    /// Distinct links the ledger quarantined.
    pub quarantined_links: usize,
    /// Broken invariants, human-readable. Empty = trial passed.
    pub violations: Vec<String>,
}

/// Aggregate over all tenants-mode trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosTenantsReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Per-trial measurements, in trial order.
    pub trials: Vec<ChaosTenantsTrial>,
    /// Total invariant violations across trials.
    pub violations: usize,
}

impl ChaosTenantsReport {
    /// Whether every invariant held in every trial.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

/// Rounds each tenants-mode trial runs — enough for a backed-off retry
/// (delays 1, 2, 4) to land inside the run.
const TENANT_ROUNDS: u32 = 6;

/// Draws one undirected host link uniformly, in the tenant engine's
/// sparse currency (`base · n + d`, bit `d` clear in `base`).
fn random_host_link(host_dims: u32, rng: &mut ChaCha8Rng) -> u64 {
    let d = rng.random_range(0..host_dims);
    let node: u64 = rng.random_range(0..(1u64 << host_dims));
    (node & !(1u64 << d)) * u64::from(host_dims) + u64::from(d)
}

/// Draws a randomized [`TenantFaultPlan`] over the shared host — the
/// round-granular mirror of [`random_plan`]. `static_draw` restricts to
/// permanent round-0 cuts ([`TenantFaultPlan::is_static_fail_stop`]);
/// otherwise cuts, transient round windows (zero-width draws included —
/// a legal no-op), a correlated same-round burst, an occasional node
/// storm, and byte-corrupting links.
pub fn random_tenant_plan(
    host_dims: u32,
    rounds: u32,
    static_draw: bool,
    rng: &mut ChaCha8Rng,
) -> TenantFaultPlan {
    let n = u64::from(host_dims);
    let mut plan = TenantFaultPlan::none();
    for base in 0..(1u64 << host_dims) {
        for d in 0..host_dims {
            if (base >> d) & 1 == 0 && rng.random_bool(0.02) {
                plan.cut_link(base * n + u64::from(d));
            }
        }
    }
    if static_draw {
        return plan;
    }
    for _ in 0..rng.random_range(0..4u32) {
        let link = random_host_link(host_dims, rng);
        let from = rng.random_range(0..rounds);
        let len = rng.random_range(0..3u32);
        plan.outage(link, from, from + len);
    }
    if rng.random_bool(0.5) {
        let round = rng.random_range(1..rounds.max(2));
        for _ in 0..rng.random_range(2..5u32) {
            plan.cut_link_at(round, random_host_link(host_dims, rng));
        }
    }
    if rng.random_bool(0.25) {
        let node: u64 = rng.random_range(0..(1u64 << host_dims));
        let round = rng.random_range(0..rounds);
        plan.cut_node_at(round, host_dims, node);
    }
    for base in 0..(1u64 << host_dims) {
        for d in 0..host_dims {
            if (base >> d) & 1 == 0 && rng.random_bool(0.01) {
                plan.corrupt_link(base * n + u64::from(d));
            }
        }
    }
    plan
}

/// A mixed roster: grid and binomial-tree guests alternating, tenant `i`
/// at window `i % windows` (distinct windows whenever `count ≤ windows`).
fn tenant_roster(count: usize, windows: u64) -> Vec<TenantSpec> {
    (0..count)
        .map(|i| {
            let plan: Arc<dyn TenantPlan> = if i.is_multiple_of(2) {
                Arc::new(GridPlan::new(4, 2, 2, 3).expect("grid roster plan"))
            } else {
                Arc::new(BinomialTreePlan::new(4, 3).expect("tree roster plan"))
            };
            TenantSpec { id: i as u32, name: format!("t{i}"), window: i as u64 % windows, plan }
        })
        .collect()
}

/// The comparable per-tenant outcome tuple: what ledger-learned routing
/// must reproduce exactly against the omniscient oracle on static
/// fail-stop plans. Pacing fields (`requeues`) and share-level fields
/// legitimately differ — the learned ledger commits a dead path once
/// before learning it is dead — so they are excluded.
fn grade_key(s: &FlowStats) -> (u64, u64, u64, u64, u64, u64) {
    (s.requested, s.full, s.degraded, s.lost, s.recovered, s.delivered_messages())
}

/// Runs one tenants-mode trial; pure function of `(cfg, t)`.
fn run_tenants_trial(cfg: &ChaosConfig, t: usize) -> ChaosTenantsTrial {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    rng.set_stream(t as u64 + 1);
    let static_draw = t.is_multiple_of(2);
    let plan = random_tenant_plan(cfg.dims, TENANT_ROUNDS, static_draw, &mut rng);
    let windows = 1u64 << (cfg.dims - 4);
    // Even (static) trials: 2 tenants in distinct windows at ample
    // capacity, so the oracle-equality and monotonicity invariants are
    // theorems. Odd (dynamic) trials: up to 5 tenants contending at
    // capacity 2, windows shared.
    let count = if static_draw { 2 } else { 2 + t % 4 };
    let specs = tenant_roster(count, windows);
    let tcfg = TenantsConfig {
        host_dims: cfg.dims,
        capacity: if static_draw { 64 } else { 2 },
        rounds: TENANT_ROUNDS,
        requests_per_round: 3,
        max_requeues: cfg.max_retries,
        seed: cfg.seed ^ (t as u64).rotate_left(17),
        exec: ExecMode::Packet,
    };
    let engine = TenantEngine::new(tcfg.clone(), &specs).expect("chaos roster is well-formed");
    let report = engine.run_planned(&plan, FaultRouting::Learned);

    let mut violations = Vec::new();
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            violations.push(format!("trial {t}: {msg}"));
        }
    };

    // --- Conservation: messages and shares both partition. ---
    for tr in &report.tenants {
        let st = &tr.stats;
        check(
            st.full + st.degraded + st.lost == st.requested,
            "message buckets do not partition the requests",
        );
        check(
            st.shares_delivered + st.shares_lost == st.shares_committed,
            "share conservation: committed != delivered + lost",
        );
        check(st.shares_corrupted <= st.shares_delivered, "more shares corrupted than delivered");
        check(st.recovered <= st.full + st.degraded, "recovered messages exceed deliveries");
        check(st.recovery_rounds == 0 || st.recovered > 0, "recovery rounds without recoveries");
    }
    if plan.corrupt_count() == 0 {
        check(
            report.tenants.iter().all(|tr| tr.stats.shares_corrupted == 0),
            "corruption flagged under a corruption-free plan",
        );
    }

    // --- Quarantine only ever learns genuine hazards. ---
    check(
        report.quarantined.iter().all(|&l| plan.is_hazard(l)),
        "ledger quarantined a link the plan never touched",
    );
    check(
        report.ledger.quarantined_links == report.quarantined.len(),
        "ledger summary disagrees with the quarantine list",
    );

    // --- Empty plan is bit-identical to the plan-free engine. ---
    let clean = engine.run();
    check(
        engine.run_planned(&TenantFaultPlan::none(), FaultRouting::Learned) == clean,
        "empty plan diverges from the plan-free engine",
    );

    // --- No wrong bytes, end to end: disperse a message over tenant
    // 0's edge-0 bundle, apply the plan's round-0 verdict per lifted
    // path, and reconstruct from the shares that verify. ---
    {
        let spec = &specs[0];
        let w = spec.plan.width();
        let k = w.div_ceil(2);
        let mut paths: Vec<Vec<u64>> = Vec::new();
        spec.plan.for_each_path(0, &mut |p| {
            paths.push(lift_path(p, spec.plan.dims(), spec.window, cfg.dims));
        });
        let message: Vec<u8> = (0..cfg.message_len).map(|_| rng.random()).collect();
        let key: u64 = rng.random();
        let corrupt_seed: u64 = rng.random();
        let ida = Ida::new(w as u8, k as u8);
        let shares = ida.disperse_tagged(&message, key);
        let mut verified: Vec<Share> = Vec::new();
        let mut corrupted_deliveries = 0usize;
        let mut rejected = 0usize;
        for (i, (path, ts)) in paths.iter().zip(&shares).enumerate() {
            if path.iter().any(|&l| plan.is_down(l, 0)) {
                continue; // dropped on a dead link: an erasure, not bytes
            }
            let got = if path.iter().any(|&l| plan.is_corrupting(l)) {
                corrupted_deliveries += 1;
                corrupt_payload(ts, corrupt_seed, 0, i)
            } else {
                ts.clone()
            };
            if ida.verify_share(key, &got) {
                verified.push(got.share);
            } else {
                rejected += 1;
            }
        }
        check(
            rejected == corrupted_deliveries,
            "share fingerprints failed to reject exactly the corrupted deliveries",
        );
        if verified.len() >= k as usize {
            match ida.reconstruct(&verified) {
                Ok(bytes) => check(bytes == message, "reconstruction produced wrong bytes"),
                Err(_) => check(false, "threshold-many verified shares failed to reconstruct"),
            }
        }
    }

    if static_draw {
        // --- Oracle equality: ledger-learned quarantine must grade
        // every tenant exactly like omniscient hazard routing. ---
        let omni = engine.run_planned(&plan, FaultRouting::Omniscient);
        for (a, b) in report.tenants.iter().zip(&omni.tenants) {
            check(
                grade_key(&a.stats) == grade_key(&b.stats),
                "learned quarantine diverges from the omniscient oracle on a static plan",
            );
        }

        // --- Monotone degradation in fault rate: two more cuts can
        // only hurt, tenant by tenant. ---
        let mut worse = plan.clone();
        for _ in 0..2 {
            worse.cut_link(random_host_link(cfg.dims, &mut rng));
        }
        let worse_omni = engine.run_planned(&worse, FaultRouting::Omniscient);
        for (a, b) in omni.tenants.iter().zip(&worse_omni.tenants) {
            check(
                b.stats.delivered_messages() <= a.stats.delivered_messages(),
                "delivery improved after cutting two more links",
            );
            check(b.stats.lost >= a.stats.lost, "losses shrank after cutting two more links");
        }

        // --- Monotone degradation in tenant count: at ample capacity
        // and disjoint windows, newcomers must not perturb incumbents
        // at all (so aggregate delivery cannot shrink per tenant). ---
        let extended = tenant_roster(count + 2, windows);
        let ext = TenantEngine::new(tcfg, &extended)
            .expect("extended chaos roster is well-formed")
            .run_planned(&plan, FaultRouting::Learned);
        for (a, b) in report.tenants.iter().zip(&ext.tenants) {
            check(
                a.stats == b.stats,
                "adding tenants perturbed an incumbent on an uncontended static host",
            );
        }
    }

    let sum = |f: fn(&FlowStats) -> u64| report.tenants.iter().map(|tr| f(&tr.stats)).sum();
    ChaosTenantsTrial {
        trial: t,
        static_fail_stop: static_draw,
        tenants: count,
        cuts: plan.cut_count(),
        outages: plan.outage_count(),
        corrupting_links: plan.corrupt_count(),
        requested: sum(|s| s.requested),
        delivered: sum(FlowStats::delivered_messages),
        degraded: sum(|s| s.degraded),
        recovered: sum(|s| s.recovered),
        lost: sum(|s| s.lost),
        requeues: sum(|s| s.requeues),
        shares_lost: sum(|s| s.shares_lost),
        shares_corrupted: sum(|s| s.shares_corrupted),
        quarantined_links: report.ledger.quarantined_links,
        violations,
    }
}

/// Runs the tenants-mode chaos sweep: randomized host-level fault plans
/// against the fault-aware multi-tenant engine, under the invariants the
/// robustness claim rests on — conservation, no-wrong-bytes, empty-plan
/// bit-identity with the plan-free engine, learned-vs-omniscient grade
/// equality on static plans, and monotone degradation in both fault rate
/// and tenant count. Deterministic: identical reports for identical
/// configs, regardless of thread count.
pub fn run_chaos_tenants(cfg: &ChaosConfig) -> ChaosTenantsReport {
    assert!(cfg.dims >= 6, "tenants chaos needs dims >= 6: Q_4 windows, at least 4 of them");
    let trials: Vec<ChaosTenantsTrial> =
        (0..cfg.trials).into_par_iter().map(|t| run_tenants_trial(cfg, t)).collect();
    let violations = trials.iter().map(|t| t.violations.len()).sum();
    ChaosTenantsReport { config: cfg.clone(), trials, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_invariant() {
        let report = run_chaos(&ChaosConfig::smoke(0xC4A0_5EED));
        for t in &report.trials {
            assert!(t.violations.is_empty(), "violations: {:?}", t.violations);
        }
        assert!(report.ok());
        assert_eq!(report.trials.len(), 16);
    }

    #[test]
    fn chaos_report_is_deterministic() {
        let cfg = ChaosConfig { seed: 7, trials: 6, dims: 6, message_len: 32, max_retries: 1 };
        assert_eq!(run_chaos(&cfg), run_chaos(&cfg));
    }

    #[test]
    fn static_draws_are_fail_stop_and_dynamic_draws_are_not_marked_static() {
        let host = Hypercube::new(6);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let plan = random_plan(&host, true, &mut rng);
        assert!(plan.is_static_fail_stop());
        assert!(!plan.has_corruption());
        // Dynamic draws carry events or corruption with overwhelming
        // probability at n=6; pin one seed that does.
        let dynamic = random_plan(&host, false, &mut rng);
        assert!(!dynamic.is_empty() || dynamic.events().is_empty());
    }

    #[test]
    fn zero_width_outage_draw_is_a_noop() {
        // Regression: `random_plan` may draw a transient window of length
        // zero; that must leave the plan byte-identical to one without the
        // call instead of tripping `FaultPlan::outage`'s window check (and,
        // downstream, the monotone-degradation invariant on a plan that
        // was supposed to be static).
        let host = Hypercube::new(6);
        let e = theorem1(6).unwrap().embedding;
        let mut plan = FaultPlan::none(&host);
        plan.cut_link(&host, DirEdge::new(0, 1));
        let mut with_empty = plan.clone();
        with_empty.outage(DirEdge::new(5, 2), 11, 11);
        assert_eq!(with_empty.events(), plan.events());
        assert!(with_empty.is_static_fail_stop(), "no events scheduled, still fail-stop");
        let dcfg = DeliveryConfig { threshold: 2, max_retries: 1, message_len: 32 };
        assert_eq!(
            crate::delivery::deliver_phase_plan(&e, &with_empty, &dcfg),
            crate::delivery::deliver_phase_plan(&e, &plan, &dcfg)
        );
        // And the generator itself survives zero-length draws: sweep a
        // band of seeds wide enough that `random_range(0..100)` returns 0
        // for several outage windows (this band is pinned by the count
        // below — shrinking the repertoire would make it drift).
        let mut zero_capable = 0u32;
        for seed in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = random_plan(&host, false, &mut rng);
            // An all-window plan is well-formed: events sorted, paired.
            let mut steps: Vec<u64> = p.events().iter().map(|&(s, _, _)| s).collect();
            let sorted = steps.clone();
            steps.sort_unstable();
            assert_eq!(steps, sorted, "seed {seed}: events out of order");
            zero_capable += 1;
        }
        assert_eq!(zero_capable, 64, "every dynamic draw must construct cleanly");
    }

    #[test]
    fn tenants_invariants_hold_over_a_hundred_random_plans() {
        // The robustness acceptance bar: conservation, no-wrong-bytes,
        // empty-plan bit-identity, learned-vs-omniscient equality, and
        // both monotonicity axes, over >= 100 seed-pinned plans.
        let cfg = ChaosConfig { seed: 0x7E4A_4175, trials: 100, dims: 6, ..ChaosConfig::smoke(0) };
        let report = run_chaos_tenants(&cfg);
        for t in &report.trials {
            assert!(t.violations.is_empty(), "violations: {:?}", t.violations);
        }
        assert!(report.ok());
        assert_eq!(report.trials.len(), 100);
        // The sweep must actually exercise faults and the backoff queue.
        assert!(report.trials.iter().any(|t| t.shares_lost > 0), "no trial dropped a share");
        assert!(report.trials.iter().any(|t| t.recovered > 0), "no trial recovered a message");
        assert!(report.trials.iter().any(|t| t.quarantined_links > 0), "ledger never quarantined");
        assert!(report.trials.iter().any(|t| t.shares_corrupted > 0), "no corruption exercised");
    }

    #[test]
    fn tenants_chaos_report_is_deterministic() {
        let cfg = ChaosConfig { seed: 11, trials: 8, dims: 6, message_len: 32, max_retries: 2 };
        assert_eq!(run_chaos_tenants(&cfg), run_chaos_tenants(&cfg));
    }

    #[test]
    fn tenant_plan_draws_match_the_trial_parity_contract() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let stat = random_tenant_plan(6, 6, true, &mut rng);
        assert!(stat.is_static_fail_stop());
        assert_eq!(stat.corrupt_count(), 0);
        // Dynamic draws survive zero-width outage windows for a band of
        // seeds (mirrors `zero_width_outage_draw_is_a_noop`).
        for seed in 0..32u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = random_tenant_plan(6, 6, false, &mut rng);
            let _ = p.outage_count();
        }
    }

    #[test]
    fn trials_differ_across_seeds() {
        let a = run_chaos(&ChaosConfig {
            seed: 1,
            trials: 4,
            dims: 6,
            message_len: 32,
            max_retries: 1,
        });
        let b = run_chaos(&ChaosConfig {
            seed: 2,
            trials: 4,
            dims: 6,
            message_len: 32,
            max_retries: 1,
        });
        assert_ne!(a.trials, b.trials, "different seeds must draw different adversaries");
    }
}
