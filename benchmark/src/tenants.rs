//! `tenants-steady` and `tenants-chaos`: one op is one
//! `TenantRun::step_round` of an eight-tenant roster sharing an implicit
//! `Q_16`.
//!
//! A run steps epochs of [`EPOCH_ROUNDS`] rounds, each a fresh `begin` of
//! one engine from a pool of [`POOL`] seeded engines (and, under chaos, its
//! own fault plan), so a timed run of any length repeats the same inputs.
//! The digest covers the first [`POOL`] epochs; later epochs must repeat
//! their pool entry's report exactly.

use std::sync::Arc;

use hyperpath_sim::tenants::{
    EngineReport, ExecMode, FaultRouting, FlowStats, TenantEngine, TenantFaultPlan, TenantPlan,
    TenantSpec, TenantsConfig,
};
use hyperpath_sim::CountingRecorder;
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use hyperpath_topology::{DirEdge, Hypercube};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::meter::{ratio, setup_reps, Loop, Meter};
use crate::probes::ProbeParams;
use crate::trace::Tracer;
use crate::{digest_of, end_to_end, harness_layer, mix, Budget, Ctx, Outcome};

const HOST_DIMS: u32 = 16;
const GUEST_DIMS: u32 = 8;
const TENANTS: u32 = 8;
/// Tenant `i` sits in window `i % WINDOWS`, so pairs share a window group.
const WINDOWS: u32 = 4;
const CAPACITY: u32 = 4;
const REQUESTS_PER_ROUND: u32 = 64;
const MAX_REQUEUES: u32 = 2;
const WORM_FLITS: u64 = 16;
/// Rounds per epoch.
const EPOCH_ROUNDS: u32 = 128;
/// Distinct engines (and fault plans) the epochs cycle through.
const POOL: usize = 8;
pub(crate) const DIGEST_OPS: u64 = POOL as u64 * EPOCH_ROUNDS as u64;

// Chaos plan, per epoch: permanent cuts and corrupting links inside the
// occupied windows, transient outages every round, and a node storm every
// `STORM_EVERY` rounds.
const CUTS: u32 = 40;
const CORRUPT: u32 = 20;
const OUTAGES_PER_ROUND: u32 = 2;
const OUTAGE_MAX_ROUNDS: u32 = 8;
const STORM_EVERY: u32 = 128;
const STORM_ROUNDS: u32 = 4;

/// The fixed roster: Theorem-1 cycle, Theorem-2 cycle, 16×16 grid and
/// binomial tree on `Q_8`, twice over, in windows `i % 4`.
fn roster() -> Vec<TenantSpec> {
    let m = GUEST_DIMS;
    let plans: [(&str, Arc<dyn TenantPlan>); 4] = [
        ("t1cycle", Arc::new(Theorem1Plan::new(m).expect("theorem 1 plan"))),
        ("t2cycle", Arc::new(Theorem2Plan::new(m, false).expect("theorem 2 plan"))),
        ("grid", Arc::new(GridPlan::new(m, m / 2, m / 2, m / 2).expect("grid plan"))),
        ("tree", Arc::new(BinomialTreePlan::new(m, m / 2).expect("tree plan"))),
    ];
    (0..TENANTS)
        .map(|i| {
            let (kind, plan) = &plans[(i % 4) as usize];
            TenantSpec {
                id: i,
                name: format!("{kind}-{i}"),
                window: u64::from(i % WINDOWS),
                plan: Arc::clone(plan),
            }
        })
        .collect()
}

fn engine(specs: &[TenantSpec], seed: u64, exec: ExecMode) -> TenantEngine {
    let cfg = TenantsConfig {
        host_dims: HOST_DIMS,
        capacity: CAPACITY,
        rounds: EPOCH_ROUNDS,
        requests_per_round: REQUESTS_PER_ROUND,
        max_requeues: MAX_REQUEUES,
        seed,
        exec,
    };
    TenantEngine::new(cfg, specs).expect("valid tenant configuration")
}

/// The engine's id of the undirected host link `{node, node ⊕ 2^d}`.
fn host_link(host: &Hypercube, node: u64, d: u32) -> u64 {
    host.undirected_edge_index(DirEdge::new(node, d)) as u64
}

/// A uniformly drawn link inside the occupied windows (host nodes below
/// `WINDOWS << GUEST_DIMS`, guest dimensions only).
fn occupied_link(host: &Hypercube, rng: &mut ChaCha8Rng) -> u64 {
    let node = rng.random_range(0..u64::from(WINDOWS) << GUEST_DIMS);
    host_link(host, node, rng.random_range(0..GUEST_DIMS))
}

/// Pool entry `j`'s fault plan, drawn from the run seed.
fn chaos_plan(seed: u64, j: usize) -> TenantFaultPlan {
    let host = Hypercube::new(HOST_DIMS);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(j as u64 + 1);
    let mut plan = TenantFaultPlan::none();
    for _ in 0..CUTS {
        plan.cut_link(occupied_link(&host, &mut rng));
    }
    for _ in 0..CORRUPT {
        plan.corrupt_link(occupied_link(&host, &mut rng));
    }
    for round in 0..EPOCH_ROUNDS {
        for _ in 0..OUTAGES_PER_ROUND {
            let len = rng.random_range(1..=OUTAGE_MAX_ROUNDS);
            plan.outage(occupied_link(&host, &mut rng), round, round + len);
        }
    }
    for base in (0..EPOCH_ROUNDS).step_by(STORM_EVERY as usize) {
        let start = base + rng.random_range(0..STORM_EVERY - STORM_ROUNDS);
        let node = rng.random_range(0..u64::from(WINDOWS) << GUEST_DIMS);
        for d in 0..HOST_DIMS {
            plan.outage(host_link(&host, node, d), start, start + STORM_ROUNDS);
        }
    }
    plan
}

/// The state that exists before the first op.
struct State {
    engines: Vec<TenantEngine>,
    /// One per engine under chaos; empty otherwise.
    plans: Vec<TenantFaultPlan>,
}

impl State {
    fn build(seed: u64, chaos: bool, exec: ExecMode, tr: &mut Tracer) -> State {
        tr.enter("topology.plans", None);
        let specs = roster();
        tr.exit();
        tr.enter("tenants.engine_new", None);
        let engines = (0..POOL).map(|j| engine(&specs, mix(seed, j as u64), exec)).collect();
        tr.exit();
        tr.enter("tenants.fault_plans", None);
        let plans =
            if chaos { (0..POOL).map(|j| chaos_plan(seed, j)).collect() } else { Vec::new() };
        tr.exit();
        State { engines, plans }
    }

    fn plan(&self, j: usize) -> Option<&TenantFaultPlan> {
        self.plans.get(j)
    }

    fn begin(&self, j: usize) -> hyperpath_sim::TenantRun<'_> {
        match self.plan(j) {
            Some(p) => self.engines[j].begin_planned(p, FaultRouting::Learned),
            None => self.engines[j].begin(),
        }
    }
}

/// One measured pass.
struct Pass {
    lp: Loop,
    /// Reports of the first [`POOL`] complete epochs.
    first: Vec<EngineReport>,
    /// Messages that reconstruct, over every epoch.
    delivered: u64,
    /// Engine counters over the rounds of the first [`POOL`] epochs (traced
    /// pass only).
    rec: CountingRecorder,
    rec_rounds: u64,
}

fn pass(st: &State, budget: &Budget, ctx: &mut Ctx, recorded: bool) -> Pass {
    let mut m = Meter::start(budget);
    let mut rec = CountingRecorder::new();
    let mut spare = CountingRecorder::new();
    let mut rec_rounds = 0;
    let mut first: Vec<EngineReport> = Vec::new();
    let mut delivered = 0;
    let mut epoch = 0usize;
    while m.more() {
        let j = epoch % POOL;
        ctx.tr.enter("tenants.begin", None);
        let mut run = st.begin(j);
        ctx.tr.exit();
        let counting = epoch < POOL;
        let mut rounds = 0;
        while rounds < EPOCH_ROUNDS && m.more() {
            let target = if counting { &mut rec } else { &mut spare };
            m.op(&mut ctx.tr, |tr| {
                tr.enter("tenants.step_round", None);
                if recorded {
                    run.step_round_recorded(target);
                } else {
                    run.step_round();
                }
                tr.exit();
            });
            rounds += 1;
        }
        if counting {
            rec_rounds += u64::from(rounds);
        }
        ctx.tr.enter("tenants.finish", None);
        let report = run.finish();
        ctx.tr.exit();

        let before = ctx.errors.len();
        check_report(&report, st.plan(j), epoch, ctx);
        delivered += report.delivered_messages();
        if rounds == EPOCH_ROUNDS {
            if first.len() < POOL {
                first.push(report);
            } else if report != first[j] {
                ctx.fail(format!("epoch {epoch}: report differs from epoch {j}'s, same inputs"));
            }
        }
        if ctx.errors.len() > before {
            ctx.failed += u64::from(rounds);
        }
        epoch += 1;
    }
    let lp = m.stop();
    ctx.attempted += lp.ops();
    Pass { lp, first, delivered, rec, rec_rounds }
}

/// Conservation and quarantine checks on one epoch's report.
fn check_report(r: &EngineReport, plan: Option<&TenantFaultPlan>, epoch: usize, ctx: &mut Ctx) {
    for t in &r.tenants {
        let s = &t.stats;
        let at = format!("epoch {epoch}, tenant {}", t.id);
        if s.full + s.degraded + s.lost != s.requested {
            ctx.fail(format!("{at}: full + degraded + lost != requested ({s:?})"));
        }
        if s.shares_delivered + s.shares_lost != s.shares_committed {
            ctx.fail(format!("{at}: shares delivered + lost != committed ({s:?})"));
        }
        if s.shares_corrupted > s.shares_delivered || s.recovered > s.delivered_messages() {
            ctx.fail(format!("{at}: corrupted or recovered exceed delivered ({s:?})"));
        }
    }
    let stray = r.quarantined.iter().find(|&&l| !plan.is_some_and(|p| p.is_hazard(l)));
    if let Some(l) = stray {
        ctx.fail(format!("epoch {epoch}: quarantined link {l} is not a hazard of the plan"));
    }
}

/// Sums the tenants' stats over `reports`.
fn totals(reports: &[EngineReport]) -> FlowStats {
    let mut t = FlowStats::default();
    for s in reports.iter().flat_map(|r| r.tenants.iter().map(|t| &t.stats)) {
        t.requested += s.requested;
        t.full += s.full;
        t.degraded += s.degraded;
        t.lost += s.lost;
        t.requeues += s.requeues;
        t.shares_committed += s.shares_committed;
        t.shares_delivered += s.shares_delivered;
        t.shares_lost += s.shares_lost;
        t.shares_corrupted += s.shares_corrupted;
        t.recovered += s.recovered;
    }
    t
}

pub(crate) fn run(ctx: &mut Ctx, budget: &Budget, traced: bool, chaos: bool) -> Outcome {
    let seed = ctx.seed;
    let threads = ctx.threads;
    let exec = if chaos { ExecMode::Wormhole { flits: WORM_FLITS } } else { ExecMode::Packet };
    let (st, setup_s) = Ctx::in_pool(threads, || {
        setup_reps(&mut ctx.tr, |tr| {
            let st = State::build(seed, chaos, exec, tr);
            tr.enter("tenants.begin", None);
            drop(st.begin(0));
            tr.exit();
            st
        })
    });

    if !traced {
        let a = ctx.measure(threads, false, |ctx| pass(&st, budget, ctx, false));
        let t = totals(&a.first);
        let delivered_frac = 1.0 - ratio(t.lost as f64, t.requested as f64);
        return Outcome {
            values: end_to_end(setup_s, &a.lp, a.delivered as f64, delivered_frac),
            digest: digest_of(&a.first),
        };
    }

    let passes = if chaos { 3 } else { 4 };
    let share = budget.share(passes);
    let a = ctx.measure(threads, false, |ctx| pass(&st, &share, ctx, false));
    let b = ctx.measure(1, false, |ctx| pass(&st, &share, ctx, false));
    let c = ctx.measure(threads, true, |ctx| pass(&st, &share, ctx, true));
    for (other, label) in [(&b, "1-thread"), (&c, "traced")] {
        if other.first != a.first {
            ctx.fail(format!("{label} pass reports differ from the {threads}-thread pass"));
        }
    }

    let mut values = harness_layer(&a.lp, &b.lp, &c.lp, true);
    let t = totals(&a.first);
    let rounds = (a.first.len() as u64 * u64::from(EPOCH_ROUNDS)) as f64;
    let epochs = a.first.len() as f64;
    let admitted = (t.full + t.degraded) as f64;
    values.extend([
        ("tenants.alloc_calls_per_round", a.lp.alloc_calls_per_op()),
        ("tenants.alloc_bytes_per_round", a.lp.alloc_bytes_per_op()),
        ("tenants.admitted_ratio", ratio(admitted, admitted + t.requeues as f64)),
        ("tenants.degraded_frac", ratio(t.degraded as f64, admitted)),
        ("tenants.requeues_per_round", ratio(t.requeues as f64, rounds)),
        ("tenants.shares_lost_frac", ratio(t.shares_lost as f64, t.shares_committed as f64)),
        (
            "tenants.shares_corrupted_frac",
            ratio(t.shares_corrupted as f64, t.shares_delivered as f64),
        ),
        ("tenants.recovered_per_round", ratio(t.recovered as f64, rounds)),
        (
            "tenants.quarantined_links",
            ratio(a.first.iter().map(|r| r.ledger.quarantined_links as f64).sum(), epochs),
        ),
        (
            "tenants.links_touched",
            ratio(a.first.iter().map(|r| r.ledger.links_touched as f64).sum(), epochs),
        ),
    ]);
    let per_round = |v: u64| ratio(v as f64, c.rec_rounds as f64);
    if chaos {
        values.extend([
            ("wormhole.steps_per_round", per_round(c.rec.steps)),
            ("wormhole.flit_moves_per_round", per_round(c.rec.flit_moves)),
            ("wormhole.dropped_per_round", per_round(c.rec.dropped)),
            ("wormhole.corrupted_per_round", per_round(c.rec.corrupted)),
        ]);
    } else {
        values.extend([
            ("packet.steps_per_round", per_round(c.rec.steps)),
            ("packet.hops_per_round", per_round(c.rec.busy_total)),
            ("packet.queue_pushes_per_round", per_round(c.rec.queue_pushes)),
        ]);
        // Admission and the ledger alone: the same rounds with no engine
        // run. Plan-free grading depends only on admission, so the tenant
        // stats must match the packet pass exactly.
        let structural = State::build(seed, false, ExecMode::Structural, &mut Tracer::new(false));
        let d = ctx.measure(1, false, |ctx| pass(&structural, &share, ctx, false));
        let stats =
            |rs: &[EngineReport]| -> Vec<_> { rs.iter().map(|r| r.tenants.clone()).collect() };
        if stats(&d.first) != stats(&a.first) {
            ctx.fail("structural pass tenant stats differ from the packet pass".into());
        }
        values.extend([
            ("tenants.admit_p50_ms", d.lp.p50_ms()),
            ("tenants.engine_share", 1.0 - d.lp.p50_ms() / b.lp.p50_ms()),
        ]);
    }
    let probe = ProbeParams { w: 4, k: 2, msg_len: 64, theorem1_n: GUEST_DIMS, plan_n: GUEST_DIMS };
    values.extend(crate::probes::run(ctx, &probe));
    Outcome { values, digest: digest_of(&a.first) }
}
