//! End-to-end benchmark of the hyperpath workspace, driven from outside
//! through the libraries' public entry points.
//!
//! Five workloads cover the three ways the repository serves the paper's
//! claim: the multi-tenant routing service (`tenants-steady`,
//! `tenants-chaos`), oracle-free IDA delivery (`delivery-small`,
//! `delivery-large`) and the fault Monte-Carlo sweeps (`fault-mc`). Each
//! run is a closed loop in one process: op `i + 1` starts when op `i`
//! returns, every op runs inside a rayon pool of `threads` workers, and all
//! times are host time. An untraced run reports the [`END_TO_END`]
//! metrics; a traced run repeats the workload in several passes and
//! reports the [`PER_LAYER`] metrics, with spans around every call into a
//! layer.
//!
//! The benchmark binds only to entry points the roadmap keeps (see
//! README.md), so later changes to the libraries need not edit it.

mod delivery;
mod faultmc;
mod meter;
mod probes;
mod tenants;
pub mod trace;

use meter::{Fnv, Loop};
use trace::{Span, Tracer};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight tenants on an implicit `Q_16`, packet engine, no faults.
    TenantsSteady,
    /// The same roster on the wormhole engine under a seeded fault plan.
    TenantsChaos,
    /// Adaptive delivery of 64-byte messages over a Theorem-1 cycle.
    DeliverySmall,
    /// The same phase with 4 KiB messages.
    DeliveryLarge,
    /// One E12 sweep followed by one E18 sweep.
    FaultMc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::TenantsSteady,
        Workload::TenantsChaos,
        Workload::DeliverySmall,
        Workload::DeliveryLarge,
        Workload::FaultMc,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantsSteady => "tenants-steady",
            Workload::TenantsChaos => "tenants-chaos",
            Workload::DeliverySmall => "delivery-small",
            Workload::DeliveryLarge => "delivery-large",
            Workload::FaultMc => "fault-mc",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op count the digest covers. A timed run makes at least this
    /// many ops, so runs of one seed always print the same digest.
    pub fn digest_ops(self) -> u64 {
        match self {
            Workload::TenantsSteady | Workload::TenantsChaos => tenants::DIGEST_OPS,
            Workload::DeliverySmall | Workload::DeliveryLarge => delivery::DIGEST_OPS,
            Workload::FaultMc => faultmc::DIGEST_OPS,
        }
    }
}

/// How long a measured loop runs: until it has made `min_ops` ops *and*
/// `seconds` have passed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Ops the loop makes at least.
    pub min_ops: u64,
    /// Seconds the loop runs at least.
    pub seconds: f64,
}

impl Budget {
    /// Exactly `n` ops.
    pub fn ops(n: u64) -> Budget {
        Budget { min_ops: n, seconds: 0.0 }
    }

    /// `seconds` of ops, and never fewer than the digest covers.
    pub fn timed(w: Workload, seconds: f64) -> Budget {
        Budget { min_ops: w.digest_ops(), seconds }
    }

    /// The budget of one of `passes` passes sharing this one's time.
    fn share(&self, passes: u32) -> Budget {
        Budget { min_ops: self.min_ops, seconds: self.seconds / f64::from(passes) }
    }
}

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("delivered_frac", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: its unit, which direction is better, and the
/// end-to-end metric it should move on which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves, on }
}

/// The per-layer metrics every traced run prints. A layer the workload
/// does not run reads 0.
pub const PER_LAYER: [LayerMetric; 41] = [
    lm("harness.op_p99_ms", "ms", "lower", "op_p50_ms", "tenants-chaos"),
    lm("harness.samples", "count", "higher", "ops_per_s", "delivery-small"),
    lm("harness.trace_overhead", "ratio", "lower", "op_p50_ms", "delivery-small"),
    lm("rayon.fanout_us", "us", "lower", "op_p50_ms", "tenants-steady"),
    lm("rayon.parallel_gain", "ratio", "higher", "op_p50_ms", "tenants-chaos"),
    lm("tenants.admit_p50_ms", "ms", "lower", "op_p50_ms", "tenants-steady"),
    lm("tenants.engine_share", "ratio", "lower", "op_p50_ms", "tenants-steady"),
    lm("tenants.alloc_calls_per_round", "count", "lower", "op_p50_ms", "tenants-steady"),
    lm("tenants.alloc_bytes_per_round", "B", "lower", "op_p50_ms", "tenants-steady"),
    lm("tenants.admitted_ratio", "ratio", "higher", "goodput_per_s", "tenants-steady"),
    lm("tenants.degraded_frac", "ratio", "lower", "goodput_per_s", "tenants-steady"),
    lm("tenants.requeues_per_round", "count", "lower", "op_p50_ms", "tenants-steady"),
    lm("tenants.shares_lost_frac", "ratio", "lower", "delivered_frac", "tenants-chaos"),
    lm("tenants.shares_corrupted_frac", "ratio", "lower", "goodput_per_s", "tenants-chaos"),
    lm("tenants.recovered_per_round", "count", "higher", "goodput_per_s", "tenants-chaos"),
    lm("tenants.quarantined_links", "count", "lower", "delivered_frac", "tenants-chaos"),
    lm("tenants.links_touched", "count", "lower", "peak_rss_mb", "tenants-steady"),
    lm("packet.steps_per_round", "count", "lower", "op_p50_ms", "tenants-steady"),
    lm("packet.hops_per_round", "count", "lower", "op_p50_ms", "tenants-steady"),
    lm("packet.queue_pushes_per_round", "count", "lower", "op_p50_ms", "tenants-steady"),
    lm("wormhole.steps_per_round", "count", "lower", "op_p50_ms", "tenants-chaos"),
    lm("wormhole.flit_moves_per_round", "count", "lower", "op_p50_ms", "tenants-chaos"),
    lm("wormhole.dropped_per_round", "count", "lower", "delivered_frac", "tenants-chaos"),
    lm("wormhole.corrupted_per_round", "count", "lower", "goodput_per_s", "tenants-chaos"),
    lm("packet.ship_share", "ratio", "lower", "op_p50_ms", "delivery-small"),
    lm("packet.ship_us_per_round", "us", "lower", "op_p50_ms", "delivery-small"),
    lm("protocol.rounds_per_phase", "count", "lower", "op_p50_ms", "delivery-small"),
    lm("protocol.shares_sent_per_phase", "count", "lower", "op_p50_ms", "delivery-small"),
    lm("protocol.rejected_per_phase", "count", "lower", "goodput_per_s", "delivery-small"),
    lm("protocol.useful_ratio", "ratio", "higher", "goodput_per_s", "delivery-small"),
    lm("ida.verify_us_per_share", "us", "lower", "op_p50_ms", "delivery-large"),
    lm("ida.reconstruct_us_per_msg", "us", "lower", "op_p50_ms", "delivery-large"),
    lm("ida.disperse_us_per_msg", "us", "lower", "setup_s", "delivery-large"),
    lm("ida.est_share", "ratio", "lower", "op_p50_ms", "delivery-large"),
    lm("delivery.alloc_calls_per_phase", "count", "lower", "op_p50_ms", "delivery-small"),
    lm("delivery.alloc_bytes_per_phase", "B", "lower", "op_p50_ms", "delivery-small"),
    lm("bitslice.e12_ms", "ms", "lower", "op_p50_ms", "fault-mc"),
    lm("bitslice.e18_ms", "ms", "lower", "op_p50_ms", "fault-mc"),
    lm("bitslice.alloc_bytes_per_op", "B", "lower", "op_p50_ms", "fault-mc"),
    lm("core.theorem1_ms", "ms", "lower", "op_p50_ms", "fault-mc"),
    lm("topology.plan_build_ms", "ms", "lower", "op_p50_ms", "fault-mc"),
];

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The workload run.
    pub workload: Workload,
    /// Ops made across every pass.
    pub attempted: u64,
    /// Ops whose outputs failed a correctness check.
    pub failed: u64,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    /// The declared metrics of the run's mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// FNV-1a over the `Debug` text of the reports the digest covers.
    pub digest: u64,
    /// Recorded spans (empty unless traced).
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// State shared by a run's passes.
pub(crate) struct Ctx {
    pub seed: u64,
    pub threads: usize,
    pub tr: Tracer,
    pub errors: Vec<String>,
    pub failed: u64,
    pub attempted: u64,
}

impl Ctx {
    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Runs `f` with every parallel iterator inside it on `threads` workers.
    pub fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(f)
    }

    /// Runs one measured pass on `threads` workers, recording spans only
    /// when `traced`, so the untraced passes of a traced run measure the
    /// same code as an untraced run.
    pub fn measure<R>(&mut self, threads: usize, traced: bool, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.tr.record(traced);
        let out = Ctx::in_pool(threads, || f(self));
        self.tr.record(true);
        out
    }
}

/// What a workload hands back: metric values by name and the digest.
pub(crate) struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    pub digest: u64,
}

/// The end-to-end values of an untraced pass (`peak_rss_mb` is added by
/// [`run_workload`]). `goodput` counts the pass's useful results;
/// `delivered_frac` is the share of messages the service did not lose over
/// the inputs the digest covers, so it is fixed by the seed.
pub(crate) fn end_to_end(
    setup_s: f64,
    lp: &Loop,
    goodput: f64,
    delivered_frac: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("ops_per_s", lp.ops_per_s()),
        ("op_p50_ms", lp.p50_ms()),
        ("goodput_per_s", goodput / lp.wall_s),
        ("delivered_frac", delivered_frac),
        ("cpu_ms_per_op", lp.cpu_ms_per_op()),
    ]
}

/// The harness and rayon values of a traced run from its untraced pass `a`
/// (at `threads`), its 1-thread pass `b` and its traced pass `c`.
/// `serial_traced` says the traced pass runs serially whatever the pool,
/// so its overhead is taken against the 1-thread pass.
pub(crate) fn harness_layer(
    a: &Loop,
    b: &Loop,
    c: &Loop,
    serial_traced: bool,
) -> Vec<(&'static str, f64)> {
    let untraced = if serial_traced { b } else { a };
    vec![
        ("harness.op_p99_ms", a.pct_ms(0.99)),
        ("harness.samples", a.ops() as f64),
        ("harness.trace_overhead", c.p50_ms() / untraced.p50_ms()),
        ("rayon.parallel_gain", b.p50_ms() / a.p50_ms()),
    ]
}

/// Runs workload `w` for `budget` on `threads` workers. Untraced, it makes
/// one measured pass and reports [`END_TO_END`]; traced, it makes the
/// passes the per-layer metrics need (each with an equal share of the
/// budget's seconds), runs the layer probes and reports [`PER_LAYER`].
/// Both modes check every output and print the same digest.
pub fn run_workload(
    w: Workload,
    seed: u64,
    budget: Budget,
    threads: usize,
    trace: bool,
) -> RunResult {
    let mut ctx =
        Ctx { seed, threads, tr: Tracer::new(trace), errors: Vec::new(), failed: 0, attempted: 0 };
    let Outcome { mut values, digest } = match w {
        Workload::TenantsSteady => tenants::run(&mut ctx, &budget, trace, false),
        Workload::TenantsChaos => tenants::run(&mut ctx, &budget, trace, true),
        Workload::DeliverySmall => delivery::run(&mut ctx, &budget, trace, delivery::SMALL),
        Workload::DeliveryLarge => delivery::run(&mut ctx, &budget, trace, delivery::LARGE),
        Workload::FaultMc => faultmc::run(&mut ctx, &budget, trace),
    };
    if !trace {
        values.push(("peak_rss_mb", meter::peak_rss_mb()));
    }
    let spans = ctx.tr.into_spans();
    if let Err(e) = trace::check_spans(&spans) {
        ctx.errors.push(format!("trace: {e}"));
    }

    let declared: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    for (name, _) in &values {
        assert!(declared.iter().any(|(d, _)| d == name), "undeclared metric {name}");
    }
    let metrics: Vec<Metric> = declared
        .into_iter()
        .map(|(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            Metric { name, value, unit }
        })
        .collect();
    for m in &metrics {
        if !m.value.is_finite() {
            ctx.errors.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    RunResult {
        workload: w,
        attempted: ctx.attempted,
        failed: ctx.failed,
        errors: ctx.errors,
        metrics,
        digest,
        spans,
    }
}

/// Hashes `reports` (the ones the digest covers) into the run digest.
pub(crate) fn digest_of<T: std::fmt::Debug>(reports: &[T]) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        h.add(r);
    }
    h.finish()
}

/// A 64-bit mix of `seed` and `i`, for per-item seeds derived from the run
/// seed.
pub(crate) fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
