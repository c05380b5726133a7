//! `fault-mc`: one op is one E12 sweep (`n = 12`, materialized 256-lane
//! kernels) followed by one E18 sweep (`n = 18`, streamed 64-lane kernels
//! on the implicit host).
//!
//! Op `i` uses sweep seed `mix(seed, i % POOL)`, so later ops must repeat
//! their pool entry's output exactly; the digest covers the first
//! [`POOL`] ops.

use hyperpath_bench::experiments::{e12_faults_with_threads, e18_scale_with_threads};
use hyperpath_bench::{Json, SweepOutput};
use hyperpath_core::cycles::theorem1;
use hyperpath_topology::host::Theorem1Plan;

use crate::meter::{ratio, setup_reps, Loop, Meter};
use crate::probes::ProbeParams;
use crate::{digest_of, end_to_end, harness_layer, mix, Budget, Ctx, Outcome};

const E12_DIMS: u32 = 12;
const E12_TRIALS: u32 = 2048;
/// `n = 18`, not 20: one `n = 20` sweep takes over a second, which leaves
/// too few samples per run.
const E18_DIMS: u32 = 18;
const E18_TRIALS: u32 = 64;
const POOL: usize = 4;
pub(crate) const DIGEST_OPS: u64 = POOL as u64;

/// The widths the sweeps must report, built at set-up from the same
/// constructions the sweeps use.
struct Expected {
    e12_width: u64,
    e18_width: u64,
}

/// One measured pass.
struct Pass {
    lp: Loop,
    /// Outputs of the first [`POOL`] ops.
    first: Vec<(SweepOutput, SweepOutput)>,
    /// Monte-Carlo trials, over every op.
    trials: u64,
}

fn field(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn pass(exp: &Expected, budget: &Budget, ctx: &mut Ctx, threads: usize) -> Pass {
    let seed = ctx.seed;
    let mut m = Meter::start(budget);
    let mut first: Vec<(SweepOutput, SweepOutput)> = Vec::new();
    let mut trials = 0u64;
    while m.more() {
        let i = m.done();
        let s = mix(seed, i % POOL as u64);
        let out = m.op(&mut ctx.tr, |tr| {
            tr.enter("bitslice.e12", None);
            let (_, e12) = e12_faults_with_threads(&[E12_DIMS], E12_TRIALS, s, Some(threads));
            tr.exit();
            tr.enter("bitslice.e18", None);
            let (_, e18) = e18_scale_with_threads(&[E18_DIMS], E18_TRIALS, s, Some(threads));
            tr.exit();
            (e12, e18)
        });
        let before = ctx.errors.len();
        for rec in &out.0.records {
            let r = &rec.result;
            if field(r, "sim_no_retry") != field(r, "struct_k_half")
                || field(r, "sim_retry") != field(r, "struct_k1")
            {
                ctx.fail(format!("op {i}: E12 delivery columns disagree with structure: {r:?}"));
            }
            if field(r, "width") != exp.e12_width as f64 {
                ctx.fail(format!("op {i}: E12 width is not {}: {r:?}", exp.e12_width));
            }
        }
        for rec in &out.1.records {
            let r = &rec.result;
            let order = field(r, "struct_k1").partial_cmp(&field(r, "struct_k_half"));
            if order.is_none_or(|o| o.is_lt()) {
                ctx.fail(format!("op {i}: E18 struct_k1 < struct_k_half: {r:?}"));
            }
            if field(r, "width") != exp.e18_width as f64 {
                ctx.fail(format!("op {i}: E18 width is not {}: {r:?}", exp.e18_width));
            }
        }
        let j = i as usize % POOL;
        if first.len() < POOL {
            first.push(out.clone());
        } else if out != first[j] {
            ctx.fail(format!("op {i}: sweeps differ from op {j}'s, same seed"));
        }
        if ctx.errors.len() > before {
            ctx.failed += 1;
        }
        trials += out
            .0
            .records
            .iter()
            .chain(&out.1.records)
            .map(|r| field(&r.result, "trials") as u64)
            .sum::<u64>();
    }
    let lp = m.stop();
    ctx.attempted += lp.ops();
    Pass { lp, first, trials }
}

pub(crate) fn run(ctx: &mut Ctx, budget: &Budget, traced: bool) -> Outcome {
    let threads = ctx.threads;
    let (exp, setup_s) = setup_reps(&mut ctx.tr, |tr| {
        tr.enter("core.theorem1", None);
        let e12_width = theorem1(E12_DIMS).expect("theorem 1").claimed_width as u64;
        tr.exit();
        tr.enter("topology.plan_build", None);
        let e18_width =
            u64::from(Theorem1Plan::new(E18_DIMS).expect("theorem 1 plan").claimed_width());
        tr.exit();
        Expected { e12_width, e18_width }
    });

    if !traced {
        let a = ctx.measure(threads, false, |ctx| pass(&exp, budget, ctx, threads));
        // The sweeps deliver no messages of their own, so they lose none.
        return Outcome {
            values: end_to_end(setup_s, &a.lp, a.trials as f64, 1.0),
            digest: digest_of(&a.first),
        };
    }

    let share = budget.share(3);
    let a = ctx.measure(threads, false, |ctx| pass(&exp, &share, ctx, threads));
    let b = ctx.measure(1, false, |ctx| pass(&exp, &share, ctx, 1));
    let c = ctx.measure(threads, true, |ctx| pass(&exp, &share, ctx, threads));
    for (other, label) in [(&b, "1-thread"), (&c, "traced")] {
        if other.first != a.first {
            ctx.fail(format!("{label} pass sweeps differ from the {threads}-thread pass"));
        }
    }
    let layers = ctx.tr.layer_times();
    let mean_ms = |name: &str| {
        let l = layers.get(name).copied().unwrap_or_default();
        ratio(l.total_ns as f64 / 1e6, l.count as f64)
    };
    let mut values = harness_layer(&a.lp, &b.lp, &c.lp, false);
    values.extend([
        ("bitslice.e12_ms", mean_ms("bitslice.e12")),
        ("bitslice.e18_ms", mean_ms("bitslice.e18")),
        ("bitslice.alloc_bytes_per_op", a.lp.alloc_bytes_per_op()),
    ]);
    let probe = ProbeParams {
        w: exp.e12_width as u8,
        k: exp.e12_width.div_ceil(2) as u8,
        msg_len: 64,
        theorem1_n: E12_DIMS,
        plan_n: E18_DIMS,
    };
    values.extend(crate::probes::run(ctx, &probe));
    Outcome { values, digest: digest_of(&a.first) }
}
