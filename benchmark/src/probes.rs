//! Layer probes of a traced run: small timed calls that isolate one layer's
//! unit cost on the workload's own parameters.

use hyperpath_bench::measure::median_wall_ns;
use hyperpath_core::cycles::theorem1;
use hyperpath_ida::{Ida, Share};
use hyperpath_topology::host::Theorem1Plan;
use rayon::prelude::*;

use crate::Ctx;

/// The parameters a workload's probes run on.
pub(crate) struct ProbeParams {
    /// IDA shares `w`.
    pub w: u8,
    /// IDA threshold `k`.
    pub k: u8,
    /// Message length in bytes.
    pub msg_len: usize,
    /// `n` of the `theorem1(n)` probe.
    pub theorem1_n: u32,
    /// `n` of the `Theorem1Plan::new(n)` probe.
    pub plan_n: u32,
}

/// Calls per timed sample of the sub-microsecond IDA probes.
const BATCH: u32 = 64;
/// Samples per IDA probe.
const SAMPLES: u32 = 101;

/// Runs every probe and returns `rayon.*`, `ida.*`, `core.*` and
/// `topology.*` values.
pub(crate) fn run(ctx: &mut Ctx, p: &ProbeParams) -> Vec<(&'static str, f64)> {
    let tr = &mut ctx.tr;
    tr.enter("probes", None);

    tr.enter("rayon.fanout", None);
    let mut items = vec![0u64; 4];
    let fanout_ns = Ctx::in_pool(ctx.threads, || {
        median_wall_ns(100, 2001, || {
            items.par_iter_mut().for_each(|x| *x = std::hint::black_box(*x));
        })
    });
    tr.exit();

    let ida = Ida::new(p.w, p.k);
    let message: Vec<u8> = (0..p.msg_len).map(|i| (i * 31 + 7) as u8).collect();
    let key = 0x5eed_cafe;
    tr.enter("ida.disperse", None);
    let disperse_ns = median_wall_ns(3, SAMPLES, || {
        (0..BATCH).map(|_| ida.disperse(std::hint::black_box(&message)).len()).sum::<usize>()
    });
    tr.exit();
    let tagged = ida.disperse_tagged(&message, key);
    tr.enter("ida.verify_share", None);
    let verify_ns = median_wall_ns(3, SAMPLES, || {
        (0..BATCH)
            .map(|_| {
                tagged.iter().filter(|ts| ida.verify_share(key, std::hint::black_box(ts))).count()
            })
            .sum::<usize>()
    });
    tr.exit();
    let subset: Vec<Share> =
        tagged.iter().take(usize::from(p.k)).map(|ts| ts.share.clone()).collect();
    assert_eq!(ida.reconstruct(&subset).expect("k shares reconstruct"), message);
    tr.enter("ida.reconstruct", None);
    let reconstruct_ns = median_wall_ns(3, SAMPLES, || {
        (0..BATCH)
            .map(|_| ida.reconstruct(std::hint::black_box(&subset)).expect("reconstruct").len())
            .sum::<usize>()
    });
    tr.exit();

    tr.enter("core.theorem1", None);
    let theorem1_ns =
        median_wall_ns(1, 5, || theorem1(p.theorem1_n).expect("theorem 1").claimed_width);
    tr.exit();
    tr.enter("topology.plan_build", None);
    let plan_ns = median_wall_ns(1, 5, || {
        Theorem1Plan::new(p.plan_n).expect("theorem 1 plan").claimed_width()
    });
    tr.exit();

    tr.exit();
    let per_call_us = |ns: u64, calls: u32| ns as f64 / 1e3 / f64::from(calls);
    vec![
        ("rayon.fanout_us", fanout_ns as f64 / 1e3),
        ("ida.disperse_us_per_msg", per_call_us(disperse_ns, BATCH)),
        ("ida.verify_us_per_share", per_call_us(verify_ns, BATCH * u32::from(p.w))),
        ("ida.reconstruct_us_per_msg", per_call_us(reconstruct_ns, BATCH)),
        ("core.theorem1_ms", theorem1_ns as f64 / 1e6),
        ("topology.plan_build_ms", plan_ns as f64 / 1e6),
    ]
}
