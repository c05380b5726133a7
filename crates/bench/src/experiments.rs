//! Reusable experiment drivers behind the `e*` binaries.
//!
//! Each driver returns the human-readable [`Table`] the binary prints plus
//! (for the randomized / sweep-shaped experiments) the [`SweepOutput`] it
//! was computed from, so the same code path serves three consumers: the
//! binaries, the golden-output tests, and the `BENCH_*.json` artifacts.

use crate::json::{Json, ToJson};
use crate::sweep::{Sweep, SweepOutput};
use crate::table::Table;
use hyperpath_core::baseline::gray_cycle_embedding;
use hyperpath_core::ccc_copies::{
    butterfly_multi_copy, ccc_multi_copy, ccc_multi_copy_with, WindowStrategy,
};
use hyperpath_core::cycles::theorem1;
use hyperpath_embedding::metrics::{multi_copy_metrics, multi_path_metrics};
use hyperpath_embedding::validate::{validate_multi_copy, validate_multi_path};
use hyperpath_ida::Ida;
use hyperpath_sim::bitslice::{
    streamed_all_bundles_ge, BitTrialBlock, GrayCycleBundles, IndexedTrials, LaneWord, SlicedPaths,
    W256,
};
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::delivery::{deliver_phase_plan_outcome, DeliveryConfig};
use hyperpath_sim::protocol::{deliver_adaptive_prepared, AdaptiveSetup, PlanNetwork};
use hyperpath_sim::routing::{ecube_path, random_permutation, CccRouter};
use hyperpath_sim::tenants::{
    run_tenants, run_tenants_planned, EngineReport, ExecMode, FaultRouting, FlowStats,
    TenantEngine, TenantFaultPlan, TenantPlan, TenantSpec, TenantsConfig,
};
use hyperpath_sim::{NopRecorder, PacketSim, Worm, WormholeSim};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use std::sync::Arc;

const SIM_CAP: u64 = 10_000_000;

fn fetch(r: &Json, key: &str) -> u64 {
    r.get(key).and_then(Json::as_u64).expect("record field")
}

fn fetch_f(r: &Json, key: &str) -> f64 {
    r.get(key).and_then(Json::as_f64).expect("record field")
}

// ---------------------------------------------------------------------------
// E1 — m-packet cycle phase: Gray code vs Theorem 1 (Section 2).
// ---------------------------------------------------------------------------

/// One E1 grid point: cycle dimension and packets per cycle edge.
#[derive(Debug, Clone, Copy)]
pub struct CyclePoint {
    /// Hypercube dimension (the cycle has `2^n` nodes).
    pub n: u32,
    /// Packets per cycle edge in the phase.
    pub m: u64,
}

impl ToJson for CyclePoint {
    fn to_json(&self) -> Json {
        Json::object([("n", self.n.to_json()), ("m", self.m.to_json())])
    }
}

/// The default E1 grid over the given dimensions: `m ∈ {n/2, n, 4n, 16n}`.
pub fn e1_grid(ns: &[u32]) -> Vec<CyclePoint> {
    ns.iter()
        .flat_map(|&n| {
            [u64::from(n) / 2, u64::from(n), 4 * u64::from(n), 16 * u64::from(n)]
                .map(|m| CyclePoint { n, m })
        })
        .collect()
}

/// E1: simulates one m-packet phase of the `2^n`-cycle under the Gray-code
/// embedding, the free-running Theorem 1 embedding, and the certified
/// schedule. Deterministic (the grid point RNG goes unused).
pub fn e1_cycle_speedup(ns: &[u32]) -> (Table, SweepOutput) {
    let out = Sweep::new("e1_cycle_speedup", 0).run(e1_grid(ns), |p, _rng| {
        let gray = gray_cycle_embedding(p.n);
        let t1 = theorem1(p.n).expect("theorem 1");
        let g = PacketSim::phase_workload(&gray, p.m).run(SIM_CAP, &mut NopRecorder).makespan;
        let w =
            PacketSim::phase_workload(&t1.embedding, p.m).run(SIM_CAP, &mut NopRecorder).makespan;
        // Repeating the certified schedule back-to-back ships `packets`
        // packets every `cost` steps with zero conflicts.
        let sched = t1.cost * p.m.div_ceil(t1.packets);
        let best = w.min(sched);
        Json::object([
            ("gray_steps", g.to_json()),
            ("free_run", w.to_json()),
            ("scheduled", sched.to_json()),
            ("speedup", (g as f64 / best as f64).to_json()),
            ("half_m_bound", (p.m / 2).to_json()),
        ])
    });
    let mut t = Table::new(&[
        "n",
        "m",
        "gray steps",
        "free-run multipath",
        "scheduled multipath",
        "speedup",
        "m/2 bound",
    ]);
    for rec in &out.records {
        t.row(vec![
            fetch(&rec.params, "n").to_string(),
            fetch(&rec.params, "m").to_string(),
            fetch(&rec.result, "gray_steps").to_string(),
            fetch(&rec.result, "free_run").to_string(),
            fetch(&rec.result, "scheduled").to_string(),
            format!("{:.2}x", fetch_f(&rec.result, "speedup")),
            fetch(&rec.result, "half_m_bound").to_string(),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E10 — wormhole permutation routing: single path vs CCC-copy split
// (Section 7).
// ---------------------------------------------------------------------------

/// The permutation an E10 grid point routes: node `x` sends to `perm[x]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permutation {
    /// Drawn from the grid point's own ChaCha stream.
    Random,
    /// `x` with its `d` address bits reversed.
    BitReversal,
    /// `x` with its low `⌊d/2⌋` address bits swapped with the next
    /// `⌊d/2⌋`; for odd `d` the top bit stays in place.
    Transpose,
}

impl Permutation {
    /// The destination of every node of `host`.
    fn destinations(
        self,
        host: &hyperpath_topology::Hypercube,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Vec<u64> {
        let d = host.dims();
        let half = d / 2;
        let low = (1u64 << half) - 1;
        match self {
            Permutation::Random => random_permutation(host, rng),
            Permutation::BitReversal => {
                host.nodes().map(|x| x.reverse_bits() >> (64 - d)).collect()
            }
            Permutation::Transpose => host
                .nodes()
                .map(|x| {
                    let top = x >> (2 * half) << (2 * half);
                    top | (x & low) << half | (x >> half & low)
                })
                .collect(),
        }
    }
}

/// One E10 grid point: CCC parameter, message length and permutation.
#[derive(Debug, Clone, Copy)]
pub struct WormholePoint {
    /// CCC parameter (host is `Q_{n + log n}`).
    pub n: u32,
    /// Message length in flits.
    pub flits: u64,
    /// The permutation routed.
    pub permutation: Permutation,
}

impl ToJson for WormholePoint {
    fn to_json(&self) -> Json {
        // Random points keep the params they had before the adversarial
        // permutations joined the grid, so their records stay byte-stable.
        let name = match self.permutation {
            Permutation::Random => None,
            Permutation::BitReversal => Some("bit_reversal"),
            Permutation::Transpose => Some("transpose"),
        };
        let fields = [("n", self.n.to_json()), ("flits", self.flits.to_json())];
        Json::object(fields.into_iter().chain(name.map(|name| ("permutation", name.to_json()))))
    }
}

/// The default E10 grid: `flits ∈ {16, 64, 256}` per dimension, for a
/// random permutation, then bit reversal, then transpose. Point streams
/// are keyed by grid index, so the random points come first.
pub fn e10_grid(ns: &[u32]) -> Vec<WormholePoint> {
    [Permutation::Random, Permutation::BitReversal, Permutation::Transpose]
        .into_iter()
        .flat_map(|permutation| {
            ns.iter().flat_map(move |&n| {
                [16u64, 64, 256].map(|flits| WormholePoint { n, flits, permutation })
            })
        })
        .collect()
}

/// E10: routes a permutation in wormhole mode, whole-message e-cube worms
/// vs `n` split worms over the Theorem 3 CCC copies. A random point draws
/// its permutation from its own ChaCha stream; bit reversal and transpose
/// are the classic worst cases for e-cube routing.
pub fn e10_wormhole(ns: &[u32], master_seed: u64) -> (Table, SweepOutput) {
    let out = Sweep::new("e10_wormhole", master_seed).run(e10_grid(ns), |p, rng| {
        let copies = ccc_multi_copy(p.n).expect("Theorem 3");
        let host = copies.multi_copy.host;
        let router = CccRouter::new(&copies);
        let perm = p.permutation.destinations(&host, rng);
        // Single path: the whole message as one worm on the e-cube path.
        let mut single = WormholeSim::new(host);
        for (src, &dst) in perm.iter().enumerate() {
            let src = src as u64;
            if src != dst {
                single.add_worm(Worm { path: ecube_path(src, dst), flits: p.flits });
            }
        }
        let r1 = single.run(SIM_CAP, &mut NopRecorder).makespan;
        // Split: n worms of flits/n flits along the CCC copy routes.
        let mut split = WormholeSim::new(host);
        let piece = (p.flits / u64::from(p.n)).max(1);
        for (src, &dst) in perm.iter().enumerate() {
            let src = src as u64;
            if src != dst {
                for route in router.routes(src, dst) {
                    split.add_worm(Worm { path: route, flits: piece });
                }
            }
        }
        let r2 = split.run(SIM_CAP, &mut NopRecorder).makespan;
        Json::object([
            ("host_dims", host.dims().to_json()),
            ("single_path", r1.to_json()),
            ("ccc_split", r2.to_json()),
            ("ratio", (r1 as f64 / r2 as f64).to_json()),
        ])
    });
    let mut t = Table::new(&[
        "permutation",
        "n (CCC)",
        "host",
        "M flits",
        "single-path",
        "ccc-split",
        "ratio",
    ]);
    for rec in &out.records {
        t.row(vec![
            rec.params.get("permutation").and_then(Json::as_str).unwrap_or("random").to_string(),
            fetch(&rec.params, "n").to_string(),
            format!("Q_{}", fetch(&rec.result, "host_dims")),
            fetch(&rec.params, "flits").to_string(),
            fetch(&rec.result, "single_path").to_string(),
            fetch(&rec.result, "ccc_split").to_string(),
            format!("{:.2}x", fetch_f(&rec.result, "ratio")),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E12 — delivery probability under random link faults (Sections 1-2).
// ---------------------------------------------------------------------------

/// One E12 grid point: dimension and per-link fault probability.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Hypercube dimension.
    pub n: u32,
    /// Independent per-link failure probability.
    pub p: f64,
}

impl ToJson for FaultPoint {
    fn to_json(&self) -> Json {
        Json::object([("n", self.n.to_json()), ("p", self.p.to_json())])
    }
}

/// The default E12 grid: `p ∈ {0.0005, 0.002, 0.01, 0.05}` per dimension.
pub fn e12_grid(ns: &[u32]) -> Vec<FaultPoint> {
    ns.iter().flat_map(|&n| [0.0005f64, 0.002, 0.01, 0.05].map(|p| FaultPoint { n, p })).collect()
}

/// E12: Monte-Carlo phase delivery probability under random link faults,
/// with the delivery semantics cross-checked against the structural
/// estimate.
///
/// Each trial draws ONE fault set on the shared host `Q_n` and evaluates
/// every estimator against that same world:
///
/// * `gray_w1` / `struct_k1` / `struct_k_half` — structural: survival of
///   1 / 1 / `⌈w/2⌉` paths per bundle for the Gray single-path and
///   Theorem 1 embeddings;
/// * `sim_no_retry` / `sim_retry` — delivery: the outcome of one
///   dispersal phase with the `k = ⌈w/2⌉` threshold, without and with
///   retry rounds over the surviving paths.
///
/// All five columns now ride the 256-lane bit-sliced kernel
/// ([`SlicedPaths`] over a `BitTrialBlock<W256>`, 256 trials per word
/// operation): the fault draws are static fail-stop and no trace is
/// requested, so the delivery columns take the fail-stop fast path —
/// [`SlicedPaths::all_bundles_recovered`] evaluates the per-lane
/// [`deliver_phase_plan_outcome`]
/// grades straight from bundle survival words, skipping the packet engine
/// entirely. Each kernel lane replays the
/// scalar [`surviving_paths`](hyperpath_sim::faults::surviving_paths)
/// draw bit for bit, so the popcounts equal the engine-backed per-trial
/// booleans this sweep used to compute — pinned three ways by
/// `tests/delivery_conformance.rs` and `tests/fastpath_conformance.rs`
/// (kernel vs fast path vs engine), and `sim_no_retry == struct_k_half`,
/// `sim_retry == struct_k1` still hold exactly as before.
pub fn e12_faults(ns: &[u32], trials: u32, master_seed: u64) -> (Table, SweepOutput) {
    e12_faults_with_threads(ns, trials, master_seed, None)
}

/// [`e12_faults`] with a pinned worker count (the determinism tests run
/// the same sweep on 1 and 4 workers and require byte-identical JSON).
pub fn e12_faults_with_threads(
    ns: &[u32],
    trials: u32,
    master_seed: u64,
    threads: Option<usize>,
) -> (Table, SweepOutput) {
    use rand::RngExt;
    use rayon::prelude::*;
    use std::collections::HashMap;

    /// What every grid point of one dimension shares.
    struct Built {
        host: hyperpath_topology::Hypercube,
        width: usize,
        gray_paths: SlicedPaths,
        t1_paths: SlicedPaths,
    }

    // The constructions and their bit-sliced path tables are deterministic
    // and fault-independent, so build them once per distinct dimension up
    // front, serially (as E18 does for its plans): no grid point or trial
    // rebuilds them, and the embeddings are dropped once resolved.
    let mut built: HashMap<u32, Built> = HashMap::new();
    for &n in ns {
        built.entry(n).or_insert_with(|| {
            let t1 = theorem1(n).expect("theorem 1");
            Built {
                host: t1.embedding.host,
                width: t1.claimed_width,
                gray_paths: SlicedPaths::new(&gray_cycle_embedding(n)),
                t1_paths: SlicedPaths::new(&t1.embedding),
            }
        });
    }

    let mut sweep = Sweep::new("e12_faults", master_seed);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let out = sweep.run(e12_grid(ns), move |p, rng| {
        let Built { host, width: w, gray_paths, t1_paths } = &built[&p.n];
        let k_half = w.div_ceil(2);
        // One seed per trial drawn *serially* from the point's stream: the
        // sweep's byte-stability across worker counts rests on this.
        let seeds: Vec<u64> = (0..trials).map(|_| rng.random()).collect();
        // Each 256-seed chunk is drawn into a 256-lane block whose lane `t`
        // replays trial `chunk_start + t`'s fault draw bit for bit (the
        // lane streams are independent, so the chunk width cannot change
        // the drawn bits), and the popcount tallies match the scalar
        // per-trial booleans exactly. The chunks split into one contiguous
        // run per worker; a run redraws one block in place, chunk after
        // chunk. u32 addition commutes, so neither the worker count nor
        // the run split can change the totals.
        let tally = |block: &BitTrialBlock<W256>, counts: &mut [u32; 5]| {
            let words = [
                gray_paths.all_bundles_ge(block, 1),
                t1_paths.all_bundles_ge(block, 1),
                t1_paths.all_bundles_ge(block, k_half),
                t1_paths.all_bundles_recovered(block, k_half, false),
                t1_paths.all_bundles_recovered(block, k_half, true),
            ];
            for (a, w) in counts.iter_mut().zip(words) {
                *a += w.count_ones();
            }
        };
        let chunks_per_run = seeds.len().div_ceil(256).div_ceil(rayon::current_num_threads());
        let runs: Vec<&[u64]> = seeds.chunks(256 * chunks_per_run.max(1)).collect();
        let per_run: Vec<[u32; 5]> = runs
            .into_par_iter()
            .map(|run| {
                let mut chunks = run.chunks(256);
                let first = chunks.next().expect("runs are non-empty");
                let mut block = BitTrialBlock::<W256>::draw_compat(host, p.p, first);
                let mut counts = [0u32; 5];
                tally(&block, &mut counts);
                for chunk in chunks {
                    block.redraw_compat(p.p, chunk);
                    tally(&block, &mut counts);
                }
                counts
            })
            .collect();
        let mut counts = [0u32; 5];
        for c in &per_run {
            for (a, &v) in counts.iter_mut().zip(c) {
                *a += v;
            }
        }
        let frac = |ok: u32| f64::from(ok) / f64::from(trials);
        Json::object([
            ("width", w.to_json()),
            ("trials", trials.to_json()),
            ("gray_w1", frac(counts[0]).to_json()),
            ("struct_k1", frac(counts[1]).to_json()),
            ("struct_k_half", frac(counts[2]).to_json()),
            ("sim_no_retry", frac(counts[3]).to_json()),
            ("sim_retry", frac(counts[4]).to_json()),
        ])
    });
    let mut t = Table::new(&[
        "n",
        "p(link fail)",
        "gray (w=1)",
        "struct k=1",
        "struct k=⌈w/2⌉",
        "sim no-retry",
        "sim retry",
    ]);
    for rec in &out.records {
        t.row(vec![
            fetch(&rec.params, "n").to_string(),
            format!("{}", fetch_f(&rec.params, "p")),
            format!("{:.3}", fetch_f(&rec.result, "gray_w1")),
            format!("{:.3}", fetch_f(&rec.result, "struct_k1")),
            format!("{:.3}", fetch_f(&rec.result, "struct_k_half")),
            format!("{:.3}", fetch_f(&rec.result, "sim_no_retry")),
            format!("{:.3}", fetch_f(&rec.result, "sim_retry")),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E18 — structural fault estimators at scale on the implicit host.
// ---------------------------------------------------------------------------

/// One E18 grid point: dimension and per-link fault probability (same axes
/// as E12, but reached through the implicit topology layer).
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Hypercube dimension (1M nodes at `n = 20`, 16M at `n = 24`).
    pub n: u32,
    /// Independent per-link failure probability.
    pub p: f64,
}

impl ToJson for ScalePoint {
    fn to_json(&self) -> Json {
        Json::object([("n", self.n.to_json()), ("p", self.p.to_json())])
    }
}

/// The default E18 grid: the E12 fault probabilities per dimension.
pub fn e18_grid(ns: &[u32]) -> Vec<ScalePoint> {
    ns.iter().flat_map(|&n| [0.0005f64, 0.002, 0.01, 0.05].map(|p| ScalePoint { n, p })).collect()
}

/// E18: the E12 structural columns (`gray_w1` / `struct_k1` /
/// `struct_k_half`) at dimensions the materialized pipeline cannot reach.
///
/// Nothing per-link or per-bundle is ever allocated: the Theorem 1
/// embedding is an implicit [`Theorem1Plan`] (`O(2^{n/2})` words), the
/// Gray baseline is [`GrayCycleBundles`] (three words), fault trials are
/// [`IndexedTrials`] (per-link alive words recomputed from the seed), and
/// each 64-trial block is folded by [`streamed_all_bundles_ge`] — so
/// `n = 20..=24` runs in megabytes. Per point, both estimators share the
/// block's fault world, preserving E12's "same draws" discipline; block
/// seeds are drawn serially from the point's ChaCha stream and all folds
/// commute, so the artifact is byte-identical at any worker count (CI's
/// determinism manifest pins this).
///
/// There is no measured-simulation column here: packet simulation remains
/// a materialized-scale (`n ≤ 12`) concern, which is exactly the split the
/// implicit layer is for.
pub fn e18_scale(ns: &[u32], trials: u32, master_seed: u64) -> (Table, SweepOutput) {
    e18_scale_with_threads(ns, trials, master_seed, None)
}

/// [`e18_scale`] with a pinned worker count (for the byte-identity tests).
pub fn e18_scale_with_threads(
    ns: &[u32],
    trials: u32,
    master_seed: u64,
    threads: Option<usize>,
) -> (Table, SweepOutput) {
    use rand::RngExt;
    use std::collections::HashMap;
    use std::sync::Arc;

    // Plans are deterministic and (row-subcube decomposition) not free to
    // build, so build one per distinct dimension up front, serially.
    let mut plans: HashMap<u32, Arc<Theorem1Plan>> = HashMap::new();
    for &n in ns {
        plans.entry(n).or_insert_with(|| Arc::new(Theorem1Plan::new(n).expect("theorem 1 plan")));
    }

    let mut sweep = Sweep::new("e18_scale", master_seed);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let out = sweep.run(e18_grid(ns), move |pt, rng| {
        let plan = &plans[&pt.n];
        let gray = GrayCycleBundles::new(pt.n);
        let w = plan.claimed_width();
        let k_half = (w as usize).div_ceil(2);
        // One seed per 64-trial block, drawn serially from the point's
        // stream; block tallies are popcounts folded by u32 addition,
        // which commutes, so worker count cannot change the totals.
        let mut counts = [0u32; 3];
        let mut remaining = trials;
        while remaining > 0 {
            let lanes = remaining.min(64);
            remaining -= lanes;
            let block = IndexedTrials::new(rng.random(), pt.p, lanes);
            let g = streamed_all_bundles_ge(&gray, &block, &[1]);
            let s = streamed_all_bundles_ge(plan.as_ref(), &block, &[1, k_half]);
            counts[0] += g[0].count_ones();
            counts[1] += s[0].count_ones();
            counts[2] += s[1].count_ones();
        }
        let frac = |ok: u32| f64::from(ok) / f64::from(trials);
        Json::object([
            ("width", w.to_json()),
            ("trials", trials.to_json()),
            ("gray_w1", frac(counts[0]).to_json()),
            ("struct_k1", frac(counts[1]).to_json()),
            ("struct_k_half", frac(counts[2]).to_json()),
        ])
    });
    let mut t = Table::new(&["n", "p(link fail)", "gray (w=1)", "struct k=1", "struct k=⌈w/2⌉"]);
    for rec in &out.records {
        t.row(vec![
            fetch(&rec.params, "n").to_string(),
            format!("{}", fetch_f(&rec.params, "p")),
            format!("{:.3}", fetch_f(&rec.result, "gray_w1")),
            format!("{:.3}", fetch_f(&rec.result, "struct_k1")),
            format!("{:.3}", fetch_f(&rec.result, "struct_k_half")),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E19 — multi-tenant saturation on the shared implicit host.
// ---------------------------------------------------------------------------

/// One E19 grid point: how many tenants share the host.
#[derive(Debug, Clone, Copy)]
pub struct TenantPoint {
    /// Concurrent tenants.
    pub tenants: u32,
}

impl ToJson for TenantPoint {
    fn to_json(&self) -> Json {
        Json::object([("tenants", self.tenants.to_json())])
    }
}

/// The default E19 grid.
pub fn e19_grid(counts: &[u32]) -> Vec<TenantPoint> {
    counts.iter().map(|&tenants| TenantPoint { tenants }).collect()
}

/// E19 host dimension: `Q_20` (1M nodes), shared implicitly.
pub const E19_HOST_DIMS: u32 = 20;
/// E19 tenant subcube dimension: every guest plan lives in a `Q_8` window.
pub const E19_TENANT_DIMS: u32 = 8;
/// E19 per-link width capacity.
pub const E19_CAPACITY: u32 = 2;

/// The E19 tenant roster for a given count: tenant `i` gets window
/// `i % 4` (so counts above 4 deliberately pile tenants into shared
/// windows and drive the ledger toward saturation) and a guest kind
/// cycling through all four implicit plans — Theorem 1 cycle, Theorem 2
/// load-2 cycle, Gray-coded grid, binomial spanning tree.
pub fn e19_specs(count: u32) -> Vec<TenantSpec> {
    let m = E19_TENANT_DIMS;
    let t1: Arc<dyn TenantPlan> = Arc::new(Theorem1Plan::new(m).expect("theorem 1 plan"));
    let t2: Arc<dyn TenantPlan> = Arc::new(Theorem2Plan::new(m, false).expect("theorem 2 plan"));
    let grid: Arc<dyn TenantPlan> =
        Arc::new(GridPlan::new(m, m / 2, m / 2, m / 2).expect("grid plan"));
    let tree: Arc<dyn TenantPlan> = Arc::new(BinomialTreePlan::new(m, m / 2).expect("tree plan"));
    (0..count)
        .map(|i| {
            let (kind, plan) = match i % 4 {
                0 => ("t1cycle", Arc::clone(&t1)),
                1 => ("t2cycle", Arc::clone(&t2)),
                2 => ("grid", Arc::clone(&grid)),
                _ => ("tree", Arc::clone(&tree)),
            };
            TenantSpec { id: i, name: format!("{kind}-{i}"), window: u64::from(i % 4), plan }
        })
        .collect()
}

/// E19: sweeps the tenant count to saturation on a shared implicit `Q_20`
/// host. Each point runs the full multi-tenant engine — ledger admission
/// at capacity [`E19_CAPACITY`], congestion-aware path-subset selection
/// down to the IDA threshold, batched phases executed exactly on the
/// packet engine per `Q_8` window group — and reports aggregate
/// throughput, Jain's fairness index, and the measured max cumulative
/// link congestion against the averaging lower bound of
/// `hyperpath_core::bounds::congestion_lower_bound`, with the gap as its
/// own column.
///
/// Each point's engine seed is drawn from the point's own ChaCha stream
/// and the engine itself is sequential and keyed by tenant id, so the
/// artifact is byte-identical at any worker count (CI's determinism
/// manifest compares runs at 1, 2, 3 and 4 workers).
///
/// The fail-stop fast path deliberately does **not** apply here: E19's
/// load-bearing columns (steps, throughput, congestion) are machine
/// telemetry — exactly what the outcome projection drops — so every
/// admitted phase genuinely runs on the engine (see DESIGN.md §6.15 on
/// fast-path eligibility).
pub fn e19_saturation(counts: &[u32], master_seed: u64) -> (Table, SweepOutput) {
    e19_saturation_with_threads(counts, master_seed, None)
}

/// [`e19_saturation`] with a pinned worker count (for the byte-identity
/// tests).
pub fn e19_saturation_with_threads(
    counts: &[u32],
    master_seed: u64,
    threads: Option<usize>,
) -> (Table, SweepOutput) {
    use rand::RngExt;

    let mut sweep = Sweep::new("e19_saturation", master_seed);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let out = sweep.run(e19_grid(counts), |pt, rng| {
        let cfg = TenantsConfig {
            host_dims: E19_HOST_DIMS,
            capacity: E19_CAPACITY,
            rounds: 4,
            requests_per_round: 12,
            max_requeues: 2,
            seed: rng.random(),
            exec: ExecMode::Packet,
        };
        let report = run_tenants(&cfg, &e19_specs(pt.tenants)).expect("e19 config is valid");
        let sum =
            |f: fn(&FlowStats) -> u64| -> u64 { report.tenants.iter().map(|t| f(&t.stats)).sum() };
        Json::object([
            ("requested", sum(|s| s.requested).to_json()),
            ("full", sum(|s| s.full).to_json()),
            ("degraded", sum(|s| s.degraded).to_json()),
            ("lost", sum(|s| s.lost).to_json()),
            ("delivered", report.delivered_messages().to_json()),
            ("steps", report.total_steps.to_json()),
            ("throughput", report.aggregate_throughput().to_json()),
            ("jain", report.jain_fairness().to_json()),
            ("congestion", report.measured_congestion().to_json()),
            ("bound", report.congestion_bound().to_json()),
            ("gap", report.congestion_gap().to_json()),
            ("links_touched", (report.ledger.links_touched as u64).to_json()),
        ])
    });
    let mut t = Table::new(&[
        "tenants",
        "requested",
        "full",
        "degraded",
        "lost",
        "tput",
        "jain",
        "cong",
        "bound",
        "gap",
    ]);
    for rec in &out.records {
        t.row(vec![
            fetch(&rec.params, "tenants").to_string(),
            fetch(&rec.result, "requested").to_string(),
            fetch(&rec.result, "full").to_string(),
            fetch(&rec.result, "degraded").to_string(),
            fetch(&rec.result, "lost").to_string(),
            format!("{:.4}", fetch_f(&rec.result, "throughput")),
            format!("{:.4}", fetch_f(&rec.result, "jain")),
            fetch(&rec.result, "congestion").to_string(),
            fetch(&rec.result, "bound").to_string(),
            fetch(&rec.result, "gap").to_string(),
        ]);
    }
    (t, out)
}

/// The E12 preamble demo: runs (5,3)-IDA end to end and returns the line
/// the binary prints. Panics if reconstruction fails.
pub fn ida_sanity_line() -> String {
    let ida = Ida::new(5, 3);
    let msg = b"multiple paths tolerate faults";
    let shares = ida.disperse(msg);
    let rec = ida.reconstruct(&shares[2..]).expect("any k shares reconstruct");
    assert_eq!(rec, msg);
    format!(
        "IDA(5,3) sanity: {} bytes -> 5 shares x {} bytes; reconstructed from shares 2..5: ok",
        msg.len(),
        shares[0].data.len()
    )
}

// ---------------------------------------------------------------------------
// E16 — oracle-free adaptive delivery vs the omniscient oracle.
// ---------------------------------------------------------------------------

/// One E16 grid point: host dimension and adversary regime.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePoint {
    /// Hypercube dimension.
    pub n: u32,
    /// `true` → static fail-stop plans (cuts only); `false` → the full
    /// dynamic adversary (outages, bursts, node storms, corruption).
    pub static_plans: bool,
}

impl ToJson for AdaptivePoint {
    fn to_json(&self) -> Json {
        Json::object([("n", self.n.to_json()), ("static_plans", self.static_plans.to_json())])
    }
}

/// The default E16 grid: both adversary regimes per dimension.
pub fn e16_grid(ns: &[u32]) -> Vec<AdaptivePoint> {
    ns.iter().flat_map(|&n| [true, false].map(|s| AdaptivePoint { n, static_plans: s })).collect()
}

/// E16: the oracle-free adaptive protocol
/// ([`deliver_adaptive`](hyperpath_sim::protocol::deliver_adaptive))
/// against the omniscient oracle
/// ([`deliver_phase_plan`](hyperpath_sim::delivery::deliver_phase_plan)):
/// one dispersal loop under its two knowledge policies, with the
/// dispersal of both hoisted into one shared [`AdaptiveSetup`], run
/// against the *same* randomized [`FaultPlan`](hyperpath_sim::FaultPlan)
/// draw per trial.
///
/// The oracle's retry planner reads the fault plan's hazard set directly;
/// the adaptive sender sees only per-round ACK/NACK feedback on keyed
/// tagged shares. Against a **static fail-stop** adversary the oracle's
/// knowledge buys nothing — `equal_outcomes` must be 1.0, pinned by
/// `tests/adaptive_conformance.rs`. Against the **dynamic** adversary the
/// two legitimately diverge (the oracle writes off briefly-down links
/// permanently; the adaptive sender re-probes them).
///
/// The oracle side goes through
/// [`deliver_phase_plan_outcome`]: on the static fail-stop regime (half
/// the grid) every plan is detected as static and the oracle grade is
/// evaluated in closed form from path survival, skipping the packet
/// engine; the dynamic regime falls back to the engine. The adaptive
/// sender always runs the machine — it is the thing being measured.
pub fn e16_adaptive(ns: &[u32], trials: u32, master_seed: u64) -> (Table, SweepOutput) {
    e16_adaptive_with_threads(ns, trials, master_seed, None)
}

/// [`e16_adaptive`] with a pinned worker count (the determinism tests run
/// the same sweep on 1 and 4 workers and require byte-identical JSON).
pub fn e16_adaptive_with_threads(
    ns: &[u32],
    trials: u32,
    master_seed: u64,
    threads: Option<usize>,
) -> (Table, SweepOutput) {
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rayon::prelude::*;

    let mut sweep = Sweep::new("e16_adaptive", master_seed);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let out = sweep.run(e16_grid(ns), move |p, rng| {
        let t1 = theorem1(p.n).expect("theorem 1");
        let e = &t1.embedding;
        let k_half = t1.claimed_width.div_ceil(2);
        let dcfg = DeliveryConfig { threshold: k_half, max_retries: 2, message_len: 32 };
        // Hoisted out of the trial loop: dispersal is fault- and
        // key-independent, and both senders share it.
        let setup = AdaptiveSetup::new(e, &dcfg);
        // One seed per trial drawn serially from the point's stream (the
        // byte-stability across worker counts rests on this).
        let seeds: Vec<u64> = (0..trials).map(|_| rng.random()).collect();
        let per_trial: Vec<[u64; 6]> = seeds
            .par_iter()
            .map(|&seed| {
                let mut trial_rng = ChaCha8Rng::seed_from_u64(seed);
                let plan = random_plan(&e.host, p.static_plans, &mut trial_rng);
                let key: u64 = trial_rng.random();
                let oracle = deliver_phase_plan_outcome(&setup, &plan);
                let adaptive =
                    deliver_adaptive_prepared(&setup, key, &mut PlanNetwork::new(e, &plan));
                [
                    u64::from(oracle.all_delivered()),
                    u64::from(adaptive.all_delivered()),
                    u64::from(
                        (adaptive.delivered, adaptive.degraded, adaptive.lost)
                            == (oracle.delivered, oracle.degraded, oracle.lost),
                    ),
                    adaptive.rejected_shares,
                    adaptive.shares_resent,
                    adaptive.wrong_reconstructions,
                ]
            })
            .collect();
        let totals = per_trial.iter().fold([0u64; 6], |mut acc, t| {
            for (a, &v) in acc.iter_mut().zip(t) {
                *a += v;
            }
            acc
        });
        let frac = |ok: u64| ok as f64 / f64::from(trials);
        Json::object([
            ("trials", trials.to_json()),
            ("oracle_ok", frac(totals[0]).to_json()),
            ("adaptive_ok", frac(totals[1]).to_json()),
            ("equal_outcomes", frac(totals[2]).to_json()),
            ("rejected_shares", totals[3].to_json()),
            ("shares_resent", totals[4].to_json()),
            ("wrong_reconstructions", totals[5].to_json()),
        ])
    });
    let mut t = Table::new(&[
        "n",
        "adversary",
        "oracle ok",
        "adaptive ok",
        "equal outcomes",
        "rejected",
        "wrong bytes",
    ]);
    for rec in &out.records {
        let is_static =
            rec.params.get("static_plans").and_then(Json::as_bool).expect("record field");
        t.row(vec![
            fetch(&rec.params, "n").to_string(),
            if is_static { "static fail-stop" } else { "dynamic" }.to_string(),
            format!("{:.3}", fetch_f(&rec.result, "oracle_ok")),
            format!("{:.3}", fetch_f(&rec.result, "adaptive_ok")),
            format!("{:.3}", fetch_f(&rec.result, "equal_outcomes")),
            fetch(&rec.result, "rejected_shares").to_string(),
            fetch(&rec.result, "wrong_reconstructions").to_string(),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E2 / E7 — deterministic construction tables (golden-tested).
// ---------------------------------------------------------------------------

/// E2: the Theorem 1 summary table over the given dimensions.
pub fn theorem1_table(ns: impl IntoIterator<Item = u32>) -> Table {
    let mut t = Table::new(&[
        "n",
        "claimed width",
        "packets",
        "certified cost",
        "natural?",
        "load",
        "dilation",
        "valid",
    ]);
    for n in ns {
        let r = theorem1(n).expect("construction");
        let ok = validate_multi_path(&r.embedding, r.claimed_width, Some(1)).is_ok();
        let m = multi_path_metrics(&r.embedding);
        t.row(vec![
            n.to_string(),
            r.claimed_width.to_string(),
            r.packets.to_string(),
            r.cost.to_string(),
            if r.natural_schedule_ok { "yes".into() } else { "no (aligned)".into() },
            m.load.to_string(),
            m.dilation.to_string(),
            ok.to_string(),
        ]);
    }
    t
}

/// E7: the Theorem 3 CCC-copies table (all three window strategies; for
/// `n ≥ 16` only the Theorem 3 strategy, to keep the big ablations short).
pub fn ccc_copies_table(ns: &[u32]) -> Table {
    let mut t =
        Table::new(&["n", "strategy", "copies", "dilation", "edge congestion", "n/r", "valid"]);
    for &n in ns {
        let r = n.trailing_zeros();
        for (strat, name) in [
            (WindowStrategy::Overlapping, "overlapping (Thm 3)"),
            (WindowStrategy::SameForAll, "same windows"),
            (WindowStrategy::Disjoint, "disjoint windows"),
        ] {
            if n >= 16 && strat != WindowStrategy::Overlapping {
                continue;
            }
            let c = ccc_multi_copy_with(n, strat).expect("construction");
            let ok = validate_multi_copy(&c.multi_copy).is_ok();
            let m = multi_copy_metrics(&c.multi_copy);
            t.row(vec![
                n.to_string(),
                name.into(),
                c.multi_copy.num_copies().to_string(),
                m.dilation.to_string(),
                m.edge_congestion.to_string(),
                (n / r).to_string(),
                ok.to_string(),
            ]);
        }
    }
    t
}

/// E7, second table: the Section 5.4 butterfly-copy transfer.
pub fn butterfly_copies_table(ns: &[u32]) -> Table {
    let mut t = Table::new(&["n", "copies", "dilation", "edge congestion"]);
    for &n in ns {
        let mc = butterfly_multi_copy(n).expect("construction");
        let m = multi_copy_metrics(&mc);
        t.row(vec![
            n.to_string(),
            mc.num_copies().to_string(),
            m.dilation.to_string(),
            m.edge_congestion.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E21 — chaos-hardened multi-tenant service under random fault plans.
// ---------------------------------------------------------------------------

/// One E21 grid point: link-cut probability × tenants sharing the host.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTenantPoint {
    /// Probability each undirected host link is permanently cut.
    pub fault_rate: f64,
    /// Concurrent tenants.
    pub tenants: u32,
}

impl ToJson for ChaosTenantPoint {
    fn to_json(&self) -> Json {
        Json::object([("p", self.fault_rate.to_json()), ("tenants", self.tenants.to_json())])
    }
}

/// The default E21 grid: fault rates × tenant counts, row-major.
pub fn e21_grid(rates: &[f64], counts: &[u32]) -> Vec<ChaosTenantPoint> {
    rates
        .iter()
        .flat_map(|&fault_rate| {
            counts.iter().map(move |&tenants| ChaosTenantPoint { fault_rate, tenants })
        })
        .collect()
}

/// E21 host dimension: `Q_10` (1024 nodes, 5120 undirected links — big
/// enough for meaningful fault rates, small enough that every grid point
/// draws its plan by sweeping the links).
pub const E21_HOST_DIMS: u32 = 10;
/// E21 tenant subcube dimension: every guest lives in a `Q_4` window.
pub const E21_TENANT_DIMS: u32 = 4;
/// E21 per-link width capacity (same contention regime as E19).
pub const E21_CAPACITY: u32 = 2;

/// The E21 roster: grid and binomial-tree guests alternating, tenant `i`
/// at window `i % 4` so counts above 4 contend inside shared windows.
pub fn e21_specs(count: u32) -> Vec<TenantSpec> {
    let m = E21_TENANT_DIMS;
    let grid: Arc<dyn TenantPlan> =
        Arc::new(GridPlan::new(m, m / 2, m / 2, m - 1).expect("e21 grid plan"));
    let tree: Arc<dyn TenantPlan> =
        Arc::new(BinomialTreePlan::new(m, m - 1).expect("e21 tree plan"));
    (0..count)
        .map(|i| {
            let (kind, plan) = if i.is_multiple_of(2) {
                ("grid", Arc::clone(&grid))
            } else {
                ("tree", Arc::clone(&tree))
            };
            TenantSpec { id: i, name: format!("{kind}-{i}"), window: u64::from(i % 4), plan }
        })
        .collect()
}

/// Draws a static fail-stop [`TenantFaultPlan`] cutting each undirected
/// host link independently with probability `p`.
fn e21_plan(host_dims: u32, p: f64, rng: &mut rand_chacha::ChaCha8Rng) -> TenantFaultPlan {
    use rand::RngExt;
    let n = u64::from(host_dims);
    let mut plan = TenantFaultPlan::none();
    for base in 0..(1u64 << host_dims) {
        for d in 0..host_dims {
            if (base >> d) & 1 == 0 && rng.random_bool(p) {
                plan.cut_link(base * n + u64::from(d));
            }
        }
    }
    plan
}

/// E21: the robustness sweep — random link-cut plans at rate `p` against
/// `tenants` concurrent guests, run through the fault-aware engine with
/// ledger-learned quarantine ([`FaultRouting::Learned`]). Columns report
/// delivery, the retry-with-backoff queue's recoveries (with mean
/// rounds-to-recover), losses, throughput, Jain fairness, and how many
/// links the ledger quarantined. Delivery degrades monotonically down
/// the fault-rate axis while recovery and quarantine climb — the
/// measured shape of the paper's fault-tolerance claim under multi-
/// tenancy.
///
/// Deterministic: each grid point draws its plan and engine seed from
/// its own ChaCha stream, so the artifact is byte-identical at any
/// worker count (CI's determinism manifest compares runs at 1, 2, 3 and
/// 4 workers).
pub fn e21_chaos_tenants(rates: &[f64], counts: &[u32], master_seed: u64) -> (Table, SweepOutput) {
    e21_chaos_tenants_with_threads(rates, counts, master_seed, None)
}

/// [`e21_chaos_tenants`] with a pinned worker count (for the
/// byte-identity tests).
pub fn e21_chaos_tenants_with_threads(
    rates: &[f64],
    counts: &[u32],
    master_seed: u64,
    threads: Option<usize>,
) -> (Table, SweepOutput) {
    use rand::RngExt;

    let mut sweep = Sweep::new("e21_chaos_tenants", master_seed);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let out = sweep.run(e21_grid(rates, counts), |pt, rng| {
        let plan = e21_plan(E21_HOST_DIMS, pt.fault_rate, rng);
        let cfg = TenantsConfig {
            host_dims: E21_HOST_DIMS,
            capacity: E21_CAPACITY,
            rounds: 6,
            requests_per_round: 6,
            max_requeues: 3,
            seed: rng.random(),
            exec: ExecMode::Packet,
        };
        let report =
            run_tenants_planned(&cfg, &e21_specs(pt.tenants), &plan, FaultRouting::Learned)
                .expect("e21 config is valid");
        let sum =
            |f: fn(&FlowStats) -> u64| -> u64 { report.tenants.iter().map(|t| f(&t.stats)).sum() };
        let recovered = sum(|s| s.recovered);
        let recovery_rounds = sum(|s| s.recovery_rounds);
        let mean_recover =
            if recovered == 0 { 0.0 } else { recovery_rounds as f64 / recovered as f64 };
        Json::object([
            ("cuts", (plan.cut_count() as u64).to_json()),
            ("requested", sum(|s| s.requested).to_json()),
            ("full", sum(|s| s.full).to_json()),
            ("degraded", sum(|s| s.degraded).to_json()),
            ("delivered", report.delivered_messages().to_json()),
            ("recovered", recovered.to_json()),
            ("lost", sum(|s| s.lost).to_json()),
            ("requeues", sum(|s| s.requeues).to_json()),
            ("shares_lost", sum(|s| s.shares_lost).to_json()),
            ("steps", report.total_steps.to_json()),
            ("throughput", report.aggregate_throughput().to_json()),
            ("jain", report.jain_fairness().to_json()),
            ("mean_rounds_to_recover", mean_recover.to_json()),
            ("quarantined", (report.ledger.quarantined_links as u64).to_json()),
        ])
    });
    let mut t = Table::new(&[
        "p",
        "tenants",
        "cuts",
        "requested",
        "delivered",
        "recovered",
        "lost",
        "tput",
        "jain",
        "recover",
        "quar",
    ]);
    for rec in &out.records {
        t.row(vec![
            format!("{}", fetch_f(&rec.params, "p")),
            fetch(&rec.params, "tenants").to_string(),
            fetch(&rec.result, "cuts").to_string(),
            fetch(&rec.result, "requested").to_string(),
            fetch(&rec.result, "delivered").to_string(),
            fetch(&rec.result, "recovered").to_string(),
            fetch(&rec.result, "lost").to_string(),
            format!("{:.4}", fetch_f(&rec.result, "throughput")),
            format!("{:.4}", fetch_f(&rec.result, "jain")),
            format!("{:.2}", fetch_f(&rec.result, "mean_rounds_to_recover")),
            fetch(&rec.result, "quarantined").to_string(),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// E22 — thread scaling of the group-parallel tenant engine.
// ---------------------------------------------------------------------------

/// E22 host dimension: `Q_16` — the four occupied `Q_8` windows give the
/// pooled engine four disjoint group phases to fan out per round.
pub const E22_HOST_DIMS: u32 = 16;
/// E22 tenant count: [`e19_specs`] windows cycle mod 4, so 8 tenants put
/// two guests in every window.
pub const E22_TENANTS: u32 = 8;
/// The default E22 thread axis.
pub const E22_THREADS: [usize; 4] = [1, 2, 4, 8];

/// E22: wall-clock scaling of the pooled tenant engine's round-parallel
/// group phases. One fixed workload — [`E22_TENANTS`] guests from the
/// [`e19_specs`] roster across the four `Q_8` windows of a `Q_16` host —
/// runs to completion under a pinned worker pool per requested thread
/// count. Columns report the median wall time, the speedup over the
/// dedicated single-thread baseline, and the load-bearing determinism
/// claim: every report is byte-identical to the serial one (`identical`
/// column — also asserted, so the binary aborts rather than print
/// timings that describe divergent runs).
///
/// Wall times and speedups are machine telemetry, so the E22 artifact is
/// for plots, not CI byte-comparison — CI's determinism manifest pins the
/// identity claim through the e19/e21 artifacts instead.
pub fn e22_thread_scaling(thread_counts: &[usize], master_seed: u64) -> (Table, SweepOutput) {
    use rand::{RngExt, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(master_seed);
    // Heavy phases on purpose: each group's round must carry enough
    // simulated traffic to dominate the per-round worker hand-off — a
    // light workload here would measure overhead, not the engine.
    // 64-flit worms put the weight in the phases.
    let cfg = TenantsConfig {
        host_dims: E22_HOST_DIMS,
        capacity: 4,
        rounds: 6,
        requests_per_round: 96,
        max_requeues: 2,
        seed: rng.random(),
        exec: ExecMode::Wormhole { flits: 64 },
    };
    let engine = TenantEngine::new(cfg, &e19_specs(E22_TENANTS)).expect("e22 config is valid");
    let groups = engine.num_groups() as u64;

    let time_in = |threads: usize| -> (EngineReport, u64) {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
        let report = pool.install(|| engine.run());
        let wall_ns = crate::measure::median_wall_ns(1, 3, || pool.install(|| engine.run()));
        (report, wall_ns)
    };
    let (serial_report, serial_ns) = time_in(1);

    let mut records = Vec::new();
    for (index, &threads) in thread_counts.iter().enumerate() {
        let (report, wall_ns) = time_in(threads);
        let identical = report == serial_report;
        assert!(identical, "e22: report at {threads} threads diverged from the serial run");
        let speedup = serial_ns as f64 / wall_ns.max(1) as f64;
        records.push(crate::sweep::SweepRecord {
            index,
            params: Json::object([("threads", (threads as u64).to_json())]),
            result: Json::object([
                ("groups", groups.to_json()),
                ("wall_ns", wall_ns.to_json()),
                ("speedup", speedup.to_json()),
                ("identical", u64::from(identical).to_json()),
                ("delivered", report.delivered_messages().to_json()),
                ("steps", report.total_steps.to_json()),
            ]),
        });
    }
    let out = SweepOutput { experiment: "e22_thread_scaling".to_string(), master_seed, records };

    let mut t = Table::new(&["threads", "groups", "wall ms", "speedup", "identical"]);
    for rec in &out.records {
        t.row(vec![
            fetch(&rec.params, "threads").to_string(),
            fetch(&rec.result, "groups").to_string(),
            format!("{:.3}", fetch(&rec.result, "wall_ns") as f64 / 1e6),
            format!("{:.2}x", fetch_f(&rec.result, "speedup")),
            if fetch(&rec.result, "identical") == 1 { "yes" } else { "NO" }.to_string(),
        ]);
    }
    (t, out)
}

// ---------------------------------------------------------------------------
// Shared CLI plumbing for the `e*` binaries.
// ---------------------------------------------------------------------------

/// Options common to the experiment binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliOpts {
    /// `--json [PATH]`: write the sweep artifact (to PATH, or the default
    /// `BENCH_<EXPERIMENT>.json` when no path follows the flag).
    pub json: Option<Option<std::path::PathBuf>>,
    /// `--trials N` (Monte-Carlo / chaos binaries): trials per grid point.
    pub trials: Option<u32>,
    /// `--dims N[,N...]` (dimension-sweep binaries): dimensions to sweep.
    pub dims: Option<Vec<u32>>,
    /// `--seed N` (seed-pinned harnesses): master seed override.
    pub seed: Option<u64>,
    /// `--tenants` (`chaos_soak` only): run the multi-tenant chaos mode.
    pub tenants: bool,
    /// `--threads N` (tenant sweep binaries): worker-thread count for the
    /// round-parallel group phases. Output is byte-identical at any value.
    pub threads: Option<usize>,
}

/// Which optional flags a binary accepts. Flags a binary does not accept
/// are *rejected* at parse time (exit 2 with usage) rather than silently
/// ignored — every binary routes through [`try_parse_cli_for`] so a typo
/// can never panic deep inside a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliAccepts {
    /// `--trials N`.
    pub trials: bool,
    /// `--dims N[,N...]`.
    pub dims: bool,
    /// `--seed N`.
    pub seed: bool,
    /// `--tenants`.
    pub tenants: bool,
    /// `--threads N`.
    pub threads: bool,
}

/// The usage line for an experiment binary.
pub fn cli_usage(accepts_trials: bool) -> String {
    cli_usage_with(accepts_trials, false)
}

/// The usage line for an experiment binary, including `--dims` when the
/// binary sweeps a selectable dimension list.
pub fn cli_usage_with(accepts_trials: bool, accepts_dims: bool) -> String {
    cli_usage_for(CliAccepts {
        trials: accepts_trials,
        dims: accepts_dims,
        ..CliAccepts::default()
    })
}

/// The usage line for a binary accepting exactly the flags in `accepts`.
pub fn cli_usage_for(accepts: CliAccepts) -> String {
    let mut usage = String::from("usage: <experiment> [--json [PATH]]");
    if accepts.trials {
        usage.push_str(" [--trials N]");
    }
    if accepts.dims {
        usage.push_str(" [--dims N[,N...]]");
    }
    if accepts.seed {
        usage.push_str(" [--seed N]");
    }
    if accepts.tenants {
        usage.push_str(" [--tenants]");
    }
    if accepts.threads {
        usage.push_str(" [--threads N]");
    }
    usage
}

/// Parses an experiment-binary command line. `accepts_trials` is true only
/// for the Monte-Carlo binaries (E12/E18); everywhere else `--trials`
/// would silently do nothing, so it is rejected.
pub fn try_parse_cli(
    args: impl IntoIterator<Item = String>,
    accepts_trials: bool,
) -> Result<CliOpts, String> {
    try_parse_cli_with(args, accepts_trials, false)
}

/// [`try_parse_cli`] plus (when `accepts_dims`) the `--dims N[,N...]`
/// dimension-list flag used by the fault-sweep binaries.
pub fn try_parse_cli_with(
    args: impl IntoIterator<Item = String>,
    accepts_trials: bool,
    accepts_dims: bool,
) -> Result<CliOpts, String> {
    try_parse_cli_for(
        args,
        CliAccepts { trials: accepts_trials, dims: accepts_dims, ..CliAccepts::default() },
    )
}

/// The one real parser behind every experiment binary: accepts exactly
/// the flags named by `accepts` and rejects everything else with a
/// message (the `parse_cli*` wrappers turn that into exit 2 + usage).
pub fn try_parse_cli_for(
    args: impl IntoIterator<Item = String>,
    accepts: CliAccepts,
) -> Result<CliOpts, String> {
    let mut opts = CliOpts::default();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with("--") => {
                        Some(std::path::PathBuf::from(it.next().unwrap()))
                    }
                    _ => None,
                };
                opts.json = Some(path);
            }
            "--trials" if accepts.trials => {
                let n = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u32| n > 0)
                    .ok_or_else(|| "--trials requires a positive integer".to_string())?;
                opts.trials = Some(n);
            }
            "--trials" => {
                return Err(
                    "--trials is only meaningful for the Monte-Carlo experiments (e12)".to_string()
                )
            }
            "--dims" if accepts.dims => {
                let list = it
                    .next()
                    .ok_or_else(|| "--dims requires a comma-separated list".to_string())?;
                let dims = list
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| {
                        let n = s
                            .trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad dimension {s:?} in --dims"))?;
                        if n == 0 {
                            return Err(format!("bad dimension {s:?} in --dims (must be >= 1)"));
                        }
                        if n > hyperpath_topology::MAX_DIMS {
                            return Err(format!(
                                "dimension {n} in --dims exceeds MAX_DIMS={}",
                                hyperpath_topology::MAX_DIMS
                            ));
                        }
                        Ok(n)
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
                if dims.is_empty() {
                    return Err(format!("--dims list {list:?} names no dimensions"));
                }
                opts.dims = Some(dims);
            }
            "--dims" => {
                return Err("--dims is only meaningful for the fault-sweep experiments (e12, e18)"
                    .to_string())
            }
            "--seed" if accepts.seed => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| "--seed requires an unsigned integer".to_string())?;
                opts.seed = Some(n);
            }
            "--seed" => {
                return Err("--seed is only meaningful for the seed-pinned harnesses \
                            (chaos_soak, e19, e21)"
                    .to_string())
            }
            "--tenants" if accepts.tenants => opts.tenants = true,
            "--tenants" => {
                return Err("--tenants is only meaningful for chaos_soak".to_string());
            }
            "--threads" if accepts.threads => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--threads requires a positive integer".to_string())?;
                opts.threads = Some(n);
            }
            "--threads" => {
                return Err("--threads is only meaningful for the tenant sweep binaries \
                            (e19, e21, e22, chaos_soak)"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Parses `std::env::args()` for an experiment binary; on bad usage prints
/// the error plus a usage line to stderr and exits with status 2.
pub fn parse_cli(accepts_trials: bool) -> CliOpts {
    parse_cli_with(accepts_trials, false)
}

/// [`parse_cli`] for binaries that also sweep a selectable dimension list.
pub fn parse_cli_with(accepts_trials: bool, accepts_dims: bool) -> CliOpts {
    parse_cli_for(CliAccepts {
        trials: accepts_trials,
        dims: accepts_dims,
        ..CliAccepts::default()
    })
}

/// [`parse_cli`] for a binary accepting exactly the flags in `accepts`.
pub fn parse_cli_for(accepts: CliAccepts) -> CliOpts {
    match try_parse_cli_for(std::env::args().skip(1), accepts) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", cli_usage_for(accepts));
            std::process::exit(2);
        }
    }
}

/// Re-shapes rendered [`Table`]s into a [`SweepOutput`] so the table-only
/// experiment binaries (E2-E9, E11, E13-E15) emit `BENCH_*.json` artifacts
/// through the same [`maybe_write_json`] path as the sweep-shaped ones.
/// Each table row becomes one record: params identify `{table, row}`, the
/// result maps column header → rendered cell.
pub fn tables_output(experiment: &str, tables: &[(&str, &Table)]) -> SweepOutput {
    let mut records = Vec::new();
    for (name, table) in tables {
        for (row_idx, row) in table.rows().iter().enumerate() {
            let index = records.len();
            records.push(crate::sweep::SweepRecord {
                index,
                params: Json::object([("table", (*name).to_json()), ("row", row_idx.to_json())]),
                result: Json::Object(
                    table
                        .header()
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), c.as_str().to_json()))
                        .collect(),
                ),
            });
        }
    }
    SweepOutput { experiment: experiment.to_string(), master_seed: 0, records }
}

/// Writes the sweep artifact if `--json` was given; prints where it went.
pub fn maybe_write_json(out: &SweepOutput, opts: &CliOpts) {
    if let Some(path) = &opts.json {
        let path = match path {
            Some(p) => {
                out.write_to(p).expect("write JSON artifact");
                p.clone()
            }
            None => out.write_default().expect("write JSON artifact"),
        };
        println!("\nwrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_adversarial_permutations_are_involutions() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        for d in [6u32, 11] {
            let host = hyperpath_topology::Hypercube::new(d);
            for p in [Permutation::BitReversal, Permutation::Transpose] {
                let perm = p.destinations(&host, &mut rng);
                for (x, &y) in perm.iter().enumerate() {
                    assert_eq!(perm[y as usize], x as u64, "{p:?} on Q_{d}");
                }
            }
            let transpose = Permutation::Transpose.destinations(&host, &mut rng);
            assert_eq!(transpose[0b10], 0b10 << (d / 2), "low half moves up");
            assert_eq!(
                transpose[1 << (d - 1)] >> (d - 1),
                u64::from(d % 2),
                "only an odd d keeps its top bit"
            );
        }
    }

    #[test]
    fn cli_parses_json_and_trials() {
        assert_eq!(try_parse_cli(Vec::new(), false), Ok(CliOpts::default()));
        let o = try_parse_cli(["--json".to_string()], false).unwrap();
        assert_eq!(o.json, Some(None));
        let o = try_parse_cli(["--json".to_string(), "out.json".to_string()], false).unwrap();
        assert_eq!(o.json, Some(Some("out.json".into())));
        let o =
            try_parse_cli(["--trials".to_string(), "50".to_string(), "--json".to_string()], true)
                .unwrap();
        assert_eq!(o.trials, Some(50));
        assert_eq!(o.json, Some(None));
    }

    #[test]
    fn cli_parses_dims_lists() {
        let o =
            try_parse_cli_with(["--dims".to_string(), "8,10,12".to_string()], true, true).unwrap();
        assert_eq!(o.dims, Some(vec![8, 10, 12]));
        let o = try_parse_cli_with(["--dims".to_string(), "20".to_string()], false, true).unwrap();
        assert_eq!(o.dims, Some(vec![20]));
        // Whitespace around commas is tolerated.
        let o =
            try_parse_cli_with(["--dims".to_string(), "4, 6".to_string()], false, true).unwrap();
        assert_eq!(o.dims, Some(vec![4, 6]));
        // The legacy entry points never accept --dims.
        assert_eq!(
            try_parse_cli(["--dims".to_string(), "8".to_string()], true).unwrap_err(),
            try_parse_cli_with(["--dims".to_string(), "8".to_string()], true, false).unwrap_err()
        );
    }

    #[test]
    fn cli_rejects_bad_usage_without_panicking() {
        assert!(try_parse_cli(["--frobnicate".to_string()], false).is_err());
        assert!(try_parse_cli(["--trials".to_string(), "0".to_string()], true).is_err());
        assert!(try_parse_cli(["--trials".to_string()], true).is_err());
        // --trials is meaningless outside the Monte-Carlo binaries.
        let e = try_parse_cli(["--trials".to_string(), "50".to_string()], false).unwrap_err();
        assert!(e.contains("only meaningful"), "{e}");
        // --dims is likewise rejected where it would silently do nothing.
        let e =
            try_parse_cli_with(["--dims".to_string(), "8".to_string()], true, false).unwrap_err();
        assert!(e.contains("only meaningful"), "{e}");
        // Malformed dimension lists.
        assert!(try_parse_cli_with(["--dims".to_string()], true, true).is_err());
        assert!(try_parse_cli_with(["--dims".to_string(), "".to_string()], true, true).is_err());
        assert!(try_parse_cli_with(["--dims".to_string(), "8,0".to_string()], true, true).is_err());
        assert!(try_parse_cli_with(["--dims".to_string(), "8,x".to_string()], true, true).is_err());
    }

    #[test]
    fn cli_rejects_out_of_range_and_empty_dims_lists() {
        // Regression: these used to parse and then panic (or OOM) deep in
        // the sweep — `Hypercube::new` asserts dims <= MAX_DIMS and dims
        // >= 1 long after the CLI handed the list over. They must be
        // caught at parse time so the binaries exit 2 with usage instead.
        let e =
            try_parse_cli_with(["--dims".to_string(), "0".to_string()], true, true).unwrap_err();
        assert!(e.contains("must be >= 1"), "{e}");
        let over = (hyperpath_topology::MAX_DIMS + 1).to_string();
        let e = try_parse_cli_with(["--dims".to_string(), over], true, true).unwrap_err();
        assert!(e.contains("exceeds MAX_DIMS"), "{e}");
        let e = try_parse_cli_with(["--dims".to_string(), "8,999".to_string()], true, true)
            .unwrap_err();
        assert!(e.contains("exceeds MAX_DIMS"), "{e}");
        // A separators-only list names nothing to sweep.
        let e =
            try_parse_cli_with(["--dims".to_string(), ",".to_string()], true, true).unwrap_err();
        assert!(e.contains("names no dimensions"), "{e}");
        let e =
            try_parse_cli_with(["--dims".to_string(), " , ,".to_string()], true, true).unwrap_err();
        assert!(e.contains("names no dimensions"), "{e}");
        // The boundary itself is fine, and stray separators are tolerated
        // as long as at least one dimension survives.
        let at = hyperpath_topology::MAX_DIMS.to_string();
        let o = try_parse_cli_with(["--dims".to_string(), at.clone()], true, true).unwrap();
        assert_eq!(o.dims, Some(vec![hyperpath_topology::MAX_DIMS]));
        let o = try_parse_cli_with(["--dims".to_string(), "8,".to_string()], true, true).unwrap();
        assert_eq!(o.dims, Some(vec![8]));
    }

    #[test]
    fn cli_parses_seed_and_tenants_where_accepted() {
        let all = CliAccepts { trials: true, dims: true, seed: true, tenants: true, threads: true };
        let o = try_parse_cli_for(["--seed".to_string(), "1990".to_string()], all).unwrap();
        assert_eq!(o.seed, Some(1990));
        assert!(!o.tenants);
        let o = try_parse_cli_for(["--tenants".to_string()], all).unwrap();
        assert!(o.tenants);
        let o = try_parse_cli_for(
            ["--tenants", "--seed", "7", "--trials", "3", "--dims", "6", "--json"]
                .map(String::from),
            all,
        )
        .unwrap();
        assert_eq!(
            (o.tenants, o.seed, o.trials, o.dims, o.json),
            (true, Some(7), Some(3), Some(vec![6]), Some(None))
        );
        // Usage lines advertise exactly the accepted flags.
        let u = cli_usage_for(all);
        for flag in ["--json", "--trials", "--dims", "--seed", "--tenants", "--threads"] {
            assert!(u.contains(flag), "{u} missing {flag}");
        }
        assert_eq!(cli_usage_for(CliAccepts::default()), "usage: <experiment> [--json [PATH]]");
    }

    #[test]
    fn cli_rejects_seed_and_tenants_where_not_accepted() {
        // The unified parser exits 2 with usage on these via parse_cli_for;
        // here we pin the error paths it reports.
        let e = try_parse_cli_for(["--seed".to_string(), "1".to_string()], CliAccepts::default())
            .unwrap_err();
        assert!(e.contains("only meaningful"), "{e}");
        let e = try_parse_cli_for(["--tenants".to_string()], CliAccepts::default()).unwrap_err();
        assert!(e.contains("only meaningful"), "{e}");
        let seedy = CliAccepts { seed: true, ..CliAccepts::default() };
        assert!(try_parse_cli_for(["--seed".to_string()], seedy).is_err());
        assert!(try_parse_cli_for(["--seed".to_string(), "x".to_string()], seedy).is_err());
        assert!(try_parse_cli_for(["--seed".to_string(), "-1".to_string()], seedy).is_err());
        // The legacy wrappers keep their exact behavior.
        assert_eq!(
            try_parse_cli_with(["--seed".to_string(), "1".to_string()], true, true).unwrap_err(),
            try_parse_cli_for(
                ["--seed".to_string(), "1".to_string()],
                CliAccepts { trials: true, dims: true, ..CliAccepts::default() }
            )
            .unwrap_err()
        );
    }

    #[test]
    fn cli_parses_threads_where_accepted_and_rejects_bad_values() {
        let threaded = CliAccepts { seed: true, threads: true, ..CliAccepts::default() };
        let o = try_parse_cli_for(["--threads".to_string(), "4".to_string()], threaded).unwrap();
        assert_eq!(o.threads, Some(4));
        let o = try_parse_cli_for(
            ["--seed", "1990", "--threads", "1", "--json"].map(String::from),
            threaded,
        )
        .unwrap();
        assert_eq!((o.seed, o.threads, o.json), (Some(1990), Some(1), Some(None)));
        // Zero, garbage, and a missing value are caught at parse time so
        // the binaries exit 2 with usage instead of installing a broken
        // pool deep inside a sweep.
        assert!(try_parse_cli_for(["--threads".to_string(), "0".to_string()], threaded).is_err());
        assert!(try_parse_cli_for(["--threads".to_string(), "x".to_string()], threaded).is_err());
        assert!(try_parse_cli_for(["--threads".to_string(), "-2".to_string()], threaded).is_err());
        assert!(try_parse_cli_for(["--threads".to_string()], threaded).is_err());
        // Rejected (not ignored) where the binary has no parallel phases.
        let e =
            try_parse_cli_for(["--threads".to_string(), "2".to_string()], CliAccepts::default())
                .unwrap_err();
        assert!(e.contains("only meaningful"), "{e}");
        // Usage advertises the flag exactly when accepted.
        assert!(cli_usage_for(threaded).contains("[--threads N]"));
        assert!(!cli_usage_for(CliAccepts::default()).contains("--threads"));
    }

    #[test]
    fn e21_sweep_is_deterministic_and_degrades_with_fault_rate() {
        let (_, a) = e21_chaos_tenants_with_threads(&[0.0, 0.05], &[2], 1990, Some(1));
        let (_, b) = e21_chaos_tenants_with_threads(&[0.0, 0.05], &[2], 1990, Some(3));
        assert_eq!(a.records, b.records, "E21 artifact must be byte-identical across threads");
        let delivered = |r: &crate::sweep::SweepRecord| fetch(&r.result, "delivered");
        assert!(delivered(&a.records[1]) <= delivered(&a.records[0]));
        assert_eq!(fetch(&a.records[0].result, "cuts"), 0);
        assert_eq!(fetch(&a.records[0].result, "quarantined"), 0);
        assert_eq!(
            fetch(&a.records[0].result, "delivered") + fetch(&a.records[0].result, "lost"),
            fetch(&a.records[0].result, "requested")
        );
    }

    #[test]
    fn e22_reports_identity_at_every_thread_count() {
        let (t, out) = e22_thread_scaling(&[1, 2], 1990);
        assert_eq!(out.records.len(), 2);
        for rec in &out.records {
            // The function asserts identity internally; the artifact must
            // also carry the claim so a rendered table can show it.
            assert_eq!(fetch(&rec.result, "identical"), 1);
            assert_eq!(fetch(&rec.result, "groups"), 4, "all four Q_8 windows occupied");
            assert!(fetch(&rec.result, "delivered") > 0);
        }
        // Traffic columns are thread-invariant (timings of course differ).
        assert_eq!(fetch(&out.records[0].result, "steps"), fetch(&out.records[1].result, "steps"));
        assert!(t.render().contains("yes"));
    }

    #[test]
    fn tables_flatten_to_sweep_records() {
        let mut a = Table::new(&["n", "cost"]);
        a.row(vec!["4".into(), "3".into()]);
        a.row(vec!["8".into(), "3".into()]);
        let mut b = Table::new(&["k"]);
        b.row(vec!["1".into()]);
        let out = tables_output("e2_theorem1", &[("main", &a), ("extra", &b)]);
        assert_eq!(out.experiment, "e2_theorem1");
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].params.get("table"), Some(&Json::Str("main".into())));
        assert_eq!(out.records[0].result.get("cost"), Some(&Json::Str("3".into())));
        assert_eq!(out.records[2].params.get("table"), Some(&Json::Str("extra".into())));
        assert_eq!(out.records[2].params.get("row").and_then(Json::as_u64), Some(0));
        assert_eq!(out.default_path().to_str(), Some("BENCH_E2_THEOREM1.json"));
    }

    #[test]
    fn e1_small_grid_matches_theory() {
        let (t, out) = e1_cycle_speedup(&[6]);
        assert_eq!(out.records.len(), 4);
        // Gray code realizes exactly m steps per phase.
        for rec in &out.records {
            let m = rec.params.get("m").and_then(Json::as_u64).unwrap();
            assert_eq!(rec.result.get("gray_steps").and_then(Json::as_u64), Some(m));
        }
        assert!(t.render().contains("gray steps"));
    }

    #[test]
    fn e12_probabilities_are_probabilities_and_ordered_by_construction() {
        let (_, out) = e12_faults(&[6], 20, 99);
        for rec in &out.records {
            for key in ["gray_w1", "struct_k1", "struct_k_half", "sim_no_retry", "sim_retry"] {
                let v = rec.result.get(key).and_then(Json::as_f64).unwrap();
                assert!((0.0..=1.0).contains(&v), "{key} = {v}");
            }
            // Shared fault draws make these identities exact, not just
            // statistical: a share arrives iff its path survives, and one
            // surviving path carries every retried share.
            let f = |key| rec.result.get(key).and_then(Json::as_f64).unwrap();
            assert_eq!(f("sim_no_retry"), f("struct_k_half"));
            assert_eq!(f("sim_retry"), f("struct_k1"));
            assert!(f("sim_retry") >= f("sim_no_retry"));
        }
    }
}
