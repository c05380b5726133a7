//! The perf-regression suite: measured workloads over the hot engines.
//!
//! Every benchmark produces one [`PerfRecord`] with two kinds of metrics:
//!
//! * `counters` — deterministic work measures (sim steps, packet-hops,
//!   queue pushes, flit moves, allocation calls/bytes, delivery grades).
//!   All workloads are fixed-seed, and those that run on the rayon pool
//!   split their work the same way at any thread count, so these are
//!   machine- and thread-count-independent; the bench gate
//!   ([`crate::gate`]) compares them **exactly**.
//! * `wall_ns` — warmup/median-of-k wall-clock, compared only within a
//!   tolerance band.
//!
//! Allocation counters are live only when the program's global allocator
//! is [`CountingAlloc`](crate::measure::CountingAlloc) (the `perf_suite`
//! and `bench_gate` binaries install it); otherwise they read 0. Each
//! workload is warmed up once *before* the allocation measurement so lazy
//! one-time initialization never pollutes the counts.
//!
//! The suite is the repo's defense of the engines' zero-allocation and
//! speedup claims: `packet/run` vs `packet/oracle` and `wormhole/run` vs
//! `wormhole/oracle` (each engine against its [`crate::oracle`] stepper),
//! the planned runs on empty and static-cut plans, IDA disperse and
//! reconstruct, `PhaseSchedule::verify`, and a full `deliver_phase_plan` —
//! plus, appended after the original suite, the planned engines under a
//! mixed adversary, tagged dispersal, the oracle-free adaptive delivery
//! protocol, share fingerprints, the theorem constructions and the
//! Hamiltonian decompositions.

use crate::json::{Json, ToJson};
use crate::measure::{measure_allocs, measure_peak, median_wall_ns};
use crate::oracle::{packet_oracle, wormhole_oracle, Walk};
use crate::table::Table;
use hyperpath_core::ccc_copies::ccc_multi_copy;
use hyperpath_core::cycles::theorem1;
use hyperpath_ida::{kernel, share_fingerprint, Ida};
use hyperpath_sim::bitslice::{
    stream_bundles_ge_into, BitTrialBlock, IndexedTrials, LaneWord, SlicedPaths, W256,
};
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::delivery::{deliver_phase_plan, DeliveryConfig};
use hyperpath_sim::faults::{random_fault_set, surviving_paths};
use hyperpath_sim::protocol::{deliver_adaptive_prepared, AdaptiveSetup, PlanNetwork};
use hyperpath_sim::routing::{ecube_path, random_permutation};
use hyperpath_sim::trace::{CountingRecorder, NopRecorder};
use hyperpath_sim::{FaultPlan, PacketSim, WormholeSim};
use hyperpath_topology::{Hypercube, Node};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Version of the `BENCH_PERF.json` schema; bump on layout changes so the
/// gate refuses to compare incompatible artifacts.
pub const SCHEMA_VERSION: u64 = 1;

/// Step cap for every simulated workload (a stuck workload is a bug).
const SIM_CAP: u64 = 10_000_000;

/// One benchmark's measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfRecord {
    /// Benchmark id, e.g. `packet/run/n8`.
    pub name: String,
    /// Deterministic counters in insertion order (compared exactly).
    pub counters: Vec<(String, u64)>,
    /// Median wall-clock nanoseconds (compared within tolerance).
    pub wall_ns: u64,
}

/// A completed suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfOutput {
    /// One record per benchmark, in suite order.
    pub records: Vec<PerfRecord>,
}

impl PerfOutput {
    /// The schema-versioned JSON artifact.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("suite", "perf_suite".to_json()),
            (
                "records",
                Json::Array(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("name", r.name.as_str().to_json()),
                                (
                                    "counters",
                                    Json::Object(
                                        r.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), v.to_json()))
                                            .collect(),
                                    ),
                                ),
                                ("wall_ns", r.wall_ns.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The artifact with every `wall_ns` dropped — the byte-stable part
    /// (what the determinism tests compare across runs and thread counts).
    pub fn deterministic_json(&self) -> Json {
        let mut j = self.to_json();
        if let Json::Object(members) = &mut j {
            if let Some((_, Json::Array(records))) =
                members.iter_mut().find(|(k, _)| k == "records")
            {
                for r in records {
                    if let Json::Object(fields) = r {
                        fields.retain(|(k, _)| k != "wall_ns");
                    }
                }
            }
        }
        j
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut t = Table::new(&["benchmark", "wall (µs)", "key counters"]);
        for r in &self.records {
            let head: Vec<String> =
                r.counters.iter().take(3).map(|(k, v)| format!("{k}={v}")).collect();
            t.row(vec![
                r.name.clone(),
                format!("{:.1}", r.wall_ns as f64 / 1_000.0),
                head.join("  "),
            ]);
        }
        t.render()
    }
}

/// Suite sizing knobs (the committed baseline uses [`PerfConfig::full`]).
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Hypercube dimensions for the packet-engine workloads.
    pub packet_ns: Vec<u32>,
    /// Packets per guest edge in the packet phase workloads.
    pub packets_per_edge: u64,
    /// CCC parameters for the wormhole permutation workloads (host is
    /// `Q_{n + log n}`).
    pub wormhole_ccc_ns: Vec<u32>,
    /// Flits per worm.
    pub worm_flits: u64,
    /// IDA message length in bytes.
    pub ida_message_len: usize,
    /// Monte-Carlo trials per structural fault-survival workload.
    pub mc_trials: u32,
    /// Hypercube dimensions for the implicit-host memory-scaling
    /// workloads (`scale/structural/implicit/*`).
    pub scale_ns: Vec<u32>,
    /// Host dimensions for the multi-tenant engine workloads
    /// (`tenants/engine/*` timings and the `scale/tenants/ledger/*`
    /// memory pins; every roster tenant lives in a `Q_8` window, so
    /// each entry must be ≥ 10).
    pub tenant_ns: Vec<u32>,
    /// Unmeasured warmup calls per timing.
    pub warmup: u32,
    /// Measured calls per timing (median taken).
    pub reps: u32,
}

impl PerfConfig {
    /// The committed-baseline configuration.
    pub fn full() -> Self {
        PerfConfig {
            packet_ns: vec![6, 8, 10],
            packets_per_edge: 16,
            wormhole_ccc_ns: vec![4, 8],
            worm_flits: 64,
            ida_message_len: 4096,
            mc_trials: 2048,
            scale_ns: vec![10, 14, 18, 20],
            tenant_ns: vec![16, 20],
            warmup: 1,
            reps: 5,
        }
    }

    /// A seconds-scale configuration for tests.
    pub fn tiny() -> Self {
        PerfConfig {
            packet_ns: vec![6],
            packets_per_edge: 4,
            wormhole_ccc_ns: vec![4],
            worm_flits: 8,
            ida_message_len: 256,
            mc_trials: 128,
            scale_ns: vec![8],
            tenant_ns: vec![10],
            warmup: 1,
            reps: 3,
        }
    }
}

/// Per-link fault probability of the static-cut plan workloads.
const FAULT_P: f64 = 0.02;
/// Master seed for every randomized workload (ChaCha — identical on every
/// platform and rustc version).
const PERF_SEED: u64 = 0x9e3779b97f4a7c15;

fn fault_plan_for(host: &Hypercube, salt: u64) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ salt);
    FaultPlan::from_set(random_fault_set(host, FAULT_P, &mut rng))
}

/// The e-cube worm paths of a random permutation of `host` (fixed points
/// send nothing), drawn from `rng`.
fn ecube_permutation(host: &Hypercube, rng: &mut ChaCha8Rng) -> Vec<Vec<Node>> {
    let perm = random_permutation(host, rng);
    (0..host.num_nodes())
        .zip(perm)
        .filter(|&(src, dst)| src != dst)
        .map(|(src, dst)| ecube_path(src, dst))
        .collect()
}

/// A fresh wormhole simulator on `host` loaded with one `flits`-flit worm
/// per path: what every timed `wormhole/*` closure builds before it runs,
/// as the `packet/*` closures build theirs with
/// [`PacketSim::phase_workload`].
fn load_worms(host: Hypercube, paths: &[Vec<Node>], flits: u64) -> WormholeSim {
    let mut sim = WormholeSim::new(host);
    sim.reserve(paths.len(), paths.iter().map(|p| p.len().saturating_sub(1)).sum());
    for path in paths {
        sim.add_worm(path, flits);
    }
    sim
}

/// How many of `flags` are set.
fn count_set(flags: &[bool]) -> u64 {
    flags.iter().filter(|&&f| f).count() as u64
}

/// Runs the whole suite under `cfg`.
pub fn run_perf_suite(cfg: &PerfConfig) -> PerfOutput {
    let mut records = Vec::new();

    // --- Packet engine: production vs oracle, plain vs planned. Each
    // timed engine run loads a fresh simulator first. ---
    for &n in &cfg.packet_ns {
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let load = || PacketSim::phase_workload(e, cfg.packets_per_edge);

        // Production engine: full counter set + allocation profile.
        let mut c = CountingRecorder::new();
        let report = load().run(SIM_CAP, &mut c);
        let (_, allocs) = measure_allocs(|| load().run(SIM_CAP, &mut NopRecorder)); // post-warmup
        records.push(PerfRecord {
            name: format!("packet/run/n{n}"),
            counters: vec![
                ("steps".into(), c.steps),
                ("packet_hops".into(), c.busy_total),
                ("queue_pushes".into(), c.queue_pushes),
                ("delivered".into(), c.delivered),
                ("max_queue".into(), report.max_queue as u64),
                ("alloc_calls".into(), allocs.calls),
                ("alloc_bytes".into(), allocs.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || load().run(SIM_CAP, &mut NopRecorder)),
        });

        // The oracle under an empty plan: the specification the engine
        // must keep matching — and keep beating on wall-clock.
        let flows: Vec<Walk> = PacketSim::phase_flows(e, cfg.packets_per_edge, usize::MAX)
            .map(|(path, packets)| (path.to_vec(), packets))
            .collect();
        let empty = FaultPlan::none(&e.host);
        let oracle = || packet_oracle(e.host, &flows, &empty, &mut NopRecorder).report.report;
        let spec = oracle();
        assert_eq!(spec, report, "packet engine diverged from the oracle on n={n}");
        records.push(PerfRecord {
            name: format!("packet/oracle/n{n}"),
            counters: vec![
                ("steps".into(), spec.makespan),
                ("packet_hops".into(), spec.packet_hops),
                ("delivered".into(), spec.delivered),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, oracle),
        });

        // Planned engine, empty plan: must cost like the plain run.
        let pr = load().run_planned(SIM_CAP, &empty, &mut NopRecorder);
        let (_, pa) = measure_allocs(|| load().run_planned(SIM_CAP, &empty, &mut NopRecorder));
        records.push(PerfRecord {
            name: format!("packet/run_planned/empty/n{n}"),
            counters: vec![
                ("steps".into(), pr.report.makespan),
                ("packet_hops".into(), pr.report.packet_hops),
                ("delivered".into(), pr.report.delivered),
                ("lost".into(), pr.lost),
                ("alloc_calls".into(), pa.calls),
                ("alloc_bytes".into(), pa.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &empty, &mut NopRecorder)
            }),
        });

        // Planned engine, seeded static cuts.
        let cuts = fault_plan_for(&e.host, u64::from(n));
        let pr = load().run_planned(SIM_CAP, &cuts, &mut NopRecorder);
        records.push(PerfRecord {
            name: format!("packet/run_planned/cuts/n{n}"),
            counters: vec![
                ("steps".into(), pr.report.makespan),
                ("packet_hops".into(), pr.report.packet_hops),
                ("delivered".into(), pr.report.delivered),
                ("lost".into(), pr.lost),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &cuts, &mut NopRecorder)
            }),
        });
    }

    // --- Wormhole engine: e-cube permutation routing. Each timed engine
    // run loads a fresh simulator first. ---
    for &n in &cfg.wormhole_ccc_ns {
        let copies = ccc_multi_copy(n).expect("Theorem 3");
        let host = copies.multi_copy.host;
        let mut rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 32));
        let paths = ecube_permutation(&host, &mut rng);
        let load = || load_worms(host, &paths, cfg.worm_flits);

        let mut c = CountingRecorder::new();
        let mut sim = load();
        let makespan = sim.run(SIM_CAP, &mut c);
        let (_, allocs) = measure_allocs(|| load().run(SIM_CAP, &mut NopRecorder));
        records.push(PerfRecord {
            name: format!("wormhole/run/ccc{n}"),
            counters: vec![
                ("steps".into(), c.steps),
                ("head_advances".into(), c.busy_total),
                ("flit_moves".into(), c.flit_moves),
                ("delivered".into(), c.delivered),
                ("makespan".into(), makespan),
                ("alloc_calls".into(), allocs.calls),
                ("alloc_bytes".into(), allocs.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || load().run(SIM_CAP, &mut NopRecorder)),
        });

        let worms: Vec<Walk> = paths.iter().map(|p| (p.clone(), cfg.worm_flits)).collect();
        let empty = FaultPlan::none(&host);
        let oracle = || wormhole_oracle(host, &worms, &empty, &mut NopRecorder);
        let spec = oracle();
        assert_eq!(
            (spec.makespan(), &spec.completion[..]),
            (makespan, sim.completion()),
            "wormhole engine diverged from the oracle on ccc{n}"
        );
        records.push(PerfRecord {
            name: format!("wormhole/oracle/ccc{n}"),
            counters: vec![("makespan".into(), spec.makespan())],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, oracle),
        });

        let makespan = sim.run_planned(SIM_CAP, &empty, &mut NopRecorder);
        records.push(PerfRecord {
            name: format!("wormhole/run_planned/empty/ccc{n}"),
            counters: vec![("makespan".into(), makespan), ("lost".into(), count_set(sim.lost()))],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &empty, &mut NopRecorder)
            }),
        });

        let cuts = fault_plan_for(&host, u64::from(n) << 8);
        let makespan = sim.run_planned(SIM_CAP, &cuts, &mut NopRecorder);
        records.push(PerfRecord {
            name: format!("wormhole/run_planned/cuts/ccc{n}"),
            counters: vec![("makespan".into(), makespan), ("lost".into(), count_set(sim.lost()))],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &cuts, &mut NopRecorder)
            }),
        });
    }

    // --- IDA: disperse + reconstruct. ---
    {
        let ida = Ida::new(8, 4);
        let msg: Vec<u8> = (0..cfg.ida_message_len).map(|i| (i * 131 % 251) as u8).collect();
        let shares = ida.disperse(&msg);
        let (_, da) = measure_allocs(|| ida.disperse(&msg));
        records.push(PerfRecord {
            name: "ida/disperse/w8k4".into(),
            counters: vec![
                ("message_bytes".into(), msg.len() as u64),
                ("shares".into(), shares.len() as u64),
                ("share_bytes".into(), shares[0].data.len() as u64),
                ("alloc_calls".into(), da.calls),
                ("alloc_bytes".into(), da.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || ida.disperse(&msg)),
        });
        let subset = &shares[4..];
        let rec = ida.reconstruct(subset).expect("any 4 shares reconstruct");
        assert_eq!(rec, msg, "IDA round-trip corrupted the message");
        records.push(PerfRecord {
            name: "ida/reconstruct/w8k4".into(),
            counters: vec![
                ("message_bytes".into(), rec.len() as u64),
                ("shares_used".into(), subset.len() as u64),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || ida.reconstruct(subset).unwrap()),
        });
    }

    // --- Schedule verification (the certificate checker itself). ---
    for &n in &cfg.packet_ns {
        let t1 = theorem1(n).expect("theorem 1");
        t1.schedule.verify(&t1.embedding).expect("certified schedule verifies");
        let hops: u64 = t1.schedule.transmissions.iter().map(|t| t.hop_starts.len() as u64).sum();
        records.push(PerfRecord {
            name: format!("schedule/verify/n{n}"),
            counters: vec![
                ("transmissions".into(), t1.schedule.transmissions.len() as u64),
                ("hops".into(), hops),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                t1.schedule.verify(&t1.embedding).unwrap()
            }),
        });
    }

    // --- Full delivery pipeline: IDA + faulty machine + retries. ---
    {
        let n = *cfg.packet_ns.last().expect("non-empty packet grid");
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let cuts = fault_plan_for(&e.host, 0xde11);
        let k_half = t1.claimed_width.div_ceil(2);
        let dcfg = DeliveryConfig { threshold: k_half, max_retries: 2, message_len: 64 };
        let r = deliver_phase_plan(e, &cuts, &dcfg);
        records.push(PerfRecord {
            name: format!("delivery/deliver_phase/n{n}"),
            counters: vec![
                ("edges".into(), r.edges.len() as u64),
                ("delivered".into(), r.delivered as u64),
                ("degraded".into(), r.degraded as u64),
                ("lost".into(), r.lost as u64),
                ("rounds_run".into(), u64::from(r.rounds_run)),
                ("shares_resent".into(), r.shares_resent),
                ("initial_makespan".into(), r.initial.report.makespan),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || deliver_phase_plan(e, &cuts, &dcfg)),
        });
    }

    // --- Plan-aware engines under a mixed adversary (cuts + outages +
    // corruption). Appended after the original suite so blessed baselines
    // extend without disturbing earlier records. ---
    for &n in &cfg.packet_ns {
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let load = || PacketSim::phase_workload(e, cfg.packets_per_edge);
        let mut rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 16));
        let plan = random_plan(&e.host, false, &mut rng);
        let mut c = CountingRecorder::new();
        let pr = load().run_planned(SIM_CAP, &plan, &mut c);
        records.push(PerfRecord {
            name: format!("packet/run_planned/mixed/n{n}"),
            counters: vec![
                ("steps".into(), c.steps),
                ("packet_hops".into(), c.busy_total),
                ("delivered".into(), pr.report.delivered),
                ("lost".into(), pr.lost),
                ("corrupted".into(), pr.corrupted),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &plan, &mut NopRecorder)
            }),
        });
    }

    for &n in &cfg.wormhole_ccc_ns {
        let copies = ccc_multi_copy(n).expect("Theorem 3");
        let host = copies.multi_copy.host;
        let mut rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 40));
        let paths = ecube_permutation(&host, &mut rng);
        let load = || load_worms(host, &paths, cfg.worm_flits);
        let plan = random_plan(&host, false, &mut rng);
        let mut sim = load();
        let makespan = sim.run_planned(SIM_CAP, &plan, &mut NopRecorder);
        records.push(PerfRecord {
            name: format!("wormhole/run_planned/mixed/ccc{n}"),
            counters: vec![
                ("makespan".into(), makespan),
                ("lost".into(), count_set(sim.lost())),
                ("corrupted".into(), count_set(sim.corrupted())),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                load().run_planned(SIM_CAP, &plan, &mut NopRecorder)
            }),
        });
    }

    // --- Tagged IDA: keyed fingerprints over the dispersal. ---
    {
        let ida = Ida::new(8, 4);
        let msg: Vec<u8> = (0..cfg.ida_message_len).map(|i| (i * 137 % 251) as u8).collect();
        let key = PERF_SEED ^ 0x7a66;
        let tagged = ida.disperse_tagged(&msg, key);
        let verified = tagged.iter().filter(|ts| ida.verify_share(key, ts)).count();
        let (_, ta) = measure_allocs(|| ida.disperse_tagged(&msg, key));
        records.push(PerfRecord {
            name: "ida/disperse_tagged/w8k4".into(),
            counters: vec![
                ("message_bytes".into(), msg.len() as u64),
                ("shares".into(), tagged.len() as u64),
                ("verified".into(), verified as u64),
                ("alloc_calls".into(), ta.calls),
                ("alloc_bytes".into(), ta.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || ida.disperse_tagged(&msg, key)),
        });
    }

    // --- Oracle-free adaptive delivery under the mixed adversary: one
    // phase over a hoisted setup, as E16, the chaos harness and the
    // benchmark run it, with the phase's exact allocation profile. The 4
    // KiB twin runs the same plan and key above the phase's fan-out
    // cutoff, on the default pool: its tagging, verification and grading
    // run in fixed chunks whatever the thread count, so its counters,
    // allocations included, must not move with `RAYON_NUM_THREADS`. ---
    for (message_len, suffix) in [(64, ""), (4096, "/4k")] {
        let n = *cfg.packet_ns.last().expect("non-empty packet grid");
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let mut rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ 0xada7);
        let plan = random_plan(&e.host, false, &mut rng);
        let k_half = t1.claimed_width.div_ceil(2);
        let dcfg = DeliveryConfig { threshold: k_half, max_retries: 2, message_len };
        let key = PERF_SEED ^ 0xfeed;
        let setup = AdaptiveSetup::new(e, &dcfg);
        let phase = || deliver_adaptive_prepared(&setup, key, &mut PlanNetwork::new(e, &plan));
        let r = phase();
        let (again, allocs) = measure_allocs(phase); // post-warmup
        assert_eq!(again, r, "adaptive phase drifted between runs");
        records.push(PerfRecord {
            name: format!("delivery/deliver_adaptive/n{n}{suffix}"),
            counters: vec![
                ("edges".into(), r.edges.len() as u64),
                ("delivered".into(), r.delivered as u64),
                ("degraded".into(), r.degraded as u64),
                ("lost".into(), r.lost as u64),
                ("rounds_run".into(), u64::from(r.rounds_run)),
                ("shares_resent".into(), r.shares_resent),
                ("rejected_shares".into(), r.rejected_shares),
                ("wrong_reconstructions".into(), r.wrong_reconstructions),
                ("alloc_calls".into(), allocs.calls),
                ("alloc_bytes".into(), allocs.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, phase),
        });
    }

    // --- Bit-sliced Monte-Carlo fault kernels vs the scalar path. The
    // scalar and `bitsliced` workloads replay identical per-trial RNG
    // streams (64 of them per kernel word), so their `ok` counters must
    // agree exactly; `bitsliced_fast` and `bitsliced256` draw one
    // threshold-compared stream for the whole block (same marginal
    // distribution, different layout). The gate holds every kernel to a
    // speedup floor over the scalar record of the same size. ---
    for &n in &cfg.packet_ns {
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let host = e.host;
        let k_half = t1.claimed_width.div_ceil(2);
        let sliced = SlicedPaths::new(e);
        let mut seed_rng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 24));
        let seeds: Vec<u64> = (0..cfg.mc_trials).map(|_| seed_rng.random()).collect();

        let scalar_ok = || -> u64 {
            seeds
                .iter()
                .map(|&seed| {
                    let mut trial_rng = StdRng::seed_from_u64(seed);
                    let faults = random_fault_set(&host, FAULT_P, &mut trial_rng);
                    let s = surviving_paths(e, &faults);
                    u64::from(s.iter().all(|&x| x >= k_half))
                })
                .sum()
        };
        let bitsliced_ok = || -> u64 {
            seeds
                .chunks(64)
                .map(|chunk| {
                    let block = BitTrialBlock::<u64>::draw_compat(&host, FAULT_P, chunk);
                    u64::from(sliced.all_bundles_ge(&block, k_half).count_ones())
                })
                .sum()
        };
        let fast_ok = || -> u64 {
            let mut rng = StdRng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 25));
            let mut rem = cfg.mc_trials;
            let mut ok = 0u64;
            while rem > 0 {
                let lanes = rem.min(64);
                let block = BitTrialBlock::<u64>::draw_fast(&host, FAULT_P, lanes, &mut rng);
                ok += u64::from(sliced.all_bundles_ge(&block, k_half).count_ones());
                rem -= lanes;
            }
            ok
        };

        // The 256-lane kernel on the same fast-draw discipline: four
        // trial planes per word op instead of one. Same marginal
        // distribution as `bitsliced_fast`, its own stream layout.
        let fast256_ok = || -> u64 {
            let mut rng = StdRng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 26));
            let mut rem = cfg.mc_trials;
            let mut ok = 0u64;
            while rem > 0 {
                let lanes = rem.min(256);
                let block = BitTrialBlock::<W256>::draw_fast(&host, FAULT_P, lanes, &mut rng);
                ok += u64::from(sliced.all_bundles_ge(&block, k_half).count_ones());
                rem -= lanes;
            }
            ok
        };

        let s_ok = scalar_ok();
        let b_ok = bitsliced_ok();
        assert_eq!(s_ok, b_ok, "bit-sliced structural MC diverged from scalar on n={n}");
        let f_ok = fast_ok();
        let f256_ok = fast256_ok();
        records.push(PerfRecord {
            name: format!("mc/structural/scalar/n{n}"),
            counters: vec![("trials".into(), u64::from(cfg.mc_trials)), ("ok".into(), s_ok)],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, scalar_ok),
        });
        records.push(PerfRecord {
            name: format!("mc/structural/bitsliced/n{n}"),
            counters: vec![("trials".into(), u64::from(cfg.mc_trials)), ("ok".into(), b_ok)],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, bitsliced_ok),
        });
        records.push(PerfRecord {
            name: format!("mc/structural/bitsliced_fast/n{n}"),
            counters: vec![("trials".into(), u64::from(cfg.mc_trials)), ("ok".into(), f_ok)],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, fast_ok),
        });
        records.push(PerfRecord {
            name: format!("mc/structural/bitsliced256/n{n}"),
            counters: vec![("trials".into(), u64::from(cfg.mc_trials)), ("ok".into(), f256_ok)],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, fast256_ok),
        });
    }

    // --- Schoolbook IDA codec: the conformance references the kernel
    // paths must keep matching — and keep beating on wall-clock and
    // allocation profile. ---
    {
        let ida = Ida::new(8, 4);
        let msg: Vec<u8> = (0..cfg.ida_message_len).map(|i| (i * 131 % 251) as u8).collect();
        let shares = ida.disperse_reference(&msg);
        assert_eq!(shares, ida.disperse(&msg), "kernel and reference dispersal diverged");
        let (_, da) = measure_allocs(|| ida.disperse_reference(&msg));
        records.push(PerfRecord {
            name: "ida/disperse_reference/w8k4".into(),
            counters: vec![
                ("message_bytes".into(), msg.len() as u64),
                ("shares".into(), shares.len() as u64),
                ("share_bytes".into(), shares[0].data.len() as u64),
                ("alloc_calls".into(), da.calls),
                ("alloc_bytes".into(), da.bytes),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || ida.disperse_reference(&msg)),
        });
        let subset = &shares[4..];
        let rec = ida.reconstruct_reference(subset).expect("any 4 shares reconstruct");
        assert_eq!(rec, msg, "reference IDA round-trip corrupted the message");
        records.push(PerfRecord {
            name: "ida/reconstruct_reference/w8k4".into(),
            counters: vec![
                ("message_bytes".into(), rec.len() as u64),
                ("shares_used".into(), subset.len() as u64),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                ida.reconstruct_reference(subset).unwrap()
            }),
        });
    }

    // --- GF(2^8) row primitives head to head: the dispatched row op
    // (what `disperse`/`reconstruct` run on: split-nibble shuffles with
    // AVX2, the SWAR xtime ladder without) vs the hoisted product-table
    // row op. Both closures accumulate into a persistent buffer —
    // identical traffic, no per-rep allocation — and the checksum
    // counters prove they computed the same bytes. The gate holds the
    // row op to its floor over the table on the 64 KiB rows of the full
    // preset. ---
    {
        let len = cfg.ida_message_len * 16;
        let src: Vec<u8> = (0..len).map(|i| (i * 151 % 253) as u8).collect();
        // Constants with mixed ladder depths (top set bit 2..=7) and
        // nibble tables.
        let coeffs: [u8; 4] = [0x05, 0x1d, 0x53, 0xf3];
        let mut plane_buf: Vec<u8> = (0..len).map(|i| (i * 97 % 251) as u8).collect();
        let mut table_buf = plane_buf.clone();
        let mut plane_run = || {
            for &c in &coeffs {
                kernel::mul_row_acc(&mut plane_buf, &src, c);
            }
        };
        let mut table_run = || {
            for &c in &coeffs {
                kernel::mul_row_acc_table(&mut table_buf, &src, c);
            }
        };
        let plane_ns = median_wall_ns(cfg.warmup, cfg.reps, &mut plane_run);
        let table_ns = median_wall_ns(cfg.warmup, cfg.reps, &mut table_run);
        // Equal rep counts on both sides, so the buffers went through the
        // same XOR-accumulation history and must agree byte for byte.
        assert_eq!(plane_buf, table_buf, "dispatched row op diverged from the table path");
        let checksum: u64 = plane_buf.iter().map(|&b| u64::from(b)).sum();
        records.push(PerfRecord {
            name: format!("ida/rowops/plane/len{len}"),
            counters: vec![("row_bytes".into(), len as u64), ("checksum".into(), checksum)],
            wall_ns: plane_ns,
        });
        records.push(PerfRecord {
            name: format!("ida/rowops/table/len{len}"),
            counters: vec![("row_bytes".into(), len as u64), ("checksum".into(), checksum)],
            wall_ns: table_ns,
        });
    }

    // --- Implicit-host memory scaling: the streamed structural estimator
    // at growing n, with the live-byte high-water mark recorded per
    // workload. `peak_alloc_bytes` covers the Theorem-1 plan build *plus*
    // one full 64-lane streamed evaluation, so the gate can pin both the
    // 1 GiB ceiling and the bytes-per-node trend (the whole point of the
    // implicit layer is that this grows like 2^{n/2}, not n·2^n). All of
    // it single-threaded and fixed-seed, hence machine-independent. ---
    for &n in &cfg.scale_ns {
        use hyperpath_topology::Theorem1Plan;
        let seed = PERF_SEED ^ (u64::from(n) << 26);
        let eval = |plan: &Theorem1Plan| -> (u64, u64) {
            let trials = IndexedTrials::new(seed, FAULT_P, 64);
            let k_half = (plan.claimed_width() as usize).div_ceil(2);
            let mut acc = [trials.live_mask(); 2];
            stream_bundles_ge_into(plan, &trials, &[1, k_half], 0..plan.num_bundles(), &mut acc);
            (u64::from(acc[0].count_ones()), u64::from(acc[1].count_ones()))
        };
        let ((plan, ok_k1, ok_k_half), peak) = measure_peak(|| {
            let plan = Theorem1Plan::new(n).expect("theorem 1 plan");
            let (ok_k1, ok_k_half) = eval(&plan);
            (plan, ok_k1, ok_k_half)
        });
        records.push(PerfRecord {
            name: format!("scale/structural/implicit/n{n}"),
            counters: vec![
                ("nodes".into(), 1u64 << n),
                ("trials".into(), 64),
                ("ok_k1".into(), ok_k1),
                ("ok_k_half".into(), ok_k_half),
                ("peak_alloc_bytes".into(), peak),
            ],
            wall_ns: median_wall_ns(0, cfg.reps.min(3), || eval(&plan)),
        });
    }

    // --- Multi-tenant engine: pooled production vs per-round-allocating
    // reference, on the 8-tenant E19 roster over a shared implicit host.
    // Alloc-sensitive measurements (peak footprint, whole-run and
    // steady-state-round allocation counts) run inside a one-thread pool:
    // the global allocation counters are exact and machine-independent
    // only when no worker threads allocate concurrently. Traffic counters
    // are thread-count-independent by construction — the engine's merge
    // is deterministic at any thread count — so the `tenants/parallel/*`
    // record carries those and wall-clock only. The
    // `scale/tenants/ledger/*` record pins the peak footprint of a full
    // run (plans + bundle tables + dense per-window ledger shards +
    // pooled per-window Q_8 arenas) so the gate's memory family catches
    // any host-sized table sneaking into admission (ledger state is
    // window-sized: bytes/node shrinking as n grows). ---
    for &n in &cfg.tenant_ns {
        use crate::experiments::e19_specs;
        use hyperpath_sim::tenants::{ExecMode, TenantEngine, TenantsConfig};
        let tenant_cfg = TenantsConfig {
            host_dims: n,
            capacity: 2,
            // Enough rounds for every pooled buffer to reach its working
            // size, so the steady-state round delta below pins exact zero.
            rounds: 6,
            requests_per_round: 8,
            max_requeues: 1,
            seed: PERF_SEED ^ (u64::from(n) << 26),
            exec: ExecMode::Packet,
        };
        let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("serial pool");
        let ((engine, report), peak) = serial.install(|| {
            measure_peak(|| {
                let engine = TenantEngine::new(tenant_cfg.clone(), &e19_specs(8))
                    .expect("perf tenant roster");
                let report = engine.run();
                (engine, report)
            })
        });
        records.push(PerfRecord {
            name: format!("tenants/engine/n{n}"),
            counters: vec![
                ("tenants".into(), 8),
                ("delivered".into(), report.delivered_messages()),
                ("steps".into(), report.total_steps),
                ("total_slots".into(), report.ledger.total_slots),
                ("max_cumulative".into(), report.ledger.max_cumulative),
            ],
            wall_ns: serial.install(|| median_wall_ns(0, cfg.reps.min(3), || engine.run())),
        });
        records.push(PerfRecord {
            name: format!("scale/tenants/ledger/n{n}"),
            counters: vec![
                ("nodes".into(), 1u64 << n),
                ("links_touched".into(), report.ledger.links_touched as u64),
                ("peak_alloc_bytes".into(), peak),
            ],
            wall_ns: 0,
        });

        // Reference engine: the original implementation, allocating fresh
        // per-group simulators and path buffers every round. Kept as the
        // executable spec and the slow side of the gate's pooled-speedup
        // floor; its exact allocation counters pin the cost the pool
        // removes.
        let (ref_report, ref_allocs) = serial.install(|| measure_allocs(|| engine.run_reference()));
        assert_eq!(ref_report, report, "pooled and reference tenant engines diverged on n={n}");
        records.push(PerfRecord {
            name: format!("tenants/reference/n{n}"),
            counters: vec![
                ("tenants".into(), 8),
                ("delivered".into(), ref_report.delivered_messages()),
                ("steps".into(), ref_report.total_steps),
                ("alloc_calls".into(), ref_allocs.calls),
                ("alloc_bytes".into(), ref_allocs.bytes),
            ],
            // Warmup + full reps: this wall is the slow side of the
            // gate's pooled-speedup floor, so its median must be stable.
            wall_ns: serial.install(|| median_wall_ns(1, cfg.reps, || engine.run_reference())),
        });

        // Pooled engine, serial: whole-run allocations (pool build +
        // warmup) and the final round's delta, both exact. The final
        // round's residual is growth, not pool machinery: this contended
        // random workload's last round queues and admits more than any
        // earlier one (request queue, admitted list, round path list,
        // flow arena). The bundle tables and ledger shards never grow
        // after the first round. `bench/tests/alloc_zero.rs` pins the
        // exact-zero round on warmed configs, serial and parallel.
        let (pooled_report, pooled_allocs) = serial.install(|| measure_allocs(|| engine.run()));
        assert_eq!(pooled_report, report, "pooled tenant run drifted between measurements");
        let (_, round_allocs) = serial.install(|| {
            let mut run = engine.begin();
            for _ in 1..tenant_cfg.rounds {
                run.step_round(); // warmup: pool scratch + ledger reach steady state
            }
            measure_allocs(|| run.step_round())
        });
        records.push(PerfRecord {
            name: format!("tenants/pooled/n{n}"),
            counters: vec![
                ("tenants".into(), 8),
                ("delivered".into(), pooled_report.delivered_messages()),
                ("steps".into(), pooled_report.total_steps),
                ("alloc_calls".into(), pooled_allocs.calls),
                ("alloc_bytes".into(), pooled_allocs.bytes),
                ("round_alloc_calls".into(), round_allocs.calls),
                ("round_alloc_bytes".into(), round_allocs.bytes),
            ],
            // Warmup + full reps: the fast side of the pooled-speedup
            // floor.
            wall_ns: serial.install(|| median_wall_ns(1, cfg.reps, || engine.run())),
        });

        // Pooled engine, default worker threads: the production
        // configuration. The report must be byte-identical to the serial
        // one (ascending-order merge over disjoint subcubes); only
        // wall-clock may differ. Allocation counters are deliberately
        // absent — worker threads allocate machine-dependently.
        let parallel_report = engine.run();
        assert_eq!(parallel_report, report, "parallel tenant run diverged from serial on n={n}");
        records.push(PerfRecord {
            name: format!("tenants/parallel/n{n}"),
            counters: vec![
                ("tenants".into(), 8),
                ("groups".into(), engine.num_groups() as u64),
                ("delivered".into(), parallel_report.delivered_messages()),
                ("steps".into(), parallel_report.total_steps),
            ],
            wall_ns: median_wall_ns(0, cfg.reps.min(3), || engine.run()),
        });

        // Fault-aware run of the same roster: a deterministic static
        // cut-set inside the four Q_8 windows, ledger-learned quarantine
        // routing. Pins the planned engine's traffic counters and times
        // the full ACK/NACK + projection overhead against the plan-free
        // record above.
        use hyperpath_sim::tenants::{FaultRouting, TenantFaultPlan};
        let mut prng = ChaCha8Rng::seed_from_u64(PERF_SEED ^ (u64::from(n) << 27));
        let mut plan = TenantFaultPlan::none();
        for w in 0..4u64 {
            for _ in 0..6 {
                let d: u32 = prng.random_range(0..8);
                let base: u64 = prng.random_range(0..256u64) & !(1u64 << d);
                plan.cut_link(((w << 8) | base) * u64::from(n) + u64::from(d));
            }
        }
        let planned = engine.run_planned(&plan, FaultRouting::Learned);
        let sum = |f: fn(&hyperpath_sim::tenants::FlowStats) -> u64| -> u64 {
            planned.tenants.iter().map(|t| f(&t.stats)).sum()
        };
        records.push(PerfRecord {
            name: format!("tenants/planned/n{n}"),
            counters: vec![
                ("tenants".into(), 8),
                ("cuts".into(), plan.cut_count() as u64),
                ("delivered".into(), planned.delivered_messages()),
                ("recovered".into(), sum(|s| s.recovered)),
                ("lost".into(), sum(|s| s.lost)),
                ("shares_lost".into(), sum(|s| s.shares_lost)),
                ("steps".into(), planned.total_steps),
                ("quarantined".into(), planned.ledger.quarantined_links as u64),
            ],
            wall_ns: median_wall_ns(0, cfg.reps.min(3), || {
                engine.run_planned(&plan, FaultRouting::Learned)
            }),
        });
    }

    // --- Share fingerprints at delivery-large's share size (a 4 KiB
    // message at k = 3: 1,374 bytes with the length header). The counter
    // XORs the tags of a fixed set of shares, so the gate pins the
    // fingerprint's definition exactly, not just its cost. ---
    {
        let key = PERF_SEED ^ 0xf1a9;
        let shares: Vec<Vec<u8>> = (0..64u32)
            .map(|s| (0..1374u32).map(|i| (i.wrapping_mul(2 * s + 131) % 251) as u8).collect())
            .collect();
        let tag_xor = || {
            shares
                .iter()
                .enumerate()
                .fold(0, |x, (i, data)| x ^ share_fingerprint(key, (i % 5) as u8, data))
        };
        records.push(PerfRecord {
            name: "ida/fingerprint/len1374".into(),
            counters: vec![
                ("shares".into(), shares.len() as u64),
                ("share_bytes".into(), 1374),
                ("tag_xor".into(), tag_xor()),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, tag_xor),
        });
    }

    // --- Constructions: building and certifying each theorem's embedding
    // (the Theorem 4 product over prebuilt cycle copies), with the shape
    // it certifies as counters. ---
    {
        use hyperpath_core::baseline::multi_copy_cycles;
        use hyperpath_core::cycles::{theorem2, Theorem2Variant};
        use hyperpath_core::grids::grid_embedding;
        use hyperpath_core::induced::induced_cross_product;
        use hyperpath_core::trees::theorem5;
        let shape = |edges: usize, width: usize, cost: u64| -> Vec<(String, u64)> {
            vec![
                ("edges".into(), edges as u64),
                ("width".into(), width as u64),
                ("cost".into(), cost),
            ]
        };
        let t1 = theorem1(10).expect("theorem 1");
        records.push(PerfRecord {
            name: "construct/theorem1/n10".into(),
            counters: shape(t1.embedding.edge_paths.len(), t1.claimed_width, t1.cost),
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || theorem1(10).unwrap()),
        });
        let t2 = theorem2(8, Theorem2Variant::Cost3).expect("theorem 2");
        records.push(PerfRecord {
            name: "construct/theorem2_cost3/n8".into(),
            counters: shape(t2.embedding.edge_paths.len(), t2.claimed_width, t2.cost),
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                theorem2(8, Theorem2Variant::Cost3).unwrap()
            }),
        });
        let ccc = ccc_multi_copy(8).expect("theorem 3");
        records.push(PerfRecord {
            name: "construct/ccc_multi_copy/n8".into(),
            counters: vec![
                ("copies".into(), ccc.multi_copy.num_copies() as u64),
                ("guest_edges".into(), ccc.multi_copy.guest.num_edges() as u64),
                ("host_dims".into(), u64::from(ccc.multi_copy.host.dims())),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || ccc_multi_copy(8).unwrap()),
        });
        let copies = multi_copy_cycles(6).expect("cycle copies");
        let t4 = induced_cross_product(&copies).expect("theorem 4");
        records.push(PerfRecord {
            name: "construct/induced_cross_product/n6".into(),
            counters: shape(t4.embedding.edge_paths.len(), t4.embedding.width(), t4.cost),
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                induced_cross_product(&copies).unwrap()
            }),
        });
        let t5 = theorem5(4).expect("theorem 5");
        records.push(PerfRecord {
            name: "construct/theorem5/n4".into(),
            counters: shape(t5.embedding.edge_paths.len(), t5.width, t5.cost),
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || theorem5(4).unwrap()),
        });
        let grid = grid_embedding(&[4, 4], false).expect("grid");
        records.push(PerfRecord {
            name: "construct/grid_embedding/4x4".into(),
            counters: shape(grid.embedding.edge_paths.len(), grid.width, grid.cost),
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                grid_embedding(&[4, 4], false).unwrap()
            }),
        });
    }

    // --- Hamiltonian decompositions of Q_n, the odd n = 9 through the
    // matching merge. ---
    for n in [4u32, 6, 8, 9] {
        let dec = hyperpath_topology::hamiltonian::decompose(n).expect("decomposition");
        records.push(PerfRecord {
            name: format!("topology/decompose/q{n}"),
            counters: vec![
                ("cycles".into(), dec.cycles.len() as u64),
                ("matching".into(), dec.matching.len() as u64),
            ],
            wall_ns: median_wall_ns(cfg.warmup, cfg.reps, || {
                hyperpath_topology::hamiltonian::decompose(n).unwrap()
            }),
        });
    }

    PerfOutput { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_covers_every_engine_and_is_deterministic() {
        let cfg = PerfConfig::tiny();
        let a = run_perf_suite(&cfg);
        let b = run_perf_suite(&cfg);
        assert_eq!(
            a.deterministic_json().render_pretty(),
            b.deterministic_json().render_pretty(),
            "counters must be run-to-run identical"
        );
        let names: Vec<&str> = a.records.iter().map(|r| r.name.as_str()).collect();
        for prefix in [
            "packet/run/",
            "packet/oracle/",
            "packet/run_planned/empty/",
            "packet/run_planned/cuts/",
            "wormhole/run/",
            "wormhole/oracle/",
            "wormhole/run_planned/empty/",
            "wormhole/run_planned/cuts/",
            "ida/disperse/",
            "ida/reconstruct/",
            "schedule/verify/",
            "delivery/deliver_phase/",
            "packet/run_planned/mixed/",
            "wormhole/run_planned/mixed/",
            "ida/disperse_tagged/",
            "delivery/deliver_adaptive/",
            "mc/structural/scalar/",
            "mc/structural/bitsliced/",
            "mc/structural/bitsliced_fast/",
            "mc/structural/bitsliced256/",
            "ida/disperse_reference/",
            "ida/reconstruct_reference/",
            "ida/rowops/plane/",
            "ida/rowops/table/",
            "scale/structural/implicit/",
            "tenants/engine/",
            "scale/tenants/ledger/",
            "tenants/reference/",
            "tenants/pooled/",
            "tenants/parallel/",
            "tenants/planned/",
            "ida/fingerprint/",
            "construct/theorem1/",
            "construct/theorem2_cost3/",
            "construct/ccc_multi_copy/",
            "construct/induced_cross_product/",
            "construct/theorem5/",
            "construct/grid_embedding/",
            "topology/decompose/",
        ] {
            assert!(names.iter().any(|n| n.starts_with(prefix)), "missing {prefix}");
        }
    }

    #[test]
    fn artifact_is_schema_versioned_and_parses_back() {
        let out = run_perf_suite(&PerfConfig::tiny());
        let j = out.to_json();
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let reparsed = Json::parse(&j.render_pretty()).unwrap();
        assert_eq!(reparsed, j);
        assert!(out.render_table().contains("wall (µs)"));
    }
}
