//! Regression proof of the zero-allocation claim: once the engines'
//! preallocated state is built, the step loops of `PacketSim::run` and
//! `WormholeSim::run` perform **no** heap allocation, and a whole run of a
//! warmed simulator allocates nothing either.
//!
//! Integration tests are their own binaries, so installing the counting
//! global allocator here affects only this test program. The guard
//! recorder snapshots the allocation counters at every `record_step`
//! (end of each simulated step) into a preallocated buffer — pushing
//! within capacity does not itself allocate — and the test asserts every
//! step-to-step delta is exactly zero, in calls and in bytes.
//!
//! The counters are process-global while the default harness runs tests
//! on parallel threads, so every test holds [`serial`]'s lock, and every
//! measurement keeps the [`fewest`] of a few attempts (see
//! [`ATTEMPTS`]).

use hyperpath_bench::{counting_allocator_installed, measure_allocs, AllocStats};
use hyperpath_core::ccc_copies::ccc_multi_copy;
use hyperpath_core::cycles::theorem1;
use hyperpath_ida::Ida;
use hyperpath_sim::routing::{ecube_path, random_permutation};
use hyperpath_sim::tenants::{
    ExecMode, FaultRouting, TenantEngine, TenantFaultPlan, TenantPlan, TenantRun, TenantSpec,
    TenantsConfig,
};
use hyperpath_sim::trace::Recorder;
use hyperpath_sim::{NopRecorder, PacketSim, WormholeSim};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[global_allocator]
static COUNTING_ALLOC: hyperpath_bench::CountingAlloc = hyperpath_bench::CountingAlloc;

/// Serializes this file's tests (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Attempts per measurement. Even with the tests serialized, the harness
/// allocates on its own thread while a test runs — spawning the next
/// test, collecting the last one's output — and that can only *add* to a
/// measured count. The code under test is deterministic, so its own count
/// repeats on every attempt: the fewest over a few attempts is that
/// count, and an allocation the code makes still fails the pin.
const ATTEMPTS: usize = 3;

/// The smallest of [`ATTEMPTS`] measurements.
fn fewest<T: Ord>(measure: impl FnMut() -> T) -> T {
    std::iter::repeat_with(measure).take(ATTEMPTS).min().expect("at least one attempt")
}

/// Records an allocation-counter snapshot at the end of every step.
struct StepAllocGuard {
    snaps: Vec<AllocStats>,
}

impl StepAllocGuard {
    fn with_capacity(cap: usize) -> Self {
        StepAllocGuard { snaps: Vec::with_capacity(cap) }
    }

    /// Checks that ≥ `min_steps` steps ran, then returns the first step
    /// that allocated as `(step, calls, bytes)`, or `None`.
    fn first_allocating_step(&self, engine: &str, min_steps: usize) -> Option<(usize, u64, u64)> {
        assert!(
            self.snaps.len() < self.snaps.capacity(),
            "{engine}: snapshot buffer overflowed — it would have allocated"
        );
        assert!(
            self.snaps.len() >= min_steps,
            "{engine}: only {} steps recorded, wanted >= {min_steps}",
            self.snaps.len()
        );
        self.snaps.windows(2).enumerate().find_map(|(i, w)| {
            let d = w[1].since(&w[0]);
            (d.calls, d.bytes).ne(&(0, 0)).then_some((i + 1, d.calls, d.bytes))
        })
    }
}

/// Asserts that some attempt of `run` recorded no allocating step.
fn assert_step_loop_allocation_free(engine: &str, run: impl FnMut() -> Option<(usize, u64, u64)>) {
    if let Some((step, calls, bytes)) = fewest(run) {
        panic!("{engine}: step {step} allocated {calls} time(s) / {bytes} byte(s)");
    }
}

/// Asserts that some attempt of the whole run `run` allocated nothing.
fn assert_run_allocation_free<T>(engine: &str, mut run: impl FnMut() -> T) {
    let d = fewest(|| {
        let (_, d) = measure_allocs(&mut run);
        (d.calls, d.bytes)
    });
    assert_eq!(d, (0, 0), "{engine}: a warmed run allocated {} call(s) / {} byte(s)", d.0, d.1);
}

impl Recorder for StepAllocGuard {
    fn record_step(&mut self, _step: u64, _busy_links: u64) {
        if self.snaps.len() < self.snaps.capacity() {
            self.snaps.push(AllocStats::now());
        }
    }
}

#[test]
fn counting_allocator_is_live_in_this_test_binary() {
    let _serial = serial();
    assert!(counting_allocator_installed());
}

#[test]
fn packet_step_loop_is_allocation_free() {
    let _serial = serial();
    let t1 = theorem1(8).expect("theorem 1");
    let mut sim = PacketSim::phase_workload(&t1.embedding, 8);
    sim.run(100_000, &mut NopRecorder); // warmup: one-time lazy setup out of the way
    assert_step_loop_allocation_free("PacketSim::run", || {
        let mut guard = StepAllocGuard::with_capacity(100_000);
        let report = sim.run(100_000, &mut guard);
        assert!(report.delivered > 0, "workload must actually route packets");
        guard.first_allocating_step("PacketSim::run", 5)
    });
    assert_run_allocation_free("PacketSim::run", || sim.run(100_000, &mut NopRecorder));
}

#[test]
fn wormhole_step_loop_is_allocation_free() {
    let _serial = serial();
    let copies = ccc_multi_copy(4).expect("Theorem 3");
    let host = copies.multi_copy.host;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut sim = WormholeSim::new(host);
    for (src, &dst) in random_permutation(&host, &mut rng).iter().enumerate() {
        let src = src as u64;
        if src != dst {
            sim.add_worm(&ecube_path(src, dst), 16);
        }
    }
    sim.run(100_000, &mut NopRecorder); // warmup
    assert_step_loop_allocation_free("WormholeSim::run", || {
        let mut guard = StepAllocGuard::with_capacity(100_000);
        let makespan = sim.run(100_000, &mut guard);
        assert!(makespan > 0, "workload must actually route worms");
        guard.first_allocating_step("WormholeSim::run", 20)
    });
    assert_run_allocation_free("WormholeSim::run", || sim.run(100_000, &mut NopRecorder));
}

/// The kernel `Ida::disperse` preallocates every buffer at exact size, so
/// its allocation-call count is a closed formula — not "small", exact:
/// the share vector, the one buffer holding all `k` byte planes, and two
/// per share (the exact-size data buffer and its `Bytes` promotion).
/// Growth reallocation anywhere breaks this pin.
#[test]
fn kernel_disperse_allocation_count_is_exact() {
    let _serial = serial();
    let message: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    for (w, k) in [(8usize, 4usize), (5, 2), (3, 3)] {
        let ida = Ida::new(w as u8, k as u8);
        let calls = fewest(|| {
            let (shares, d) = measure_allocs(|| ida.disperse(&message));
            assert_eq!(shares.len(), w);
            d.calls
        });
        let expected = (2 + 2 * w) as u64;
        assert_eq!(
            calls, expected,
            "disperse(w={w}, k={k}) made {calls} allocation calls, expected exactly {expected}"
        );
    }
    // k = 1 replication fast path: the share vector plus two per share.
    let ida = Ida::new(4, 1);
    let calls = fewest(|| measure_allocs(|| ida.disperse(&message)).1.calls);
    assert_eq!(calls, 1 + 2 * 4, "k=1 fast path must stay growth-free");
}

/// `Ida::reconstruct` selects its shares into a fixed stack array, so its
/// allocation-call count is a closed formula as well: for a non-empty
/// message, exactly 2 for `k ≥ 2` (the message and one scratch buffer
/// holding the augmented `k × 2k` inverse and all `k` output planes) and
/// 1 for `k = 1` (the message), whatever the share order, extras or
/// duplicates.
/// `Ida::reconstruct_into` on buffers that have already grown to those
/// sizes makes none.
#[test]
fn kernel_reconstruct_allocation_count_is_exact() {
    let _serial = serial();
    let message: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    for (w, k) in [(8usize, 4usize), (5, 3), (5, 2), (3, 3), (4, 1)] {
        let ida = Ida::new(w as u8, k as u8);
        let shares = ida.disperse(&message);
        // The last share twice, then every share backwards: selection
        // skips the duplicates and picks the first k distinct indices.
        let offered: Vec<_> =
            shares.last().into_iter().chain(shares.iter().rev()).cloned().collect();
        let calls = fewest(|| {
            let (out, d) = measure_allocs(|| ida.reconstruct(&offered));
            assert_eq!(out.expect("k distinct shares reconstruct"), message);
            d.calls
        });
        let expected = if k == 1 { 1 } else { 2 };
        assert_eq!(
            calls, expected,
            "reconstruct(w={w}, k={k}) made {calls} allocation calls, expected exactly {expected}"
        );
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        ida.reconstruct_into(&offered, &mut out, &mut scratch).expect("buffers grow");
        let calls = fewest(|| {
            let (res, d) =
                measure_allocs(|| ida.reconstruct_into(&offered, &mut out, &mut scratch));
            res.expect("k distinct shares reconstruct");
            assert_eq!(out, message);
            d.calls
        });
        assert_eq!(calls, 0, "reconstruct_into(w={w}, k={k}) on grown buffers made {calls} calls");
    }
}

/// A tenant engine on a `Q_6` host with a grid and a tree guest
/// (`Q_4` each) per window in `windows`, executed in `exec`.
fn tenant_engine(rounds: u32, windows: &[u64], exec: ExecMode) -> TenantEngine {
    let grid: Arc<dyn TenantPlan> = Arc::new(GridPlan::new(4, 2, 2, 3).expect("grid plan"));
    let tree: Arc<dyn TenantPlan> = Arc::new(BinomialTreePlan::new(4, 3).expect("tree plan"));
    let specs: Vec<TenantSpec> = windows
        .iter()
        .enumerate()
        .flat_map(|(i, &window)| {
            let id = 2 * i as u32;
            [
                TenantSpec { id, name: format!("grid-{id}"), window, plan: Arc::clone(&grid) },
                TenantSpec {
                    id: id + 1,
                    name: format!("tree-{}", id + 1),
                    window,
                    plan: Arc::clone(&tree),
                },
            ]
        })
        .collect();
    let cfg = TenantsConfig {
        host_dims: 6,
        capacity: 8,
        rounds,
        requests_per_round: 4,
        max_requeues: 2,
        seed: 1990,
        exec,
    };
    TenantEngine::new(cfg, &specs).expect("engine config is valid")
}

/// Both guests share window 0: one window group, so every round runs on
/// the calling thread.
fn single_group_engine(rounds: u32, exec: ExecMode) -> TenantEngine {
    let engine = tenant_engine(rounds, &[0], exec);
    assert_eq!(engine.num_groups(), 1, "fixture must stay single-group");
    engine
}

/// Guests in all four `Q_4` windows: four window groups, so under a
/// multi-worker pool every round runs on the parallel group dispatch.
fn four_group_engine(rounds: u32, exec: ExecMode) -> TenantEngine {
    let engine = tenant_engine(rounds, &[0, 1, 2, 3], exec);
    assert_eq!(engine.num_groups(), 4, "fixture must have four groups");
    engine
}

/// Steps `run` through all but its last round, then returns the last
/// round's allocation delta.
fn last_round_allocs(mut run: TenantRun<'_>, rounds: u32) -> (u64, u64) {
    for _ in 1..rounds {
        run.step_round();
    }
    let (_, d) = measure_allocs(|| run.step_round());
    assert!(run.finish().delivered_messages() > 0, "workload must actually deliver");
    (d.calls, d.bytes)
}

/// The tentpole claim for the pooled tenant engine: after warmup rounds
/// have grown every pooled buffer to its working size, a whole engine
/// round — request draws, ledger admission, arena phase execution, merge,
/// grading, release — performs **zero** heap allocation. Exact `(0, 0)`,
/// not "small": any growth reallocation in the round loop breaks this.
#[test]
fn tenant_round_loop_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = single_group_engine(8, ExecMode::Packet);
    let d = fewest(|| last_round_allocs(engine.begin(), 8));
    assert_eq!(d, (0, 0), "steady-state tenant round allocated {} call(s) / {} byte(s)", d.0, d.1);
}

/// Same pin for the plan-aware path: the memoized sparse-to-dense fault
/// projection makes the per-round cut sync a flag flip per group-local
/// fault, so a faulted steady-state round is also exactly allocation-free.
#[test]
fn planned_tenant_round_loop_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = single_group_engine(8, ExecMode::Packet);
    let mut plan = TenantFaultPlan::none();
    plan.cut_link(3);
    plan.outage(10, 1, 3);
    let d = fewest(|| last_round_allocs(engine.begin_planned(&plan, FaultRouting::Learned), 8));
    assert_eq!(d, (0, 0), "steady-state planned round allocated {} call(s) / {} byte(s)", d.0, d.1);
}

/// The parallel group dispatch keeps the pin: with two pool workers,
/// whole group rounds run on the persistent shim workers (started by the
/// warmup rounds), and a warmed round still allocates exactly nothing —
/// no per-call thread spawns, chunk vectors or result collection.
#[test]
fn parallel_tenant_round_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = four_group_engine(8, ExecMode::Packet);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
    let d = pool.install(|| fewest(|| last_round_allocs(engine.begin(), 8)));
    assert_eq!(
        d,
        (0, 0),
        "steady-state parallel round allocated {} call(s) / {} byte(s)",
        d.0,
        d.1
    );
}

/// The planned parallel round: faults in two of the four windows.
#[test]
fn parallel_planned_tenant_round_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = four_group_engine(8, ExecMode::Packet);
    let mut plan = TenantFaultPlan::none();
    plan.cut_link(3); // base 0, dim 3: window 0
    plan.outage(16 * 6 + 1, 1, 3); // base 16, dim 1: window 1
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
    let d = pool.install(|| {
        fewest(|| last_round_allocs(engine.begin_planned(&plan, FaultRouting::Learned), 8))
    });
    assert_eq!(
        d,
        (0, 0),
        "steady-state parallel planned round allocated {} call(s) / {} byte(s)",
        d.0,
        d.1
    );
}

/// The execution mode the chaos tenant workload runs: one 16-flit worm
/// per committed path.
const WORMHOLE: ExecMode = ExecMode::Wormhole { flits: 16 };

/// A cut, an outage and a corrupting link in window 0, plus an outage in
/// window 1 and a corrupting link in window 2. Host link `node * 6 + d`
/// is `{node, node ^ 2^d}` on the `Q_6` host.
fn wormhole_plan() -> TenantFaultPlan {
    let mut plan = TenantFaultPlan::none();
    plan.cut_link(3);
    plan.outage(6 + 1, 1, 3);
    plan.corrupt_link(2 * 6);
    plan.outage(16 * 6 + 1, 2, 5);
    plan.corrupt_link(32 * 6 + 2);
    plan
}

/// The wormhole engine keeps the pin: a warmed planned round on the
/// wormhole arena (wait lists, calendar ring and ready set all reused)
/// allocates exactly nothing.
#[test]
fn wormhole_planned_tenant_round_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = single_group_engine(8, WORMHOLE);
    let plan = wormhole_plan();
    let d = fewest(|| last_round_allocs(engine.begin_planned(&plan, FaultRouting::Learned), 8));
    assert_eq!(
        d,
        (0, 0),
        "steady-state wormhole round allocated {} call(s) / {} byte(s)",
        d.0,
        d.1
    );
}

/// The same on four window groups under a two-worker pool.
#[test]
fn parallel_wormhole_planned_tenant_round_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let engine = four_group_engine(8, WORMHOLE);
    let plan = wormhole_plan();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
    let d = pool.install(|| {
        fewest(|| last_round_allocs(engine.begin_planned(&plan, FaultRouting::Learned), 8))
    });
    assert_eq!(
        d,
        (0, 0),
        "steady-state parallel wormhole round allocated {} call(s) / {} byte(s)",
        d.0,
        d.1
    );
}

/// The kernel codec must beat the schoolbook reference on both allocation
/// calls and bytes while producing identical shares — the reference grows
/// its share buffers byte by byte; the kernel never grows anything.
#[test]
fn kernel_disperse_outallocates_the_schoolbook_reference() {
    let _serial = serial();
    let message: Vec<u8> = (0..4096u32).map(|i| (i * 17 % 253) as u8).collect();
    let ida = Ida::new(8, 4);
    let (kernel_shares, dk) = measure_allocs(|| ida.disperse(&message));
    let (reference_shares, dr) = measure_allocs(|| ida.disperse_reference(&message));
    assert_eq!(kernel_shares, reference_shares, "codecs must agree byte-for-byte");
    assert!(
        dk.calls < dr.calls && dk.bytes < dr.bytes,
        "kernel disperse ({} calls / {} bytes) must allocate strictly less than the \
         reference ({} calls / {} bytes)",
        dk.calls,
        dk.bytes,
        dr.calls,
        dr.bytes
    );
}
