//! Bounded-memory proof for the implicit-host streaming path at
//! `n = 20` (1M nodes): building the Theorem-1 plan plus one streamed
//! 64-trial evaluation stays far under the 1 GiB scale ceiling, and the
//! streaming loop itself — once the plan exists — performs **zero** heap
//! allocation.
//!
//! Integration tests are their own binaries, so the counting global
//! allocator installed here affects only this program (same discipline as
//! `alloc_zero.rs`). The zero-allocation leg snapshots the allocation
//! counters between serial `stream_bundles_ge_into` chunks into a
//! preallocated buffer and asserts every chunk-to-chunk delta is exactly
//! zero — which is precisely the property that lets `n = 20..=24` run in
//! bounded memory regardless of how many bundles stream past.
//!
//! The counters are process-global while the default harness runs tests
//! on parallel threads, so every test holds [`serial`]'s lock. The harness
//! still allocates on its own thread while a test runs, which can only
//! add to a delta; the streaming loop is deterministic, so the
//! zero-allocation leg passes on the first of [`ATTEMPTS`] clean runs.

use hyperpath_bench::gate::SCALE_PEAK_CEILING_BYTES;
use hyperpath_bench::{counting_allocator_installed, measure_peak, AllocStats};
use hyperpath_sim::bitslice::{stream_bundles_ge_into, IndexedTrials};
use hyperpath_topology::Theorem1Plan;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static COUNTING_ALLOC: hyperpath_bench::CountingAlloc = hyperpath_bench::CountingAlloc;

/// Runs of the zero-allocation leg before a dirty result fails it.
const ATTEMPTS: usize = 3;

/// Serializes this file's tests (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn counting_allocator_is_live_in_this_test_binary() {
    let _serial = serial();
    assert!(counting_allocator_installed());
}

#[test]
fn n20_plan_and_streamed_trial_fit_the_scale_ceiling() {
    let _serial = serial();
    let ((ok1, ok_half), peak) = measure_peak(|| {
        let plan = Theorem1Plan::new(20).expect("theorem 1 plan");
        let trials = IndexedTrials::new(0x5ca1e, 0.002, 64);
        let k_half = (plan.claimed_width() as usize).div_ceil(2);
        let mut acc = [trials.live_mask(); 2];
        // A 2^16-bundle subrange keeps debug-mode runtime in seconds; the
        // per-bundle cost is constant, so the peak is the same as a full
        // sweep's.
        stream_bundles_ge_into(&plan, &trials, &[1, k_half], 0..1 << 16, &mut acc);
        (acc[0].count_ones(), acc[1].count_ones())
    });
    // The estimator must have actually evaluated something.
    assert!(ok1 >= ok_half, "k=1 survival can never be rarer than k=k_half");
    assert!(ok1 > 0, "at p=0.002 some lane must survive a 2^16-bundle prefix");
    assert!(
        peak <= SCALE_PEAK_CEILING_BYTES,
        "n=20 peak {peak} bytes exceeds the {SCALE_PEAK_CEILING_BYTES}-byte scale ceiling"
    );
    // And in practice it is *megabytes*, not a near-miss of the ceiling:
    // the plan is O(2^{n/2}) words. Pin a generous 16 MiB so an O(2^n)
    // table can never slip under the 1 GiB acceptance bar unnoticed.
    assert!(peak <= 16 << 20, "n=20 peak {peak} bytes is no longer O(2^{{n/2}})");
}

#[test]
fn streaming_loop_is_allocation_free_after_plan_build() {
    let _serial = serial();
    let plan = Theorem1Plan::new(20).expect("theorem 1 plan");
    let trials = IndexedTrials::new(0xbeef, 0.01, 64);
    let k_half = (plan.claimed_width() as usize).div_ceil(2);
    let total = plan.num_bundles();

    // Warmup: one chunk, so any lazy one-time setup is out of the way.
    let mut acc = [trials.live_mask(); 2];
    stream_bundles_ge_into(&plan, &trials, &[1, k_half], 0..1024, &mut acc);

    const CHUNKS: usize = 64;
    let chunk = 1024u64;
    // The first chunk that allocated, as `(chunk, calls, bytes)`.
    let first_allocating_chunk = || {
        let mut snaps: Vec<AllocStats> = Vec::with_capacity(CHUNKS + 1);
        snaps.push(AllocStats::now());
        for c in 0..CHUNKS as u64 {
            let lo = (c * chunk) % total;
            let mut acc = [trials.live_mask(); 2];
            stream_bundles_ge_into(&plan, &trials, &[1, k_half], lo..lo + chunk, &mut acc);
            assert!(snaps.len() < snaps.capacity(), "snapshot push would allocate");
            snaps.push(AllocStats::now());
        }
        snaps.windows(2).enumerate().find_map(|(i, w)| {
            let d = w[1].since(&w[0]);
            (d.calls, d.bytes).ne(&(0, 0)).then_some((i, d.calls, d.bytes))
        })
    };
    let mut dirty = None;
    for _ in 0..ATTEMPTS {
        dirty = first_allocating_chunk();
        if dirty.is_none() {
            break;
        }
    }
    if let Some((i, calls, bytes)) = dirty {
        panic!("streaming chunk {i} allocated {calls} time(s) / {bytes} byte(s)");
    }
}
