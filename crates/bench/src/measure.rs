//! Measurement core for the perf-regression harness: a counting global
//! allocator and warmup/median-of-k wall-clock timing.
//!
//! The harness separates two kinds of measurement:
//!
//! * **Deterministic counters** — allocation calls/bytes and the
//!   [`CountingRecorder`](hyperpath_sim::CountingRecorder) work counters
//!   (steps, packet-hops, queue pushes, flit moves). For a fixed workload
//!   these are pure functions of the code's behavior: identical on every
//!   machine, every thread count, every run. The bench gate compares them
//!   **exactly** — any drift is a semantic or allocation-profile change.
//! * **Wall-clock** — [`median_wall_ns`] medians over `k` timed reps after
//!   warmup. Machine-dependent by nature, so the gate only applies a
//!   tolerance band as a catastrophic-regression tripwire.
//!
//! [`CountingAlloc`] wraps the system allocator with relaxed atomic
//! counters: cumulative calls/bytes always, plus a live-byte watermark
//! ([`measure_peak`]) that the memory-scaling gate pins. Watermark
//! bookkeeping is flag-gated and off outside [`measure_peak`] windows, so
//! the steady-state per-allocation cost (two relaxed `fetch_add`s and one
//! relaxed flag load) stays flat — the wall-clock speedup floors the gate
//! enforces are measured under this same allocator, and always-on
//! watermark updates were observed to compress kernel-vs-reference ratios
//! on small workloads. It is installed as the `#[global_allocator]` by
//! every program that reads the counters: the `perf_suite` / `bench_gate`
//! binaries, the `alloc_zero` and `scale_stream` tests, and `hyperbench`
//! (each is its own program, so each installs its own). Code that reads
//! the counters must first check [`counting_allocator_installed`] —
//! without the installation the counters simply never move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
// Live-byte watermark state, active only inside a `measure_peak` window.
// `LIVE_DELTA` is live bytes relative to the window start — signed,
// because the closure may free memory that predates the window.
static PEAK_TRACKING: AtomicBool = AtomicBool::new(false);
static LIVE_DELTA: AtomicI64 = AtomicI64::new(0);
static PEAK_DELTA: AtomicI64 = AtomicI64::new(0);

#[inline]
fn live_add(size: u64) {
    if PEAK_TRACKING.load(Ordering::Relaxed) {
        let cur = LIVE_DELTA.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK_DELTA.fetch_max(cur, Ordering::Relaxed);
    }
}

#[inline]
fn live_sub(size: u64) {
    if PEAK_TRACKING.load(Ordering::Relaxed) {
        LIVE_DELTA.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

/// A `GlobalAlloc` that counts every allocation call and requested byte
/// before delegating to the system allocator, and — inside a
/// [`measure_peak`] window — additionally tracks the live-byte watermark
/// (deallocation subtracts from the live count but never rewinds the
/// recorded peak).
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        live_add(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        live_add(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        live_sub(layout.size() as u64);
        live_add(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_sub(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counters at one instant, or the difference of two instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`).
    pub calls: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// The process-lifetime counters right now.
    pub fn now() -> AllocStats {
        AllocStats {
            calls: ALLOC_CALLS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counter movement since `earlier`.
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            calls: self.calls.wrapping_sub(earlier.calls),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Whether [`CountingAlloc`] is this program's global allocator (probes
/// with a real allocation and checks the counter moved).
pub fn counting_allocator_installed() -> bool {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let probe: Vec<u8> = std::hint::black_box(Vec::with_capacity(1));
    drop(probe);
    ALLOC_CALLS.load(Ordering::Relaxed) != before
}

/// Runs `f` and returns its result plus the allocations it performed.
/// Meaningful only when [`counting_allocator_installed`] — otherwise the
/// stats are zero.
pub fn measure_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = AllocStats::now();
    let out = f();
    let after = AllocStats::now();
    (out, after.since(&before))
}

/// Runs `f` and returns its result plus the peak number of bytes `f` held
/// live *above* what was already live when it started.
///
/// Watermark bookkeeping is enabled only for the duration of the call (so
/// the allocator's steady-state overhead — and with it the gate's
/// wall-clock speedup ratios — is unaffected by this feature existing).
/// Because the watermark is a single global, concurrent allocations from
/// other threads would bleed into the figure and nested calls would reset
/// the outer window — call this only from single-threaded, non-nested
/// measurement regions (the perf suite and the scale tests do).
/// Meaningful only when [`counting_allocator_installed`].
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE_DELTA.store(0, Ordering::Relaxed);
    PEAK_DELTA.store(0, Ordering::Relaxed);
    PEAK_TRACKING.store(true, Ordering::Relaxed);
    let out = f();
    PEAK_TRACKING.store(false, Ordering::Relaxed);
    let peak = PEAK_DELTA.load(Ordering::Relaxed);
    (out, u64::try_from(peak).unwrap_or(0))
}

/// Times `f`: `warmup` unmeasured calls, then `reps` measured calls, and
/// returns the median elapsed nanoseconds (odd `reps` give a true median;
/// even give the lower of the two central reps).
///
/// # Panics
/// Panics if `reps` is zero.
pub fn median_wall_ns<R>(warmup: u32, reps: u32, mut f: impl FnMut() -> R) -> u64 {
    assert!(reps > 0, "median of zero reps");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_stats_subtract() {
        let a = AllocStats { calls: 10, bytes: 100 };
        let b = AllocStats { calls: 4, bytes: 40 };
        assert_eq!(a.since(&b), AllocStats { calls: 6, bytes: 60 });
    }

    #[test]
    fn measure_allocs_returns_closure_result() {
        let (v, stats) = measure_allocs(|| vec![1u8, 2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
        // Without the global allocator installed the stats stay zero; with
        // it they count at least the Vec. Both are valid here — the strict
        // assertions live in tests/alloc_zero.rs where the allocator IS
        // installed.
        if counting_allocator_installed() {
            assert!(stats.calls >= 1);
            assert!(stats.bytes >= 3);
        } else {
            assert_eq!(stats, AllocStats::default());
        }
    }

    #[test]
    fn measure_peak_tracks_transient_highs() {
        let (_, peak) = measure_peak(|| {
            let big = std::hint::black_box(vec![0u8; 1 << 16]);
            drop(big);
            std::hint::black_box(vec![0u8; 16])
        });
        if counting_allocator_installed() {
            // The transient 64 KiB shows up even though it was freed
            // before the closure returned.
            assert!(peak >= 1 << 16, "peak {peak} missed the transient");
        } else {
            assert_eq!(peak, 0);
        }
    }

    #[test]
    fn measure_peak_survives_frees_of_pre_window_memory() {
        // Freeing memory allocated before the window drives the live delta
        // negative; the reported peak must clamp at zero, not wrap.
        let pre = std::hint::black_box(vec![0u8; 1 << 12]);
        let (_, peak) = measure_peak(|| {
            drop(pre);
            std::hint::black_box(vec![0u8; 1 << 10])
        });
        assert!(peak < 1 << 12, "peak {peak} wrapped or counted pre-window bytes");
    }

    #[test]
    fn median_wall_ns_returns_a_sane_sample() {
        let ns = median_wall_ns(1, 5, || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert!(ns > 0, "a real computation takes nonzero time");
        assert!(ns < 1_000_000_000, "and far less than a second");
    }

    #[test]
    #[should_panic]
    fn median_of_zero_reps_panics() {
        median_wall_ns(0, 0, || ());
    }
}
