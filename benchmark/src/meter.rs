//! The closed-loop harness's clock: per-op latency, wall and CPU time,
//! allocation counts, and the report digest.

use std::fmt::{self, Write as _};
use std::time::Instant;

use hyperpath_bench::AllocStats;

use crate::trace::Tracer;
use crate::Budget;

/// Times a closed loop: op `i + 1` starts only after op `i` returns.
pub(crate) struct Meter {
    budget: Budget,
    start: Instant,
    cpu0: f64,
    lat_ns: Vec<u64>,
    alloc: AllocStats,
}

/// What one measured loop did.
pub(crate) struct Loop {
    /// Op latencies, ascending.
    pub lat_ns: Vec<u64>,
    /// Wall time from the first op's start to the last op's end, including
    /// the harness's own work between ops.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the same interval.
    pub cpu_s: f64,
    /// Allocations made inside ops.
    pub alloc: AllocStats,
}

impl Meter {
    pub fn start(budget: &Budget) -> Self {
        Meter {
            budget: *budget,
            start: Instant::now(),
            cpu0: cpu_seconds(),
            lat_ns: Vec::new(),
            alloc: AllocStats::default(),
        }
    }

    /// Ops completed so far.
    pub fn done(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Whether the budget asks for another op.
    pub fn more(&self) -> bool {
        self.done() < self.budget.min_ops
            || self.start.elapsed().as_secs_f64() < self.budget.seconds
    }

    /// Runs op number [`Meter::done`] inside a `harness.op` span.
    pub fn op<R>(&mut self, tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        tr.enter("harness.op", Some(self.done()));
        let a0 = AllocStats::now();
        let t0 = Instant::now();
        let out = f(tr);
        let dt = t0.elapsed();
        let da = AllocStats::now().since(&a0);
        tr.exit();
        self.lat_ns.push(u64::try_from(dt.as_nanos()).expect("op shorter than 584 years"));
        self.alloc.calls += da.calls;
        self.alloc.bytes += da.bytes;
        out
    }

    pub fn stop(mut self) -> Loop {
        let wall_s = self.start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - self.cpu0;
        self.lat_ns.sort_unstable();
        Loop { lat_ns: self.lat_ns, wall_s, cpu_s, alloc: self.alloc }
    }
}

impl Loop {
    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Nearest-rank percentile `q ∈ (0, 1]` of the op latency, in ms.
    pub fn pct_ms(&self, q: f64) -> f64 {
        if self.lat_ns.is_empty() {
            return f64::NAN;
        }
        let rank = (q * self.lat_ns.len() as f64).ceil() as usize;
        self.lat_ns[rank.clamp(1, self.lat_ns.len()) - 1] as f64 / 1e6
    }

    pub fn p50_ms(&self) -> f64 {
        self.pct_ms(0.5)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops() as f64
    }

    pub fn alloc_calls_per_op(&self) -> f64 {
        self.alloc.calls as f64 / self.ops() as f64
    }

    pub fn alloc_bytes_per_op(&self) -> f64 {
        self.alloc.bytes as f64 / self.ops() as f64
    }
}

/// FNV-1a over everything written to it; reports feed it their `Debug`
/// text without building a string.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, value: &impl fmt::Debug) {
        write!(self, "{value:?}").expect("hashing cannot fail");
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Set-up builds per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_MIN_SECONDS` of building or `SETUP_MAX_REPS` builds, so that a
/// set-up of a few microseconds still yields a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 1000;

/// Builds the pre-op state repeatedly inside `setup` spans and returns the
/// last build with the median build time in seconds. Each earlier build is
/// dropped before the next starts, untimed.
pub(crate) fn setup_reps<S>(tr: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> S) -> (S, f64) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECONDS && secs.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        tr.enter("setup", None);
        let t0 = Instant::now();
        let s = build(tr);
        secs.push(t0.elapsed().as_secs_f64());
        tr.exit();
        last = Some(s);
    }
    (last.expect("at least one set-up rep"), median(&mut secs))
}

/// Median of `xs` (mean of the two central values for even lengths).
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed
/// at 100 in the Linux ABI).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system time of the whole process (every thread, live or joined)
/// from `/proc/self/stat`, in seconds.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // `comm` (field 2) may hold spaces, so count fields after its closing
    // parenthesis: `utime` and `stime` are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (next(), next()) {
        (Some(utime), Some(stime)) => (utime + stime) as f64 / CLOCK_TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.write_str("a").unwrap();
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let lp = Loop {
            lat_ns: (1..=100).map(|i| i * 1_000_000).collect(),
            wall_s: 1.0,
            cpu_s: 0.5,
            alloc: AllocStats::default(),
        };
        assert_eq!(lp.p50_ms(), 50.0);
        assert_eq!(lp.pct_ms(0.99), 99.0);
        assert_eq!(lp.cpu_ms_per_op(), 5.0);
    }

    #[test]
    fn procfs_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
