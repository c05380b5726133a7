//! An exact oracle for the Gray-code column of E12 and E18.
//!
//! Every Gray bundle is the single direct link between `gray(t)` and
//! `gray(t + 1)`, and no two bundles share a link: the `2^n` bundles are
//! `2^n` distinct links. With each link failing independently with
//! probability `p`, "every bundle keeps its path" therefore has probability
//! exactly `(1 − p)^{2^n}`. A `gray_w1` cell is the mean of `T` independent
//! trials of that event, so by Hoeffding's inequality it lies within
//! `sqrt(ln(2/δ) / (2T))` of the exact value except with probability `δ`.
//!
//! The oracle shares no code and no random draws with either kernel: it
//! checks E12's 256-lane compat draw and E18's streamed fold against
//! arithmetic alone, where the equality suites can only compare the kernels
//! with scalar code that consumes the same draws.

use hyperpath_bench::experiments::{e12_faults_with_threads, e18_scale_with_threads};
use hyperpath_bench::{Json, SweepOutput};

/// Per-cell failure probability of the bound.
const DELTA: f64 = 1e-6;

fn field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).expect("record field")
}

/// Checks every `gray_w1` cell of `out` against `(1 − p)^{2^n}`.
fn check_gray_cells(out: &SweepOutput, trials: u32) {
    let margin = ((2.0 / DELTA).ln() / (2.0 * f64::from(trials))).sqrt();
    assert!(!out.records.is_empty());
    for rec in &out.records {
        let (n, p) = (field(&rec.params, "n"), field(&rec.params, "p"));
        let exact = (1.0 - p).powf(n.exp2());
        let got = field(&rec.result, "gray_w1");
        assert!(
            (got - exact).abs() <= margin,
            "{} n={n} p={p}: gray_w1 {got} is more than {margin:.4} from the exact {exact:.4}",
            out.experiment
        );
    }
}

#[test]
fn e12_gray_column_matches_the_exact_survival_probability() {
    let trials = 2048;
    let (_, out) = e12_faults_with_threads(&[8, 10], trials, 0x9a11_0e12, None);
    check_gray_cells(&out, trials);
}

#[test]
fn e18_gray_column_matches_the_exact_survival_probability() {
    let trials = 4096;
    let (_, out) = e18_scale_with_threads(&[8, 10, 12], trials, 0x9a11_0e18, None);
    check_gray_cells(&out, trials);
}
