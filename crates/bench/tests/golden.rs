//! Golden-output tests: the deterministic construction tables printed by
//! `e2_theorem1` and `e7_ccc_copies` are snapshotted at small `n`. A diff
//! here means a theorem construction changed observable behavior — update
//! the `tests/golden/*.txt` snapshot only if that change is intentional
//! (regenerate with `cargo run -p hyperpath-bench --bin e2_theorem1` etc.).
//!
//! Two delivery artifacts are snapshotted the same way: the E16 sweep JSON
//! at `n = 6` (the adaptive protocol against the omniscient oracle) and the
//! `Debug` text of the chaos harness's smoke run at seed 42 (every engine
//! and both delivery protocols under random fault plans). A diff there
//! means a delivery loop, an engine or a fault draw changed what it
//! reports.
//!
//! The two tenant sweeps are pinned whole: the E19 and E21 artifacts
//! that `e19_saturation --json` and `e21_chaos_tenants --json` write at
//! their default grids and seed 1990. CI's determinism job only compares
//! them across thread counts, which a change moving every count alike
//! passes; a diff here means admission, the ledger, a tenant phase or the
//! quarantine learning changed what the sweeps report.

use hyperpath_bench::experiments::{
    butterfly_copies_table, ccc_copies_table, e16_adaptive, e19_saturation, e21_chaos_tenants,
    theorem1_table,
};
use hyperpath_sim::chaos::{run_chaos, ChaosConfig};

#[test]
fn e2_theorem1_small_table_matches_golden() {
    let got = theorem1_table(4..=8).render();
    let want = include_str!("golden/e2_theorem1_small.txt");
    assert_eq!(got, want, "theorem1 table changed; see tests/golden/e2_theorem1_small.txt");
}

#[test]
fn e7_ccc_copies_small_table_matches_golden() {
    let got = ccc_copies_table(&[4, 8]).render();
    let want = include_str!("golden/e7_ccc_copies_small.txt");
    assert_eq!(got, want, "CCC copies table changed; see tests/golden/e7_ccc_copies_small.txt");
}

#[test]
fn e7_butterfly_copies_small_table_matches_golden() {
    let got = butterfly_copies_table(&[4, 8]).render();
    let want = include_str!("golden/e7_butterfly_small.txt");
    assert_eq!(
        got, want,
        "butterfly copies table changed; see tests/golden/e7_butterfly_small.txt"
    );
}

#[test]
fn e16_adaptive_n6_artifact_matches_golden() {
    let (_, out) = e16_adaptive(&[6], 20, 1616);
    let want = include_str!("golden/e16_adaptive_n6.json");
    assert_eq!(out.render(), want, "E16 artifact changed; see tests/golden/e16_adaptive_n6.json");
}

#[test]
fn e19_saturation_artifact_matches_golden() {
    let (_, out) = e19_saturation(&[2, 4, 6, 8, 10, 12], 1990);
    let want = include_str!("golden/e19_saturation_1990.json");
    assert_eq!(
        out.render(),
        want,
        "E19 artifact changed; see tests/golden/e19_saturation_1990.json"
    );
}

#[test]
fn e21_chaos_tenants_artifact_matches_golden() {
    let (_, out) = e21_chaos_tenants(&[0.0, 0.02, 0.05], &[2, 4, 8], 1990);
    let want = include_str!("golden/e21_chaos_tenants_1990.json");
    assert_eq!(
        out.render(),
        want,
        "E21 artifact changed; see tests/golden/e21_chaos_tenants_1990.json"
    );
}

#[test]
fn chaos_smoke_report_matches_golden() {
    let got = format!("{:#?}\n", run_chaos(&ChaosConfig::smoke(42)));
    let want = include_str!("golden/chaos_smoke_42.txt");
    assert_eq!(got, want, "chaos smoke report changed; see tests/golden/chaos_smoke_42.txt");
}
