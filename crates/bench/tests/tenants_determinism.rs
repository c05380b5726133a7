//! Determinism of the multi-tenant engine and its E19 sweep.
//!
//! Two properties gate the `BENCH_E19_SATURATION.json` artifact:
//!
//! 1. **Worker-count independence** — the sweep's records, rendered JSON,
//!    and printed table are byte-identical on 1 vs 4 rayon workers (the
//!    engine is sequential per point and every point owns a ChaCha
//!    stream).
//! 2. **Arrival-order independence** — the ledger's admission decisions
//!    are keyed by tenant id, not list position: shuffling the spec
//!    vector arbitrarily must reproduce every per-tenant stat, the phase
//!    step total, and the ledger summary exactly (property-tested over
//!    random rosters and permutations).

use std::sync::Arc;

use hyperpath_bench::experiments::{e19_saturation_with_threads, e19_specs};
use hyperpath_bench::Json;
use hyperpath_sim::tenants::{ExecMode, TenantEngine, TenantSpec, TenantsConfig};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan};
use proptest::prelude::*;

#[test]
fn e19_sweep_is_identical_on_1_and_4_threads() {
    let counts = [2u32, 5];
    let (t1, out1) = e19_saturation_with_threads(&counts, 1990, Some(1));
    let (t4, out4) = e19_saturation_with_threads(&counts, 1990, Some(4));
    assert_eq!(out1, out4, "sweep records must not depend on the worker count");
    assert_eq!(out1.render(), out4.render(), "JSON artifact must be byte-identical");
    assert_eq!(t1.render(), t4.render(), "printed table must be identical");
    let json = out1.to_json();
    assert_eq!(json.get("points").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("master_seed").and_then(Json::as_u64), Some(1990));
}

#[test]
fn e19_roster_cycles_all_four_plan_kinds() {
    let specs = e19_specs(8);
    assert_eq!(specs.len(), 8);
    for (i, s) in specs.iter().enumerate() {
        assert_eq!(s.id, i as u32);
        assert_eq!(s.window, (i % 4) as u64);
    }
    let kinds: Vec<&str> = specs.iter().map(|s| s.name.split('-').next().unwrap()).collect();
    assert_eq!(&kinds[..4], &["t1cycle", "t2cycle", "grid", "tree"]);
    assert_eq!(&kinds[..4], &kinds[4..8], "kinds cycle with period 4");
}

/// A small heterogeneous roster: `picks[i]` selects plan kind and window
/// for tenant id `i` (windows deliberately collide to exercise admission
/// under contention).
fn roster(picks: &[u8]) -> Vec<TenantSpec> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let plan: Arc<dyn hyperpath_sim::tenants::TenantPlan> = if p % 2 == 0 {
                Arc::new(GridPlan::new(4, 2, 2, 3).unwrap())
            } else {
                Arc::new(BinomialTreePlan::new(4, 3).unwrap())
            };
            TenantSpec { id: i as u32, name: format!("t-{i}"), window: u64::from(p / 2) % 4, plan }
        })
        .collect()
}

/// Fisher-Yates driven by one seed word.
fn shuffle(specs: &mut [TenantSpec], mut seed: u64) {
    for i in (1..specs.len()).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        specs.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shuffling the spec list changes nothing: admission is processed in
    /// canonical id order and request streams are keyed by id.
    #[test]
    fn admission_is_independent_of_arrival_order(
        picks in proptest::collection::vec(0u8..8, 2..7),
        shuffle_seed in 0u64..u64::MAX,
        capacity in 1u32..4,
    ) {
        let cfg = TenantsConfig {
            host_dims: 6,
            capacity,
            rounds: 3,
            requests_per_round: 4,
            max_requeues: 1,
            seed: 42,
            exec: ExecMode::Packet,
        };
        let canonical = roster(&picks);
        let mut shuffled = canonical.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let a = TenantEngine::new(cfg.clone(), &canonical).unwrap().run();
        let b = TenantEngine::new(cfg, &shuffled).unwrap().run();
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(&a.ledger, &b.ledger);
        prop_assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            prop_assert_eq!(x.id, y.id, "reports come back in id order");
            prop_assert_eq!(&x.stats, &y.stats);
        }
    }
}
