//! The fault-aware tenant engine's compatibility contract.
//!
//! Two properties gate the PR that threaded fault plans through
//! `sim::tenants`:
//!
//! 1. **Empty-plan bit-identity** — running under an empty
//!    [`TenantFaultPlan`] (either routing) must reproduce the plan-free
//!    engine byte for byte: every per-tenant stat, the per-tenant RNG
//!    streams behind them, the step total, and the ledger summary
//!    (property-tested over random rosters, capacities, and exec modes).
//! 2. **Arrival-order independence under faults** — shuffling the spec
//!    list changes nothing even when links are cut, flapping, and
//!    corrupting: admission, ACK/NACK learning, and the backoff queue
//!    are all keyed by tenant id, not list position.

use std::sync::Arc;

use hyperpath_sim::tenants::{
    ExecMode, FaultRouting, TenantEngine, TenantFaultPlan, TenantSpec, TenantsConfig,
};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan};
use proptest::prelude::*;

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

/// Decodes proptest draws into a host fault plan on `Q_6`: each word
/// names an undirected link plus a fault kind (permanent cut, timed cut,
/// two-round outage, or corruption).
fn plan_from(faults: &[(u8, u8, u8)]) -> TenantFaultPlan {
    let mut plan = TenantFaultPlan::none();
    for &(node, dim, kind) in faults {
        let d = u32::from(dim) % 6;
        let base = (u64::from(node) % 64) & !(1u64 << d);
        let link = base * 6 + u64::from(d);
        match kind % 4 {
            0 => plan.cut_link(link),
            1 => plan.cut_link_at(u32::from(kind / 4) % 3, link),
            2 => {
                let from = u32::from(kind / 4) % 3;
                plan.outage(link, from, from + 2);
            }
            _ => plan.corrupt_link(link),
        }
    }
    plan
}

fn exec_mode(pick: u8) -> ExecMode {
    match pick % 3 {
        0 => ExecMode::Packet,
        1 => ExecMode::Wormhole { flits: 2 },
        _ => ExecMode::Structural,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An empty fault plan is invisible: both routings reproduce the
    /// plan-free engine byte for byte — same grades, same requeues, same
    /// steps, same ledger, and (because `requested` totals and every
    /// grade match exactly) the same per-tenant request streams.
    #[test]
    fn empty_plan_is_byte_identical_to_the_plan_free_engine(
        picks in proptest::collection::vec(0u8..8, 2..7),
        capacity in 1u32..4,
        exec_pick in 0u8..3,
        seed in 0u64..1 << 48,
    ) {
        let cfg = TenantsConfig {
            host_dims: 6,
            capacity,
            rounds: 3,
            requests_per_round: 4,
            max_requeues: 1,
            seed,
            exec: exec_mode(exec_pick),
        };
        let engine = TenantEngine::new(cfg, &roster(&picks)).unwrap();
        let plain = engine.run();
        let none = TenantFaultPlan::none();
        let learned = engine.run_planned(&none, FaultRouting::Learned);
        prop_assert_eq!(&learned, &plain, "Learned routing under the empty plan diverged");
        let omni = engine.run_planned(&none, FaultRouting::Omniscient);
        prop_assert_eq!(&omni, &plain, "Omniscient routing under the empty plan diverged");
    }

    /// Shuffling the spec list changes nothing under faults: admission,
    /// quarantine learning, and the backoff queue are keyed by tenant id.
    #[test]
    fn reports_are_arrival_order_independent_under_faults(
        picks in proptest::collection::vec(0u8..8, 2..7),
        faults in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..24),
        shuffle_seed in 0u64..u64::MAX,
        capacity in 1u32..4,
        learned in any::<bool>(),
    ) {
        let cfg = TenantsConfig {
            host_dims: 6,
            capacity,
            rounds: 4,
            requests_per_round: 4,
            max_requeues: 2,
            seed: 42,
            exec: ExecMode::Packet,
        };
        let plan = plan_from(&faults);
        let routing = if learned { FaultRouting::Learned } else { FaultRouting::Omniscient };
        let canonical = roster(&picks);
        let mut shuffled = canonical.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let a = TenantEngine::new(cfg.clone(), &canonical).unwrap().run_planned(&plan, routing);
        let b = TenantEngine::new(cfg, &shuffled).unwrap().run_planned(&plan, routing);
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(&a.ledger, &b.ledger);
        prop_assert_eq!(&a.quarantined, &b.quarantined);
        prop_assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            prop_assert_eq!(x.id, y.id, "reports come back in id order");
            prop_assert_eq!(&x.stats, &y.stats);
        }
    }
}
