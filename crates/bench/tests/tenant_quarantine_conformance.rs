//! Learned-vs-omniscient conformance for the tenant engine's quarantine
//! (the `sim::tenants` mirror of `adaptive_conformance.rs`).
//!
//! On a **static fail-stop** plan at ample capacity, ledger-learned
//! quarantine must grade every tenant exactly like omniscient
//! `hazard`-set routing: a dead link NACKs every phase that commits a
//! path across it, an alive link always ACKs, so the learned ledger
//! converges on the true hazard set and a message's fate — full,
//! degraded, recovered, lost — depends only on how many of its bundle's
//! paths are alive, which the oracle knows from round 0. Pacing fields
//! (`requeues`) and share-level counters legitimately differ: the
//! learned ledger commits a dead path once before learning it is dead,
//! and its backoff spreads retries differently. The comparable tuple is
//! pinned here over seed-pinned random plans.

use std::sync::Arc;

use hyperpath_sim::tenants::{
    ExecMode, FaultRouting, FlowStats, TenantEngine, TenantFaultPlan, TenantPlan, TenantSpec,
    TenantsConfig,
};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan};

/// Four tenants in four distinct `Q_4` windows of `Q_6` — disjoint
/// link sets, so ample capacity makes per-tenant outcomes a pure
/// function of the plan.
fn conformance_roster() -> Vec<TenantSpec> {
    (0..4u32)
        .map(|i| {
            let plan: Arc<dyn TenantPlan> = if i % 2 == 0 {
                Arc::new(GridPlan::new(4, 2, 2, 3).unwrap())
            } else {
                Arc::new(BinomialTreePlan::new(4, 3).unwrap())
            };
            TenantSpec { id: i, name: format!("t-{i}"), window: u64::from(i), plan }
        })
        .collect()
}

/// A seed-pinned static fail-stop plan: each undirected `Q_6` link is
/// cut with probability ~1/16 (xorshift over the seed word).
fn static_plan(mut seed: u64) -> TenantFaultPlan {
    let mut plan = TenantFaultPlan::none();
    for base in 0..64u64 {
        for d in 0..6u32 {
            if base & (1 << d) == 0 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                if seed.is_multiple_of(16) {
                    plan.cut_link(base * 6 + u64::from(d));
                }
            }
        }
    }
    plan
}

/// The outcome tuple learned routing must reproduce exactly.
fn grade_key(s: &FlowStats) -> (u64, u64, u64, u64, u64, u64) {
    (s.requested, s.full, s.degraded, s.lost, s.recovered, s.delivered_messages())
}

#[test]
fn learned_quarantine_matches_the_omniscient_oracle_on_static_plans() {
    let cfg = TenantsConfig {
        host_dims: 6,
        capacity: 64, // ample: admission never rejects for congestion
        rounds: 6,
        requests_per_round: 4,
        max_requeues: 2,
        seed: 0x51A7_1CF5,
        exec: ExecMode::Packet,
    };
    let engine = TenantEngine::new(cfg, &conformance_roster()).unwrap();
    let mut plans_with_faults = 0u32;
    for trial in 0..100u64 {
        let plan = static_plan(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(trial + 1));
        assert!(plan.is_static_fail_stop());
        let learned = engine.run_planned(&plan, FaultRouting::Learned);
        let omni = engine.run_planned(&plan, FaultRouting::Omniscient);
        for (a, b) in learned.tenants.iter().zip(&omni.tenants) {
            assert_eq!(
                grade_key(&a.stats),
                grade_key(&b.stats),
                "trial {trial}: learned routing graded tenant {} unlike the oracle \
                 (learned {:?} vs omniscient {:?})",
                a.id,
                a.stats,
                b.stats,
            );
        }
        // The ledger only ever quarantines genuine hazards, and the
        // oracle (which never commits a dead path) never NACKs at all.
        assert!(learned.quarantined.iter().all(|&l| plan.is_hazard(l)), "trial {trial}");
        assert!(omni.quarantined.is_empty(), "trial {trial}: the oracle has nothing to learn");
        if plan.cut_count() > 0 {
            plans_with_faults += 1;
        }
    }
    assert!(plans_with_faults >= 90, "the sweep must actually draw faulty plans");
}

#[test]
fn learned_quarantine_converges_on_a_dead_links_first_hop() {
    // Pin the state machine end to end on one hand-built plan: cut every
    // link of window 0, so tenant 0's every committed path NACKs its
    // first hop. After QUARANTINE_STRIKES consecutive failed phases the
    // ledger must be quarantining — and everything it quarantines must
    // be one of the cut links.
    let mut plan = TenantFaultPlan::none();
    for base in 0..16u64 {
        for d in 0..4u32 {
            if base & (1 << d) == 0 {
                plan.cut_link(base * 6 + u64::from(d));
            }
        }
    }
    let cfg = TenantsConfig {
        host_dims: 6,
        capacity: 64,
        rounds: 6,
        requests_per_round: 4,
        max_requeues: 1,
        seed: 7,
        exec: ExecMode::Packet,
    };
    let engine = TenantEngine::new(cfg, &conformance_roster()).unwrap();
    let learned = engine.run_planned(&plan, FaultRouting::Learned);
    let omni = engine.run_planned(&plan, FaultRouting::Omniscient);
    assert!(!learned.quarantined.is_empty(), "repeated NACKs must trigger quarantine");
    assert!(learned.quarantined.iter().all(|&l| plan.is_hazard(l)));
    // Tenant 0 loses everything either way; the other windows are clean.
    for (a, b) in learned.tenants.iter().zip(&omni.tenants) {
        assert_eq!(grade_key(&a.stats), grade_key(&b.stats), "tenant {}", a.id);
    }
    assert_eq!(learned.tenants[0].stats.lost, learned.tenants[0].stats.requested);
    for t in &learned.tenants[1..] {
        assert_eq!(t.stats.lost, 0, "tenant {} must be untouched", t.id);
    }
}
