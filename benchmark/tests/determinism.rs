//! Every workload, at the op count its digest covers: the digest and the
//! delivered fraction must not depend on the thread count or on tracing,
//! and every correctness check must pass.

use hyperbench::{run_workload, Budget, RunResult, Workload};
use hyperpath_bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn check(w: Workload) {
    let budget = Budget::ops(w.digest_ops());
    let one = run_workload(w, 7, budget, 1, false);
    let two = run_workload(w, 7, budget, 2, false);
    let traced = run_workload(w, 7, budget, 2, true);
    for (r, label) in [(&one, "1 thread"), (&two, "2 threads"), (&traced, "traced")] {
        assert!(r.correct(), "{} ({label}): {:?}", w.name(), r.errors);
        assert!(r.attempted >= w.digest_ops(), "{} ({label}) made too few ops", w.name());
    }
    assert_eq!(one.digest, two.digest, "{}: digest depends on the thread count", w.name());
    let delivered =
        |r: &RunResult| r.metrics.iter().find(|m| m.name == "delivered_frac").map(|m| m.value);
    assert_eq!(delivered(&one), delivered(&two), "{}: delivered_frac depends on threads", w.name());
    assert_eq!(two.digest, traced.digest, "{}: digest depends on tracing", w.name());
    assert!(traced.spans.iter().any(|s| s.name == "harness.op"), "{}: no op spans", w.name());
    let other_seed = run_workload(w, 8, budget, 2, false);
    assert_ne!(two.digest, other_seed.digest, "{}: digest ignores the seed", w.name());
}

#[test]
fn tenants_steady() {
    check(Workload::TenantsSteady);
}

#[test]
fn tenants_chaos() {
    check(Workload::TenantsChaos);
}

#[test]
fn delivery_small() {
    check(Workload::DeliverySmall);
}

#[test]
fn delivery_large() {
    check(Workload::DeliveryLarge);
}

#[test]
fn fault_mc() {
    check(Workload::FaultMc);
}
