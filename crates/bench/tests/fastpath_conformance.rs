//! Conformance: the fail-stop fast path against the dispersal loop.
//!
//! [`deliver_phase_plan_outcome`] grades static fail-stop phases in closed
//! form from path survival, never running the dispersal loop or the
//! packet engine. These tests pin that shortcut to the loop, run under
//! the omniscient policy through the packet engine, four ways:
//!
//! * **property**: on random static fail-stop plans — every dimension
//!   `6..=10`, both guest cycle theorems (Theorem 1 and both Theorem 2
//!   variants), thresholds across the bundle width, retries on and off —
//!   the fast-path [`DeliveryOutcome`] equals the engine-backed report's
//!   [`outcome()`](hyperpath_sim::DeliveryReport::outcome) field for
//!   field, whether the plan was drawn cut by cut or built from its
//!   fault set ([`FaultPlan::from_set`]);
//! * **dynamic property**: on random dynamic plans the omniscient loop's
//!   grades are the closed form over the first round's arrivals, read
//!   from the packet engine's report: one retry round resends every
//!   missing share once over hazard-free paths, and all of them arrive;
//! * **lane-by-lane**: the 256-lane recovery words
//!   ([`SlicedPaths::all_bundles_recovered`] over a `BitTrialBlock<W256>`)
//!   that the E12 sweep popcounts agree with a per-lane engine run on
//!   every one of 256 shared fault draws — the kernel, the closed form,
//!   and the machine are one predicate;
//! * **fallback**: non-static inputs route through the engine, so the
//!   outcome entry points are total, not partial.
//!
//! [`FaultPlan::from_set`]: hyperpath_sim::FaultPlan::from_set
//! [`deliver_phase_plan_outcome`]: hyperpath_sim::delivery::deliver_phase_plan_outcome
//! [`DeliveryOutcome`]: hyperpath_sim::DeliveryOutcome
//! [`SlicedPaths::all_bundles_recovered`]: hyperpath_sim::SlicedPaths::all_bundles_recovered

use hyperpath_core::cycles::{theorem1, theorem2, Theorem2Variant};
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_sim::bitslice::{BitTrialBlock, LaneWord, SlicedPaths, W256};
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::delivery::{
    deliver_phase_plan_outcome, deliver_phase_plan_prepared, DeliveryConfig, EdgeOutcome,
};
use hyperpath_sim::faults::{random_fault_set, FaultPlan};
use hyperpath_sim::protocol::AdaptiveSetup;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The guest roster the property sweeps: Theorem 1 always exists for
/// `n ≥ 3`; the Theorem 2 variants exist only on their own dimension
/// classes, so `None` simply skips the draw.
fn embedding_for(n: u32, pick: usize) -> Option<MultiPathEmbedding> {
    match pick {
        0 => theorem1(n).ok().map(|r| r.embedding),
        1 => theorem2(n, Theorem2Variant::Cost3).ok().map(|r| r.embedding),
        _ => theorem2(n, Theorem2Variant::FullWidth).ok().map(|r| r.embedding),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_path_equals_engine_on_random_static_fail_stop_plans(
        seed in any::<u64>(),
        n in 6u32..=10,
        pick in 0usize..3,
        threshold in 1usize..=4,
        retries in 0u32..=2,
    ) {
        let Some(e) = embedding_for(n, pick) else {
            // This (n, theorem) pair does not exist; nothing to check.
            return Ok(());
        };
        let cfg = DeliveryConfig { threshold, max_retries: retries, message_len: 24 };
        let setup = AdaptiveSetup::new(&e, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let plan = random_plan(&e.host, true, &mut rng);
        prop_assert!(plan.is_static_fail_stop());

        let fast = deliver_phase_plan_outcome(&setup, &plan);
        let engine = deliver_phase_plan_prepared(&setup, &plan).outcome();
        prop_assert_eq!(&fast, &engine, "plan flavor: n={} pick={}", n, pick);

        // Same fault world, rebuilt from its fault set.
        let from_set = FaultPlan::from_set(plan.initial().clone());
        let fast_set = deliver_phase_plan_outcome(&setup, &from_set);
        let engine_set = deliver_phase_plan_prepared(&setup, &from_set).outcome();
        prop_assert_eq!(&fast_set, &engine_set, "from_set plan: n={} pick={}", n, pick);
        // A static plan is the same adversary however it was built.
        prop_assert_eq!(&fast, &fast_set);
    }
}

#[test]
fn recovered_words_match_engine_grades_lane_by_lane() {
    // One 256-lane compat block = 256 shared fault draws. For every lane,
    // threshold, and retry setting, the recovery word's bit must equal
    // the packet engine's `all_delivered()` on that lane's scalar draw —
    // the identity the E12 delivery columns rest on.
    let t1 = theorem1(6).unwrap();
    let host = t1.embedding.host;
    let paths = SlicedPaths::new(&t1.embedding);
    let w = t1.claimed_width;
    let p = 0.06;
    let seeds: Vec<u64> = (0..256u64).map(|i| 0xfa57_c0de ^ (i * 7919)).collect();
    let block = BitTrialBlock::<W256>::draw_compat(&host, p, &seeds);
    for k in [1usize, w.div_ceil(2), w] {
        for retries in [false, true] {
            let word = paths.all_bundles_recovered(&block, k, retries);
            let cfg = DeliveryConfig {
                threshold: k,
                max_retries: if retries { 2 } else { 0 },
                message_len: 16,
            };
            let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
            for (lane, &seed) in seeds.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = FaultPlan::from_set(random_fault_set(&host, p, &mut rng));
                let engine = deliver_phase_plan_prepared(&setup, &plan);
                let bit = word.lane(lane as u32);
                assert_eq!(bit, engine.all_delivered(), "lane {lane} k={k} retries={retries}");
            }
        }
    }
}

#[test]
fn fast_path_and_kernel_agree_with_engine_outcome_totals() {
    // The three representations of one predicate, on one draw: scalar
    // fast path, 256-lane kernel word, engine report.
    let t1 = theorem1(8).unwrap();
    let host = t1.embedding.host;
    let paths = SlicedPaths::new(&t1.embedding);
    let k = t1.claimed_width.div_ceil(2);
    let cfg = DeliveryConfig { threshold: k, max_retries: 2, message_len: 16 };
    let setup = AdaptiveSetup::new(&t1.embedding, &cfg);
    let seeds: Vec<u64> = (0..64u64).map(|i| 0xbeef ^ (i << 40) ^ i).collect();
    let block = BitTrialBlock::<W256>::draw_compat(&host, 0.08, &seeds);
    let word = paths.all_bundles_recovered(&block, k, true);
    for (lane, &seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::from_set(random_fault_set(&host, 0.08, &mut rng));
        let fast = deliver_phase_plan_outcome(&setup, &plan);
        let engine = deliver_phase_plan_prepared(&setup, &plan);
        assert_eq!(fast, engine.outcome(), "lane {lane}");
        let bit = word.lane(lane as u32);
        assert_eq!(bit, fast.all_delivered(), "lane {lane}");
        assert_eq!(fast.all_delivered(), engine.all_delivered(), "lane {lane}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn omniscient_grades_are_closed_form_over_round_zero(
        seed in any::<u64>(),
        n in 6u32..=10,
        pick in 0usize..3,
    ) {
        let Some(e) = embedding_for(n, pick) else {
            return Ok(());
        };
        let host = e.host;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let plan = random_plan(&host, false, &mut rng);
        let hazard = plan.hazard_set(&host);
        let w = e.width();
        for threshold in [1, w.div_ceil(2), w] {
            for retries in [0u32, 1, 3] {
                let at = format!("n={n} pick={pick} k={threshold} retries={retries}");
                let cfg = DeliveryConfig { threshold, max_retries: retries, message_len: 24 };
                let r = deliver_phase_plan_prepared(&AdaptiveSetup::new(&e, &cfg), &plan);
                // Round 0 ships every bundle path as one flow, in (edge,
                // path) order; a share arrived if delivered uncorrupted.
                let first = &r.initial;
                let mut flows = 0..first.flow_delivered.len();
                let mut resent = 0u64;
                for (eid, bundle) in e.edge_paths.iter().enumerate() {
                    let a0 = flows
                        .by_ref()
                        .take(bundle.len())
                        .filter(|&f| first.flow_delivered[f] == 1 && first.flow_corrupted[f] == 0)
                        .count();
                    let k = threshold.clamp(1, bundle.len());
                    let hazard_free = bundle.iter().any(|p| {
                        !p.is_empty() && p.edges().all(|edge| !hazard.is_failed(&host, edge))
                    });
                    let want = if a0 >= k {
                        EdgeOutcome::Delivered
                    } else if retries >= 1 && hazard_free {
                        resent += (bundle.len() - a0) as u64;
                        EdgeOutcome::Degraded { rounds: 1 }
                    } else {
                        EdgeOutcome::Lost { arrived: a0 }
                    };
                    prop_assert_eq!(r.edges[eid].first_round_arrivals, a0, "{} edge {}", at, eid);
                    prop_assert_eq!(r.edges[eid].outcome, want, "{} edge {}", at, eid);
                }
                prop_assert!(flows.next().is_none(), "{}: one flow per bundle path", at);
                prop_assert_eq!(r.shares_resent, resent, "{}", at);
                prop_assert_eq!(r.rounds_run, u32::from(resent > 0), "{}", at);
            }
        }
    }
}
