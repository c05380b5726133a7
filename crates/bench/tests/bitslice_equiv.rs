//! Scalar-vs-bit-sliced equivalence suite: the SWAR fault kernel
//! (`hyperpath_sim::bitslice`) must agree with the scalar fault machinery
//! **bit for bit**, not merely in distribution. Every test here is a
//! hand-rolled property loop (randomized inputs from seeded RNGs) pinning
//! one leg of that contract:
//!
//! * `draw_compat` lane `t` extracts to exactly the [`FaultSet`] that
//!   [`random_fault_set`] produces from `StdRng::seed_from_u64(seeds[t])`
//!   — same stream, same consumption order;
//! * per-trial bundle survival bits from [`SlicedPaths`] equal the scalar
//!   [`surviving_paths`] counts at every threshold `k`;
//! * `from_fault_sets` / `lane_fault_set` round-trip losslessly.
//!
//! The whole file is thread-count independent (pure per-trial evaluation,
//! order-free popcount sums), so CI also runs it under
//! `RAYON_NUM_THREADS=1` to pin byte-stability of the parallel wrappers.

use hyperpath_core::baseline::gray_cycle_embedding;
use hyperpath_core::cycles::theorem1;
use hyperpath_sim::bitslice::{
    stream_bundles_ge_into, streamed_all_bundles_ge, BitTrialBlock, BundleSource, IndexedTrials,
    SlicedPaths,
};
use hyperpath_sim::faults::{random_fault_set, surviving_paths, FaultSet};
use hyperpath_topology::{Hypercube, Theorem1Plan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fault probabilities covering the degenerate ends and the paper's
/// operating range.
const PS: [f64; 4] = [0.0, 0.02, 0.35, 1.0];

/// Per-lane trial seeds derived from one master seed, mirroring how the
/// sweeps derive them (serial draw from a seeded RNG).
fn trial_seeds(master: u64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(master);
    (0..count).map(|_| rng.random()).collect()
}

#[test]
fn compat_lanes_extract_to_scalar_fault_sets_on_every_cube() {
    for n in 4..=10 {
        let host = Hypercube::new(n);
        for (pi, &p) in PS.iter().enumerate() {
            let seeds = trial_seeds(0xb17511ce ^ (u64::from(n) << 8) ^ pi as u64, 64);
            let block = BitTrialBlock::<u64>::draw_compat(&host, p, &seeds);
            assert_eq!(block.lanes(), 64);
            for (t, &seed) in seeds.iter().enumerate() {
                let scalar = random_fault_set(&host, p, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    block.lane_fault_set(t as u32),
                    scalar,
                    "lane {t} of n={n}, p={p} diverged from the scalar draw"
                );
            }
        }
    }
}

#[test]
fn sliced_survival_bits_match_scalar_surviving_paths_at_every_threshold() {
    for n in 4..=10u32 {
        let t1 = theorem1(n).expect("theorem 1");
        let embeddings = [t1.embedding, gray_cycle_embedding(n)];
        for (ei, e) in embeddings.iter().enumerate() {
            let host = e.host;
            let sliced = SlicedPaths::new(e);
            // Partial last chunk (37 lanes) exercises the live-mask edge.
            let lanes = if n % 2 == 0 { 64 } else { 37 };
            let seeds = trial_seeds(0x511ced ^ (u64::from(n) << 16) ^ (ei as u64) << 1, lanes);
            let block = BitTrialBlock::<u64>::draw_compat(&host, 0.05, &seeds);
            let w = e.edge_paths.iter().map(Vec::len).max().unwrap_or(0);
            for (t, &seed) in seeds.iter().enumerate() {
                let faults = random_fault_set(&host, 0.05, &mut StdRng::seed_from_u64(seed));
                let surv = surviving_paths(e, &faults);
                for k in 1..=w + 1 {
                    for (eid, &s) in surv.iter().enumerate() {
                        let bit = (sliced.bundle_ge(&block, eid, k) >> t) & 1;
                        assert_eq!(
                            bit == 1,
                            s >= k,
                            "bundle {eid} of n={n} embedding {ei}: lane {t} at k={k} \
                             disagrees with scalar count {s}"
                        );
                    }
                    let all_bit = (sliced.all_bundles_ge(&block, k) >> t) & 1;
                    assert_eq!(
                        all_bit == 1,
                        surv.iter().all(|&s| s >= k),
                        "all_bundles_ge(k={k}) lane {t} of n={n} embedding {ei} \
                         disagrees with the scalar conjunction"
                    );
                }
            }
        }
    }
}

/// Streaming-vs-in-memory identity: evaluating the implicit Theorem-1
/// plan against [`IndexedTrials`] directly (never materializing a block)
/// must produce bit-identical survival words to materializing the same
/// trials into a [`BitTrialBlock`] via `draw_indexed` and running the
/// in-memory [`SlicedPaths`] evaluator over the materialized embedding.
#[test]
fn streamed_evaluation_matches_materialized_block_on_same_seeds() {
    for n in [4u32, 6, 8, 9] {
        let t1 = theorem1(n).expect("theorem 1");
        let e = &t1.embedding;
        let sliced = SlicedPaths::new(e);
        let plan = Theorem1Plan::new(n).expect("theorem 1 plan");
        let w = t1.claimed_width;
        for (pi, &p) in PS.iter().enumerate() {
            // Odd lane count exercises the live-mask edge on both sides.
            let lanes = if n % 2 == 0 { 64 } else { 41 };
            let seed = 0x57e4 ^ (u64::from(n) << 20) ^ (pi as u64) << 3;
            let trials = IndexedTrials::new(seed, p, lanes);
            let block = BitTrialBlock::draw_indexed(&e.host, &trials);
            assert_eq!(block.lanes(), lanes);
            for k in 1..=w + 1 {
                let in_memory = sliced.all_bundles_ge(&block, k);
                let streamed = streamed_all_bundles_ge(&plan, &trials, &[k])[0];
                assert_eq!(
                    streamed, in_memory,
                    "streamed vs in-memory diverged at n={n}, p={p}, k={k}"
                );
            }
        }
    }
}

/// Serial subrange streaming composes to the parallel whole: splitting
/// the bundle range into uneven pieces and AND-folding per-piece
/// accumulators equals one [`streamed_all_bundles_ge`] call.
#[test]
fn streamed_subranges_fold_to_the_full_answer() {
    let n = 7u32;
    let plan = Theorem1Plan::new(n).expect("theorem 1 plan");
    let total = BundleSource::num_bundles(&plan);
    let trials = IndexedTrials::new(0xf01d, 0.05, 64);
    let ks = [1usize, 2, 4];
    let whole = streamed_all_bundles_ge(&plan, &trials, &ks);
    let mut folded = vec![trials.live_mask(); ks.len()];
    let cuts = [0u64, 1, 7, 100, total / 2, total];
    for pair in cuts.windows(2) {
        let mut acc = vec![trials.live_mask(); ks.len()];
        stream_bundles_ge_into(&plan, &trials, &ks, pair[0]..pair[1], &mut acc);
        for (f, a) in folded.iter_mut().zip(&acc) {
            *f &= a;
        }
    }
    assert_eq!(folded, whole, "subrange folds diverged from the one-shot evaluation");
}

#[test]
fn fault_set_block_round_trips_losslessly() {
    for n in 4..=8u32 {
        let host = Hypercube::new(n);
        let mut rng = StdRng::seed_from_u64(0x707 + u64::from(n));
        for lanes in [1usize, 2, 63, 64] {
            let sets: Vec<FaultSet> =
                (0..lanes).map(|_| random_fault_set(&host, 0.3, &mut rng)).collect();
            let block = BitTrialBlock::<u64>::from_fault_sets(&host, &sets);
            assert_eq!(block.lanes() as usize, lanes);
            for (t, set) in sets.iter().enumerate() {
                assert_eq!(
                    &block.lane_fault_set(t as u32),
                    set,
                    "lane {t}/{lanes} of n={n} did not round-trip"
                );
            }
        }
    }
}
