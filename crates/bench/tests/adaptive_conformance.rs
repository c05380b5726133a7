//! Conformance: the oracle-free adaptive protocol against the omniscient
//! oracle pipeline, both run against the *same* fault draw per trial.
//!
//! `deliver_adaptive` is oracle-free **by construction** — its signature
//! admits no fault type; everything it learns comes through the
//! [`RoundNetwork`](hyperpath_sim::RoundNetwork) ACK/NACK channel. These
//! tests pin what that costs:
//!
//! * against a **static fail-stop** adversary: nothing. Feedback tells
//!   the sender exactly which paths are dead, so adaptive and oracle
//!   grade every guest edge *identically* — full outcome equality, not
//!   just a rate bound (and equality trivially implies the `adaptive ≤
//!   oracle` pointwise dominance on every shared draw).
//! * against a **dynamic** adversary: correctness still holds — the
//!   outcome buckets partition the guest edges and no reconstruction
//!   ever silently yields wrong bytes — but the two reports may
//!   legitimately diverge in *either* direction: the oracle's hazard set
//!   permanently writes off links that were only briefly down, while the
//!   adaptive sender re-probes them.
//!
//! The round-count and resend counters are deliberately NOT compared:
//! the oracle skips retries for bundles with no survivor, while the
//!   adaptive sender (not knowing there is no survivor) retries futilely.
//! Only the graded outcomes are conformance surface.

use hyperpath_bench::experiments::e16_adaptive;
use hyperpath_bench::Json;
use hyperpath_core::cycles::theorem1;
use hyperpath_sim::chaos::random_plan;
use hyperpath_sim::delivery::{deliver_phase_plan, DeliveryConfig};
use hyperpath_sim::protocol::{deliver_adaptive, PlanNetwork};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const KEY: u64 = 0xc0f0_0d5e_ed15_dead;

/// A message length whose shares stay above the adaptive phase's fan-out
/// cutoff (600 bytes) at every threshold these tests use, so its IDA
/// stages run chunked on the pool.
const WIDE_MESSAGE: usize = 4096;

#[test]
fn adaptive_equals_oracle_on_random_static_fail_stop_plans() {
    // 24 shared draws across two hosts, three thresholds and two message
    // lengths (the longer one fans out): the adaptive protocol must grade
    // every guest edge exactly as the plan oracle does.
    for n in [4u32, 6] {
        let t1 = theorem1(n).unwrap();
        let e = &t1.embedding;
        let w = t1.claimed_width;
        for trial in 0..12u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xface ^ (u64::from(n) << 32) ^ trial);
            let plan = random_plan(&e.host, true, &mut rng);
            assert!(plan.is_static_fail_stop());
            for (threshold, message_len) in
                [1, w.div_ceil(2), w].into_iter().flat_map(|t| [(t, 40), (t, WIDE_MESSAGE)])
            {
                let cfg = DeliveryConfig { threshold, max_retries: 2, message_len };
                let oracle = deliver_phase_plan(e, &plan, &cfg);
                let adaptive =
                    deliver_adaptive(e, &cfg, KEY ^ trial, &mut PlanNetwork::new(e, &plan));
                let at = format!("n={n} trial={trial} threshold={threshold} len={message_len}");
                assert_eq!(
                    (adaptive.delivered, adaptive.degraded, adaptive.lost),
                    (oracle.delivered, oracle.degraded, oracle.lost),
                    "totals diverged: {at}"
                );
                assert_eq!(adaptive.edges, oracle.edges, "per-edge outcomes diverged: {at}");
                assert_eq!(adaptive.wrong_reconstructions, 0);
                assert_eq!(adaptive.rejected_shares, 0, "fail-stop plans never corrupt");
            }
        }
    }
}

#[test]
fn dynamic_adversaries_never_produce_silent_wrong_bytes() {
    // The one invariant that must survive EVERY adversary: a message is
    // recovered correctly or graded lost — never silently wrong. Dynamic
    // draws include outages, bursts, node storms and corrupting links.
    let t1 = theorem1(6).unwrap();
    let e = &t1.embedding;
    let n_edges = e.edge_paths.len();
    let cfg = DeliveryConfig { threshold: t1.claimed_width, max_retries: 3, message_len: 56 };
    let mut corruption_seen = false;
    for trial in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xdead ^ trial);
        let plan = random_plan(&e.host, false, &mut rng);
        corruption_seen |= plan.has_corruption();
        let oracle = deliver_phase_plan(e, &plan, &cfg);
        let adaptive = deliver_adaptive(e, &cfg, KEY ^ trial, &mut PlanNetwork::new(e, &plan));
        assert_eq!(adaptive.wrong_reconstructions, 0, "trial {trial}");
        assert_eq!(adaptive.delivered + adaptive.degraded + adaptive.lost, n_edges);
        assert_eq!(oracle.delivered + oracle.degraded + oracle.lost, n_edges);
    }
    assert!(corruption_seen, "the dynamic draws must exercise corrupting links");
}

#[test]
fn wide_phases_report_identically_on_any_pool_size() {
    // 4 KiB messages fan the phase's tagging, verification and grading out
    // over the pool; under dynamic plans with corrupting links the report
    // must not depend on how many workers ran the chunks.
    let t1 = theorem1(8).unwrap();
    let e = &t1.embedding;
    let cfg = DeliveryConfig {
        threshold: t1.claimed_width.div_ceil(2),
        max_retries: 3,
        message_len: WIDE_MESSAGE,
    };
    let mut rejected = 0;
    for trial in 0..8u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1e ^ trial);
        let plan = random_plan(&e.host, false, &mut rng);
        let reports: Vec<_> = (1..=4)
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                pool.install(|| {
                    deliver_adaptive(e, &cfg, KEY ^ trial, &mut PlanNetwork::new(e, &plan))
                })
            })
            .collect();
        for (threads, r) in (1..).zip(&reports) {
            assert_eq!(*r, reports[0], "trial {trial}: {threads} workers diverged from 1");
        }
        assert_eq!(reports[0].wrong_reconstructions, 0, "trial {trial}");
        rejected += reports[0].rejected_shares;
    }
    assert!(rejected > 0, "the dynamic draws must corrupt some shares");
}

#[test]
fn e16_reports_full_equality_on_its_static_grid_points() {
    let (_, out) = e16_adaptive(&[6], 20, 1616);
    let mut static_points = 0;
    for rec in &out.records {
        let is_static = rec.params.get("static_plans").and_then(Json::as_bool).unwrap();
        let equal = rec.result.get("equal_outcomes").and_then(Json::as_f64).unwrap();
        let wrong = rec.result.get("wrong_reconstructions").and_then(Json::as_u64).unwrap();
        assert_eq!(wrong, 0, "at {}", rec.params.render());
        if is_static {
            static_points += 1;
            assert_eq!(equal, 1.0, "static grid point must show full equality");
        }
    }
    assert_eq!(static_points, 1);
}
