//! SIMD-within-a-register fault Monte Carlo: 64 trials per machine word.
//!
//! The structural estimators ([`crate::faults::surviving_paths`], the
//! e12 structural columns) ask one question per trial: *which paths avoid the failed links?* A
//! scalar trial materializes a [`FaultSet`] (one `bool` per directed
//! edge) and walks every path link by link. This module transposes the
//! layout: a [`BitTrialBlock`] stores **one `u64` per undirected link**,
//! where bit `t` means "the link is alive in trial `t`" — so a path's
//! survival across all 64 trials is an AND-reduction over its link words,
//! "≥ k of w paths alive" is a bit-parallel ripple-carry count, and a
//! whole sweep point's success tally is a popcount.
//!
//! # RNG-to-lane mapping
//!
//! Two draw modes with different stream conventions:
//!
//! * [`BitTrialBlock::draw_compat`] takes **one RNG per lane** and makes
//!   lane `t` consume its RNG exactly as [`random_fault_set`](crate::faults::random_fault_set) would —
//!   same NaN/clamp normalization, one `random_bool` per canonical link
//!   in [`Hypercube::undirected_edges`] order. Extracting lane `t` with
//!   [`BitTrialBlock::lane_fault_set`] therefore reproduces the scalar
//!   trial **bit for bit**, which is what lets e12 and the chaos harness
//!   keep byte-identical outputs after the kernel swap (pinned by the
//!   equality suite in `crates/bench/tests/bitslice_equiv.rs`).
//! * [`BitTrialBlock::draw_fast`] drives all 64 lanes from a **single**
//!   stream: lane `t`'s 53-bit uniform variate is assembled from bit `t`
//!   of successive RNG words, and `v < p` is decided by a bit-sliced
//!   most-significant-bit-first comparison against the exact integer
//!   threshold `ceil(p·2^53)`. Each lane's marginal fail probability is
//!   *identical* to `random_bool(p)` (the threshold count is exact:
//!   `p·2^53` is a power-of-two scaling and never rounds), but the
//!   comparison usually resolves every lane after ~`log2(lanes) + 2`
//!   words instead of one word per lane, which is where the order of
//!   magnitude comes from.
//!
//! Results are byte-stable across thread counts for the same reason the
//! scalar sweeps are: blocks are seeded per 64-trial chunk from a serial
//! seed list, lane tallies are popcounts, and the final fold is an
//! integer sum, which commutes.
//!
//! # Streaming at `n = 20+`
//!
//! Even one word per link is `n·2^n` words — gigabytes by `n = 24`. The
//! streaming layer drops the link array entirely: an [`IndexedTrials`]
//! *recomputes* any link's 64-lane alive word as a pure hash of
//! `(seed, link_index)` (same exact-threshold comparison as
//! [`BitTrialBlock::draw_fast`], so the marginal per-link fail probability
//! is still exactly `random_bool(p)`'s), and a [`BundleSource`] — e.g. the
//! implicit [`Theorem1Plan`] — enumerates path bundles as link indices on
//! the fly. [`stream_bundles_ge_into`] then folds "every bundle keeps ≥ k
//! paths" over a bundle range with **zero allocation**, and
//! [`streamed_all_bundles_ge`] fans ranges out over rayon with a
//! commutative AND fold, keeping artifacts byte-identical at any thread
//! count. [`BitTrialBlock::draw_indexed`] materializes the same trials
//! into an ordinary block, which is what lets the equality suite pin
//! streaming-vs-in-memory identity wherever the dense path still runs.
//!
//! # 256 lanes
//!
//! The in-memory layer also comes in a four-group [`W256`] width:
//! [`BitTrialBlock256`] packs 256 trials per link (group `g` of each
//! word is bit-for-bit a 64-lane block over lanes `64g..64g+64`), and
//! [`SlicedPaths::bundle_ge_256`] ripples all four groups through the
//! survivor counters per pass. The wider words amortize per-path loop
//! control over 4x the trials and vectorize cleanly; the `wide-simd`
//! cargo feature (nightly) runs the lane ops through `std::simd::u64x4`
//! with byte-identical results — [`kernel_feature_path`] names the active
//! path so artifacts can record which kernel produced them. The fail-stop delivery fast path
//! ([`SlicedPaths::all_bundles_recovered_256`]) grades "message
//! recovered" for 256 static-fault trials per pass without touching the
//! packet engine; `crates/bench/tests/fastpath_conformance.rs` pins it
//! against engine-backed reports.

use crate::faults::FaultSet;
use hyperpath_embedding::{HostPath, MultiPathEmbedding};
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use hyperpath_topology::{gray_code, transition, DirEdge, Hypercube};
use rand::{Rng, RngExt};

/// Up to 64 independent fail-stop fault trials, bit-packed per link.
///
/// Word `i` (indexed by [`Hypercube::dir_edge_index`] of the canonical
/// orientation; non-canonical slots stay zero) holds the alive bits of
/// the link across all lanes: bit `t` set ⇔ the link is up in trial `t`.
/// Bits at and above [`Self::lanes`] are zero everywhere.
#[derive(Debug, Clone)]
pub struct BitTrialBlock {
    host: Hypercube,
    /// Per-directed-edge-index alive words (canonical slots only).
    words: Vec<u64>,
    lanes: u32,
}

impl BitTrialBlock {
    /// Number of packed trials (1..=64).
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one bit set per live lane.
    #[inline]
    pub fn live_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }

    /// The host cube the block was drawn over.
    #[inline]
    pub fn host(&self) -> &Hypercube {
        &self.host
    }

    /// Alive word of the undirected link carrying the directed edge with
    /// the given [`Hypercube::dir_edge_index`].
    #[inline]
    pub fn link_alive_word(&self, dir_edge_index: usize) -> u64 {
        let e = self.host.dir_edge_from_index(dir_edge_index);
        self.words[self.host.undirected_edge_index(e)]
    }

    /// Draws one block with **per-lane RNG streams**, consuming each
    /// lane's RNG exactly as [`random_fault_set`](crate::faults::random_fault_set) would: lane `t` of the
    /// block equals `random_fault_set(host, p, &mut lane_rngs[t])` bit
    /// for bit (see [`Self::lane_fault_set`]).
    ///
    /// # Panics
    /// Panics unless `1 <= lane_rngs.len() <= 64`.
    pub fn draw_compat<R: Rng>(host: &Hypercube, p: f64, lane_rngs: &mut [R]) -> Self {
        let lanes = u32::try_from(lane_rngs.len()).expect("lane count fits u32");
        assert!((1..=64).contains(&lanes), "need 1..=64 lanes, got {lanes}");
        // Same normalization as `random_fault_set`: NaN means "no faults".
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let mut words = vec![0u64; host.num_directed_edges() as usize];
        for e in host.undirected_edges() {
            let mut alive = 0u64;
            for (t, rng) in lane_rngs.iter_mut().enumerate() {
                // Failure draw first so every lane consumes one word per
                // link, exactly like the scalar loop.
                if !rng.random_bool(p) {
                    alive |= 1u64 << t;
                }
            }
            words[host.dir_edge_index(e)] = alive;
        }
        BitTrialBlock { host: *host, words, lanes }
    }

    /// Draws one block from a **single RNG stream** with the same
    /// per-link marginal fail probability as `random_bool(p)` but a
    /// different (much cheaper) stream layout; see the module docs.
    /// Deterministic for a given RNG state, but *not* lane-extractable
    /// into scalar `random_fault_set` draws.
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= 64`.
    pub fn draw_fast<R: Rng>(host: &Hypercube, p: f64, lanes: u32, rng: &mut R) -> Self {
        assert!((1..=64).contains(&lanes), "need 1..=64 lanes, got {lanes}");
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let full = lane_mask(lanes);
        let mut words = vec![0u64; host.num_directed_edges() as usize];
        // `random_bool(p)` fails a link iff `v < p·2^53` for a 53-bit
        // uniform `v`. `p` scales to `p·2^53` exactly (power-of-two
        // multiply), so `t = ceil(p·2^53)` counts the failing variates
        // exactly and `v < t` is the same event.
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        if threshold == 0 {
            // p == 0: every lane alive on every link.
            for e in host.undirected_edges() {
                let i = host.dir_edge_index(e);
                words[i] = full;
            }
            return BitTrialBlock { host: *host, words, lanes };
        }
        if threshold >= 1u64 << 53 {
            // p == 1: every lane dead; the zeroed words already say so.
            return BitTrialBlock { host: *host, words, lanes };
        }
        for e in host.undirected_edges() {
            // Bit-sliced lexicographic `v < threshold`, MSB first: RNG
            // word `b` supplies bit `52-b` of every lane's variate at
            // once. `undecided` tracks lanes whose prefix still ties the
            // threshold; once it empties (after ~log2(lanes)+2 words in
            // expectation) the remaining bits cannot matter.
            let mut less = 0u64;
            let mut undecided = full;
            for b in (0..53).rev() {
                let v_bits = rng.next_u64();
                if (threshold >> b) & 1 == 1 {
                    less |= undecided & !v_bits;
                    undecided &= v_bits;
                } else {
                    undecided &= !v_bits;
                }
                if undecided == 0 {
                    break;
                }
            }
            // Lanes still undecided have v == threshold: not less ⇒ alive.
            words[host.dir_edge_index(e)] = full & !less;
        }
        BitTrialBlock { host: *host, words, lanes }
    }

    /// Packs existing scalar fault sets into a block (lane `t` ← set `t`).
    ///
    /// # Panics
    /// Panics unless `1 <= sets.len() <= 64`.
    pub fn from_fault_sets(host: &Hypercube, sets: &[FaultSet]) -> Self {
        let lanes = u32::try_from(sets.len()).expect("lane count fits u32");
        assert!((1..=64).contains(&lanes), "need 1..=64 lanes, got {lanes}");
        let mut words = vec![0u64; host.num_directed_edges() as usize];
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            let mut alive = 0u64;
            for (t, set) in sets.iter().enumerate() {
                if !set.is_failed_index(i) {
                    alive |= 1u64 << t;
                }
            }
            words[i] = alive;
        }
        BitTrialBlock { host: *host, words, lanes }
    }

    /// Extracts lane `t` as a scalar [`FaultSet`]. For a
    /// [`Self::draw_compat`] block this is byte-identical to what
    /// [`random_fault_set`](crate::faults::random_fault_set) would have produced from lane `t`'s RNG.
    ///
    /// # Panics
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_fault_set(&self, lane: u32) -> FaultSet {
        assert!(lane < self.lanes, "lane {lane} out of range ({} lanes)", self.lanes);
        let mut fs = FaultSet::none(&self.host);
        for e in self.host.undirected_edges() {
            if self.words[self.host.dir_edge_index(e)] & (1u64 << lane) == 0 {
                fs.fail_link(&self.host, e);
            }
        }
        fs
    }

    /// Lanes (as a bitmask) in which every link of `path` is alive. An
    /// empty path is alive in every live lane, matching the scalar
    /// convention (`edges().all(..)` over nothing is `true`).
    pub fn path_alive(&self, path: &HostPath) -> u64 {
        let mut alive = self.live_mask();
        for e in path.edges() {
            alive &= self.words[self.host.undirected_edge_index(e)];
            if alive == 0 {
                break;
            }
        }
        alive
    }
}

/// Mask with the low `lanes` bits set.
#[inline]
fn lane_mask(lanes: u32) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// An embedding's path bundles pre-resolved to link-word indices, so the
/// per-block structural evaluation never touches nodes or edges again.
/// Build once per sweep point, reuse across every trial block.
#[derive(Debug, Clone)]
pub struct SlicedPaths {
    /// `bundles[guest_edge][path]` = canonical link-word indices.
    bundles: Vec<Vec<Vec<u32>>>,
}

impl SlicedPaths {
    /// Resolves every path of `e` to link-word indices.
    ///
    /// # Panics
    /// Panics if a bundle has ≥ 256 paths (the ripple-carry survivor
    /// counter is 8 bits wide; paper bundles are single digits).
    pub fn new(e: &MultiPathEmbedding) -> Self {
        assert!(
            u32::try_from(e.host.num_directed_edges()).is_ok(),
            "edge index must fit u32 for the sliced layout"
        );
        let bundles = e
            .edge_paths
            .iter()
            .map(|bundle| {
                assert!(bundle.len() < 256, "bundle too wide for 8-bit survivor counters");
                bundle
                    .iter()
                    .map(|p| {
                        p.edges().map(|edge| e.host.undirected_edge_index(edge) as u32).collect()
                    })
                    .collect()
            })
            .collect();
        SlicedPaths { bundles }
    }

    /// Number of guest-edge bundles.
    pub fn num_bundles(&self) -> usize {
        self.bundles.len()
    }

    /// Lanes in which at least `k` paths of bundle `bundle` are alive.
    pub fn bundle_ge(&self, block: &BitTrialBlock, bundle: usize, k: usize) -> u64 {
        let full = block.live_mask();
        let paths = &self.bundles[bundle];
        if k == 0 {
            return full;
        }
        if k > paths.len() {
            return 0;
        }
        if k == 1 {
            // "Any path alive" is a plain OR over the path words.
            let mut any = 0u64;
            for links in paths {
                any |= path_word(block, links, full);
                if any == full {
                    break;
                }
            }
            return any;
        }
        // Bit-sliced survivor count: 8 counter planes, each path's alive
        // word rippled in as a carry. Then `count >= k` is the carry-out
        // of adding the constant `256 - k`.
        let mut cnt = [0u64; 8];
        for links in paths {
            let mut carry = path_word(block, links, full);
            for plane in cnt.iter_mut() {
                if carry == 0 {
                    break;
                }
                let overflow = *plane & carry;
                *plane ^= carry;
                carry = overflow;
            }
        }
        let m = 256 - k as u64;
        let mut carry = 0u64;
        for (b, plane) in cnt.iter().enumerate() {
            let m_bit = if (m >> b) & 1 == 1 { !0u64 } else { 0 };
            carry = (plane & m_bit) | (carry & (plane ^ m_bit));
        }
        carry & full
    }

    /// Lanes in which **every** bundle keeps at least `k` alive paths —
    /// the `(w, k)`-dispersal success event ("every
    /// [`surviving_paths`](crate::faults::surviving_paths) count is at
    /// least `k`"), 64 trials at a time.
    pub fn all_bundles_ge(&self, block: &BitTrialBlock, k: usize) -> u64 {
        let mut acc = block.live_mask();
        for bundle in 0..self.bundles.len() {
            if acc == 0 {
                break;
            }
            acc &= self.bundle_ge(block, bundle, k);
        }
        acc
    }
}

/// AND-reduction of a path's link words (alive lanes), with early exit.
#[inline]
fn path_word(block: &BitTrialBlock, links: &[u32], full: u64) -> u64 {
    let mut alive = full;
    for &i in links {
        alive &= block.words[i as usize];
        if alive == 0 {
            break;
        }
    }
    alive
}

// ---------------------------------------------------------------------------
// Streaming trials: per-link alive words as a pure function of the index.
// ---------------------------------------------------------------------------

/// SplitMix64's output finalizer: a cheap, well-mixed `u64 → u64`
/// bijection. Used to derive per-`(link, bit)` variate words without any
/// sequential RNG state, which is what makes [`IndexedTrials`] random
/// access (and therefore allocation-free and order-independent).
#[inline]
fn sm_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-lane fault-trial block that is never materialized: the alive word
/// of any link is recomputed on demand from `(seed, link_index)`.
///
/// The per-link decision is the same bit-sliced exact-threshold comparison
/// as [`BitTrialBlock::draw_fast`] — lane `t`'s 53-bit uniform variate is
/// compared MSB-first against `ceil(p·2^53)` — except that variate word
/// `b` of link `i` comes from `sm_mix(sm_mix(seed ⊕ i·φ) ⊕ b)` instead of
/// a sequential stream. Properties that follow:
///
/// * **Random access**: `link_word` is pure, so bundles can query links in
///   any order, from any thread, with identical results.
/// * **O(1) memory**: three words of state regardless of `n`.
/// * **Exact marginals**: each link fails with probability exactly
///   `random_bool(p)`'s (the threshold count never rounds).
///
/// [`BitTrialBlock::draw_indexed`] materializes the same trials into a
/// dense block; `crates/bench/tests/bitslice_equiv.rs` pins the identity.
#[derive(Debug, Clone, Copy)]
pub struct IndexedTrials {
    seed: u64,
    threshold: u64,
    lanes: u32,
}

impl IndexedTrials {
    /// Defines a 64-lane trial block from a seed and a per-link fail
    /// probability (same NaN/clamp normalization as the other draws).
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= 64`.
    pub fn new(seed: u64, p: f64, lanes: u32) -> Self {
        assert!((1..=64).contains(&lanes), "need 1..=64 lanes, got {lanes}");
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        IndexedTrials { seed, threshold, lanes }
    }

    /// Number of packed trials (1..=64).
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one bit set per live lane.
    #[inline]
    pub fn live_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }

    /// Alive word of the link with the given dense undirected index
    /// ([`Hypercube::undirected_edge_index`] /
    /// [`HostTopology::link_index`](hyperpath_topology::host::HostTopology::link_index)
    /// currency): bit `t` set ⇔ the link is up in trial `t`.
    #[inline]
    pub fn link_word(&self, link: u64) -> u64 {
        let full = lane_mask(self.lanes);
        if self.threshold == 0 {
            return full;
        }
        if self.threshold >= 1u64 << 53 {
            return 0;
        }
        let base = sm_mix(self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut less = 0u64;
        let mut undecided = full;
        for b in (0..53u64).rev() {
            let v_bits = sm_mix(base ^ (53 - b));
            if (self.threshold >> b) & 1 == 1 {
                less |= undecided & !v_bits;
                undecided &= v_bits;
            } else {
                undecided &= !v_bits;
            }
            if undecided == 0 {
                break;
            }
        }
        full & !less
    }
}

impl BitTrialBlock {
    /// Materializes an [`IndexedTrials`] block into a dense per-link
    /// array: `link_alive_word(i) == trials.link_word(i)` for every
    /// canonical link index. This is the in-memory half of the
    /// streaming-vs-in-memory equality suite.
    pub fn draw_indexed(host: &Hypercube, trials: &IndexedTrials) -> Self {
        let mut words = vec![0u64; host.num_directed_edges() as usize];
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            words[i] = trials.link_word(i as u64);
        }
        BitTrialBlock { host: *host, words, lanes: trials.lanes() }
    }
}

/// A source of guest-edge path bundles, presented as dense undirected link
/// indices — the implicit counterpart of [`SlicedPaths`]. Implementations
/// must visit paths in a deterministic order and must not allocate (that
/// is what keeps the streaming evaluator's memory bounded).
pub trait BundleSource {
    /// Number of guest-edge bundles.
    fn num_bundles(&self) -> u64;

    /// Visits every path of bundle `bundle` (at most 255 of them — the
    /// ripple-carry survivor counter is 8 bits wide), each as its slice of
    /// canonical link indices.
    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64]));
}

impl BundleSource for Theorem1Plan {
    fn num_bundles(&self) -> u64 {
        Theorem1Plan::num_bundles(self)
    }

    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64])) {
        Theorem1Plan::for_each_path(self, bundle, f);
    }
}

impl BundleSource for Theorem2Plan {
    fn num_bundles(&self) -> u64 {
        Theorem2Plan::num_bundles(self)
    }

    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64])) {
        Theorem2Plan::for_each_path(self, bundle, f);
    }
}

impl BundleSource for GridPlan {
    fn num_bundles(&self) -> u64 {
        GridPlan::num_bundles(self)
    }

    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64])) {
        GridPlan::for_each_path(self, bundle, f);
    }
}

impl BundleSource for BinomialTreePlan {
    fn num_bundles(&self) -> u64 {
        BinomialTreePlan::num_bundles(self)
    }

    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64])) {
        BinomialTreePlan::for_each_path(self, bundle, f);
    }
}

/// The Gray-code Hamiltonian-cycle baseline as an implicit bundle source:
/// bundle `t` is the single direct link between `gray(t)` and
/// `gray(t+1)`, exactly the per-edge path of
/// `hyperpath_core::baseline::gray_cycle_embedding`.
#[derive(Debug, Clone, Copy)]
pub struct GrayCycleBundles {
    host: Hypercube,
}

impl GrayCycleBundles {
    /// The baseline source over `Q_n`.
    pub fn new(n: u32) -> Self {
        GrayCycleBundles { host: Hypercube::new(n) }
    }
}

impl BundleSource for GrayCycleBundles {
    fn num_bundles(&self) -> u64 {
        self.host.num_nodes()
    }

    fn for_each_path(&self, bundle: u64, f: &mut dyn FnMut(&[u64])) {
        let u = gray_code(bundle);
        let d = transition(self.host.dims(), bundle);
        f(&[self.host.undirected_edge_index(DirEdge::new(u, d)) as u64]);
    }
}

/// Folds "every bundle in `bundles` keeps ≥ `ks[j]` alive paths" into
/// `acc[j]` (lane-bitmask AND-accumulate), recomputing link words through
/// `trials` — **zero allocation**, O(1) memory beyond the accumulator.
///
/// Callers seed `acc` with [`IndexedTrials::live_mask`]; disjoint bundle
/// ranges can be evaluated in any order (or in parallel into separate
/// accumulators) and AND-combined, which is exactly what
/// [`streamed_all_bundles_ge`] does.
pub fn stream_bundles_ge_into(
    src: &(impl BundleSource + ?Sized),
    trials: &IndexedTrials,
    ks: &[usize],
    bundles: std::ops::Range<u64>,
    acc: &mut [u64],
) {
    assert_eq!(ks.len(), acc.len(), "one accumulator word per threshold");
    let full = trials.live_mask();
    for b in bundles {
        if acc.iter().all(|&w| w == 0) {
            return;
        }
        // Bit-sliced survivor count, shared across all thresholds.
        let mut cnt = [0u64; 8];
        let mut n_paths = 0usize;
        src.for_each_path(b, &mut |links| {
            n_paths += 1;
            let mut alive = full;
            for &l in links {
                alive &= trials.link_word(l);
                if alive == 0 {
                    break;
                }
            }
            let mut carry = alive;
            for plane in cnt.iter_mut() {
                if carry == 0 {
                    break;
                }
                let overflow = *plane & carry;
                *plane ^= carry;
                carry = overflow;
            }
        });
        debug_assert!(n_paths < 256, "bundle too wide for 8-bit survivor counters");
        for (a, &k) in acc.iter_mut().zip(ks) {
            *a &= streamed_count_ge(&cnt, k, n_paths, full);
        }
    }
}

/// `count >= k` from the 8 survivor-count planes (carry-out of adding the
/// constant `256 - k`), mirroring [`SlicedPaths::bundle_ge`]'s edge cases.
#[inline]
fn streamed_count_ge(cnt: &[u64; 8], k: usize, n_paths: usize, full: u64) -> u64 {
    if k == 0 {
        return full;
    }
    if k > n_paths {
        return 0;
    }
    let m = 256 - k as u64;
    let mut carry = 0u64;
    for (b, plane) in cnt.iter().enumerate() {
        let m_bit = if (m >> b) & 1 == 1 { !0u64 } else { 0 };
        carry = (plane & m_bit) | (carry & (plane ^ m_bit));
    }
    carry & full
}

/// Lanes in which **every** bundle of `src` keeps at least `ks[j]` alive
/// paths, for each threshold `j` — the streaming, bounded-memory analog of
/// [`SlicedPaths::all_bundles_ge`] (equality pinned in
/// `crates/bench/tests/bitslice_equiv.rs`).
///
/// Bundle ranges are chunked over rayon; each chunk folds into its own
/// accumulator and chunks combine by AND, which commutes — so the result
/// is byte-identical at any thread count.
pub fn streamed_all_bundles_ge(
    src: &(impl BundleSource + Sync),
    trials: &IndexedTrials,
    ks: &[usize],
) -> Vec<u64> {
    use rayon::prelude::*;
    const CHUNK: u64 = 1 << 13;
    let total = src.num_bundles();
    let per_chunk: Vec<Vec<u64>> = (0..total.div_ceil(CHUNK) as usize)
        .into_par_iter()
        .map(|ci| {
            let lo = ci as u64 * CHUNK;
            let mut acc = vec![trials.live_mask(); ks.len()];
            stream_bundles_ge_into(src, trials, ks, lo..(lo + CHUNK).min(total), &mut acc);
            acc
        })
        .collect();
    let mut out = vec![trials.live_mask(); ks.len()];
    for acc in per_chunk {
        for (x, y) in out.iter_mut().zip(&acc) {
            *x &= y;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// 256-lane blocks: four 64-lane groups per link word.
// ---------------------------------------------------------------------------

/// A 256-lane kernel word: group `g` holds lanes `64g .. 64g + 64`, so
/// `w[lane / 64] >> (lane % 64) & 1` is lane `lane`'s bit. Always
/// available as a plain `[u64; 4]`; the `wide-simd` cargo feature routes
/// the lane arithmetic through `std::simd::u64x4` instead (nightly only,
/// byte-identical — see [`kernel_feature_path`]).
pub type W256 = [u64; 4];

/// Which implementation computes the [`W256`] lane ops in this build:
/// `"simd"` when the `wide-simd` feature routes them through
/// `std::simd::u64x4`, `"portable"` otherwise. The two paths compute the
/// same function word for word, so artifacts must not differ — sweep and
/// chaos JSON headers embed this tag precisely so that a cross-machine
/// `cmp` failure can name the kernel paths involved.
pub fn kernel_feature_path() -> &'static str {
    if cfg!(feature = "wide-simd") {
        "simd"
    } else {
        "portable"
    }
}

/// The [`W256`] lane ops, each written twice: a portable scalar form and
/// a `std::simd::u64x4` form selected by the `wide-simd` feature. Both
/// compute identical words; the feature only changes instruction issue.
mod w256 {
    use super::W256;

    /// All-zero word.
    pub const ZERO: W256 = [0; 4];

    #[inline(always)]
    pub fn splat(x: u64) -> W256 {
        [x; 4]
    }

    #[inline(always)]
    pub fn is_zero(a: W256) -> bool {
        a == ZERO
    }

    #[inline(always)]
    pub fn count_ones(a: W256) -> u32 {
        a.iter().map(|w| w.count_ones()).sum()
    }

    #[cfg(feature = "wide-simd")]
    mod ops {
        use super::W256;
        use std::simd::u64x4;

        #[inline(always)]
        pub fn and(a: W256, b: W256) -> W256 {
            (u64x4::from_array(a) & u64x4::from_array(b)).to_array()
        }

        #[inline(always)]
        pub fn or(a: W256, b: W256) -> W256 {
            (u64x4::from_array(a) | u64x4::from_array(b)).to_array()
        }

        #[inline(always)]
        pub fn xor(a: W256, b: W256) -> W256 {
            (u64x4::from_array(a) ^ u64x4::from_array(b)).to_array()
        }

        /// `a & !b`.
        #[inline(always)]
        pub fn andnot(a: W256, b: W256) -> W256 {
            (u64x4::from_array(a) & !u64x4::from_array(b)).to_array()
        }
    }

    #[cfg(not(feature = "wide-simd"))]
    mod ops {
        use super::W256;

        #[inline(always)]
        pub fn and(a: W256, b: W256) -> W256 {
            [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]]
        }

        #[inline(always)]
        pub fn or(a: W256, b: W256) -> W256 {
            [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]]
        }

        #[inline(always)]
        pub fn xor(a: W256, b: W256) -> W256 {
            [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
        }

        /// `a & !b`.
        #[inline(always)]
        pub fn andnot(a: W256, b: W256) -> W256 {
            [a[0] & !b[0], a[1] & !b[1], a[2] & !b[2], a[3] & !b[3]]
        }
    }

    pub use ops::{and, andnot, or, xor};
}

/// Mask with the low `lanes` bits set across the four lane groups.
#[inline]
fn lane_mask256(lanes: u32) -> W256 {
    let mut m = [0u64; 4];
    for (g, w) in m.iter_mut().enumerate() {
        let lo = g as u32 * 64;
        *w = if lanes >= lo + 64 {
            !0
        } else if lanes > lo {
            (1u64 << (lanes - lo)) - 1
        } else {
            0
        };
    }
    m
}

/// Up to 256 independent fail-stop fault trials, bit-packed per link —
/// the four-group widening of [`BitTrialBlock`]. Same canonical-slot
/// layout, same lane conventions (bits at and above [`Self::lanes`] are
/// zero everywhere); group `g` of every word behaves exactly like a
/// 64-lane block over lanes `64g..64g+64`, which is what the equality
/// suite pins.
#[derive(Debug, Clone)]
pub struct BitTrialBlock256 {
    host: Hypercube,
    /// Per-directed-edge-index alive words (canonical slots only).
    words: Vec<W256>,
    lanes: u32,
}

impl BitTrialBlock256 {
    /// Number of packed trials (1..=256).
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one bit set per live lane.
    #[inline]
    pub fn live_mask(&self) -> W256 {
        lane_mask256(self.lanes)
    }

    /// The host cube the block was drawn over.
    #[inline]
    pub fn host(&self) -> &Hypercube {
        &self.host
    }

    /// Alive word of the undirected link carrying the directed edge with
    /// the given [`Hypercube::dir_edge_index`].
    #[inline]
    pub fn link_alive_word(&self, dir_edge_index: usize) -> W256 {
        let e = self.host.dir_edge_from_index(dir_edge_index);
        self.words[self.host.undirected_edge_index(e)]
    }

    /// Draws one block with **per-lane RNG streams**, consuming each
    /// lane's RNG exactly as [`random_fault_set`](crate::faults::random_fault_set) would — lane `t` of
    /// the block equals `random_fault_set(host, p, &mut lane_rngs[t])`
    /// bit for bit, and group `g` equals a 64-lane
    /// [`BitTrialBlock::draw_compat`] over `lane_rngs[64g..]`'s chunk.
    ///
    /// # Panics
    /// Panics unless `1 <= lane_rngs.len() <= 256`.
    pub fn draw_compat<R: Rng>(host: &Hypercube, p: f64, lane_rngs: &mut [R]) -> Self {
        let lanes = u32::try_from(lane_rngs.len()).expect("lane count fits u32");
        assert!((1..=256).contains(&lanes), "need 1..=256 lanes, got {lanes}");
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let mut words = vec![w256::ZERO; host.num_directed_edges() as usize];
        for e in host.undirected_edges() {
            let mut alive = w256::ZERO;
            for (t, rng) in lane_rngs.iter_mut().enumerate() {
                // Failure draw first so every lane consumes one word per
                // link, exactly like the scalar loop.
                if !rng.random_bool(p) {
                    alive[t / 64] |= 1u64 << (t % 64);
                }
            }
            words[host.dir_edge_index(e)] = alive;
        }
        BitTrialBlock256 { host: *host, words, lanes }
    }

    /// Draws one block from a **single RNG stream** with the same
    /// per-link marginal fail probability as `random_bool(p)`; the
    /// 256-lane analog of [`BitTrialBlock::draw_fast`] (four stream words
    /// per comparison plane, groups in ascending order). Deterministic
    /// for a given RNG state, but *not* lane-extractable into scalar
    /// draws, and a *different* stream layout than four 64-lane fast
    /// draws would consume.
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= 256`.
    pub fn draw_fast<R: Rng>(host: &Hypercube, p: f64, lanes: u32, rng: &mut R) -> Self {
        assert!((1..=256).contains(&lanes), "need 1..=256 lanes, got {lanes}");
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let full = lane_mask256(lanes);
        let mut words = vec![w256::ZERO; host.num_directed_edges() as usize];
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        if threshold == 0 {
            for e in host.undirected_edges() {
                words[host.dir_edge_index(e)] = full;
            }
            return BitTrialBlock256 { host: *host, words, lanes };
        }
        if threshold >= 1u64 << 53 {
            return BitTrialBlock256 { host: *host, words, lanes };
        }
        for e in host.undirected_edges() {
            // Bit-sliced lexicographic `v < threshold`, MSB first, over
            // all four lane groups at once; see the 64-lane draw for the
            // per-plane bookkeeping.
            let mut less = w256::ZERO;
            let mut undecided = full;
            for b in (0..53).rev() {
                let v_bits = [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()];
                if (threshold >> b) & 1 == 1 {
                    less = w256::or(less, w256::andnot(undecided, v_bits));
                    undecided = w256::and(undecided, v_bits);
                } else {
                    undecided = w256::andnot(undecided, v_bits);
                }
                if w256::is_zero(undecided) {
                    break;
                }
            }
            words[host.dir_edge_index(e)] = w256::andnot(full, less);
        }
        BitTrialBlock256 { host: *host, words, lanes }
    }

    /// Packs existing scalar fault sets into a block (lane `t` ← set `t`).
    ///
    /// # Panics
    /// Panics unless `1 <= sets.len() <= 256`.
    pub fn from_fault_sets(host: &Hypercube, sets: &[FaultSet]) -> Self {
        let lanes = u32::try_from(sets.len()).expect("lane count fits u32");
        assert!((1..=256).contains(&lanes), "need 1..=256 lanes, got {lanes}");
        let mut words = vec![w256::ZERO; host.num_directed_edges() as usize];
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            let mut alive = w256::ZERO;
            for (t, set) in sets.iter().enumerate() {
                if !set.is_failed_index(i) {
                    alive[t / 64] |= 1u64 << (t % 64);
                }
            }
            words[i] = alive;
        }
        BitTrialBlock256 { host: *host, words, lanes }
    }

    /// Extracts lane `t` as a scalar [`FaultSet`]; byte-identical to the
    /// scalar draw for a [`Self::draw_compat`] block.
    ///
    /// # Panics
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_fault_set(&self, lane: u32) -> FaultSet {
        assert!(lane < self.lanes, "lane {lane} out of range ({} lanes)", self.lanes);
        let mut fs = FaultSet::none(&self.host);
        for e in self.host.undirected_edges() {
            let w = self.words[self.host.dir_edge_index(e)];
            if w[(lane / 64) as usize] & (1u64 << (lane % 64)) == 0 {
                fs.fail_link(&self.host, e);
            }
        }
        fs
    }

    /// Lanes (as a bitmask) in which every link of `path` is alive; an
    /// empty path is alive in every live lane.
    pub fn path_alive(&self, path: &HostPath) -> W256 {
        let mut alive = self.live_mask();
        for e in path.edges() {
            alive = w256::and(alive, self.words[self.host.undirected_edge_index(e)]);
            if w256::is_zero(alive) {
                break;
            }
        }
        alive
    }
}

impl SlicedPaths {
    /// Lanes in which at least `k` paths of bundle `bundle` are alive —
    /// the [`W256`] widening of [`Self::bundle_ge`], four lane groups per
    /// ripple-carry pass.
    pub fn bundle_ge_256(&self, block: &BitTrialBlock256, bundle: usize, k: usize) -> W256 {
        let full = block.live_mask();
        let paths = &self.bundles[bundle];
        if k == 0 {
            return full;
        }
        if k > paths.len() {
            return w256::ZERO;
        }
        if k == 1 {
            let mut any = w256::ZERO;
            for links in paths {
                any = w256::or(any, path_word_256(block, links, full));
                if any == full {
                    break;
                }
            }
            return any;
        }
        let mut cnt = [w256::ZERO; 8];
        for links in paths {
            let mut carry = path_word_256(block, links, full);
            for plane in cnt.iter_mut() {
                if w256::is_zero(carry) {
                    break;
                }
                let overflow = w256::and(*plane, carry);
                *plane = w256::xor(*plane, carry);
                carry = overflow;
            }
        }
        count_ge_256(&cnt, k, full)
    }

    /// Lanes in which **every** bundle keeps at least `k` alive paths —
    /// the [`W256`] widening of [`Self::all_bundles_ge`].
    pub fn all_bundles_ge_256(&self, block: &BitTrialBlock256, k: usize) -> W256 {
        let mut acc = block.live_mask();
        for bundle in 0..self.bundles.len() {
            if w256::is_zero(acc) {
                break;
            }
            acc = w256::and(acc, self.bundle_ge_256(block, bundle, k));
        }
        acc
    }

    /// Lanes in which at least one **non-empty** path of bundle `bundle`
    /// is fully alive — the lanes where a retry round has a fault-free
    /// path to re-send dead shares over. Empty paths are excluded
    /// because a zero-length path delivers its own share for free but
    /// cannot carry another share across the machine (the engine's
    /// retry planner filters them identically).
    pub fn bundle_survivors_256(&self, block: &BitTrialBlock256, bundle: usize) -> W256 {
        let full = block.live_mask();
        let mut any = w256::ZERO;
        for links in &self.bundles[bundle] {
            if links.is_empty() {
                continue;
            }
            any = w256::or(any, path_word_256(block, links, full));
            if any == full {
                break;
            }
        }
        any
    }

    /// Lanes in which every guest edge's message is **recovered** by the
    /// fail-stop delivery fast path at reconstruction threshold `k`
    /// (clamped per bundle into `1..=w`, exactly as
    /// [`DeliveryConfig`](crate::delivery::DeliveryConfig) clamps it):
    /// the threshold is met by first-round arrivals, or — when `retries`
    /// — at least one non-empty path survives to carry the re-sent
    /// shares, after which all `w` shares are present and `w >= k`. This
    /// is [`deliver_phase_plan_outcome`](crate::delivery::deliver_phase_plan_outcome)'s
    /// `all_delivered()` evaluated 256 trials per pass; the per-report
    /// byte-conformance against the engine is pinned by the fast-path
    /// conformance suite in the bench crate.
    pub fn all_bundles_recovered_256(
        &self,
        block: &BitTrialBlock256,
        k: usize,
        retries: bool,
    ) -> W256 {
        let mut acc = block.live_mask();
        for (bundle, paths) in self.bundles.iter().enumerate() {
            if w256::is_zero(acc) {
                break;
            }
            let k_eff = k.clamp(1, paths.len());
            let mut ok = self.bundle_ge_256(block, bundle, k_eff);
            if retries && ok != block.live_mask() {
                ok = w256::or(ok, self.bundle_survivors_256(block, bundle));
            }
            acc = w256::and(acc, ok);
        }
        acc
    }
}

/// AND-reduction of a path's link words (alive lanes), with early exit.
#[inline]
fn path_word_256(block: &BitTrialBlock256, links: &[u32], full: W256) -> W256 {
    let mut alive = full;
    for &i in links {
        alive = w256::and(alive, block.words[i as usize]);
        if w256::is_zero(alive) {
            break;
        }
    }
    alive
}

/// `count >= k` from 8 ripple-carry planes of [`W256`] survivor counts
/// (carry-out of adding the constant `256 - k`).
#[inline]
fn count_ge_256(cnt: &[W256; 8], k: usize, full: W256) -> W256 {
    let m = 256 - k as u64;
    let mut carry = w256::ZERO;
    for (b, plane) in cnt.iter().enumerate() {
        let m_bit = if (m >> b) & 1 == 1 { w256::splat(!0) } else { w256::ZERO };
        carry = w256::or(w256::and(*plane, m_bit), w256::and(carry, w256::xor(*plane, m_bit)));
    }
    w256::and(carry, full)
}

/// Total alive-lane count of a [`W256`] word — the 256-lane popcount
/// sweeps fold into their success tallies.
#[inline]
pub fn count_lanes_256(w: W256) -> u32 {
    w256::count_ones(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{random_fault_set, surviving_paths};
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn compat_lanes_extract_to_scalar_fault_sets() {
        let host = Hypercube::new(6);
        for (p, seed_base) in [(0.0, 10u64), (0.02, 20), (0.35, 30), (1.0, 40), (f64::NAN, 50)] {
            let seeds: Vec<u64> = (0..64).map(|t| seed_base + t).collect();
            let mut lane_rngs: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let block = BitTrialBlock::draw_compat(&host, p, &mut lane_rngs);
            for (t, &s) in seeds.iter().enumerate() {
                let mut scalar_rng = StdRng::seed_from_u64(s);
                let scalar = random_fault_set(&host, p, &mut scalar_rng);
                assert_eq!(
                    block.lane_fault_set(t as u32),
                    scalar,
                    "lane {t} diverges from the scalar draw at p={p}"
                );
            }
            // Both consumed the same number of RNG words per lane.
            let mut a = lane_rngs.remove(0);
            let mut b = StdRng::seed_from_u64(seeds[0]);
            let _ = random_fault_set(&host, p, &mut b);
            assert_eq!(a.next_u64(), b.next_u64(), "lane 0 RNG state diverged");
        }
    }

    #[test]
    fn sliced_survival_matches_scalar_surviving_paths() {
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let sliced = SlicedPaths::new(&t1.embedding);
        let mut lane_rngs: Vec<StdRng> = (0..64).map(StdRng::seed_from_u64).collect();
        let block = BitTrialBlock::draw_compat(&host, 0.08, &mut lane_rngs);
        for t in 0..block.lanes() {
            let faults = block.lane_fault_set(t);
            let scalar = surviving_paths(&t1.embedding, &faults);
            for k in 0..=4 {
                for (b, &s) in scalar.iter().enumerate() {
                    let bit = (sliced.bundle_ge(&block, b, k) >> t) & 1;
                    assert_eq!(bit == 1, s >= k, "bundle {b} lane {t} k={k}");
                }
                let all_bit = (sliced.all_bundles_ge(&block, k) >> t) & 1;
                assert_eq!(all_bit == 1, scalar.iter().all(|&s| s >= k), "all-bundles lane {t}");
            }
        }
    }

    #[test]
    fn partial_blocks_mask_dead_lanes() {
        let host = Hypercube::new(4);
        let mut lane_rngs: Vec<StdRng> = (0..5).map(StdRng::seed_from_u64).collect();
        let block = BitTrialBlock::draw_compat(&host, 0.3, &mut lane_rngs);
        assert_eq!(block.lanes(), 5);
        assert_eq!(block.live_mask(), 0b11111);
        let gray = gray_cycle_embedding(4);
        let sliced = SlicedPaths::new(&gray);
        assert_eq!(sliced.all_bundles_ge(&block, 1) & !block.live_mask(), 0);
        // Empty-ish check: a 64-lane mask is all ones.
        assert_eq!(lane_mask(64), !0);
    }

    #[test]
    fn from_fault_sets_roundtrips_through_lane_extraction() {
        let host = Hypercube::new(5);
        let sets: Vec<FaultSet> = (0..17)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(1000 + t);
                random_fault_set(&host, 0.2, &mut rng)
            })
            .collect();
        let block = BitTrialBlock::from_fault_sets(&host, &sets);
        for (t, set) in sets.iter().enumerate() {
            assert_eq!(&block.lane_fault_set(t as u32), set);
        }
    }

    #[test]
    fn fast_draw_extremes_and_determinism() {
        let host = Hypercube::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let all_alive = BitTrialBlock::draw_fast(&host, 0.0, 64, &mut rng);
        let all_dead = BitTrialBlock::draw_fast(&host, 1.0, 64, &mut rng);
        let nan = BitTrialBlock::draw_fast(&host, f64::NAN, 64, &mut rng);
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(all_alive.link_alive_word(i), !0);
            assert_eq!(all_dead.link_alive_word(i), 0);
            assert_eq!(nan.link_alive_word(i), !0);
        }
        // Same seed, same block; and the empirical fail rate is sane.
        let a = BitTrialBlock::draw_fast(&host, 0.25, 64, &mut ChaCha8Rng::seed_from_u64(9));
        let b = BitTrialBlock::draw_fast(&host, 0.25, 64, &mut ChaCha8Rng::seed_from_u64(9));
        let mut dead = 0u32;
        let mut total = 0u32;
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(a.link_alive_word(i), b.link_alive_word(i));
            dead += (!a.link_alive_word(i) & a.live_mask()).count_ones();
            total += 64;
        }
        let rate = f64::from(dead) / f64::from(total);
        assert!((0.2..0.3).contains(&rate), "fail rate {rate} far from p=0.25");
    }

    #[test]
    fn indexed_trials_extremes_purity_and_rate() {
        let host = Hypercube::new(5);
        let t0 = IndexedTrials::new(11, 0.0, 64);
        let t1 = IndexedTrials::new(11, 1.0, 64);
        let tn = IndexedTrials::new(11, f64::NAN, 37);
        let a = IndexedTrials::new(9, 0.25, 64);
        let mut dead = 0u32;
        let mut total = 0u32;
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e) as u64;
            assert_eq!(t0.link_word(i), !0);
            assert_eq!(t1.link_word(i), 0);
            assert_eq!(tn.link_word(i), lane_mask(37));
            // Pure function: identical on re-query.
            assert_eq!(a.link_word(i), a.link_word(i));
            dead += (!a.link_word(i)).count_ones();
            total += 64;
        }
        let rate = f64::from(dead) / f64::from(total);
        assert!((0.2..0.3).contains(&rate), "fail rate {rate} far from p=0.25");
    }

    #[test]
    fn draw_indexed_materializes_exactly_the_link_words() {
        let host = Hypercube::new(6);
        let trials = IndexedTrials::new(0xABCD, 0.07, 50);
        let block = BitTrialBlock::draw_indexed(&host, &trials);
        assert_eq!(block.lanes(), 50);
        assert_eq!(block.live_mask(), trials.live_mask());
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(block.link_alive_word(i), trials.link_word(i as u64));
        }
    }

    #[test]
    fn streamed_theorem1_matches_materialized_sliced_paths() {
        for n in [4u32, 6, 8] {
            let t1 = theorem1(n).unwrap();
            let sliced = SlicedPaths::new(&t1.embedding);
            let plan = Theorem1Plan::new(n).unwrap();
            let host = t1.embedding.host;
            for (seed, p) in [(1u64, 0.02), (2, 0.2), (3, 0.0), (4, 1.0)] {
                let trials = IndexedTrials::new(seed, p, 64);
                let block = BitTrialBlock::draw_indexed(&host, &trials);
                let ks: Vec<usize> = (0..=(n as usize / 2 + 2)).collect();
                let streamed = streamed_all_bundles_ge(&plan, &trials, &ks);
                for (&k, &got) in ks.iter().zip(&streamed) {
                    assert_eq!(got, sliced.all_bundles_ge(&block, k), "n={n} p={p} k={k}");
                }
            }
        }
    }

    #[test]
    fn streamed_theorem2_matches_materialized_union() {
        use hyperpath_core::cycles::{theorem2, Theorem2Variant};
        for (n, full_width) in [(6u32, false), (6, true), (8, false)] {
            let variant =
                if full_width { Theorem2Variant::FullWidth } else { Theorem2Variant::Cost3 };
            let t2 = theorem2(n, variant).unwrap();
            let sliced = SlicedPaths::new(&t2.embedding);
            let plan = hyperpath_topology::host::Theorem2Plan::new(n, full_width).unwrap();
            let trials = IndexedTrials::new(5 + u64::from(n), 0.12, 64);
            let block = BitTrialBlock::draw_indexed(&t2.embedding.host, &trials);
            // Bundle *order* differs (Euler-tour vs direct enumeration) but
            // the all-bundles conjunction is order-free.
            for k in 0..=(n as usize / 2 + 1) {
                assert_eq!(
                    streamed_all_bundles_ge(&plan, &trials, &[k])[0],
                    sliced.all_bundles_ge(&block, k),
                    "n={n} full_width={full_width} k={k}"
                );
            }
        }
    }

    #[test]
    fn streamed_gray_matches_materialized_baseline() {
        let n = 7u32;
        let gray = gray_cycle_embedding(n);
        let sliced = SlicedPaths::new(&gray);
        let src = GrayCycleBundles::new(n);
        let trials = IndexedTrials::new(77, 0.1, 64);
        let block = BitTrialBlock::draw_indexed(&gray.host, &trials);
        for k in [0usize, 1, 2] {
            let got = streamed_all_bundles_ge(&src, &trials, &[k])[0];
            assert_eq!(got, sliced.all_bundles_ge(&block, k), "k={k}");
        }
    }

    #[test]
    fn stream_ranges_and_partial_lanes_compose() {
        let plan = Theorem1Plan::new(6).unwrap();
        let trials = IndexedTrials::new(404, 0.15, 23);
        let ks = [1usize, 2];
        let whole = streamed_all_bundles_ge(&plan, &trials, &ks);
        // Manually split into uneven serial ranges: AND of the pieces must
        // equal the parallel fold.
        let mut acc = vec![trials.live_mask(); ks.len()];
        let total = BundleSource::num_bundles(&plan);
        for r in [0..5u64, 5..17, 17..total] {
            stream_bundles_ge_into(&plan, &trials, &ks, r, &mut acc);
        }
        assert_eq!(acc, whole);
        assert_eq!(whole[0] & !trials.live_mask(), 0, "dead lanes must stay clear");
    }

    /// Draws a 256-lane compat block and the four 64-lane group blocks
    /// from the same seed list (must have 1..=256 entries).
    fn compat_block_and_groups(
        host: &Hypercube,
        p: f64,
        seeds: &[u64],
    ) -> (BitTrialBlock256, Vec<BitTrialBlock>) {
        let mut wide_rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let wide = BitTrialBlock256::draw_compat(host, p, &mut wide_rngs);
        let groups = seeds
            .chunks(64)
            .map(|chunk| {
                let mut rngs: Vec<StdRng> =
                    chunk.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
                BitTrialBlock::draw_compat(host, p, &mut rngs)
            })
            .collect();
        (wide, groups)
    }

    #[test]
    fn compat_256_groups_match_64_lane_blocks_and_scalar_draws() {
        let host = Hypercube::new(5);
        for (p, seed_base) in [(0.02, 100u64), (0.3, 200), (0.0, 300)] {
            let seeds: Vec<u64> = (0..256).map(|t| seed_base + t).collect();
            let (wide, groups) = compat_block_and_groups(&host, p, &seeds);
            assert_eq!(wide.lanes(), 256);
            assert_eq!(wide.live_mask(), [!0u64; 4]);
            for e in host.undirected_edges() {
                let i = host.dir_edge_index(e);
                let w = wide.link_alive_word(i);
                for (g, gb) in groups.iter().enumerate() {
                    assert_eq!(w[g], gb.link_alive_word(i), "p={p} link {i} group {g}");
                }
            }
            // Spot-check lane extraction against the scalar draw across
            // all four groups.
            for lane in [0u32, 63, 64, 150, 255] {
                let mut rng = StdRng::seed_from_u64(seeds[lane as usize]);
                let scalar = random_fault_set(&host, p, &mut rng);
                assert_eq!(wide.lane_fault_set(lane), scalar, "p={p} lane {lane}");
            }
        }
    }

    #[test]
    fn bundle_ops_256_match_groupwise_64_lane_ops() {
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let sliced = SlicedPaths::new(&t1.embedding);
        let seeds: Vec<u64> = (0..256).map(|t| 5000 + t).collect();
        let (wide, groups) = compat_block_and_groups(&host, 0.12, &seeds);
        for k in 0..=5 {
            for b in 0..sliced.num_bundles() {
                let w = sliced.bundle_ge_256(&wide, b, k);
                for (g, gb) in groups.iter().enumerate() {
                    assert_eq!(w[g], sliced.bundle_ge(gb, b, k), "bundle {b} k={k} group {g}");
                }
            }
            let all = sliced.all_bundles_ge_256(&wide, k);
            for (g, gb) in groups.iter().enumerate() {
                assert_eq!(all[g], sliced.all_bundles_ge(gb, k), "all-bundles k={k} group {g}");
            }
        }
        // Recovery predicate: no-retries equals the clamped threshold
        // count; retries only ever adds lanes; k beyond every width
        // clamps to w (all shares needed) rather than to "impossible".
        let w = t1.claimed_width;
        for k in 1..=w + 2 {
            let no_retry = sliced.all_bundles_recovered_256(&wide, k, false);
            assert_eq!(no_retry, sliced.all_bundles_ge_256(&wide, k.min(w)), "k={k}");
            let retry = sliced.all_bundles_recovered_256(&wide, k, true);
            assert_eq!(w256::and(no_retry, retry), no_retry, "retries must not lose lanes, k={k}");
        }
    }

    #[test]
    fn partial_256_blocks_mask_dead_lanes() {
        let host = Hypercube::new(4);
        let seeds: Vec<u64> = (0..100).map(|t| 9000 + t).collect();
        let (wide, groups) = compat_block_and_groups(&host, 0.25, &seeds);
        assert_eq!(wide.lanes(), 100);
        assert_eq!(wide.live_mask(), [!0u64, (1u64 << 36) - 1, 0, 0]);
        assert_eq!(groups.len(), 2);
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            let w = wide.link_alive_word(i);
            assert_eq!(w[0], groups[0].link_alive_word(i));
            assert_eq!(w[1], groups[1].link_alive_word(i));
            assert_eq!((w[2], w[3]), (0, 0));
        }
        let gray = gray_cycle_embedding(4);
        let sliced = SlicedPaths::new(&gray);
        let got = sliced.all_bundles_ge_256(&wide, 1);
        for (g, &word) in got.iter().enumerate() {
            assert_eq!(word & !wide.live_mask()[g], 0, "dead lanes must stay clear");
        }
    }

    #[test]
    fn fast_draw_256_extremes_and_determinism() {
        let host = Hypercube::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let all_alive = BitTrialBlock256::draw_fast(&host, 0.0, 256, &mut rng);
        let all_dead = BitTrialBlock256::draw_fast(&host, 1.0, 256, &mut rng);
        let nan = BitTrialBlock256::draw_fast(&host, f64::NAN, 100, &mut rng);
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(all_alive.link_alive_word(i), [!0u64; 4]);
            assert_eq!(all_dead.link_alive_word(i), [0u64; 4]);
            assert_eq!(nan.link_alive_word(i), nan.live_mask());
        }
        let a = BitTrialBlock256::draw_fast(&host, 0.25, 256, &mut ChaCha8Rng::seed_from_u64(9));
        let b = BitTrialBlock256::draw_fast(&host, 0.25, 256, &mut ChaCha8Rng::seed_from_u64(9));
        let mut dead = 0u32;
        let mut total = 0u32;
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(a.link_alive_word(i), b.link_alive_word(i));
            let w = a.link_alive_word(i);
            dead += (0..4).map(|g| (!w[g] & a.live_mask()[g]).count_ones()).sum::<u32>();
            total += 256;
        }
        let rate = f64::from(dead) / f64::from(total);
        assert!((0.2..0.3).contains(&rate), "fail rate {rate} far from p=0.25");
    }

    #[test]
    fn from_fault_sets_256_roundtrips_through_lane_extraction() {
        let host = Hypercube::new(5);
        let sets: Vec<FaultSet> = (0..130)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(3000 + t);
                random_fault_set(&host, 0.2, &mut rng)
            })
            .collect();
        let block = BitTrialBlock256::from_fault_sets(&host, &sets);
        for (t, set) in sets.iter().enumerate() {
            assert_eq!(&block.lane_fault_set(t as u32), set, "lane {t}");
        }
    }

    #[test]
    fn kernel_feature_path_names_the_build() {
        let path = kernel_feature_path();
        assert!(path == "portable" || path == "simd");
        assert_eq!(path == "simd", cfg!(feature = "wide-simd"));
    }
}
