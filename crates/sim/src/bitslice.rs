//! SIMD-within-a-register fault Monte Carlo: 64 or 256 trials per link word.
//!
//! The structural estimators ([`crate::faults::surviving_paths`], the
//! e12 structural columns) ask one question per trial: *which paths avoid the failed links?* A
//! scalar trial materializes a [`FaultSet`] (one `bool` per directed
//! edge) and walks every path link by link. This module transposes the
//! layout: a [`BitTrialBlock`] stores **one [`LaneWord`] per undirected
//! link**, where lane `t` means "the link is alive in trial `t`" — so a
//! path's survival across all trials is an AND-reduction over its link
//! words, "≥ k of w paths alive" is a bit-parallel ripple-carry count, and
//! a whole sweep point's success tally is a popcount.
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
//! * [`BitTrialBlock::draw_fast`] drives every lane from a **single**
//!   stream: lane `t`'s 53-bit uniform variate is assembled from lane `t`
//!   of successive [`LaneWord::draw`] words (one `next_u64` per 64-lane
//!   group, in group order), and `v < p` is decided by a bit-sliced
//!   most-significant-bit-first comparison against the exact integer
//!   threshold `ceil(p·2^53)`. Each lane's marginal fail probability is
//!   *identical* to `random_bool(p)` (the threshold count is exact:
//!   `p·2^53` is a power-of-two scaling and never rounds), but the
//!   comparison usually resolves every lane after ~`log2(lanes) + 2`
//!   words instead of one word per lane, which is where the order of
//!   magnitude comes from.
//!
//! Results are byte-stable across thread counts for the same reason the
//! scalar sweeps are: blocks are seeded per trial chunk from a serial
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
//! # Two word widths, one kernel
//!
//! Every in-memory kernel is written once over [`LaneWord`], which has two
//! implementations: `u64` (64 lanes) and [`W256`] (256 lanes as four
//! 64-lane groups; group `g` of each word is bit-for-bit a 64-lane block
//! over lanes `64g..64g+64`). [`SlicedPaths::bundle_ge`] on a
//! `BitTrialBlock<W256>` ripples all four groups through the survivor
//! counters per pass, which amortizes per-path loop control over 4x the
//! trials; E12 runs at 256 lanes, the streaming layer at 64. The fail-stop
//! delivery fast path ([`SlicedPaths::all_bundles_recovered`]) grades
//! "message recovered" for a whole word of static-fault trials per pass
//! without touching the packet engine;
//! `crates/bench/tests/fastpath_conformance.rs` pins it against
//! engine-backed reports.

use crate::faults::FaultSet;
use hyperpath_embedding::MultiPathEmbedding;
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use hyperpath_topology::{gray_code, transition, DirEdge, Hypercube};
use rand::{Rng, RngExt};

/// One word of bit-sliced trial lanes: lane `t` is bit `t % 64` of 64-lane
/// group `t / 64`. Implemented for `u64` (64 lanes) and [`W256`] (256
/// lanes); every block kernel in this module is written once over it.
pub trait LaneWord: Copy + Eq + std::fmt::Debug {
    /// Lanes per word.
    const WIDTH: u32;
    /// Every lane clear.
    const ZERO: Self;
    /// The low `lanes` lanes set (every lane once `lanes >= WIDTH`).
    fn mask(lanes: u32) -> Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// `self & !other`, lane-wise.
    fn andnot(self, other: Self) -> Self;
    /// `self` with lane `lane` set.
    fn with_lane(self, lane: u32) -> Self;
    /// Whether lane `lane` is set.
    fn lane(self, lane: u32) -> bool;
    /// Number of set lanes — the popcount sweeps fold into their tallies.
    fn count_ones(self) -> u32;
    /// One uniformly random word: one `next_u64` per 64-lane group, in
    /// group order.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl LaneWord for u64 {
    const WIDTH: u32 = 64;
    const ZERO: Self = 0;

    #[inline]
    fn mask(lanes: u32) -> Self {
        if lanes >= 64 {
            !0
        } else {
            (1u64 << lanes) - 1
        }
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline(always)]
    fn andnot(self, other: Self) -> Self {
        self & !other
    }

    #[inline(always)]
    fn with_lane(self, lane: u32) -> Self {
        self | 1u64 << lane
    }

    #[inline(always)]
    fn lane(self, lane: u32) -> bool {
        (self >> lane) & 1 == 1
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline(always)]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// A 256-lane kernel word: group `g` holds lanes `64g .. 64g + 64`, so
/// `w[lane / 64] >> (lane % 64) & 1` is lane `lane`'s bit.
pub type W256 = [u64; 4];

/// `f` applied group by group.
#[inline(always)]
fn zip4(a: W256, b: W256, f: impl Fn(u64, u64) -> u64) -> W256 {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

impl LaneWord for W256 {
    const WIDTH: u32 = 256;
    const ZERO: Self = [0; 4];

    #[inline]
    fn mask(lanes: u32) -> Self {
        std::array::from_fn(|g| u64::mask(lanes.saturating_sub(64 * g as u32)))
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        zip4(self, other, |a, b| a & b)
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        zip4(self, other, |a, b| a | b)
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        zip4(self, other, |a, b| a ^ b)
    }

    #[inline(always)]
    fn andnot(self, other: Self) -> Self {
        zip4(self, other, |a, b| a & !b)
    }

    #[inline(always)]
    fn with_lane(mut self, lane: u32) -> Self {
        self[(lane / 64) as usize] |= 1u64 << (lane % 64);
        self
    }

    #[inline(always)]
    fn lane(self, lane: u32) -> bool {
        (self[(lane / 64) as usize] >> (lane % 64)) & 1 == 1
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        self.iter().map(|w| w.count_ones()).sum()
    }

    #[inline(always)]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
    }
}

/// `lanes` as a block's lane count.
///
/// # Panics
/// Panics unless `1 <= lanes <= W::WIDTH`.
fn checked_lanes<W: LaneWord>(lanes: usize) -> u32 {
    assert!((1..=W::WIDTH as usize).contains(&lanes), "need 1..={} lanes, got {lanes}", W::WIDTH);
    lanes as u32
}

/// Same normalization as `random_fault_set`: NaN means "no faults".
fn clamp_p(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// `ceil(p·2^53)`. `random_bool(p)` fails a link iff `v < p·2^53` for a
/// 53-bit uniform `v`; `p` scales to `p·2^53` exactly (power-of-two
/// multiply), so this counts the failing variates exactly and `v <
/// threshold` is the same event.
fn fail_threshold(p: f64) -> u64 {
    (clamp_p(p) * (1u64 << 53) as f64).ceil() as u64
}

/// The lanes of `full` that survive the exact-threshold draw: lane `t`
/// fails iff its 53-bit variate is below `threshold`, where `next(b)`
/// supplies bit `b` of every lane's variate at once, for `b = 52, 51, …`.
///
/// Bit-sliced lexicographic `v < threshold`, MSB first. `undecided`
/// tracks lanes whose prefix still ties the threshold; once it empties
/// (after ~log2(lanes)+2 words in expectation) the remaining bits cannot
/// matter, so `next` is not called again. `p == 0` and `p == 1` consume
/// no variate words at all.
#[inline]
fn survivors<W: LaneWord>(threshold: u64, full: W, mut next: impl FnMut(u64) -> W) -> W {
    if threshold == 0 {
        return full;
    }
    if threshold >= 1u64 << 53 {
        return W::ZERO;
    }
    let mut less = W::ZERO;
    let mut undecided = full;
    for b in (0..53u64).rev() {
        let v_bits = next(b);
        if (threshold >> b) & 1 == 1 {
            less = less.or(undecided.andnot(v_bits));
            undecided = undecided.and(v_bits);
        } else {
            undecided = undecided.andnot(v_bits);
        }
        if undecided == W::ZERO {
            break;
        }
    }
    // Lanes still undecided have v == threshold: not less ⇒ alive.
    full.andnot(less)
}

/// Up to `W::WIDTH` independent fail-stop fault trials, bit-packed per
/// link: 64 for `u64`, 256 for [`W256`].
///
/// Word `i` (indexed by [`Hypercube::dir_edge_index`] of the canonical
/// orientation; non-canonical slots stay zero) holds the alive lanes of
/// the link: lane `t` set ⇔ the link is up in trial `t`. Lanes at and
/// above [`Self::lanes`] are clear everywhere. Group `g` of a [`W256`]
/// block behaves exactly like a 64-lane block over lanes `64g..64g+64`,
/// which is what the equality suite pins.
#[derive(Debug, Clone)]
pub struct BitTrialBlock<W: LaneWord> {
    host: Hypercube,
    /// Per-directed-edge-index alive words (canonical slots only).
    words: Vec<W>,
    lanes: u32,
}

impl<W: LaneWord> BitTrialBlock<W> {
    /// A block of `lanes` trials with every link dead.
    fn zeroed(host: &Hypercube, lanes: u32) -> Self {
        let words = vec![W::ZERO; host.num_directed_edges() as usize];
        BitTrialBlock { host: *host, words, lanes }
    }

    /// Number of packed trials (`1..=W::WIDTH`).
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one lane set per live trial.
    #[inline]
    pub fn live_mask(&self) -> W {
        W::mask(self.lanes)
    }

    /// Alive word of the undirected link carrying the directed edge with
    /// the given [`Hypercube::dir_edge_index`].
    #[inline]
    pub fn link_alive_word(&self, dir_edge_index: usize) -> W {
        let e = self.host.dir_edge_from_index(dir_edge_index);
        self.words[self.host.undirected_edge_index(e)]
    }

    /// Draws one block with **per-lane RNG streams**, consuming each
    /// lane's RNG exactly as [`random_fault_set`](crate::faults::random_fault_set) would: lane `t` of the
    /// block equals `random_fault_set(host, p, &mut lane_rngs[t])` bit
    /// for bit (see [`Self::lane_fault_set`]), and group `g` of a
    /// [`W256`] block equals a 64-lane draw over `lane_rngs[64g..]`'s
    /// chunk.
    ///
    /// # Panics
    /// Panics unless `1 <= lane_rngs.len() <= W::WIDTH`.
    pub fn draw_compat<R: Rng>(host: &Hypercube, p: f64, lane_rngs: &mut [R]) -> Self {
        let mut block = Self::zeroed(host, checked_lanes::<W>(lane_rngs.len()));
        block.redraw_compat(p, lane_rngs);
        block
    }

    /// Redraws this block in place, exactly as [`Self::draw_compat`] would
    /// draw a fresh one over the same host: every canonical word is
    /// overwritten and [`Self::lanes`] becomes `lane_rngs.len()`, so a
    /// shorter redraw leaves no stale lanes. Allocation-free, which lets a
    /// sweep worker reuse one block across all its trial chunks.
    ///
    /// # Panics
    /// Panics unless `1 <= lane_rngs.len() <= W::WIDTH`.
    pub fn redraw_compat<R: Rng>(&mut self, p: f64, lane_rngs: &mut [R]) {
        self.lanes = checked_lanes::<W>(lane_rngs.len());
        let p = clamp_p(p);
        let host = self.host;
        for e in host.undirected_edges() {
            let mut alive = W::ZERO;
            for (t, rng) in lane_rngs.iter_mut().enumerate() {
                // Failure draw first so every lane consumes one word per
                // link, exactly like the scalar loop.
                if !rng.random_bool(p) {
                    alive = alive.with_lane(t as u32);
                }
            }
            self.words[host.dir_edge_index(e)] = alive;
        }
    }

    /// Draws one block from a **single RNG stream** with the same
    /// per-link marginal fail probability as `random_bool(p)` but a
    /// different (much cheaper) stream layout; see the module docs. Each
    /// comparison plane takes one [`LaneWord::draw`], so a 256-lane draw
    /// consumes a *different* stream layout than four 64-lane fast draws
    /// would. Deterministic for a given RNG state, but *not*
    /// lane-extractable into scalar `random_fault_set` draws.
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= W::WIDTH`.
    pub fn draw_fast<R: Rng>(host: &Hypercube, p: f64, lanes: u32, rng: &mut R) -> Self {
        let mut block = Self::zeroed(host, checked_lanes::<W>(lanes as usize));
        let full = block.live_mask();
        let threshold = fail_threshold(p);
        for e in host.undirected_edges() {
            block.words[host.dir_edge_index(e)] = survivors(threshold, full, |_| W::draw(rng));
        }
        block
    }

    /// Packs existing scalar fault sets into a block (lane `t` ← set `t`).
    ///
    /// # Panics
    /// Panics unless `1 <= sets.len() <= W::WIDTH`.
    pub fn from_fault_sets(host: &Hypercube, sets: &[FaultSet]) -> Self {
        let mut block = Self::zeroed(host, checked_lanes::<W>(sets.len()));
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            let mut alive = W::ZERO;
            for (t, set) in sets.iter().enumerate() {
                if !set.is_failed_index(i) {
                    alive = alive.with_lane(t as u32);
                }
            }
            block.words[i] = alive;
        }
        block
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
            if !self.words[self.host.dir_edge_index(e)].lane(lane) {
                fs.fail_link(&self.host, e);
            }
        }
        fs
    }

    /// AND-reduction of a path's link words (alive lanes), with early exit.
    #[inline]
    fn path_word(&self, links: &[u32], full: W) -> W {
        let mut alive = full;
        for &i in links {
            alive = alive.and(self.words[i as usize]);
            if alive == W::ZERO {
                break;
            }
        }
        alive
    }

    /// OR of the path words of `paths`, stopping once every live lane has
    /// a survivor.
    #[inline]
    fn or_path_words<'a>(&self, paths: impl IntoIterator<Item = &'a Vec<u32>>, full: W) -> W {
        let mut any = W::ZERO;
        for links in paths {
            any = any.or(self.path_word(links, full));
            if any == full {
                break;
            }
        }
        any
    }
}

/// Bit-sliced survivor counts: 8 counter planes, so up to 255 paths per
/// bundle (paper bundles are single digits).
struct SurvivorCount<W>([W; 8]);

impl<W: LaneWord> SurvivorCount<W> {
    fn new() -> Self {
        SurvivorCount([W::ZERO; 8])
    }

    /// Ripples one path's alive word in as a carry.
    #[inline]
    fn add(&mut self, mut carry: W) {
        for plane in &mut self.0 {
            if carry == W::ZERO {
                break;
            }
            let overflow = plane.and(carry);
            *plane = plane.xor(carry);
            carry = overflow;
        }
    }

    /// Lanes whose count is at least `k` (`1..=255`): the carry-out of
    /// adding the constant `256 - k`. Each plane's carry is the majority
    /// of the plane, the constant's bit and the incoming carry. The planes
    /// only ever hold live lanes, so the result needs no mask.
    #[inline]
    fn at_least(&self, k: usize) -> W {
        let m = 256 - k as u64;
        let mut carry = W::ZERO;
        for (b, &plane) in self.0.iter().enumerate() {
            carry = if (m >> b) & 1 == 1 { plane.or(carry) } else { plane.and(carry) };
        }
        carry
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
    pub fn bundle_ge<W: LaneWord>(&self, block: &BitTrialBlock<W>, bundle: usize, k: usize) -> W {
        let full = block.live_mask();
        let paths = &self.bundles[bundle];
        if k == 0 {
            return full;
        }
        if k > paths.len() {
            return W::ZERO;
        }
        if k == 1 {
            // "Any path alive" is a plain OR over the path words.
            return block.or_path_words(paths, full);
        }
        let mut cnt = SurvivorCount::new();
        for links in paths {
            cnt.add(block.path_word(links, full));
        }
        cnt.at_least(k)
    }

    /// Lanes in which **every** bundle keeps at least `k` alive paths —
    /// the `(w, k)`-dispersal success event ("every
    /// [`surviving_paths`](crate::faults::surviving_paths) count is at
    /// least `k`"), a whole word of trials at a time.
    pub fn all_bundles_ge<W: LaneWord>(&self, block: &BitTrialBlock<W>, k: usize) -> W {
        let mut acc = block.live_mask();
        for bundle in 0..self.bundles.len() {
            if acc == W::ZERO {
                break;
            }
            acc = acc.and(self.bundle_ge(block, bundle, k));
        }
        acc
    }

    /// Lanes in which at least one **non-empty** path of bundle `bundle`
    /// is fully alive — the lanes where a retry round has a fault-free
    /// path to re-send dead shares over. Empty paths are excluded
    /// because a zero-length path delivers its own share for free but
    /// cannot carry another share across the machine (the engine's
    /// retry planner filters them identically).
    pub fn bundle_survivors<W: LaneWord>(&self, block: &BitTrialBlock<W>, bundle: usize) -> W {
        let nonempty = self.bundles[bundle].iter().filter(|links| !links.is_empty());
        block.or_path_words(nonempty, block.live_mask())
    }

    /// Lanes in which every guest edge's message is **recovered** by the
    /// fail-stop delivery fast path at reconstruction threshold `k`
    /// (clamped per bundle into `1..=w`, exactly as
    /// [`DeliveryConfig`](crate::delivery::DeliveryConfig) clamps it):
    /// the threshold is met by first-round arrivals, or — when `retries`
    /// — at least one non-empty path survives to carry the re-sent
    /// shares, after which all `w` shares are present and `w >= k`. This
    /// is [`deliver_phase_plan_outcome`](crate::delivery::deliver_phase_plan_outcome)'s
    /// `all_delivered()` evaluated a whole word of trials per pass; the
    /// per-report byte-conformance against the engine is pinned by the
    /// fast-path conformance suite in the bench crate.
    pub fn all_bundles_recovered<W: LaneWord>(
        &self,
        block: &BitTrialBlock<W>,
        k: usize,
        retries: bool,
    ) -> W {
        let mut acc = block.live_mask();
        for (bundle, paths) in self.bundles.iter().enumerate() {
            if acc == W::ZERO {
                break;
            }
            let k_eff = k.clamp(1, paths.len());
            let mut ok = self.bundle_ge(block, bundle, k_eff);
            if retries && ok != block.live_mask() {
                ok = ok.or(self.bundle_survivors(block, bundle));
            }
            acc = acc.and(ok);
        }
        acc
    }
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
        let lanes = checked_lanes::<u64>(lanes as usize);
        IndexedTrials { seed, threshold: fail_threshold(p), lanes }
    }

    /// Number of packed trials (1..=64).
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Mask with one bit set per live lane.
    #[inline]
    pub fn live_mask(&self) -> u64 {
        u64::mask(self.lanes)
    }

    /// Alive word of the link with the given dense undirected index
    /// ([`Hypercube::undirected_edge_index`] /
    /// [`HostTopology::link_index`](hyperpath_topology::host::HostTopology::link_index)
    /// currency): bit `t` set ⇔ the link is up in trial `t`.
    #[inline]
    pub fn link_word(&self, link: u64) -> u64 {
        let base = sm_mix(self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        survivors(self.threshold, self.live_mask(), |b| sm_mix(base ^ (53 - b)))
    }
}

impl BitTrialBlock<u64> {
    /// Materializes an [`IndexedTrials`] block into a dense per-link
    /// array: `link_alive_word(i) == trials.link_word(i)` for every
    /// canonical link index. This is the in-memory half of the
    /// streaming-vs-in-memory equality suite.
    pub fn draw_indexed(host: &Hypercube, trials: &IndexedTrials) -> Self {
        let mut block = Self::zeroed(host, trials.lanes());
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            block.words[i] = trials.link_word(i as u64);
        }
        block
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
        let mut cnt = SurvivorCount::new();
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
            cnt.add(alive);
        });
        debug_assert!(n_paths < 256, "bundle too wide for 8-bit survivor counters");
        // The same edge cases as `SlicedPaths::bundle_ge`.
        for (a, &k) in acc.iter_mut().zip(ks) {
            *a &= match k {
                0 => full,
                k if k > n_paths => 0,
                k => cnt.at_least(k),
            };
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{random_fault_set, surviving_paths};
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rngs(seeds: impl IntoIterator<Item = u64>) -> Vec<StdRng> {
        seeds.into_iter().map(StdRng::seed_from_u64).collect()
    }

    #[test]
    fn compat_lanes_extract_to_scalar_fault_sets() {
        let host = Hypercube::new(6);
        for (p, seed_base) in [(0.0, 10u64), (0.02, 20), (0.35, 30), (1.0, 40), (f64::NAN, 50)] {
            let seeds: Vec<u64> = (0..64).map(|t| seed_base + t).collect();
            let mut lane_rngs = rngs(seeds.iter().copied());
            let block = BitTrialBlock::<u64>::draw_compat(&host, p, &mut lane_rngs);
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
        let block = BitTrialBlock::<u64>::draw_compat(&host, 0.08, &mut rngs(0..64));
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

    fn partial_blocks_mask_dead_lanes_at<W: LaneWord>(lanes: u32) {
        let host = Hypercube::new(4);
        let block = BitTrialBlock::<W>::draw_compat(&host, 0.3, &mut rngs(0..u64::from(lanes)));
        assert_eq!(block.lanes(), lanes);
        assert_eq!(block.live_mask(), W::mask(lanes));
        for e in host.undirected_edges() {
            let w = block.link_alive_word(host.dir_edge_index(e));
            assert_eq!(w.andnot(block.live_mask()), W::ZERO, "dead lanes must stay clear");
        }
        let sliced = SlicedPaths::new(&gray_cycle_embedding(4));
        assert_eq!(sliced.all_bundles_ge(&block, 1).andnot(block.live_mask()), W::ZERO);
    }

    #[test]
    fn partial_blocks_mask_dead_lanes() {
        assert_eq!(u64::mask(5), 0b11111);
        assert_eq!(u64::mask(64), !0);
        assert_eq!(W256::mask(100), [!0u64, (1u64 << 36) - 1, 0, 0]);
        assert_eq!(W256::mask(256), [!0u64; 4]);
        partial_blocks_mask_dead_lanes_at::<u64>(5);
        partial_blocks_mask_dead_lanes_at::<W256>(100);
    }

    fn from_fault_sets_roundtrip_at<W: LaneWord>(n_sets: u64, seed_base: u64) {
        let host = Hypercube::new(5);
        let sets: Vec<FaultSet> = (0..n_sets)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(seed_base + t);
                random_fault_set(&host, 0.2, &mut rng)
            })
            .collect();
        let block = BitTrialBlock::<W>::from_fault_sets(&host, &sets);
        for (t, set) in sets.iter().enumerate() {
            assert_eq!(&block.lane_fault_set(t as u32), set, "lane {t}");
        }
    }

    #[test]
    fn from_fault_sets_roundtrips_through_lane_extraction() {
        from_fault_sets_roundtrip_at::<u64>(17, 1000);
        from_fault_sets_roundtrip_at::<W256>(17, 1000);
        from_fault_sets_roundtrip_at::<W256>(130, 3000);
    }

    fn fast_draw_extremes_and_determinism_at<W: LaneWord>() {
        let host = Hypercube::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let all_alive = BitTrialBlock::<W>::draw_fast(&host, 0.0, W::WIDTH, &mut rng);
        let all_dead = BitTrialBlock::<W>::draw_fast(&host, 1.0, W::WIDTH, &mut rng);
        let nan = BitTrialBlock::<W>::draw_fast(&host, f64::NAN, W::WIDTH - 28, &mut rng);
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(all_alive.link_alive_word(i), W::mask(W::WIDTH));
            assert_eq!(all_dead.link_alive_word(i), W::ZERO);
            assert_eq!(nan.link_alive_word(i), nan.live_mask());
        }
        // Same seed, same block; and the empirical fail rate is sane.
        let draw = |seed| {
            BitTrialBlock::<W>::draw_fast(
                &host,
                0.25,
                W::WIDTH,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
        };
        let (a, b) = (draw(9), draw(9));
        let mut dead = 0u32;
        let mut total = 0u32;
        for e in host.undirected_edges() {
            let i = host.dir_edge_index(e);
            assert_eq!(a.link_alive_word(i), b.link_alive_word(i));
            dead += a.live_mask().andnot(a.link_alive_word(i)).count_ones();
            total += W::WIDTH;
        }
        let rate = f64::from(dead) / f64::from(total);
        assert!((0.2..0.3).contains(&rate), "fail rate {rate} far from p=0.25");
    }

    #[test]
    fn fast_draw_extremes_and_determinism() {
        fast_draw_extremes_and_determinism_at::<u64>();
        fast_draw_extremes_and_determinism_at::<W256>();
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
            assert_eq!(tn.link_word(i), u64::mask(37));
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

    /// Draws a 256-lane compat block and the 64-lane group blocks from the
    /// same seed list (must have 1..=256 entries).
    fn compat_block_and_groups(
        host: &Hypercube,
        p: f64,
        seeds: &[u64],
    ) -> (BitTrialBlock<W256>, Vec<BitTrialBlock<u64>>) {
        let wide = BitTrialBlock::draw_compat(host, p, &mut rngs(seeds.iter().copied()));
        let groups = seeds
            .chunks(64)
            .map(|chunk| BitTrialBlock::draw_compat(host, p, &mut rngs(chunk.iter().copied())))
            .collect();
        (wide, groups)
    }

    #[test]
    fn compat_256_groups_match_64_lane_blocks_and_scalar_draws() {
        let host = Hypercube::new(5);
        for (p, seed_base, lanes) in
            [(0.02, 100u64, 256u32), (0.3, 200, 256), (0.0, 300, 256), (0.25, 9000, 100)]
        {
            let seeds: Vec<u64> = (0..u64::from(lanes)).map(|t| seed_base + t).collect();
            let (wide, groups) = compat_block_and_groups(&host, p, &seeds);
            assert_eq!(wide.lanes(), lanes);
            assert_eq!(wide.live_mask(), W256::mask(lanes));
            for e in host.undirected_edges() {
                let i = host.dir_edge_index(e);
                let w = wide.link_alive_word(i);
                for (g, gb) in groups.iter().enumerate() {
                    assert_eq!(w[g], gb.link_alive_word(i), "p={p} link {i} group {g}");
                }
                assert!(w[groups.len()..].iter().all(|&x| x == 0), "p={p} link {i}: dead groups");
            }
            // Spot-check lane extraction against the scalar draw across
            // the groups.
            for lane in [0u32, 63, 64, 99, 150, 255].into_iter().filter(|&l| l < lanes) {
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
                let w = sliced.bundle_ge(&wide, b, k);
                for (g, gb) in groups.iter().enumerate() {
                    assert_eq!(w[g], sliced.bundle_ge(gb, b, k), "bundle {b} k={k} group {g}");
                }
            }
            let all = sliced.all_bundles_ge(&wide, k);
            for (g, gb) in groups.iter().enumerate() {
                assert_eq!(all[g], sliced.all_bundles_ge(gb, k), "all-bundles k={k} group {g}");
            }
        }
        for b in 0..sliced.num_bundles() {
            let w = sliced.bundle_survivors(&wide, b);
            for (g, gb) in groups.iter().enumerate() {
                assert_eq!(w[g], sliced.bundle_survivors(gb, b), "survivors {b} group {g}");
            }
        }
        // Recovery predicate: no-retries equals the clamped threshold
        // count; retries only ever adds lanes; k beyond every width
        // clamps to w (all shares needed) rather than to "impossible".
        let w = t1.claimed_width;
        for k in 1..=w + 2 {
            let no_retry = sliced.all_bundles_recovered(&wide, k, false);
            assert_eq!(no_retry, sliced.all_bundles_ge(&wide, k.min(w)), "k={k}");
            let retry = sliced.all_bundles_recovered(&wide, k, true);
            assert_eq!(no_retry.and(retry), no_retry, "retries must not lose lanes, k={k}");
            for (g, gb) in groups.iter().enumerate() {
                assert_eq!(no_retry[g], sliced.all_bundles_recovered(gb, k, false), "k={k} g={g}");
                assert_eq!(retry[g], sliced.all_bundles_recovered(gb, k, true), "k={k} g={g}");
            }
        }
    }

    #[test]
    fn redraw_compat_matches_a_fresh_draw() {
        let host = Hypercube::new(5);
        let mut block = BitTrialBlock::<W256>::draw_compat(&host, 0.5, &mut rngs(0..256));
        block.redraw_compat(0.02, &mut rngs(500..600));
        let fresh = BitTrialBlock::<W256>::draw_compat(&host, 0.02, &mut rngs(500..600));
        assert_eq!(block.lanes(), 100);
        assert_eq!(block.live_mask(), W256::mask(100));
        assert_eq!(block.live_mask(), fresh.live_mask());
        assert_eq!(block.words, fresh.words, "every word, non-canonical slots included");
    }
}
