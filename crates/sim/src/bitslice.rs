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
//! * [`BitTrialBlock::draw_compat`] takes **one seed per lane** and makes
//!   lane `t` replay `StdRng::seed_from_u64(seeds[t])` exactly as
//!   [`random_fault_set`](crate::faults::random_fault_set) would consume
//!   it — same NaN/clamp normalization, one `random_bool` per canonical
//!   link in [`Hypercube::undirected_edges`] order. Extracting lane `t`
//!   with [`BitTrialBlock::lane_fault_set`] therefore reproduces the
//!   scalar trial **bit for bit**, which is what lets e12 and the chaos
//!   harness keep byte-identical outputs after the kernel swap (pinned by
//!   the equality suite in `crates/bench/tests/bitslice_equiv.rs`). The
//!   lanes' xoshiro256++ states (the `rand` shim's `StdRng`, seeded by
//!   SplitMix64) live on the stack as structure of arrays, one row per
//!   state word, so one loop steps many lanes per vector instruction.
//!   Each `random_bool(p)` is the exact integer compare `(x >> 11) <
//!   ceil(p·2^53)`, packed into the lane word without branches, and the
//!   body is compiled twice — portably and with AVX2 — and picked at run
//!   time.
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
//! count. The fold decides all links of a path in one plane loop.
//! [`BitTrialBlock::draw_indexed`] materializes the same trials into an
//! ordinary block, which is what lets the equality suite pin
//! streaming-vs-in-memory identity wherever the dense path still runs.
//!
//! # Settling
//!
//! Survivor counts only grow as paths are added, so once every lane that
//! still matters has reached its threshold the rest of a bundle cannot
//! change the answer. Both folds evaluate each path only on the lanes
//! still waiting — the running accumulator's lanes whose count is below
//! the threshold — and skip the bundle's remaining paths when there are
//! none ([`stream_bundles_ge_into`] for every threshold at once,
//! [`SlicedPaths::all_bundles_ge`] and
//! [`SlicedPaths::all_bundles_recovered`] with the accumulator as the live
//! mask). The words are the ones the unsettled folds produce.
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
use rand::Rng;

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
    /// The word whose 64-lane group `g` is `group(g)`, groups in order.
    fn from_groups(group: impl FnMut(usize) -> u64) -> Self;
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

    #[inline(always)]
    fn from_groups(mut group: impl FnMut(usize) -> u64) -> Self {
        group(0)
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

    #[inline(always)]
    fn from_groups(group: impl FnMut(usize) -> u64) -> Self {
        std::array::from_fn(group)
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

    /// Draws one block with **one seeded stream per lane**: lane `t` of
    /// the block equals `random_fault_set(host, p, &mut
    /// StdRng::seed_from_u64(seeds[t]))` bit for bit (see
    /// [`Self::lane_fault_set`] and
    /// [`random_fault_set`](crate::faults::random_fault_set)), and group
    /// `g` of a [`W256`] block equals a 64-lane draw over the seeds of
    /// lanes `64g..64g + 64`. The lanes' generators are stepped together
    /// as structure-of-arrays state; see the module docs.
    ///
    /// # Panics
    /// Panics unless `1 <= seeds.len() <= W::WIDTH`.
    pub fn draw_compat(host: &Hypercube, p: f64, seeds: &[u64]) -> Self {
        let mut block = Self::zeroed(host, checked_lanes::<W>(seeds.len()));
        block.redraw_compat(p, seeds);
        block
    }

    /// Redraws this block in place, exactly as [`Self::draw_compat`] would
    /// draw a fresh one over the same host: every canonical word is
    /// overwritten and [`Self::lanes`] becomes `seeds.len()`, so a shorter
    /// redraw leaves no stale lanes. Allocation-free (the lane generators
    /// live on the stack), which lets a sweep worker reuse one block
    /// across all its trial chunks. Runs an AVX2 build of the kernel when
    /// the CPU has AVX2 and the portable build otherwise; both produce the
    /// same words.
    ///
    /// # Panics
    /// Panics unless `1 <= seeds.len() <= W::WIDTH`.
    pub fn redraw_compat(&mut self, p: f64, seeds: &[u64]) {
        let threshold = fail_threshold(p);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            return unsafe { redraw_compat_avx2(self, threshold, seeds) };
        }
        redraw_compat_body(self, threshold, seeds);
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

    /// AND-reduction of a path's link words on the lanes of `live`, with
    /// early exit.
    #[inline]
    fn path_word(&self, links: &[u32], live: W) -> W {
        let mut alive = live;
        for &i in links {
            alive = alive.and(self.words[i as usize]);
            if alive == W::ZERO {
                break;
            }
        }
        alive
    }

    /// OR of the path words of `paths` on the lanes of `live`, each path
    /// evaluated on the lanes still without a survivor, stopping once
    /// every lane of `live` has one.
    #[inline]
    fn or_path_words<'a>(&self, paths: impl IntoIterator<Item = &'a [u32]>, live: W) -> W {
        let mut any = W::ZERO;
        for links in paths {
            any = any.or(self.path_word(links, live.andnot(any)));
            if any == live {
                break;
            }
        }
        any
    }
}

/// The 64-bit golden ratio: SplitMix64's increment (the state step of
/// `StdRng::seed_from_u64`) and [`IndexedTrials`]'s link multiplier.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Up to 256 xoshiro256++ generators — the `rand` shim's `StdRng` —
/// stored as structure of arrays: `s[g][j][i]` is state word `j` of lane
/// `64g + i`. Stepping a group touches four contiguous 64-word rows, one
/// per state word, which is what lets the compiler step several lanes per
/// vector instruction.
struct LaneStreams {
    s: [[[u64; 64]; 4]; 4],
}

impl LaneStreams {
    /// Lane `t` seeded as `StdRng::seed_from_u64(seeds[t])`: state word
    /// `j` is the `j`-th SplitMix64 output from `seeds[t]`. Lanes past
    /// `seeds.len()` get the all-zero state, whose draws callers mask off.
    ///
    /// `StdRng::from_seed` swaps an all-zero state for a fixed one, but no
    /// `seed_from_u64` seed reaches it: the four words are the SplitMix64
    /// finalizer, a bijection, applied to four distinct states, so at most
    /// one of them is zero. Hence no such branch here.
    fn new(seeds: &[u64]) -> Self {
        let mut s = [[[0u64; 64]; 4]; 4];
        for (t, &seed) in seeds.iter().enumerate() {
            let mut z = seed;
            for word in &mut s[t / 64] {
                z = z.wrapping_add(GOLDEN_GAMMA);
                word[t % 64] = sm_mix(z);
            }
        }
        LaneStreams { s }
    }

    /// Lane `64g + i`'s next output: one `StdRng::next_u64`.
    #[inline(always)]
    fn next(&mut self, g: usize, i: usize) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s[g];
        let (a, b, c, d) = (s0[i], s1[i], s2[i], s3[i]);
        let x = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let c = c ^ a;
        let d = d ^ b;
        s0[i] = a ^ d;
        s1[i] = b ^ c;
        s2[i] = c ^ (b << 17);
        s3[i] = d.rotate_left(45);
        x
    }

    /// Steps every lane of group `g` `L` times and packs their
    /// `random_bool(p)` outcomes, branch-free: bit `i` of word `l` is set
    /// ⇔ lane `64g + i`'s `l`-th draw `x` keeps its link alive, i.e.
    /// `(x >> 11) >= threshold` with `threshold = ceil(p·2^53)`
    /// ([`fail_threshold`]). Each lane's state is loaded and stored once
    /// for all `L` steps.
    #[inline(always)]
    fn alive_group<const L: usize>(&mut self, g: usize, threshold: u64) -> [u64; L] {
        let mut alive = [0u64; L];
        for i in 0..64 {
            for word in &mut alive {
                let x = self.next(g, i);
                // Both sides are below 2^63, so the difference's sign bit
                // is exactly `(x >> 11) < threshold`, the failure event.
                *word |= (!(x >> 11).wrapping_sub(threshold) >> 63) << i;
            }
        }
        alive
    }
}

/// Links [`redraw_compat_body`] draws per pass over the lane states.
const DRAW_BATCH: usize = 4;

/// The body of [`BitTrialBlock::redraw_compat`], inlined into its portable
/// path and into [`redraw_compat_avx2`]: links in
/// [`Hypercube::undirected_edges`] order, [`DRAW_BATCH`] per pass, every
/// lane taking one draw per link. A short last batch draws past the last
/// link; those draws are dropped with the streams.
#[inline(always)]
fn redraw_compat_body<W: LaneWord>(block: &mut BitTrialBlock<W>, threshold: u64, seeds: &[u64]) {
    block.lanes = checked_lanes::<W>(seeds.len());
    let full = block.live_mask();
    let groups = seeds.len().div_ceil(64);
    let mut streams = LaneStreams::new(seeds);
    let host = block.host;
    let mut links = host.undirected_edges().map(|e| host.dir_edge_index(e)).peekable();
    while links.peek().is_some() {
        let mut alive = [[0u64; DRAW_BATCH]; 4];
        for (g, words) in alive.iter_mut().enumerate().take(groups) {
            *words = streams.alive_group(g, threshold);
        }
        for (l, i) in links.by_ref().take(DRAW_BATCH).enumerate() {
            block.words[i] = W::from_groups(|g| alive[g][l]).and(full);
        }
    }
}

/// [`redraw_compat_body`] compiled with AVX2 enabled, which lets the
/// compiler step four lanes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn redraw_compat_avx2<W: LaneWord>(block: &mut BitTrialBlock<W>, threshold: u64, seeds: &[u64]) {
    redraw_compat_body(block, threshold, seeds);
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

    /// Lanes whose count is at least `k` (`k ≥ 1`; none for `k > 255`,
    /// which no count reaches): the carry-out of adding the constant
    /// `256 - k`. Each plane's carry is the majority of the plane, the
    /// constant's bit and the incoming carry. The planes only ever hold
    /// live lanes, so the result needs no mask.
    #[inline]
    fn at_least(&self, k: usize) -> W {
        debug_assert!(k >= 1);
        if k > 255 {
            return W::ZERO;
        }
        let m = 256 - k as u64;
        let mut carry = W::ZERO;
        for b in 0..8 {
            let plane = self.0[b];
            carry = if (m >> b) & 1 == 1 { plane.or(carry) } else { plane.and(carry) };
        }
        carry
    }
}

/// An embedding's path bundles pre-resolved to link-word indices, so the
/// per-block structural evaluation never touches nodes or edges again.
/// Build once per sweep point, reuse across every trial block. The paths
/// lie back to back in one index array, bundle after bundle.
#[derive(Debug, Clone)]
pub struct SlicedPaths {
    /// Canonical link-word indices of every path, in bundle order.
    links: Vec<u32>,
    /// Path `i` is `links[path_ends[i]..path_ends[i + 1]]`.
    path_ends: Vec<u32>,
    /// Bundle `b` is paths `bundle_ends[b]..bundle_ends[b + 1]`.
    bundle_ends: Vec<u32>,
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
        let all_paths = || e.edge_paths.iter().flatten();
        let num_links = all_paths().map(|p| p.len()).sum();
        let to_u32 = |i: usize| u32::try_from(i).expect("path table indices must fit u32");
        let mut links = Vec::with_capacity(num_links);
        let mut path_ends = Vec::with_capacity(all_paths().count() + 1);
        let mut bundle_ends = Vec::with_capacity(e.edge_paths.len() + 1);
        path_ends.push(0);
        bundle_ends.push(0);
        for bundle in &e.edge_paths {
            assert!(bundle.len() < 256, "bundle too wide for 8-bit survivor counters");
            for p in bundle {
                links.extend(p.edges().map(|edge| e.host.undirected_edge_index(edge) as u32));
                path_ends.push(to_u32(links.len()));
            }
            bundle_ends.push(to_u32(path_ends.len() - 1));
        }
        SlicedPaths { links, path_ends, bundle_ends }
    }

    /// Number of guest-edge bundles.
    pub fn num_bundles(&self) -> usize {
        self.bundle_ends.len() - 1
    }

    /// The paths of bundle `bundle`, each as its link-word indices.
    fn paths(&self, bundle: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        let ends = &self.path_ends
            [self.bundle_ends[bundle] as usize..=self.bundle_ends[bundle + 1] as usize];
        ends.windows(2).map(|w| &self.links[w[0] as usize..w[1] as usize])
    }

    /// Lanes in which at least `k` paths of bundle `bundle` are alive.
    pub fn bundle_ge<W: LaneWord>(&self, block: &BitTrialBlock<W>, bundle: usize, k: usize) -> W {
        self.bundle_ge_in(block, bundle, k, block.live_mask())
    }

    /// [`Self::bundle_ge`] on the lanes of `live` only. The bundle settles
    /// once every lane of `live` has `k` alive paths: counts only grow, so
    /// the remaining paths cannot change the word.
    fn bundle_ge_in<W: LaneWord>(
        &self,
        block: &BitTrialBlock<W>,
        bundle: usize,
        k: usize,
        live: W,
    ) -> W {
        let paths = self.paths(bundle);
        if k == 0 {
            return live;
        }
        if k > paths.len() {
            return W::ZERO;
        }
        if k == 1 {
            // "Any path alive" is a plain OR over the path words.
            return block.or_path_words(paths, live);
        }
        let mut cnt = SurvivorCount::new();
        for links in paths {
            let need = live.andnot(cnt.at_least(k));
            if need == W::ZERO {
                break;
            }
            cnt.add(block.path_word(links, need));
        }
        cnt.at_least(k)
    }

    /// Lanes in which **every** bundle keeps at least `k` alive paths —
    /// the `(w, k)`-dispersal success event ("every
    /// [`surviving_paths`](crate::faults::surviving_paths) count is at
    /// least `k`"), a whole word of trials at a time. Each bundle is
    /// evaluated on the lanes that survived the bundles before it.
    pub fn all_bundles_ge<W: LaneWord>(&self, block: &BitTrialBlock<W>, k: usize) -> W {
        let mut acc = block.live_mask();
        for bundle in 0..self.num_bundles() {
            if acc == W::ZERO {
                break;
            }
            acc = self.bundle_ge_in(block, bundle, k, acc);
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
        self.bundle_survivors_in(block, bundle, block.live_mask())
    }

    /// [`Self::bundle_survivors`] on the lanes of `live` only.
    fn bundle_survivors_in<W: LaneWord>(
        &self,
        block: &BitTrialBlock<W>,
        bundle: usize,
        live: W,
    ) -> W {
        let nonempty = self.paths(bundle).filter(|links| !links.is_empty());
        block.or_path_words(nonempty, live)
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
        for bundle in 0..self.num_bundles() {
            if acc == W::ZERO {
                break;
            }
            let k_eff = k.clamp(1, self.paths(bundle).len());
            let ok = self.bundle_ge_in(block, bundle, k_eff, acc);
            acc = if retries && ok != acc {
                ok.or(self.bundle_survivors_in(block, bundle, acc))
            } else {
                ok
            };
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
#[inline(always)]
fn sm_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Most links [`IndexedTrials::path_word`] decides in one plane loop.
/// Paper paths have at most 3 links, which get a loop of their length.
const PATH_BATCH: usize = 4;

/// A 64-lane fault-trial block that is never materialized: the alive word
/// of any link is recomputed on demand from `(seed, link_index)`.
///
/// The per-link decision is the same bit-sliced exact-threshold comparison
/// as [`BitTrialBlock::draw_fast`] — lane `t`'s 53-bit uniform variate is
/// compared MSB-first against `ceil(p·2^53)` — except that the word
/// holding variate bit `b` of link `i` comes from `sm_mix(sm_mix(seed ⊕
/// i·φ) ⊕ (53 − b))` instead of a sequential stream: plane `j = 53 − b`,
/// numbered from 1 at the most significant bit. Properties that follow:
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
    /// currency): bit `t` set ⇔ the link is up in trial `t`. The one-link
    /// case of the batched path word the streaming fold evaluates.
    #[inline]
    pub fn link_word(&self, link: u64) -> u64 {
        self.path_word(&[link], self.live_mask())
    }

    /// The lanes of `live` in which every link of `links` is up: the AND
    /// of their [`Self::link_word`]s, restricted to `live` (and to the
    /// block's lanes). An empty path is up in every lane of `live`.
    ///
    /// Up to 4 links are decided together in one plane loop (longer paths
    /// take several batches): each plane draws one variate word per link
    /// and updates every link's comparison with masks instead of
    /// branches, and the loop checks for an exit only every 4 planes —
    /// once no lane of `live` that is still up waits on an undecided link.
    /// Lanes outside `live` are never waited on, so a narrow `live` exits
    /// sooner. Every decided bit is the MSB-first comparison's, so the
    /// word equals the serial AND of link words.
    fn path_word(&self, links: &[u64], live: u64) -> u64 {
        let alive = live & self.live_mask();
        match *links {
            [] => alive,
            [a] => self.batch_word([a], alive),
            [a, b] => self.batch_word([a, b], alive),
            [a, b, c] => self.batch_word([a, b, c], alive),
            _ => links.chunks(PATH_BATCH).fold(alive, |alive, chunk| {
                // A repeated link leaves the AND unchanged, so a short
                // last chunk is padded with its own last link.
                let last = chunk.len() - 1;
                self.batch_word::<PATH_BATCH>(std::array::from_fn(|i| chunk[i.min(last)]), alive)
            }),
        }
    }

    /// [`Self::path_word`] over exactly `B` links, one variate word per
    /// link per plane.
    #[inline]
    fn batch_word<const B: usize>(&self, links: [u64; B], live: u64) -> u64 {
        if self.threshold == 0 || live == 0 {
            return live;
        }
        if self.threshold >= 1u64 << 53 {
            return 0;
        }
        let base = links.map(|link| sm_mix(self.seed ^ link.wrapping_mul(GOLDEN_GAMMA)));
        // Per link, the lanes whose variate still ties the threshold.
        let mut undecided = [live; B];
        // Lanes in which some link's variate is below the threshold.
        let mut dead = 0u64;
        // Plane `j` decides variate bit `53 - j`, MSB first.
        for j in 1..=53u64 {
            let t = 0u64.wrapping_sub((self.threshold >> (53 - j)) & 1);
            // Lanes some link still ties.
            let mut open = 0u64;
            for i in 0..B {
                let v = sm_mix(base[i] ^ j);
                // Threshold bit 1: a 0 variate bit decides "below" and a 1
                // keeps the tie. Threshold bit 0: a 1 bit decides "above"
                // and a 0 keeps the tie.
                dead |= undecided[i] & !v & t;
                undecided[i] &= !(v ^ t);
                open |= undecided[i];
            }
            if j % 4 == 0 && open & live & !dead == 0 {
                break;
            }
        }
        // Lanes still tied after the last plane equal the threshold: not
        // below it, so alive.
        live & !dead
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
///
/// A bundle *settles* once every lane that still matters has reached its
/// thresholds: the fold evaluates each path only on the lanes of some
/// `acc[j]` (`ks[j] ≥ 1`) whose count is still below `ks[j]`, and skips
/// the bundle's remaining paths once there are none. Counts only grow, so
/// a lane that reached `ks[j]` keeps it, and a lane outside `acc[j]`
/// cannot change `acc[j]`: the final words are the unsettled fold's.
///
/// # Panics
/// Panics if `ks` and `acc` differ in length, or if a bundle has 256 or
/// more paths (the ripple-carry survivor counter is 8 bits wide).
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
        // Bit-sliced survivor count, shared across all thresholds.
        let mut cnt = SurvivorCount::new();
        // Lanes some positive threshold still waits on.
        let pending = |cnt: &SurvivorCount<u64>| {
            let mut lanes = 0;
            for (&a, &k) in acc.iter().zip(ks) {
                if k > 0 {
                    lanes |= a & !cnt.at_least(k);
                }
            }
            lanes
        };
        let mut need = pending(&cnt);
        if need == 0 {
            return;
        }
        let mut n_paths = 0usize;
        src.for_each_path(b, &mut |links| {
            n_paths += 1;
            if need != 0 {
                cnt.add(trials.path_word(links, need));
                need = pending(&cnt);
            }
        });
        assert!(n_paths < 256, "bundle {b} has {n_paths} paths; survivor counters hold 255");
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

    fn seed_range(range: std::ops::Range<u64>) -> Vec<u64> {
        range.collect()
    }

    #[test]
    fn lane_streams_replay_std_rng() {
        // 0 and u64::MAX among the seeds; every lane of every group.
        let seeds: Vec<u64> = [0, u64::MAX, 1, GOLDEN_GAMMA, GOLDEN_GAMMA.wrapping_neg()]
            .into_iter()
            .chain((5..256u64).map(|t| t.wrapping_mul(0x2545_F491_4F6C_DD1D)))
            .collect();
        let mut streams = LaneStreams::new(&seeds);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        for draw in 0..10_000 {
            for (t, rng) in rngs.iter_mut().enumerate() {
                let want = rng.next_u64();
                assert_eq!(streams.next(t / 64, t % 64), want, "lane {t} draw {draw}");
            }
        }
    }

    /// A redraw body: the portable build, the AVX2 build, or the
    /// dispatcher.
    type RedrawBody<W> = fn(&mut BitTrialBlock<W>, f64, &[u64]);

    /// Every compat redraw body this host can run, by name.
    fn redraw_bodies<W: LaneWord>() -> Vec<(&'static str, RedrawBody<W>)> {
        let mut bodies: Vec<(&'static str, RedrawBody<W>)> = vec![
            ("portable", |b, p, s| redraw_compat_body(b, fail_threshold(p), s)),
            ("dispatch", |b, p, s| b.redraw_compat(p, s)),
        ];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            bodies.push(("avx2", |b, p, s| unsafe { redraw_compat_avx2(b, fail_threshold(p), s) }));
        }
        bodies
    }

    fn compat_lanes_extract_to_scalar_fault_sets_at<W: LaneWord>(n: u32, lane_counts: &[u32]) {
        let host = Hypercube::new(n);
        for (pi, p) in [0.0, f64::NAN, 1.0, 1e-300, 0.05, 0.5].into_iter().enumerate() {
            for &lanes in lane_counts {
                let base = 1000 * pi as u64 + u64::from(lanes);
                let seeds: Vec<u64> = (0..u64::from(lanes)).map(|t| base + t).collect();
                for (name, body) in redraw_bodies::<W>() {
                    // Redraw over a full block of other draws: no stale lane
                    // or word may survive.
                    let mut block = BitTrialBlock::<W>::zeroed(&host, W::WIDTH);
                    body(&mut block, 0.5, &seed_range(7..7 + u64::from(W::WIDTH)));
                    body(&mut block, p, &seeds);
                    assert_eq!(block.lanes(), lanes);
                    for e in host.undirected_edges() {
                        let w = block.link_alive_word(host.dir_edge_index(e));
                        assert_eq!(w.andnot(block.live_mask()), W::ZERO, "{name}: dead lanes set");
                    }
                    for (t, &s) in seeds.iter().enumerate() {
                        let scalar = random_fault_set(&host, p, &mut StdRng::seed_from_u64(s));
                        assert_eq!(
                            block.lane_fault_set(t as u32),
                            scalar,
                            "{name}: lane {t} of {lanes} diverges from the scalar draw at p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compat_lanes_extract_to_scalar_fault_sets() {
        // Q_1's single link is a short last draw batch; Q_6 has 192 links.
        for n in [1, 6] {
            compat_lanes_extract_to_scalar_fault_sets_at::<u64>(n, &[1, 37, 64]);
            compat_lanes_extract_to_scalar_fault_sets_at::<W256>(n, &[1, 37, 64, 65, 200, 256]);
        }
    }

    #[test]
    fn sliced_survival_matches_scalar_surviving_paths() {
        let t1 = theorem1(6).unwrap();
        let host = t1.embedding.host;
        let sliced = SlicedPaths::new(&t1.embedding);
        let block = BitTrialBlock::<u64>::draw_compat(&host, 0.08, &seed_range(0..64));
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
        let block = BitTrialBlock::<W>::draw_compat(&host, 0.3, &seed_range(0..u64::from(lanes)));
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
        let wide = BitTrialBlock::draw_compat(host, p, seeds);
        let groups =
            seeds.chunks(64).map(|chunk| BitTrialBlock::draw_compat(host, p, chunk)).collect();
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
        let mut block = BitTrialBlock::<W256>::draw_compat(&host, 0.5, &seed_range(0..256));
        block.redraw_compat(0.02, &seed_range(500..600));
        let fresh = BitTrialBlock::<W256>::draw_compat(&host, 0.02, &seed_range(500..600));
        assert_eq!(block.lanes(), 100);
        assert_eq!(block.live_mask(), W256::mask(100));
        assert_eq!(block.live_mask(), fresh.live_mask());
        assert_eq!(block.words, fresh.words, "every word, non-canonical slots included");
    }

    /// The per-link word before batching: the MSB-first comparator with an
    /// exit check after every plane.
    fn serial_link_word(trials: &IndexedTrials, link: u64) -> u64 {
        let base = sm_mix(trials.seed ^ link.wrapping_mul(GOLDEN_GAMMA));
        survivors(trials.threshold, trials.live_mask(), |b| sm_mix(base ^ (53 - b)))
    }

    #[test]
    fn batched_path_words_match_the_serial_link_fold() {
        // 0.02 and 0.3 have threshold bits below the top one, so a lane
        // still tied after a few planes can yet fail: they test the exit.
        for p in [0.0, 1.0, f64::NAN, 1e-300, 0.5, 0.02, 0.3] {
            for lanes in [1u32, 23, 64] {
                let trials = IndexedTrials::new(0x5eed ^ u64::from(lanes), p, lanes);
                for len in 0..=9u64 {
                    for start in [0u64, 17, 1 << 40] {
                        let links: Vec<u64> = (0..len).map(|i| start + 7 * i + i * i).collect();
                        let serial = links
                            .iter()
                            .fold(trials.live_mask(), |w, &l| w & serial_link_word(&trials, l));
                        for live in [!0u64, 0, 0xF0F0_F0F0_F0F0_F0F0, 1 << 22, 1] {
                            assert_eq!(
                                trials.path_word(&links, live),
                                serial & live,
                                "p={p} lanes={lanes} links={links:?} live={live:#x}"
                            );
                        }
                        for &l in &links {
                            assert_eq!(trials.link_word(l), serial_link_word(&trials, l));
                        }
                    }
                }
            }
        }
    }

    /// [`stream_bundles_ge_into`] before settling: every path of every
    /// bundle on every lane, link by link.
    fn unsettled_fold(
        src: &dyn BundleSource,
        trials: &IndexedTrials,
        ks: &[usize],
        acc: &mut [u64],
    ) {
        let full = trials.live_mask();
        for b in 0..src.num_bundles() {
            let mut cnt = SurvivorCount::new();
            let mut n_paths = 0usize;
            src.for_each_path(b, &mut |links| {
                n_paths += 1;
                cnt.add(links.iter().fold(full, |w, &l| w & serial_link_word(trials, l)));
            });
            for (a, &k) in acc.iter_mut().zip(ks) {
                *a &= match k {
                    0 => full,
                    k if k > n_paths => 0,
                    k => cnt.at_least(k),
                };
            }
        }
    }

    #[test]
    fn settled_fold_matches_the_unsettled_fold() {
        let sources: Vec<(&str, Box<dyn BundleSource>)> = vec![
            ("theorem1 n8", Box::new(Theorem1Plan::new(8).unwrap())),
            ("theorem2 n6 cost3", Box::new(Theorem2Plan::new(6, false).unwrap())),
            ("theorem2 n6 full", Box::new(Theorem2Plan::new(6, true).unwrap())),
            ("theorem2 n7 full", Box::new(Theorem2Plan::new(7, true).unwrap())),
            ("grid 4x4 in n8", Box::new(GridPlan::new(8, 4, 4, 5).unwrap())),
            ("tree n8", Box::new(BinomialTreePlan::new(8, 4).unwrap())),
            ("gray n8", Box::new(GrayCycleBundles::new(8))),
        ];
        // 0, thresholds past every width (one past 255), and duplicates.
        let ks = [0usize, 1, 2, 3, 3, 4, 5, 9, 300, 1, 0];
        for (name, src) in &sources {
            for (i, p) in [0.0, 0.002, 0.02, 0.1, 0.3].into_iter().enumerate() {
                for lanes in [64u32, 23] {
                    let trials = IndexedTrials::new(0xd1ce ^ (i as u64) << 8, p, lanes);
                    let mut want = vec![trials.live_mask(); ks.len()];
                    unsettled_fold(src.as_ref(), &trials, &ks, &mut want);
                    let mut got = vec![trials.live_mask(); ks.len()];
                    stream_bundles_ge_into(
                        src.as_ref(),
                        &trials,
                        &ks,
                        0..src.num_bundles(),
                        &mut got,
                    );
                    assert_eq!(got, want, "{name} p={p} lanes={lanes}");
                }
            }
        }
    }

    /// One bundle of 256 one-link paths: one more than the survivor
    /// counters hold.
    struct TooWide;

    impl BundleSource for TooWide {
        fn num_bundles(&self) -> u64 {
            1
        }

        fn for_each_path(&self, _bundle: u64, f: &mut dyn FnMut(&[u64])) {
            for link in 0..256 {
                f(&[link]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "survivor counters hold 255")]
    fn streaming_a_256_path_bundle_panics() {
        let trials = IndexedTrials::new(1, 0.1, 64);
        let mut acc = [trials.live_mask()];
        stream_bundles_ge_into(&TooWide, &trials, &[2], 0..1, &mut acc);
    }
}
