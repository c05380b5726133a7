//! Implicit host plans: million-node `Q_n` without `O(n·2^n)` tables.
//!
//! The path bundles of the paper's constructions are closed-form functions
//! of the `u64` node label and a little subcube state. This module exposes
//! them as *plans*:
//!
//! * [`Theorem1Plan`] / [`Theorem2Plan`] — the multiple-path cycle
//!   embeddings of Theorems 1 and 2: `vertex(t)` and the per-guest-edge
//!   path bundles are computed on demand from `O(2^{n/2})` words of
//!   row-subcube state, so the structural fault estimators run at
//!   `n = 20..=24` (1M–16M nodes) in bounded memory.
//! * [`GridPlan`] / [`BinomialTreePlan`] — Gray-coded grids and the
//!   spanning binomial tree, each guest edge widened by the Theorem 1
//!   detour shape, with `O(1)` state.
//!
//! Memory model. A materialized `MultiPathEmbedding` stores
//! `Θ(n·2^n)` words (vertex map plus widened path bundles); the plans here
//! store only the `⌊row_bits/2⌋` directed Hamiltonian cycles of the *row*
//! subcube (`2^{n/2}`-node tables) and a `2^{col_bits}`-entry column-walk
//! index — about 48 bytes per *row-subcube* node, i.e. kilobytes–megabytes
//! where the dense path previously needed gigabytes. The subcube cycles
//! come from [`decompose`], which builds `Q_1` through `Q_13`; so
//! [`Theorem1Plan`] reaches `n = 27` and [`Theorem2Plan`] `n = 25`
//! (26 for the full-width variant).
//!
//! `MultiPathEmbedding` lives downstream (the `embedding` crate); the plans
//! therefore speak plain node labels and dense undirected link indices
//! ([`Hypercube::undirected_edge_index`](crate::cube::Hypercube::undirected_edge_index)),
//! which is exactly the currency of the bit-sliced fault kernels in
//! `sim::bitslice` and of the tenant engine in `sim::tenants`.

use crate::cube::{Dim, Node};
use crate::gray::{gray_code, transition};
use crate::hamiltonian::{
    decompose, decompose_pair, decompose_range, directed_cycles, DirectedHamCycle,
};
use crate::moment::moment;

/// The Gray-dimension relabeling for the theorems' column ordering:
/// Gray bit 0 ↦ position bit 0 (actual dimension `block_bits`), Gray bit 1 ↦
/// position bit 1 (dimension `block_bits + 1`), remaining Gray bits take the
/// remaining column dimensions in increasing order. Shared by
/// `hyperpath_core::cycles::theorem1` and [`Theorem1Plan`] so the two can
/// never drift apart.
pub fn gray_dim_permutation(col_bits: u32, block_bits: u32) -> Vec<Dim> {
    assert!(col_bits >= block_bits + 2, "need at least two position bits");
    let mut pi = vec![block_bits, block_bits + 1];
    pi.extend((0..block_bits).chain(block_bits + 2..col_bits));
    pi
}

/// The dense link index of the undirected link `{x, x ⊕ 2^d}` in `Q_n`.
#[inline]
fn link_of(n: u32, x: Node, d: Dim) -> u64 {
    (x & !(1u64 << d)) * u64::from(n) + u64::from(d)
}

/// Theorem 1's width-`⌊n/2⌋` cycle embedding as an implicit *plan*:
/// `vertex(t)` and the per-edge path bundles are recomputed from
/// `O(2^{n/2})` words of state, never materialized.
///
/// Construction identical to `hyperpath_core::cycles::theorem1` (the
/// equivalence suite in `crates/core/tests/implicit_plan.rs` pins bundle-
/// for-bundle equality): `Q_n` factors into `2^row_bits` rows ×
/// `2^col_bits` columns, each column carries the directed row-subcube
/// Hamiltonian cycle selected by the moment of its position field, and the
/// guest cycle threads every column in permuted Gray order.
#[derive(Debug, Clone)]
pub struct Theorem1Plan {
    k: u32,
    r: u32,
    row_bits: u32,
    col_bits: u32,
    dims: u32,
    pi: Vec<Dim>,
    /// `cycle_at[c][p]`: the row at position `p` of directed row cycle `c`.
    cycle_at: Vec<Vec<u32>>,
    /// `start_pos[j]`: position on its special cycle of the row where the
    /// guest cycle enters column segment `j`.
    start_pos: Vec<u32>,
}

impl Theorem1Plan {
    /// Builds the plan for `Q_n`, `4 ≤ n ≤ 27`: the row subcube
    /// `Q_{2⌊n/4⌋}` must be within [`decompose`]'s range (`Q_1`–`Q_13`).
    /// Other `n` are an error.
    pub fn new(n: u32) -> Result<Self, String> {
        Self::accepts(n)?;
        let k = n / 4;
        let r = n % 4;
        let row_bits = 2 * k;
        let col_bits = 2 * k + r;

        let dec = decompose(row_bits)?;
        let dirs = directed_cycles(&dec);
        let a = dirs.len() as u32; // 2k directed cycles, orientation-paired
        debug_assert_eq!(a, 2 * k);

        let rows = 1u64 << row_bits;
        let mut cycle_at = Vec::with_capacity(dirs.len());
        let mut cycle_pos = Vec::with_capacity(dirs.len());
        for d in &dirs {
            let seq = d.nodes_from(0);
            let mut at = vec![0u32; rows as usize];
            let mut pos = vec![0u32; rows as usize];
            for (i, &v) in seq.iter().enumerate() {
                at[i] = v as u32;
                pos[v as usize] = i as u32;
            }
            cycle_at.push(at);
            cycle_pos.push(pos);
        }

        // Walk the permuted-Gray column sequence once, recording where the
        // guest cycle enters each column's special cycle. Each segment
        // advances `rows - 1` steps, so it exits one position *behind* its
        // entry.
        let pi = gray_dim_permutation(col_bits, r);
        let col_count = 1u64 << col_bits;
        let mut start_pos = Vec::with_capacity(col_count as usize);
        let mut row: Node = 0;
        let mut col: Node = 0;
        for j in 0..col_count {
            let c = (moment(col >> r) % a) as usize;
            let p = cycle_pos[c][row as usize];
            start_pos.push(p);
            row = u64::from(cycle_at[c][((u64::from(p) + rows - 1) % rows) as usize]);
            col ^= 1u64 << pi[transition(col_bits, j) as usize];
        }
        if col != 0 || row != 0 {
            return Err(format!(
                "cycle C failed to close: ended at row {row:#x}, col {col:#x} \
                 (moment/orientation pairing broken)"
            ));
        }

        Ok(Theorem1Plan { k, r, row_bits, col_bits, dims: n, pi, cycle_at, start_pos })
    }

    /// Whether [`new`](Self::new) accepts `n`, with the error it would
    /// return, without building anything.
    pub fn accepts(n: u32) -> Result<(), String> {
        if n < 4 {
            return Err("Theorem 1 requires n >= 4 (k >= 1)".into());
        }
        decompose_range(2 * (n / 4))
    }

    /// Host dimension count `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Guest cycle length = bundle count, `2^n`.
    pub fn num_bundles(&self) -> u64 {
        1u64 << self.dims
    }

    /// The width the theorem claims, `⌊n/2⌋`.
    pub fn claimed_width(&self) -> u32 {
        self.dims / 2
    }

    /// Paths per bundle: the direct path plus `2k` length-3 detours.
    pub fn paths_per_bundle(&self) -> u32 {
        2 * self.k + 1
    }

    /// The column value of Gray rank `j`, scattered through the dimension
    /// permutation.
    #[inline]
    fn column(&self, j: u64) -> Node {
        let mut col = 0u64;
        let mut g = gray_code(j);
        while g != 0 {
            col |= 1u64 << self.pi[g.trailing_zeros() as usize];
            g &= g - 1;
        }
        col
    }

    /// The `t`-th node of the guest cycle `C` (`0 ≤ t < 2^n`), identical to
    /// `theorem1(n)`'s `vertex_map[t]`.
    #[inline]
    pub fn vertex(&self, t: u64) -> Node {
        debug_assert!(t < self.num_bundles());
        let rows = 1u64 << self.row_bits;
        let j = t >> self.row_bits;
        let s = t & (rows - 1);
        let col = self.column(j);
        let c = (moment(col >> self.r) % (2 * self.k)) as usize;
        let pos = (u64::from(self.start_pos[j as usize]) + s) % rows;
        (u64::from(self.cycle_at[c][pos as usize]) << self.col_bits) | col
    }

    /// Visits the path bundle of guest edge `t` in the exact order
    /// `theorem1` materializes it: the direct path first, then the `2k`
    /// length-3 detours. Each path is presented as its sequence of dense
    /// undirected link indices
    /// ([`Hypercube::undirected_edge_index`](crate::cube::Hypercube::undirected_edge_index)
    /// currency).
    /// Allocation-free.
    pub fn for_each_path(&self, t: u64, mut f: impl FnMut(&[u64])) {
        let u = self.vertex(t);
        let v = self.vertex((t + 1) & (self.num_bundles() - 1));
        let i = (u ^ v).trailing_zeros();
        let base = if i >= self.col_bits { self.r } else { self.col_bits };
        let n = self.dims;
        f(&[link_of(n, u, i)]);
        for j in 0..2 * self.k {
            let b = base + j;
            debug_assert_ne!(b, i);
            let x = u ^ (1u64 << b);
            f(&[link_of(n, u, b), link_of(n, x, i), link_of(n, x ^ (1u64 << i), b)]);
        }
    }
}

/// Theorem 2's load-2 cycle embedding as an implicit plan.
///
/// The guest is the Eulerian tour of the row+column special-cycle union;
/// the *tour order* is a global object, but the multiset of guest edges is
/// not — it is exactly `{(v, out(v, which)) : v ∈ Q_n, which ∈ {0, 1}}` —
/// and the structural fault estimators are conjunctions over bundles, so
/// bundle `t` here simply enumerates that multiset by `v = t >> 1`,
/// `which = t & 1`. Bundle contents match `theorem2`'s `widen_edge` output
/// path-for-path (pinned by `crates/core/tests/implicit_plan.rs`).
#[derive(Debug, Clone)]
pub struct Theorem2Plan {
    dims: u32,
    row_bits: u32,
    col_bits: u32,
    block_bits: u32,
    claimed: u32,
    col_dirs: Vec<DirectedHamCycle>,
    row_dirs: Vec<DirectedHamCycle>,
}

impl Theorem2Plan {
    /// Builds the plan for `Q_n`. `full_width` selects the
    /// width-`⌊n/2⌋` variant for `n ≡ 2, 3 (mod 4)`
    /// (`Theorem2Variant::FullWidth`); `false` is the cost-3 variant.
    ///
    /// The row and column subcubes must be within [`decompose`]'s range
    /// (`Q_1`–`Q_13`), so `4 ≤ n ≤ 25`, or `n ≤ 26` with `full_width`.
    /// Other `n` are an error.
    pub fn new(n: u32, full_width: bool) -> Result<Self, String> {
        if n < 4 {
            return Err("Theorem 2 requires n >= 4 (k >= 1)".into());
        }
        let k = n / 4;
        let r = n % 4;
        let (row_bits, col_bits) = match (full_width, r) {
            (_, 0) => (2 * k, 2 * k),
            (_, 1) => (2 * k, 2 * k + 1),
            (false, 2) => (2 * k, 2 * k + 2),
            (true, 2) => (2 * k + 1, 2 * k + 1),
            (false, 3) => (2 * k, 2 * k + 3),
            (true, 3) => (2 * k + 1, 2 * k + 2),
            _ => unreachable!(),
        };
        // The column subcube is never the smaller one, so an out-of-range
        // n fails here before anything is built, and one walk up the
        // Lemma 1 chain builds both subcubes.
        let (row_dec, col_dec) = decompose_pair(row_bits, col_bits)?;
        let row_dirs = directed_cycles(&col_dec);
        let col_dirs = row_dec.as_ref().map_or_else(|| row_dirs.clone(), directed_cycles);
        let claimed = match (full_width, r) {
            (false, 2 | 3) => n / 2 - 1,
            _ => n / 2,
        };
        Ok(Theorem2Plan {
            dims: n,
            row_bits,
            col_bits,
            block_bits: col_bits - row_bits,
            claimed,
            col_dirs,
            row_dirs,
        })
    }

    /// Host dimension count `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Guest cycle length = bundle count, `2^{n+1}`.
    pub fn num_bundles(&self) -> u64 {
        1u64 << (self.dims + 1)
    }

    /// The width the theorem claims for the selected variant.
    pub fn claimed_width(&self) -> u32 {
        self.claimed
    }

    /// Paths per bundle (`row_bits` length-3 detours; no direct path).
    pub fn paths_per_bundle(&self) -> u32 {
        self.row_bits
    }

    /// The union-graph guest edge enumerated by `t`: tail and head.
    #[inline]
    pub fn guest_edge(&self, t: u64) -> (Node, Node) {
        debug_assert!(t < self.num_bundles());
        let v = t >> 1;
        let (y, c) = (v >> self.col_bits, v & ((1u64 << self.col_bits) - 1));
        let target = if t & 1 == 0 {
            let dir = &self.row_dirs[(moment(y) % self.row_dirs.len() as u32) as usize];
            (y << self.col_bits) | dir.successor(c)
        } else {
            let m = moment(c >> self.block_bits) % self.col_dirs.len() as u32;
            (self.col_dirs[m as usize].successor(y) << self.col_bits) | c
        };
        (v, target)
    }

    /// Visits the path bundle of guest edge `t` in `theorem2`'s
    /// `widen_edge` order (no direct path; `row_bits` length-3 detours).
    /// Allocation-free.
    pub fn for_each_path(&self, t: u64, mut f: impl FnMut(&[u64])) {
        let (u, v) = self.guest_edge(t);
        let i = (u ^ v).trailing_zeros();
        let base = if i >= self.col_bits { self.block_bits } else { self.col_bits };
        let n = self.dims;
        for j in 0..self.row_bits {
            let b = base + j;
            debug_assert_ne!(b, i);
            let x = u ^ (1u64 << b);
            f(&[link_of(n, u, b), link_of(n, x, i), link_of(n, x ^ (1u64 << i), b)]);
        }
    }
}

/// Emits the widened path bundle of a *dilation-1* guest edge
/// `{u, u ⊕ 2^i}`: the direct link first, then length-3 detours
/// `u → u⊕2^b → u⊕2^b⊕2^i → u⊕2^i` through the `width - 1` smallest
/// dimensions `b ≠ i` — the Theorem 1 detour shape, which makes the bundle
/// edge-disjoint by construction (each detour owns its dimension-`b`
/// links, and its middle link `{u⊕2^b, u⊕2^b⊕2^i}` differs from the
/// direct link and from every other detour's middle). Allocation-free.
fn emit_dilation1_bundle(n: u32, u: Node, i: Dim, width: u32, f: &mut dyn FnMut(&[u64])) {
    debug_assert!(i < n && width >= 1 && width <= n);
    f(&[link_of(n, u, i)]);
    let mut emitted = 1;
    let mut b = 0;
    while emitted < width && b < n {
        if b != i {
            let x = u ^ (1u64 << b);
            f(&[link_of(n, u, b), link_of(n, x, i), link_of(n, x ^ (1u64 << i), b)]);
            emitted += 1;
        }
        b += 1;
    }
}

/// A `2^a × 2^b` grid guest embedded in `Q_{a+b}` with Gray-coded axes
/// (dilation 1) as an implicit plan, each guest edge widened to a
/// `width`-path bundle by the Theorem 1 detour shape. Nothing is
/// materialized: the guest edge enumerated by `t` and its bundle are
/// closed-form functions of `t`, so a grid tenant over a million-node
/// host costs `O(1)` state.
///
/// Grid node `(x, y)` maps to host node `gray(x) | gray(y) << a`; the
/// axis-0 edge `(x, y)–(x+1, y)` crosses host dimension
/// `trailing_zeros(x+1)` and the axis-1 edge `(x, y)–(x, y+1)` crosses
/// `a + trailing_zeros(y+1)` — single host links, by the Gray adjacency.
#[derive(Debug, Clone, Copy)]
pub struct GridPlan {
    dims: u32,
    a: u32,
    b: u32,
    width: u32,
}

impl GridPlan {
    /// Builds the plan for a `2^a × 2^b` grid in `Q_n` (`a, b ≥ 1`,
    /// `a + b ≤ n`, `1 ≤ width ≤ n`: one direct link plus up to `n - 1`
    /// detours).
    pub fn new(n: u32, a: u32, b: u32, width: u32) -> Result<Self, String> {
        if a == 0 || b == 0 {
            return Err("grid axes need at least one bit each".into());
        }
        if a + b > n {
            return Err(format!("a 2^{a} x 2^{b} grid does not fit in Q_{n}"));
        }
        if width == 0 || width > n {
            return Err(format!("width {width} outside 1..={n} (direct link + n-1 detours)"));
        }
        Ok(GridPlan { dims: n, a, b, width })
    }

    /// Host dimension count `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Paths per bundle.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Guest edges: `(2^a - 1)·2^b` along axis 0 plus `2^a·(2^b - 1)`
    /// along axis 1.
    pub fn num_bundles(&self) -> u64 {
        let (ra, rb) = (1u64 << self.a, 1u64 << self.b);
        (ra - 1) * rb + ra * (rb - 1)
    }

    /// The host images of guest edge `t`'s endpoints (tail has the lower
    /// grid coordinate along the edge's axis).
    #[inline]
    pub fn guest_edge(&self, t: u64) -> (Node, Node) {
        let (u, i) = self.edge_anchor(t);
        (u, u ^ (1u64 << i))
    }

    /// Guest edge `t` as (host tail, crossed dimension).
    #[inline]
    fn edge_anchor(&self, t: u64) -> (Node, Dim) {
        debug_assert!(t < self.num_bundles());
        let (ra, rb) = (1u64 << self.a, 1u64 << self.b);
        let axis0 = (ra - 1) * rb;
        let (x, y, d) = if t < axis0 {
            let (x, y) = (t % (ra - 1), t / (ra - 1));
            (x, y, (x + 1).trailing_zeros())
        } else {
            let s = t - axis0;
            let (x, y) = (s % ra, s / ra);
            (x, y, self.a + (y + 1).trailing_zeros())
        };
        (gray_code(x) | (gray_code(y) << self.a), d)
    }

    /// Visits the bundle of guest edge `t`: the direct host link, then
    /// `width - 1` length-3 detours. Allocation-free; link indices in
    /// [`Hypercube::undirected_edge_index`](crate::cube::Hypercube::undirected_edge_index)
    /// currency.
    pub fn for_each_path(&self, t: u64, mut f: impl FnMut(&[u64])) {
        let (u, i) = self.edge_anchor(t);
        emit_dilation1_bundle(self.dims, u, i, self.width, &mut f);
    }
}

/// The spanning binomial tree of `Q_n` as an implicit plan: every nonzero
/// node's parent clears its highest set bit, so each of the `2^n - 1`
/// guest (tree) edges is a single host link (dilation 1), widened to a
/// `width`-path bundle by the Theorem 1 detour shape. The natural "tree
/// tenant": broadcast/reduction traffic shapes over a shared cube with
/// `O(1)` plan state.
#[derive(Debug, Clone, Copy)]
pub struct BinomialTreePlan {
    dims: u32,
    width: u32,
}

impl BinomialTreePlan {
    /// Builds the plan for `Q_n` (`n ≥ 1`, `1 ≤ width ≤ n`).
    pub fn new(n: u32, width: u32) -> Result<Self, String> {
        if n == 0 {
            return Err("Q_0 has no tree edges".into());
        }
        if width == 0 || width > n {
            return Err(format!("width {width} outside 1..={n} (direct link + n-1 detours)"));
        }
        Ok(BinomialTreePlan { dims: n, width })
    }

    /// Host dimension count `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Paths per bundle.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Guest edges: one per nonzero node, `2^n - 1`.
    pub fn num_bundles(&self) -> u64 {
        (1u64 << self.dims) - 1
    }

    /// The host images of guest edge `t`'s endpoints (parent first):
    /// child `t + 1`, parent with the child's highest bit cleared.
    #[inline]
    pub fn guest_edge(&self, t: u64) -> (Node, Node) {
        debug_assert!(t < self.num_bundles());
        let child = t + 1;
        let d = 63 - child.leading_zeros();
        (child ^ (1u64 << d), child)
    }

    /// Visits the bundle of guest edge `t`: the direct host link, then
    /// `width - 1` length-3 detours. Allocation-free; link indices in
    /// [`Hypercube::undirected_edge_index`](crate::cube::Hypercube::undirected_edge_index)
    /// currency.
    pub fn for_each_path(&self, t: u64, mut f: impl FnMut(&[u64])) {
        let (parent, child) = self.guest_edge(t);
        let d = (parent ^ child).trailing_zeros();
        emit_dilation1_bundle(self.dims, parent, d, self.width, &mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_plan_vertices_form_the_guest_cycle() {
        for n in [4u32, 5, 6, 7, 8, 9] {
            let plan = Theorem1Plan::new(n).unwrap();
            let size = plan.num_bundles();
            let mut seen = vec![false; size as usize];
            for t in 0..size {
                let u = plan.vertex(t);
                assert!(!seen[u as usize], "n={n}: vertex {u:#x} repeated");
                seen[u as usize] = true;
                let v = plan.vertex((t + 1) & (size - 1));
                assert_eq!((u ^ v).count_ones(), 1, "n={n} t={t}: not a cube edge");
            }
        }
        // n = 28 needs a Q_14 row subcube, past decompose's range.
        let err = Theorem1Plan::new(28).unwrap_err();
        assert!(err.contains("Q_14"), "{err}");
    }

    #[test]
    fn theorem1_plan_bundle_links_are_distinct() {
        let plan = Theorem1Plan::new(8).unwrap();
        for t in [0u64, 1, 37, 200, 255] {
            let mut links = Vec::new();
            plan.for_each_path(t, |p| links.extend_from_slice(p));
            let mut sorted = links.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), links.len(), "t={t}: bundle reuses a link");
            assert_eq!(links.len() as u32, 1 + 3 * 2 * 2, "t={t}");
        }
    }

    #[test]
    fn theorem2_plan_guest_edges_cover_the_union() {
        for n in [4u32, 5, 6] {
            let plan = Theorem2Plan::new(n, false).unwrap();
            let mut out_degree = vec![0u32; 1usize << n];
            let mut in_degree = vec![0u32; 1usize << n];
            for t in 0..plan.num_bundles() {
                let (u, v) = plan.guest_edge(t);
                assert_eq!((u ^ v).count_ones(), 1, "n={n} t={t}");
                out_degree[u as usize] += 1;
                in_degree[v as usize] += 1;
            }
            assert!(out_degree.iter().all(|&d| d == 2), "n={n}: union must be 2-out-regular");
            assert!(in_degree.iter().all(|&d| d == 2), "n={n}: union must be 2-in-regular");
        }
        // The cost-3 variant at n = 26 needs a Q_14 column subcube.
        let err = Theorem2Plan::new(26, false).unwrap_err();
        assert!(err.contains("Q_14"), "{err}");
    }

    #[test]
    fn theorem2_plan_builds_its_subcubes_once_as_two_calls_would() {
        // The row subcube is Q_8; the column subcube is Q_8, Q_9, Q_10.
        for n in [16u32, 17, 18] {
            let plan = Theorem2Plan::new(n, false).unwrap();
            assert_eq!(plan.row_bits, 8, "n={n}");
            let dirs = |bits: u32| format!("{:?}", directed_cycles(&decompose(bits).unwrap()));
            assert_eq!(format!("{:?}", plan.row_dirs), dirs(plan.col_bits), "n={n}");
            assert_eq!(format!("{:?}", plan.col_dirs), dirs(plan.row_bits), "n={n}");
        }
    }

    /// Decodes a dense undirected link index back to `(base node, dim)` —
    /// inverse of `link_of` for checking emitted paths.
    fn link_endpoints(n: u32, link: u64) -> (Node, Node) {
        let d = (link % u64::from(n)) as u32;
        let base = link / u64::from(n);
        debug_assert_eq!(base & (1u64 << d), 0);
        (base, base | (1u64 << d))
    }

    /// Checks a dilation-1 plan's bundle for guest edge `t`: the claimed
    /// number of link-disjoint walks from `u` to `v`, the first of length 1.
    fn check_bundle(
        n: u32,
        (u, v): (Node, Node),
        width: u32,
        paths: &[Vec<u64>],
    ) -> Result<(), String> {
        if paths.len() != width as usize {
            return Err(format!("expected {width} paths, got {}", paths.len()));
        }
        if paths[0].len() != 1 {
            return Err("first path must be the direct link".into());
        }
        let mut seen = std::collections::HashSet::new();
        for p in paths {
            // Walk the undirected link slice from u, as the sim layer does.
            let mut at = u;
            for &l in p {
                if !seen.insert(l) {
                    return Err(format!("link {l} repeated in bundle"));
                }
                let (a, b) = link_endpoints(n, l);
                at = if at == a {
                    b
                } else if at == b {
                    a
                } else {
                    return Err(format!("path {p:?} is not a walk from {u}"));
                };
            }
            if at != v {
                return Err(format!("path {p:?} ends at {at}, not {v}"));
            }
        }
        Ok(())
    }

    #[test]
    fn grid_plan_edges_are_gray_adjacent_and_counted() {
        for (n, a, b) in [(4u32, 2u32, 2u32), (5, 2, 3), (6, 3, 2)] {
            let plan = GridPlan::new(n, a, b, n.min(4)).unwrap();
            let (ra, rb) = (1u64 << a, 1u64 << b);
            assert_eq!(plan.num_bundles(), (ra - 1) * rb + ra * (rb - 1));
            let mut hosts = std::collections::HashSet::new();
            for t in 0..plan.num_bundles() {
                let (u, v) = plan.guest_edge(t);
                assert_eq!((u ^ v).count_ones(), 1, "guest edge {t} must be a cube edge");
                assert!(u < (1u64 << n) && v < (1u64 << n));
                assert!(hosts.insert((u.min(v), u.max(v))), "edge {t} duplicated");
            }
        }
    }

    #[test]
    fn grid_plan_bundles_are_link_disjoint_walks() {
        let plan = GridPlan::new(6, 3, 2, 5).unwrap();
        for t in 0..plan.num_bundles() {
            let mut paths = Vec::new();
            plan.for_each_path(t, |p| paths.push(p.to_vec()));
            check_bundle(6, plan.guest_edge(t), plan.width(), &paths)
                .unwrap_or_else(|e| panic!("edge {t}: {e}"));
        }
    }

    #[test]
    fn grid_plan_rejects_bad_shapes() {
        assert!(GridPlan::new(4, 0, 2, 1).is_err(), "degenerate axis");
        assert!(GridPlan::new(4, 3, 2, 1).is_err(), "grid larger than host");
        assert!(GridPlan::new(4, 2, 2, 0).is_err(), "zero width");
        assert!(GridPlan::new(4, 2, 2, 5).is_err(), "width beyond n");
        assert!(GridPlan::new(4, 2, 2, 4).is_ok());
    }

    #[test]
    fn binomial_tree_plan_spans_the_cube() {
        for n in [3u32, 5, 8] {
            let plan = BinomialTreePlan::new(n, n.min(3)).unwrap();
            assert_eq!(plan.num_bundles(), (1u64 << n) - 1);
            // parent(child) clears the highest set bit ⇒ every nonzero node
            // appears exactly once as a child and the edges form a tree
            // rooted at 0.
            let mut children = std::collections::HashSet::new();
            for t in 0..plan.num_bundles() {
                let (parent, child) = plan.guest_edge(t);
                assert_eq!((parent ^ child).count_ones(), 1);
                assert_eq!(child, t + 1);
                assert!(parent < child, "parent clears the top bit");
                assert!(children.insert(child));
            }
            assert_eq!(children.len(), (1usize << n) - 1);
        }
    }

    #[test]
    fn binomial_tree_bundles_are_link_disjoint_walks() {
        let plan = BinomialTreePlan::new(5, 4).unwrap();
        for t in 0..plan.num_bundles() {
            let mut paths = Vec::new();
            plan.for_each_path(t, |p| paths.push(p.to_vec()));
            check_bundle(5, plan.guest_edge(t), plan.width(), &paths)
                .unwrap_or_else(|e| panic!("edge {t}: {e}"));
        }
    }

    #[test]
    fn binomial_tree_plan_rejects_bad_shapes() {
        assert!(BinomialTreePlan::new(0, 1).is_err());
        assert!(BinomialTreePlan::new(4, 0).is_err());
        assert!(BinomialTreePlan::new(4, 5).is_err());
        assert!(BinomialTreePlan::new(4, 4).is_ok());
    }
}
