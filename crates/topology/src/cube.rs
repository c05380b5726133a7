//! The directed Boolean hypercube `Q_n`.
//!
//! `Q_n` has `2^n` nodes with distinct `n`-bit addresses and a directed edge
//! `(u, v)` whenever the addresses differ in exactly one bit position; the
//! edge *lies in dimension `i`* when that position is bit `i`. Each
//! undirected link is modeled as a pair of oppositely directed edges, exactly
//! as in Section 3 of the paper.

use serde::{Deserialize, Serialize};

/// A hypercube node address. Bit `d` of the address is the node's coordinate
/// in dimension `d`.
pub type Node = u64;

/// A hypercube dimension index (`0 ≤ d < n`).
pub type Dim = u32;

/// The largest supported dimension count.
///
/// Addresses are `u64`, and the widest index computation is the dense
/// directed-edge count `n · 2^n`, which stays exact in `u64` through
/// `n = 58` — so 48 is *not* an overflow boundary. It is a deliberate
/// sanity bound: dense edge indices are `usize` (so anything near the
/// limit already assumes a 64-bit platform), every materialized table is
/// hopeless long before `2^48` nodes, and the implicit
/// [`crate::host`] layer targets `n ≤ ~27` for its `O(2^{n/2})` plans —
/// anything above 48 is a bug in the caller, not a workload.
pub const MAX_DIMS: u32 = 48;

/// A directed hypercube edge, identified by its tail and dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DirEdge {
    /// Tail node of the edge.
    pub from: Node,
    /// Dimension the edge crosses.
    pub dim: Dim,
}

impl DirEdge {
    /// Creates a directed edge leaving `from` across `dim`.
    pub fn new(from: Node, dim: Dim) -> Self {
        DirEdge { from, dim }
    }

    /// Head node of the edge.
    #[inline]
    pub fn to(&self) -> Node {
        self.from ^ (1u64 << self.dim)
    }

    /// The same link traversed in the opposite direction.
    #[inline]
    pub fn reversed(&self) -> DirEdge {
        DirEdge { from: self.to(), dim: self.dim }
    }

    /// Canonical representative of the *undirected* link underlying this
    /// edge: the orientation whose tail has a 0 in `dim`.
    #[inline]
    pub fn undirected(&self) -> DirEdge {
        DirEdge { from: self.from & !(1u64 << self.dim), dim: self.dim }
    }
}

/// The `n`-dimensional Boolean hypercube.
///
/// A lightweight value type: it stores only the dimension count and exposes
/// address arithmetic, iteration, and the dense edge indexings used by
/// congestion accounting throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hypercube {
    dims: u32,
}

impl Hypercube {
    /// Creates `Q_n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_DIMS`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "hypercube must have at least one dimension");
        assert!(n <= MAX_DIMS, "hypercube dimension {n} exceeds MAX_DIMS={MAX_DIMS}");
        Hypercube { dims: n }
    }

    /// Number of dimensions `n`.
    #[inline]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Number of nodes, `2^n`.
    #[inline]
    pub fn num_nodes(&self) -> u64 {
        1u64 << self.dims
    }

    /// Number of *directed* edges, `n · 2^n`.
    #[inline]
    pub fn num_directed_edges(&self) -> u64 {
        u64::from(self.dims) << self.dims
    }

    /// Number of *undirected* links, `n · 2^(n-1)`.
    #[inline]
    pub fn num_undirected_edges(&self) -> u64 {
        self.num_directed_edges() / 2
    }

    /// Whether `v` is a valid address in this cube.
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        v < self.num_nodes()
    }

    /// The neighbor of `v` across dimension `d`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `d` is out of range or `v` is not a node.
    #[inline]
    pub fn neighbor(&self, v: Node, d: Dim) -> Node {
        debug_assert!(d < self.dims, "dimension {d} out of range for Q_{}", self.dims);
        debug_assert!(self.contains(v), "node {v:#x} out of range for Q_{}", self.dims);
        v ^ (1u64 << d)
    }

    /// Iterates over all node addresses `0..2^n`.
    pub fn nodes(&self) -> impl Iterator<Item = Node> {
        0..self.num_nodes()
    }

    /// Iterates over all dimensions `0..n`.
    pub fn dimensions(&self) -> impl Iterator<Item = Dim> {
        0..self.dims
    }

    /// Iterates over all directed edges.
    pub fn directed_edges(&self) -> impl Iterator<Item = DirEdge> + '_ {
        let dims = self.dims;
        self.nodes().flat_map(move |v| (0..dims).map(move |d| DirEdge::new(v, d)))
    }

    /// Iterates over canonical representatives of all undirected links
    /// (tail has bit `dim` clear).
    pub fn undirected_edges(&self) -> impl Iterator<Item = DirEdge> + '_ {
        self.directed_edges().filter(|e| e.from & (1u64 << e.dim) == 0)
    }

    /// Dense index of a directed edge in `0..n·2^n`: `from · n + dim`.
    #[inline]
    pub fn dir_edge_index(&self, e: DirEdge) -> usize {
        debug_assert!(self.contains(e.from) && e.dim < self.dims);
        (e.from * u64::from(self.dims) + u64::from(e.dim)) as usize
    }

    /// Inverse of [`dir_edge_index`](Self::dir_edge_index).
    #[inline]
    pub fn dir_edge_from_index(&self, idx: usize) -> DirEdge {
        let n = u64::from(self.dims);
        DirEdge::new(idx as u64 / n, (idx as u64 % n) as Dim)
    }

    /// Dense index of an undirected link in `0..n·2^n` (canonical
    /// orientation; half the slots are unused, which keeps the arithmetic
    /// branch-free — congestion arrays simply allocate `n·2^n` slots).
    #[inline]
    pub fn undirected_edge_index(&self, e: DirEdge) -> usize {
        self.dir_edge_index(e.undirected())
    }

    /// The dimension in which two adjacent nodes differ, or `None` if they
    /// are not hypercube-adjacent.
    #[inline]
    pub fn edge_dim(&self, u: Node, v: Node) -> Option<Dim> {
        let x = u ^ v;
        (x != 0 && x & (x - 1) == 0).then(|| x.trailing_zeros())
    }

    /// Hamming distance between two addresses.
    #[inline]
    pub fn distance(&self, u: Node, v: Node) -> u32 {
        (u ^ v).count_ones()
    }

    /// Splits this cube as the cross product `Q_low × Q_high` with
    /// `low + high = n`: the low `low` bits address a node of the first
    /// factor, the high `high` bits a node of the second. Returns the two
    /// factors.
    ///
    /// This is the "grid view" of Theorems 1 and 2: the high bits name a
    /// *row* and the low bits name a *column*.
    pub fn factor(&self, low: u32) -> (Hypercube, Hypercube) {
        assert!(low > 0 && low < self.dims, "factor split must be proper");
        (Hypercube::new(low), Hypercube::new(self.dims - low))
    }

    /// Composes an address from a low-bit part and a high-bit part under the
    /// `factor(low)` split.
    #[inline]
    pub fn compose(&self, low_bits: u32, low: Node, high: Node) -> Node {
        debug_assert!(low < (1u64 << low_bits));
        (high << low_bits) | low
    }

    /// Splits an address into `(low, high)` parts under the `factor(low)`
    /// split.
    #[inline]
    pub fn split(&self, low_bits: u32, v: Node) -> (Node, Node) {
        (v & ((1u64 << low_bits) - 1), v >> low_bits)
    }

    /// Validates that `path` is a walk in this cube: every consecutive pair
    /// of nodes is hypercube-adjacent and every node is in range. Returns the
    /// sequence of crossed dimensions.
    pub fn validate_walk(&self, path: &[Node]) -> Result<Vec<Dim>, String> {
        if let Some(&v) = path.iter().find(|&&v| !self.contains(v)) {
            return Err(format!("node {v:#x} out of range for Q_{}", self.dims));
        }
        path.windows(2)
            .map(|w| {
                self.edge_dim(w[0], w[1])
                    .ok_or_else(|| format!("{:#x} -> {:#x} is not a hypercube edge", w[0], w[1]))
            })
            .collect()
    }

    /// Whether `path` is a walk in this cube, by exactly
    /// [`validate_walk`](Self::validate_walk)'s rules (every node in range,
    /// consecutive nodes adjacent) but without building the dimension
    /// list, so per-flow checks on hot paths allocate nothing.
    #[inline]
    pub fn is_walk(&self, path: &[Node]) -> bool {
        path.iter().all(|&v| self.contains(v))
            && path.windows(2).all(|w| self.edge_dim(w[0], w[1]).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let q = Hypercube::new(4);
        assert_eq!(q.num_nodes(), 16);
        assert_eq!(q.num_directed_edges(), 64);
        assert_eq!(q.num_undirected_edges(), 32);
        assert_eq!(q.nodes().count(), 16);
        assert_eq!(q.directed_edges().count(), 64);
        assert_eq!(q.undirected_edges().count(), 32);
    }

    #[test]
    fn neighbor_is_involution() {
        let q = Hypercube::new(6);
        for v in q.nodes() {
            for d in q.dimensions() {
                let w = q.neighbor(v, d);
                assert_ne!(v, w);
                assert_eq!(q.neighbor(w, d), v);
                assert_eq!(q.distance(v, w), 1);
                assert_eq!(q.edge_dim(v, w), Some(d));
            }
        }
    }

    #[test]
    fn edge_dim_rejects_non_edges() {
        let q = Hypercube::new(4);
        assert_eq!(q.edge_dim(0b0000, 0b0011), None);
        assert_eq!(q.edge_dim(0b0101, 0b0101), None);
        assert_eq!(q.edge_dim(0b0101, 0b0100), Some(0));
    }

    #[test]
    fn dir_edge_roundtrip() {
        let q = Hypercube::new(5);
        for e in q.directed_edges() {
            let idx = q.dir_edge_index(e);
            assert!(idx < q.num_directed_edges() as usize);
            assert_eq!(q.dir_edge_from_index(idx), e);
        }
    }

    #[test]
    fn dir_edge_index_is_injective() {
        let q = Hypercube::new(4);
        let mut seen = vec![false; q.num_directed_edges() as usize];
        for e in q.directed_edges() {
            let idx = q.dir_edge_index(e);
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn undirected_canonicalization() {
        let q = Hypercube::new(4);
        for e in q.directed_edges() {
            let c = e.undirected();
            assert_eq!(c.from & (1 << c.dim), 0);
            assert_eq!(q.undirected_edge_index(e), q.undirected_edge_index(e.reversed()),);
        }
    }

    #[test]
    fn factor_and_compose_roundtrip() {
        let q = Hypercube::new(7);
        let (lo, hi) = q.factor(3);
        assert_eq!(lo.dims(), 3);
        assert_eq!(hi.dims(), 4);
        for v in q.nodes() {
            let (l, h) = q.split(3, v);
            assert!(lo.contains(l) && hi.contains(h));
            assert_eq!(q.compose(3, l, h), v);
        }
    }

    #[test]
    fn validate_walk_accepts_gray_path() {
        let q = Hypercube::new(3);
        let path = [0b000u64, 0b001, 0b011, 0b010, 0b110];
        let dims = q.validate_walk(&path).unwrap();
        assert_eq!(dims, vec![0, 1, 0, 2]);
        assert!(q.is_walk(&path));
        for walk in [&[][..], &[0b101], &[0b111, 0b011]] {
            assert!(q.validate_walk(walk).is_ok() && q.is_walk(walk), "{walk:?}");
        }
    }

    #[test]
    fn validate_walk_rejects_jump() {
        let q = Hypercube::new(3);
        assert!(q.validate_walk(&[0b000, 0b011]).is_err());
        assert!(q.validate_walk(&[0b000, 0b1000]).is_err());
        // The allocation-free check rejects exactly the same walks: jumps,
        // out-of-range nodes (also a lone one), and standing still.
        for walk in [&[0b000, 0b011][..], &[0b000, 0b1000], &[0b1000], &[0b010, 0b010], &[0, 1, 7]]
        {
            assert!(q.validate_walk(walk).is_err() && !q.is_walk(walk), "{walk:?}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_dims_rejected() {
        let _ = Hypercube::new(0);
    }

    /// Counting and dense indexing stay exact at the `MAX_DIMS` boundary:
    /// `n · 2^n` must not wrap or truncate, and the far-corner edge must
    /// round-trip through the dense indexings.
    #[test]
    fn edge_counting_and_indexing_are_exact_at_max_dims() {
        let cube = Hypercube::new(MAX_DIMS);
        assert_eq!(cube.num_nodes(), 1u64 << 48);
        assert_eq!(cube.num_directed_edges(), 48u64 << 48);
        assert_eq!(cube.num_undirected_edges(), 24u64 << 48);
        // The product is far below u64::MAX (it would stay exact through
        // n = 58) and, on the 64-bit platforms dense indexing assumes,
        // below usize::MAX too.
        assert!(cube.num_directed_edges() < u64::MAX / 1024);

        // Far corner: the very last dense directed-edge slot.
        let corner = cube.num_nodes() - 1;
        let e = DirEdge::new(corner, 47);
        let idx = cube.dir_edge_index(e);
        assert_eq!(idx as u64, cube.num_directed_edges() - 1);
        assert_eq!(cube.dir_edge_from_index(idx), e);
        // Its canonical undirected slot clears bit 47 of the tail.
        let u = cube.undirected_edge_index(e);
        assert_eq!(u as u64, (corner & !(1u64 << 47)) * 48 + 47);
        assert_eq!(cube.undirected_edge_index(e.reversed()), u);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIMS")]
    fn dims_above_max_rejected() {
        let _ = Hypercube::new(MAX_DIMS + 1);
    }
}
