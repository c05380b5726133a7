//! Boolean hypercube topology primitives.
//!
//! This crate provides the substrate on which the multiple-path embeddings of
//! Greenberg & Bhatt, *Routing Multiple Paths in Hypercubes* (SPAA 1990), are
//! built:
//!
//! * [`cube`] — the directed Boolean hypercube `Q_n`: addresses, dimensions,
//!   neighbors, directed/undirected edge indexing, and product (grid)
//!   views used throughout the paper's Section 4 proofs.
//! * [`gray`] — binary reflected Gray codes: the transition sequences
//!   `G'_k`/`G_k` and the Hamiltonian node sequence `H_k` of Section 3.
//! * [`mod@moment`] — the *moment* `M(v)` of a node (Definition 1): a
//!   `⌈log n⌉`-bit label such that all hypercube neighbors of any node have
//!   distinct moments (Lemma 2). Moments drive every multiple-path
//!   construction in the paper.
//! * [`window`] — ordered dimension subsets ("windows"), node signatures
//!   `σ_W(v)`, and common-prefix helpers `ρ_i`/`λ` (Section 5.1), used by the
//!   multiple-copy CCC embedding.
//! * [`hash`] — [`LinkHasher`], the std-only multiply-rotate hasher for
//!   maps keyed by link ids and schedule steps.
//! * [`hamiltonian`] — constructive Hamiltonian decompositions of `Q_n`
//!   (Lemma 1 / Alspach–Bermond–Sotteau): `⌊n/2⌋` edge-disjoint Hamiltonian
//!   cycles (plus a perfect matching when `n` is odd), and the derived
//!   edge-disjoint *directed* Hamiltonian cycles.
//! * [`host`] — implicit host topologies: the [`host::HostTopology`] trait
//!   and closed-form edge colors / Theorem 1-2 path-bundle plans that reach
//!   `n = 20+` (millions of nodes) without `O(n·2^n)` tables.
//!
//! Addresses are plain `u64` values; dimension `d` of node `v` is bit `d`
//! (i.e. `(v >> d) & 1`). All edge bookkeeping is *directed*, matching the
//! paper's model (Section 3 footnote: "we define the hypercube as a directed
//! graph").

pub mod cube;
pub mod gray;
pub mod hamiltonian;
pub mod hash;
pub mod host;
pub mod moment;
pub mod window;

pub use cube::{Dim, DirEdge, Hypercube, Node, MAX_DIMS};
pub use gray::{gray_code, gray_rank, transition, transition_sequence};
pub use hamiltonian::{
    decompose, directed_cycles, verify_decomposition, Decomposition, DirectedHamCycle, HamCycle,
};
pub use hash::{LinkBuildHasher, LinkHasher, LinkMap, LinkSet};
pub use host::{
    gray_dim_permutation, BinomialTreePlan, EdgeColor, GridPlan, HostTopology, ImplicitColoring,
    ImplicitQn, Theorem1Plan, Theorem2Plan,
};
pub use moment::moment;
pub use window::{common_prefix_len, prefix, Window};
