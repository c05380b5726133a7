//! Hamiltonian decompositions of the hypercube (Lemma 1).
//!
//! Alspach, Bermond & Sotteau show that the edges of `Q_{2k}` partition into
//! `k` (undirected) Hamiltonian cycles, and those of `Q_{2k+1}` into `k`
//! Hamiltonian cycles plus one perfect matching. Orienting each undirected
//! cycle both ways yields Lemma 1 of the paper: for `n` even (odd), `n`
//! (`n-1`) edge-disjoint copies of the `2^n`-node **directed** cycle embed in
//! `Q_n` with dilation 1 and congestion 1.
//!
//! The survey result is non-constructive for our purposes, so [`decompose`]
//! builds every size by one deterministic chain:
//!
//! * **`Q_2`–`Q_8`** — frozen witnesses. For `n ∈ {2, 4, 6}` a single base
//!   cycle `H` whose images under the address rotation `ρ` (dimension `d`
//!   maps to `d+2 mod n`) are pairwise edge-disjoint, so the orbit
//!   `{H, ρH, …, ρ^{k-1}H}` is the decomposition; for `Q_8` four explicit
//!   cycles.
//!
//! * **Odd `n = m+1`** — from a decomposition `H_1, …, H_k` of `Q_m` we build
//!   one of `Q_n = Q_m × K_2` ("two layers"): for each `H_i` pick an edge
//!   `e_i = (a_i, b_i)` such that all chosen endpoints are distinct vertices;
//!   delete the copy of `e_i` from both layers and splice the two layer
//!   copies of `H_i` into a single cycle of length `2^n` using the vertical
//!   edges at `a_i` and `b_i`. The leftover edges — the vertical edge at
//!   every non-endpoint vertex plus both layer copies of each `e_i` — touch
//!   every node exactly once and form the perfect matching (`merge_odd`).
//!
//! * **Even `n ≥ 10`** — the same splice over the odd decomposition below,
//!   whose leftover 2-factor square swaps repair into the last Hamiltonian
//!   cycle (`extend_even`).
//!
//! Everything produced here is checked by [`verify_decomposition`], so
//! downstream theorems never depend on trusting a witness or the splice.

use crate::cube::{Dim, DirEdge, Hypercube, Node};

/// An undirected Hamiltonian cycle of `Q_n`, stored as the dimension
/// transition sequence of one traversal starting at a fixed node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamCycle {
    cube: Hypercube,
    start: Node,
    /// `2^n` transitions; the last one returns to `start`.
    transitions: Vec<Dim>,
}

impl HamCycle {
    /// Builds a cycle from a transition sequence, validating that it is a
    /// Hamiltonian cycle of `cube` starting at `start`.
    pub fn from_transitions(
        cube: Hypercube,
        start: Node,
        transitions: Vec<Dim>,
    ) -> Result<Self, String> {
        let size = cube.num_nodes();
        if transitions.len() as u64 != size {
            return Err(format!(
                "expected {} transitions for Q_{}, got {}",
                size,
                cube.dims(),
                transitions.len()
            ));
        }
        let mut visited = vec![false; size as usize];
        let mut v = start;
        for (i, &d) in transitions.iter().enumerate() {
            if d >= cube.dims() {
                return Err(format!("transition {i} crosses invalid dimension {d}"));
            }
            if visited[v as usize] {
                return Err(format!("node {v:#x} revisited at step {i}"));
            }
            visited[v as usize] = true;
            v = cube.neighbor(v, d);
        }
        if v != start {
            return Err(format!("walk ends at {v:#x}, not at start {start:#x}"));
        }
        if !visited.iter().all(|&b| b) {
            return Err("walk does not visit every node".into());
        }
        Ok(HamCycle { cube, start, transitions })
    }

    /// Builds a cycle from its node visiting sequence (of length `2^n`).
    pub fn from_nodes(cube: Hypercube, nodes: &[Node]) -> Result<Self, String> {
        if nodes.is_empty() {
            return Err("empty node sequence".into());
        }
        let mut transitions = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let u = nodes[i];
            let v = nodes[(i + 1) % nodes.len()];
            let d =
                cube.edge_dim(u, v).ok_or_else(|| format!("{u:#x} -> {v:#x} is not an edge"))?;
            transitions.push(d);
        }
        HamCycle::from_transitions(cube, nodes[0], transitions)
    }

    /// The host cube.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The traversal's start node.
    pub fn start(&self) -> Node {
        self.start
    }

    /// The transition sequence (length `2^n`).
    pub fn transitions(&self) -> &[Dim] {
        &self.transitions
    }

    /// Cycle length (`2^n`).
    pub fn len(&self) -> u64 {
        self.transitions.len() as u64
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node visiting sequence, starting at `start`.
    pub fn nodes(&self) -> Vec<Node> {
        let mut out = Vec::with_capacity(self.transitions.len());
        let mut v = self.start;
        for &d in &self.transitions {
            out.push(v);
            v = self.cube.neighbor(v, d);
        }
        out
    }

    /// Directed edges of the forward traversal.
    pub fn edges(&self) -> Vec<DirEdge> {
        let mut out = Vec::with_capacity(self.transitions.len());
        let mut v = self.start;
        for &d in &self.transitions {
            out.push(DirEdge::new(v, d));
            v = self.cube.neighbor(v, d);
        }
        out
    }
}

/// A Hamiltonian decomposition of `Q_n`: `⌊n/2⌋` pairwise edge-disjoint
/// Hamiltonian cycles, plus (for odd `n`) the leftover perfect matching.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The decomposed cube.
    pub cube: Hypercube,
    /// `⌊n/2⌋` pairwise edge-disjoint Hamiltonian cycles.
    pub cycles: Vec<HamCycle>,
    /// For odd `n`: the perfect matching of leftover edges (canonical
    /// orientations). Empty for even `n`.
    pub matching: Vec<DirEdge>,
}

/// A directed Hamiltonian cycle with O(1) successor/predecessor lookup.
#[derive(Debug, Clone)]
pub struct DirectedHamCycle {
    cube: Hypercube,
    succ: Vec<Node>,
    pred: Vec<Node>,
}

impl DirectedHamCycle {
    fn from_ham(cycle: &HamCycle, reverse: bool) -> Self {
        let cube = cycle.cube();
        let size = cube.num_nodes() as usize;
        let mut succ = vec![0u64; size];
        let mut pred = vec![0u64; size];
        let nodes = cycle.nodes();
        for i in 0..nodes.len() {
            let u = nodes[i];
            let v = nodes[(i + 1) % nodes.len()];
            let (from, to) = if reverse { (v, u) } else { (u, v) };
            succ[from as usize] = to;
            pred[to as usize] = from;
        }
        DirectedHamCycle { cube, succ, pred }
    }

    /// The host cube.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// Successor of `v` along the directed cycle.
    #[inline]
    pub fn successor(&self, v: Node) -> Node {
        self.succ[v as usize]
    }

    /// Predecessor of `v` along the directed cycle.
    #[inline]
    pub fn predecessor(&self, v: Node) -> Node {
        self.pred[v as usize]
    }

    /// The full node sequence starting from `start`.
    pub fn nodes_from(&self, start: Node) -> Vec<Node> {
        let mut out = Vec::with_capacity(self.succ.len());
        let mut v = start;
        loop {
            out.push(v);
            v = self.successor(v);
            if v == start {
                break;
            }
        }
        out
    }
}

/// Frozen witnesses for the small even cubes, as transition sequences of
/// Hamiltonian cycles starting at node 0. `Q_2`–`Q_6` are base cycles whose
/// `ρ`-orbit is edge-disjoint; `Q_8` is four explicit cycles. Randomized
/// backtracking searches found them; the searches, and the `freeze_bases`
/// example that ran them, are in the git history up to commit `e606aaa`.
/// Every witness is re-verified each time [`decompose`] builds it.
mod frozen {
    /// `Q_2`: the 4-cycle itself.
    pub const Q2: &[u8] = &[0, 1, 0, 1];
    /// `Q_4` base cycle (orbit of 2 cycles under rotation by 2).
    pub const Q4: &[u8] = &[1, 3, 2, 3, 0, 3, 2, 3, 1, 3, 0, 2, 0, 3, 0, 2];
    /// `Q_6` base cycle (orbit of 3 cycles).
    pub const Q6: &[u8] = &[
        2, 0, 1, 3, 5, 1, 5, 2, 5, 1, 3, 1, 5, 1, 4, 2, 1, 0, 5, 3, 2, 4, 5, 2, 1, 4, 2, 4, 0, 4,
        2, 5, 0, 2, 0, 1, 3, 0, 1, 0, 2, 4, 1, 4, 3, 5, 0, 2, 0, 3, 0, 1, 2, 5, 4, 5, 2, 5, 3, 2,
        1, 3, 2, 5,
    ];
    /// `Q_8` decomposition: four explicit cycles (the rotation-orbit
    /// ansatz found no witness for `Q_8`).
    pub const Q8_CYCLES: &[&[u8]] = &[
        &[
            1, 3, 1, 5, 1, 3, 1, 4, 1, 3, 1, 5, 1, 3, 1, 2, 5, 1, 5, 3, 5, 1, 5, 4, 5, 1, 5, 3, 5,
            1, 5, 0, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5, 1, 2, 5, 2, 3, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2,
            5, 1, 2, 5, 2, 6, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5, 1, 2, 5, 2, 3, 2, 5, 2, 1, 5, 2, 5,
            4, 5, 2, 5, 1, 2, 5, 2, 0, 5, 1, 5, 3, 5, 1, 5, 4, 5, 1, 5, 3, 5, 1, 5, 2, 1, 3, 1, 5,
            1, 3, 1, 4, 1, 3, 1, 5, 1, 3, 1, 7, 1, 3, 1, 5, 1, 3, 1, 4, 1, 3, 1, 5, 1, 3, 1, 2, 5,
            1, 5, 3, 5, 1, 5, 4, 5, 1, 5, 3, 5, 1, 5, 0, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5, 1, 2, 5,
            2, 3, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5, 1, 2, 5, 2, 6, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5,
            1, 2, 5, 2, 3, 2, 5, 2, 1, 5, 2, 5, 4, 5, 2, 5, 1, 2, 5, 2, 0, 5, 1, 5, 3, 5, 1, 5, 4,
            5, 1, 5, 3, 5, 1, 5, 2, 1, 3, 1, 5, 1, 3, 1, 4, 1, 3, 1, 5, 1, 3, 1, 7,
        ],
        &[
            3, 7, 3, 6, 3, 7, 3, 4, 3, 7, 3, 6, 3, 7, 3, 5, 7, 6, 7, 3, 7, 6, 7, 4, 3, 7, 3, 6, 3,
            7, 3, 2, 7, 3, 7, 6, 7, 3, 7, 4, 7, 3, 7, 6, 7, 3, 7, 0, 6, 4, 6, 3, 6, 4, 6, 7, 6, 4,
            6, 3, 6, 4, 6, 5, 0, 7, 0, 6, 0, 7, 0, 4, 7, 0, 7, 3, 7, 6, 7, 3, 7, 0, 7, 3, 6, 7, 6,
            4, 0, 7, 0, 6, 0, 7, 0, 1, 0, 7, 0, 6, 0, 7, 0, 3, 6, 7, 6, 0, 7, 6, 7, 4, 7, 0, 7, 6,
            0, 7, 0, 3, 6, 7, 6, 0, 7, 6, 7, 2, 6, 4, 6, 7, 6, 4, 6, 5, 6, 4, 6, 7, 6, 4, 6, 0, 6,
            1, 6, 4, 6, 7, 4, 6, 4, 3, 4, 7, 4, 6, 4, 7, 4, 1, 3, 6, 7, 6, 3, 6, 7, 2, 6, 3, 6, 0,
            6, 7, 0, 6, 0, 4, 7, 6, 7, 0, 6, 7, 2, 6, 2, 3, 2, 6, 2, 0, 4, 6, 4, 7, 4, 0, 6, 0, 4,
            0, 6, 2, 6, 0, 6, 4, 6, 7, 6, 4, 6, 5, 6, 4, 6, 7, 6, 4, 6, 0, 6, 4, 6, 1, 4, 6, 4, 7,
            4, 6, 4, 1, 6, 4, 6, 3, 6, 4, 6, 1, 6, 4, 7, 4, 6, 1, 6, 4, 6, 1, 7, 0,
        ],
        &[
            4, 0, 7, 0, 4, 0, 3, 1, 4, 3, 4, 7, 4, 3, 4, 1, 3, 6, 0, 2, 4, 3, 2, 0, 6, 0, 4, 6, 0,
            1, 3, 7, 3, 1, 3, 0, 4, 7, 0, 7, 1, 7, 3, 7, 1, 6, 0, 4, 6, 4, 2, 6, 3, 4, 6, 4, 1, 6,
            2, 4, 7, 4, 2, 6, 2, 7, 5, 7, 2, 4, 2, 5, 2, 0, 7, 3, 7, 6, 1, 4, 1, 3, 6, 7, 1, 4, 7,
            5, 0, 4, 3, 6, 3, 4, 3, 6, 0, 5, 4, 5, 3, 5, 6, 5, 3, 7, 5, 6, 1, 7, 0, 2, 7, 5, 7, 0,
            7, 2, 7, 0, 7, 6, 7, 3, 2, 4, 2, 3, 7, 6, 0, 7, 0, 2, 7, 0, 7, 3, 7, 2, 4, 2, 7, 2, 4,
            6, 3, 7, 3, 0, 2, 4, 2, 6, 4, 2, 5, 2, 6, 0, 4, 3, 4, 1, 5, 7, 3, 5, 1, 0, 1, 4, 3, 1,
            2, 4, 2, 1, 6, 1, 2, 7, 2, 4, 6, 2, 4, 2, 1, 6, 0, 5, 4, 3, 4, 0, 4, 2, 0, 3, 0, 2, 4,
            2, 0, 3, 0, 6, 2, 0, 5, 4, 5, 0, 2, 0, 1, 2, 7, 3, 7, 2, 0, 4, 7, 4, 0, 3, 1, 0, 6, 0,
            3, 0, 6, 0, 7, 0, 2, 4, 2, 0, 1, 3, 1, 7, 1, 3, 1, 0, 6, 0, 3, 0, 6, 5,
        ],
        &[
            2, 3, 2, 0, 7, 0, 2, 0, 3, 1, 3, 0, 6, 1, 2, 0, 7, 3, 1, 0, 7, 0, 1, 6, 4, 3, 7, 3, 4,
            1, 0, 2, 4, 1, 6, 1, 4, 1, 3, 2, 4, 6, 2, 6, 1, 4, 6, 4, 0, 4, 3, 4, 7, 1, 7, 4, 3, 5,
            0, 2, 7, 4, 3, 5, 7, 6, 5, 2, 0, 4, 7, 5, 1, 4, 3, 4, 1, 4, 7, 1, 4, 1, 3, 1, 4, 1, 7,
            5, 0, 6, 4, 6, 2, 5, 2, 1, 4, 2, 0, 3, 0, 2, 1, 3, 6, 1, 4, 1, 2, 5, 0, 3, 6, 1, 3, 0,
            7, 0, 1, 7, 4, 1, 0, 2, 3, 2, 0, 1, 7, 6, 1, 6, 2, 4, 6, 4, 0, 2, 5, 0, 7, 0, 5, 2, 3,
            7, 4, 0, 4, 2, 0, 5, 0, 7, 0, 5, 0, 3, 1, 3, 7, 6, 1, 0, 5, 0, 1, 3, 1, 0, 5, 2, 3, 0,
            7, 3, 4, 3, 7, 0, 3, 6, 2, 0, 7, 2, 4, 3, 4, 2, 7, 0, 7, 5, 0, 3, 7, 0, 7, 5, 2, 3, 6,
            3, 2, 5, 0, 7, 0, 5, 0, 1, 6, 3, 0, 2, 0, 7, 3, 0, 6, 0, 7, 4, 7, 0, 6, 0, 3, 7, 0, 2,
            3, 2, 0, 5, 7, 1, 0, 1, 2, 6, 0, 3, 0, 5, 3, 4, 7, 4, 2, 4, 3, 2, 5, 6,
        ],
    ];
}

/// A 2-regular spanning subgraph stored as the two neighbors of each vertex.
type Adj2 = Vec<[Node; 2]>;

fn adj_contains(adj: &Adj2, u: Node, v: Node) -> bool {
    adj[u as usize][0] == v || adj[u as usize][1] == v
}

fn adj_replace(adj: &mut Adj2, u: Node, old: Node, new: Node) {
    let slot = usize::from(adj[u as usize][0] != old);
    debug_assert_eq!(adj[u as usize][slot], old);
    adj[u as usize][slot] = new;
}

/// Swap the square pair: remove `(v,va)`, `(vb,vab)` from `l` and
/// `(va,vab)`, `(v,vb)` from `h`; insert each pair into the other factor.
fn square_swap(h: &mut Adj2, l: &mut Adj2, v: Node, va: Node, vb: Node, vab: Node) {
    adj_replace(l, v, va, vb);
    adj_replace(l, vb, vab, v);
    adj_replace(l, va, v, vab);
    adj_replace(l, vab, vb, va);
    adj_replace(h, va, vab, v);
    adj_replace(h, v, vb, va);
    adj_replace(h, vab, va, vb);
    adj_replace(h, vb, v, vab);
}

/// Component label of each vertex in a 2-factor, plus the component count.
fn two_factor_components(adj: &Adj2) -> (Vec<u32>, u32) {
    let mut label = vec![u32::MAX; adj.len()];
    let mut count = 0u32;
    for start in 0..adj.len() as u64 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        let mut v = start;
        let mut prev = u64::MAX;
        loop {
            label[v as usize] = count;
            let next =
                if adj[v as usize][0] != prev { adj[v as usize][0] } else { adj[v as usize][1] };
            prev = v;
            v = next;
            if v == start {
                break;
            }
        }
        count += 1;
    }
    (label, count)
}

fn is_single_cycle(adj: &Adj2) -> bool {
    two_factor_components(adj).1 == 1
}

/// Extracts the transition sequence of a single-cycle 2-factor starting at 0.
fn transitions_from_adj(cube: Hypercube, adj: &Adj2) -> Vec<Dim> {
    let mut trans = Vec::with_capacity(adj.len());
    let mut v: Node = 0;
    let mut prev = u64::MAX;
    loop {
        let next = if adj[v as usize][0] != prev { adj[v as usize][0] } else { adj[v as usize][1] };
        trans.push(cube.edge_dim(v, next).expect("2-factor edges are cube edges"));
        prev = v;
        v = next;
        if v == 0 {
            break;
        }
    }
    trans
}

/// Repairs a fragmented 2-factor `l` into a single Hamiltonian cycle by
/// swapping alternating squares with the Hamiltonian cycle `h`:
/// a square `v — v^a — v^(a|b) — v^b` with its `a`-parallel edges in `l`
/// (in *different* `l`-components) and its `b`-parallel edges in `h` can have
/// the pairs exchanged; this merges the two `l`-components and, when the
/// reconnection crosses `h`'s two severed arcs, keeps `h` a single cycle
/// (checked, and rolled back otherwise). Each successful swap reduces `l`'s
/// component count by one.
fn merge_two_factor(cube: Hypercube, h: &mut Adj2, l: &mut Adj2) -> bool {
    let n = cube.dims();
    loop {
        let (label, count) = two_factor_components(l);
        if count == 1 {
            return true;
        }
        let mut applied = false;
        'search: for v in cube.nodes() {
            for a in 0..n {
                let va = cube.neighbor(v, a);
                if !adj_contains(l, v, va) {
                    continue;
                }
                for b in 0..n {
                    if b == a {
                        continue;
                    }
                    let vb = cube.neighbor(v, b);
                    let vab = cube.neighbor(va, b);
                    if label[v as usize] == label[vb as usize] {
                        continue;
                    }
                    if adj_contains(l, vb, vab)
                        && adj_contains(h, va, vab)
                        && adj_contains(h, v, vb)
                    {
                        square_swap(h, l, v, va, vb, vab);
                        if is_single_cycle(h) {
                            applied = true;
                            break 'search;
                        }
                        // Undo: swap back.
                        square_swap(l, h, v, va, vb, vab);
                    }
                }
            }
        }
        if !applied {
            return false;
        }
    }
}

/// A frozen witness as a Hamiltonian cycle from node 0.
fn frozen_cycle(cube: Hypercube, trans: &[u8]) -> Result<HamCycle, String> {
    HamCycle::from_transitions(cube, 0, trans.iter().map(|&d| Dim::from(d)).collect())
}

/// Builds the `k`-cycle decomposition of even `Q_n` from a base cycle whose
/// rotation orbit is edge-disjoint.
fn decomposition_from_base(cube: Hypercube, base: &[u8]) -> Result<Decomposition, String> {
    let n = cube.dims();
    let k = n / 2;
    let base_cycle = frozen_cycle(cube, base)?;
    let mut cycles = Vec::with_capacity(k as usize);
    for j in 0..k {
        let trans: Vec<Dim> = base_cycle.transitions().iter().map(|&d| (d + 2 * j) % n).collect();
        cycles.push(HamCycle::from_transitions(cube, 0, trans)?);
    }
    let dec = Decomposition { cube, cycles, matching: Vec::new() };
    verify_decomposition(&dec)?;
    Ok(dec)
}

/// The splice pairs `(a_i, b_i)` the layer-doubling constructions delete
/// from cycle `i`: walking each cycle from its start with the positions
/// shifted by `offset`, the first edge whose endpoints are both still
/// unused. Deterministic for a given `offset`. The vertical edges at `a_i`
/// and `b_i` join the spliced copy of cycle `i`.
fn splice_pairs(dec: &Decomposition, offset: usize) -> Result<Vec<(Node, Node)>, String> {
    let size = dec.cube.num_nodes() as usize;
    let mut endpoint_used = vec![false; size];
    let mut pairs = Vec::with_capacity(dec.cycles.len());
    for cyc in &dec.cycles {
        let nodes = cyc.nodes();
        let len = nodes.len();
        let p = (0..len)
            .map(|i| (i + offset) % len)
            .find(|&i| {
                !endpoint_used[nodes[i] as usize] && !endpoint_used[nodes[(i + 1) % len] as usize]
            })
            .ok_or("no free splice edge; cube too small for splice construction")?;
        let a = nodes[p];
        let b = nodes[(p + 1) % len];
        endpoint_used[a as usize] = true;
        endpoint_used[b as usize] = true;
        pairs.push((a, b));
    }
    Ok(pairs)
}

/// Splices the two layer copies of each cycle of `dec` into single cycles
/// of `Q_{m+1}` using the vertical edges at the given splice-pair
/// endpoints (the shared first half of [`merge_odd`] and [`extend_even`]).
fn spliced_layer_cycles(
    dec: &Decomposition,
    pairs: &[(Node, Node)],
) -> Result<Vec<HamCycle>, String> {
    let m = dec.cube.dims();
    let cube = Hypercube::new(m + 1);
    let layer = 1u64 << m;
    let mut cycles = Vec::with_capacity(dec.cycles.len());
    for (cyc, &(a, _)) in dec.cycles.iter().zip(pairs) {
        let nodes = cyc.nodes();
        let len = nodes.len();
        let p = nodes.iter().position(|&v| v == a).expect("splice endpoint lies on its cycle");
        // Layer 0 forward from b around to a, then layer 1 reversed from a
        // back to b.
        let mut seq: Vec<Node> = Vec::with_capacity(2 * len);
        for i in 0..len {
            seq.push(nodes[(p + 1 + i) % len]);
        }
        for i in 0..len {
            seq.push(nodes[(p + len - i) % len] | layer);
        }
        cycles.push(HamCycle::from_nodes(cube, &seq)?);
    }
    Ok(cycles)
}

/// Splices a decomposition of even `Q_m` into one of odd `Q_{m+1}`
/// (see module docs for the construction).
fn merge_odd(even: &Decomposition) -> Result<Decomposition, String> {
    let m = even.cube.dims();
    let cube = Hypercube::new(m + 1);
    let layer = 1u64 << m;
    let size = even.cube.num_nodes() as usize;
    let merge_pairs = splice_pairs(even, 0)?;
    let cycles = spliced_layer_cycles(even, &merge_pairs)?;

    let mut endpoint_used = vec![false; size];
    for &(a, b) in &merge_pairs {
        endpoint_used[a as usize] = true;
        endpoint_used[b as usize] = true;
    }
    // Leftover perfect matching: vertical edges at non-endpoints, both layer
    // copies of each spliced-out edge.
    let mut matching: Vec<DirEdge> = Vec::new();
    for v in 0..size as u64 {
        if !endpoint_used[v as usize] {
            matching.push(DirEdge::new(v, m)); // vertical, canonical (bit m clear)
        }
    }
    for &(a, b) in &merge_pairs {
        let d = cube.edge_dim(a, b).expect("splice endpoints adjacent");
        matching.push(DirEdge::new(a, d).undirected());
        matching.push(DirEdge::new(a | layer, d).undirected());
    }

    let dec = Decomposition { cube, cycles, matching };
    verify_decomposition(&dec)?;
    Ok(dec)
}

/// Doubles a decomposition of odd `Q_m` into one of even `Q_{m+1}`: the
/// even-`n` counterpart of [`merge_odd`], which together build every
/// `n ≥ 9` by induction from the frozen `Q_8`.
///
/// Each of the `(m-1)/2` cycles is spliced across the two layers exactly
/// as in [`merge_odd`]. The leftover edges — both layer copies of the
/// perfect matching, the vertical edge at every non-endpoint vertex, and
/// both layer copies of each spliced-out edge `e_i` — give every vertex
/// degree exactly 2 (non-endpoints keep their matching edge plus their
/// vertical; splice endpoints keep their matching edge plus the freed
/// copy of `e_i`), i.e. a 2-factor. [`merge_two_factor`] square swaps
/// against the last spliced cycle repair it into the final Hamiltonian
/// cycle, for `(m+1)/2` cycles total. If the repair stalls, the splice
/// edges are re-chosen at a shifted offset and the construction retried.
fn extend_even(odd: &Decomposition) -> Result<Decomposition, String> {
    let m = odd.cube.dims();
    if m.is_multiple_of(2) || m < 3 {
        return Err("extend_even takes an odd-dimensional decomposition of Q_3 or larger".into());
    }
    let mut last_err = String::new();
    // The offset stride is coprime to every cycle length (a power of two),
    // so successive retries genuinely reshuffle the splice choices.
    for attempt in 0..16usize {
        match extend_even_attempt(odd, attempt.wrapping_mul(7919)) {
            Ok(dec) => return Ok(dec),
            Err(e) => last_err = e,
        }
    }
    Err(format!("extend_even failed for Q_{} -> Q_{}: {last_err}", m, m + 1))
}

fn extend_even_attempt(odd: &Decomposition, offset: usize) -> Result<Decomposition, String> {
    let m = odd.cube.dims();
    let cube = Hypercube::new(m + 1);
    let layer = 1u64 << m;
    let size = odd.cube.num_nodes() as usize;
    let pairs = splice_pairs(odd, offset)?;
    let mut cycles = spliced_layer_cycles(odd, &pairs)?;

    let mut endpoint_used = vec![false; size];
    for &(a, b) in &pairs {
        endpoint_used[a as usize] = true;
        endpoint_used[b as usize] = true;
    }
    // Assemble the leftover 2-factor.
    let mut leftover: Adj2 = vec![[u64::MAX; 2]; cube.num_nodes() as usize];
    let add = |leftover: &mut Adj2, u: Node, v: Node| {
        let slot_u = usize::from(leftover[u as usize][0] != u64::MAX);
        leftover[u as usize][slot_u] = v;
        let slot_v = usize::from(leftover[v as usize][0] != u64::MAX);
        leftover[v as usize][slot_v] = u;
    };
    for &e in &odd.matching {
        add(&mut leftover, e.from, e.to());
        add(&mut leftover, e.from | layer, e.to() | layer);
    }
    for v in 0..size as u64 {
        if !endpoint_used[v as usize] {
            add(&mut leftover, v, v | layer);
        }
    }
    for &(a, b) in &pairs {
        add(&mut leftover, a, b);
        add(&mut leftover, a | layer, b | layer);
    }
    debug_assert!(leftover.iter().all(|nb| nb[0] != u64::MAX && nb[1] != u64::MAX));

    // Both the spliced cycles and the leftover are invariant under the layer
    // involution `v -> v ^ layer`, and square swaps between two exactly
    // layer-symmetric 2-factors never keep the partner a single cycle (the
    // reconnection closes the mirrored arc onto itself). So the repair
    // rotates through *all* spliced cycles as swap partners and, whenever
    // every partner stalls, seeds fresh asymmetry by exchanging a square
    // between two spliced cycles — no such obstruction there.
    // Spliced cycles start at their splice endpoint, so build adjacency
    // from each node sequence.
    let mut adjs: Vec<Adj2> = cycles
        .iter()
        .map(|c| {
            let nodes = c.nodes();
            let mut adj: Adj2 = vec![[u64::MAX; 2]; cube.num_nodes() as usize];
            for i in 0..nodes.len() {
                let (u, w) = (nodes[i], nodes[(i + 1) % nodes.len()]);
                let slot_u = usize::from(adj[u as usize][0] != u64::MAX);
                adj[u as usize][slot_u] = w;
                let slot_w = usize::from(adj[w as usize][0] != u64::MAX);
                adj[w as usize][slot_w] = u;
            }
            adj
        })
        .collect();
    if !repair_leftover(cube, &mut adjs, &mut leftover) {
        return Err("square-swap repair of the leftover 2-factor stalled".into());
    }
    for (cyc, adj) in cycles.iter_mut().zip(&adjs) {
        *cyc = HamCycle::from_transitions(cube, 0, transitions_from_adj(cube, adj))?;
    }
    cycles.push(HamCycle::from_transitions(cube, 0, transitions_from_adj(cube, &leftover))?);

    let dec = Decomposition { cube, cycles, matching: Vec::new() };
    verify_decomposition(&dec)?;
    Ok(dec)
}

/// Drives [`merge_two_factor`] with every cycle in `adjs` as the swap
/// partner in turn, breaking stalls with [`cross_cycle_swap`] seeds between
/// a rotating pair of cycles. Deterministic; `true` once `l` is a single
/// Hamiltonian cycle.
fn repair_leftover(cube: Hypercube, adjs: &mut [Adj2], l: &mut Adj2) -> bool {
    let k = adjs.len();
    let mut salt = 0u64;
    loop {
        for adj in adjs.iter_mut() {
            if merge_two_factor(cube, adj, l) {
                return true;
            }
        }
        if k < 2 || salt >= 4096 {
            return false;
        }
        let num_pairs = k * (k - 1) / 2;
        let mut seeded = false;
        for pair in 0..num_pairs {
            // Rotate which unordered pair of cycles gets the seed swap.
            let (lo, hi) = pair_from_index((pair + salt as usize) % num_pairs);
            let (head, tail) = adjs.split_at_mut(hi);
            seeded = cross_cycle_swap(cube, &mut head[lo], &mut tail[0], salt);
            if seeded {
                break;
            }
        }
        if !seeded {
            return false;
        }
        salt += 1;
    }
}

/// The `idx`-th unordered pair `(lo, hi)`, `lo < hi`, in colexicographic
/// order: (0,1), (0,2), (1,2), (0,3), ...
fn pair_from_index(idx: usize) -> (usize, usize) {
    let mut hi = 1usize;
    let mut base = 0usize;
    while base + hi <= idx {
        base += hi;
        hi += 1;
    }
    (idx - base, hi)
}

/// Exchanges one alternating square between the Hamiltonian cycles `g` and
/// `h` such that both stay single cycles, scanning from a `salt`-dependent
/// start so successive calls pick fresh squares. Returns `false` if no such
/// square exists.
fn cross_cycle_swap(cube: Hypercube, g: &mut Adj2, h: &mut Adj2, salt: u64) -> bool {
    let n = cube.dims();
    let size = cube.num_nodes();
    let start = salt.wrapping_mul(0x9E3779B97F4A7C15) % size;
    for step in 0..size {
        let v = (start + step) % size;
        for a in 0..n {
            let va = cube.neighbor(v, a);
            if !adj_contains(h, v, va) {
                continue;
            }
            for b in 0..n {
                if b == a {
                    continue;
                }
                let vb = cube.neighbor(v, b);
                let vab = cube.neighbor(va, b);
                if adj_contains(h, vb, vab) && adj_contains(g, va, vab) && adj_contains(g, v, vb) {
                    square_swap(g, h, v, va, vb, vab);
                    if is_single_cycle(g) && is_single_cycle(h) {
                        return true;
                    }
                    square_swap(h, g, v, va, vb, vab);
                }
            }
        }
    }
    false
}

/// The largest cube [`decompose`] builds. Each doubling scans the whole
/// cube for square swaps: on a 2-vCPU x86-64 VM, a release build takes
/// about 40 s for `Q_12`, and building `Q_14` had not returned after 15
/// minutes.
const MAX_DECOMPOSE_DIMS: u32 = 13;

/// Constructs a Hamiltonian decomposition of `Q_n` (Lemma 1), for
/// `1 ≤ n ≤ 13`; other `n` are an error.
///
/// Even `n` yields `n/2` Hamiltonian cycles covering all edges; odd `n`
/// yields `(n-1)/2` cycles plus a perfect matching. `Q_1`'s decomposition is
/// the single matching edge.
///
/// Every `n` is deterministic and verified when built: `Q_2`–`Q_8` are
/// frozen witnesses, odd `n` splices the even decomposition below it
/// (`merge_odd`), and even `n ≥ 10` doubles the odd decomposition below
/// it (`extend_even`), so e.g. `Q_12` is built by the chain
/// `Q_8 → Q_9 → Q_10 → Q_11 → Q_12`.
pub fn decompose(n: u32) -> Result<Decomposition, String> {
    decompose_keeping(n, 0, &mut None)
}

/// The decompositions of `Q_small` and `Q_large` (`small ≤ large`) from
/// one walk up the chain to `Q_large`: a `Q_small` the walk passes is kept
/// on the way instead of being built again. Equal sizes share the one
/// decomposition, so the first is then `None`. A `large` out of range
/// fails before anything is built.
pub(crate) fn decompose_pair(
    small: u32,
    large: u32,
) -> Result<(Option<Decomposition>, Decomposition), String> {
    debug_assert!(small <= large, "Q_{small} is the smaller cube");
    if small == large {
        return Ok((None, decompose(large)?));
    }
    let mut kept = None;
    let large = decompose_keeping(large, small, &mut kept)?;
    let small = match kept {
        Some(dec) => dec,
        None => decompose(small)?,
    };
    Ok((Some(small), large))
}

/// The error [`decompose`] returns for an `n` it does not build.
pub(crate) fn decompose_range(n: u32) -> Result<(), String> {
    if n == 0 || n > MAX_DECOMPOSE_DIMS {
        return Err(format!(
            "decompose builds Q_1 through Q_{MAX_DECOMPOSE_DIMS}; Q_{n} is out of range"
        ));
    }
    Ok(())
}

/// [`decompose`], keeping in `kept` a copy of the chain's `Q_keep` if the
/// chain to `Q_n` builds it below `n` (`keep == 0` keeps nothing).
fn decompose_keeping(
    n: u32,
    keep: u32,
    kept: &mut Option<Decomposition>,
) -> Result<Decomposition, String> {
    decompose_range(n)?;
    let cube = Hypercube::new(n);
    let below = |kept: &mut Option<Decomposition>| {
        let dec = decompose_keeping(n - 1, keep, kept)?;
        if n - 1 == keep {
            *kept = Some(dec.clone());
        }
        Ok::<_, String>(dec)
    };
    match n {
        1 => Ok(Decomposition { cube, cycles: Vec::new(), matching: vec![DirEdge::new(0, 0)] }),
        n if n % 2 == 1 => merge_odd(&below(kept)?),
        2 => decomposition_from_base(cube, frozen::Q2),
        4 => decomposition_from_base(cube, frozen::Q4),
        6 => decomposition_from_base(cube, frozen::Q6),
        8 => {
            let cycles = frozen::Q8_CYCLES
                .iter()
                .map(|trans| frozen_cycle(cube, trans))
                .collect::<Result<Vec<_>, _>>()?;
            let dec = Decomposition { cube, cycles, matching: Vec::new() };
            verify_decomposition(&dec)?;
            Ok(dec)
        }
        _ => extend_even(&below(kept)?),
    }
}

/// The `2⌊n/2⌋` edge-disjoint **directed** Hamiltonian cycles of Lemma 1:
/// directed cycle `2i` is undirected cycle `i` traversed forward, `2i+1` the
/// same cycle reversed (the pairing Theorem 1's "reversal" argument needs).
pub fn directed_cycles(dec: &Decomposition) -> Vec<DirectedHamCycle> {
    let mut out = Vec::with_capacity(2 * dec.cycles.len());
    for cyc in &dec.cycles {
        out.push(DirectedHamCycle::from_ham(cyc, false));
        out.push(DirectedHamCycle::from_ham(cyc, true));
    }
    out
}

/// Machine-checks a claimed decomposition: each cycle is Hamiltonian (already
/// enforced by `HamCycle`), the cycles and matching are pairwise
/// edge-disjoint, they jointly cover **every** undirected edge of the cube,
/// and for odd `n` the matching is perfect.
pub fn verify_decomposition(dec: &Decomposition) -> Result<(), String> {
    let cube = dec.cube;
    let n = cube.dims();
    let expected_cycles = (n / 2) as usize;
    if dec.cycles.len() != expected_cycles {
        return Err(format!(
            "expected {} cycles for Q_{}, found {}",
            expected_cycles,
            n,
            dec.cycles.len()
        ));
    }
    let mut used = vec![false; cube.num_directed_edges() as usize];
    let mut count = 0u64;
    for (ci, cyc) in dec.cycles.iter().enumerate() {
        if cyc.cube() != cube {
            return Err(format!("cycle {ci} lives in the wrong cube"));
        }
        for e in cyc.edges() {
            let idx = cube.undirected_edge_index(e);
            if used[idx] {
                return Err(format!("edge {e:?} reused by cycle {ci}"));
            }
            used[idx] = true;
            count += 1;
        }
    }
    let mut matched = vec![false; cube.num_nodes() as usize];
    for &e in &dec.matching {
        let idx = cube.undirected_edge_index(e);
        if used[idx] {
            return Err(format!("matching edge {e:?} collides with a cycle"));
        }
        used[idx] = true;
        count += 1;
        for v in [e.from, e.to()] {
            if matched[v as usize] {
                return Err(format!("node {v:#x} matched twice"));
            }
            matched[v as usize] = true;
        }
    }
    if n % 2 == 1 {
        if !matched.iter().all(|&b| b) {
            return Err("matching is not perfect".into());
        }
    } else if !dec.matching.is_empty() {
        return Err("even cube should have no leftover matching".into());
    }
    if count != cube.num_undirected_edges() {
        return Err(format!(
            "decomposition covers {count} of {} edges",
            cube.num_undirected_edges()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q2_decomposition() {
        let dec = decompose(2).unwrap();
        assert_eq!(dec.cycles.len(), 1);
        assert!(dec.matching.is_empty());
        verify_decomposition(&dec).unwrap();
    }

    #[test]
    fn q4_decomposition() {
        let dec = decompose(4).unwrap();
        assert_eq!(dec.cycles.len(), 2);
        verify_decomposition(&dec).unwrap();
    }

    #[test]
    fn q1_q3_q5_odd_decompositions() {
        for n in [1u32, 3, 5] {
            let dec = decompose(n).unwrap();
            assert_eq!(dec.cycles.len(), (n / 2) as usize, "n={n}");
            assert_eq!(dec.matching.len() as u64, 1u64 << (n - 1), "n={n}");
            verify_decomposition(&dec).unwrap();
        }
    }

    #[test]
    fn q6_decomposition() {
        let dec = decompose(6).unwrap();
        assert_eq!(dec.cycles.len(), 3);
        verify_decomposition(&dec).unwrap();
    }

    #[test]
    fn q8_decomposition() {
        let dec = decompose(8).unwrap();
        assert_eq!(dec.cycles.len(), 4);
        verify_decomposition(&dec).unwrap();
    }

    #[test]
    fn q7_q9_q11_odd_decompositions() {
        for n in [7u32, 9, 11] {
            let dec = decompose(n).unwrap();
            assert_eq!(dec.cycles.len(), (n / 2) as usize, "n={n}");
            assert_eq!(dec.matching.len() as u64, 1u64 << (n - 1), "n={n}");
            verify_decomposition(&dec).unwrap();
        }
    }

    #[test]
    fn q10_decomposition_by_doubling() {
        // Even n ≥ 10 comes out of the deterministic extend_even chain
        // (Q_8 → Q_9 → Q_10): all cycles, no matching.
        let dec = decompose(10).unwrap();
        assert_eq!(dec.cycles.len(), 5);
        assert!(dec.matching.is_empty());
        verify_decomposition(&dec).unwrap();
        // The chain stops at Q_13: beyond it, and at Q_0, decompose is an
        // error naming the range.
        for n in [0u32, 14, 48] {
            let err = decompose(n).unwrap_err();
            assert!(err.contains("Q_1 through Q_13"), "n={n}: {err}");
        }
    }

    #[test]
    #[ignore = "doubles up to Q_12, about 40 s in a release build"]
    fn q12_q13_decompositions_by_doubling() {
        // Theorem1Plan at n = 24..=27 and Theorem2Plan at n >= 22 decompose
        // these row and column subcubes; Theorem2Plan at n = 25 takes both
        // from one walk up the chain.
        let (q12, q13) = decompose_pair(12, 13).unwrap();
        let q12 = q12.expect("distinct sizes");
        assert_eq!(q12.cycles.len(), 6);
        assert!(q12.matching.is_empty());
        verify_decomposition(&q12).unwrap();
        // decompose(13) is this splice of Q_12.
        let splice = merge_odd(&q12).unwrap();
        assert_eq!((&q13.cycles, &q13.matching), (&splice.cycles, &splice.matching));
        assert_eq!(q13.cycles.len(), 6);
        assert_eq!(q13.matching.len() as u64, 1u64 << 12);
        verify_decomposition(&q13).unwrap();
    }

    #[test]
    fn decompose_pair_matches_two_calls() {
        // Small sizes on and off the chain to the large one, and equal
        // sizes, which share one decomposition.
        for (small, large) in [(4u32, 9u32), (8, 9), (8, 10), (9, 10), (9, 11), (6, 6), (10, 10)] {
            let (s, l) = decompose_pair(small, large).unwrap();
            let want = decompose(large).unwrap();
            assert_eq!((&l.cycles, &l.matching), (&want.cycles, &want.matching));
            match s {
                None => assert_eq!(small, large),
                Some(s) => {
                    let want = decompose(small).unwrap();
                    assert_eq!((&s.cycles, &s.matching), (&want.cycles, &want.matching));
                }
            }
        }
        assert!(decompose_pair(12, 14).unwrap_err().contains("Q_14 is out of range"));
    }

    #[test]
    fn extend_even_is_deterministic() {
        let odd = decompose(9).unwrap();
        let a = extend_even(&odd).unwrap();
        let b = extend_even(&odd).unwrap();
        for (ca, cb) in a.cycles.iter().zip(&b.cycles) {
            assert_eq!(ca.transitions(), cb.transitions());
        }
    }

    #[test]
    fn extend_even_rejects_even_input() {
        let even = decompose(4).unwrap();
        assert!(extend_even(&even).is_err());
    }

    #[test]
    fn directed_cycles_are_edge_disjoint_and_complete() {
        for n in [2u32, 4, 5, 6] {
            let dec = decompose(n).unwrap();
            let dirs = directed_cycles(&dec);
            assert_eq!(dirs.len(), 2 * (n as usize / 2));
            let cube = dec.cube;
            let mut used = vec![false; cube.num_directed_edges() as usize];
            for d in &dirs {
                let mut v: Node = 0;
                for _ in 0..cube.num_nodes() {
                    let w = d.successor(v);
                    assert_eq!(cube.distance(v, w), 1);
                    assert_eq!(d.predecessor(w), v);
                    let idx = cube.dir_edge_index(DirEdge::new(v, cube.edge_dim(v, w).unwrap()));
                    assert!(!used[idx], "directed edge reused (n={n})");
                    used[idx] = true;
                    v = w;
                }
                assert_eq!(v, 0, "directed traversal must close");
            }
            // For even n every directed edge is used exactly once.
            if n % 2 == 0 {
                assert!(used.iter().all(|&b| b), "n={n}: directed cover incomplete");
            }
        }
    }

    #[test]
    fn orientation_pairing_convention() {
        // Directed cycles 2i and 2i+1 are mutual reverses.
        let dec = decompose(4).unwrap();
        let dirs = directed_cycles(&dec);
        for i in 0..dec.cycles.len() {
            let fwd = &dirs[2 * i];
            let rev = &dirs[2 * i + 1];
            for v in dec.cube.nodes() {
                assert_eq!(fwd.successor(v), rev.predecessor(v));
                assert_eq!(rev.successor(fwd.successor(v)), v);
            }
        }
    }

    #[test]
    fn ham_cycle_rejects_bad_walks() {
        let cube = Hypercube::new(2);
        assert!(HamCycle::from_transitions(cube, 0, vec![0, 0, 0, 0]).is_err());
        assert!(HamCycle::from_transitions(cube, 0, vec![0, 1, 0]).is_err());
        assert!(HamCycle::from_transitions(cube, 0, vec![0, 1, 1, 0]).is_err());
        assert!(HamCycle::from_transitions(cube, 0, vec![0, 1, 0, 1]).is_ok());
    }

    #[test]
    fn nodes_from_directed_cycle() {
        let dec = decompose(4).unwrap();
        let dirs = directed_cycles(&dec);
        let seq = dirs[0].nodes_from(5);
        assert_eq!(seq.len(), 16);
        assert_eq!(seq[0], 5);
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16u64).collect::<Vec<_>>());
    }
}
