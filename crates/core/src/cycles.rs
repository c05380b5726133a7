//! Theorems 1 and 2: multiple-path embeddings of directed cycles.
//!
//! Both constructions factor `Q_n` (`n = 4k + r`) into a grid of `2^row_bits`
//! rows × `2^col_bits` columns: the high `row_bits` address bits name a row,
//! the low `col_bits` bits a column. Each column is a `Q_row_bits` subcube
//! (the row coordinate varies) carrying one *special* directed Hamiltonian
//! cycle chosen by the **moment** of the column's position within its block.
//! Because block-neighboring columns have distinct moments (Lemma 2), their
//! special cycles are distinct members of the Lemma 1 decomposition, so
//! projecting them all into one column keeps them edge-disjoint — which is
//! what lets every special edge be widened into edge-disjoint length-3 paths
//! through the neighboring columns with *zero* step collisions.
//!
//! **Theorem 1 (load 1).** The `2^n`-node directed cycle `C` threads through
//! every column's special cycle, hopping columns in Gray-code order. Each
//! edge of `C` widens to `⌊n/2⌋` (or more) edge-disjoint paths with
//! `⌊n/2⌋`-packet cost 3.
//!
//! Two faithful-but-necessary deviations from the paper's text, both
//! documented in DESIGN.md and re-checked by tests:
//!
//! 1. *Permuted Gray ordering.* The paper orders columns by `G_{2k+r}` over
//!    the raw low dimensions and argues that within each aligned group of
//!    four columns the moments go `x, x, x⊕1, x⊕1` (same cycle twice, then
//!    its reversal twice — which is what returns `C` to row 0). With moments
//!    taken over the *position* field, that argument needs the Gray
//!    transition dimension 0 to preserve the moment and dimension 1 to flip
//!    its lowest bit, which holds only when `r = 0`. We therefore relabel:
//!    Gray dimension 0 ↦ position bit 0 (`M ⊕ b(0) = M`) and Gray dimension
//!    1 ↦ position bit 1 (`M ⊕ b(1) = M ⊕ 1`), restoring the argument for
//!    every `r`.
//! 2. *Power-of-two width.* "Directed cycle number `M(x)`" is only
//!    well-defined when the moment range `2^⌈log 2k⌉` equals the cycle count
//!    `2k`, i.e. when `2k` is a power of two (the paper makes the analogous
//!    assumption explicit in Section 5). Otherwise we map moments onto
//!    cycles by `M mod 2k` — width and validity are unaffected, but two
//!    block-neighbors may share a special cycle, so a step-1 collision can
//!    push the certified cost from 3 to 4 (the greedy scheduler measures
//!    it). Tests pin cost 3 for `2k ∈ {2, 4, 8}` hosts.
//!
//! **Theorem 2 (load 2).** Rows get special cycles too (moments of the row
//! index), every node lies on one row cycle and one column cycle, and the
//! guest is the Eulerian tour of their union — `2^{n+1}` nodes, load 2. All
//! four `n mod 4` cases are built by one parameterized construction; the
//! width-`⌊n/2⌋` variants for `n ≡ 2, 3 (mod 4)` reuse a cycle (the paper's
//! "one cycle chosen twice"), paying one extra step.

use hyperpath_embedding::{HostPath, MultiPathEmbedding, PhaseSchedule, Transmission};
use hyperpath_guests::directed_cycle;
use hyperpath_topology::hamiltonian::{decompose, directed_cycles, DirectedHamCycle};
use hyperpath_topology::host::gray_dim_permutation;
use hyperpath_topology::{moment, transition, Dim, Hypercube, Node};

/// A constructed cycle embedding together with its certified schedule.
#[derive(Debug, Clone)]
pub struct CycleEmbedding {
    /// The multiple-path embedding of the directed cycle.
    pub embedding: MultiPathEmbedding,
    /// A conflict-free (verified) schedule witnessing the cost.
    pub schedule: PhaseSchedule,
    /// The width the theorem claims for this `n` (every bundle has at least
    /// this many edge-disjoint paths).
    pub claimed_width: usize,
    /// Packets every guest edge ships under `schedule`.
    pub packets: u64,
    /// Makespan of `schedule` (the certified `packets`-packet cost).
    pub cost: u64,
    /// Whether the paper's natural everything-at-step-0 schedule was already
    /// conflict-free (true exactly in the power-of-two-width regimes).
    pub natural_schedule_ok: bool,
}

/// Which Theorem 2 trade-off to build for `n ≡ 2, 3 (mod 4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theorem2Variant {
    /// Width `⌊n/2⌋ - 1` (for `n ≡ 2,3 mod 4`) at cost 3.
    Cost3,
    /// Width `⌊n/2⌋` at cost 4 (one special cycle reused).
    FullWidth,
}

/// Builds the length-3 path bundle (optionally plus the direct path) for a
/// guest edge mapped to hypercube edge `(u, v)` in dimension `i`: the `w`
/// detour paths cross dimensions `base + j` (`j < w`), follow the projection
/// of `(u, v)`, and cross back.
fn widen_edge(u: Node, v: Node, i: Dim, base: u32, w: u32, direct: bool) -> Vec<HostPath> {
    let mut bundle = Vec::with_capacity(w as usize + usize::from(direct));
    if direct {
        bundle.push(HostPath::new(vec![u, v]));
    }
    for j in 0..w {
        debug_assert_ne!(base + j, i);
        bundle.push(HostPath::from_dims(u, &[base + j, i, base + j]));
    }
    bundle
}

/// Certifies the schedule: tries the paper's natural schedule first (all
/// paths at step 0, plus for Theorem 1 a second direct-path packet at step
/// 2), falling back to the phase-aligned placer when the natural one
/// collides. Every candidate schedule is verified exactly once, and the
/// certified `(packets, cost)` are read off the one that passed.
fn certify(
    embedding: MultiPathEmbedding,
    claimed_width: usize,
    extra_direct_at: Option<u64>,
) -> Result<CycleEmbedding, String> {
    let mut natural = PhaseSchedule::all_paths_at_once(&embedding);
    if let Some(step) = extra_direct_at {
        for ge in 0..embedding.guest.num_edges() {
            natural.transmissions.push(Transmission::consecutive(ge, 0, step, 1));
        }
    }
    let (schedule, natural_schedule_ok) = match natural.verify(&embedding) {
        Ok(()) => (natural, true),
        Err(_) => {
            // Fall back to the phase-aligned certifier (middle-edge rounds),
            // which realizes the paper's "+1 to the cost" argument exactly.
            let mut g = PhaseSchedule::phase_aligned(&embedding);
            let before = g.transmissions.len();
            if extra_direct_at.is_some() {
                // Try to re-add the second direct packet at the final step.
                let makespan = g.makespan(&embedding);
                for ge in 0..embedding.guest.num_edges() {
                    g.transmissions.push(Transmission::consecutive(
                        ge,
                        0,
                        makespan.saturating_sub(1),
                        1,
                    ));
                }
            }
            // Verify the extended schedule; if there is nothing to extend
            // or the extra packets collide, verify it without them.
            if g.transmissions.len() == before || g.verify(&embedding).is_err() {
                g.transmissions.truncate(before);
                g.verify(&embedding)?;
            }
            (g, false)
        }
    };
    let (packets, cost) = (schedule.packets_per_edge(&embedding), schedule.makespan(&embedding));
    Ok(CycleEmbedding { embedding, schedule, claimed_width, packets, cost, natural_schedule_ok })
}

/// **Theorem 1**: embeds the `2^n`-node directed cycle into `Q_n` with load
/// 1, width `⌊n/2⌋`, and (for power-of-two `2⌊n/4⌋`) `⌊n/2⌋`-packet cost 3.
/// Supported for `4 ≤ n` with `2⌊n/4⌋` within the Hamiltonian-decomposition
/// range (all `n ≤ 19` are construct-time verified).
pub fn theorem1(n: u32) -> Result<CycleEmbedding, String> {
    if n < 4 {
        return Err("Theorem 1 requires n >= 4 (k >= 1)".into());
    }
    let k = n / 4;
    let r = n % 4;
    let row_bits = 2 * k;
    let col_bits = 2 * k + r;
    let host = Hypercube::new(n);

    let dec = decompose(row_bits)?;
    let dirs = directed_cycles(&dec);
    let a = dirs.len() as u32; // 2k directed cycles, orientation-paired
    debug_assert_eq!(a, 2 * k);

    let pi = gray_dim_permutation(col_bits, r);
    let special = |c: Node| -> &DirectedHamCycle { &dirs[(moment(c >> r) % a) as usize] };

    // Thread the big cycle C through the columns.
    let col_count = 1u64 << col_bits;
    let rows = 1u64 << row_bits;
    let mut nodes: Vec<Node> = Vec::with_capacity(1usize << n);
    let mut row: Node = 0;
    let mut col: Node = 0;
    for j in 0..col_count {
        let d = special(col);
        for step in 0..rows {
            nodes.push((row << col_bits) | col);
            if step + 1 < rows {
                row = d.successor(row);
            }
        }
        col ^= 1u64 << pi[transition(col_bits, j) as usize];
    }
    if col != 0 || row != 0 {
        return Err(format!(
            "cycle C failed to close: ended at row {row:#x}, col {col:#x} \
             (moment/orientation pairing broken)"
        ));
    }

    let guest = directed_cycle(nodes.len() as u32);
    let len = nodes.len();
    let mut edge_paths = Vec::with_capacity(len);
    for t in 0..len {
        let u = nodes[t];
        let v = nodes[(t + 1) % len];
        let i = host
            .edge_dim(u, v)
            .ok_or_else(|| format!("C is not a hypercube walk at position {t}"))?;
        let base = if i >= col_bits { r } else { col_bits };
        edge_paths.push(widen_edge(u, v, i, base, 2 * k, true));
    }

    let embedding = MultiPathEmbedding { host, guest, vertex_map: nodes, edge_paths };
    certify(embedding, (n / 2) as usize, Some(2))
}

/// **Theorem 2**: embeds the `2^{n+1}`-node directed cycle into `Q_n` with
/// load 2 as the Eulerian tour of the row+column special-cycle union.
/// Widths/costs per the theorem statement:
///
/// | `n mod 4` | variant | width | cost |
/// |---|---|---|---|
/// | 0, 1 | (both) | `⌊n/2⌋` | 3 |
/// | 2, 3 | `Cost3` | `⌊n/2⌋ - 1` | 3 |
/// | 2, 3 | `FullWidth` | `⌊n/2⌋` | 4 |
///
/// For `n ≡ 0 (mod 4)` every directed hypercube edge is busy in every one of
/// the 3 steps (experiment E3 measures this).
pub fn theorem2(n: u32, variant: Theorem2Variant) -> Result<CycleEmbedding, String> {
    if n < 4 {
        return Err("Theorem 2 requires n >= 4 (k >= 1)".into());
    }
    let k = n / 4;
    let r = n % 4;
    let (row_bits, col_bits) = match (variant, r) {
        (_, 0) => (2 * k, 2 * k),
        (_, 1) => (2 * k, 2 * k + 1),
        (Theorem2Variant::Cost3, 2) => (2 * k, 2 * k + 2),
        (Theorem2Variant::FullWidth, 2) => (2 * k + 1, 2 * k + 1),
        (Theorem2Variant::Cost3, 3) => (2 * k, 2 * k + 3),
        (Theorem2Variant::FullWidth, 3) => (2 * k + 1, 2 * k + 2),
        _ => unreachable!(),
    };
    let w = row_bits; // the width of the embedding
    let block_bits = col_bits - row_bits;
    let host = Hypercube::new(n);

    // Column special cycles permute the row coordinate (a Q_row_bits), row
    // special cycles permute the column coordinate (a Q_col_bits).
    let col_dec = decompose(row_bits)?;
    let col_dirs = directed_cycles(&col_dec);
    let row_dec = decompose(col_bits)?;
    let row_dirs = directed_cycles(&row_dec);
    let (ca, ra) = (col_dirs.len() as u32, row_dirs.len() as u32);

    let col_cycle =
        |c: Node| -> &DirectedHamCycle { &col_dirs[(moment(c >> block_bits) % ca) as usize] };
    let row_cycle = |y: Node| -> &DirectedHamCycle { &row_dirs[(moment(y) % ra) as usize] };

    let col_mask = (1u64 << col_bits) - 1;
    let split = |v: Node| -> (Node, Node) { (v >> col_bits, v & col_mask) }; // (row, col)
                                                                             // Out-edge 0: row-cycle successor (changes column); out-edge 1:
                                                                             // column-cycle successor (changes row).
    let out = |v: Node, which: u8| -> Node {
        let (y, c) = split(v);
        match which {
            0 => (y << col_bits) | row_cycle(y).successor(c),
            _ => (col_cycle(c).successor(y) << col_bits) | c,
        }
    };

    // Hierholzer's algorithm over the 2-out-regular union graph.
    let size = 1usize << n;
    let mut next = vec![0u8; size];
    let mut stack: Vec<Node> = vec![0];
    let mut tour: Vec<Node> = Vec::with_capacity(2 * size + 1);
    while let Some(&v) = stack.last() {
        if next[v as usize] < 2 {
            let w2 = out(v, next[v as usize]);
            next[v as usize] += 1;
            stack.push(w2);
        } else {
            tour.push(v);
            stack.pop();
        }
    }
    tour.reverse();
    if tour.len() != 2 * size + 1 {
        return Err(format!(
            "special-cycle union is not connected: Euler tour covers {} of {} edges",
            tour.len().saturating_sub(1),
            2 * size
        ));
    }
    tour.pop(); // drop the repeated start

    let guest = directed_cycle(tour.len() as u32);
    let len = tour.len();
    let mut edge_paths = Vec::with_capacity(len);
    for t in 0..len {
        let u = tour[t];
        let v = tour[(t + 1) % len];
        let i = host
            .edge_dim(u, v)
            .ok_or_else(|| format!("Euler tour is not a hypercube walk at position {t}"))?;
        let base = if i >= col_bits { block_bits } else { col_bits };
        edge_paths.push(widen_edge(u, v, i, base, w, false));
    }

    let claimed = match (variant, r) {
        (Theorem2Variant::Cost3, 2 | 3) => (n / 2) as usize - 1,
        _ => (n / 2) as usize,
    };
    let embedding = MultiPathEmbedding { host, guest, vertex_map: tour, edge_paths };
    certify(embedding, claimed, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpath_embedding::metrics::multi_path_metrics;
    use hyperpath_embedding::validate::validate_multi_path;

    #[test]
    fn theorem1_small_powers_of_two_width() {
        // 2k ∈ {2, 4}: the natural cost-3 schedule must verify.
        for n in [4u32, 5, 6, 7, 8, 9, 10, 11] {
            let t1 = theorem1(n).unwrap();
            let w = (n / 2) as usize;
            validate_multi_path(&t1.embedding, w, Some(1)).unwrap();
            assert_eq!(t1.cost, 3, "n={n}");
            assert!(t1.natural_schedule_ok, "n={n}: natural schedule must be conflict-free");
            assert!(t1.packets as usize >= w, "n={n}");
            let m = multi_path_metrics(&t1.embedding);
            assert_eq!(m.load, 1, "n={n}");
            assert_eq!(m.dilation, 3, "n={n}");
            assert!(m.width >= w, "n={n}");
        }
    }

    #[test]
    fn theorem1_non_power_of_two_costs_at_most_4() {
        // n = 12..15 has 2k = 6 (not a power of two): width holds, cost <= 4.
        for n in [12u32, 13] {
            let t1 = theorem1(n).unwrap();
            let w = (n / 2) as usize;
            validate_multi_path(&t1.embedding, w, Some(1)).unwrap();
            assert!(t1.cost <= 4, "n={n}: cost {}", t1.cost);
            assert!(t1.packets as usize >= w);
        }
    }

    #[test]
    fn theorem2_cost3_all_residues() {
        for n in [4u32, 5, 6, 7, 8, 9] {
            let t2 = theorem2(n, Theorem2Variant::Cost3).unwrap();
            validate_multi_path(&t2.embedding, t2.claimed_width, Some(2)).unwrap();
            assert_eq!(t2.cost, 3, "n={n}");
            assert!(t2.natural_schedule_ok, "n={n}");
            assert_eq!(t2.packets as usize, t2.claimed_width, "n={n}");
            let m = multi_path_metrics(&t2.embedding);
            assert_eq!(m.load, 2, "n={n}: every host node carries two guest vertices");
            let expect_w = match n % 4 {
                0 | 1 => (n / 2) as usize,
                _ => (n / 2) as usize - 1,
            };
            assert_eq!(t2.claimed_width, expect_w, "n={n}");
        }
    }

    #[test]
    fn theorem2_full_width_variant() {
        for n in [6u32, 7] {
            let t2 = theorem2(n, Theorem2Variant::FullWidth).unwrap();
            assert_eq!(t2.claimed_width, (n / 2) as usize, "n={n}");
            validate_multi_path(&t2.embedding, t2.claimed_width, Some(2)).unwrap();
            assert!(t2.cost <= 4, "n={n}: cost {}", t2.cost);
        }
    }

    #[test]
    fn theorem2_mod4_full_utilization() {
        // n ≡ 0 (mod 4): all directed edges used, every step busy.
        let t2 = theorem2(8, Theorem2Variant::Cost3).unwrap();
        let m = multi_path_metrics(&t2.embedding);
        assert!((m.utilization - 1.0).abs() < 1e-12, "all links carry paths");
        assert_eq!(t2.cost, 3);
        // Stronger per-step claim: with cost 3 and 3 * |E| edge-slots all
        // used exactly once, every link is busy at every step.
        let host = t2.embedding.host;
        let total_hops: usize = t2.embedding.all_paths().map(|(_, _, p)| p.len()).sum();
        assert_eq!(total_hops as u64, 3 * host.num_directed_edges());
    }

    #[test]
    fn theorem1_rejects_tiny_cubes() {
        assert!(theorem1(3).is_err());
        assert!(theorem2(2, Theorem2Variant::Cost3).is_err());
    }
}
