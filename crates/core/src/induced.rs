//! Theorem 4: the general multiple-copy → multiple-path technique
//! (Section 6).
//!
//! Given an `n`-copy embedding of a graph `G` on `Z_{2^n}` into `Q_n` (each
//! copy an automorphism `φ_t` of the address space), the *induced cross
//! product* `X(G)` lives on `Z_{2^n} × Z_{2^n}`: row `i` carries the
//! automorph `G_{φ_{M(i)}}` and column `j` the automorph `G_{φ_{M(j)}}`
//! (moments again!). Embedding row `i` into the `i`-th row subcube of
//! `Q_{2n}` by the identity, every `X(G)` edge lands on a short host path,
//! and each hop is widened into `n` length-3 detours through the `n`
//! neighboring rows (columns). Lemma 2 guarantees the neighboring rows carry
//! `n` *distinct* automorphs, whose union is exactly the original `n`-copy
//! embedding — so all the middle edges inside one row cost only what the
//! multiple-copy embedding cost. Total `n`-packet cost: `c + 2δ` (`δ` = max
//! out-degree of `G`).
//!
//! Section 4's cycle results are the special case `G = C_{2^n}`
//! (`c = 1, δ = 1` → cost 3); Theorem 5 instantiates `G` = wrapped
//! butterfly. Two practical generalizations beyond the paper's text:
//!
//! * copies with dilation > 1 (the butterfly's multi-copy embedding routes
//!   cross edges over two host edges) widen *each hop* of the base path, so
//!   bundles stay edge-disjoint and the cost scales with the dilation;
//! * when `n` is not a power of two (every butterfly instance!), `M(·) mod
//!   n` reuses automorphs, middle edges can collide, and the phase-aligned
//!   scheduler certifies the (slightly larger) measured cost.

use hyperpath_embedding::{HostPath, MultiCopyEmbedding, MultiPathEmbedding, PhaseSchedule};
use hyperpath_guests::Digraph;
use hyperpath_topology::{moment, Hypercube, Node};

/// The result of the Theorem 4 transformation.
#[derive(Debug, Clone)]
pub struct InducedProduct {
    /// `log2` of the factor size (the `n` of `Q_n`; the host is `Q_{2n}`).
    pub n: u32,
    /// The induced cross product `X(G)`, with vertex `⟨i, j⟩ = i·2^n + j`.
    pub guest_rows_cols: (u32, u32),
    /// The width-`n` embedding of `X(G)` into `Q_{2n}`.
    pub embedding: MultiPathEmbedding,
    /// Verified schedule.
    pub schedule: PhaseSchedule,
    /// Certified packets per guest edge and makespan.
    pub packets: u64,
    /// Certified cost.
    pub cost: u64,
    /// Whether the natural all-at-step-0 schedule verified.
    pub natural_schedule_ok: bool,
    /// Which automorphism (copy index) each row/column uses.
    pub automorph_of: Vec<usize>,
}

/// Builds the width-`n` embedding of `X(G)` into `Q_{2n}` from a multi-copy
/// embedding of `G` into `Q_n` (**Theorem 4**).
///
/// Requirements: the copies' host is `Q_n` with `|V(G)| = 2^n`. If fewer
/// than `n` copies are supplied they are repeated cyclically (the paper does
/// exactly this for the butterfly: "repeating `n - m` copies twice").
pub fn induced_cross_product(copies: &MultiCopyEmbedding) -> Result<InducedProduct, String> {
    let n = copies.host.dims();
    let size = copies.host.num_nodes();
    if u64::from(copies.guest.num_vertices()) != size {
        return Err(format!(
            "Theorem 4 needs |V(G)| = 2^n: guest has {} vertices for Q_{n}",
            copies.guest.num_vertices()
        ));
    }
    if copies.copies.is_empty() {
        return Err("need at least one copy".into());
    }
    let host = Hypercube::new(2 * n);
    let num_copies = copies.copies.len();
    // The n automorphisms (cyclic repetition if fewer copies available).
    let autos: Vec<usize> = (0..n as usize).map(|t| t % num_copies).collect();
    // Row/column i uses automorph index M(i) mod n.
    let automorph_of: Vec<usize> = (0..size).map(|i| autos[(moment(i) % n) as usize]).collect();

    let g_edges = copies.guest.edges();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * size as usize * g_edges.len());
    // (is_row, line index, G-edge id) per X-edge, in push order — remembered
    // so bundles can be attached after CSR re-sorting via a lookup.
    let mut meta: std::collections::HashMap<(u32, u32), (bool, u64, usize)> =
        std::collections::HashMap::new();
    for i in 0..size {
        let phi = &copies.copies[automorph_of[i as usize]].vertex_map;
        for (eid, &(u, v)) in g_edges.iter().enumerate() {
            // Row i edge: ⟨i, φ(u)⟩ → ⟨i, φ(v)⟩.
            let a = (i * size + phi[u as usize]) as u32;
            let b = (i * size + phi[v as usize]) as u32;
            edges.push((a, b));
            meta.insert((a, b), (true, i, eid));
        }
    }
    for j in 0..size {
        let phi = &copies.copies[automorph_of[j as usize]].vertex_map;
        for (eid, &(u, v)) in g_edges.iter().enumerate() {
            // Column j edge: ⟨φ(u), j⟩ → ⟨φ(v), j⟩.
            let a = (phi[u as usize] * size + j) as u32;
            let b = (phi[v as usize] * size + j) as u32;
            edges.push((a, b));
            meta.insert((a, b), (false, j, eid));
        }
    }
    let guest =
        Digraph::from_edges(format!("X({})", copies.guest.name()), (size * size) as u32, edges);

    // Vertex ⟨i, j⟩ ↦ host node (i << n) | j.
    let vertex_map: Vec<Node> =
        (0..guest.num_vertices() as u64).map(|v| ((v / size) << n) | (v % size)).collect();

    let mut edge_paths = Vec::with_capacity(guest.num_edges());
    for &(a, b) in guest.edges() {
        let &(is_row, line, eid) =
            meta.get(&(a, b)).ok_or("internal: X-edge lost its provenance")?;
        let copy = &copies.copies[automorph_of[line as usize]];
        let base = &copy.edge_paths[eid];
        // Lift the copy's Q_n path into the row (low bits) or column (high
        // bits) subcube of Q_{2n}.
        let lift = |q: Node| -> Node {
            if is_row {
                (line << n) | q
            } else {
                (q << n) | line
            }
        };
        let base_nodes: Vec<Node> = base.nodes().iter().map(|&q| lift(q)).collect();
        // Width-n bundle: detour every hop through the n neighboring rows
        // (for row edges; columns symmetric).
        let detour_base = if is_row { n } else { 0 };
        let mut bundle = Vec::with_capacity(n as usize);
        for k in 0..n {
            let det = 1u64 << (detour_base + k);
            let mut nodes: Vec<Node> = Vec::with_capacity(3 * base_nodes.len());
            nodes.push(base_nodes[0]);
            for hop in base_nodes.windows(2) {
                let (x, y) = (hop[0], hop[1]);
                nodes.push(x ^ det);
                nodes.push(x ^ det ^ (x ^ y));
                nodes.push(y);
            }
            bundle.push(HostPath::new(nodes));
        }
        edge_paths.push(bundle);
    }

    let embedding = MultiPathEmbedding { host, guest, vertex_map, edge_paths };

    // Each candidate is verified once; the certified cost is read off the
    // one that passed.
    let natural = PhaseSchedule::all_paths_at_once(&embedding);
    let (schedule, natural_schedule_ok) = match natural.verify(&embedding) {
        Ok(()) => (natural, true),
        Err(_) => {
            let g = PhaseSchedule::phase_aligned(&embedding);
            g.verify(&embedding)?;
            (g, false)
        }
    };
    let (packets, cost) = (schedule.packets_per_edge(&embedding), schedule.makespan(&embedding));
    Ok(InducedProduct {
        n,
        guest_rows_cols: (size as u32, size as u32),
        embedding,
        schedule,
        packets,
        cost,
        natural_schedule_ok,
        automorph_of,
    })
}

/// Convenience wrapper matching the paper's statement: applies the
/// transformation and reports the claimed cost `c + 2δ`.
pub fn theorem4(copies: &MultiCopyEmbedding) -> Result<(InducedProduct, u64), String> {
    let delta = copies.guest.max_out_degree() as u64;
    let c = hyperpath_embedding::metrics::multi_copy_metrics(copies).edge_congestion as u64;
    let x = induced_cross_product(copies)?;
    Ok((x, c + 2 * delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::multi_copy_cycles;
    use crate::ccc_copies::butterfly_multi_copy;
    use hyperpath_embedding::metrics::multi_path_metrics;
    use hyperpath_embedding::validate::validate_multi_path;

    #[test]
    fn cycles_reproduce_theorem1_like_costs() {
        // G = C_16 in Q_4, 4 copies (Lemma 1): X(G) in Q_8 with width 4 and
        // n-packet cost c + 2δ = 1 + 2 = 3.
        let copies = multi_copy_cycles(4).unwrap();
        let (x, claimed) = theorem4(&copies).unwrap();
        assert_eq!(claimed, 3);
        assert_eq!(x.cost, 3);
        assert!(x.natural_schedule_ok);
        assert_eq!(x.packets, 4);
        validate_multi_path(&x.embedding, 4, Some(1)).unwrap();
        let m = multi_path_metrics(&x.embedding);
        assert_eq!(m.load, 1);
        assert_eq!(m.dilation, 3);
    }

    #[test]
    fn x_of_cycle_guest_shape() {
        // X(C_16): every vertex has out-degree 2 (one row edge, one column
        // edge) — a union of row cycles and column cycles.
        let copies = multi_copy_cycles(4).unwrap();
        let x = induced_cross_product(&copies).unwrap();
        assert_eq!(x.embedding.guest.num_vertices(), 256);
        assert_eq!(x.embedding.guest.num_edges(), 512);
        assert_eq!(x.embedding.guest.max_out_degree(), 2);
        assert!(x.embedding.guest.is_connected());
    }

    #[test]
    fn neighboring_rows_carry_distinct_automorphs() {
        // Lemma 2 in action: for power-of-two n the n neighbors of any row
        // index see n distinct automorphs.
        let copies = multi_copy_cycles(4).unwrap();
        let x = induced_cross_product(&copies).unwrap();
        for i in 0..16u64 {
            let mut seen = std::collections::HashSet::new();
            for d in 0..4 {
                assert!(seen.insert(x.automorph_of[(i ^ (1 << d)) as usize]));
            }
        }
    }

    #[test]
    fn butterfly_instance() {
        // G = 4-level wrapped butterfly (64 = 2^6 vertices) with 4 CCC-borne
        // copies in Q_6, repeated to 6: X(G) in Q_12 with width 6.
        let copies = butterfly_multi_copy(4).unwrap();
        assert_eq!(copies.guest.num_vertices(), 64);
        assert_eq!(copies.host.dims(), 6);
        let (x, claimed) = theorem4(&copies).unwrap();
        validate_multi_path(&x.embedding, 6, Some(1)).unwrap();
        // δ = 2, c = multi-copy congestion (≤ 4): claimed ≤ 8. Dilation-2
        // base edges double the detour count; with automorph reuse (n = 6
        // not a power of two) the certified cost may exceed the claim
        // slightly — it must stay O(1).
        assert!(x.cost <= claimed + 4, "cost {} vs claim {claimed}", x.cost);
        assert!(x.packets >= 6);
        let m = multi_path_metrics(&x.embedding);
        assert!(m.dilation <= 6, "two base hops × 3");
    }

    #[test]
    fn rejects_wrong_sized_guest() {
        // A 2-copy embedding of C_4 into Q_4 (guest too small for Theorem 4).
        let mut copies = multi_copy_cycles(4).unwrap();
        copies.guest = hyperpath_guests::directed_cycle(4);
        assert!(induced_cross_product(&copies).is_err());
    }
}
