//! Property-based tests for the topology substrate.

use hyperpath_topology::hamiltonian::{decompose, directed_cycles, verify_decomposition};
use hyperpath_topology::*;
use proptest::prelude::*;

proptest! {
    /// Gray code is a bijection with unit-Hamming steps on any prefix range.
    #[test]
    fn gray_code_adjacency(i in 0u64..1_000_000) {
        let g = gray_code(i);
        let h = gray_code(i + 1);
        prop_assert_eq!((g ^ h).count_ones(), 1);
        prop_assert_eq!(gray_rank(g), i);
    }

    /// The moment update rule M(v ^ 2^i) = M(v) ^ i holds everywhere.
    #[test]
    fn moment_update(v in 0u64..u64::MAX / 2, i in 0u32..48) {
        prop_assert_eq!(moment(v ^ (1u64 << i)) ^ moment(v), i);
    }

    /// Lemma 2 at random nodes of a random cube: all neighbor moments differ.
    #[test]
    fn lemma2_random(n in 2u32..20, seed in any::<u64>()) {
        let cube = Hypercube::new(n);
        let v = seed % cube.num_nodes();
        let mut seen = std::collections::HashSet::new();
        for d in 0..n {
            prop_assert!(seen.insert(moment(cube.neighbor(v, d))));
        }
    }

    /// Window signature/scatter roundtrip for random windows.
    #[test]
    fn window_roundtrip(dims in proptest::collection::btree_set(0u32..24, 1..8), sig in any::<u64>()) {
        let dims: Vec<u32> = dims.into_iter().collect();
        let w = Window::new(dims.clone());
        let sig = sig & ((1u64 << dims.len()) - 1);
        prop_assert_eq!(w.signature(w.scatter(sig)), sig);
    }

    /// Dense directed edge indexing is a bijection on random cubes.
    #[test]
    fn edge_index_bijection(n in 1u32..12, seed in any::<u64>()) {
        let cube = Hypercube::new(n);
        let v = seed % cube.num_nodes();
        for d in 0..n {
            let e = DirEdge::new(v, d);
            prop_assert_eq!(cube.dir_edge_from_index(cube.dir_edge_index(e)), e);
        }
    }

    /// λ and ρ agree for random pairs: values agree on exactly the common
    /// prefix.
    #[test]
    fn prefix_lambda_consistency(a in 0u64..1024, b in 0u64..1024) {
        let l = common_prefix_len(a, b, 10);
        prop_assert_eq!(prefix(a, 10, l), prefix(b, 10, l));
        if l < 10 {
            prop_assert_ne!(prefix(a, 10, l + 1), prefix(b, 10, l + 1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every supported decomposition verifies, and its directed cycles use
    /// every directed edge at most once.
    #[test]
    fn decompositions_verify(n in 1u32..=9) {
        let dec = decompose(n).unwrap();
        verify_decomposition(&dec).unwrap();
        let cube = dec.cube;
        let mut used = vec![false; cube.num_directed_edges() as usize];
        for d in directed_cycles(&dec) {
            let mut v = 0u64;
            for _ in 0..cube.num_nodes() {
                let w = d.successor(v);
                let idx = cube.dir_edge_index(DirEdge::new(v, cube.edge_dim(v, w).unwrap()));
                prop_assert!(!used[idx]);
                used[idx] = true;
                v = w;
            }
        }
    }
}
