//! Binary reflected Gray codes (Section 3 of the paper).
//!
//! The paper defines the transition sequence `G'_k` by `G'_1 = 0` and
//! `G'_{i+1} = G'_i ∘ i ∘ G'_i`, then closes it into a cyclic sequence
//! `G_k = G'_k ∘ (k-1)`. Starting from `0^k` and flipping the listed bit at
//! every step traverses the well-known Hamiltonian cycle `H_k` of `Q_k`,
//! whose `i`-th node is the standard reflected Gray code value
//! `gray_code(i) = i ^ (i >> 1)`.

use crate::cube::{Dim, Node};

/// The `i`-th node of the Hamiltonian cycle `H_k` (independent of `k`):
/// the binary reflected Gray code value `i ^ (i >> 1)`.
#[inline]
pub fn gray_code(i: u64) -> Node {
    i ^ (i >> 1)
}

/// Inverse of [`gray_code`]: the rank of a Gray code value along `H_k`.
#[inline]
pub fn gray_rank(mut g: u64) -> u64 {
    let mut r = 0u64;
    while g != 0 {
        r ^= g;
        g >>= 1;
    }
    r
}

/// The `j`-th element of the cyclic transition sequence `G_k`
/// (`0 ≤ j < 2^k`): the dimension flipped when moving from `H_k(j)` to
/// `H_k(j+1 mod 2^k)`.
///
/// For `j < 2^k - 1` this is the number of trailing ones of `j`
/// (equivalently `trailing_zeros(j+1)`); the final element is `k-1`, which
/// closes the cycle.
#[inline]
pub fn transition(k: u32, j: u64) -> Dim {
    debug_assert!(j < (1u64 << k), "transition index {j} out of range for G_{k}");
    if j == (1u64 << k) - 1 {
        k - 1
    } else {
        (j + 1).trailing_zeros()
    }
}

/// The full cyclic transition sequence `G_k` as a vector of length `2^k`.
pub fn transition_sequence(k: u32) -> Vec<Dim> {
    (0..(1u64 << k)).map(|j| transition(k, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_is_bijective_and_adjacent() {
        let k = 8u32;
        let n = 1u64 << k;
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let g = gray_code(i);
            assert!(g < n);
            assert!(!seen[g as usize]);
            seen[g as usize] = true;
            let next = gray_code((i + 1) % n);
            assert_eq!((g ^ next).count_ones(), 1, "consecutive codes must differ in one bit");
        }
    }

    #[test]
    fn gray_rank_inverts_gray_code() {
        for i in 0..4096u64 {
            assert_eq!(gray_rank(gray_code(i)), i);
        }
    }

    #[test]
    fn transitions_reproduce_gray_walk() {
        for k in 1..=8u32 {
            let n = 1u64 << k;
            let mut v: Node = 0;
            for j in 0..n {
                assert_eq!(v, gray_code(j), "walk deviates at step {j} for k={k}");
                v ^= 1u64 << transition(k, j);
            }
            assert_eq!(v, 0, "G_{k} must close the cycle");
        }
    }

    #[test]
    fn paper_recurrence_matches_closed_form() {
        // G'_{i+1} = G'_i ∘ i ∘ G'_i, G_k = G'_k ∘ (k-1).
        fn g_prime(k: u32) -> Vec<Dim> {
            if k == 1 {
                vec![0]
            } else {
                let inner = g_prime(k - 1);
                let mut out = inner.clone();
                out.push(k - 1);
                out.extend(inner);
                out
            }
        }
        for k in 1..=6u32 {
            let mut expected = g_prime(k);
            expected.push(k - 1);
            assert_eq!(transition_sequence(k), expected, "mismatch at k={k}");
        }
    }

    #[test]
    fn group_of_four_structure() {
        // Theorem 1's return-to-row-0 argument: within each aligned group of
        // four transitions, the first three are (0, 1, 0).
        for k in 2..=8u32 {
            let seq = transition_sequence(k);
            for group in seq.chunks(4) {
                assert_eq!(&group[..3], &[0, 1, 0]);
                assert!(group[3] >= 2 || k == 2);
            }
        }
    }

    #[test]
    fn transition_counts() {
        // Dimension d < k - 1 appears 2^(k-1-d) times in G_k; the top
        // dimension twice (once mid-sequence, once closing the cycle).
        for k in 1..=8u32 {
            let seq = transition_sequence(k);
            for d in 0..k {
                let count = seq.iter().filter(|&&t| t == d).count() as u64;
                let expected = if d == k - 1 { 2 } else { 1u64 << (k - 1 - d) };
                assert_eq!(count, expected, "k={k} d={d}");
            }
        }
    }
}
