//! Rabin's Information Dispersal Algorithm (IDA) over `GF(2^8)`.
//!
//! The paper (Sections 1–2) points out that a width-`w` multiple-path
//! embedding can carry Rabin's IDA along its edge-disjoint paths: a message
//! of `|M|` bytes is dispersed into `w` shares of `|M|/k` bytes such that
//! **any** `k` shares reconstruct it — so up to `w - k` of the disjoint
//! paths may fail (or be slow) without losing the message, at a bandwidth
//! overhead of only `w/k`.
//!
//! This implementation uses a systematic Vandermonde-style linear code over
//! the field `GF(2^8)` with the AES polynomial `x^8+x^4+x^3+x+1`: share `i`
//! evaluates the degree-`k-1` polynomial defined by each group of `k`
//! message bytes at the point `α_i`. Reconstruction solves the `k×k`
//! Vandermonde system by Gaussian elimination (fields this small need no
//! cleverness).

mod gf256;
pub mod kernel;

pub use gf256::Gf256;

use bytes::Bytes;

/// Why [`Ida::reconstruct`] could not rebuild the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdaError {
    /// Fewer than `k` *distinct* shares were provided (duplicates of one
    /// index count once).
    NotEnoughShares {
        /// The scheme's threshold `k`.
        needed: usize,
        /// Distinct in-range shares actually seen.
        got: usize,
    },
    /// A share's index is outside the scheme's `0..w` range.
    IndexOutOfRange {
        /// The offending share index.
        index: u8,
        /// The scheme's share count `w`.
        width: u8,
    },
    /// Two shares carry the same index but different payloads, so at least
    /// one of them is corrupt and neither can be trusted.
    ConflictingDuplicate {
        /// The index the disagreeing shares claim.
        index: u8,
    },
    /// A share is too short to hold the 8-byte message-length header.
    ShareTooShort {
        /// The offending share index.
        index: u8,
    },
    /// The selected shares disagree on payload length.
    InconsistentLengths,
    /// The shares' payloads cannot hold the message length their header
    /// declares.
    DeclaredLengthTooLong {
        /// Message length (bytes) the header claims.
        declared: usize,
        /// Bytes the payloads can actually reconstruct.
        capacity: usize,
    },
}

impl std::fmt::Display for IdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IdaError::NotEnoughShares { needed, got } => {
                write!(f, "need {needed} distinct shares, got {got}")
            }
            IdaError::IndexOutOfRange { index, width } => {
                write!(f, "share index {index} out of range for a {width}-share scheme")
            }
            IdaError::ConflictingDuplicate { index } => {
                write!(f, "shares with index {index} carry conflicting payloads")
            }
            IdaError::ShareTooShort { index } => {
                write!(f, "share {index} too short for the length header")
            }
            IdaError::InconsistentLengths => write!(f, "shares have inconsistent payload lengths"),
            IdaError::DeclaredLengthTooLong { declared, capacity } => {
                write!(f, "header declares {declared} bytes but shares only hold {capacity}")
            }
        }
    }
}

impl std::error::Error for IdaError {}

/// A `(w, k)` dispersal scheme: `w` shares, any `k` reconstruct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ida {
    w: u8,
    k: u8,
}

/// One share: its evaluation-point index plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Which of the `w` shares this is (the evaluation point is `x = index`).
    pub index: u8,
    /// `⌈message_len / k⌉` payload bytes (plus the original length header).
    pub data: Bytes,
}

/// A [`Share`] carrying a keyed fingerprint, so a receiver who knows the
/// key can reject a corrupted share without the original message
/// ([`Ida::verify_share`]) — the classical IDA pairing: corruption
/// degrades to erasure, and any `k` *verified* shares reconstruct.
///
/// The fingerprint is a 64-bit keyed mixing hash
/// ([`share_fingerprint`]: SplitMix64 chains, eight independent lanes
/// over each 64-byte block of the payload), **not** a cryptographic MAC:
/// a change confined to one 8-byte word of the share always changes the
/// tag, and any other random corruption (the simulator's byte flips on
/// corrupting links, index mangling) passes with probability about
/// `2^-64` per share, but it offers no security against an adversary who
/// knows the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedShare {
    /// The underlying share.
    pub share: Share,
    /// Keyed fingerprint over `(key, index, data)`.
    pub tag: u64,
}

/// SplitMix64 finalizer — the standard 64-bit avalanche permutation.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Word `i` (little-endian) of a 64-byte block.
#[inline(always)]
fn block_word(block: &[u8; 64], i: usize) -> u64 {
    u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap())
}

/// The keyed fingerprint of one share. Deterministic across platforms.
///
/// - *Header.* The state absorbs the key, the share index and the
///   payload length, one SplitMix64 finalizer permutation (`mix64`) each.
/// - *Blocks.* Each whole 64-byte block of the payload feeds eight
///   independent lanes: lane `i` starts at the header state plus `i + 1`
///   times the golden-ratio constant and absorbs word `i` of every block
///   (`lane = mix64(lane ^ word)`). The lanes' multiplies overlap, where
///   one serial chain waits for each word's two multiplies in turn. The
///   lanes then fold into the state in lane order
///   (`state = mix64(state ^ lane)`).
/// - *Tail.* The last `len % 64` bytes are absorbed word by word into the
///   state, the final partial word zero-padded.
///
/// A payload shorter than one block therefore takes only the header and
/// the tail, which is exactly the serial chain this function computed
/// before it had lanes, value for value. Every step is a bijection of the
/// word it absorbs and of the state or lane it updates, so a change
/// confined to one 8-byte word always changes the tag.
pub fn share_fingerprint(key: u64, index: u8, data: &[u8]) -> u64 {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = mix64(key ^ GOLDEN);
    acc = mix64(acc ^ u64::from(index));
    acc = mix64(acc ^ data.len() as u64);
    let mut blocks = data.chunks_exact(64);
    if data.len() >= 64 {
        // Eight lanes written out so they stay in registers.
        let lane = |i: u64| acc.wrapping_add(GOLDEN.wrapping_mul(i + 1));
        let (mut l0, mut l1, mut l2, mut l3) = (lane(0), lane(1), lane(2), lane(3));
        let (mut l4, mut l5, mut l6, mut l7) = (lane(4), lane(5), lane(6), lane(7));
        for block in &mut blocks {
            let block: &[u8; 64] = block.try_into().unwrap();
            l0 = mix64(l0 ^ block_word(block, 0));
            l1 = mix64(l1 ^ block_word(block, 1));
            l2 = mix64(l2 ^ block_word(block, 2));
            l3 = mix64(l3 ^ block_word(block, 3));
            l4 = mix64(l4 ^ block_word(block, 4));
            l5 = mix64(l5 ^ block_word(block, 5));
            l6 = mix64(l6 ^ block_word(block, 6));
            l7 = mix64(l7 ^ block_word(block, 7));
        }
        for l in [l0, l1, l2, l3, l4, l5, l6, l7] {
            acc = mix64(acc ^ l);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        acc = mix64(acc ^ u64::from_le_bytes(word.try_into().unwrap()));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        acc = mix64(acc ^ u64::from_le_bytes(word));
    }
    acc
}

impl Ida {
    /// Creates a `(w, k)` scheme.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ w ≤ 255`.
    pub fn new(w: u8, k: u8) -> Self {
        assert!(k >= 1 && k <= w, "need 1 <= k <= w");
        Ida { w, k }
    }

    /// Total number of shares `w`.
    pub fn shares(&self) -> u8 {
        self.w
    }

    /// Reconstruction threshold `k`.
    pub fn threshold(&self) -> u8 {
        self.k
    }

    /// Disperses `message` into `w` shares.
    ///
    /// Share `i`'s byte for group `g` is the degree-`k-1` polynomial of
    /// that group evaluated at `x = i`. The evaluation runs on the
    /// vector kernels ([`kernel`]): one transpose pass de-interleaves the
    /// message into `k` stride planes in one buffer, and each share
    /// accumulates `x^j · plane_j` a whole row at a time (split-nibble
    /// multiply; plain `u64` XOR when the coefficient is 1, so share 1 is
    /// XOR-only and `k = 1` is pure replication). Byte-identical to
    /// [`Self::disperse_reference`], the schoolbook implementation kept as
    /// the conformance reference.
    pub fn disperse(&self, message: &[u8]) -> Vec<Share> {
        let k = usize::from(self.k);
        let w = usize::from(self.w);
        let groups = message.len().div_ceil(k);
        let header = (message.len() as u64).to_le_bytes();
        let mut out = Vec::with_capacity(w);
        if k == 1 {
            // Replication: every share is header + message verbatim.
            for i in 0..w {
                let mut data = Vec::with_capacity(8 + message.len());
                data.extend_from_slice(&header);
                data.extend_from_slice(message);
                out.push(Share { index: i as u8, data: Bytes::from(data) });
            }
            return out;
        }
        // Plane j holds the j-th byte of every k-byte group (zero-padded
        // tail), so "coefficient j of every group at once" is one slice.
        let mut planes = vec![0u8; k * groups];
        kernel::split_planes(message, k, &mut planes);
        for i in 0..w {
            // Exact-size buffer: header + one payload byte per group.
            let mut data = vec![0u8; 8 + groups];
            data[..8].copy_from_slice(&header);
            let payload = &mut data[8..];
            let mut coeff = 1;
            // An empty message has no planes (and a chunk size of 1 then
            // yields none).
            for plane in planes.chunks_exact(groups.max(1)) {
                kernel::mul_row_acc(payload, plane, coeff);
                coeff = kernel::mul(coeff, i as u8);
            }
            out.push(Share { index: i as u8, data: Bytes::from(data) });
        }
        out
    }

    /// The schoolbook dispersal: per-byte Horner evaluation through the
    /// log/exp field tables, exactly as originally shipped. Kept (and
    /// benchmarked, `ida/disperse_reference` in the perf suite) as the
    /// conformance reference for [`Self::disperse`]; unit tests pin the
    /// two byte-for-byte.
    pub fn disperse_reference(&self, message: &[u8]) -> Vec<Share> {
        let k = usize::from(self.k);
        let groups = message.len().div_ceil(k);
        let mut shares: Vec<Vec<u8>> = vec![Vec::with_capacity(groups + 8); usize::from(self.w)];
        // Length header (8 bytes LE), replicated into every share.
        for s in &mut shares {
            s.extend_from_slice(&(message.len() as u64).to_le_bytes());
        }
        for g in 0..groups {
            // Coefficients: the g-th group of k message bytes (zero-padded).
            for (i, share) in shares.iter_mut().enumerate() {
                let x = Gf256::new(i as u8);
                // Horner evaluation of Σ c_j x^j.
                let mut acc = Gf256::ZERO;
                for j in (0..k).rev() {
                    let c = message.get(g * k + j).copied().unwrap_or(0);
                    acc = acc * x + Gf256::new(c);
                }
                share.push(acc.value());
            }
        }
        shares
            .into_iter()
            .enumerate()
            .map(|(i, data)| Share { index: i as u8, data: Bytes::from(data) })
            .collect()
    }

    /// Reconstructs the message from any `k` (or more) distinct shares.
    ///
    /// The slice may contain extras and exact duplicates in any order: the
    /// first `k` *distinct* in-range shares are selected. Duplicated
    /// indices are tolerated only while their payloads agree — a
    /// disagreement means corruption and is reported as
    /// [`IdaError::ConflictingDuplicate`].
    ///
    /// Runs [`Self::reconstruct_into`] on fresh buffers, so a non-empty
    /// message costs exactly two heap allocations for `k ≥ 2` (the message
    /// and the scratch buffer) and one for `k = 1`;
    /// `bench/tests/alloc_zero.rs` pins both counts.
    pub fn reconstruct(&self, shares: &[Share]) -> Result<Vec<u8>, IdaError> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        self.reconstruct_into(shares, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// [`Self::reconstruct`] into caller buffers: the message replaces
    /// `out`'s contents, and `scratch` holds the augmented `k × 2k`
    /// inverse and the `k` output planes (`2k² + k·payload` bytes, `k ≥ 2`
    /// only). Selection, validation, errors and output bytes are
    /// `reconstruct`'s; on an error `out` is left empty.
    ///
    /// Each plane is a sum of kernel row ops over the picked payloads, and
    /// one transpose pass then interleaves all `k` planes into `out`. The
    /// selection lives in a fixed stack array and the shares are read in
    /// place, so a caller that reuses both buffers allocates nothing once
    /// they have grown to the message and scratch sizes. A buffer that
    /// must grow grows to exactly the size it needs.
    pub fn reconstruct_into<'s>(
        &self,
        shares: impl IntoIterator<Item = &'s Share>,
        out: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), IdaError> {
        out.clear();
        let k = usize::from(self.k);
        let mut shares = shares.into_iter();
        let Some(first) = shares.next() else {
            return Err(IdaError::NotEnoughShares { needed: k, got: 0 });
        };
        // `first` only fills the slots selection has not reached yet.
        let mut picked = [first; 255];
        let (msg_len, payload_len) =
            self.select_shares(std::iter::once(first).chain(shares), &mut picked)?;
        let picked = &picked[..k];
        if k == 1 {
            // inv is the 1×1 identity: the selected payload *is* the
            // message.
            out.reserve_exact(msg_len);
            out.extend_from_slice(&picked[0].data[8..8 + msg_len]);
            return Ok(());
        }
        let out = zeroed(out, msg_len);
        let (aug, planes) = zeroed(scratch, 2 * k * k + k * payload_len).split_at_mut(2 * k * k);
        invert_vandermonde(picked.iter().map(|s| s.index), k, aug);
        // plane_j = Σ_r inv[j][r] · payload_r — one kernel row op per
        // (j, r) pair. An empty payload has no planes (and a chunk size
        // of 1 then yields none).
        let rows = aug.chunks_exact(2 * k).zip(planes.chunks_exact_mut(payload_len.max(1)));
        for (j, (row, plane)) in rows.enumerate() {
            if j >= msg_len {
                break; // whole plane lands past the declared length
            }
            for (s, &c) in picked.iter().zip(&row[k..]) {
                kernel::mul_row_acc(plane, &s.data[8..], c);
            }
        }
        kernel::join_planes(planes, k, out);
        Ok(())
    }

    /// The schoolbook reconstruction: per-byte share combination through
    /// the log/exp field tables, exactly as originally shipped (its own
    /// selection and validation included, so its error behavior is frozen
    /// too). Kept as the conformance reference for [`Self::reconstruct`];
    /// unit tests pin the two byte-for-byte, errors included.
    pub fn reconstruct_reference(&self, shares: &[Share]) -> Result<Vec<u8>, IdaError> {
        let k = usize::from(self.k);
        let mut picked: Vec<&Share> = Vec::with_capacity(k);
        let mut seen = [false; 256];
        for s in shares {
            if s.index >= self.w {
                return Err(IdaError::IndexOutOfRange { index: s.index, width: self.w });
            }
            if seen[usize::from(s.index)] {
                if let Some(prev) = picked.iter().find(|p| p.index == s.index) {
                    if prev.data != s.data {
                        return Err(IdaError::ConflictingDuplicate { index: s.index });
                    }
                }
                continue;
            }
            seen[usize::from(s.index)] = true;
            if picked.len() < k {
                picked.push(s);
            }
        }
        if picked.len() < k {
            return Err(IdaError::NotEnoughShares { needed: k, got: picked.len() });
        }
        let header =
            picked[0].data.get(..8).ok_or(IdaError::ShareTooShort { index: picked[0].index })?;
        let msg_len = u64::from_le_bytes(header.try_into().unwrap()) as usize;
        let payload_len = picked[0].data.len() - 8;
        if picked.iter().any(|s| s.data.len() != payload_len + 8) {
            return Err(IdaError::InconsistentLengths);
        }
        if payload_len * k < msg_len {
            return Err(IdaError::DeclaredLengthTooLong {
                declared: msg_len,
                capacity: payload_len * k,
            });
        }

        let inv = vandermonde_inverse(&picked, k);
        let mut out = vec![0u8; msg_len];
        for g in 0..payload_len {
            for (j, inv_row) in inv.iter().enumerate() {
                let idx = g * k + j;
                if idx >= msg_len {
                    break;
                }
                let mut acc = Gf256::ZERO;
                for (r, s) in picked.iter().enumerate() {
                    acc = acc + inv_row[r] * Gf256::new(s.data[8 + g]);
                }
                out[idx] = acc.value();
            }
        }
        Ok(out)
    }

    /// Selects the first `k` distinct in-range shares into `picked[..k]`
    /// and validates their headers; used by [`Self::reconstruct_into`] and
    /// mirrored verbatim in [`Self::reconstruct_reference`]. Returns
    /// `(msg_len, payload_len)`.
    fn select_shares<'s>(
        &self,
        shares: impl Iterator<Item = &'s Share>,
        picked: &mut [&'s Share; 255],
    ) -> Result<(usize, usize), IdaError> {
        let k = usize::from(self.k);
        let mut got = 0;
        let mut seen = [false; 256];
        for s in shares {
            if s.index >= self.w {
                return Err(IdaError::IndexOutOfRange { index: s.index, width: self.w });
            }
            if seen[usize::from(s.index)] {
                if let Some(prev) = picked[..got].iter().find(|p| p.index == s.index) {
                    if prev.data != s.data {
                        return Err(IdaError::ConflictingDuplicate { index: s.index });
                    }
                }
                continue;
            }
            seen[usize::from(s.index)] = true;
            if got < k {
                picked[got] = s;
                got += 1;
            }
        }
        if got < k {
            return Err(IdaError::NotEnoughShares { needed: k, got });
        }
        let picked = &picked[..k];
        let header =
            picked[0].data.get(..8).ok_or(IdaError::ShareTooShort { index: picked[0].index })?;
        let msg_len = u64::from_le_bytes(header.try_into().unwrap()) as usize;
        let payload_len = picked[0].data.len() - 8;
        if picked.iter().any(|s| s.data.len() != payload_len + 8) {
            return Err(IdaError::InconsistentLengths);
        }
        if payload_len * k < msg_len {
            return Err(IdaError::DeclaredLengthTooLong {
                declared: msg_len,
                capacity: payload_len * k,
            });
        }
        Ok((msg_len, payload_len))
    }

    /// [`disperse`](Self::disperse), with each share fingerprinted under
    /// `key` so the receiving side can [`verify_share`](Self::verify_share)
    /// it — the oracle-free delivery protocol's ACK/NACK signal.
    pub fn disperse_tagged(&self, message: &[u8], key: u64) -> Vec<TaggedShare> {
        self.disperse(message)
            .into_iter()
            .map(|share| {
                let tag = share_fingerprint(key, share.index, &share.data);
                TaggedShare { share, tag }
            })
            .collect()
    }

    /// Whether `ts` is a plausible share of this scheme under `key`: its
    /// index is in range and its fingerprint matches its payload. A share
    /// whose bytes were flipped in transit (or whose index was mangled)
    /// fails and must be treated as an erasure.
    pub fn verify_share(&self, key: u64, ts: &TaggedShare) -> bool {
        ts.share.index < self.w && share_fingerprint(key, ts.share.index, &ts.share.data) == ts.tag
    }

    /// The bandwidth overhead factor `w / k` (total bytes sent over message
    /// bytes, ignoring the fixed header).
    pub fn overhead(&self) -> f64 {
        f64::from(self.w) / f64::from(self.k)
    }
}

/// Inverts the `k×k` Vandermonde matrix of the evaluation points `xs` by
/// Gauss-Jordan elimination on one row-major augmented matrix
/// `aug = [V | I]` (`k` rows of `2k` entries); on return the right half of
/// each row holds the matching row of `V⁻¹`. Distinct points — enforced
/// during selection — make the system nonsingular (fields this small need
/// no cleverness). Products and row eliminations read the `const` product
/// table ([`kernel::mul`], [`kernel::mul_row_acc_table`]); only the `k`
/// pivot inverses go through [`Gf256`]'s log/exp tables.
fn invert_vandermonde(xs: impl Iterator<Item = u8>, k: usize, aug: &mut [u8]) {
    let n = 2 * k;
    debug_assert_eq!(aug.len(), k * n);
    for (i, (row, x)) in aug.chunks_exact_mut(n).zip(xs).enumerate() {
        let mut p = 1;
        for v in &mut row[..k] {
            *v = p;
            p = kernel::mul(p, x);
        }
        row[k..].fill(0);
        row[k + i] = 1;
    }
    for col in 0..k {
        let pivot = (col..k)
            .find(|&r| aug[r * n + col] != 0)
            .expect("Vandermonde system with distinct points is nonsingular");
        if pivot != col {
            let (upper, lower) = aug.split_at_mut(pivot * n);
            upper[col * n..(col + 1) * n].swap_with_slice(&mut lower[..n]);
        }
        let inv_p = Gf256::new(aug[col * n + col]).inverse().value();
        for v in &mut aug[col * n..(col + 1) * n] {
            *v = kernel::mul(*v, inv_p);
        }
        for r in 0..k {
            let f = aug[r * n + col];
            if r != col && f != 0 {
                // row_r ^= f · row_col, with the two rows borrowed apart.
                let (lo, hi) = aug.split_at_mut(r.max(col) * n);
                let (dst, src) = if r < col {
                    (&mut lo[r * n..(r + 1) * n], &hi[..n])
                } else {
                    (&mut hi[..n], &lo[col * n..(col + 1) * n])
                };
                kernel::mul_row_acc_table(dst, src, f);
            }
        }
    }
}

/// Replaces `buf`'s contents with `len` zero bytes, growing it to exactly
/// `len` when it is too small.
fn zeroed(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    buf.clear();
    buf.reserve_exact(len);
    buf.resize(len, 0);
    buf
}

/// [`invert_vandermonde`] over the picked shares' points, returned as the
/// nested rows [`Ida::reconstruct_reference`] reads.
fn vandermonde_inverse(picked: &[&Share], k: usize) -> Vec<Vec<Gf256>> {
    let mut aug = vec![0u8; 2 * k * k];
    invert_vandermonde(picked.iter().map(|s| s.index), k, &mut aug);
    aug.chunks_exact(2 * k).map(|row| row[k..].iter().map(|&v| Gf256::new(v)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shares() {
        let ida = Ida::new(5, 3);
        let msg = b"the quick brown fox jumps over the lazy dog";
        let shares = ida.disperse(msg);
        assert_eq!(shares.len(), 5);
        assert_eq!(ida.reconstruct(&shares).unwrap(), msg);
    }

    #[test]
    fn any_k_shares_suffice() {
        let ida = Ida::new(6, 3);
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let shares = ida.disperse(&msg);
        // Try several k-subsets.
        for combo in [[0usize, 1, 2], [3, 4, 5], [0, 2, 4], [5, 1, 3]] {
            let subset: Vec<Share> = combo.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(ida.reconstruct(&subset).unwrap(), msg, "combo {combo:?}");
        }
    }

    #[test]
    fn fewer_than_k_fails() {
        let ida = Ida::new(4, 3);
        let shares = ida.disperse(b"hello");
        assert_eq!(
            ida.reconstruct(&shares[..2]),
            Err(IdaError::NotEnoughShares { needed: 3, got: 2 })
        );
    }

    #[test]
    fn duplicates_count_once() {
        // Two copies of one share are one share: still short of k = 2.
        let ida = Ida::new(4, 2);
        let shares = ida.disperse(b"hello");
        let dup = vec![shares[1].clone(), shares[1].clone()];
        assert_eq!(ida.reconstruct(&dup), Err(IdaError::NotEnoughShares { needed: 2, got: 1 }));
    }

    #[test]
    fn duplicates_plus_enough_distinct_shares_recover() {
        // Harmless duplicates are skipped; the k distinct shares win.
        let ida = Ida::new(4, 2);
        let msg = b"hello";
        let shares = ida.disperse(msg);
        let noisy =
            vec![shares[1].clone(), shares[1].clone(), shares[3].clone(), shares[3].clone()];
        assert_eq!(ida.reconstruct(&noisy).unwrap(), msg);
    }

    #[test]
    fn conflicting_duplicate_rejected() {
        let ida = Ida::new(4, 2);
        let shares = ida.disperse(b"hello");
        let mut forged = shares[1].clone();
        let mut bytes = forged.data.to_vec();
        bytes[8] ^= 0xff;
        forged.data = Bytes::from(bytes);
        let conflicted = vec![shares[1].clone(), forged, shares[2].clone()];
        assert_eq!(ida.reconstruct(&conflicted), Err(IdaError::ConflictingDuplicate { index: 1 }));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let ida = Ida::new(3, 2);
        let mut shares = ida.disperse(b"hello");
        shares[0].index = 7;
        assert_eq!(ida.reconstruct(&shares), Err(IdaError::IndexOutOfRange { index: 7, width: 3 }));
    }

    #[test]
    fn truncated_share_rejected() {
        let ida = Ida::new(3, 2);
        let mut shares = ida.disperse(b"hello world");
        shares[0].data = Bytes::from(shares[0].data[..4].to_vec());
        assert_eq!(ida.reconstruct(&shares[..2]), Err(IdaError::ShareTooShort { index: 0 }));
        let mut uneven = ida.disperse(b"hello world");
        uneven[1].data = Bytes::from(uneven[1].data[..9].to_vec());
        assert_eq!(ida.reconstruct(&uneven[..2]), Err(IdaError::InconsistentLengths));
    }

    #[test]
    fn errors_display_their_context() {
        let e = IdaError::NotEnoughShares { needed: 3, got: 1 };
        assert_eq!(e.to_string(), "need 3 distinct shares, got 1");
        let e: Box<dyn std::error::Error> = Box::new(IdaError::ConflictingDuplicate { index: 9 });
        assert!(e.to_string().contains("index 9"));
    }

    #[test]
    fn share_sizes_match_overhead() {
        let ida = Ida::new(8, 4);
        let msg = vec![7u8; 4096];
        let shares = ida.disperse(&msg);
        for s in &shares {
            assert_eq!(s.data.len(), 8 + 1024, "share = len header + |M|/k bytes");
        }
        assert_eq!(ida.overhead(), 2.0);
    }

    #[test]
    fn empty_and_tiny_messages() {
        let ida = Ida::new(3, 2);
        for msg in [&b""[..], b"a", b"ab", b"abc"] {
            let shares = ida.disperse(msg);
            assert_eq!(ida.reconstruct(&shares[1..]).unwrap(), msg);
        }
    }

    #[test]
    fn tagged_shares_verify_and_reconstruct() {
        let ida = Ida::new(6, 3);
        let msg: Vec<u8> = (0..200u8).collect();
        let key = 0xfeed_beef_cafe_f00d;
        let tagged = ida.disperse_tagged(&msg, key);
        assert_eq!(tagged.len(), 6);
        assert!(tagged.iter().all(|t| ida.verify_share(key, t)));
        let shares: Vec<Share> = tagged.iter().map(|t| t.share.clone()).collect();
        assert_eq!(ida.reconstruct(&shares).unwrap(), msg);
        // Tagging never changes the underlying share bytes.
        assert_eq!(shares, ida.disperse(&msg));
    }

    #[test]
    fn flipped_payload_byte_fails_verification() {
        let ida = Ida::new(5, 2);
        let key = 42;
        let tagged = ida.disperse_tagged(b"authenticated", key);
        for (pos, flip) in [(0usize, 0x01u8), (8, 0x80), (12, 0xff)] {
            let mut bad = tagged[2].clone();
            let mut bytes = bad.share.data.to_vec();
            bytes[pos] ^= flip;
            bad.share.data = Bytes::from(bytes);
            assert!(!ida.verify_share(key, &bad), "flip at byte {pos} must be caught");
        }
    }

    #[test]
    fn mangled_index_fails_verification() {
        let ida = Ida::new(5, 2);
        let key = 7;
        let tagged = ida.disperse_tagged(b"hello", key);
        // Swapping a share's claimed index (payload intact) is caught.
        let mut bad = tagged[1].clone();
        bad.share.index = 3;
        assert!(!ida.verify_share(key, &bad));
        // As is an out-of-range index even with a forged matching tag.
        let mut oob = tagged[1].clone();
        oob.share.index = 9;
        oob.tag = share_fingerprint(key, 9, &oob.share.data);
        assert!(!ida.verify_share(key, &oob));
    }

    #[test]
    fn wrong_key_fails_verification() {
        let ida = Ida::new(4, 2);
        let tagged = ida.disperse_tagged(b"keyed", 1111);
        assert!(tagged.iter().all(|t| ida.verify_share(1111, t)));
        assert!(tagged.iter().all(|t| !ida.verify_share(2222, t)));
    }

    #[test]
    fn fingerprint_is_a_pure_function_of_key_index_and_bytes() {
        let a = share_fingerprint(5, 2, b"payload bytes");
        assert_eq!(a, share_fingerprint(5, 2, b"payload bytes"));
        assert_ne!(a, share_fingerprint(6, 2, b"payload bytes"));
        assert_ne!(a, share_fingerprint(5, 3, b"payload bytes"));
        assert_ne!(a, share_fingerprint(5, 2, b"payload byteX"));
        // Length is absorbed: a zero-padded extension does not collide.
        assert_ne!(share_fingerprint(5, 2, b"ab"), share_fingerprint(5, 2, b"ab\0"));
        // Lanes past the first also matter (tail handling).
        assert_ne!(
            share_fingerprint(5, 2, b"0123456789abcdef"),
            share_fingerprint(5, 2, b"0123456789abcdeX"),
        );
    }

    /// The serial SplitMix64 chain [`share_fingerprint`] computed before
    /// it absorbed whole blocks in lanes: header, then every 8-byte word
    /// in order, the last one zero-padded.
    fn serial_fingerprint(key: u64, index: u8, data: &[u8]) -> u64 {
        let mut acc = mix64(key ^ 0x9e37_79b9_7f4a_7c15);
        acc = mix64(acc ^ u64::from(index));
        acc = mix64(acc ^ data.len() as u64);
        for word in data.chunks(8) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            acc = mix64(acc ^ u64::from_le_bytes(padded));
        }
        acc
    }

    /// `len` bytes of a fixed pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 89 + 41) as u8).collect()
    }

    #[test]
    fn fingerprint_below_one_block_is_the_serial_chain() {
        for len in 0..64 {
            let data = pattern(len);
            for (key, index) in [(0u64, 0u8), (42, 3), (u64::MAX, 254)] {
                assert_eq!(
                    share_fingerprint(key, index, &data),
                    serial_fingerprint(key, index, &data),
                    "len={len} key={key} index={index}"
                );
            }
        }
        // From one block on the lanes take over.
        let block = pattern(64);
        assert_ne!(share_fingerprint(1, 2, &block), serial_fingerprint(1, 2, &block));
    }

    #[test]
    fn fingerprint_catches_every_single_bit_flip() {
        let key = 0x5eed_1234_abcd_ef00;
        for len in (0..=200).chain([1374]) {
            let mut data = pattern(len);
            let tag = share_fingerprint(key, 1, &data);
            for pos in 0..len {
                for bit in 0..8 {
                    data[pos] ^= 1 << bit;
                    assert_ne!(
                        share_fingerprint(key, 1, &data),
                        tag,
                        "bit {bit} of byte {pos} at len={len}"
                    );
                    data[pos] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        const PINNED_0: u64 = 0xd223_12eb_f06b_86c5;
        const PINNED_63: u64 = 0xa7df_4b3a_a3d2_8aec;
        const PINNED_1374: u64 = 0xfaa6_34a4_1919_4ae0;
        // A platform or refactor that changes the function fails here:
        // one empty payload, one just short of a block (the serial
        // chain), and one 4 KiB message's share at k = 3 (21 blocks in
        // lanes plus a 30-byte tail).
        let key = 0x0123_4567_89ab_cdef;
        assert_eq!(share_fingerprint(key, 0, &[]), PINNED_0);
        assert_eq!(share_fingerprint(key, 1, &pattern(63)), PINNED_63);
        assert_eq!(share_fingerprint(key, 2, &pattern(1374)), PINNED_1374);
    }

    /// Message and scratch buffers holding the reconstruction of a message
    /// longer than any test rebuilds into them, so a stale byte that
    /// `reconstruct_into` failed to overwrite would show.
    fn dirty_buffers(ida: &Ida) -> (Vec<u8>, Vec<u8>) {
        let longer: Vec<u8> = (0..1500u32).map(|i| (i * 7 + 3) as u8).collect();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        ida.reconstruct_into(&ida.disperse(&longer), &mut out, &mut scratch).unwrap();
        assert_eq!(out, longer);
        (out, scratch)
    }

    /// `reconstruct_into` on `bufs`, shaped like `reconstruct`'s result; an
    /// error must leave the message buffer empty.
    fn rebuild_into(
        ida: &Ida,
        shares: &[Share],
        (out, scratch): &mut (Vec<u8>, Vec<u8>),
    ) -> Result<Vec<u8>, IdaError> {
        let got = ida.reconstruct_into(shares, out, scratch);
        if got.is_err() {
            assert!(out.is_empty(), "an error must leave `out` empty");
        }
        got.map(|()| out.clone())
    }

    #[test]
    fn kernel_codec_matches_schoolbook_reference() {
        let msgs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"ab".to_vec(),
            (0..=255u8).collect(),
            (0..1000).map(|i| (i * 31 + 7) as u8).collect(),
        ];
        for (w, k) in [(1u8, 1u8), (3, 1), (4, 2), (5, 3), (8, 4), (16, 11), (255, 254)] {
            let ida = Ida::new(w, k);
            // Longest message first: every `reconstruct_into` reuses
            // buffers that last held a longer message.
            let mut bufs = dirty_buffers(&ida);
            for msg in msgs.iter().rev() {
                let fast = ida.disperse(msg);
                let slow = ida.disperse_reference(msg);
                assert_eq!(fast, slow, "disperse w={w} k={k} len={}", msg.len());
                // The last k shares exercise the general (non-systematic)
                // combine on both paths.
                let tail: Vec<Share> = fast[fast.len() - usize::from(k)..].to_vec();
                let rebuilt = ida.reconstruct(&tail);
                assert_eq!(
                    rebuilt,
                    ida.reconstruct_reference(&tail),
                    "reconstruct w={w} k={k} len={}",
                    msg.len()
                );
                assert_eq!(
                    rebuild_into(&ida, &tail, &mut bufs),
                    rebuilt,
                    "reconstruct_into w={w} k={k} len={}",
                    msg.len()
                );
                assert_eq!(rebuilt.unwrap(), *msg);
            }
        }
    }

    #[test]
    fn kernel_and_reference_agree_on_errors() {
        let ida = Ida::new(4, 3);
        let shares = ida.disperse(b"hello world");
        // Each case agrees across the reference, `reconstruct`, and
        // `reconstruct_into` on dirty buffers.
        let agree = |offered: &[Share]| {
            let got = ida.reconstruct(offered);
            assert_eq!(got, ida.reconstruct_reference(offered));
            assert_eq!(rebuild_into(&ida, offered, &mut dirty_buffers(&ida)), got);
            got
        };
        // Too few shares.
        assert!(agree(&shares[..2]).is_err());
        // Out-of-range index.
        let mut oob = shares.clone();
        oob[0].index = 9;
        assert_eq!(agree(&oob), Err(IdaError::IndexOutOfRange { index: 9, width: 4 }));
        // Conflicting duplicate.
        let mut forged = shares[1].clone();
        let mut bytes = forged.data.to_vec();
        bytes[8] ^= 0xff;
        forged.data = Bytes::from(bytes);
        let conflicted = vec![shares[1].clone(), forged, shares[2].clone(), shares[3].clone()];
        assert_eq!(agree(&conflicted), Err(IdaError::ConflictingDuplicate { index: 1 }));
        // Truncated header and inconsistent lengths.
        let mut short = shares.clone();
        short[0].data = Bytes::from(short[0].data[..4].to_vec());
        assert_eq!(agree(&short[..3]), Err(IdaError::ShareTooShort { index: 0 }));
        let mut uneven = shares.clone();
        uneven[1].data = Bytes::from(uneven[1].data[..9].to_vec());
        assert_eq!(agree(&uneven[..3]), Err(IdaError::InconsistentLengths));
        // No shares at all.
        assert_eq!(agree(&[]), Err(IdaError::NotEnoughShares { needed: 3, got: 0 }));
    }

    #[test]
    fn k_equals_one_is_replication() {
        let ida = Ida::new(3, 1);
        let msg = b"replicate me";
        let shares = ida.disperse(msg);
        for s in &shares {
            let one = vec![s.clone()];
            assert_eq!(ida.reconstruct(&one).unwrap(), msg);
        }
    }
}
