//! Vector-level `GF(2^8)` kernels backing [`Ida::disperse`] and
//! [`Ida::reconstruct`].
//!
//! The schoolbook codec multiplies field bytes one at a time through the
//! log/exp tables ([`crate::Gf256`]). Dispersal and reconstruction are
//! really *row* operations though — every payload byte of a share is the
//! same linear combination of message planes — so this module provides
//! the primitives they reduce to:
//!
//! * [`mul_row_acc`]: `dst ^= c · src` over whole byte rows. On x86-64
//!   with AVX2 (detected at runtime) the body is **split-nibble**:
//!   `c·v = c·(v & 0x0f) ^ c·(v & 0xf0)`, and each half is one 16-entry
//!   `vpshufb` lookup (`lo[x] = c·x`, `hi[x] = c·(x << 4)`, both read off
//!   the coefficient's [`MUL_TABLE`] row), so 32 bytes cost two shuffles
//!   and three XORs. Everywhere else the portable body is the bit-sliced
//!   polynomial ladder `c·v = Σ_{j: bit j of c} v·x^j` over `[u64; 8]`
//!   SWAR words, `xtime8` multiplying eight byte lanes by `x` per word op
//!   and the trip count stopping at `c`'s top set bit (a per-call
//!   constant, never the row data). Tails shorter than a vector or a
//!   64-byte chunk fall back to a hoisted row of the fully
//!   `const`-evaluated 256×256 product table ([`MUL_TABLE`] — no
//!   `OnceLock`, no runtime initialization, no drift from the log/exp
//!   path; the exhaustive equality test below checks all 65 536 pairs
//!   against an independent shift-and-reduce implementation);
//! * [`mul_row_acc_table`]: the table-driven row op, kept as the perf
//!   gate's speedup-floor comparator (`ida/rowops/*` records);
//! * [`xor_row_acc`]: the `c == 1` fast path, eight bytes per `u64` XOR;
//! * `split_planes` / `join_planes` (crate-private): the moves between a
//!   message and its `k` stride planes (plane `j` holds byte `j` of every
//!   `k`-byte group). For `2 ≤ k ≤ 16` on x86-64 with SSSE3 (detected at
//!   runtime) each step moves 16 groups — `k` vectors in, `k` vectors
//!   out — through `k²` `pshufb` gathers whose masks are built at compile
//!   time; other `k`, other hosts and the last partial step run a scalar
//!   group-order loop.
//!
//! Each vector body is a private function beside its portable twin, and
//! the unit tests run both against the table path or a per-byte index
//! formula, so the bodies a CI machine never dispatches to stay tested.
//! The scalar codec stays available as [`Ida::disperse_reference`] /
//! [`Ida::reconstruct_reference`]; `crates/ida` unit tests pin the kernel
//! paths against them byte for byte.
//!
//! [`Ida::disperse`]: crate::Ida::disperse
//! [`Ida::reconstruct`]: crate::Ida::reconstruct
//! [`Ida::disperse_reference`]: crate::Ida::disperse_reference
//! [`Ida::reconstruct_reference`]: crate::Ida::reconstruct_reference

/// Carry-less "Russian peasant" product in `GF(2^8)` modulo the AES
/// polynomial `x^8 + x^4 + x^3 + x + 1` — the `const` generator for
/// [`MUL_TABLE`], independent of the log/exp tables.
const fn gf_mul_const(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b;
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11b;
        }
        b >>= 1;
    }
    acc as u8
}

const fn build_mul_table() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut a = 0;
    while a < 256 {
        let mut b = 0;
        while b < 256 {
            t[a][b] = gf_mul_const(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    t
}

/// The full 64 KiB `GF(2^8)` product table, `MUL_TABLE[a][b] = a·b`.
/// Built entirely at compile time, so there is nothing to initialize (and
/// nothing that can drift) at runtime.
pub static MUL_TABLE: [[u8; 256]; 256] = build_mul_table();

/// Table-driven field product of two bytes.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL_TABLE[a as usize][b as usize]
}

/// `dst ^= src`, eight bytes at a time.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xor_row_acc(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let v =
            u64::from_le_bytes(dw.try_into().unwrap()) ^ u64::from_le_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&v.to_le_bytes());
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// Low-seven-bits mask of every byte lane of a word.
const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// High-bit mask of every byte lane of a word.
const HI1: u64 = 0x8080_8080_8080_8080;

/// Eight parallel `GF(2^8)` multiplications by `x`, one per byte lane:
/// shift each lane left and reduce the lanes that overflowed by the AES
/// polynomial's low byte `0x1b`. Extracting the high bits before the
/// shift keeps the lanes independent — no carry ever crosses a byte
/// boundary (`(hi >> 7) * 0x1b` scatters `0x1b` into exactly the
/// overflowing lanes, and `0x1b < 0x80` cannot collide with a neighbor).
#[inline(always)]
fn xtime8(w: u64) -> u64 {
    ((w & LO7) << 1) ^ ((w & HI1) >> 7).wrapping_mul(0x1b)
}

/// `dst ^= c · src` over `GF(2^8)`: skipped for `c == 0`, word-level XOR
/// for `c == 1`, and otherwise the split-nibble `vpshufb` body on x86-64
/// with AVX2 (detected at runtime) or the portable SWAR ladder everywhere
/// else, each with a hoisted [`MUL_TABLE`] row for the tail.
/// Byte-identical to [`mul_row_acc_table`] — `GF(2^8)` has one product —
/// only faster; the perf gate's `ida/rowops/*` floor holds it above the
/// table path on 64 KiB rows.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mul_row_acc(dst: &mut [u8], src: &[u8], c: u8) {
    match c {
        0 => {}
        1 => xor_row_acc(dst, src),
        _ => {
            assert_eq!(dst.len(), src.len(), "row length mismatch");
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 just detected; the slices have equal lengths.
                return unsafe { x86::mul_row_acc_nibble(dst, src, c) };
            }
            mul_row_acc_swar(dst, src, c)
        }
    }
}

/// The portable body of [`mul_row_acc`]: the bit-sliced polynomial
/// ladder `c·v = Σ_j select[j] & v·x^j` over 64-byte chunks of eight
/// `u64` words, selecting each `v·x^j` by a broadcast mask of bit `j` of
/// `c` instead of branching and stopping at `c`'s top set bit — so the
/// trip count depends only on the coefficient, never on the row data.
/// Sub-chunk tails use the table row. Correct for every `c`, 0 and 1
/// included.
fn mul_row_acc_swar(dst: &mut [u8], src: &[u8], c: u8) {
    let mut select = [0u64; 8];
    for (j, m) in select.iter_mut().enumerate() {
        *m = 0u64.wrapping_sub(u64::from((c >> j) & 1));
    }
    let rounds = 8 - c.leading_zeros() as usize;
    let row = &MUL_TABLE[c as usize];
    let mut d = dst.chunks_exact_mut(64);
    let mut s = src.chunks_exact(64);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let mut acc = [0u64; 8];
        let mut pow = [0u64; 8];
        for l in 0..8 {
            acc[l] = u64::from_le_bytes(dw[l * 8..l * 8 + 8].try_into().unwrap());
            pow[l] = u64::from_le_bytes(sw[l * 8..l * 8 + 8].try_into().unwrap());
        }
        // One round per ladder step up to the coefficient's top bit (the
        // final round needs no further xtime).
        for (j, &sel) in select.iter().enumerate().take(rounds) {
            for l in 0..8 {
                acc[l] ^= pow[l] & sel;
            }
            if j + 1 < rounds {
                for p in &mut pow {
                    *p = xtime8(*p);
                }
            }
        }
        for l in 0..8 {
            dw[l * 8..l * 8 + 8].copy_from_slice(&acc[l].to_le_bytes());
        }
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= row[sb as usize];
    }
}

/// The table-driven `dst ^= c · src`: one hoisted [`MUL_TABLE`] row, one
/// lookup-XOR per byte. Kept public as the speedup-floor comparator
/// (`ida/rowops/table/*` perf records) and as the reference the row
/// bodies are tested against.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mul_row_acc_table(dst: &mut [u8], src: &[u8], c: u8) {
    match c {
        0 => {}
        1 => xor_row_acc(dst, src),
        _ => {
            assert_eq!(dst.len(), src.len(), "row length mismatch");
            let row = &MUL_TABLE[c as usize];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= row[s as usize];
            }
        }
    }
}

/// De-interleaves `msg` into `k` stride planes of `planes.len() / k`
/// bytes each: `planes[j·plane_len + g] = msg[g·k + j]`. Plane bytes past
/// the message (the zero padding of a partial last group) are left as
/// they are.
///
/// # Panics
/// Panics unless `planes.len()` is a multiple of `k` that holds `msg`.
pub(crate) fn split_planes(msg: &[u8], k: usize, planes: &mut [u8]) {
    assert!(k >= 1 && planes.len().is_multiple_of(k) && msg.len() <= planes.len(), "plane shape");
    #[cfg(target_arch = "x86_64")]
    if x86::SHUFFLE_KS.contains(&k) && is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 just detected, `k` is in range, and the shape
        // was asserted above.
        let done = unsafe { x86::split_planes_ssse3(msg, k, planes) };
        return split_planes_scalar(msg, k, planes, done);
    }
    split_planes_scalar(msg, k, planes, 0)
}

/// Re-interleaves `k` stride planes of `planes.len() / k` bytes into
/// `out`: `out[g·k + j] = planes[j·plane_len + g]` for every byte of
/// `out` (the inverse of [`split_planes`]).
///
/// # Panics
/// Panics unless `planes.len()` is a multiple of `k` that holds `out`.
pub(crate) fn join_planes(planes: &[u8], k: usize, out: &mut [u8]) {
    assert!(k >= 1 && planes.len().is_multiple_of(k) && out.len() <= planes.len(), "plane shape");
    #[cfg(target_arch = "x86_64")]
    if x86::SHUFFLE_KS.contains(&k) && is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 just detected, `k` is in range, and the shape
        // was asserted above.
        let done = unsafe { x86::join_planes_ssse3(planes, k, out) };
        return join_planes_scalar(planes, k, out, done);
    }
    join_planes_scalar(planes, k, out, 0)
}

/// The scalar body of [`split_planes`]: one stride loop per plane, from
/// group `from` on.
fn split_planes_scalar(msg: &[u8], k: usize, planes: &mut [u8], from: usize) {
    let plane_len = planes.len() / k;
    for j in 0..k {
        let plane = &mut planes[j * plane_len + from..(j + 1) * plane_len];
        let column = &msg[(from * k + j).min(msg.len())..];
        for (p, &b) in plane.iter_mut().zip(column.iter().step_by(k)) {
            *p = b;
        }
    }
}

/// The scalar body of [`join_planes`]: one stride loop per plane, from
/// group `from` on.
fn join_planes_scalar(planes: &[u8], k: usize, out: &mut [u8], from: usize) {
    let plane_len = planes.len() / k;
    for j in 0..k {
        let plane = &planes[j * plane_len + from..(j + 1) * plane_len];
        let start = (from * k + j).min(out.len());
        for (o, &b) in out[start..].iter_mut().step_by(k).zip(plane) {
            *o = b;
        }
    }
}

/// The x86-64 vector bodies, each selected at run time by its dispatcher
/// ([`mul_row_acc`], [`split_planes`], [`join_planes`]) when the CPU has
/// the feature it needs.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::MUL_TABLE;
    use core::arch::x86_64::*;

    /// The split-nibble body of [`mul_row_acc`](super::mul_row_acc): per
    /// 32 bytes, one `vpshufb` into `lo[x] = c·x` for the low nibbles and
    /// one into `hi[x] = c·(x<<4)` for the high nibbles; their XOR is
    /// `c·v` because multiplication by `c` is linear over `GF(2)`.
    /// Sub-vector tails use the table row.
    ///
    /// # Safety
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_row_acc_nibble(dst: &mut [u8], src: &[u8], c: u8) {
        debug_assert_eq!(dst.len(), src.len());
        let row = &MUL_TABLE[c as usize];
        let lo: [u8; 16] = core::array::from_fn(|x| row[x]);
        let hi: [u8; 16] = core::array::from_fn(|x| row[x << 4]);
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let nibble = _mm256_set1_epi8(0x0f);
        let split = dst.len() - dst.len() % 32;
        for (d, s) in dst[..split].chunks_exact_mut(32).zip(src[..split].chunks_exact(32)) {
            let v = _mm256_loadu_si256(s.as_ptr().cast());
            let product = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(v, nibble)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble)),
            );
            let dp = d.as_mut_ptr().cast();
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), product));
        }
        for (db, &sb) in dst[split..].iter_mut().zip(&src[split..]) {
            *db ^= row[sb as usize];
        }
    }

    /// Plane counts the `pshufb` transpose serves: one 16-byte vector holds
    /// at least one whole `k`-byte group and at most 16 groups.
    pub(super) const SHUFFLE_KS: core::ops::RangeInclusive<usize> = 2..=16;

    /// Where plane count `k`'s `k²` masks start in [`SPLIT_MASKS`] and
    /// [`JOIN_MASKS`]: `Σ_{i=2}^{k-1} i²`.
    const fn mask_base(k: usize) -> usize {
        let mut sum = 0;
        let mut i = 2;
        while i < k {
            sum += i * i;
            i += 1;
        }
        sum
    }

    /// Masks for every plane count in [`SHUFFLE_KS`].
    const MASKS: usize = mask_base(17);

    /// The `pshufb` masks of one 16-group transpose step, for every plane
    /// count `k` in [`SHUFFLE_KS`]. Byte `pos` of the step's interleaved
    /// block is byte `j = pos % k` of group `g = pos / k`, and sits in
    /// message vector `n = pos / 16` at offset `b = pos % 16`; plane `j`'s
    /// vector holds it at offset `g`. Output vector `a` of a step is the OR
    /// over input vectors `i` of `pshufb(input_i, mask[a·k + i])`:
    ///
    /// * split (message → planes, `split` set): `mask[j·k + n][g] = b`;
    /// * join (planes → message): `mask[n·k + j][b] = g`.
    ///
    /// Every other mask byte is `0x80`, which `pshufb` turns into a zero.
    const fn build_masks(split: bool) -> [[u8; 16]; MASKS] {
        let mut t = [[0x80u8; 16]; MASKS];
        let mut k = 2;
        while k <= 16 {
            let base = mask_base(k);
            let mut pos = 0;
            while pos < 16 * k {
                let (g, j, n, b) = (pos / k, pos % k, pos / 16, pos % 16);
                if split {
                    t[base + j * k + n][g] = b as u8;
                } else {
                    t[base + n * k + j][b] = g as u8;
                }
                pos += 1;
            }
            k += 1;
        }
        t
    }

    /// [`build_masks`] for the message → planes direction.
    static SPLIT_MASKS: [[u8; 16]; MASKS] = build_masks(true);
    /// [`build_masks`] for the planes → message direction.
    static JOIN_MASKS: [[u8; 16]; MASKS] = build_masks(false);

    /// The `pshufb` body of [`split_planes`](super::split_planes) over every whole
    /// 16-group step of `msg`; returns the groups it moved.
    ///
    /// # Safety
    /// Requires SSSE3, `k` in [`SHUFFLE_KS`], and
    /// [`split_planes`](super::split_planes)'s shape.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn split_planes_ssse3(msg: &[u8], k: usize, planes: &mut [u8]) -> usize {
        let (plane_len, steps) = (planes.len() / k, msg.len() / (16 * k));
        // Step s reads message vectors 16k·s + 16i and writes plane vectors
        // j·plane_len + 16s; 16k·steps ≤ len ≤ k·plane_len keeps both in
        // bounds.
        let masks = &SPLIT_MASKS[mask_base(k)..mask_base(k) + k * k];
        SHUFFLE_BODIES[k - 2](
            msg.as_ptr(),
            (16 * k, 16),
            planes.as_mut_ptr(),
            (16, plane_len),
            masks,
            steps,
        );
        16 * steps
    }

    /// The `pshufb` body of [`join_planes`](super::join_planes) over every whole
    /// 16-group step of `out`; returns the groups it moved.
    ///
    /// # Safety
    /// Requires SSSE3, `k` in [`SHUFFLE_KS`], and
    /// [`join_planes`](super::join_planes)'s shape.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn join_planes_ssse3(planes: &[u8], k: usize, out: &mut [u8]) -> usize {
        let (plane_len, steps) = (planes.len() / k, out.len() / (16 * k));
        // The mirror of `split_planes_ssse3`: the same bounds, read and
        // written the other way round.
        let masks = &JOIN_MASKS[mask_base(k)..mask_base(k) + k * k];
        SHUFFLE_BODIES[k - 2](
            planes.as_ptr(),
            (16, plane_len),
            out.as_mut_ptr(),
            (16 * k, 16),
            masks,
            steps,
        );
        16 * steps
    }

    /// A [`shuffle_steps`] body for one plane count.
    type ShuffleBody =
        unsafe fn(*const u8, (usize, usize), *mut u8, (usize, usize), &[[u8; 16]], usize);

    /// [`shuffle_steps`] for `k = 2..=16`, indexed by `k - 2`: a body per
    /// plane count keeps its `k²` masks and `k` input vectors in registers.
    const SHUFFLE_BODIES: [ShuffleBody; 15] = [
        shuffle_steps::<2>,
        shuffle_steps::<3>,
        shuffle_steps::<4>,
        shuffle_steps::<5>,
        shuffle_steps::<6>,
        shuffle_steps::<7>,
        shuffle_steps::<8>,
        shuffle_steps::<9>,
        shuffle_steps::<10>,
        shuffle_steps::<11>,
        shuffle_steps::<12>,
        shuffle_steps::<13>,
        shuffle_steps::<14>,
        shuffle_steps::<15>,
        shuffle_steps::<16>,
    ];

    /// `steps` transpose steps of `K` vectors each: step `s` loads input
    /// vector `i` from `src + s·src_step + i·src_vec` and stores output
    /// vector `a = OR_i pshufb(input_i, masks[a·K + i])` at
    /// `dst + s·dst_step + a·dst_vec`.
    ///
    /// # Safety
    /// Requires SSSE3, `masks.len() == K²`, and every addressed 16-byte
    /// vector in bounds of its buffer.
    #[target_feature(enable = "ssse3")]
    unsafe fn shuffle_steps<const K: usize>(
        src: *const u8,
        (src_step, src_vec): (usize, usize),
        dst: *mut u8,
        (dst_step, dst_vec): (usize, usize),
        masks: &[[u8; 16]],
        steps: usize,
    ) {
        let mut m = [[_mm_setzero_si128(); K]; K];
        for (row, masks) in m.iter_mut().zip(masks.chunks_exact(K)) {
            for (mask, bytes) in row.iter_mut().zip(masks) {
                *mask = _mm_loadu_si128(bytes.as_ptr().cast());
            }
        }
        let mut v = [_mm_setzero_si128(); K];
        for s in 0..steps {
            let (src, dst) = (src.add(s * src_step), dst.add(s * dst_step));
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = _mm_loadu_si128(src.add(i * src_vec).cast());
            }
            for (a, row) in m.iter().enumerate() {
                let mut acc = _mm_setzero_si128();
                for (vi, mask) in v.iter().zip(row) {
                    acc = _mm_or_si128(acc, _mm_shuffle_epi8(*vi, *mask));
                }
                _mm_storeu_si128(dst.add(a * dst_vec).cast(), acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    /// Yet another independent multiply — shift-and-reduce with the
    /// operands swapped relative to [`gf_mul_const`] — so the exhaustive
    /// test is not comparing an implementation against itself.
    fn gf_mul_shift(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let b = b as u16;
        for bit in (0..8).rev() {
            acc <<= 1;
            if acc & 0x100 != 0 {
                acc ^= 0x11b;
            }
            if (a >> bit) & 1 == 1 {
                acc ^= b;
            }
        }
        acc as u8
    }

    #[test]
    fn table_matches_schoolbook_on_all_65536_pairs() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let t = mul(a, b);
                assert_eq!(t, gf_mul_shift(a, b), "table vs shift-reduce at {a}·{b}");
                assert_eq!(
                    t,
                    (Gf256::new(a) * Gf256::new(b)).value(),
                    "table vs log/exp at {a}·{b}"
                );
            }
        }
    }

    #[test]
    fn table_has_field_structure() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a), "commutativity at {a}·{b}");
            }
        }
    }

    #[test]
    fn row_ops_match_bytewise_math() {
        // Lengths straddling the chunk boundaries exercise the vector
        // body, the word XOR, and the remainder tail.
        for len in [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 37, 64, 95] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in [0u8, 1, 2, 0x53, 0xff] {
                let mut dst: Vec<u8> = (0..len).map(|i| (i * 5 + 3) as u8).collect();
                let expect: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| d ^ mul(c, s)).collect();
                mul_row_acc(&mut dst, &src, c);
                assert_eq!(dst, expect, "len={len} c={c:#x}");
            }
        }
    }

    #[test]
    fn xtime8_multiplies_every_lane_by_x() {
        for b in 0..=255u8 {
            let w = u64::from_le_bytes([b, b ^ 0x5a, 0, 1, 0x80, 0x7f, b.wrapping_add(1), 0xff]);
            let got = xtime8(w).to_le_bytes();
            for (lane, &x) in w.to_le_bytes().iter().enumerate() {
                assert_eq!(got[lane], mul(x, 2), "lane {lane} of xtime8({x:#x})");
            }
        }
    }

    /// A row op: `(dst, src, c)`.
    type RowOp = fn(&mut [u8], &[u8], u8);

    /// Every row body this host can run, by name: the portable ladder
    /// always, the nibble body where AVX2 is present, and the dispatcher.
    fn row_bodies() -> Vec<(&'static str, RowOp)> {
        let mut bodies: Vec<(&'static str, RowOp)> =
            vec![("swar", mul_row_acc_swar), ("dispatch", mul_row_acc)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 just detected; every caller below passes
            // equal-length slices.
            bodies.push(("nibble", |d, s, c| unsafe { x86::mul_row_acc_nibble(d, s, c) }));
        }
        bodies
    }

    #[test]
    fn ladder_matches_table_row_op_for_every_constant() {
        // Every length 0..=130 straddles the 32-byte vector, the 64-byte
        // ladder chunk and every tail length; 1,366 is the 4 KiB
        // message's payload at k = 3. Every constant exercises a
        // different nibble table and ladder depth/bit pattern.
        for len in (0..=130).chain([1366]) {
            let src: Vec<u8> = (0..len).map(|i| (i * 73 + 29) as u8).collect();
            let base: Vec<u8> = (0..len).map(|i| (i * 17 + 5) as u8).collect();
            for c in 0..=255u8 {
                let mut table = base.clone();
                mul_row_acc_table(&mut table, &src, c);
                for (name, body) in row_bodies() {
                    let mut got = base.clone();
                    body(&mut got, &src, c);
                    assert_eq!(got, table, "{name} vs table at c={c:#x} len={len}");
                }
            }
        }
    }

    /// A transpose direction: `(from, k, to)`.
    type Transpose = fn(&[u8], usize, &mut [u8]);

    /// The `(split, join)` transpose bodies: the scalar stride loops, and
    /// the dispatchers, which run the `pshufb` steps (finished by the
    /// stride loops) where SSSE3 is present and `k` is in range.
    const TRANSPOSE_BODIES: [(&str, Transpose, Transpose); 2] = [
        (
            "scalar",
            |m, k, p| split_planes_scalar(m, k, p, 0),
            |p, k, o| join_planes_scalar(p, k, o, 0),
        ),
        ("dispatch", split_planes, join_planes),
    ];

    #[test]
    fn transposes_match_the_stride_formula() {
        for k in 1..=17usize {
            for groups in (0..=40).chain([1366]) {
                // Whole groups, and a partial last group when there is one.
                for len in [groups * k, (groups * k).saturating_sub(k / 2)] {
                    let msg: Vec<u8> = (0..len).map(|i| (i * 29 + 7) as u8).collect();
                    // Planes with one spare group: the plane stride is
                    // then never the message's group count.
                    let plane_len = groups + 1;
                    let mut expect = vec![0xa5u8; k * plane_len];
                    for (pos, &b) in msg.iter().enumerate() {
                        expect[(pos % k) * plane_len + pos / k] = b;
                    }
                    for (name, split, join) in TRANSPOSE_BODIES {
                        let mut planes = vec![0xa5u8; k * plane_len];
                        split(&msg, k, &mut planes);
                        assert_eq!(planes, expect, "{name} split k={k} len={len}");
                        let mut out = vec![0x5au8; len];
                        join(&expect, k, &mut out);
                        assert_eq!(out, msg, "{name} join k={k} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn row_ops_reject_length_mismatch() {
        let mut dst = [0u8; 4];
        xor_row_acc(&mut dst, &[0u8; 5]);
    }
}
