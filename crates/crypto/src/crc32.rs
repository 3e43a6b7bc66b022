//! CRC-32 (IEEE 802.3 polynomial, reflected): the journal's frame and
//! header checksum.
//!
//! [`crc32`] runs an input of 64 bytes or more through a carry-less
//! multiply kernel when the CPU reports PCLMULQDQ and SSE4.1: four
//! 128-bit lanes fold 64 bytes per step, the lanes fold into one, then
//! 16 bytes per step, and a Barrett reduction takes the remainder to 32
//! bits (Gopal et al., "Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ Instruction", Intel 2009). Shorter inputs, the bytes
//! after the last whole 16-byte block, and every input on a CPU without
//! those features go through slicing-by-8, which [`portable`] runs on
//! its own as the kernel's test oracle. [`backend`] names the kernel in
//! use. Both give the same checksum bit for bit, so no stored frame
//! depends on the CPU.

/// The reflected polynomial: bit `31 - i` holds the coefficient of
/// `x^i`, `x^32` implied.
const POLY: u32 = 0xEDB8_8320;

/// Inputs shorter than this go through slicing-by-8 even where the
/// kernel runs: it loads four 16-byte lanes before its first fold.
const FOLD_MIN: usize = 64;

/// `TABLES[0]` is the classic byte table, and `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight tables fold
/// eight input bytes per step where one folds one.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 of `bytes`, on the kernel [`backend`] names.
#[allow(unsafe_code)]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && pclmul::available() {
        // SAFETY: `pclmul::fold` enables the pclmulqdq, sse2 and sse4.1
        // target features. sse2 is part of the x86_64 baseline, and
        // `available` has just detected pclmulqdq and sse4.1 on this
        // CPU. The kernel reads `bytes` only through checked slices of
        // whole 16-byte blocks (`as_chunks`), which the length check
        // above makes at least four, and hands the rest to `sliced`.
        return !unsafe { pclmul::fold(!0, bytes) };
    }
    portable(bytes)
}

/// The CRC-32 of `bytes` by slicing-by-8 alone, whatever the CPU: the
/// oracle the dispatched [`crc32`] must match.
pub fn portable(bytes: &[u8]) -> u32 {
    !sliced(!0, bytes)
}

/// Which kernel [`crc32`] runs on this CPU for inputs of 64 bytes or
/// more: `"pclmul"` or `"portable"`.
pub fn backend() -> &'static str {
    if pclmul::available() {
        "pclmul"
    } else {
        "portable"
    }
}

/// Advances the CRC register `crc` (not inverted) over `bytes`, eight
/// bytes per step.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for c in words {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(not(target_arch = "x86_64"))]
mod pclmul {
    pub(super) fn available() -> bool {
        false
    }
}

/// The folding kernel. Each 128-bit lane holds 16 input bytes in
/// reflected order, byte 0 in the low bits. Folding a lane forward by
/// `n` bits multiplies its two 64-bit halves by `x^(n+32) mod P` and
/// `x^(n-32) mod P` (each shifted into the reflected domain) and XORs
/// both products into the lane `n` bits later, which keeps the
/// remainder mod P unchanged.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Folding constants for 512 bits (four lanes at once):
    /// `x^(512+32) mod P` and `x^(512-32) mod P`, reflected and shifted.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Folding constants for 128 bits (one lane into the next).
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`, for the 96-to-64-bit step.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// P itself and the Barrett constant `floor(x^64 / P)`, both
    /// reflected over 33 bits.
    pub(super) const P: i64 = 0x1_DB71_0641;
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU has every feature [`fold`] enables beyond the
    /// x86_64 baseline. std caches the CPUID answer, so this is a load
    /// and a bit test after the first call.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// Advances the CRC register `crc` (not inverted) over `bytes`.
    ///
    /// # Safety
    ///
    /// Calling this from code compiled without these target features
    /// is `unsafe`: the caller must first confirm them with
    /// [`available`].
    ///
    /// # Panics
    ///
    /// If `bytes` is shorter than 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_first_chunk::<4>().expect("64 bytes or more");
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let by4 = _mm_set_epi64x(K2, K1);
        let (groups, rest) = rest.as_chunks::<4>();
        for group in groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = step(*lane, load(block), by4);
            }
        }

        let by1 = _mm_set_epi64x(K4, K3);
        let mut x = step(lanes[0], lanes[1], by1);
        x = step(x, lanes[2], by1);
        x = step(x, lanes[3], by1);
        for block in rest {
            x = step(x, load(block), by1);
        }

        // 128 bits to 64: the low half times x^(128-32) into the high
        // half, then the low 32 bits times x^64 into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett: T1 = (R mod x^32) * mu, T2 = (T1 mod x^32) * P, and
        // the reflected remainder is the upper 32 bits of R ^ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::sliced(crc, tail)
    }

    /// Folds `lane` forward over `next` by the distance `k` encodes:
    /// its low half times `k`'s low constant, its high half times the
    /// high one, both XORed into `next`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn step(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// One 16-byte block as a lane, byte 0 in the low bits.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let half = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
        _mm_set_epi64x(half(hi), half(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, XorShift64};

    /// The one-table, byte-at-a-time CRC-32 slicing-by-8 must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut data = vec![0u8; len];
        XorShift64::seed_from_u64(seed).fill_bytes(&mut data);
        data
    }

    #[test]
    fn known_vectors() {
        // "123456789" is the classic check value; the rest are zlib's
        // `crc32` over the same bytes, byte i of the patterned inputs
        // being `i % 251`.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        #[rustfmt::skip]
        let cases = [
            (63, 0xDBDE_A683), (64, 0x100E_CE8C), (65, 0x40C0_6FD8),
            (127, 0xDEC4_81AA), (128, 0x2465_0D57), (1000, 0x7217_46A6),
            (1 << 20, 0xEF0E_6054),
        ];
        for (len, expect) in cases {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(crc32(&data), expect, "length {len} on {}", backend());
            assert_eq!(portable(&data), expect, "portable, length {len}");
        }
        assert_eq!(crc32(&[0u8; 4096]), portable(&[0u8; 4096]));
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = seeded_bytes(4096 + 8, 0x2545_F491_4F6C_DD1D);
        for start in 0..8 {
            for len in 0..=4096 {
                let data = &buf[start..start + len];
                assert_eq!(portable(data), bytewise(data), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn dispatched_matches_portable_at_every_length_and_misalignment() {
        // Every split of a length into four lanes, whole 16-byte groups,
        // single blocks and a sliced tail, each from a start that is not
        // 16-byte aligned.
        let buf = seeded_bytes(1024 + 16, 0x5EED);
        for start in [0, 1, 3, 7, 8, 13, 15] {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    portable(data),
                    "start={start} len={len} on {}",
                    backend()
                );
            }
        }
    }

    #[test]
    fn dispatched_matches_portable_over_random_mebibytes() {
        let mut rng = XorShift64::seed_from_u64(0xC4C32);
        for seed in 0..4 {
            let len = (1 << 20) - (rng.next_u64() % 64) as usize;
            let data = seeded_bytes(len, seed);
            assert_eq!(crc32(&data), portable(&data), "len={len} on {}", backend());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_follow_from_the_polynomial() {
        // `x^n mod P` in normal bit order (`x^31` the top bit).
        fn x_pow_mod(n: u32) -> u64 {
            let p = 0x1_04C1_1DB7u64;
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= p;
                }
            }
            r
        }
        // Into the reflected domain the kernel multiplies in.
        let k = |n: u32| ((x_pow_mod(n) << 32).reverse_bits() << 1) as i64;
        assert_eq!(pclmul::K1, k(512 + 32));
        assert_eq!(pclmul::K2, k(512 - 32));
        assert_eq!(pclmul::K3, k(128 + 32));
        assert_eq!(pclmul::K4, k(128 - 32));
        assert_eq!(pclmul::K5, k(64));
        // floor(x^64 / P) by long division, and P, over 33 bits.
        let (p, mut rem, mut mu) = (0x1_04C1_1DB7u128, 1u128 << 64, 0u128);
        for shift in (0..=32).rev() {
            if rem & (1 << (32 + shift)) != 0 {
                rem ^= p << shift;
                mu |= 1 << shift;
            }
        }
        let reflect33 = |v: u128| ((v as u64).reverse_bits() >> 31) as i64;
        assert_eq!(pclmul::MU, reflect33(mu));
        assert_eq!(pclmul::P, reflect33(p));
    }
}
