//! SHA-256 (FIPS 180-4).
//!
//! Every whole 64-byte block goes through [`compress_blocks`]. On an
//! x86_64 CPU that reports the SHA extensions it runs a kernel built on
//! the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions; everywhere
//! else it runs the portable `compress`, which is also that kernel's
//! test oracle. [`backend`] names the one in use. Both produce the same
//! digests bit for bit, so nothing stored or signed depends on the CPU.

/// Digest size in bytes.
pub const SHA256_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`: tops up a partly filled block first, hands every
    /// run of whole blocks to [`compress_blocks`] in place, and buffers
    /// the tail.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() / 64 * 64);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finalises and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; SHA256_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // One padding write: 0x80, zeros to the next 56-mod-64 byte
        // boundary, then the 64-bit message length. Spans two blocks
        // when fewer than 8 length bytes fit in the current one.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            64 - self.buf_len
        } else {
            128 - self.buf_len
        };
        pad[pad_len - 8..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len]);
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; SHA256_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which kernel [`compress_blocks`] runs on this CPU: `"sha-ni"` or
/// `"portable"`.
pub fn backend() -> &'static str {
    if sha_ni::available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`.
/// [`Sha256::update`] hands every block it absorbs to this one entry
/// point.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
#[allow(unsafe_code)]
pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    assert!(
        rest.is_empty(),
        "compress_blocks takes whole 64-byte blocks"
    );
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `sha_ni::compress` enables the sha, sse2, ssse3 and
        // sse4.1 target features. sse2 is part of the x86_64 baseline,
        // and `available` has just detected the other three on this CPU.
        unsafe { sha_ni::compress(state, blocks) };
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// The portable compression function for one block (FIPS 180-4
/// §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod sha_ni {
    pub(super) fn available() -> bool {
        false
    }
}

/// The SHA-NI kernel. `sha256rnds2` keeps the working variables as two
/// vectors, {A, B, E, F} and {C, D, G, H} with A and C in the top lane,
/// and runs two rounds per instruction; `sha256msg1`/`sha256msg2`
/// expand the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress`] enables beyond
    /// the x86_64 baseline. std caches the CPUID answer, so this is a
    /// load and a bit test after the first call.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses each of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// Calling this from code compiled without these target features
    /// is `unsafe`: the caller must first confirm them with
    /// [`available`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // w[j % 4] holds schedule words 4j..4j+4, word 4j in lane 0.
            let mut w = [
                message(block, 0),
                message(block, 1),
                message(block, 2),
                message(block, 3),
            ];
            for j in 0..16 {
                if j >= 4 {
                    w[j % 4] = schedule(w[j % 4], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                }
                let k = &K[4 * j..4 * j + 4];
                let wk = _mm_add_epi32(
                    w[j % 4],
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                // Rounds 4j and 4j+1 read lanes 0-1 of `wk`, rounds
                // 4j+2 and 4j+3 lanes 2-3. Two rounds turn the old
                // {A, B, E, F} into the new {C, D, G, H}, so each call
                // writes its result over the half that just went stale.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }

    /// Big-endian message words 4j..4j+4 of `block`, word 4j in lane 0.
    #[target_feature(enable = "sse2")]
    fn message(block: &[u8; 64], j: usize) -> __m128i {
        let word = |i: usize| {
            let at = 16 * j + 4 * i;
            i32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        _mm_set_epi32(word(3), word(2), word(1), word(0))
    }

    /// Schedule words t..t+4 from words t-16..t: `sha256msg1` adds
    /// σ0(W[t-15]) to W[t-16], the `alignr` supplies W[t-7], and
    /// `sha256msg2` adds σ1(W[t-2]).
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; SHA256_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, XorShift64};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 through the portable `compress` alone, padding written
    /// out in full: the oracle the dispatched path must match whichever
    /// kernel this CPU selects.
    fn portable_sha256(data: &[u8]) -> [u8; SHA256_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        for block in msg.as_chunks::<64>().0 {
            compress(&mut state, block);
        }
        let mut out = [0u8; SHA256_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        XorShift64::seed_from_u64(0x5EED).fill_bytes(&mut data);
        data
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn block_boundary_lengths() {
        // Byte i is `i % 251`; expected digests from coreutils
        // `sha256sum` over the same bytes.
        #[rustfmt::skip]
        let cases = [
            (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
            (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"),
            (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"),
            (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f"),
            (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"),
            (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"),
            (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"),
            (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"),
            (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"),
            (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976"),
            (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"),
            (129, "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135"),
            (1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d"),
        ];
        for (len, expect) in cases {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(hex(&sha256(&data)), expect, "length {len}");
            assert_eq!(
                hex(&portable_sha256(&data)),
                expect,
                "portable, length {len}"
            );
        }
    }

    #[test]
    fn dispatched_path_matches_portable_compress_at_every_length() {
        let data = seeded_bytes(1024);
        for len in 0..=data.len() {
            assert_eq!(
                sha256(&data[..len]),
                portable_sha256(&data[..len]),
                "length {len} on the {} backend",
                backend()
            );
        }
    }

    #[test]
    fn dispatched_path_matches_portable_compress_at_every_split() {
        // Two `update` calls cover the buffered-then-bulk path that
        // `leaf_hash`'s one-byte prefix puts every payload through.
        let data = seeded_bytes(300);
        let expect = portable_sha256(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(
                h.finalize(),
                expect,
                "split {split} on the {} backend",
                backend()
            );
        }
    }

    #[test]
    fn compress_blocks_matches_portable_compress_per_block() {
        let data = seeded_bytes(64 * 40);
        let mut bulk = Sha256::new().state;
        compress_blocks(&mut bulk, &data);
        let mut one_by_one = Sha256::new().state;
        for block in data.as_chunks::<64>().0 {
            compress(&mut one_by_one, block);
        }
        assert_eq!(bulk, one_by_one);
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn compress_blocks_rejects_a_partial_block() {
        compress_blocks(&mut Sha256::new().state, &[0u8; 65]);
    }
}
