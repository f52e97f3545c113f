//! In-repo hashing: SHA-256 and FNV-1a.
//!
//! The hash-based allocation baseline of the paper assigns an account to
//! `SHA256(address) mod k` (Chainspace). To stay faithful to that
//! specification without pulling a cryptography dependency, this module
//! contains a complete FIPS 180-4 SHA-256 implementation, validated
//! against the standard test vectors.
//!
//! # Two kernels, one dispatcher
//!
//! The round function is one 64-byte block folded into the eight-word
//! state, and it exists twice:
//!
//! * `compress_block_scalar` — portable Rust, written straight from the
//!   standard. It runs on every target and is the **oracle**: the tests
//!   hold the other kernel to it block by block.
//! * `compress_block_ni` — x86-64 only, the SHA extensions
//!   (`sha256rnds2` / `sha256msg1` / `sha256msg2`): about five times
//!   faster on the one-block messages the hash rule ϕ feeds it.
//!
//! `compress_block` is the only place that chooses: it asks the CPU at
//! run time (`is_x86_feature_detected!`, a cached load per call) and
//! falls back to the scalar kernel. Detection is at run time and not a
//! cargo feature or a flag because one binary must produce the same
//! digests — and so the same shards, block hashes and CSV bytes — on
//! whatever machine runs it; a build-time switch would be an option that
//! nobody can set correctly for a host they have not seen, and it would
//! double the configurations the tests must cover.
//!
//! [`sha256_prefix_u64`] — what [`hash_shard`] and β-sampling
//! call — takes a one-block path for messages of at most 55 bytes: pad
//! on the stack, one `compress_block` from the initial state, read the
//! first two state words. No [`Sha256`], no 32-byte digest.
//!
//! The module also provides a tiny FNV-1a [`std::hash::Hasher`] and the
//! [`FnvHashMap`]/[`FnvHashSet`] aliases used for the hot interior maps of
//! the simulator (account → shard, account → counterparty counts). FNV is a
//! good fit because all keys are small integers.
//!
//! [`hash_shard`]: crate::hash_shard

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Initial hash values for SHA-256 (first 32 bits of the fractional parts of
/// the square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants for SHA-256 (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
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

/// A round function: folds one 64-byte block into the eight-word state.
type Kernel = fn(&mut [u32; 8], &[u8; 64]);

/// The dispatcher: the SHA-NI kernel where the CPU has it, the scalar
/// kernel everywhere else.
#[inline]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    match detect_ni() {
        Some(ni) => ni(state, block),
        None => compress_block_scalar(state, block),
    }
}

/// The portable kernel, straight from FIPS 180-4 §6.2.2 — and the oracle
/// the SHA-NI kernel is tested against.
fn compress_block_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
        let ch = (e & f) ^ (!e & g);
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

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The SHA-NI kernel behind its run-time check: `Some` only on a CPU
/// that reports every feature the kernel is compiled with.
#[cfg(target_arch = "x86_64")]
#[inline]
fn detect_ni() -> Option<Kernel> {
    fn checked(state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: `checked` is nameable only inside `detect_ni`, which hands
        // it out only after `is_x86_feature_detected!` confirmed `sha`,
        // `sse2`, `ssse3` and `sse4.1` — exactly the features
        // `compress_block_ni` is compiled with.
        unsafe { compress_block_ni(state, block) }
    }
    (is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    .then_some(checked as Kernel)
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn detect_ni() -> Option<Kernel> {
    None
}

/// The hardware kernel: `sha256rnds2` runs two rounds per instruction on
/// the state held as the two vectors `ABEF` / `CDGH`, and `sha256msg1` /
/// `sha256msg2` extend the message schedule four words at a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_block_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Every load and store below is unaligned (`loadu` / `storeu`) and
    // stays inside a fixed-size array: 2 × 16 bytes of `state`, 4 × 16 of
    // `block`, 16 × 16 of `K`.

    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

    // [a, b, c, d] / [e, f, g, h] (lane 0 first) -> ABEF / CDGH.
    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state_ptr), 0xB1);
    let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state_ptr.add(1)), 0x1B);
    let abef_in = _mm_alignr_epi8(cdab, efgh, 8);
    let cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);

    // The last four quads of the message schedule, oldest first.
    let block_ptr = block.as_ptr().cast::<__m128i>();
    let mut w = [
        _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), be_words),
        _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), be_words),
        _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), be_words),
        _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), be_words),
    ];
    for quad in 0..16 {
        let words = if quad < 4 {
            w[quad]
        } else {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at once.
            let partial = _mm_add_epi32(
                _mm_sha256msg1_epu32(w[0], w[1]),
                _mm_alignr_epi8(w[3], w[2], 4),
            );
            let next = _mm_sha256msg2_epu32(partial, w[3]);
            w = [w[1], w[2], w[3], next];
            next
        };
        let wk = _mm_add_epi32(words, _mm_loadu_si128(K.as_ptr().add(4 * quad).cast()));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    // ABEF / CDGH -> [a, b, c, d] / [e, f, g, h].
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
}

/// Incremental SHA-256 state.
///
/// # Example
///
/// ```
/// use mosaic_types::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), mosaic_types::hash::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
    /// The round function: the dispatcher, or one named kernel in tests.
    compress: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(compress_block)
    }

    fn with_kernel(compress: Kernel) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
            compress,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                (self.compress)(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk::<64>() {
            (self.compress)(&mut self.state, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding in place: 0x80, zeros, then the 64-bit big-endian bit
        // length in the last 8 bytes of a block — the next block when
        // fewer than 8 bytes remain in this one.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            (self.compress)(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&(self.length * 8).to_be_bytes());
        (self.compress)(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// use mosaic_types::hash::sha256;
/// let digest = sha256(b"");
/// assert_eq!(digest[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(compress_block, data)
}

fn sha256_with(compress: Kernel, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_kernel(compress);
    h.update(data);
    h.finalize()
}

/// Interprets the first 8 bytes of a SHA-256 digest as a big-endian `u64`.
///
/// This is the quantity the Chainspace-style baseline reduces modulo the
/// shard count.
///
/// A message of at most 55 bytes pads to a single block, so it costs one
/// compression from the initial state and nothing else — no [`Sha256`],
/// no digest bytes.
pub fn sha256_prefix_u64(data: &[u8]) -> u64 {
    prefix_u64_with(compress_block, data)
}

#[inline]
fn prefix_u64_with(compress: Kernel, data: &[u8]) -> u64 {
    if data.len() > 55 {
        let digest = sha256_with(compress, data);
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&digest[..8]);
        return u64::from_be_bytes(prefix);
    }
    let mut block = [0u8; 64];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    u64::from(state[0]) << 32 | u64::from(state[1])
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hasher for small-integer keys.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `HashMap` keyed with FNV-1a — used on hot paths where keys are ids.
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
/// `HashSet` keyed with FNV-1a.
pub type FnvHashSet<T> = HashSet<T, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel this CPU can run, by name — never the dispatcher, so
    /// the scalar kernel is exercised on a SHA-NI host too.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let scalar = ("compress_block_scalar", compress_block_scalar as Kernel);
        let ni = detect_ni().map(|ni| ("compress_block_ni", ni));
        std::iter::once(scalar).chain(ni).collect()
    }

    /// The four FIPS 180-4 vectors below go through the dispatcher; here
    /// they go through each kernel by name.
    #[test]
    fn fips_vectors_hold_on_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        // `--nocapture` shows which kernels this machine exercised.
        if detect_ni().is_none() {
            println!("sha-ni not detected, skipped");
        }
        for (name, kernel) in kernels() {
            println!("sha256 kernel under test: {name}");
            for (message, digest) in vectors {
                assert_eq!(hex(&sha256_with(kernel, message)), digest, "{name}");
            }
        }
    }

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_vector() {
        // FIPS 180-4 test vector for a 56-byte message (forces two blocks
        // after padding).
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let expected = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn prefix_u64_matches_digest_prefix() {
        let digest = sha256(b"mosaic");
        let prefix = sha256_prefix_u64(b"mosaic");
        assert_eq!(&prefix.to_be_bytes()[..], &digest[..8]);
    }

    proptest! {
        /// Any block from any state: every kernel lands where the scalar
        /// oracle does.
        #[test]
        fn prop_kernels_agree_on_random_blocks(
            words in proptest::collection::vec(any::<u32>(), 8),
            bytes in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = words.try_into().unwrap();
            let block: [u8; 64] = bytes.try_into().unwrap();
            let mut expected = state;
            compress_block_scalar(&mut expected, &block);
            for (name, kernel) in kernels() {
                let mut got = state;
                kernel(&mut got, &block);
                prop_assert_eq!(got, expected, "{}", name);
            }
        }

        /// Messages around every padding edge (55/56, 63/64, 119/120):
        /// the digest is the scalar oracle's on every kernel, and the
        /// one-block prefix path is the digest's first 8 bytes.
        #[test]
        fn prop_kernels_agree_on_random_messages(
            message in proptest::collection::vec(any::<u8>(), 0..201),
        ) {
            let expected = sha256_with(compress_block_scalar, &message);
            for (name, kernel) in kernels() {
                prop_assert_eq!(sha256_with(kernel, &message), expected, "{}", name);
                prop_assert_eq!(
                    &prefix_u64_with(kernel, &message).to_be_bytes()[..],
                    &expected[..8],
                    "{} prefix of {} bytes",
                    name,
                    message.len()
                );
            }
        }
    }

    /// The one-block path's edge: 55 bytes is the longest message that
    /// pads to one block, 56 the shortest that needs two.
    #[test]
    fn prefix_one_block_edge() {
        for len in [0usize, 1, 20, 54, 55, 56, 57, 64] {
            let message = vec![0xa5u8; len];
            for (name, kernel) in kernels() {
                assert_eq!(
                    prefix_u64_with(kernel, &message).to_be_bytes(),
                    sha256_with(compress_block_scalar, &message)[..8],
                    "{name} at {len} bytes"
                );
            }
        }
    }

    #[test]
    fn fnv_known_values() {
        // Reference values for FNV-1a 64.
        let mut h = FnvHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_map_works() {
        let mut m: FnvHashMap<u64, u64> = FnvHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&1998));
    }
}
