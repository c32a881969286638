//! A minimal SHA-256 (FIPS 180-4), vendored std-only because the build
//! environment has no crates.io access.
//!
//! The payload cache substitutes resident bytes for a bare digest
//! reference, so the digest must be *collision-resistant*: with a
//! non-cryptographic hash (the original FNV-1a design) two distinct
//! same-length payloads with equal digests are trivially constructible,
//! and the manager would silently write the wrong bytes into a buffer.
//! Truncating SHA-256 to 128 bits keeps both the adversarial and the
//! birthday-bound accidental collision probability negligible at any
//! realistic fleet scale.
//!
//! # Two compression kernels, one digest
//!
//! Every inline write is hashed twice — once by the client to decide
//! whether a 16-byte reference can replace the payload, once by the
//! manager's event loop, from the bytes that actually arrived, so that a
//! claimed digest can never poison the shared store — which makes the
//! compression function the cost of the cache. The portable
//! [`compress_scalar`] runs at ≈ 0.25 GB/s; on x86-64 hosts whose CPUID
//! reports the SHA extensions, [`compress_sha_ni`] computes the same
//! function with `sha256rnds2`/`sha256msg1`/`sha256msg2` at ≈ 1.5 GB/s
//! (the latency bound of the serial `sha256rnds2` chain). [`compress`] picks per call from what the CPU reports
//! (`is_x86_feature_detected!`, which std caches in an atomic: no lock, no
//! option, no build flag), and the digest *value* is identical either
//! way, so nothing keyed by it — wire frames, trackers, cache entries,
//! archived counters — can tell the kernels apart.
//!
//! The scalar kernel stays: it is the only path on every other platform
//! and on x86-64 CPUs without the extension, and it is the reference the
//! hardware kernel is tested against (the differential test below calls
//! both functions directly).
//!
//! # Safety
//!
//! This file holds the workspace's only `unsafe` block: the call from
//! [`compress_hardware`] into the `#[target_feature]` function. Executing
//! SHA/SSSE3/SSE4.1 instructions on a CPU without them is undefined
//! behaviour, and that is the *only* obligation — the kernel takes its
//! input as typed `&[[u8; 64]]` blocks, loads message words with
//! `from_le_bytes` (no pointer casts, no alignment requirement) and uses
//! only value intrinsics, which are safe inside a function that enables
//! their features. The obligation is met by the
//! `is_x86_feature_detected!` guard that opens the calling function.

/// Round constants: fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash state: fractional parts of the square roots of the first
/// 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// The portable kernel: FIPS 180-4 §6.2.2 over each 64-byte block in
/// turn. The only kernel off x86-64 (or without the SHA extensions), and
/// the reference [`compress_sha_ni`] is tested against.
fn compress_scalar(h: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        // The first 16 schedule words are the block itself, big-endian.
        for (slot, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *slot = chunk.iter().fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
        }
        for i in 16..64 {
            // bf-flow: allow(hot_panic): `i` ranges over 16..64 inside the
            // fixed 64-entry schedule — every index is in range by construction
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            // bf-flow: allow(hot_panic): same fixed-schedule bound as above
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            // bf-flow: allow(hot_panic): same fixed-schedule bound as above
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            // bf-flow: allow(hot_panic): `i < 64` indexes the 64-entry round
            // constant table and schedule — in range by construction
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// The hardware kernel: the same compression function on the x86 SHA
/// extensions, over the whole run of blocks in one call so the state
/// stays in two registers from the first block to the last.
///
/// `sha256rnds2` does two rounds on a state split as `ABEF`/`CDGH` (high
/// lane first) and takes `K[t] + W[t]` for those rounds in the low two
/// lanes of its third operand; `sha256msg1`/`msg2` compute four schedule
/// words from the previous sixteen, held as a ring of four vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    // Lane values are bit patterns: every `as` below reinterprets (or, for
    // the two halves of a 128-bit load, selects) bits between the signed
    // lanes the intrinsics are typed with and the unsigned words SHA-256
    // is defined on.
    let [a, b, c, d, e, f, g, hh] = h.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, hh);
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let (round_keys, _) = K.as_chunks::<4>();

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quads, _) = block.as_chunks::<16>();
        let mut ring = [_mm_set_epi64x(0, 0); 4];
        for (slot, quad) in ring.iter_mut().zip(quads) {
            // Sixteen bytes in memory order — one unaligned 128-bit load
            // once compiled — then each word swapped to big-endian.
            let raw = u128::from_le_bytes(*quad);
            let raw = _mm_set_epi64x((raw >> 64) as i64, raw as i64);
            *slot = _mm_shuffle_epi8(raw, byte_swap);
        }
        for (group, &[k0, k1, k2, k3]) in round_keys.iter().enumerate() {
            // Rounds 4·group .. 4·group+3. The first sixteen words are the
            // block; each later four come from the ring, oldest first.
            let [w0, w1, w2, w3] = ring;
            let words: __m128i = if group < 4 {
                w0
            } else {
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                _mm_sha256msg2_epu32(partial, w3)
            };
            ring = [w1, w2, w3, words];
            let keyed = _mm_add_epi32(
                words,
                _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, keyed);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(keyed, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *h = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|lane| lane as u32);
}

/// Whether this CPU has everything [`compress_sha_ni`] enables. std
/// caches the CPUID probe in an atomic, so asking per call is a load.
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The name of the kernel [`compress`] runs on this host.
pub(crate) fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        return "sha-ni";
    }
    "scalar"
}

/// Folds `blocks` into `h` with [`compress_sha_ni`] when this CPU has the
/// extensions; returns `false`, having done nothing, when it does not.
/// The one place the workspace leaves safe Rust.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_hardware(h: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !has_sha_ni() {
        return false;
    }
    // SAFETY: `compress_sha_ni` is safe code whose one requirement is that
    // the CPU implements the `sha`, `sse2`, `ssse3` and `sse4.1` features
    // it enables; control only reaches this line when the `has_sha_ni()`
    // guard opening this function confirmed all four from CPUID.
    unsafe { compress_sha_ni(h, blocks) };
    true
}

/// No hardware kernel off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn compress_hardware(_h: &mut [u32; 8], _blocks: &[[u8; 64]]) -> bool {
    false
}

/// Folds `blocks` into `h` with the fastest kernel this CPU supports.
fn compress(h: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if !compress_hardware(h, blocks) {
        compress_scalar(h, blocks);
    }
}

/// SHA-256 of `data`.
pub(crate) fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(compress, data)
}

/// SHA-256 of `data` over a given compression kernel: the whole blocks of
/// `data` go to the kernel in place, as one run; only the padded tail is
/// assembled in a stack buffer.
fn sha256_with(kernel: impl Fn(&mut [u32; 8], &[[u8; 64]]), data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let (blocks, rem) = data.as_chunks::<64>();
    kernel(&mut h, blocks);
    // Padding (§5.1.1): 0x80, zeros, then the 64-bit big-endian message
    // bit length; spills into a second block when fewer than 9 bytes of
    // the last one remain. Written iterator-style: the remainder is
    // shorter than a block by construction, so nothing can go out of
    // range — and nothing here can panic the hot path.
    let mut tail = [[0u8; 64]; 2];
    for (dst, &src) in tail.as_flattened_mut().iter_mut().zip(rem) {
        *dst = src;
    }
    if let Some(slot) = tail.as_flattened_mut().get_mut(rem.len()) {
        *slot = 0x80;
    }
    let tail_blocks = if rem.len() + 1 + 8 > 64 { 2 } else { 1 };
    let len_bits = ((data.len() as u64).wrapping_mul(8)).to_be_bytes();
    for (dst, &src) in tail
        .as_flattened_mut()
        .iter_mut()
        .skip(tail_blocks * 64 - 8)
        .zip(&len_bits)
    {
        *dst = src;
    }
    for block in tail.iter().take(tail_blocks) {
        kernel(&mut h, std::slice::from_ref(block));
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The hardware kernel as a plain function, through the same checked
    /// entry production uses — or `None`, said out loud, on a CPU without
    /// the extension, so a skipped comparison never reads as a pass.
    fn sha_ni() -> Option<Kernel> {
        if kernel_name() != "sha-ni" {
            println!("skipped: no sha extension");
            return None;
        }
        Some(|h, blocks| assert!(compress_hardware(h, blocks)))
    }

    /// Every kernel this host can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels = vec![("scalar", compress_scalar as Kernel)];
        kernels.extend(sha_ni().map(|kernel| ("sha-ni", kernel)));
        kernels
    }

    fn hex(d: [u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Deterministic filler: a multiplicative hash of the byte's index,
    /// so failures reproduce.
    fn seeded(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    /// Every vector against every kernel this host can run, by name.
    fn assert_vectors(vectors: &[(&[u8], &str)]) {
        for (name, kernel) in kernels() {
            for &(message, digest) in vectors {
                let len = message.len();
                assert_eq!(
                    hex(sha256_with(kernel, message)),
                    digest,
                    "{name}, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        assert_vectors(&[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            // 56 bytes: the padding spills into a second block.
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // FIPS 180-4's long message: 15 625 blocks in one kernel call.
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]);
    }

    #[test]
    fn block_boundary_lengths() {
        assert_vectors(&[
            // One full block of zeros (the well-known Merkle zero hash).
            (
                &[0u8; 64],
                "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
            ),
            // 63 / 64 / 65 bytes of 'a': every padding split around the
            // block boundary.
            (
                &[b'a'; 63],
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                &[b'a'; 64],
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                &[b'a'; 65],
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
        ]);
    }

    #[test]
    fn sha_ni_matches_scalar_on_every_length_and_on_bulk() {
        let Some(sha_ni) = sha_ni() else { return };
        // Every tail length across four blocks: each padding split, with
        // zero to four whole blocks ahead of it.
        let small = seeded(11, 257);
        for len in 0..=small.len() {
            let message = &small[..len];
            assert_eq!(
                sha256_with(sha_ni, message),
                sha256_with(compress_scalar, message),
                "{len} bytes"
            );
        }
        // The payload sizes the cache actually sees, and an odd one.
        for (seed, len) in [(12, 64 << 10), (13, (1 << 20) + 63)] {
            let message = seeded(seed, len);
            assert_eq!(
                sha256_with(sha_ni, &message),
                sha256_with(compress_scalar, &message),
                "{len} bytes"
            );
        }
    }
}
