//! The shared encrypt/decrypt transform.
//!
//! ERIC's cipher is a keystream XOR, so encryption and decryption are
//! the same operation. Implementing the map- and policy-aware transform
//! exactly once — used by the compiler side to encrypt and by the HDE
//! Decryption Unit to decrypt — guarantees the two sides agree on which
//! bits the keystream touches.
//!
//! The hot path is *run-based*: [`CoverageMap::covered_runs`] yields
//! contiguous covered byte ranges and each run is XORed with one
//! block-filled keystream slice ([`KeystreamCipher::apply`] /
//! [`KeystreamCipher::fill_keystream`]), instead of a coverage test and
//! a virtual `keystream_byte` call per byte. The old per-byte shape is
//! kept as [`transform_payload_bytewise`] — the correctness oracle the
//! property tests compare against.

use crate::map::CoverageMap;
use crate::policy::FieldPolicy;
use eric_crypto::cipher::{KeystreamCipher, KEYSTREAM_CHUNK};

/// Keystream position where the encrypted signature begins: it is
/// encrypted as a continuation of the payload stream, so its keystream
/// never overlaps the program's.
pub fn signature_stream_offset(payload_len: usize) -> u64 {
    payload_len as u64
}

/// Keystream position where the encrypted segment-manifest leaves
/// begin: a continuation after the 32-byte signature/root, so payload,
/// signature, and manifest each consume disjoint keystream ranges.
pub fn manifest_stream_offset(payload_len: usize) -> u64 {
    signature_stream_offset(payload_len) + 32
}

/// XOR the keystream into the selected bits of `payload` in place.
///
/// * With `policy == None`, every byte inside a map-covered parcel is
///   transformed (instruction-level granularity).
/// * With a [`FieldPolicy`], map-covered parcels *within the text
///   region* (`payload[..text_len]`) are treated as 32-bit instruction
///   words and only the policy's field mask is transformed; covered
///   parcels in the data region are transformed whole.
///
/// # Panics
///
/// Panics if a field policy is used with a `text_len` that is not a
/// multiple of 4 (field-level encryption requires an uncompressed
/// build, which the packager enforces), or with a `text_len` that
/// exceeds `payload.len()` on a misaligned payload. The latter is
/// deliberately *stricter* than [`transform_payload_bytewise`], which
/// silently clamps an out-of-range `text_len`: the packager never
/// produces one and the loader rejects it as malformed, so reaching
/// here with one is a caller bug worth failing loudly on.
pub fn transform_payload(
    payload: &mut [u8],
    map: &CoverageMap,
    policy: Option<FieldPolicy>,
    text_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    transform_region(payload, 0, map, policy, text_len, cipher);
}

/// [`transform_payload`] for a window of a larger payload: `region[0]`
/// sits at absolute payload offset `region_start`, and keystream
/// positions, map parcels, and the text/data split are all interpreted
/// in absolute payload coordinates.
///
/// This is the streaming building block: the secure loader decrypts
/// and hashes a package in bounded chunks by calling this once per
/// chunk, and the result is bit-identical to one whole-payload
/// [`transform_payload`] call.
///
/// # Panics
///
/// With a field policy, panics unless `text_len` is 4-byte aligned and
/// the region boundaries do not split an instruction word:
/// `region_start` must be 4-byte aligned and the region must either end
/// 4-byte aligned or extend to/past the end of the text section.
pub fn transform_region(
    region: &mut [u8],
    region_start: usize,
    map: &CoverageMap,
    policy: Option<FieldPolicy>,
    text_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    let region_end = region_start + region.len();
    match policy {
        None => {
            for (start, len) in map.covered_runs(region_start..region_end) {
                let local = start - region_start;
                cipher.apply(start as u64, &mut region[local..local + len]);
            }
        }
        Some(policy) => {
            assert!(
                text_len.is_multiple_of(4),
                "field-level encryption requires 4-byte-aligned text ({text_len})"
            );
            let text_end = text_len.min(region_end);
            if region_start < text_end {
                // Note the comparison against the *unclamped* text_len:
                // a region ending misaligned is only legal when it
                // reaches the end of the text section.
                assert!(
                    region_start.is_multiple_of(4)
                        && (region_end.is_multiple_of(4) || region_end >= text_len),
                    "field-level region must not split instruction words \
                     ({region_start}..{region_end}, text {text_len})"
                );
                // Text region: instruction words, masked by policy. The
                // word at `w` is transformed iff its first byte is
                // covered (i.e. `w` lies in a covered run) and the word
                // fits entirely inside the text region.
                let words_end = text_end & !3;
                for (run_start, run_len) in map.covered_runs(region_start..words_end) {
                    transform_text_run(region, region_start, run_start, run_len, policy, cipher);
                }
            }
            // Data region: whole-parcel transform.
            let data_start = text_len.max(region_start);
            if data_start < region_end {
                for (start, len) in map.covered_runs(data_start..region_end) {
                    let local = start - region_start;
                    cipher.apply(start as u64, &mut region[local..local + len]);
                }
            }
        }
    }
}

/// Apply a field policy to the instruction words whose first byte lies
/// in the covered run `run_start .. run_start + run_len`, using
/// block-filled keystream scratch (no per-byte cipher calls).
///
/// A word is processed iff its *first* byte is covered (matching the
/// per-byte oracle, which tests `covers_byte` on the word start only);
/// a 2-byte-parcel map can open a run mid-word, and that word is
/// skipped because its start byte is uncovered.
fn transform_text_run(
    region: &mut [u8],
    region_start: usize,
    run_start: usize,
    run_len: usize,
    policy: FieldPolicy,
    cipher: &dyn KeystreamCipher,
) {
    const _: () = assert!(KEYSTREAM_CHUNK.is_multiple_of(4));
    let run_end = run_start + run_len;
    // First word whose start byte is inside the run, and the keystream
    // extent the run's words need (the last word may reach up to 3
    // bytes past run_end — those bytes still belong to the text region
    // because the caller bounds runs by a 4-aligned words_end).
    let first_word = run_start.div_ceil(4) * 4;
    let run_ks_end = run_end.div_ceil(4) * 4;
    let mut ks = [0u8; KEYSTREAM_CHUNK];
    let mut at = first_word;
    while at < run_end {
        let fill_len = (run_ks_end - at).min(KEYSTREAM_CHUNK);
        cipher.fill_keystream(at as u64, &mut ks[..fill_len]);
        let mut w = at;
        while w < run_end && w + 4 <= at + fill_len {
            let local = w - region_start;
            let word = u32::from_le_bytes([
                region[local],
                region[local + 1],
                region[local + 2],
                region[local + 3],
            ]);
            let mask = policy.mask_for_word(word);
            if mask != 0 {
                let mask_bytes = mask.to_le_bytes();
                let ks_off = w - at;
                for i in 0..4 {
                    region[local + i] ^= ks[ks_off + i] & mask_bytes[i];
                }
            }
            w += 4;
        }
        at += fill_len;
    }
}

/// Append `plain` to `out` and keystream-transform the appended bytes
/// in place — the zero-copy packaging entry point.
///
/// The appended region is treated as a whole payload starting at
/// absolute offset 0 (keystream positions, map parcels, and the
/// text/data split are all relative to the append point), so the bytes
/// that land in `out` are bit-identical to cloning `plain` and calling
/// [`transform_payload`] on the clone — without the intermediate
/// payload-sized allocation. Fleet packaging uses this to encrypt a
/// shared plaintext payload directly into each device's wire frame.
///
/// # Panics
///
/// Same contract as [`transform_payload`] for field-level policies.
pub fn transform_payload_into(
    plain: &[u8],
    out: &mut Vec<u8>,
    map: &CoverageMap,
    policy: Option<FieldPolicy>,
    text_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    let start = out.len();
    out.extend_from_slice(plain);
    transform_payload(&mut out[start..], map, policy, text_len, cipher);
}

/// Per-byte reference implementation of [`transform_payload`] — the
/// correctness oracle.
///
/// This is the original one-virtual-call-per-byte shape: a
/// [`CoverageMap::covers_byte`] test and a
/// [`KeystreamCipher::keystream_byte`] call for every payload byte. It
/// is kept (and exported) so property tests and the throughput bench
/// can check that the run-based block path is bit-identical and
/// measure what the redesign bought. Never call it on a hot path.
///
/// Equivalence with [`transform_payload`] holds for all valid inputs
/// (`text_len <= payload.len()`); for an out-of-range `text_len` with
/// a field policy this oracle clamps where the block path panics (see
/// the panics note there).
pub fn transform_payload_bytewise(
    payload: &mut [u8],
    map: &CoverageMap,
    policy: Option<FieldPolicy>,
    text_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    match policy {
        None => {
            for (pos, byte) in payload.iter_mut().enumerate() {
                if map.covers_byte(pos) {
                    *byte ^= cipher.keystream_byte(pos as u64);
                }
            }
        }
        Some(policy) => {
            assert!(
                text_len.is_multiple_of(4),
                "field-level encryption requires 4-byte-aligned text ({text_len})"
            );
            let text_len = text_len.min(payload.len());
            // Text region: instruction words, masked by policy.
            let mut at = 0usize;
            while at + 4 <= text_len {
                if map.covers_byte(at) {
                    let word = u32::from_le_bytes([
                        payload[at],
                        payload[at + 1],
                        payload[at + 2],
                        payload[at + 3],
                    ]);
                    let mask = policy.mask_for_word(word);
                    if mask != 0 {
                        let mask_bytes = mask.to_le_bytes();
                        for i in 0..4 {
                            payload[at + i] ^=
                                cipher.keystream_byte((at + i) as u64) & mask_bytes[i];
                        }
                    }
                }
                at += 4;
            }
            // Data region: whole-parcel transform.
            for (pos, byte) in payload.iter_mut().enumerate().skip(text_len) {
                if map.covers_byte(pos) {
                    *byte ^= cipher.keystream_byte(pos as u64);
                }
            }
        }
    }
}

/// Encrypt/decrypt a 32-byte signature as a continuation of the
/// payload keystream.
pub fn transform_signature(
    signature: &mut [u8; 32],
    payload_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    cipher.apply(signature_stream_offset(payload_len), signature);
}

/// Encrypt/decrypt the segment-manifest leaf digests as a keystream
/// continuation after the signature (see [`manifest_stream_offset`]).
///
/// Leaf `i` occupies keystream positions
/// `manifest_stream_offset(payload_len) + 32·i ..+ 32`, so the
/// manifest never shares keystream with the payload or the signature
/// and each leaf can be (de)crypted independently. Because the leaves
/// form one *contiguous* keystream range, the manifest is transformed
/// as a single flattened [`KeystreamCipher::apply`] rather than one
/// call per leaf — which lets a counter-mode cipher batch the blocks
/// through the multi-buffer hash engine.
pub(crate) fn transform_manifest_leaves(
    leaves: &mut [[u8; 32]],
    payload_len: usize,
    cipher: &dyn KeystreamCipher,
) {
    cipher.apply(
        manifest_stream_offset(payload_len),
        leaves.as_flattened_mut(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ParcelBitmap;
    use eric_crypto::cipher::XorCipher;

    fn cipher() -> XorCipher {
        XorCipher::new(&[0xAA, 0x55, 0x0F, 0xF0, 0x3C])
    }

    #[test]
    fn full_transform_is_involution() {
        let original: Vec<u8> = (0..64).collect();
        let mut buf = original.clone();
        let c = cipher();
        transform_payload(&mut buf, &CoverageMap::Full, None, 64, &c);
        assert_ne!(buf, original);
        transform_payload(&mut buf, &CoverageMap::Full, None, 64, &c);
        assert_eq!(buf, original);
    }

    #[test]
    fn partial_transform_touches_only_marked_parcels() {
        let original: Vec<u8> = (0..16).collect();
        let mut buf = original.clone();
        let mut bm = ParcelBitmap::new(8);
        bm.set(2); // bytes 4..6
        bm.set(3); // bytes 6..8
        let map = CoverageMap::Partial(bm);
        transform_payload(&mut buf, &map, None, 16, &cipher());
        assert_eq!(&buf[..4], &original[..4]);
        assert_ne!(&buf[4..8], &original[4..8]);
        assert_eq!(&buf[8..], &original[8..]);
    }

    #[test]
    fn field_transform_preserves_opcode_and_restores() {
        // Two instruction words: ld a0, 8(a0) and add a0, a0, a1.
        let words = [0x00853503u32, 0x00b50533];
        let mut payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let original = payload.clone();
        let c = cipher();
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::MemoryPointers),
            8,
            &c,
        );
        // The load's immediate changed; the add is untouched.
        assert_ne!(&payload[..4], &original[..4]);
        assert_eq!(&payload[4..], &original[4..]);
        // Opcode bits of the load survive.
        assert_eq!(payload[0] & 0x7F, original[0] & 0x7F);
        // Involution.
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::MemoryPointers),
            8,
            &c,
        );
        assert_eq!(payload, original);
    }

    #[test]
    fn field_transform_encrypts_data_region_fully() {
        let mut payload = vec![0u8; 12]; // 4 bytes "text" (nop-ish) + 8 data
        payload[..4].copy_from_slice(&0x00000013u32.to_le_bytes()); // addi x0,x0,0
        let original = payload.clone();
        let c = cipher();
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::AllButOpcode),
            4,
            &c,
        );
        // Data region bytes 4..12 are fully transformed.
        assert_ne!(&payload[4..], &original[4..]);
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::AllButOpcode),
            4,
            &c,
        );
        assert_eq!(payload, original);
    }

    #[test]
    fn signature_stream_does_not_overlap_payload() {
        // Byte 0 of the signature uses keystream position payload_len.
        let c = cipher();
        let mut sig = [0u8; 32];
        transform_signature(&mut sig, 100, &c);
        let expected: Vec<u8> = (0..32u64).map(|i| c.keystream_byte(100 + i)).collect();
        assert_eq!(&sig[..], &expected[..]);
    }

    #[test]
    fn manifest_leaves_batch_matches_per_leaf_apply() {
        // The batched fill must equal one cipher.apply per leaf at its
        // own continuation offset — including manifests larger than one
        // keystream scratch block (128 leaves).
        use eric_crypto::cipher::ShaCtrCipher;
        let sha = ShaCtrCipher::new(b"manifest key");
        let xor = cipher();
        for cipher in [&xor as &dyn KeystreamCipher, &sha] {
            for count in [0usize, 1, 2, 127, 128, 129, 300] {
                for payload_len in [0usize, 1, 37, 4096] {
                    let make = |seed: u8| -> Vec<[u8; 32]> {
                        (0..count)
                            .map(|i| {
                                let mut leaf = [0u8; 32];
                                for (j, b) in leaf.iter_mut().enumerate() {
                                    *b = (i * 31 + j) as u8 ^ seed;
                                }
                                leaf
                            })
                            .collect()
                    };
                    let mut fast = make(0x5A);
                    let mut slow = fast.clone();
                    transform_manifest_leaves(&mut fast, payload_len, cipher);
                    let base = manifest_stream_offset(payload_len);
                    for (i, leaf) in slow.iter_mut().enumerate() {
                        cipher.apply(base + 32 * i as u64, leaf);
                    }
                    assert_eq!(fast, slow, "count {count} payload_len {payload_len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "4-byte-aligned")]
    fn field_policy_rejects_misaligned_text() {
        let mut payload = vec![0u8; 10];
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::AllButOpcode),
            6,
            &cipher(),
        );
    }

    #[test]
    #[should_panic(expected = "must not split")]
    fn out_of_range_text_len_on_misaligned_payload_panics() {
        // Stricter than the clamping oracle, by design: see the panics
        // note on transform_payload.
        let mut payload = vec![0u8; 10];
        transform_payload(
            &mut payload,
            &CoverageMap::Full,
            Some(FieldPolicy::AllButOpcode),
            12,
            &cipher(),
        );
    }

    #[test]
    #[should_panic(expected = "must not split")]
    fn region_ending_mid_word_inside_text_panics() {
        // A region that stops misaligned *before* the end of the text
        // section would silently skip the straddling instruction word.
        let mut region = vec![0u8; 6];
        transform_region(
            &mut region,
            0,
            &CoverageMap::Full,
            Some(FieldPolicy::AllButOpcode),
            8,
            &cipher(),
        );
    }

    /// Deterministic pseudo-random byte generator for equivalence tests.
    fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    fn random_map(seed: u64, len: usize, granularity: u32) -> CoverageMap {
        let g = granularity as usize;
        let parcels = len.div_ceil(g);
        let mut bm = ParcelBitmap::with_granularity(parcels.max(1), granularity);
        for (p, b) in xorshift_bytes(seed, parcels).iter().enumerate() {
            if b & 1 == 1 {
                bm.set(p);
            }
        }
        CoverageMap::Partial(bm)
    }

    #[test]
    fn transform_into_appends_and_matches_in_place() {
        let c = cipher();
        let len = 1024 + 37;
        let plain = xorshift_bytes(41, len);
        for granularity in [2u32, 4] {
            for map in [CoverageMap::Full, random_map(8, len, granularity)] {
                for (policy, text_len) in [
                    (None, len),
                    (Some(FieldPolicy::MemoryPointers), len / 4 * 4),
                ] {
                    let mut whole = plain.clone();
                    transform_payload(&mut whole, &map, policy, text_len, &c);
                    // Appended after an arbitrary dirty prefix, which
                    // must survive untouched.
                    let prefix = xorshift_bytes(77, 93);
                    let mut out = prefix.clone();
                    transform_payload_into(&plain, &mut out, &map, policy, text_len, &c);
                    assert_eq!(&out[..prefix.len()], &prefix[..]);
                    assert_eq!(&out[prefix.len()..], &whole[..]);
                }
            }
        }
    }

    #[test]
    fn block_transform_matches_bytewise_oracle() {
        let c = cipher();
        for (seed, len) in [
            (1u64, 0usize),
            (2, 1),
            (3, 37),
            (4, 256),
            (5, 1023),
            (6, 8192),
        ] {
            for granularity in [2u32, 4] {
                for map in [CoverageMap::Full, random_map(seed, len, granularity)] {
                    for (policy, text_len) in [
                        (None, len),
                        (Some(FieldPolicy::MemoryPointers), len / 4 * 4),
                        (Some(FieldPolicy::AllButOpcode), (len / 8) * 4),
                    ] {
                        let data = xorshift_bytes(seed ^ 0xABCD, len);
                        let mut fast = data.clone();
                        let mut slow = data;
                        transform_payload(&mut fast, &map, policy, text_len, &c);
                        transform_payload_bytewise(&mut slow, &map, policy, text_len, &c);
                        assert_eq!(
                            fast, slow,
                            "len {len} granularity {granularity} policy {policy:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn region_chunks_compose_to_whole_payload_transform() {
        let c = cipher();
        let len = 4096 + 37;
        let data = xorshift_bytes(99, len);
        for granularity in [2u32, 4] {
            for map in [CoverageMap::Full, random_map(7, len, granularity)] {
                for (policy, text_len) in [
                    (None, 1000),
                    (Some(FieldPolicy::AllButOpcode), 2048),
                    (Some(FieldPolicy::MemoryPointers), len / 4 * 4),
                ] {
                    let mut whole = data.clone();
                    transform_payload(&mut whole, &map, policy, text_len, &c);
                    for chunk in [4usize, 64, 1024, 4096] {
                        let mut streamed = data.clone();
                        let mut at = 0;
                        while at < streamed.len() {
                            let end = (at + chunk).min(streamed.len());
                            transform_region(
                                &mut streamed[at..end],
                                at,
                                &map,
                                policy,
                                text_len,
                                &c,
                            );
                            at = end;
                        }
                        assert_eq!(
                            streamed, whole,
                            "chunk {chunk} granularity {granularity} policy {policy:?}"
                        );
                    }
                }
            }
        }
    }
}
