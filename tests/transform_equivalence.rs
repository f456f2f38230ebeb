//! Property tests pinning the block/run-based transform pipeline to the
//! per-byte reference implementation.
//!
//! The hot path (`transform_payload` / `transform_region` over
//! `CoverageMap::covered_runs` + `fill_keystream`) must be bit-identical
//! to the slow oracle (`transform_payload_bytewise`, one `covers_byte`
//! test and one virtual `keystream_byte` call per byte) for *every*
//! payload, map, field policy, and cipher — and encrypt ∘ decrypt must
//! be the identity, since both sides share the one implementation.

use eric::crypto::cipher::CipherKind;
use eric::hde::map::{CoverageMap, ParcelBitmap};
use eric::hde::transform::{transform_payload, transform_payload_bytewise, transform_region};
use eric::hde::FieldPolicy;
use proptest::prelude::*;

/// Build a coverage map from mark bits at the given parcel granularity.
fn build_map(marks: &[bool], len: usize, granularity: u32, full: bool) -> CoverageMap {
    if full {
        return CoverageMap::Full;
    }
    let parcels = len.div_ceil(granularity as usize).max(1);
    let mut bm = ParcelBitmap::with_granularity(parcels, granularity);
    for p in 0..parcels {
        if *marks.get(p % marks.len().max(1)).unwrap_or(&false) {
            bm.set(p);
        }
    }
    CoverageMap::Partial(bm)
}

fn policy_of(selector: u8) -> Option<FieldPolicy> {
    match selector % 3 {
        0 => None,
        1 => Some(FieldPolicy::MemoryPointers),
        _ => Some(FieldPolicy::AllButOpcode),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block/run-based transform == per-byte reference, for random
    /// payloads, maps (both granularities and Full), field policies,
    /// and both bundled ciphers.
    #[test]
    fn block_transform_equals_bytewise_reference(
        key in proptest::collection::vec(any::<u8>(), 1..40),
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        marks in proptest::collection::vec(any::<bool>(), 1..256),
        granularity_sel in any::<bool>(),
        full in any::<bool>(),
        policy_sel in any::<u8>(),
        text_words in 0usize..500,
    ) {
        let granularity = if granularity_sel { 2 } else { 4 };
        let map = build_map(&marks, data.len(), granularity, full);
        let policy = policy_of(policy_sel);
        let text_len = (text_words * 4).min(data.len() / 4 * 4);
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let cipher = kind.instantiate(&key);
            let mut fast = data.clone();
            let mut slow = data.clone();
            transform_payload(&mut fast, &map, policy, text_len, cipher.as_ref());
            transform_payload_bytewise(&mut slow, &map, policy, text_len, cipher.as_ref());
            prop_assert_eq!(&fast, &slow, "cipher {} policy {:?}", kind, policy);
        }
    }

    /// Encrypt ∘ decrypt is the identity through the block path.
    #[test]
    fn encrypt_then_decrypt_is_identity(
        key in proptest::collection::vec(any::<u8>(), 1..40),
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        marks in proptest::collection::vec(any::<bool>(), 1..256),
        granularity_sel in any::<bool>(),
        full in any::<bool>(),
        policy_sel in any::<u8>(),
        text_words in 0usize..500,
    ) {
        let granularity = if granularity_sel { 2 } else { 4 };
        let map = build_map(&marks, data.len(), granularity, full);
        let policy = policy_of(policy_sel);
        let text_len = (text_words * 4).min(data.len() / 4 * 4);
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let cipher = kind.instantiate(&key);
            let mut buf = data.clone();
            transform_payload(&mut buf, &map, policy, text_len, cipher.as_ref());
            transform_payload(&mut buf, &map, policy, text_len, cipher.as_ref());
            prop_assert_eq!(&buf, &data, "cipher {} policy {:?}", kind, policy);
        }
    }

    /// Streaming region chunks (any 4-aligned chunk size) compose to
    /// exactly the whole-payload transform — the secure loader's
    /// decrypt pipeline depends on this.
    #[test]
    fn chunked_regions_equal_whole_transform(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        marks in proptest::collection::vec(any::<bool>(), 1..128),
        granularity_sel in any::<bool>(),
        full in any::<bool>(),
        policy_sel in any::<u8>(),
        text_words in 0usize..300,
        chunk_words in 1usize..300,
    ) {
        let granularity = if granularity_sel { 2 } else { 4 };
        let map = build_map(&marks, data.len(), granularity, full);
        let policy = policy_of(policy_sel);
        let text_len = (text_words * 4).min(data.len() / 4 * 4);
        let chunk = chunk_words * 4;
        let cipher = CipherKind::Xor.instantiate(&key);

        let mut whole = data.clone();
        transform_payload(&mut whole, &map, policy, text_len, cipher.as_ref());

        let mut streamed = data.clone();
        let mut at = 0usize;
        while at < streamed.len() {
            let end = (at + chunk).min(streamed.len());
            transform_region(&mut streamed[at..end], at, &map, policy, text_len, cipher.as_ref());
            at = end;
        }
        prop_assert_eq!(&streamed, &whole, "chunk {} policy {:?}", chunk, policy);
    }

    /// fill_keystream agrees with the keystream_byte oracle at random
    /// offsets and lengths for every cipher.
    #[test]
    fn fill_keystream_matches_oracle(
        key in proptest::collection::vec(any::<u8>(), 1..48),
        offset in 0u64..100_000,
        len in 0usize..600,
    ) {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let cipher = kind.instantiate(&key);
            let mut fast = vec![0u8; len];
            cipher.fill_keystream(offset, &mut fast);
            let slow: Vec<u8> =
                (0..len as u64).map(|i| cipher.keystream_byte(offset + i)).collect();
            prop_assert_eq!(&fast, &slow, "cipher {} offset {}", kind, offset);
        }
    }
}
