//! Property-based tests over the core invariants.

use eric::crypto::bignum::BigUint;
use eric::crypto::cipher::{CipherKind, KeystreamCipher, ShaCtrCipher, XorCipher};
use eric::crypto::sha256::{sha256, Sha256};
use eric::hde::map::{CoverageMap, ParcelBitmap};
use eric::hde::transform::{transform_payload, transform_signature};
use eric::isa::decode::decode;
use eric::isa::encode::encode;
use proptest::prelude::*;

proptest! {
    /// Incremental SHA-256 equals one-shot for any chunking.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..600),
                                 cuts in proptest::collection::vec(0usize..600, 0..8)) {
        let want = sha256(&data);
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), want);
    }

    /// Keystream ciphers are involutions at any offset.
    #[test]
    fn cipher_involution(key in proptest::collection::vec(any::<u8>(), 1..40),
                         data in proptest::collection::vec(any::<u8>(), 0..300),
                         offset in 0u64..10_000) {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let cipher = kind.instantiate(&key);
            let mut buf = data.clone();
            cipher.apply(offset, &mut buf);
            cipher.apply(offset, &mut buf);
            prop_assert_eq!(&buf, &data);
        }
    }

    /// Fragment decryption at absolute positions equals whole-buffer
    /// decryption (the property partial encryption rests on).
    #[test]
    fn cipher_positional_consistency(key in proptest::collection::vec(any::<u8>(), 1..16),
                                     data in proptest::collection::vec(any::<u8>(), 2..200),
                                     split in 1usize..199) {
        let split = split % data.len().max(1);
        let xor = XorCipher::new(&key);
        let sha = ShaCtrCipher::new(&key);
        for cipher in [&xor as &dyn KeystreamCipher, &sha] {
            let mut whole = data.clone();
            cipher.apply(0, &mut whole);
            let mut head = data[..split].to_vec();
            let mut tail = data[split..].to_vec();
            cipher.apply(0, &mut head);
            cipher.apply(split as u64, &mut tail);
            head.extend_from_slice(&tail);
            prop_assert_eq!(head, whole);
        }
    }

    /// The map-aware transform is an involution for arbitrary maps, and
    /// never touches unmapped parcels.
    #[test]
    fn transform_involution_and_containment(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        marks in proptest::collection::vec(any::<bool>(), 0..128),
    ) {
        let parcels = data.len().div_ceil(2);
        let mut bitmap = ParcelBitmap::new(parcels);
        for (i, &m) in marks.iter().take(parcels).enumerate() {
            if m {
                bitmap.set(i);
            }
        }
        let map = CoverageMap::Partial(bitmap.clone());
        let cipher = XorCipher::new(&key);
        let mut buf = data.clone();
        transform_payload(&mut buf, &map, None, data.len(), &cipher);
        // Containment: unmarked parcels unchanged.
        for (pos, (a, b)) in data.iter().zip(buf.iter()).enumerate() {
            if !map.covers_byte(pos) {
                prop_assert_eq!(a, b, "unmarked byte {} changed", pos);
            }
        }
        // Involution.
        transform_payload(&mut buf, &map, None, data.len(), &cipher);
        prop_assert_eq!(buf, data);
    }

    /// Multi-buffer lockstep hashing is byte-identical to one scalar
    /// [`Sha256`] per lane, for every dispatch engine available on
    /// this host and every lane width, at any update chunking.
    #[test]
    fn multibuffer_lanes_match_scalar_sha256(data in proptest::collection::vec(any::<u8>(), 0..400),
                                             lanes in 1usize..=8,
                                             cut in 0usize..400) {
        use eric::crypto::sha256::multibuffer::{engines, MultiSha256};
        // Lane l hashes `[l as u8] ‖ data` — distinct, equal-length
        // messages, which is the lockstep invariant.
        let messages: Vec<Vec<u8>> = (0..lanes)
            .map(|l| {
                let mut m = vec![l as u8];
                m.extend_from_slice(&data);
                m
            })
            .collect();
        let split = cut % (messages[0].len() + 1);
        for engine in engines() {
            let mut h = MultiSha256::with_engine(lanes, engine);
            let heads: Vec<&[u8]> = messages.iter().map(|m| &m[..split]).collect();
            let tails: Vec<&[u8]> = messages.iter().map(|m| &m[split..]).collect();
            h.update(&heads);
            h.update(&tails);
            for (lane, digest) in h.finalize().into_iter().enumerate() {
                prop_assert_eq!(digest, sha256(&messages[lane]),
                                "{} lanes={} lane={}", engine.name(), lanes, lane);
            }
        }
    }

    /// The batched SHA-CTR keystream fill is byte-identical to the
    /// per-byte oracle at every offset/length (block-straddling heads
    /// and ragged tails included), on every dispatch engine — and so
    /// is the kept single-block scalar fill.
    #[test]
    fn shactr_fill_matches_oracle_on_every_engine(key in proptest::collection::vec(any::<u8>(), 1..100),
                                                  offset in 0u64..100_000,
                                                  len in 0usize..700) {
        use eric::crypto::sha256::multibuffer::engines;
        let c = ShaCtrCipher::new(&key);
        let want: Vec<u8> = (0..len as u64).map(|i| c.keystream_byte(offset + i)).collect();
        let mut scalar = vec![0u8; len];
        c.fill_keystream_scalar(offset, &mut scalar);
        prop_assert_eq!(&scalar, &want);
        for engine in engines() {
            let mut got = vec![0u8; len];
            c.fill_keystream_with(engine, offset, &mut got);
            prop_assert_eq!(&got, &want, "{} offset={} len={}", engine.name(), offset, len);
        }
        // The trait method must agree with whichever engine is active.
        let mut via_trait = vec![0u8; len];
        c.fill_keystream(offset, &mut via_trait);
        prop_assert_eq!(&via_trait, &want);
    }

    /// Batched hash-tree leaf digests are byte-identical to one scalar
    /// leaf hash per segment, across segment widths (1..=8+ lockstep
    /// lanes per group, ragged tails) and every dispatch engine.
    #[test]
    fn leaf_digest_batch_matches_scalar_on_every_engine(data in proptest::collection::vec(any::<u8>(), 0..3000),
                                                        segment_len in 1usize..200,
                                                        first in 0u64..1_000_000) {
        use eric::crypto::sha256::multibuffer::engines;
        use eric::crypto::sha256::tree;
        let want: Vec<_> = data
            .chunks(segment_len)
            .enumerate()
            .map(|(i, s)| tree::leaf_digest(first + i as u64, s))
            .collect();
        for engine in engines() {
            let got = tree::leaf_digests_batch_with(engine, first, &data, segment_len);
            prop_assert_eq!(&got, &want, "{} segment_len={}", engine.name(), segment_len);
        }
        prop_assert_eq!(&tree::leaf_digests_batch(first, &data, segment_len), &want);
    }

    /// Signature transform is an involution and never overlaps payload
    /// keystream positions.
    #[test]
    fn signature_transform_involution(key in proptest::collection::vec(any::<u8>(), 1..32),
                                      sig in any::<[u8; 32]>(),
                                      payload_len in 0usize..10_000) {
        let cipher = XorCipher::new(&key);
        let mut s = sig;
        transform_signature(&mut s, payload_len, &cipher);
        transform_signature(&mut s, payload_len, &cipher);
        prop_assert_eq!(s, sig);
    }

    /// Every 32-bit word that decodes must re-encode to itself.
    #[test]
    fn decode_encode_roundtrip(w in any::<u32>()) {
        if let Ok(inst) = decode(w) {
            let back = encode(&inst).expect("decoded instructions must encode");
            prop_assert_eq!(back, w, "{}", inst);
        }
    }

    /// Bignum: (a + b) - b == a, and division identity.
    #[test]
    fn bignum_add_sub_div(a in proptest::collection::vec(any::<u8>(), 0..24),
                          b in proptest::collection::vec(any::<u8>(), 1..24)) {
        let a = BigUint::from_bytes_be(&a);
        let b = BigUint::from_bytes_be(&b);
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        if !b.is_zero() {
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    /// Bignum byte roundtrip.
    #[test]
    fn bignum_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, back);
    }

    /// Parcel bitmaps roundtrip through serialization.
    #[test]
    fn bitmap_roundtrip(marks in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut bm = ParcelBitmap::new(marks.len());
        for (i, &m) in marks.iter().enumerate() {
            if m {
                bm.set(i);
            }
        }
        let back = ParcelBitmap::from_bytes(bm.to_bytes(), marks.len());
        prop_assert_eq!(&back, &bm);
        for (i, &m) in marks.iter().enumerate() {
            prop_assert_eq!(back.get(i), m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: random programs of straight-line arithmetic survive
    /// the whole encrypt/decrypt pipeline and compute the same result
    /// as a direct (plain) run.
    #[test]
    fn random_programs_run_identically_encrypted(ops in proptest::collection::vec(0u8..6, 1..40),
                                                 seed in 0u64..1000) {
        use eric::core::{Device, EncryptionConfig, SoftwareSource};
        // Build a random straight-line program over a0.
        let mut src = String::from("main:\n    li a0, 1\n    li t0, 3\n");
        for op in &ops {
            src.push_str(match op {
                0 => "    addi a0, a0, 5\n",
                1 => "    slli a0, a0, 1\n",
                2 => "    xori a0, a0, 0x2A\n",
                3 => "    add  a0, a0, t0\n",
                4 => "    mul  a0, a0, t0\n",
                _ => "    srli a0, a0, 1\n",
            });
        }
        src.push_str("    li t1, 0x7fffffff\n    and a0, a0, t1\n    li a7, 93\n    ecall\n");

        let source = SoftwareSource::new("prop");
        let mut device = Device::with_seed(seed.wrapping_add(7), "prop-dev");
        let cred = device.enroll();
        let image = source.compile(&src, false).unwrap();
        let plain = device.run_plain(&image).unwrap();
        let pkg = source.build(&src, &cred, &EncryptionConfig::full()).unwrap();
        let secure = device.install_and_run(&pkg).unwrap();
        prop_assert_eq!(plain.exit_code, secure.exit_code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch provisioning: a batch of N devices yields N packages, and
    /// every package round-trips through that device's
    /// `SecureLoader::process` to the identical plaintext image.
    #[test]
    fn batch_packages_roundtrip_to_identical_plaintext(n in 1usize..6,
                                                       seed in 0u64..200,
                                                       mode in 0u8..7) {
        use eric::core::{Device, EncryptionConfig, Package, ProvisioningDaemon, SoftwareSource};
        use eric::hde::loader::SecureInput;
        use eric::puf::crp::Challenge;

        const PROGRAM: &str =
            ".data\nbuf: .zero 96\n.text\nmain:\n li a0, 5\n li a7, 93\n ecall\n";
        let config = match mode {
            0 => EncryptionConfig::full(),
            1 => EncryptionConfig::partial(0.5, seed.wrapping_add(1)),
            2 => EncryptionConfig::field_level(eric::hde::FieldPolicy::MemoryPointers),
            // Segmented signatures with a tiny segment so even this
            // small image spans several leaves — combined with every
            // coverage mode, since the lane closure must agree with
            // the sequential transform under partial maps and field
            // policies too.
            3 => EncryptionConfig::full().with_segments(16),
            4 => EncryptionConfig::partial(0.5, seed.wrapping_add(1)).with_segments(16),
            5 => EncryptionConfig::field_level(eric::hde::FieldPolicy::MemoryPointers)
                .with_segments(16),
            // The legacy (v1) pin: `full()` itself is segmented now,
            // so single-digest coverage needs an explicit case.
            _ => EncryptionConfig::full().with_legacy_signature(),
        };

        let mut devices: Vec<Device> = (0..n)
            .map(|i| Device::with_seed(seed * 64 + i as u64, &format!("batch/{i}")))
            .collect();
        let creds: Vec<_> = devices.iter_mut().map(Device::enroll).collect();

        let daemon = ProvisioningDaemon::start(SoftwareSource::new("prop-batch"), 3);
        let image = daemon.source().compile(PROGRAM, config.compress).unwrap();
        let handle = daemon.submit(&image, &config, creds).unwrap();
        let mut outcomes: Vec<_> = handle.iter().collect();
        outcomes.sort_by_key(|o| o.index);
        prop_assert_eq!(outcomes.len(), n);
        let packages: Vec<Package> = outcomes
            .into_iter()
            .map(|o| Package::from_wire(&o.result.unwrap().bytes).unwrap())
            .collect();
        daemon.shutdown();

        let mut expected = image.text.clone();
        expected.extend_from_slice(&image.data);
        for (device, pkg) in devices.iter_mut().zip(&packages) {
            let aad = pkg.aad();
            let challenge = Challenge::from_bytes(&pkg.challenge);
            let input = SecureInput {
                payload: &pkg.payload,
                aad: &aad,
                text_len: pkg.text_len as usize,
                map: &pkg.map,
                policy: pkg.policy,
                signature: &pkg.signature,
                cipher: pkg.cipher,
                challenge: &challenge,
                epoch: pkg.epoch,
                nonce: pkg.nonce,
            };
            let loaded = device.loader().process(&input).unwrap();
            prop_assert_eq!(&loaded.plaintext, &expected,
                            "device {} did not recover the image", device.id());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `li` must load *any* 64-bit constant exactly (the multi-step
    /// lui/addiw/slli/addi expansion is easy to get subtly wrong).
    #[test]
    fn li_loads_every_constant_exactly(value in any::<i64>()) {
        use eric_asm::{assemble, AsmOptions};
        use eric_sim::soc::{Soc, SocConfig};
        let src = format!("main:\n li a5, {value}\n li a0, 0\n li a7, 93\n ecall\n");
        let image = assemble(&src, &AsmOptions::default()).unwrap();
        let mut soc = Soc::new(SocConfig::default());
        soc.load_image(&image).unwrap();
        soc.run(1000).unwrap();
        prop_assert_eq!(soc.cpu().reg(15) as i64, value);
    }

    /// The same constants must also load exactly in compressed builds.
    #[test]
    fn li_loads_exactly_when_compressed(value in any::<i64>()) {
        use eric_asm::{assemble, AsmOptions};
        use eric_sim::soc::{Soc, SocConfig};
        let src = format!("main:\n li a5, {value}\n li a0, 0\n li a7, 93\n ecall\n");
        let image = assemble(&src, &AsmOptions::compressed()).unwrap();
        let mut soc = Soc::new(SocConfig::default());
        soc.load_image(&image).unwrap();
        soc.run(1000).unwrap();
        prop_assert_eq!(soc.cpu().reg(15) as i64, value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `serialize_into` a reused, dirty, arbitrarily-sized buffer is
    /// byte-identical to `to_wire` (the allocating oracle) across
    /// ERIC1/ERIC2 × full/partial/field-level coverage.
    #[test]
    fn serialize_into_dirty_buffer_matches_oracle(mode in 0u8..7,
                                                  seed in 0u64..200,
                                                  dirt in proptest::collection::vec(any::<u8>(), 0..2048)) {
        use eric::core::{Device, EncryptionConfig, SoftwareSource};

        const PROGRAM: &str =
            ".data\nbuf: .zero 96\n.text\nmain:\n li a0, 5\n li a7, 93\n ecall\n";
        let config = match mode {
            0 => EncryptionConfig::full(),
            1 => EncryptionConfig::partial(0.5, seed.wrapping_add(1)),
            2 => EncryptionConfig::field_level(eric::hde::FieldPolicy::MemoryPointers),
            3 => EncryptionConfig::full().with_segments(16),
            4 => EncryptionConfig::partial(0.5, seed.wrapping_add(1)).with_segments(16),
            5 => EncryptionConfig::field_level(eric::hde::FieldPolicy::MemoryPointers)
                .with_segments(16),
            _ => EncryptionConfig::full().with_legacy_signature(),
        };
        let mut device = Device::with_seed(seed.wrapping_add(31), "wire-dev");
        let cred = device.enroll();
        let source = SoftwareSource::new("prop-wire");
        let pkg = source.build(PROGRAM, &cred, &config).unwrap();

        let oracle = pkg.to_wire();
        // Over-sized, under-sized, and empty reused buffers all end up
        // byte-identical: stale bytes never leak into the frame.
        let mut buf = dirt;
        pkg.serialize_into(&mut buf);
        prop_assert_eq!(&buf, &oracle, "dirty reuse diverged from to_wire");
        // Immediate reuse of the now-right-sized buffer stays exact.
        pkg.serialize_into(&mut buf);
        prop_assert_eq!(&buf, &oracle, "warm reuse diverged from to_wire");
    }
}

/// Cache-hit and cache-miss packaging are indistinguishable to the
/// device: frames built from a fresh preparation and from the cached
/// one decrypt to the identical plaintext through
/// `SecureLoader::process`.
#[test]
fn cache_hit_and_miss_packaging_yield_identical_plaintext() {
    use eric::core::{Device, EncryptionConfig, Package, PreparedImageCache, SoftwareSource};
    use eric::hde::loader::SecureInput;
    use eric::puf::crp::Challenge;
    use std::sync::Arc;

    const PROGRAM: &str = ".data\nbuf: .zero 200\n.text\nmain:\n li a0, 5\n li a7, 93\n ecall\n";
    let mut device = Device::with_seed(6_000, "cache-dev");
    let cred = device.enroll();
    let source = SoftwareSource::new("prop-cache");
    let config = EncryptionConfig::full();
    let image = source.compile(PROGRAM, config.compress).unwrap();
    let cache = PreparedImageCache::new(4);

    let miss = cache.get_or_prepare(&source, &image, &config).unwrap();
    assert!(!miss.hit);
    let hit = cache.get_or_prepare(&source, &image, &config).unwrap();
    assert!(hit.hit, "second lookup must skip prepare_image");
    assert!(Arc::ptr_eq(&miss.prepared, &hit.prepared));

    let mut expected = image.text.clone();
    expected.extend_from_slice(&image.data);
    let mut frame = Vec::new();
    let plaintext_of = |frame: &[u8]| {
        let pkg = Package::from_wire(frame).unwrap();
        let aad = pkg.aad();
        let challenge = Challenge::from_bytes(&pkg.challenge);
        let input = SecureInput {
            payload: &pkg.payload,
            aad: &aad,
            text_len: pkg.text_len as usize,
            map: &pkg.map,
            policy: pkg.policy,
            signature: &pkg.signature,
            cipher: pkg.cipher,
            challenge: &challenge,
            epoch: pkg.epoch,
            nonce: pkg.nonce,
        };
        device.loader().process(&input).unwrap().plaintext
    };
    source
        .package_prepared_into(&miss.prepared, &cred, &mut frame)
        .unwrap();
    let from_miss = plaintext_of(&frame);
    source
        .package_prepared_into(&hit.prepared, &cred, &mut frame)
        .unwrap();
    let from_hit = plaintext_of(&frame);

    assert_eq!(from_miss, expected, "miss-path frame corrupted the image");
    assert_eq!(from_hit, expected, "hit-path frame corrupted the image");
}
