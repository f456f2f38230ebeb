//! Segmented (v2) signatures: tamper detection and v1↔v2 equivalence.
//!
//! The property under test: flipping any single byte in any segment,
//! the shipped manifest, the AAD, or the root signature makes
//! `SecureLoader::process` return a validation error — for both the
//! legacy single-digest (v1) and the segmented (v2) schemes — and the
//! two schemes recover byte-identical plaintext from the same image.

use eric::core::{Device, EncryptionConfig, Package, SoftwareSource};
use eric::crypto::sha256::tree;
use eric::hde::loader::{SecureInput, SecureLoader};
use eric::hde::manifest::{SegmentManifest, SignatureBlock};
use eric::hde::policy::FieldPolicy;
use eric::puf::crp::Challenge;
use eric::puf::device::{PufDevice, PufDeviceConfig};
use proptest::prelude::*;

const PROGRAM: &str = r#"
    .data
    table: .zero 200
    .text
    main:
        li  a0, 5
        li  a7, 93
        ecall
"#;

const SEED: u64 = 77;
/// Tiny segments so the small test image spans many leaves.
const SEGMENT_LEN: u32 = 32;

fn build(config: &EncryptionConfig) -> Package {
    let mut device = Device::with_seed(SEED, "seg-test");
    let cred = device.enroll();
    SoftwareSource::new("seg-test")
        .build(PROGRAM, &cred, config)
        .unwrap()
}

/// A standalone HDE with the same silicon seed as the enrolled device.
fn loader(lanes: usize) -> SecureLoader {
    SecureLoader::new(PufDevice::from_seed(SEED, PufDeviceConfig::paper())).with_lanes(lanes)
}

fn process(pkg: &Package, aad: &[u8], lanes: usize) -> Result<Vec<u8>, eric::hde::HdeError> {
    let challenge = Challenge::from_bytes(&pkg.challenge);
    loader(lanes)
        .process(&SecureInput {
            payload: &pkg.payload,
            aad,
            text_len: pkg.text_len as usize,
            map: &pkg.map,
            policy: pkg.policy,
            signature: &pkg.signature,
            cipher: pkg.cipher,
            challenge: &challenge,
            epoch: pkg.epoch,
            nonce: pkg.nonce,
        })
        .map(|loaded| loaded.plaintext)
}

#[test]
fn v1_and_v2_recover_identical_plaintext() {
    let v1 = build(&EncryptionConfig::full().with_legacy_signature());
    let v2 = build(&EncryptionConfig::full().with_segments(SEGMENT_LEN));
    let p1 = process(&v1, &v1.aad(), 1).expect("v1 validates");
    for lanes in [1, 2, 4, 8] {
        let p2 = process(&v2, &v2.aad(), lanes).expect("v2 validates");
        assert_eq!(p1, p2, "{lanes} lanes");
    }
    // And both round-trip the wire format to the same result.
    let v2_wire = Package::from_wire(&v2.to_wire()).expect("v2 reparses");
    assert_eq!(v2, v2_wire);
    assert_eq!(process(&v2_wire, &v2_wire.aad(), 2).unwrap(), p1);
}

#[test]
fn default_config_emits_v2_and_legacy_pin_stays_v1_byte_for_byte() {
    // The default-flip regression: `EncryptionConfig::full()` (and
    // `::default()`) now ship the segmented scheme on the wire…
    let default_pkg = build(&EncryptionConfig::full());
    let wire = default_pkg.to_wire();
    assert_eq!(&wire[..5], b"ERIC2", "default build must be wire v2");
    assert!(default_pkg.signature.is_segmented());
    assert_eq!(EncryptionConfig::default(), EncryptionConfig::full());

    // …while a legacy-pinned build still produces the paper's ERIC1
    // frame, stable under reserialization, parsing to an equal package
    // that loads the identical plaintext. An "old" v1 package is
    // exactly such a frame: nothing on the v1 wire path changed, so
    // byte-for-byte round-tripping here is the compat guarantee.
    let legacy = build(&EncryptionConfig::full().with_legacy_signature());
    let legacy_wire = legacy.to_wire();
    assert_eq!(&legacy_wire[..5], b"ERIC1", "legacy build must be wire v1");
    let reparsed = Package::from_wire(&legacy_wire).expect("v1 frame parses");
    assert_eq!(reparsed, legacy);
    assert_eq!(
        reparsed.to_wire(),
        legacy_wire,
        "v1 wire bytes must be stable under parse → serialize"
    );
    let from_legacy = process(&reparsed, &reparsed.aad(), 1).expect("v1 validates");
    let from_default = process(&default_pkg, &default_pkg.aad(), 2).expect("v2 validates");
    assert_eq!(from_legacy, from_default, "schemes must recover one image");
}

#[test]
fn v2_package_survives_device_install() {
    // The full end-to-end path (wire → HDE → SoC) with multiple lanes.
    let mut device = Device::with_seed(SEED, "seg-test");
    let cred = device.enroll();
    device.set_lanes(4);
    let pkg = SoftwareSource::new("seg-test")
        .build(
            PROGRAM,
            &cred,
            &EncryptionConfig::full().with_segments(SEGMENT_LEN),
        )
        .unwrap();
    let delivered = Package::from_wire(&pkg.to_wire()).unwrap();
    assert_eq!(device.install_and_run(&delivered).unwrap().exit_code, 5);
}

/// `Device::install` caches the HDE's verified leaf table: its
/// fingerprint equals the Merkle root of a one-leaf-at-a-time hash of
/// the plaintext image, for every encryption mode and lane count.
#[test]
fn installed_fingerprint_is_the_reference_merkle_root() {
    let source = SoftwareSource::new("seg-test");
    let image = source.compile(PROGRAM, false).unwrap();
    let plaintext = [image.text.as_slice(), image.data.as_slice()].concat();
    let leaves: Vec<_> = plaintext
        .chunks(SEGMENT_LEN as usize)
        .enumerate()
        .map(|(i, segment)| tree::leaf_digest(i as u64, segment))
        .collect();
    assert!(leaves.len() > 4, "the image must span several segments");
    let reference = tree::merkle_root(&leaves);
    for (mode, config) in [
        ("full", EncryptionConfig::full()),
        ("partial", EncryptionConfig::partial(0.5, 11)),
        (
            "field-level",
            EncryptionConfig::field_level(FieldPolicy::AllButOpcode),
        ),
    ] {
        let pkg = build(&config.with_segments(SEGMENT_LEN));
        for lanes in [1, 2, 4] {
            let mut device = Device::with_seed(SEED, "seg-test");
            device.set_lanes(lanes);
            let installed = device
                .install(&pkg)
                .unwrap_or_else(|e| panic!("{mode} at {lanes} lanes: {e}"));
            assert_eq!(
                installed.segments(),
                leaves.len(),
                "{mode} at {lanes} lanes"
            );
            assert_eq!(
                installed.fingerprint(),
                reference,
                "{mode} at {lanes} lanes"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte corruption of the payload is rejected by both
    /// schemes, at any lane count.
    #[test]
    fn payload_byteflip_rejected_both_schemes(at in 0usize..1000, bit in 0u8..8, lanes in 1usize..5) {
        for config in [
            EncryptionConfig::full().with_legacy_signature(),
            EncryptionConfig::full().with_segments(SEGMENT_LEN),
        ] {
            let mut pkg = build(&config);
            let at = at % pkg.payload.len();
            pkg.payload[at] ^= 1 << bit;
            let aad = pkg.aad();
            prop_assert!(process(&pkg, &aad, lanes).is_err(),
                         "flip at payload byte {at} accepted ({config:?})");
        }
    }

    /// Any single-byte corruption of the AAD is rejected by both
    /// schemes (v1 hashes it into the digest, v2 binds it in the
    /// signed root).
    #[test]
    fn aad_byteflip_rejected_both_schemes(at in 0usize..1000, bit in 0u8..8) {
        for config in [
            EncryptionConfig::full().with_legacy_signature(),
            EncryptionConfig::full().with_segments(SEGMENT_LEN),
        ] {
            let pkg = build(&config);
            let mut aad = pkg.aad();
            let at = at % aad.len();
            aad[at] ^= 1 << bit;
            prop_assert!(process(&pkg, &aad, 2).is_err(),
                         "flip at aad byte {at} accepted ({config:?})");
        }
    }

    /// Any single-byte corruption of the signature material — the v1
    /// digest, the v2 root, or any v2 manifest leaf — is rejected.
    #[test]
    fn signature_material_byteflip_rejected(at in 0usize..4096, bit in 0u8..8) {
        // v1 digest.
        let mut pkg = build(&EncryptionConfig::full().with_legacy_signature());
        if let SignatureBlock::Single { encrypted_digest } = &mut pkg.signature {
            encrypted_digest[at % 32] ^= 1 << bit;
        }
        let aad = pkg.aad();
        prop_assert!(process(&pkg, &aad, 1).is_err(), "v1 digest flip accepted");

        // v2 root + manifest: flip one byte anywhere in the block.
        let mut pkg = build(&EncryptionConfig::full().with_segments(SEGMENT_LEN));
        let SignatureBlock::Segmented { encrypted_root, manifest } = &pkg.signature else {
            panic!("expected v2 block");
        };
        let mut root = *encrypted_root;
        let mut leaves = manifest.leaves().to_vec();
        let span = 32 + 32 * leaves.len();
        let at = at % span;
        if at < 32 {
            root[at] ^= 1 << bit;
        } else {
            leaves[(at - 32) / 32][(at - 32) % 32] ^= 1 << bit;
        }
        pkg.signature = SignatureBlock::Segmented {
            encrypted_root: root,
            manifest: SegmentManifest::new(manifest.segment_len(), leaves),
        };
        let aad = pkg.aad();
        prop_assert!(process(&pkg, &aad, 2).is_err(),
                     "v2 signature-block flip at {at} accepted");
    }

    /// Wire-level single-byte flips of a whole v2 package never
    /// install: either the parser rejects the frame or the HDE rejects
    /// the program.
    #[test]
    fn v2_wire_byteflip_never_installs(at in 0usize..8192, bit in 0u8..8) {
        let mut device = Device::with_seed(SEED, "seg-test");
        let cred = device.enroll();
        let pkg = SoftwareSource::new("seg-test")
            .build(PROGRAM, &cred, &EncryptionConfig::full().with_segments(SEGMENT_LEN))
            .unwrap();
        let mut wire = pkg.to_wire();
        let at = at % wire.len();
        wire[at] ^= 1 << bit;
        match Package::from_wire(&wire) {
            Err(_) => {} // framing rejected
            Ok(forged) => {
                prop_assert!(device.install_and_run(&forged).is_err(),
                             "wire flip at byte {at} installed");
            }
        }
    }
}
