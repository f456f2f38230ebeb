//! Delta OTA integrity: every single-byte corruption of an `ERIC2D`
//! frame is rejected with a precise error, and the wire layout is
//! pinned against a golden file.
//!
//! The fail-closed property under test: a device holding an installed
//! base image and receiving a tampered delta must end up in exactly
//! one of two states — the untouched base, or the fully verified new
//! image. No flip anywhere in the frame (header, index table, shipped
//! leaves, root, or segment payload) may yield a partially-patched
//! accepted image.
//!
//! Regenerate the layout golden after an intentional wire change with:
//! `ERIC_UPDATE_GOLDENS=1 cargo test --test ota_delta`.

use eric::core::{
    Device, EncryptionConfig, EricError, InstalledImage, PreparedImage, SoftwareSource,
};
use eric::crypto::sha256::sha256;

const BASE: &str = r#"
    .data
    table: .zero 160
    .text
    main:
        li  a0, 21
        li  a7, 93
        ecall
"#;

const NEXT: &str = r#"
    .data
    table: .zero 160
    .text
    main:
        li  a0, 3
        li  a1, 7
        mul a0, a0, a1
        li  a7, 93
        ecall
"#;

const SEED: u64 = 400;
const SEGMENT_LEN: u32 = 32;
const GOLDEN_PATH: &str = "tests/golden/delta_wire.tsv";

fn prepared(source: &SoftwareSource, program: &str) -> PreparedImage {
    let cfg = EncryptionConfig::full().with_segments(SEGMENT_LEN);
    let image = source.compile(program, false).unwrap();
    source.prepare_image(&image, &cfg).unwrap()
}

/// Device with an installed base image, plus the delta wire frame
/// taking it to `NEXT`.
fn setup() -> (Device, InstalledImage, Vec<u8>) {
    let mut device = Device::with_seed(SEED, "ota-node");
    let cred = device.enroll();
    let source = SoftwareSource::new("ota-vendor");
    let base = prepared(&source, BASE);
    let next = prepared(&source, NEXT);
    let full = source.package_prepared(&base, &cred).unwrap().0;
    let installed = device.install(&full).unwrap();
    let delta = source
        .package_delta(&source.prepare_delta(&base, &next).unwrap(), &cred)
        .unwrap();
    (device, installed, delta.to_wire())
}

fn try_apply(
    device: &Device,
    installed: &InstalledImage,
    wire: &[u8],
) -> Result<InstalledImage, EricError> {
    let delta = eric::core::DeltaPackage::from_wire(wire)?;
    device.apply_delta(installed, &delta)
}

/// Exhaustive single-bit-flip sweep over the entire delta frame:
/// every flip must be rejected at parse or at apply, and a rejected
/// apply must leave the installed base untouched.
#[test]
fn every_single_bit_flip_in_a_delta_frame_is_rejected() {
    let (device, installed, wire) = setup();
    let clean = try_apply(&device, &installed, &wire).expect("clean delta applies");
    let base_fingerprint = installed.fingerprint();
    let mut undetected = Vec::new();
    for byte in 0..wire.len() {
        for bit in 0..8u8 {
            let mut tampered = wire.clone();
            tampered[byte] ^= 1 << bit;
            if let Ok(patched) = try_apply(&device, &installed, &tampered) {
                // Accepting is only conceivable if the flip round-trips
                // to the identical image — it cannot: every wire byte
                // is live.
                if patched.fingerprint() != clean.fingerprint() {
                    undetected.push((byte, bit, "partially patched"));
                } else {
                    undetected.push((byte, bit, "accepted"));
                }
            }
            // The base is borrowed immutably by apply; its fingerprint
            // cannot drift no matter what the tampered frame did.
            assert_eq!(installed.fingerprint(), base_fingerprint);
        }
    }
    assert!(
        undetected.is_empty(),
        "undetected delta tampering at (byte, bit): {undetected:?}"
    );
}

/// Representative flips in each wire region produce the *precise*
/// error for that region — diagnosis, not just rejection.
#[test]
fn region_flips_report_precise_errors() {
    let (device, installed, wire) = setup();
    let delta = eric::core::DeltaPackage::from_wire(&wire).unwrap();
    let fixed = 70; // ERIC2D fixed header
    let challenge_len = delta.challenge.len();
    let indices_at = fixed + challenge_len + 32;
    let aad_len = delta.aad().len();
    let segments_len: usize = delta.segments.len();
    let leaves_at = wire.len() - segments_len - 32 * delta.changed.len();

    // Magic: a structural parse error naming the magic.
    let mut t = wire.clone();
    t[0] ^= 1;
    match try_apply(&device, &installed, &t) {
        Err(EricError::Package(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("magic flip: {other:?}"),
    }

    // Epoch field (offset 8..16): rejected as a wrong-epoch crypto
    // error, the retry loop's fatal-at-source signal.
    let mut t = wire.clone();
    t[8] ^= 1;
    match try_apply(&device, &installed, &t) {
        Err(EricError::Rejected(eric::hde::HdeError::WrongEpoch { .. })) => {}
        Err(EricError::Package(_)) => {} // parser-level refusal also precise
        other => panic!("epoch flip: {other:?}"),
    }

    // Segment index table (inside the AAD): either an index-table
    // parse error or a failed base/root gate — never an accept.
    let mut t = wire.clone();
    t[indices_at] ^= 1;
    assert!(
        try_apply(&device, &installed, &t).is_err(),
        "index flip accepted"
    );

    // Shipped leaf: the reconstructed table no longer folds to the
    // signed root.
    let mut t = wire.clone();
    t[leaves_at] ^= 1;
    match try_apply(&device, &installed, &t) {
        Err(EricError::Rejected(eric::hde::HdeError::SignatureMismatch { .. })) => {}
        other => panic!("leaf flip: {other:?}"),
    }

    // Encrypted root (directly before the leaves).
    let mut t = wire.clone();
    t[leaves_at - 32] ^= 1;
    match try_apply(&device, &installed, &t) {
        Err(EricError::Rejected(eric::hde::HdeError::SignatureMismatch { .. })) => {}
        other => panic!("root flip: {other:?}"),
    }

    // Segment payload: the recomputed leaf misses the authenticated
    // manifest, naming the segment.
    let mut t = wire.clone();
    let seg_byte = wire.len() - 1;
    t[seg_byte] ^= 1;
    match try_apply(&device, &installed, &t) {
        Err(EricError::Rejected(eric::hde::HdeError::SegmentMismatch { .. })) => {}
        other => panic!("segment flip: {other:?}"),
    }

    // Sanity: the regions we aimed at are where we think they are.
    assert!(indices_at < aad_len && aad_len <= leaves_at - 32);
}

/// Pin the `ERIC2D` wire layout: section offsets, header fields, and
/// the frame digest. Catches accidental wire-format drift; regenerate
/// with `ERIC_UPDATE_GOLDENS=1` when the change is intentional.
#[test]
fn delta_wire_layout_matches_pinned_golden() {
    let (_, _, wire) = setup();
    let delta = eric::core::DeltaPackage::from_wire(&wire).unwrap();
    let aad_len = delta.aad().len();
    let fixed = 70usize;
    let challenge_len = delta.challenge.len();
    let indices_at = fixed + challenge_len + 32;
    let leaves_at = wire.len() - delta.segments.len() - 32 * delta.changed.len();
    // The map block closes the AAD, right after the index table.
    let map_len = aad_len - (indices_at + 4 * delta.changed.len());
    let changed: Vec<String> = delta.changed.iter().map(u32::to_string).collect();
    let digest = sha256(&wire)
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<String>();
    let actual = format!(
        "# field\tvalue\n\
         magic\tERIC2D\n\
         fixed_header_len\t{fixed}\n\
         cipher_id\t{}\n\
         epoch\t{}\n\
         nonce\t{}\n\
         text_len\t{}\n\
         payload_len\t{}\n\
         base_payload_len\t{}\n\
         segment_len\t{}\n\
         changed_count\t{}\n\
         changed_indices\t{}\n\
         challenge_len\t{challenge_len}\n\
         base_digest_offset\t{}\n\
         index_table_offset\t{indices_at}\n\
         aad_len\t{aad_len}\n\
         map_len\t{map_len}\n\
         root_offset\t{}\n\
         leaf_table_offset\t{leaves_at}\n\
         segments_offset\t{}\n\
         wire_len\t{}\n\
         frame_sha256\t{digest}\n",
        delta.cipher.wire_id(),
        delta.epoch,
        delta.nonce,
        delta.text_len,
        delta.payload_len,
        delta.base_payload_len,
        delta.segment_len,
        delta.changed.len(),
        changed.join(","),
        fixed + challenge_len,
        leaves_at - 32,
        wire.len() - delta.segments.len(),
        wire.len(),
    );
    if std::env::var_os("ERIC_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with ERIC_UPDATE_GOLDENS=1");
    assert_eq!(
        actual, golden,
        "ERIC2D wire layout drifted from {GOLDEN_PATH}; if intentional, \
         regenerate with ERIC_UPDATE_GOLDENS=1"
    );
}
