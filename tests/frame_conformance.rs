//! Frame conformance: the buffered and the streaming device entry
//! points agree on every single-bit flip and every truncation of an
//! `ERIC2` frame.
//!
//! Both paths read a frame through the one frame parser
//! (`eric_hde::wire`) and check it with the one segment verifier
//! (`eric_hde::verify`). For each of a full, a partial and a
//! field-level frame with 32-byte segments, every mutated frame must
//! satisfy:
//!
//! * (a) `Package::from_wire` → `SecureLoader::process` and
//!   `StreamingLoader::process` agree on accept vs reject;
//! * (b) only the untouched frame is accepted;
//! * (c) wherever `Package::from_wire` accepts the frame, both paths
//!   return the same `HdeError` variant and the same segment index.
//!
//! A partial-map `ERIC2D` delta frame gets the same sweep: every
//! mutated frame must be refused by `DeltaPackage::from_wire` or
//! `Device::apply_delta`, with the installed base untouched.

use eric::core::{DeltaPackage, Device, EncryptionConfig, Frame, Package, SoftwareSource};
use eric::hde::loader::{SecureInput, SecureLoader};
use eric::hde::policy::FieldPolicy;
use eric::hde::streaming::StreamingLoader;
use eric::hde::HdeError;
use eric::puf::crp::Challenge;
use eric::puf::device::{PufDevice, PufDeviceConfig};
use std::mem::discriminant;

const PROGRAM: &str = r#"
    .data
    table: .zero 100
    .text
    main:
        li  a0, 8
        li  a7, 93
        ecall
"#;

const SEED: u64 = 15;
/// Tiny segments so each frame spans several leaves.
const SEGMENT_LEN: u32 = 32;

/// Base and target of the delta case (the `tests/ota_delta.rs`
/// programs): the target's 180-byte payload spans six segments, two of
/// which change.
const DELTA_BASE: &str = r#"
    .data
    table: .zero 160
    .text
    main:
        li  a0, 21
        li  a7, 93
        ecall
"#;

const DELTA_NEXT: &str = r#"
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

/// One wire frame per encryption mode, built for the device `SEED`.
/// The 112-byte payload spans four segments and, in partial mode, 28
/// four-byte parcels: the map's last byte has unused bits, and the
/// parcel count can grow to 29 or 30 without adding a map byte.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut device = Device::with_seed(SEED, "conformance");
    let cred = device.enroll();
    let source = SoftwareSource::new("conformance");
    [
        ("full", EncryptionConfig::full()),
        ("partial", EncryptionConfig::partial(0.5, 11)),
        (
            "field-level",
            EncryptionConfig::field_level(FieldPolicy::AllButOpcode),
        ),
    ]
    .into_iter()
    .map(|(mode, config)| {
        let package = source
            .build(PROGRAM, &cred, &config.with_segments(SEGMENT_LEN))
            .unwrap();
        (mode, package.to_wire())
    })
    .collect()
}

/// The buffered path: `None` when the parser refuses the frame.
fn buffered(loader: &SecureLoader, wire: &[u8]) -> Option<Result<Vec<u8>, HdeError>> {
    let pkg = Package::from_wire(wire).ok()?;
    let challenge = Challenge::from_bytes(&pkg.challenge);
    let result = loader.process(&SecureInput {
        payload: &pkg.payload,
        aad: &pkg.aad(),
        text_len: pkg.text_len as usize,
        map: &pkg.map,
        policy: pkg.policy,
        signature: &pkg.signature,
        cipher: pkg.cipher,
        challenge: &challenge,
        epoch: pkg.epoch,
        nonce: pkg.nonce,
    });
    Some(result.map(|loaded| loaded.plaintext))
}

fn same_verdict(a: &HdeError, b: &HdeError) -> bool {
    match (a, b) {
        (HdeError::SegmentMismatch { segment: x }, HdeError::SegmentMismatch { segment: y }) => {
            x == y
        }
        _ => discriminant(a) == discriminant(b),
    }
}

/// Checks (a)–(c) for one candidate frame; returns a description of
/// every property it breaks.
fn violations(loader: &SecureLoader, wire: &[u8], untouched: bool) -> Vec<String> {
    let buffered = buffered(loader, wire);
    let streamed = StreamingLoader::new(loader)
        .process(wire)
        .map(|loaded| loaded.plaintext);
    let buffered_accepts = matches!(buffered, Some(Ok(_)));
    let mut out = Vec::new();
    if buffered_accepts != streamed.is_ok() {
        out.push(format!(
            "(a) buffered {buffered:?} vs streamed {streamed:?}"
        ));
    }
    if (buffered_accepts || streamed.is_ok()) != untouched {
        out.push(format!("(b) buffered {buffered:?}, streamed {streamed:?}"));
    }
    match (&buffered, &streamed) {
        (Some(Err(b)), Err(s)) if !same_verdict(b, s) => {
            out.push(format!("(c) buffered {b:?} vs streamed {s:?}"));
        }
        (Some(Ok(b)), Ok(s)) if b != s => out.push("(c) plaintexts differ".into()),
        _ => {}
    }
    out
}

#[test]
fn buffered_and_streaming_agree_on_every_bit_flip_and_truncation() {
    let loader = SecureLoader::new(PufDevice::from_seed(SEED, PufDeviceConfig::paper()));
    let mut failures = Vec::new();
    for (mode, wire) in frames() {
        let package = Package::from_wire(&wire).unwrap();
        assert_eq!(package.payload.len(), 112, "{mode}");
        for v in violations(&loader, &wire, true) {
            failures.push(format!("{mode} untouched: {v}"));
        }
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[byte] ^= 1 << bit;
                for v in violations(&loader, &flipped, false) {
                    failures.push(format!("{mode} flip byte {byte} bit {bit}: {v}"));
                }
            }
        }
        for keep in 0..wire.len() {
            for v in violations(&loader, &wire[..keep], false) {
                failures.push(format!("{mode} cut to {keep} bytes: {v}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} violations, first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(12)]
    );
}

/// A partial map covers the segments a delta does not ship too, so
/// those map bits are checked only through the AAD that the signed
/// root binds. Every bit flip and every truncation of a partial-map
/// `ERIC2D` frame must be refused at parse or at `apply_delta`, and
/// the installed base must stay as it was.
#[test]
fn partial_map_delta_rejects_every_bit_flip_and_truncation() {
    let mut device = Device::with_seed(SEED, "conformance");
    let cred = device.enroll();
    let source = SoftwareSource::new("conformance");
    let config = EncryptionConfig::partial(0.5, 11).with_segments(SEGMENT_LEN);
    let prepare = |program| {
        let image = source.compile(program, config.compress).unwrap();
        source.prepare_image(&image, &config).unwrap()
    };
    let (base, next) = (prepare(DELTA_BASE), prepare(DELTA_NEXT));
    let installed = device
        .install(&source.package_prepared(&base, &cred).unwrap().0)
        .unwrap();
    let delta = source.prepare_delta(&base, &next).unwrap();
    assert_eq!((delta.changed_segments(), delta.total_segments()), (2, 6));
    let wire = source.package_delta(&delta, &cred).unwrap().to_wire();
    let apply = |wire: &[u8]| {
        DeltaPackage::from_wire(wire).and_then(|d| device.apply_delta(&installed, &d))
    };
    apply(&wire).expect("the untouched delta applies");

    let base_fingerprint = installed.fingerprint();
    let mut accepted = Vec::new();
    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut flipped = wire.clone();
            flipped[byte] ^= 1 << bit;
            if apply(&flipped).is_ok() {
                accepted.push(format!("flip byte {byte} bit {bit}"));
            }
            assert_eq!(installed.fingerprint(), base_fingerprint);
        }
    }
    for keep in 0..wire.len() {
        if apply(&wire[..keep]).is_ok() {
            accepted.push(format!("cut to {keep} bytes"));
        }
    }
    assert!(
        accepted.is_empty(),
        "{} mutated frames accepted, first: {:#?}",
        accepted.len(),
        &accepted[..accepted.len().min(12)]
    );
}
