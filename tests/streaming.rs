//! Adversarial stream-conformance: [`SecureLoader::process_stream`] vs
//! the buffered [`SecureLoader::process`] oracle.
//!
//! The streaming front end must be *byte-identical* to the buffered
//! loader on every accepted frame — same plaintext, same text split —
//! across every encryption mode and regardless of how the transport
//! fragments the byte stream. Chunk sizes are chosen adversarially:
//! one byte at a time, a prime stride, segment-length ± 1 (so segment
//! reads straddle chunk boundaries), and a size that splits the fixed
//! header itself. The suite also pins the memory bound the streaming
//! path exists for: peak payload residency is one segment buffer.

use eric::core::{Device, EncryptionConfig, Package, SoftwareSource};
use eric::hde::loader::{LoadedProgram, SecureInput, SecureLoader};
use eric::hde::policy::FieldPolicy;
use eric::hde::HdeError;
use eric::puf::crp::Challenge;
use eric::puf::device::{PufDevice, PufDeviceConfig};
use proptest::prelude::*;
use std::io::Read;

const PROGRAM: &str = r#"
    .data
    table: .zero 300
    .text
    main:
        li  a0, 8
        li  a7, 93
        ecall
"#;

const SEED: u64 = 91;
/// Tiny segments so the test image spans many leaves and the
/// chunk-size sweep can straddle segment boundaries cheaply.
const SEGMENT_LEN: u32 = 32;
/// The `ERIC2` fixed header length — a chunk size that splits the
/// header across reads.
const HEADER_STRADDLE: usize = 29;

/// A `Read` source that yields at most `chunk` bytes per call —
/// adversarial transport fragmentation.
struct ChunkedReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl<'a> ChunkedReader<'a> {
    fn new(data: &'a [u8], chunk: usize) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn build(config: &EncryptionConfig) -> Package {
    let mut device = Device::with_seed(SEED, "stream-test");
    let cred = device.enroll();
    SoftwareSource::new("stream-test")
        .build(PROGRAM, &cred, config)
        .unwrap()
}

fn modes() -> Vec<(&'static str, EncryptionConfig)> {
    vec![
        ("full", EncryptionConfig::full().with_segments(SEGMENT_LEN)),
        (
            "partial",
            EncryptionConfig::partial(0.5, 11).with_segments(SEGMENT_LEN),
        ),
        (
            "field-level",
            EncryptionConfig::field_level(FieldPolicy::AllButOpcode).with_segments(SEGMENT_LEN),
        ),
    ]
}

/// A standalone HDE with the same silicon seed as the enrolled device.
fn device_loader() -> SecureLoader {
    SecureLoader::new(PufDevice::from_seed(SEED, PufDeviceConfig::paper()))
}

/// The buffered oracle: parse the wire frame and process it whole.
fn buffered(loader: &SecureLoader, wire: &[u8]) -> Result<LoadedProgram, HdeError> {
    let pkg = Package::from_wire(wire).expect("frame parses");
    let challenge = Challenge::from_bytes(&pkg.challenge);
    loader.process(&SecureInput {
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
    })
}

/// Every mode × every adversarial chunk size: the streamed plaintext
/// is byte-identical to the buffered oracle, and peak payload
/// residency never exceeds one segment. Both loaders hand out the same
/// verified leaf table.
#[test]
fn streaming_matches_buffered_across_modes_and_chunk_sizes() {
    let loader = device_loader();
    let sl = SEGMENT_LEN as usize;
    let chunks = [1, 7, sl - 1, sl, sl + 1, HEADER_STRADDLE, usize::MAX];
    for (mode, config) in modes() {
        let wire = build(&config).to_wire();
        let LoadedProgram {
            plaintext: want,
            leaves: want_leaves,
            ..
        } = buffered(&loader, &wire).expect("oracle accepts its own frame");
        assert_eq!(want_leaves.len(), want.len().div_ceil(sl), "{mode}");
        for chunk in chunks {
            let mut streamed = Vec::new();
            let report = loader
                .process_stream_with(ChunkedReader::new(&wire, chunk), |_, seg| {
                    streamed.extend_from_slice(seg);
                })
                .unwrap_or_else(|e| panic!("{mode} rejected at chunk {chunk}: {e}"));
            assert_eq!(streamed, want, "{mode} diverged at chunk size {chunk}");
            assert!(
                report.peak_buffered <= sl,
                "{mode} chunk {chunk}: peak {} exceeds one segment ({sl})",
                report.peak_buffered
            );
            assert_eq!(report.payload_len, want.len());
            assert_eq!(report.segments, want.len().div_ceil(sl));
        }
        // The whole-frame convenience path agrees too.
        let loaded = loader
            .process_stream(ChunkedReader::new(&wire, sl))
            .expect("process accepts");
        assert_eq!(loaded.plaintext, want);
        assert_eq!(loaded.leaves, want_leaves, "{mode} leaf tables differ");
    }
}

/// A 98-byte forged `ERIC2` frame — a real header with `payload_len =
/// u32::MAX` and no challenge, a full map, a zero root, `segment_len =
/// 4` and `leaf_count = 2^30` — then end of stream. Sized from the
/// unauthenticated count, the leaf table would be a 32 GiB allocation
/// and abort the process; it must be a `Malformed` error instead.
#[test]
fn forged_leaf_count_is_an_error_not_an_abort() {
    const HEADER_FIXED_LEN: usize = 57;
    let wire = build(&EncryptionConfig::full().with_segments(SEGMENT_LEN)).to_wire();
    let mut forged = wire[..HEADER_FIXED_LEN].to_vec();
    forged[51..55].copy_from_slice(&u32::MAX.to_le_bytes()); // payload_len
    forged[55..57].copy_from_slice(&0u16.to_le_bytes()); // challenge_len
    forged.push(0); // full coverage map
    forged.extend_from_slice(&[0; 32]); // encrypted root
    forged.extend_from_slice(&4u32.to_le_bytes()); // segment_len
    forged.extend_from_slice(&(1u32 << 30).to_le_bytes()); // leaf_count
    assert_eq!(forged.len(), 98);
    assert_eq!(
        u32::MAX.div_ceil(4),
        1 << 30,
        "the count matches the geometry"
    );

    let loader = device_loader();
    let err = loader.process_stream(forged.as_slice()).unwrap_err();
    assert!(matches!(err, HdeError::Malformed(_)), "{err}");
}

/// Truncating the stream at any prefix length is a clean
/// `Malformed`/mismatch error — never a panic, never an accept.
#[test]
fn every_stream_truncation_is_rejected() {
    let loader = device_loader();
    let wire = build(&EncryptionConfig::full().with_segments(SEGMENT_LEN)).to_wire();
    for keep in 0..wire.len() {
        let result = loader.process_stream(ChunkedReader::new(&wire[..keep], 13));
        assert!(result.is_err(), "truncation to {keep} bytes accepted");
    }
}

/// The streamed peak stays one segment even as the image grows — the
/// O(segment_len) claim, pinned against three image sizes.
#[test]
fn peak_residency_is_independent_of_image_size() {
    let loader = device_loader();
    let config = EncryptionConfig::full().with_segments(SEGMENT_LEN);
    let mut peaks = Vec::new();
    for data_words in [100usize, 400, 1600] {
        let program = format!(
            ".data\ntable: .zero {data_words}\n.text\nmain:\n li a0, 8\n li a7, 93\n ecall\n"
        );
        let mut device = Device::with_seed(SEED, "stream-test");
        let cred = device.enroll();
        let wire = SoftwareSource::new("stream-test")
            .build(&program, &cred, &config)
            .unwrap()
            .to_wire();
        let report = loader
            .process_stream_with(ChunkedReader::new(&wire, 64), |_, _| {})
            .expect("frame accepted");
        peaks.push((report.payload_len, report.peak_buffered));
    }
    for (payload_len, peak) in &peaks {
        assert!(
            *peak <= SEGMENT_LEN as usize,
            "payload {payload_len}: peak {peak} exceeds segment {SEGMENT_LEN}"
        );
    }
    assert!(
        peaks.windows(2).all(|w| w[0].0 < w[1].0),
        "image sizes must grow for the bound to mean anything: {peaks:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random data-section sizes × random chunk sizes: streaming is
    /// byte-identical to the buffered oracle for every fragmentation.
    #[test]
    fn streaming_equals_buffered_for_random_images_and_chunkings(
        data_words in 1usize..220,
        chunk in 1usize..90,
        mode in 0usize..3,
    ) {
        let (_, config) = modes().swap_remove(mode);
        let program = format!(
            ".data\ntable: .zero {data_words}\n.text\nmain:\n li a0, 8\n li a7, 93\n ecall\n"
        );
        let mut device = Device::with_seed(SEED, "stream-test");
        let cred = device.enroll();
        let wire = SoftwareSource::new("stream-test")
            .build(&program, &cred, &config)
            .unwrap()
            .to_wire();
        let loader = device_loader();
        let want = buffered(&loader, &wire).expect("oracle accepts").plaintext;
        let mut streamed = Vec::new();
        let report = loader
            .process_stream_with(ChunkedReader::new(&wire, chunk), |_, seg| {
                streamed.extend_from_slice(seg);
            })
            .expect("streaming accepts");
        prop_assert_eq!(streamed, want);
        prop_assert!(report.peak_buffered <= SEGMENT_LEN as usize);
    }
}
