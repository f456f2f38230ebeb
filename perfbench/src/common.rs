//! Inputs shared by the workloads: seeded release images, devices and
//! the reference computations outputs are checked against.

use crate::stats::{median_secs, Rng};
use eric_asm::Image;
use eric_core::{Device, EncryptionConfig, SignatureScheme, SoftwareSource};
use eric_crypto::cipher::{KeystreamCipher, XorCipher};
use eric_crypto::sha256::{tree, Digest, Sha256};
use eric_puf::crp::EnrollmentRecord;
use eric_workloads::Workload;
use std::time::Instant;

/// Payload length (text ‖ data) of every release image: a program plus
/// the asset blob that pads it to this length. A seed changes what the
/// images hold but never their sizes, so the allocator sees the same
/// sequence of sizes in every run. With sizes that followed the
/// programs a seed picked, `provision`'s peak RSS moved by about 4 MiB
/// from seed to seed.
pub const PAYLOAD_LEN: usize = (1 << 20) + 1024;

/// Seed streams, one per kind of generated input.
pub mod stream {
    pub const PROGRAM: u64 = 1;
    pub const BLOB: u64 = 2;
    pub const DEVICE: u64 = 3;
    pub const SAMPLE: u64 = 4;
    pub const RING: u64 = 5;
    pub const ORDER: u64 = 6;
}

/// Silicon-lottery seed of device `index` under run seed `seed`.
pub fn device_seed(seed: u64, index: usize) -> u64 {
    let mut rng = Rng::new(seed, stream::DEVICE);
    rng.next_u64() ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fabricate device `index` of the run's fleet.
pub fn device(seed: u64, index: usize) -> Device {
    Device::with_seed(device_seed(seed, index), &format!("bench/unit-{index}"))
}

/// Fabricate and enroll `n` devices.
pub fn fleet(seed: u64, n: usize) -> (Vec<Device>, Vec<EnrollmentRecord>) {
    let mut devices: Vec<Device> = (0..n).map(|i| device(seed, i)).collect();
    let creds = devices.iter_mut().map(Device::enroll).collect();
    (devices, creds)
}

/// A paper program at its smoke scale followed in `.data` by an asset
/// blob of bytes from `blobs` that pads its payload to [`PAYLOAD_LEN`].
/// The blob lies past every label the program uses, so the program's
/// exit code is its golden value. Returns the image and the blob's
/// offset in the payload.
pub fn release_image(
    source: &SoftwareSource,
    program: &Workload,
    blobs: &mut Rng,
) -> Result<(Image, usize), String> {
    let mut image = source
        .compile(&(program.source)(program.smoke_scale), false)
        .map_err(|e| format!("{}: {e}", program.name))?;
    let blob_start = image.text.len() + image.data.len();
    let blob_len = PAYLOAD_LEN
        .checked_sub(blob_start)
        .ok_or_else(|| format!("{}: {blob_start} bytes exceed the payload", program.name))?;
    let mut blob = vec![0u8; blob_len];
    blobs.fill(&mut blob);
    image.data.extend_from_slice(&blob);
    Ok((image, blob_start))
}

/// The plaintext payload an image installs as: text ‖ data.
pub fn payload(image: &Image) -> Vec<u8> {
    [image.text.as_slice(), image.data.as_slice()].concat()
}

/// Segment length of a segmented configuration.
pub fn segment_len(config: &EncryptionConfig) -> usize {
    match config.signature {
        SignatureScheme::Segmented { segment_len } => segment_len as usize,
        SignatureScheme::Single => 0,
    }
}

/// The fingerprint an install of `payload` must report, computed with
/// the one-leaf-at-a-time reference hasher rather than the multi-buffer
/// path the device uses.
pub fn reference_fingerprint(payload: &[u8], segment_len: usize) -> Digest {
    let leaves: Vec<Digest> = payload
        .chunks(segment_len)
        .enumerate()
        .map(|(i, seg)| tree::leaf_digest(i as u64, seg))
        .collect();
    tree::merkle_root(&leaves)
}

/// SHA-256 over a list of byte strings (input digests).
pub fn digest_of<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> [u8; 32] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(&(part.len() as u64).to_le_bytes());
        h.update(part);
    }
    *h.finalize().as_bytes()
}

/// Standalone speed of the two reference kernels over a workload's own
/// payload: multi-buffer leaf hashing and the XOR keystream, in MiB/s
/// (median of repeated passes).
pub fn yardsticks((payload, segment_len): (&[u8], usize)) -> (f64, f64) {
    const PASSES: usize = 31;
    if payload.is_empty() || segment_len == 0 {
        return (0.0, 0.0);
    }
    let mib = payload.len() as f64 / f64::from(1 << 20);
    let mut hash = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        std::hint::black_box(tree::leaf_digests_batch(
            0,
            std::hint::black_box(payload),
            segment_len,
        ));
        hash.push(t0.elapsed());
    }
    let cipher = XorCipher::new(&[0x5C; 32]);
    let mut buf = payload.to_vec();
    let mut xor = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        cipher.apply(0, std::hint::black_box(&mut buf));
        xor.push(t0.elapsed());
    }
    std::hint::black_box(&buf);
    (mib / median_secs(&hash), mib / median_secs(&xor))
}
