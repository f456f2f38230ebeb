//! The software source: compile → sign → encrypt → package.
//!
//! Paper step 3: "First, the program is compiled for the target ISA
//! ... the signature of the program is obtained with the Signature
//! Generator. Second, the key management function, using the PUF-based
//! key transferred to the compiler stage, generates keys suitable for
//! the encryption function. ... the program is encrypted according to
//! the encryption constraints ... Then, with the encryption of the
//! signature, the encrypted program package and the signature are
//! ready to exit from the software source."

use crate::config::{EncryptionConfig, EncryptionMode, SignatureScheme};
use crate::error::EricError;
use crate::package::Package;
use eric_asm::{assemble, AsmOptions, Image};
use eric_crypto::kdf::KeyManagementUnit;
use eric_crypto::sha256::{tree, Digest, Sha256};
use eric_hde::manifest::signed_root;
use eric_hde::map::{CoverageMap, ParcelBitmap};
use eric_hde::transform::{manifest_stream_offset, transform_payload_into, transform_signature};
use eric_hde::wire::{
    map_wire_len, write_challenge, write_map, FrameHeader, HEADER_FIXED_LEN, MAGIC_V1, MAGIC_V2,
};
use eric_puf::crp::EnrollmentRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An image with all device-independent packaging work done: payload
/// assembled and the coverage map constructed.
///
/// This is the device-independent half of [`SoftwareSource::build`].
/// A `PreparedImage` is immutable and can be shared (by reference)
/// across threads, so batch provisioning pays the compile + map cost
/// once and fans out only the per-device work (nonce allocation,
/// signing, encryption, serialization). Built by
/// [`SoftwareSource::prepare_image`], consumed by
/// [`SoftwareSource::package_prepared_into`] (which the
/// [`ProvisioningDaemon`](crate::ProvisioningDaemon) workers call) and
/// its parsed-package wrapper [`SoftwareSource::package_prepared`].
#[derive(Clone, Debug)]
pub struct PreparedImage {
    pub(crate) cipher: eric_crypto::cipher::CipherKind,
    pub(crate) policy: Option<eric_hde::FieldPolicy>,
    pub(crate) epoch: u64,
    pub(crate) text_base: u64,
    pub(crate) data_base: u64,
    pub(crate) entry: u64,
    pub(crate) text_len: u32,
    pub(crate) map: CoverageMap,
    pub(crate) payload: Vec<u8>,
    pub(crate) signature_plan: SignaturePlan,
    /// `tree::merkle_root` of the segmented leaf table (of the empty
    /// table for a v1 build), folded once at prepare time.
    pub(crate) leaf_root: Digest,
}

/// The device-independent half of the signature work.
///
/// For a segmented build the per-segment leaf digests are functions of
/// the *plaintext* payload only, so they are computed and folded to
/// their Merkle root once at prepare time and shared across the whole
/// batch ([`PreparedImage`] keeps the root); each device then pays
/// only an O(AAD) bind of that root to its own AAD instead of
/// re-hashing the entire payload (v1's per-device cost).
#[derive(Clone, Debug)]
pub(crate) enum SignaturePlan {
    /// v1: each device hashes `AAD ‖ payload` itself.
    Single,
    /// v2: shared plaintext leaf digests, folded per device.
    Segmented {
        segment_len: u32,
        leaves: Vec<Digest>,
    },
}

impl PreparedImage {
    /// Plaintext payload size (text ‖ data), in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Key epoch every package from this preparation will target.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared encryption coverage map.
    pub fn map(&self) -> &CoverageMap {
        &self.map
    }

    /// Number of signature segments (0 for a v1 single-digest build).
    pub fn segments(&self) -> usize {
        match &self.signature_plan {
            SignaturePlan::Single => 0,
            SignaturePlan::Segmented { leaves, .. } => leaves.len(),
        }
    }
}

/// What [`SoftwareSource::package_prepared_into`] wrote into the
/// caller's transmit buffer: the frame geometry plus the nonce it
/// drew, for callers that track packages without re-parsing the bytes
/// they just produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackagedFrame {
    /// The per-package keystream nonce the frame was encrypted under.
    pub nonce: u64,
    /// Total serialized frame length in bytes (== the buffer length).
    pub wire_len: usize,
    /// Length of the frame's signed header prefix: `&frame[..aad_len]`
    /// is byte-identical to [`Package::aad`] for the parsed package.
    pub aad_len: usize,
}

/// A software vendor that builds encrypted packages for enrolled
/// devices.
pub struct SoftwareSource {
    name: String,
    kmu: KeyManagementUnit,
    nonce_counter: AtomicU64,
}

impl fmt::Debug for SoftwareSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SoftwareSource {{ name: {:?} }}", self.name)
    }
}

impl SoftwareSource {
    /// Create a named software source.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::SoftwareSource;
    ///
    /// let source = SoftwareSource::new("vendor");
    /// assert_eq!(source.name(), "vendor");
    /// ```
    pub fn new(name: &str) -> Self {
        SoftwareSource {
            name: name.to_string(),
            kmu: KeyManagementUnit::new(),
            nonce_counter: AtomicU64::new(1),
        }
    }

    /// The vendor name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Draw the next package nonce: lock-free, monotone, gap-free —
    /// provisioning workers hammer this concurrently. Full and delta
    /// ([`crate::delta`]) frames draw from this one counter, so the
    /// nonce-sequence invariants tests pin hold across both packagers.
    pub(crate) fn next_nonce(&self) -> u64 {
        self.nonce_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Crate-internal KMU access for the delta packager.
    pub(crate) fn kmu(&self) -> &KeyManagementUnit {
        &self.kmu
    }

    /// Plain compilation (the Figure 6 baseline).
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn compile(&self, asm_source: &str, compress: bool) -> Result<Image, EricError> {
        let options = if compress {
            AsmOptions::compressed()
        } else {
            AsmOptions::default()
        };
        Ok(assemble(asm_source, &options)?)
    }

    /// Compile, sign, encrypt, and package a program for the device in
    /// `cred` (paper step 3).
    ///
    /// # Errors
    ///
    /// Compilation or configuration errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Device, EncryptionConfig, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(1, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let package = source
    ///     .build("main:\n li a0, 42\n li a7, 93\n ecall\n", &cred, &EncryptionConfig::full())
    ///     .unwrap();
    /// assert_eq!(device.install_and_run(&package).unwrap().exit_code, 42);
    /// ```
    pub fn build(
        &self,
        asm_source: &str,
        cred: &EnrollmentRecord,
        config: &EncryptionConfig,
    ) -> Result<Package, EricError> {
        self.build_with(asm_source, cred, config, Ok)
    }

    /// Compile, run a caller-supplied plaintext transformation over
    /// the image, then sign, encrypt, and package the *transformed*
    /// image — the layered-profile entry point.
    ///
    /// The transformation typically applies ISA-level obfuscation
    /// passes (an `eric-obf` pipeline) before the HDE encryption
    /// layer; [`SoftwareSource::prepare_image`] accepts any image, so
    /// the two layers compose without special cases. The identity
    /// closure makes this [`SoftwareSource::build`].
    ///
    /// A build is a batch of one: [`SoftwareSource::prepare_image`]
    /// followed by [`SoftwareSource::package_prepared`], the same two
    /// halves batch provisioning calls separately so the preparation
    /// is paid once per image instead of once per device.
    ///
    /// # Errors
    ///
    /// Compilation or configuration errors, or whatever the transform
    /// reports.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Device, EncryptionConfig, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(3, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let package = source
    ///     .build_with(
    ///         "main:\n li a0, 42\n li a7, 93\n ecall\n",
    ///         &cred,
    ///         &EncryptionConfig::full(),
    ///         Ok, // identity transform
    ///     )
    ///     .unwrap();
    /// assert_eq!(device.install_and_run(&package).unwrap().exit_code, 42);
    /// ```
    pub fn build_with<F>(
        &self,
        asm_source: &str,
        cred: &EnrollmentRecord,
        config: &EncryptionConfig,
        transform: F,
    ) -> Result<Package, EricError>
    where
        F: FnOnce(Image) -> Result<Image, EricError>,
    {
        config.validate().map_err(EricError::Config)?;
        let image = transform(self.compile(asm_source, config.compress)?)?;
        let prepared = self.prepare_image(&image, config)?;
        self.package_prepared(&prepared, cred).map(|(p, _)| p)
    }

    /// The device-independent half of packaging: validate the
    /// configuration, assemble the plaintext payload, and build the
    /// encryption coverage map.
    ///
    /// The result is immutable and shareable across threads; see
    /// [`PreparedImage`].
    ///
    /// # Errors
    ///
    /// Configuration errors (e.g. field-level on a compressed image).
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, SoftwareSource};
    ///
    /// let source = SoftwareSource::new("vendor");
    /// let image = source
    ///     .compile("main:\n li a0, 0\n li a7, 93\n ecall\n", false)
    ///     .unwrap();
    /// let prepared = source
    ///     .prepare_image(&image, &EncryptionConfig::full())
    ///     .unwrap();
    /// assert_eq!(prepared.payload_len(), image.text.len() + image.data.len());
    /// ```
    pub fn prepare_image(
        &self,
        image: &Image,
        config: &EncryptionConfig,
    ) -> Result<PreparedImage, EricError> {
        config.validate().map_err(EricError::Config)?;
        if matches!(config.mode, EncryptionMode::FieldLevel(_)) && image.has_compressed() {
            return Err(EricError::Config(
                "field-level encryption requires an uncompressed image".into(),
            ));
        }

        // Assemble the plaintext payload: text ‖ data.
        let mut payload = Vec::with_capacity(image.text.len() + image.data.len());
        payload.extend_from_slice(&image.text);
        payload.extend_from_slice(&image.data);

        // Build the coverage map. Selection is seed-deterministic, so
        // the map is identical for every device in a batch and safe to
        // share. Segmented builds also hash the plaintext leaves and
        // fold them here: leaves depend only on the payload, so the
        // whole batch shares one leaf table and its root, and
        // per-device signing shrinks to binding that root to the AAD.
        let (map, policy) = match config.mode {
            EncryptionMode::Full => (CoverageMap::Full, None),
            EncryptionMode::PartialRandom { fraction, seed } => {
                (self.random_map(image, payload.len(), fraction, seed), None)
            }
            EncryptionMode::FieldLevel(policy) => (CoverageMap::Full, Some(policy)),
        };
        let signature_plan = match config.signature {
            SignatureScheme::Single => SignaturePlan::Single,
            // The shared leaf table is hashed through the multi-buffer
            // engine: full segments share one length, so up to 8 leaves
            // compress per wide kernel call.
            SignatureScheme::Segmented { segment_len } => SignaturePlan::Segmented {
                segment_len,
                leaves: tree::leaf_digests_batch(0, &payload, segment_len as usize),
            },
        };
        let leaf_root = match &signature_plan {
            SignaturePlan::Single => tree::merkle_root(&[]),
            SignaturePlan::Segmented { leaves, .. } => tree::merkle_root(leaves),
        };

        Ok(PreparedImage {
            cipher: config.cipher,
            policy,
            epoch: config.epoch,
            text_base: image.text_base,
            data_base: image.data_base,
            entry: image.entry,
            text_len: image.text.len() as u32,
            map,
            payload,
            signature_plan,
            leaf_root,
        })
    }

    /// The per-device half of packaging as a parsed [`Package`]:
    /// [`SoftwareSource::package_prepared_into`] into a fresh buffer,
    /// then [`Package::from_wire`] over the frame it wrote.
    ///
    /// Callers that transmit the frame should call
    /// [`SoftwareSource::package_prepared_into`] with a reused buffer
    /// instead: this wrapper allocates the frame and the parsed
    /// payload for every package.
    ///
    /// # Errors
    ///
    /// Same contract as [`SoftwareSource::package_prepared_into`].
    pub fn package_prepared(
        &self,
        prepared: &PreparedImage,
        cred: &EnrollmentRecord,
    ) -> Result<(Package, PackagedFrame), EricError> {
        let mut frame = Vec::new();
        let info = self.package_prepared_into(prepared, cred, &mut frame)?;
        Ok((Package::from_wire(&frame)?, info))
    }

    /// The per-device half of packaging, and the one place a full
    /// frame is signed and encrypted: draw a fresh nonce, then sign,
    /// encrypt under the device's PUF-derived per-package key, and
    /// serialize straight into a reusable transmit buffer, with **no
    /// payload-sized allocation anywhere on the path**:
    ///
    /// 1. the cleartext header lands in `out` first, and because the
    ///    header encoding *is* the AAD encoding (one shared writer),
    ///    the signature is computed over `&out[..aad_len]` in place —
    ///    v1 hashes `AAD ‖ payload` per device, v2 only binds the
    ///    shared leaf table's prepared Merkle root to the AAD;
    /// 2. the shared plaintext payload is keystream-XORed into the
    ///    frame as it is copied ([`transform_payload_into`]), and the
    ///    manifest leaves are encrypted in place after being appended.
    ///
    /// Thread-safe: many workers may call this concurrently on one
    /// shared [`PreparedImage`]; each call draws a unique nonce from
    /// the source's counter. The buffer is cleared and reserved to the
    /// exact frame length, so a warm buffer from a previous
    /// same-geometry frame is refilled allocation-free.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] when `cred` was enrolled at a different
    /// key epoch than the preparation targets — the device would
    /// derive a different key and reject the package, so the mismatch
    /// is caught at the source instead. On error the buffer is left
    /// cleared, never with a partial frame, and no nonce is drawn.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Device, EncryptionConfig, Package, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(1, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let image = source
    ///     .compile("main:\n li a0, 7\n li a7, 93\n ecall\n", false)
    ///     .unwrap();
    /// let prepared = source
    ///     .prepare_image(&image, &EncryptionConfig::full())
    ///     .unwrap();
    ///
    /// let mut frame = Vec::new(); // reuse this across devices
    /// let info = source
    ///     .package_prepared_into(&prepared, &cred, &mut frame)
    ///     .unwrap();
    /// assert_eq!(frame.len(), info.wire_len);
    /// let package = Package::from_wire(&frame).unwrap();
    /// assert_eq!(package.nonce, info.nonce);
    /// assert_eq!(device.install_and_run(&package).unwrap().exit_code, 7);
    /// ```
    pub fn package_prepared_into(
        &self,
        prepared: &PreparedImage,
        cred: &EnrollmentRecord,
        out: &mut Vec<u8>,
    ) -> Result<PackagedFrame, EricError> {
        out.clear();
        if cred.epoch != prepared.epoch {
            return Err(EricError::Config(format!(
                "credential for {:?} is from epoch {} but the package targets epoch {}",
                cred.device_id, cred.epoch, prepared.epoch
            )));
        }
        let nonce = self.next_nonce();
        let payload_len = prepared.payload.len();
        let (magic, signature_len) = match &prepared.signature_plan {
            SignaturePlan::Single => (MAGIC_V1, 32),
            SignaturePlan::Segmented { leaves, .. } => (MAGIC_V2, 32 + 4 + 4 + 32 * leaves.len()),
        };
        let challenge = cred.challenge.as_bytes();
        let header = FrameHeader {
            magic,
            cipher: prepared.cipher,
            policy: prepared.policy,
            epoch: prepared.epoch,
            nonce,
            text_base: prepared.text_base,
            data_base: prepared.data_base,
            entry: prepared.entry,
            text_len: prepared.text_len,
            payload_len: payload_len as u32,
        };
        let wire_len = HEADER_FIXED_LEN
            + challenge.len()
            + map_wire_len(&prepared.map)
            + signature_len
            + payload_len;
        out.reserve(wire_len);

        // Header first: its bytes are the AAD, so signing reads the
        // frame prefix instead of a separate scratch encoding.
        header.write(out);
        write_challenge(out, challenge);
        let aad_len = out.len();
        let signature = match &prepared.signature_plan {
            SignaturePlan::Single => {
                let mut hasher = Sha256::new();
                hasher.update(out);
                hasher.update(&prepared.payload);
                hasher.finalize()
            }
            SignaturePlan::Segmented {
                segment_len,
                leaves,
            } => signed_root(out, *segment_len, leaves.len(), &prepared.leaf_root),
        };

        let key = self.kmu.package_key(&cred.key, nonce);
        let cipher = prepared.cipher.instantiate(key.as_bytes());

        write_map(out, &prepared.map);
        let mut sig_bytes = *signature.as_bytes();
        transform_signature(&mut sig_bytes, payload_len, cipher.as_ref());
        out.extend_from_slice(&sig_bytes);
        if let SignaturePlan::Segmented {
            segment_len,
            leaves,
        } = &prepared.signature_plan
        {
            out.extend_from_slice(&segment_len.to_le_bytes());
            out.extend_from_slice(&(leaves.len() as u32).to_le_bytes());
            let leaves_at = out.len();
            for leaf in leaves {
                out.extend_from_slice(leaf.as_bytes());
            }
            // The appended plaintext leaves form one contiguous
            // keystream range; encrypt them in place in a single pass.
            cipher.apply(manifest_stream_offset(payload_len), &mut out[leaves_at..]);
        }
        transform_payload_into(
            &prepared.payload,
            out,
            &prepared.map,
            prepared.policy,
            prepared.text_len as usize,
            cipher.as_ref(),
        );
        debug_assert_eq!(out.len(), wire_len);
        Ok(PackagedFrame {
            nonce,
            wire_len,
            aad_len,
        })
    }

    /// Random instruction selection for partial encryption (the paper's
    /// evaluation configuration), plus the whole data region.
    ///
    /// Map granularity follows the paper: one bit per instruction
    /// (4-byte parcels) normally, one bit per 16 bits when the build
    /// contains compressed instructions.
    fn random_map(
        &self,
        image: &Image,
        payload_len: usize,
        fraction: f64,
        seed: u64,
    ) -> CoverageMap {
        let granularity: usize = if image.has_compressed() { 2 } else { 4 };
        let parcels = payload_len.div_ceil(granularity);
        let mut bitmap = ParcelBitmap::with_granularity(parcels, granularity as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        for boundary in &image.boundaries {
            if rng.gen::<f64>() < fraction {
                let first = boundary.offset as usize / granularity;
                let count = (boundary.kind.len() / granularity).max(1);
                for p in 0..count {
                    bitmap.set(first + p);
                }
            }
        }
        // Data region: always protected.
        for p in image.text.len().div_ceil(granularity)..parcels {
            bitmap.set(p);
        }
        CoverageMap::Partial(bitmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_crypto::cipher::CipherKind;
    use eric_hde::manifest::SignatureBlock;
    use eric_hde::transform::transform_payload_bytewise;
    use eric_puf::crp::{respond, Challenge};
    use eric_puf::device::{PufDevice, PufDeviceConfig};

    fn cred(seed: u64) -> EnrollmentRecord {
        let dev = PufDevice::from_seed(seed, PufDeviceConfig::paper());
        let challenge = Challenge::from_bytes(&[0x5A; 32]);
        let response = respond(&dev, &challenge, 0);
        EnrollmentRecord {
            device_id: format!("dev-{seed}"),
            challenge,
            epoch: 0,
            key: *response.key(),
        }
    }

    const PROGRAM: &str = "main:\n li a0, 42\n li a7, 93\n ecall\n";

    #[test]
    fn build_produces_encrypted_payload() {
        let src = SoftwareSource::new("vendor");
        let image = src.compile(PROGRAM, false).unwrap();
        let pkg = src
            .build(PROGRAM, &cred(1), &EncryptionConfig::full())
            .unwrap();
        assert_eq!(pkg.payload.len(), image.text.len() + image.data.len());
        assert_ne!(&pkg.payload[..image.text.len()], &image.text[..]);
    }

    #[test]
    fn nonces_increment_per_package() {
        let src = SoftwareSource::new("vendor");
        let c = cred(1);
        let p1 = src.build(PROGRAM, &c, &EncryptionConfig::full()).unwrap();
        let p2 = src.build(PROGRAM, &c, &EncryptionConfig::full()).unwrap();
        assert_ne!(p1.nonce, p2.nonce);
        // Same plaintext, different keystream -> different ciphertext.
        assert_ne!(p1.payload, p2.payload);

        // Regression guard for the provisioning worker pool: a
        // concurrent batch must draw unique nonces, and the counter
        // must hand them out monotonically with no gaps or reuse.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 8;
        let src = SoftwareSource::new("vendor");
        let image = src.compile(PROGRAM, false).unwrap();
        let prepared = src
            .prepare_image(&image, &EncryptionConfig::full())
            .unwrap();
        let mut nonces: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|seed| {
                    let src = &src;
                    let prepared = &prepared;
                    scope.spawn(move || {
                        let c = cred(seed as u64 + 1);
                        (0..PER_THREAD)
                            .map(|_| src.package_prepared(prepared, &c).unwrap().0.nonce)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        nonces.sort_unstable();
        // Counter starts at 1 and increments by one per package:
        // sorted nonces must be exactly 1..=THREADS*PER_THREAD
        // (uniqueness + monotone, gap-free allocation).
        let want: Vec<u64> = (1..=(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(nonces, want, "concurrent nonce allocation broke");
    }

    #[test]
    fn partial_map_marks_data_and_fraction_of_text() {
        let src = SoftwareSource::new("vendor");
        let program = ".data\nbuf: .zero 64\n.text\nmain:\n li a0, 1\n li a7, 93\n ecall\n";
        let pkg = src
            .build(program, &cred(2), &EncryptionConfig::partial(0.5, 7))
            .unwrap();
        let CoverageMap::Partial(bm) = &pkg.map else {
            panic!("expected partial map");
        };
        // Uncompressed build -> instruction-granularity (4-byte) map.
        assert_eq!(bm.granularity(), 4);
        // All data parcels marked.
        let text_parcels = (pkg.text_len as usize).div_ceil(bm.granularity() as usize);
        for p in text_parcels..bm.parcels() {
            assert!(bm.get(p), "data parcel {p} unmarked");
        }
        assert!(bm.count_ones() > 0);
    }

    #[test]
    fn partial_selection_is_deterministic_per_seed() {
        let src = SoftwareSource::new("vendor");
        let c = cred(3);
        let a = src
            .build(PROGRAM, &c, &EncryptionConfig::partial(0.5, 9))
            .unwrap();
        let b = src
            .build(PROGRAM, &c, &EncryptionConfig::partial(0.5, 9))
            .unwrap();
        assert_eq!(a.map, b.map);
        let c2 = src
            .build(PROGRAM, &c, &EncryptionConfig::partial(0.5, 10))
            .unwrap();
        assert!(a.map == c2.map || a.map != c2.map); // seeds may coincide on tiny programs
    }

    #[test]
    fn field_level_on_compressed_image_rejected() {
        let src = SoftwareSource::new("vendor");
        let cfg =
            crate::config::EncryptionConfig::field_level(eric_hde::FieldPolicy::MemoryPointers)
                .with_compression(true);
        assert!(matches!(
            src.build(PROGRAM, &cred(4), &cfg),
            Err(EricError::Config(_))
        ));
    }

    #[test]
    fn stale_epoch_credential_rejected_at_source() {
        let src = SoftwareSource::new("vendor");
        let mut stale = cred(7);
        stale.epoch = 3; // enrolled under a rotated-away epoch
        let err = src.build(PROGRAM, &stale, &EncryptionConfig::full());
        assert!(matches!(err, Err(EricError::Config(_))), "{err:?}");
        let cfg = EncryptionConfig::full().with_epoch(3);
        assert!(src.build(PROGRAM, &stale, &cfg).is_ok());
    }

    #[test]
    fn segmented_build_ships_a_covering_manifest() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let image = src.compile(PROGRAM, false).unwrap();
        let prepared = src.prepare_image(&image, &cfg).unwrap();
        let payload_len = prepared.payload_len();
        assert_eq!(prepared.segments(), payload_len.div_ceil(8));
        let (pkg, _) = src.package_prepared(&prepared, &cred(11)).unwrap();
        let SignatureBlock::Segmented { manifest, .. } = &pkg.signature else {
            panic!("expected a v2 signature block");
        };
        assert!(manifest.covers_payload(payload_len));
        assert_eq!(manifest.segment_len(), 8);
        // Bad segment geometry is a configuration error, caught before
        // any manifest is built.
        assert!(matches!(
            src.build(
                PROGRAM,
                &cred(11),
                &EncryptionConfig::full().with_segments(6)
            ),
            Err(EricError::Config(_))
        ));
    }

    #[test]
    fn segmented_manifests_are_keystream_unique_per_device() {
        // The plaintext leaf table is shared across the batch, but the
        // shipped manifest is encrypted under each device's key: two
        // devices must never ship identical leaf bytes.
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let image = src.compile(PROGRAM, false).unwrap();
        let prepared = src.prepare_image(&image, &cfg).unwrap();
        let (a, _) = src.package_prepared(&prepared, &cred(21)).unwrap();
        let (b, _) = src.package_prepared(&prepared, &cred(22)).unwrap();
        let (
            SignatureBlock::Segmented { manifest: ma, .. },
            SignatureBlock::Segmented { manifest: mb, .. },
        ) = (&a.signature, &b.signature)
        else {
            panic!("expected v2 blocks");
        };
        assert_ne!(ma.leaves(), mb.leaves());
    }

    /// The frame `package_prepared_into` must write for `plain` under
    /// `config`, built only from the reference implementations: the
    /// per-byte keystream (`keystream_byte`,
    /// `transform_payload_bytewise`), one `leaf_digest` per segment and
    /// a streaming `Sha256` for v1. Returns the frame and its AAD.
    fn oracle_frame(
        plain: &[u8],
        image: &Image,
        map: &CoverageMap,
        config: &EncryptionConfig,
        cred: &EnrollmentRecord,
        nonce: u64,
    ) -> (Vec<u8>, Vec<u8>) {
        let policy = match config.mode {
            EncryptionMode::FieldLevel(policy) => Some(policy),
            _ => None,
        };
        let leaves: Option<(u32, Vec<Digest>)> = match config.signature {
            SignatureScheme::Single => None,
            SignatureScheme::Segmented { segment_len } => Some((
                segment_len,
                plain
                    .chunks(segment_len as usize)
                    .enumerate()
                    .map(|(i, segment)| tree::leaf_digest(i as u64, segment))
                    .collect(),
            )),
        };
        let mut aad = Vec::new();
        FrameHeader {
            magic: if leaves.is_some() { MAGIC_V2 } else { MAGIC_V1 },
            cipher: config.cipher,
            policy,
            epoch: config.epoch,
            nonce,
            text_base: image.text_base,
            data_base: image.data_base,
            entry: image.entry,
            text_len: image.text.len() as u32,
            payload_len: plain.len() as u32,
        }
        .write(&mut aad);
        write_challenge(&mut aad, cred.challenge.as_bytes());

        let key = KeyManagementUnit::new().package_key(&cred.key, nonce);
        let cipher = config.cipher.instantiate(key.as_bytes());
        // Encrypt `bytes` as keystream positions `at..`, one byte at a time.
        let encrypt_at = |at: usize, bytes: &[u8]| -> Vec<u8> {
            let positions = at as u64..;
            bytes
                .iter()
                .zip(positions)
                .map(|(b, pos)| b ^ cipher.keystream_byte(pos))
                .collect()
        };
        let signature = match &leaves {
            None => {
                let mut hasher = Sha256::new();
                hasher.update(&aad);
                hasher.update(plain);
                hasher.finalize()
            }
            Some((segment_len, leaves)) => {
                signed_root(&aad, *segment_len, leaves.len(), &tree::merkle_root(leaves))
            }
        };

        let mut frame = aad.clone();
        write_map(&mut frame, map);
        frame.extend(encrypt_at(plain.len(), signature.as_bytes()));
        if let Some((segment_len, leaves)) = &leaves {
            frame.extend_from_slice(&segment_len.to_le_bytes());
            frame.extend_from_slice(&(leaves.len() as u32).to_le_bytes());
            for (i, leaf) in leaves.iter().enumerate() {
                frame.extend(encrypt_at(plain.len() + 32 + 32 * i, leaf.as_bytes()));
            }
        }
        let mut payload = plain.to_vec();
        transform_payload_bytewise(&mut payload, map, policy, image.text.len(), cipher.as_ref());
        frame.extend(payload);
        (frame, aad)
    }

    #[test]
    fn zero_copy_frames_match_the_reference_oracles() {
        // Memory instructions give the field-level policy fields to
        // mask; the data section and 16-byte segments give several
        // leaves and a ragged tail.
        let program = ".data\nbuf: .zero 100\n.text\nmain:\n la a1, buf\n li a0, 1\n \
                       sd a0, 8(a1)\n ld a0, 8(a1)\n li a7, 93\n ecall\n";
        let modes = [
            EncryptionConfig::full(),
            EncryptionConfig::partial(0.5, 7),
            EncryptionConfig::field_level(eric_hde::FieldPolicy::MemoryPointers),
        ];
        let mut frame = vec![0xA5; 17]; // dirty + reused across configs
        for mode in modes {
            for cipher in [CipherKind::Xor, CipherKind::ShaCtr] {
                let mode = mode.clone().with_cipher(cipher);
                for config in [mode.clone().with_legacy_signature(), mode.with_segments(16)] {
                    let src = SoftwareSource::new("vendor");
                    let image = src.compile(program, config.compress).unwrap();
                    let plain = [&image.text[..], &image.data[..]].concat();
                    let prepared = src.prepare_image(&image, &config).unwrap();
                    for (nonce, seed) in [(1, 31), (2, 32)] {
                        let c = cred(seed);
                        let info = src
                            .package_prepared_into(&prepared, &c, &mut frame)
                            .unwrap();
                        let (want, aad) =
                            oracle_frame(&plain, &image, prepared.map(), &config, &c, nonce);
                        assert!(frame == want, "config {config:?}, nonce {nonce}");
                        assert_eq!(info.nonce, nonce);
                        assert_eq!(info.wire_len, frame.len());
                        assert_eq!(&frame[..info.aad_len], &aad[..], "aad prefix");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_copy_epoch_mismatch_clears_buffer_and_burns_no_frame() {
        let src = SoftwareSource::new("vendor");
        let image = src.compile(PROGRAM, false).unwrap();
        let prepared = src
            .prepare_image(&image, &EncryptionConfig::full())
            .unwrap();
        let mut stale = cred(7);
        stale.epoch = 3;
        let mut frame = vec![0xEE; 64];
        let err = src.package_prepared_into(&prepared, &stale, &mut frame);
        assert!(matches!(err, Err(EricError::Config(_))));
        assert!(frame.is_empty(), "no partial frame on error");
        // The rejected call must not have drawn a nonce: the next
        // package still gets nonce 1 (gap-free allocation).
        let info = src
            .package_prepared_into(&prepared, &cred(8), &mut frame)
            .unwrap();
        assert_eq!(info.nonce, 1);
    }

    #[test]
    fn compile_errors_propagate() {
        let src = SoftwareSource::new("vendor");
        assert!(matches!(
            src.build("bogus_mnemonic a0\n", &cred(6), &EncryptionConfig::full()),
            Err(EricError::Compile(_))
        ));
    }
}
