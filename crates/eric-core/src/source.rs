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
use eric_hde::manifest::{signed_root, SegmentManifest, SignatureBlock};
use eric_hde::map::{CoverageMap, ParcelBitmap};
use eric_hde::transform::{
    manifest_stream_offset, transform_manifest_leaves, transform_payload, transform_payload_into,
    transform_signature,
};
use eric_hde::wire::{
    map_wire_len, write_challenge, write_map, FrameHeader, HEADER_FIXED_LEN, MAGIC_V1, MAGIC_V2,
};
use eric_puf::crp::EnrollmentRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one build (Figure 6's measurement).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildTimings {
    /// Assembly (the baseline compiler's entire job).
    pub compile: Duration,
    /// SHA-256 signature generation.
    pub sign: Duration,
    /// Map construction + payload/signature encryption.
    pub encrypt: Duration,
    /// Wire serialization.
    pub package: Duration,
}

impl BuildTimings {
    /// Total build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::BuildTimings;
    /// use std::time::Duration;
    ///
    /// let t = BuildTimings {
    ///     compile: Duration::from_micros(100),
    ///     sign: Duration::from_micros(10),
    ///     encrypt: Duration::from_micros(5),
    ///     package: Duration::from_micros(1),
    /// };
    /// assert_eq!(t.total(), Duration::from_micros(116));
    /// ```
    pub fn total(&self) -> Duration {
        self.compile + self.sign + self.encrypt + self.package
    }

    /// Relative overhead of sign+encrypt+package over plain
    /// compilation, in percent (the Figure 6 y-axis).
    pub fn overhead_pct(&self) -> f64 {
        let extra = self.sign + self.encrypt + self.package;
        100.0 * extra.as_secs_f64() / self.compile.as_secs_f64().max(f64::EPSILON)
    }
}

/// An image with all device-independent packaging work done: payload
/// assembled and the coverage map constructed.
///
/// This is the compile-time half of [`SoftwareSource::package_image`].
/// A `PreparedImage` is immutable and can be shared (by reference)
/// across threads, so batch provisioning pays the compile + map cost
/// once and fans out only the per-device work (nonce allocation,
/// signing, encryption, serialization). Built by
/// [`SoftwareSource::prepare_image`], consumed by
/// [`SoftwareSource::package_prepared`] and
/// [`SoftwareSource::package_prepared_into`] (which the
/// [`ProvisioningDaemon`](crate::ProvisioningDaemon) workers call).
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
    pub(crate) prepare_time: Duration,
}

/// The device-independent half of the signature work.
///
/// For a segmented build the per-segment leaf digests are functions of
/// the *plaintext* payload only, so they are computed once at prepare
/// time and shared across the whole batch; each device then pays only
/// the O(segments) Merkle fold over its own AAD instead of re-hashing
/// the entire payload (v1's per-device cost).
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

    /// Wall-clock spent on the device-independent preparation
    /// (coverage-map construction and, for segmented builds, leaf
    /// hashing).
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
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
    /// provisioning workers hammer this concurrently.
    fn next_nonce(&self) -> u64 {
        self.nonce_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Crate-internal nonce access for the delta packager
    /// ([`crate::delta`]): full and delta frames draw from the same
    /// gap-free counter, so the nonce-sequence invariants tests pin
    /// hold across both paths.
    pub(crate) fn draw_nonce(&self) -> u64 {
        self.next_nonce()
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
        self.build_timed(asm_source, cred, config).map(|(p, _)| p)
    }

    /// [`SoftwareSource::build`], also reporting the wall-clock
    /// breakdown used for the compile-time experiment.
    ///
    /// # Errors
    ///
    /// Compilation or configuration errors.
    pub fn build_timed(
        &self,
        asm_source: &str,
        cred: &EnrollmentRecord,
        config: &EncryptionConfig,
    ) -> Result<(Package, BuildTimings), EricError> {
        config.validate().map_err(EricError::Config)?;
        let mut timings = BuildTimings::default();

        let t0 = Instant::now();
        let image = self.compile(asm_source, config.compress)?;
        timings.compile = t0.elapsed();

        let (package, rest) = self.package_image(&image, cred, config)?;
        timings.sign = rest.sign;
        timings.encrypt = rest.encrypt;
        timings.package = rest.package;
        Ok((package, timings))
    }

    /// Compile, run a caller-supplied plaintext transformation over
    /// the image, then sign, encrypt, and package the *transformed*
    /// image — the layered-profile entry point.
    ///
    /// The transformation typically applies ISA-level obfuscation
    /// passes (an `eric-obf` pipeline) before the HDE encryption
    /// layer; [`SoftwareSource::prepare_image`] accepts any image, so
    /// the two layers compose without special cases. The identity
    /// closure makes this equivalent to [`SoftwareSource::build`].
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
        self.package_image(&image, cred, config).map(|(p, _)| p)
    }

    /// Sign/encrypt/package an already-compiled image.
    ///
    /// A batch of one: [`SoftwareSource::prepare_image`] followed by
    /// [`SoftwareSource::package_prepared`]. Batch provisioning calls
    /// the two halves separately so the preparation is paid once per
    /// image instead of once per device.
    ///
    /// # Errors
    ///
    /// Configuration errors (e.g. field-level on a compressed image),
    /// or an enrollment record from a different key epoch than the
    /// configuration targets.
    pub fn package_image(
        &self,
        image: &Image,
        cred: &EnrollmentRecord,
        config: &EncryptionConfig,
    ) -> Result<(Package, BuildTimings), EricError> {
        let prepared = self.prepare_image(image, config)?;
        let (package, mut timings) = self.package_prepared(&prepared, cred)?;
        // Single-device accounting folds map construction into the
        // encrypt phase, as the pre-batch pipeline did.
        timings.encrypt += prepared.prepare_time;
        // Serialize once to account packaging cost (Figure 6 measures
        // the full source-side pipeline). The batch fan-out skips this
        // — packages are serialized when they actually hit the wire.
        let t = Instant::now();
        let _wire = package.to_wire();
        timings.package = t.elapsed();
        Ok((package, timings))
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
        // share. Segmented builds also hash the plaintext leaves here:
        // leaves depend only on the payload, so the whole batch shares
        // one leaf table and per-device signing shrinks to the Merkle
        // fold.
        let t = Instant::now();
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
        let prepare_time = t.elapsed();

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
            prepare_time,
        })
    }

    /// The per-device half of packaging: allocate a fresh nonce, sign,
    /// and encrypt with the device's PUF-derived per-package key.
    ///
    /// Thread-safe: many workers may call this concurrently on one
    /// shared [`PreparedImage`]; each call draws a unique nonce from
    /// the source's counter. No wire serialization happens here (the
    /// returned `BuildTimings::package` is zero) — batch callers
    /// serialize at transmission time, and
    /// [`SoftwareSource::package_image`] accounts it for the
    /// single-device measurement.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] when `cred` was enrolled at a different
    /// key epoch than the preparation targets — the device would
    /// derive a different key and reject the package, so the mismatch
    /// is caught at the source instead.
    pub fn package_prepared(
        &self,
        prepared: &PreparedImage,
        cred: &EnrollmentRecord,
    ) -> Result<(Package, BuildTimings), EricError> {
        if cred.epoch != prepared.epoch {
            return Err(EricError::Config(format!(
                "credential for {:?} is from epoch {} but the package targets epoch {}",
                cred.device_id, cred.epoch, prepared.epoch
            )));
        }
        let mut timings = BuildTimings::default();
        let nonce = self.next_nonce();

        // Construct the package skeleton so the AAD can be signed. The
        // placeholder signature block must already be the right
        // variant: the AAD binds the wire magic, which is derived from
        // the scheme.
        let placeholder = match &prepared.signature_plan {
            SignaturePlan::Single => SignatureBlock::Single {
                encrypted_digest: [0; 32],
            },
            SignaturePlan::Segmented { segment_len, .. } => SignatureBlock::Segmented {
                encrypted_root: [0; 32],
                manifest: SegmentManifest::new(*segment_len, Vec::new()),
            },
        };
        let mut package = Package {
            cipher: prepared.cipher,
            policy: prepared.policy,
            epoch: prepared.epoch,
            nonce,
            challenge: cred.challenge.as_bytes().to_vec(),
            text_base: prepared.text_base,
            data_base: prepared.data_base,
            entry: prepared.entry,
            text_len: prepared.text_len,
            map: prepared.map.clone(),
            signature: placeholder,
            payload: prepared.payload.clone(),
        };

        // Sign. The AAD binds the nonce and challenge, so this is
        // per-device work — but its *cost* differs by scheme: v1
        // re-hashes the whole payload per device, v2 only folds the
        // shared plaintext leaves into the AAD-bound Merkle root.
        let t = Instant::now();
        let signature = match &prepared.signature_plan {
            SignaturePlan::Single => {
                let mut hasher = Sha256::new();
                hasher.update(&package.aad());
                hasher.update(&package.payload);
                hasher.finalize()
            }
            SignaturePlan::Segmented {
                segment_len,
                leaves,
            } => signed_root(&package.aad(), *segment_len, leaves),
        };
        timings.sign = t.elapsed();

        // Encrypt payload and signature material with the per-package
        // key; v2 additionally encrypts the manifest leaves as a
        // keystream continuation after the root.
        let t = Instant::now();
        let key = self.kmu.package_key(&cred.key, nonce);
        let cipher = prepared.cipher.instantiate(key.as_bytes());
        let payload_len = package.payload.len();
        transform_payload(
            &mut package.payload,
            &package.map,
            package.policy,
            package.text_len as usize,
            cipher.as_ref(),
        );
        let mut sig_bytes = *signature.as_bytes();
        transform_signature(&mut sig_bytes, payload_len, cipher.as_ref());
        package.signature = match &prepared.signature_plan {
            SignaturePlan::Single => SignatureBlock::Single {
                encrypted_digest: sig_bytes,
            },
            SignaturePlan::Segmented {
                segment_len,
                leaves,
            } => {
                let mut enc_leaves: Vec<[u8; 32]> = leaves.iter().map(|d| *d.as_bytes()).collect();
                transform_manifest_leaves(&mut enc_leaves, payload_len, cipher.as_ref());
                SignatureBlock::Segmented {
                    encrypted_root: sig_bytes,
                    manifest: SegmentManifest::new(*segment_len, enc_leaves),
                }
            }
        };
        timings.encrypt = t.elapsed();

        Ok((package, timings))
    }

    /// Zero-copy variant of [`SoftwareSource::package_prepared`]:
    /// sign, encrypt, and serialize straight into a reusable transmit
    /// buffer, with **no payload-sized allocation anywhere on the
    /// path**.
    ///
    /// Where [`SoftwareSource::package_prepared`] clones the shared
    /// plaintext payload (and the leaf table) into a [`Package`] that
    /// a caller then serializes with yet another allocation, this
    /// writes the wire frame directly:
    ///
    /// 1. the cleartext header lands in `out` first, and because the
    ///    header encoding *is* the AAD encoding (one shared writer),
    ///    the signature is computed over `&out[..aad_len]` in place;
    /// 2. the shared plaintext payload is keystream-XORed into the
    ///    frame as it is copied ([`transform_payload_into`]), and the
    ///    manifest leaves are encrypted in place after being appended.
    ///
    /// The buffer is cleared and reserved to the exact frame length,
    /// so a warm buffer from a previous same-geometry frame is
    /// refilled allocation-free. The frame parses back with
    /// [`Package::from_wire`] byte-identical to the clone-and-serialize
    /// path — the property suite pins the two paths against each
    /// other.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] when `cred` was enrolled at a different
    /// key epoch than the preparation targets (same contract as
    /// [`SoftwareSource::package_prepared`]). On error the buffer is
    /// left cleared, never with a partial frame.
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
            } => signed_root(out, *segment_len, leaves),
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
    fn timings_are_populated() {
        let src = SoftwareSource::new("vendor");
        let (_, t) = src
            .build_timed(PROGRAM, &cred(5), &EncryptionConfig::full())
            .unwrap();
        assert!(t.compile > Duration::ZERO);
        assert!(t.total() >= t.compile);
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

    #[test]
    fn zero_copy_frames_match_clone_path_byte_for_byte() {
        // Two fresh sources draw the same nonce sequence and the KMU
        // derivation is deterministic, so the clone-and-serialize path
        // and the zero-copy path must produce identical wire bytes for
        // every scheme × mode combination.
        let program = ".data\nbuf: .zero 100\n.text\nmain:\n li a0, 1\n li a7, 93\n ecall\n";
        let configs = [
            EncryptionConfig::full(),
            EncryptionConfig::full().with_legacy_signature(),
            EncryptionConfig::partial(0.5, 7),
            EncryptionConfig::partial(0.5, 7).with_legacy_signature(),
            EncryptionConfig::field_level(eric_hde::FieldPolicy::MemoryPointers),
        ];
        let mut frame = vec![0xA5; 17]; // dirty + reused across configs
        for config in &configs {
            let clone_src = SoftwareSource::new("vendor");
            let zc_src = SoftwareSource::new("vendor");
            let image = clone_src.compile(program, config.compress).unwrap();
            let clone_prep = clone_src.prepare_image(&image, config).unwrap();
            let zc_prep = zc_src.prepare_image(&image, config).unwrap();
            for seed in [31, 32] {
                let c = cred(seed);
                let (pkg, _) = clone_src.package_prepared(&clone_prep, &c).unwrap();
                let info = zc_src
                    .package_prepared_into(&zc_prep, &c, &mut frame)
                    .unwrap();
                assert_eq!(frame, pkg.to_wire(), "config {config:?}");
                assert_eq!(info.wire_len, pkg.wire_len());
                assert_eq!(info.nonce, pkg.nonce);
                assert_eq!(&frame[..info.aad_len], &pkg.aad()[..], "aad prefix");
                // And the frame parses back to the identical package.
                assert_eq!(Package::from_wire(&frame).unwrap(), pkg);
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
