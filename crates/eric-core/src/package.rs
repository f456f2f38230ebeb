//! The encrypted program package wire format.
//!
//! A package is what leaves the software source: encrypted payload,
//! encrypted signature material, the encryption map (when partial),
//! and the cleartext metadata the device needs to decrypt and load it.
//! The metadata is covered by the signature (as additional
//! authenticated data), so tampering with load addresses or the entry
//! point is detected exactly like payload tampering.
//!
//! The format is versioned by its magic:
//!
//! * **`ERIC1`** — the paper's layout: one encrypted 32-byte digest.
//!   v1 packages serialize, parse, and validate byte-for-byte as they
//!   always did; new builds pin the scheme with
//!   [`EncryptionConfig::with_legacy_signature`](crate::EncryptionConfig::with_legacy_signature).
//! * **`ERIC2`** — segmented signatures (what
//!   [`EncryptionConfig::default`](crate::EncryptionConfig) now
//!   emits): the encrypted 32-byte signed Merkle root, then
//!   `segment_len: u32 ‖ leaf_count: u32 ‖ leaves`, each leaf an
//!   encrypted 32-byte segment digest
//!   ([`eric_hde::SegmentManifest`]). Geometry tampering is caught
//!   twice: the parser rejects a manifest that does not cover the
//!   payload, and the signed root binds segment length and leaf count.
//!
//! Both versions are written and parsed by the one frame codec,
//! [`eric_hde::wire`], which the device's streaming loader reads
//! through as well.
//!
//! Figure 5 counts package growth as: +256 signature bits always, plus
//! 1 map bit per 16-bit parcel under partial encryption —
//! [`SizeReport`] reproduces that accounting (v2 additionally counts
//! the manifest it ships), and also reports the real wire size
//! including headers.

use crate::error::EricError;
use eric_crypto::cipher::CipherKind;
use eric_hde::manifest::SignatureBlock;
use eric_hde::map::CoverageMap;
use eric_hde::wire::{
    map_wire_len, write_challenge, write_map, FrameHead, FrameHeader, FrameReader,
    HEADER_FIXED_LEN, MAGIC_V1, MAGIC_V2,
};
use eric_hde::{FieldPolicy, HdeError};
use std::fmt;

/// A frame the shared parser refused is a package (framing) error, not
/// an HDE verdict on the program.
pub(crate) fn framing(e: HdeError) -> EricError {
    match e {
        HdeError::Malformed(m) => EricError::Package(m),
        other => EricError::Rejected(other),
    }
}

/// A wire frame the delivery layers carry: a full `ERIC1`/`ERIC2`
/// [`Package`] or an `ERIC2D` [`DeltaPackage`](crate::DeltaPackage).
///
/// [`Channel`](crate::Channel), [`LossyChannel`](crate::LossyChannel)
/// and [`ResilientDelivery`](crate::ResilientDelivery) are written once
/// over this trait, so the full and delta paths cannot drift apart.
pub trait Frame: Sized {
    /// Deserialize from wire bytes.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] naming the field the parser refused.
    fn from_wire(wire: &[u8]) -> Result<Self, EricError>;

    /// Serialize into a reusable transmit buffer (cleared first).
    fn serialize_into(&self, out: &mut Vec<u8>);

    /// The ciphertext at the tail of the wire frame: what a payload
    /// substitution overwrites.
    fn payload(&self) -> &[u8];
}

// The inherent methods stay: callers that never import `Frame` use them.
impl Frame for Package {
    fn from_wire(wire: &[u8]) -> Result<Self, EricError> {
        Package::from_wire(wire)
    }

    fn serialize_into(&self, out: &mut Vec<u8>) {
        Package::serialize_into(self, out);
    }

    fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// An encrypted, signed program package.
#[derive(Clone, PartialEq)]
pub struct Package {
    /// Cipher the payload/signature are encrypted with.
    pub cipher: CipherKind,
    /// Field-level policy, when field-level encryption was used.
    pub policy: Option<FieldPolicy>,
    /// Key epoch the package targets.
    pub epoch: u64,
    /// Per-package keystream nonce.
    pub nonce: u64,
    /// PUF challenge identifying the key (public).
    pub challenge: Vec<u8>,
    /// Load address of the text section.
    pub text_base: u64,
    /// Load address of the data section.
    pub data_base: u64,
    /// Entry point.
    pub entry: u64,
    /// Text length in bytes (prefix of the payload).
    pub text_len: u32,
    /// Encryption coverage map.
    pub map: CoverageMap,
    /// The signature material, encrypted: one digest (v1) or the
    /// signed Merkle root plus segment manifest (v2).
    pub signature: SignatureBlock,
    /// Encrypted payload: text ‖ data.
    pub payload: Vec<u8>,
}

impl fmt::Debug for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Package {{ {} bytes payload ({} text), cipher: {}, map: {:?}, epoch: {}, nonce: {} }}",
            self.payload.len(),
            self.text_len,
            self.cipher,
            self.map,
            self.epoch,
            self.nonce
        )
    }
}

impl Package {
    /// The wire magic for this package's signature scheme.
    fn magic(&self) -> &'static [u8; 5] {
        match self.signature {
            SignatureBlock::Single { .. } => MAGIC_V1,
            SignatureBlock::Segmented { .. } => MAGIC_V2,
        }
    }

    /// This package's header fields, as the shared wire codec writes
    /// them ([`FrameHeader`]). [`Package::aad`],
    /// [`Package::serialize_into`] and the zero-copy packager
    /// (`SoftwareSource::package_prepared_into`) all write the header
    /// through it, so the bytes the signature covers and the bytes that
    /// hit the wire can never drift apart. That identity is what lets
    /// the zero-copy path sign `&frame[..aad_len]` in place.
    pub(crate) fn header(&self) -> FrameHeader {
        FrameHeader {
            magic: self.magic(),
            cipher: self.cipher,
            policy: self.policy,
            epoch: self.epoch,
            nonce: self.nonce,
            text_base: self.text_base,
            data_base: self.data_base,
            entry: self.entry,
            text_len: self.text_len,
            payload_len: self.payload.len() as u32,
        }
    }

    /// The canonical additional-authenticated-data encoding of the
    /// cleartext metadata. Both the packager (when signing) and the
    /// HDE (when validating) hash exactly these bytes before the
    /// payload. The magic is included, so a v1 digest can never be
    /// replayed as (or confused with) a v2 root. These are exactly the
    /// header prefix of the wire frame, byte for byte.
    pub fn aad(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_FIXED_LEN + self.challenge.len());
        self.header().write(&mut out);
        write_challenge(&mut out, &self.challenge);
        out
    }

    /// Serialized size in bytes, without serializing.
    ///
    /// Batch reporting sums this over thousands of packages; computing
    /// it arithmetically avoids a throwaway [`Package::to_wire`]
    /// allocation per package. The accounting covers both wire
    /// versions: a default build ships a segmented (`ERIC2`) signature
    /// block — root plus manifest — while a
    /// [`with_legacy_signature`](crate::EncryptionConfig::with_legacy_signature)
    /// build ships the flat 32-byte `ERIC1` digest.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Device, EncryptionConfig, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(1, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let program = "main:\n li a0, 0\n li a7, 93\n ecall\n";
    ///
    /// // Default build: segmented (ERIC2) signature block.
    /// let package = source
    ///     .build(program, &cred, &EncryptionConfig::full())
    ///     .unwrap();
    /// assert!(package.signature.is_segmented());
    /// assert_eq!(package.wire_len(), package.to_wire().len());
    ///
    /// // Legacy build: the paper's flat ERIC1 digest, 40 bytes smaller
    /// // for this single-segment payload (root+geometry overhead).
    /// let legacy = source
    ///     .build(program, &cred, &EncryptionConfig::full().with_legacy_signature())
    ///     .unwrap();
    /// assert_eq!(legacy.wire_len(), legacy.to_wire().len());
    /// assert_eq!(legacy.wire_len() + 40, package.wire_len());
    /// ```
    pub fn wire_len(&self) -> usize {
        HEADER_FIXED_LEN
            + self.challenge.len()
            + map_wire_len(&self.map)
            + self.signature.wire_len()
            + self.payload.len()
    }

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.serialize_into(&mut buf);
        buf
    }

    /// Serialize into a reusable transmit buffer.
    ///
    /// The buffer is cleared, then reserved to exactly
    /// [`Package::wire_len`] — a warm buffer from a previous frame of
    /// the same geometry is refilled with **zero** allocations, which
    /// is what keeps steady-state fleet packaging off the allocator.
    /// The bytes written are identical to [`Package::to_wire`]
    /// regardless of the buffer's prior contents, length, or capacity.
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
    ///     .build("main:\n li a0, 0\n li a7, 93\n ecall\n", &cred, &EncryptionConfig::full())
    ///     .unwrap();
    ///
    /// let mut frame = vec![0xFF; 7]; // dirty, undersized: contents never leak
    /// package.serialize_into(&mut frame);
    /// assert_eq!(frame, package.to_wire());
    /// ```
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_len());
        self.header().write(out);
        write_challenge(out, &self.challenge);
        write_map(out, &self.map);
        match &self.signature {
            SignatureBlock::Single { encrypted_digest } => {
                out.extend_from_slice(encrypted_digest);
            }
            SignatureBlock::Segmented {
                encrypted_root,
                manifest,
            } => {
                out.extend_from_slice(encrypted_root);
                out.extend_from_slice(&manifest.segment_len().to_le_bytes());
                out.extend_from_slice(&(manifest.segments() as u32).to_le_bytes());
                for leaf in manifest.leaves() {
                    out.extend_from_slice(leaf);
                }
            }
        }
        out.extend_from_slice(&self.payload);
        debug_assert_eq!(out.len(), self.wire_len());
    }

    /// Deserialize from wire bytes, through the one frame parser
    /// ([`FrameReader::head`]) every device entry point shares.
    ///
    /// # Errors
    ///
    /// Returns [`EricError::Package`] naming the field for bad magic,
    /// unknown cipher or policy identifiers, a non-canonical coverage
    /// map, bad manifest geometry, truncated input, or bytes after the
    /// end of the frame.
    pub fn from_wire(wire: &[u8]) -> Result<Package, EricError> {
        let mut rest = wire;
        let FrameHead {
            header,
            challenge,
            map,
            signature,
        } = FrameReader::new(&mut rest).head().map_err(framing)?;
        let (payload, tail) = rest
            .split_at_checked(header.payload_len as usize)
            .ok_or_else(|| EricError::Package("truncated at payload".into()))?;
        FrameReader::new(tail).end().map_err(framing)?;
        Ok(Package {
            cipher: header.cipher,
            policy: header.policy,
            epoch: header.epoch,
            nonce: header.nonce,
            challenge,
            text_base: header.text_base,
            data_base: header.data_base,
            entry: header.entry,
            text_len: header.text_len,
            map,
            signature,
            payload: payload.to_vec(),
        })
    }

    /// Figure 5's size accounting for this package.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            plain_bytes: self.payload.len(),
            signature_bits: 8 * self.signature.wire_len(),
            map_bits: match &self.map {
                CoverageMap::Full => 0,
                CoverageMap::Partial(bm) => bm.parcels(),
            },
            wire_bytes: self.wire_len(),
        }
    }
}

/// Package-size accounting in the paper's terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// Size of the compiled program (text + data) in bytes.
    pub plain_bytes: usize,
    /// Signature bits added: 256 for a v1 digest (the paper's
    /// accounting); a v2 package also counts its root + manifest.
    pub signature_bits: usize,
    /// Map bits added (1 per 16-bit parcel; 0 for full encryption).
    pub map_bits: usize,
    /// Actual serialized package size (headers included).
    pub wire_bytes: usize,
}

impl SizeReport {
    /// The paper's "program package size": program + signature + map.
    pub fn package_bytes(&self) -> usize {
        self.plain_bytes + (self.signature_bits + self.map_bits).div_ceil(8)
    }

    /// Relative growth over the plain program, in percent (the Figure 5
    /// y-axis).
    pub fn increase_pct(&self) -> f64 {
        100.0 * (self.package_bytes() as f64 - self.plain_bytes as f64) / self.plain_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_hde::manifest::SegmentManifest;
    use eric_hde::map::ParcelBitmap;

    fn sample(map: CoverageMap) -> Package {
        Package {
            cipher: CipherKind::Xor,
            policy: None,
            epoch: 2,
            nonce: 77,
            challenge: vec![0x5A; 32],
            text_base: 0x8000_0000,
            data_base: 0x8010_0000,
            entry: 0x8000_0000,
            text_len: 8,
            map,
            signature: SignatureBlock::Single {
                encrypted_digest: [9; 32],
            },
            payload: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        }
    }

    fn sample_v2(map: CoverageMap) -> Package {
        let mut p = sample(map);
        // 10-byte payload, 4-byte segments -> 3 leaves.
        p.signature = SignatureBlock::Segmented {
            encrypted_root: [7; 32],
            manifest: SegmentManifest::new(4, vec![[1; 32], [2; 32], [3; 32]]),
        };
        p
    }

    #[test]
    fn wire_roundtrip_full() {
        let p = sample(CoverageMap::Full);
        let wire = p.to_wire();
        let q = Package::from_wire(&wire).expect("parses");
        assert_eq!(p, q);
    }

    #[test]
    fn wire_roundtrip_v2_segmented() {
        let p = sample_v2(CoverageMap::Full);
        let wire = p.to_wire();
        assert_eq!(&wire[..5], b"ERIC2");
        let q = Package::from_wire(&wire).expect("parses");
        assert_eq!(p, q);
        // And with a partial map in front of the signature block.
        let mut bm = ParcelBitmap::new(5);
        bm.set(1);
        let p = sample_v2(CoverageMap::Partial(bm));
        let q = Package::from_wire(&p.to_wire()).expect("parses");
        assert_eq!(p, q);
    }

    #[test]
    fn v2_truncations_and_bad_geometry_rejected() {
        let wire = sample_v2(CoverageMap::Full).to_wire();
        for len in 0..wire.len() {
            assert!(
                Package::from_wire(&wire[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
        assert!(Package::from_wire(&wire).is_ok());
        // Locate the segment length / leaf count right after the map
        // tag (header + challenge + 1-byte full-map tag + 32-byte root).
        let geom = 5 + 1 + 1 + 8 * 5 + 4 + 4 + 2 + 32 + 1 + 32;
        // Misaligned segment length.
        let mut w = wire.clone();
        w[geom] = 6;
        assert!(Package::from_wire(&w).is_err(), "segment_len 6 accepted");
        // Zero segment length.
        let mut w = wire.clone();
        w[geom..geom + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(Package::from_wire(&w).is_err(), "segment_len 0 accepted");
        // Leaf count that no longer covers the payload.
        let mut w = wire.clone();
        w[geom + 4..geom + 8].copy_from_slice(&2u32.to_le_bytes());
        assert!(Package::from_wire(&w).is_err(), "short manifest accepted");
    }

    #[test]
    fn v2_forged_lengths_rejected_before_allocation() {
        // Claim a ~4 GiB payload with a *consistent* ~2^30-leaf
        // manifest: the geometry check alone would pass (both lengths
        // are forged together), so the parser must notice the bytes
        // are not on the wire before sizing any allocation from them.
        let wire = sample_v2(CoverageMap::Full).to_wire();
        let payload_len_at = 5 + 1 + 1 + 8 * 5 + 4;
        let geom = 5 + 1 + 1 + 8 * 5 + 4 + 4 + 2 + 32 + 1 + 32;
        let mut w = wire.clone();
        let forged_payload: u32 = 0xFFFF_FFF0;
        w[payload_len_at..payload_len_at + 4].copy_from_slice(&forged_payload.to_le_bytes());
        let leaves = (forged_payload as u64).div_ceil(4) as u32; // segment_len = 4
        w[geom + 4..geom + 8].copy_from_slice(&leaves.to_le_bytes());
        assert!(Package::from_wire(&w).is_err(), "forged lengths accepted");
    }

    #[test]
    fn wire_len_matches_serialization_exactly() {
        let full = sample(CoverageMap::Full);
        assert_eq!(full.wire_len(), full.to_wire().len());
        let mut bm = ParcelBitmap::new(37);
        bm.set(3);
        let partial = sample(CoverageMap::Partial(bm));
        assert_eq!(partial.wire_len(), partial.to_wire().len());
        let v2 = sample_v2(CoverageMap::Full);
        assert_eq!(v2.wire_len(), v2.to_wire().len());
    }

    #[test]
    fn wire_roundtrip_partial_and_policy() {
        let mut bm = ParcelBitmap::new(5);
        bm.set(0);
        bm.set(4);
        let mut p = sample(CoverageMap::Partial(bm));
        p.policy = Some(FieldPolicy::MemoryPointers);
        let q = Package::from_wire(&p.to_wire()).expect("parses");
        assert_eq!(p, q);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = sample(CoverageMap::Full).to_wire();
        wire[0] = b'X';
        assert!(Package::from_wire(&wire).is_err());
    }

    #[test]
    fn truncations_rejected_everywhere() {
        let wire = sample(CoverageMap::Full).to_wire();
        for len in 0..wire.len() {
            assert!(
                Package::from_wire(&wire[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
        assert!(Package::from_wire(&wire).is_ok());
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut wire = sample(CoverageMap::Full).to_wire();
        wire[5] = 0xEE; // cipher id
        assert!(Package::from_wire(&wire).is_err());
        let mut wire = sample(CoverageMap::Full).to_wire();
        wire[6] = 0x7E; // policy id (not 0xFF, not known)
        assert!(Package::from_wire(&wire).is_err());
    }

    #[test]
    fn aad_is_exactly_the_wire_header_prefix() {
        // The zero-copy packager signs `&frame[..aad_len]` in place;
        // that is only sound while the AAD encoding and the wire
        // header stay byte-identical.
        for p in [sample(CoverageMap::Full), sample_v2(CoverageMap::Full)] {
            let aad = p.aad();
            let wire = p.to_wire();
            assert_eq!(&wire[..aad.len()], &aad[..]);
            assert_eq!(aad.len(), HEADER_FIXED_LEN + p.challenge.len());
        }
    }

    #[test]
    fn serialize_into_reused_buffers_matches_to_wire() {
        let mut bm = ParcelBitmap::new(5);
        bm.set(2);
        for p in [
            sample(CoverageMap::Full),
            sample(CoverageMap::Partial(bm.clone())),
            sample_v2(CoverageMap::Full),
            sample_v2(CoverageMap::Partial(bm)),
        ] {
            let want = p.to_wire();
            for mut buf in [
                Vec::new(),                  // fresh
                vec![0xEE; 3],               // dirty, undersized
                vec![0xEE; want.len() * 3],  // dirty, oversized
                Vec::with_capacity(1 << 16), // over-reserved
            ] {
                p.serialize_into(&mut buf);
                assert_eq!(buf, want);
                // A warm same-geometry reuse must not grow the buffer.
                let cap = buf.capacity();
                p.serialize_into(&mut buf);
                assert_eq!(buf, want);
                assert_eq!(buf.capacity(), cap, "warm reuse reallocated");
            }
        }
    }

    #[test]
    fn aad_changes_with_metadata() {
        let p = sample(CoverageMap::Full);
        let mut q = p.clone();
        q.entry += 4;
        assert_ne!(p.aad(), q.aad());
        let mut r = p.clone();
        r.nonce += 1;
        assert_ne!(p.aad(), r.aad());
        // The scheme is bound through the magic: same metadata under
        // v1 and v2 must never hash the same.
        assert_ne!(p.aad(), sample_v2(CoverageMap::Full).aad());
    }

    #[test]
    fn v2_size_report_counts_the_manifest() {
        let p = sample_v2(CoverageMap::Full);
        let r = p.size_report();
        // root (32) + segment_len/leaf_count (8) + 3 leaves (96).
        assert_eq!(r.signature_bits, 8 * (32 + 8 + 96));
        assert_eq!(r.wire_bytes, p.to_wire().len());
    }

    #[test]
    fn size_report_full_matches_paper_accounting() {
        let p = sample(CoverageMap::Full);
        let r = p.size_report();
        assert_eq!(r.plain_bytes, 10);
        assert_eq!(r.map_bits, 0);
        // +256 bits = +32 bytes.
        assert_eq!(r.package_bytes(), 42);
        assert!(r.increase_pct() > 0.0);
    }

    #[test]
    fn size_report_partial_adds_one_bit_per_parcel() {
        let bm = ParcelBitmap::new(5);
        let p = sample(CoverageMap::Partial(bm));
        let r = p.size_report();
        assert_eq!(r.map_bits, 5);
        assert_eq!(r.package_bytes(), 10 + (256usize + 5).div_ceil(8));
    }
}
