//! Delta OTA updates: ship only the segments that changed.
//!
//! A segmented (`ERIC2`) build already digests the payload per segment,
//! so two prepared images can be diffed at segment granularity by
//! comparing their plaintext leaf tables. The vendor frames only the
//! changed segments in an **`ERIC2D`** delta frame; the device rebuilds
//! the new leaf table from its *cached sibling digests* plus the
//! shipped replacement leaves, authenticates it against the signed
//! root, checks each shipped segment against its leaf, and keeps every
//! other segment of its installed plaintext. For a fleet-wide
//! 1%-of-segments fix this turns a full-image push into a frame a
//! couple of orders of magnitude smaller, and the device's work shrinks
//! with it.
//!
//! # The `ERIC2D` wire frame
//!
//! ```text
//! magic "ERIC2D" ‖ cipher ‖ policy ‖ epoch ‖ nonce ‖
//! text_base ‖ data_base ‖ entry ‖ text_len ‖ payload_len ‖
//! base_payload_len ‖ segment_len ‖ changed_count ‖
//! challenge_len ‖ challenge ‖
//! encrypted base_digest (32) ‖ changed segment indices (u32 LE each) ‖
//! map block
//! ---------------------------- end of AAD ----------------------------
//! encrypted root (32) ‖ changed leaves (32 each) ‖
//! changed segments (each encrypted at its absolute payload offset)
//! ```
//!
//! Everything through the map block is the frame's additional
//! authenticated data, so the signed root binds every map bit,
//! including those over segments the delta does not ship. The signed
//! root is [`signed_root`]`(aad, segment_len, full_new_leaf_table)` —
//! the root binds the **whole** new table, not just the shipped diff,
//! so a frame that omits, duplicates, or reorders a changed segment
//! cannot validate. The *base* fingerprint ships encrypted inside the AAD:
//! cleartext would hand an eavesdropper a confirmation oracle for the
//! installed image, and keeping it inside the AAD lets the root bind it.
//!
//! # Keystream discipline
//!
//! The delta frame consumes the *same* keystream positions the
//! equivalent full frame would: each changed segment is encrypted at
//! its absolute payload offset, the root at `payload_len`, and changed
//! leaf `i` at its natural manifest slot
//! ([`manifest_stream_offset`]` + 32·i`). The base fingerprint takes
//! the first position past the full manifest, which no full-frame
//! component uses. Disjointness is preserved, and a delta never reuses
//! a full frame's keystream anyway — every frame draws a fresh nonce.
//!
//! # Fail-closed patching
//!
//! [`Device::apply_delta`](crate::Device::apply_delta) authenticates
//! the reconstructed manifest *before* decrypting any payload byte and
//! verifies each patched segment against its authenticated leaf. The
//! installed image is borrowed immutably and a new [`InstalledImage`]
//! is returned only on full success — there is no partially-patched
//! state to observe, on any error path.
//!
//! # A delta costs what it changes
//!
//! The patched image owns one new buffer per shipped segment and shares
//! every other segment with its base, so a 3-segment delta to a 1 MiB
//! image allocates 3 segments, not 1 MiB. Its leaf table and
//! fingerprint are the authenticated table and the root authentication
//! folded: one Merkle fold per delta, and no second hash of the image.
//! Whatever its delta history, an image pins at most twice its payload:
//! the buffer it was installed from, while a segment still shares it,
//! plus one buffer per shipped segment. A kept segment whose buffer is
//! longer than the new payload (the install buffer, after a shrink) is
//! copied out rather than shared.
//!
//! The device does not re-hash the patched image, because that would
//! guard nothing it relies on:
//!
//! * every byte of an [`InstalledImage`] was decrypted by this device's
//!   HDE and matched an authenticated leaf when it arrived, at install
//!   or in the delta that shipped it;
//! * its storage is crate-private and never mutated afterwards: a delta
//!   builds a new image, sharing the base's segments, never writing
//!   them;
//! * [`Device::run_installed`](crate::Device::run_installed) already
//!   executes an installed image without re-hashing it.
//!
//! The paper's HDE keeps a program encrypted "until [it is] loaded into
//! the main memory for execution" (§III-2) and trusts the plaintext it
//! releases there. The cached leaves live in that same memory, so an
//! attacker who could rewrite the plaintext could rewrite the leaves
//! too, and a re-hash against them would not stop it. The re-hash
//! stays as an oracle in debug builds: `apply` hashes the patched image
//! segment by segment, with no gather buffer, and asserts that it folds
//! to the signed root, so every delta test checks every image it gets
//! back.

use crate::error::EricError;
use crate::package::{framing, Frame};
use crate::source::{PreparedImage, SignaturePlan, SoftwareSource};
use crate::PackagedFrame;
use eric_crypto::cipher::{CipherKind, KeystreamCipher};
use eric_crypto::sha256::{tree, Digest};
use eric_hde::loader::SecureLoader;
use eric_hde::manifest::signed_root;
use eric_hde::map::CoverageMap;
use eric_hde::transform::{manifest_stream_offset, transform_region, transform_signature};
use eric_hde::verify::{FrameParams, SegmentVerifier};
use eric_hde::wire::{map_wire_len, write_challenge, write_map, FrameHeader, FrameReader};
use eric_hde::{FieldPolicy, HdeError};
use eric_puf::crp::{Challenge, EnrollmentRecord};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Wire magic for a delta frame: "ERIC2" + delta marker.
pub(crate) const DELTA_MAGIC: &[u8; 6] = b"ERIC2D";

/// Fixed-width prefix of the delta header: magic + cipher + policy +
/// epoch + nonce + text_base + data_base + entry + text_len +
/// payload_len + base_payload_len + segment_len + changed_count +
/// challenge_len.
pub(crate) const DELTA_HEADER_FIXED_LEN: usize =
    6 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 2;

/// Keystream position of the encrypted base fingerprint: the first
/// position past where a full frame's manifest would end, so payload,
/// root, leaves, and base digest all draw disjoint ranges.
pub(crate) fn base_digest_stream_offset(payload_len: usize, leaf_count: usize) -> u64 {
    manifest_stream_offset(payload_len) + 32 * leaf_count as u64
}

/// Byte length of the changed-segment region for a given index set.
fn changed_payload_bytes(changed: &[u32], payload_len: usize, segment_len: usize) -> usize {
    changed
        .iter()
        .map(|&i| segment_len.min(payload_len - i as usize * segment_len))
        .sum()
}

/// The `ERIC2D` header through the coverage map block — byte for byte
/// the delta frame's AAD. [`DeltaPackage::aad`],
/// its [`Frame::serialize_into`] and the zero-copy packager
/// ([`SoftwareSource::package_delta_into`]) all write it through here;
/// the fields it shares with a full frame go through the full frame's
/// [`FrameHeader`].
struct DeltaHeader<'a> {
    header: FrameHeader,
    base_payload_len: u32,
    segment_len: u32,
    challenge: &'a [u8],
    encrypted_base_digest: [u8; 32],
    changed: &'a [u32],
    map: &'a CoverageMap,
}

impl DeltaHeader<'_> {
    /// Serialized length of the header: the frame's AAD length.
    fn wire_len(&self) -> usize {
        DELTA_HEADER_FIXED_LEN
            + self.challenge.len()
            + 32
            + 4 * self.changed.len()
            + map_wire_len(self.map)
    }

    /// Serialized length of the whole frame: the header, then the
    /// root, one leaf per changed segment, and `segment_bytes` of
    /// changed-segment payload.
    fn frame_len(&self, segment_bytes: usize) -> usize {
        self.wire_len() + 32 + 32 * self.changed.len() + segment_bytes
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.header.write(out);
        out.extend_from_slice(&self.base_payload_len.to_le_bytes());
        out.extend_from_slice(&self.segment_len.to_le_bytes());
        out.extend_from_slice(&(self.changed.len() as u32).to_le_bytes());
        write_challenge(out, self.challenge);
        out.extend_from_slice(&self.encrypted_base_digest);
        for &i in self.changed {
            out.extend_from_slice(&i.to_le_bytes());
        }
        write_map(out, self.map);
    }
}

/// A segment-granular diff between two prepared images, ready to be
/// packaged per device.
///
/// Device-independent (like [`PreparedImage`]): built once by
/// [`SoftwareSource::prepare_delta`], then fanned out with
/// [`SoftwareSource::package_delta`] /
/// [`SoftwareSource::package_delta_into`] — each call draws a fresh
/// nonce and encrypts under that device's PUF-derived key.
#[derive(Clone)]
pub struct PreparedDelta {
    pub(crate) cipher: CipherKind,
    pub(crate) policy: Option<FieldPolicy>,
    pub(crate) epoch: u64,
    pub(crate) text_base: u64,
    pub(crate) data_base: u64,
    pub(crate) entry: u64,
    pub(crate) text_len: u32,
    pub(crate) payload_len: u32,
    pub(crate) base_payload_len: u32,
    pub(crate) segment_len: u32,
    /// Strictly ascending indices of segments that differ.
    pub(crate) changed: Vec<u32>,
    /// The target image's coverage map (the patched image is the
    /// target image, so its map travels with the delta).
    pub(crate) map: CoverageMap,
    /// Plaintext bytes of the changed segments, concatenated in index
    /// order.
    pub(crate) segments: Vec<u8>,
    /// The target image's full plaintext leaf table (shared across the
    /// batch; the signed root folds all of it).
    pub(crate) new_leaves: Vec<Digest>,
    /// Merkle root of `new_leaves`, folded once here: each frame binds
    /// it to its own AAD without folding the table again.
    pub(crate) new_root: Digest,
    /// Merkle root of the *base* image's leaf table: the fingerprint
    /// the device must match before patching.
    pub(crate) base_digest: Digest,
}

impl fmt::Debug for PreparedDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PreparedDelta {{ {}/{} segments changed, {} bytes, epoch: {} }}",
            self.changed.len(),
            self.new_leaves.len(),
            self.segments.len(),
            self.epoch
        )
    }
}

impl PreparedDelta {
    /// Number of segments that differ between base and target.
    pub fn changed_segments(&self) -> usize {
        self.changed.len()
    }

    /// Total segments in the target image.
    pub fn total_segments(&self) -> usize {
        self.new_leaves.len()
    }

    /// Plaintext bytes the delta actually carries.
    pub fn changed_bytes(&self) -> usize {
        self.segments.len()
    }

    /// Target image payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload_len as usize
    }

    /// Key epoch every delta frame from this preparation will target.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when base and target are segment-identical (the frame
    /// would carry metadata only).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

/// A parsed `ERIC2D` delta frame (the delta analogue of [`crate::Package`]).
#[derive(Clone, PartialEq)]
pub struct DeltaPackage {
    /// Cipher the payload/signature material is encrypted with.
    pub cipher: CipherKind,
    /// Field-level policy of the *target* image, when field-level
    /// encryption was used.
    pub policy: Option<FieldPolicy>,
    /// Key epoch the delta targets.
    pub epoch: u64,
    /// Per-frame keystream nonce.
    pub nonce: u64,
    /// PUF challenge identifying the key (public).
    pub challenge: Vec<u8>,
    /// Load address of the target image's text section.
    pub text_base: u64,
    /// Load address of the target image's data section.
    pub data_base: u64,
    /// Entry point of the target image.
    pub entry: u64,
    /// Text length of the target image.
    pub text_len: u32,
    /// Payload length of the *target* image.
    pub payload_len: u32,
    /// Payload length of the *base* image the delta applies to.
    pub base_payload_len: u32,
    /// Segment length shared by base and target manifests.
    pub segment_len: u32,
    /// Strictly ascending indices of the segments this delta replaces.
    pub changed: Vec<u32>,
    /// The base image's Merkle fingerprint, encrypted (part of the
    /// AAD, so the signed root binds it).
    pub encrypted_base_digest: [u8; 32],
    /// The target image's encryption coverage map (the AAD's last
    /// block, so the signed root binds it).
    pub map: CoverageMap,
    /// The signed Merkle root over the full new leaf table, encrypted.
    pub encrypted_root: [u8; 32],
    /// Replacement leaf digests for the changed segments, encrypted,
    /// in index order.
    pub changed_leaves: Vec<[u8; 32]>,
    /// Changed-segment ciphertext, concatenated in index order (each
    /// segment encrypted at its absolute target-payload offset).
    pub segments: Vec<u8>,
}

impl fmt::Debug for DeltaPackage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DeltaPackage {{ {} changed segments, {} bytes, {} -> {} byte image, epoch: {}, nonce: {} }}",
            self.changed.len(),
            self.segments.len(),
            self.base_payload_len,
            self.payload_len,
            self.epoch,
            self.nonce
        )
    }
}

impl DeltaPackage {
    /// The canonical AAD encoding: byte for byte the wire frame's
    /// header prefix, through the coverage map block.
    pub fn aad(&self) -> Vec<u8> {
        let header = self.header();
        let mut out = Vec::with_capacity(header.wire_len());
        header.write(&mut out);
        out
    }

    fn header(&self) -> DeltaHeader<'_> {
        DeltaHeader {
            header: FrameHeader {
                magic: DELTA_MAGIC,
                cipher: self.cipher,
                policy: self.policy,
                epoch: self.epoch,
                nonce: self.nonce,
                text_base: self.text_base,
                data_base: self.data_base,
                entry: self.entry,
                text_len: self.text_len,
                payload_len: self.payload_len,
            },
            base_payload_len: self.base_payload_len,
            segment_len: self.segment_len,
            challenge: &self.challenge,
            encrypted_base_digest: self.encrypted_base_digest,
            changed: &self.changed,
            map: &self.map,
        }
    }

    /// Serialized size in bytes, without serializing.
    pub fn wire_len(&self) -> usize {
        self.header().frame_len(self.segments.len())
    }

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.serialize_into(&mut buf);
        buf
    }

    fn read(wire: &mut FrameReader<&[u8]>) -> Result<DeltaPackage, HdeError> {
        let err = |m: &str| HdeError::Malformed(m.to_string());
        if &wire.array::<6>("magic")? != DELTA_MAGIC {
            return Err(err("bad magic"));
        }
        let header = wire.header(DELTA_MAGIC)?;
        let base_payload_len = wire.u32("base payload length")?;
        let segment_len = wire.u32("segment length")?;
        if segment_len == 0 || !segment_len.is_multiple_of(4) {
            return Err(err("bad segment length"));
        }
        let changed_count = wire.u32("changed count")? as usize;
        let payload_len = header.payload_len as usize;
        let new_count = payload_len.div_ceil(segment_len as usize);
        if changed_count > new_count {
            return Err(err("delta changes more segments than the image has"));
        }
        let challenge = wire.challenge()?;
        let encrypted_base_digest = wire.array("base digest")?;
        // The index table, leaves and segments are sized by an
        // attacker-controlled count: each grows only as its entries
        // arrive.
        let mut changed: Vec<u32> = Vec::new();
        for _ in 0..changed_count {
            let i = wire.u32("segment index")?;
            if i as usize >= new_count {
                return Err(err("segment index out of range"));
            }
            if changed.last().is_some_and(|&last| i <= last) {
                return Err(err("segment index table not strictly ascending"));
            }
            changed.push(i);
        }
        let map = wire.map(payload_len)?;
        let encrypted_root = wire.array("signed root")?;
        let mut changed_leaves = Vec::new();
        for _ in 0..changed_count {
            changed_leaves.push(wire.array("changed leaf")?);
        }
        let seg_bytes = changed_payload_bytes(&changed, payload_len, segment_len as usize);
        let segments = wire.bytes(seg_bytes, "delta payload")?;
        wire.end()?;
        Ok(DeltaPackage {
            cipher: header.cipher,
            policy: header.policy,
            epoch: header.epoch,
            nonce: header.nonce,
            challenge,
            text_base: header.text_base,
            data_base: header.data_base,
            entry: header.entry,
            text_len: header.text_len,
            payload_len: header.payload_len,
            base_payload_len,
            segment_len,
            changed,
            encrypted_base_digest,
            map,
            encrypted_root,
            changed_leaves,
            segments,
        })
    }
}

impl Frame for DeltaPackage {
    /// Deserialize an `ERIC2D` frame.
    ///
    /// Structural validation happens here, in wire order, through the
    /// field and coverage-map readers of the one frame parser
    /// ([`FrameReader`]), which [`crate::Package::from_wire`] shares:
    /// geometry claims are checked before anything is read under them,
    /// and every buffer grows only with the bytes actually present.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] naming the offending field for bad
    /// magic, unknown identifiers, bad geometry, a non-canonical
    /// coverage map, a non-ascending or out-of-range index table,
    /// truncation, or bytes after the end of the frame.
    fn from_wire(wire: &[u8]) -> Result<DeltaPackage, EricError> {
        Self::read(&mut FrameReader::new(wire)).map_err(framing)
    }

    /// Serialize into a reusable transmit buffer (cleared first; same
    /// contract as [`crate::Package::serialize_into`]).
    fn serialize_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_len());
        self.header().write(out);
        out.extend_from_slice(&self.encrypted_root);
        for leaf in &self.changed_leaves {
            out.extend_from_slice(leaf);
        }
        out.extend_from_slice(&self.segments);
        debug_assert_eq!(out.len(), self.wire_len());
    }

    /// The changed-segment ciphertext, which ends the frame.
    fn payload(&self) -> &[u8] {
        &self.segments
    }
}

/// One segment of installed plaintext: `range` of a buffer that other
/// segments, and other images, may share. Never written after it is
/// built.
#[derive(Clone)]
struct Segment {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Segment {
    /// A segment that is the whole of its own buffer.
    fn owned(bytes: Vec<u8>) -> Segment {
        Segment {
            range: 0..bytes.len(),
            buf: Arc::new(bytes),
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

/// The plaintext of an [`InstalledImage`], segment by segment.
#[derive(Clone)]
pub(crate) struct Payload {
    segments: Vec<Segment>,
    len: usize,
}

impl Payload {
    /// Take the HDE's verified plaintext as it is: the buffer moves
    /// into one shared allocation, uncopied, and each segment is a view
    /// of it.
    pub(crate) fn new(plaintext: Vec<u8>, segment_len: usize) -> Payload {
        let len = plaintext.len();
        let buf = Arc::new(plaintext);
        let segments = (0..len)
            .step_by(segment_len)
            .map(|start| Segment {
                buf: Arc::clone(&buf),
                range: start..len.min(start + segment_len),
            })
            .collect();
        Payload { segments, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The plaintext in payload order, one slice per segment.
    pub(crate) fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(Segment::bytes)
    }
}

/// A verified plaintext image resident on a device, with the cached
/// per-segment digests that make delta updates possible.
///
/// Produced by [`Device::install`](crate::Device::install) (full
/// frame) or [`Device::apply_delta`](crate::Device::apply_delta)
/// (patch); run with
/// [`Device::run_installed`](crate::Device::run_installed). The cached
/// leaf table is what lets the device verify a delta's Merkle root
/// without re-hashing the unchanged segments, and the cached
/// fingerprint is the root that table was authenticated against.
///
/// The plaintext is copy-on-write, segment by segment: an install keeps
/// the HDE's plaintext buffer without copying it, and a patched image
/// shares its unchanged segments with its base (see
/// [A delta costs what it changes](crate::delta#a-delta-costs-what-it-changes)).
/// Cloning an image copies no plaintext.
#[derive(Clone)]
pub struct InstalledImage {
    pub(crate) payload: Payload,
    pub(crate) text_len: usize,
    pub(crate) text_base: u64,
    pub(crate) data_base: u64,
    pub(crate) entry: u64,
    pub(crate) segment_len: u32,
    pub(crate) leaves: Vec<Digest>,
    /// `tree::merkle_root(&leaves)`, as the HDE folded it when it
    /// authenticated the table.
    pub(crate) fingerprint: Digest,
}

impl fmt::Debug for InstalledImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InstalledImage {{ {} bytes ({} text), {} segments of {} }}",
            self.payload.len(),
            self.text_len,
            self.leaves.len(),
            self.segment_len
        )
    }
}

impl InstalledImage {
    /// Merkle fingerprint of the installed plaintext: two devices hold
    /// the same image iff their fingerprints match, and a delta frame
    /// names the fingerprint it expects to patch. Cached, not folded
    /// per call.
    pub fn fingerprint(&self) -> Digest {
        self.fingerprint
    }

    /// Installed plaintext size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Text-section length in bytes (prefix of the payload).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Number of cached segment digests.
    pub fn segments(&self) -> usize {
        self.leaves.len()
    }

    /// Segment length the cached digests were computed at.
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// Entry point of the installed program.
    pub fn entry(&self) -> u64 {
        self.entry
    }
}

impl SoftwareSource {
    /// Diff two prepared images at segment granularity.
    ///
    /// Both images must be segmented (`ERIC2`) builds with the same
    /// segment length — the diff *is* a leaf-table comparison, so the
    /// tables must be commensurable. A segment counts as changed when
    /// its plaintext leaf differs, which covers content edits, image
    /// growth (new tail segments), shrinkage, and ragged-tail
    /// resizing (a tail segment that changes length changes its leaf).
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] for v1 builds or mismatched segment
    /// lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, SoftwareSource};
    ///
    /// let source = SoftwareSource::new("vendor");
    /// let cfg = EncryptionConfig::full().with_segments(8);
    /// let v1 = source.compile("main:\n li a0, 1\n li a7, 93\n ecall\n", false).unwrap();
    /// let v2 = source.compile("main:\n li a0, 2\n li a7, 93\n ecall\n", false).unwrap();
    /// let base = source.prepare_image(&v1, &cfg).unwrap();
    /// let next = source.prepare_image(&v2, &cfg).unwrap();
    /// let delta = source.prepare_delta(&base, &next).unwrap();
    /// // One instruction changed: only that segment ships.
    /// assert!(delta.changed_segments() < delta.total_segments());
    /// ```
    pub fn prepare_delta(
        &self,
        base: &PreparedImage,
        target: &PreparedImage,
    ) -> Result<PreparedDelta, EricError> {
        let (
            SignaturePlan::Segmented {
                segment_len: base_len,
                leaves: base_leaves,
            },
            SignaturePlan::Segmented {
                segment_len: target_len,
                leaves: target_leaves,
            },
        ) = (&base.signature_plan, &target.signature_plan)
        else {
            return Err(EricError::Config(
                "delta preparation requires segmented (ERIC2) builds on both sides".into(),
            ));
        };
        if base_len != target_len {
            return Err(EricError::Config(format!(
                "base and target segment lengths differ ({base_len} vs {target_len})"
            )));
        }
        let segment_len = *target_len as usize;
        let payload_len = target.payload.len();
        let mut changed = Vec::new();
        let mut segments = Vec::new();
        for (i, leaf) in target_leaves.iter().enumerate() {
            if base_leaves.get(i) == Some(leaf) {
                continue;
            }
            changed.push(i as u32);
            let start = i * segment_len;
            let end = (start + segment_len).min(payload_len);
            segments.extend_from_slice(&target.payload[start..end]);
        }
        Ok(PreparedDelta {
            cipher: target.cipher,
            policy: target.policy,
            epoch: target.epoch,
            text_base: target.text_base,
            data_base: target.data_base,
            entry: target.entry,
            text_len: target.text_len,
            payload_len: payload_len as u32,
            base_payload_len: base.payload.len() as u32,
            segment_len: *target_len,
            changed,
            map: target.map.clone(),
            segments,
            new_leaves: target_leaves.clone(),
            new_root: tree::merkle_root(target_leaves),
            base_digest: tree::merkle_root(base_leaves),
        })
    }

    /// Package a prepared delta for one device: draw a nonce, sign the
    /// full new leaf table into the delta AAD, and encrypt the root,
    /// replacement leaves, changed segments, and base fingerprint
    /// under the device's PUF-derived per-frame key.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] when `cred` is from a different key epoch
    /// than the delta targets.
    pub fn package_delta(
        &self,
        delta: &PreparedDelta,
        cred: &EnrollmentRecord,
    ) -> Result<DeltaPackage, EricError> {
        let mut frame = Vec::new();
        self.package_delta_into(delta, cred, &mut frame)?;
        DeltaPackage::from_wire(&frame)
    }

    /// Zero-copy variant of [`SoftwareSource::package_delta`]: sign,
    /// encrypt, and serialize the `ERIC2D` frame straight into a
    /// reusable transmit buffer (the delta analogue of
    /// [`SoftwareSource::package_prepared_into`], same buffer and
    /// error contracts).
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] on an epoch mismatch; the buffer is left
    /// cleared and no nonce is drawn.
    pub fn package_delta_into(
        &self,
        delta: &PreparedDelta,
        cred: &EnrollmentRecord,
        out: &mut Vec<u8>,
    ) -> Result<PackagedFrame, EricError> {
        out.clear();
        if cred.epoch != delta.epoch {
            return Err(EricError::Config(format!(
                "credential for {:?} is from epoch {} but the delta targets epoch {}",
                cred.device_id, cred.epoch, delta.epoch
            )));
        }
        let nonce = self.next_nonce();
        let payload_len = delta.payload_len as usize;
        let segment_len = delta.segment_len as usize;

        // The key is needed *before* the header is written: the base
        // fingerprint ships encrypted inside the AAD.
        let key = self.kmu().package_key(&cred.key, nonce);
        let cipher = delta.cipher.instantiate(key.as_bytes());
        let mut encrypted_base_digest = *delta.base_digest.as_bytes();
        cipher.apply(
            base_digest_stream_offset(payload_len, delta.new_leaves.len()),
            &mut encrypted_base_digest,
        );
        let header = DeltaHeader {
            header: FrameHeader {
                magic: DELTA_MAGIC,
                cipher: delta.cipher,
                policy: delta.policy,
                epoch: delta.epoch,
                nonce,
                text_base: delta.text_base,
                data_base: delta.data_base,
                entry: delta.entry,
                text_len: delta.text_len,
                payload_len: delta.payload_len,
            },
            base_payload_len: delta.base_payload_len,
            segment_len: delta.segment_len,
            challenge: cred.challenge.as_bytes(),
            encrypted_base_digest,
            changed: &delta.changed,
            map: &delta.map,
        };
        let wire_len = header.frame_len(delta.segments.len());
        out.reserve(wire_len);
        header.write(out);
        let aad_len = out.len();

        // The signed root binds the root of the FULL new leaf table to
        // the delta AAD: the device reconstructs the same table from
        // its cache plus the shipped diff, so any omission or
        // substitution in the diff breaks the root.
        let signature = signed_root(
            out,
            delta.segment_len,
            delta.new_leaves.len(),
            &delta.new_root,
        );
        let mut sig_bytes = *signature.as_bytes();
        transform_signature(&mut sig_bytes, payload_len, cipher.as_ref());
        out.extend_from_slice(&sig_bytes);
        let manifest_at = manifest_stream_offset(payload_len);
        for &i in &delta.changed {
            let mut leaf = *delta.new_leaves[i as usize].as_bytes();
            cipher.apply(manifest_at + 32 * i as u64, &mut leaf);
            out.extend_from_slice(&leaf);
        }
        let mut cursor = 0usize;
        for &i in &delta.changed {
            let start = i as usize * segment_len;
            let len = segment_len.min(payload_len - start);
            let at = out.len();
            out.extend_from_slice(&delta.segments[cursor..cursor + len]);
            cursor += len;
            transform_region(
                &mut out[at..],
                start,
                &delta.map,
                delta.policy,
                delta.text_len as usize,
                cipher.as_ref(),
            );
        }
        debug_assert_eq!(out.len(), wire_len);
        Ok(PackagedFrame {
            nonce,
            wire_len,
            aad_len,
        })
    }
}

/// Apply an authenticated delta to an installed image (the device-side
/// half; [`Device::apply_delta`](crate::Device::apply_delta) is the
/// public entry point).
///
/// Geometry against the installed image is checked first; then the
/// one [`SegmentVerifier`] runs the shared order. Its structural and
/// epoch checks and key derivation come first. The base fingerprint
/// is checked next, and the full new leaf table (cached siblings plus
/// shipped diff) is rebuilt and authenticated against the signed root;
/// a kept segment must still fit its slot. Only then is any payload
/// byte decrypted: each shipped segment, into a buffer of its own, and
/// checked against its authenticated leaf. The new [`InstalledImage`]
/// shares every other segment with the base and takes the
/// authenticated table and its root as its leaves and fingerprint; the
/// whole-image re-hash runs only as a debug-build oracle (see the
/// [module docs](self)).
pub(crate) fn apply(
    loader: &SecureLoader,
    installed: &InstalledImage,
    delta: &DeltaPackage,
) -> Result<InstalledImage, EricError> {
    let payload_len = delta.payload_len as usize;
    let segment_len = delta.segment_len as usize;
    if delta.segment_len != installed.segment_len {
        return Err(EricError::Package(format!(
            "delta segment length {} does not match installed image ({})",
            delta.segment_len, installed.segment_len
        )));
    }
    if delta.base_payload_len as usize != installed.payload.len() {
        return Err(EricError::Package(format!(
            "delta expects a {}-byte base image but {} bytes are installed",
            delta.base_payload_len,
            installed.payload.len()
        )));
    }

    let aad = delta.aad();
    let challenge = Challenge::from_bytes(&delta.challenge);
    let frame = FrameParams {
        aad: &aad,
        challenge: &challenge,
        cipher: delta.cipher,
        epoch: delta.epoch,
        nonce: delta.nonce,
        map: &delta.map,
        policy: delta.policy,
        text_len: delta.text_len as usize,
        payload_len,
    };
    let new_count = payload_len.div_ceil(segment_len);
    let slot_len = |i: usize| segment_len.min(payload_len - i * segment_len);
    let kept = &installed.payload.segments;
    let table = |cipher: &dyn KeystreamCipher| {
        // Base gate: this delta must name the image actually installed.
        let mut base_digest = delta.encrypted_base_digest;
        cipher.apply(
            base_digest_stream_offset(payload_len, new_count),
            &mut base_digest,
        );
        if !installed
            .fingerprint
            .ct_eq(&Digest::from_bytes(base_digest))
        {
            return Err(EricError::Package(
                "delta targets a different base image".into(),
            ));
        }
        // The full new leaf table: each shipped replacement decrypted at
        // its natural manifest slot, every other segment from the cache.
        // A segment past the installed table is new content and must be
        // shipped — the cache has no digest to stand in for it — and a
        // kept segment must fill its slot in the new geometry exactly.
        let manifest_at = manifest_stream_offset(payload_len);
        let mut shipped = delta.changed.iter().zip(&delta.changed_leaves).peekable();
        (0..new_count)
            .map(|i| match shipped.next_if(|(&c, _)| c as usize == i) {
                Some((_, &leaf)) => {
                    let mut leaf = leaf;
                    cipher.apply(manifest_at + 32 * i as u64, &mut leaf);
                    Ok(Digest::from_bytes(leaf))
                }
                None => match kept.get(i) {
                    None => Err(EricError::Package(format!("delta omits new segment {i}"))),
                    Some(segment) if segment.range.len() != slot_len(i) => Err(EricError::Package(
                        format!("delta keeps segment {i} but changes its length"),
                    )),
                    Some(_) => Ok(installed.leaves[i]),
                },
            })
            .collect()
    };
    let verifier = SegmentVerifier::authenticate(
        loader,
        frame,
        delta.segment_len,
        delta.encrypted_root,
        table,
    )?;

    // Build the patched image beside the base, which is never touched,
    // so no error path can leave a partially-patched image behind.
    let mut shipped = delta.changed.iter().map(|&i| i as usize).peekable();
    let mut cursor = 0usize;
    let segments = (0..new_count)
        .map(|i| {
            if shipped.next_if_eq(&i).is_none() {
                // A view of a buffer longer than the whole new payload
                // (the install buffer, after a shrink) is copied out, so
                // an image never pins more than twice its payload.
                let kept = &kept[i];
                return Ok(if kept.buf.len() > payload_len {
                    Segment::owned(kept.bytes().to_vec())
                } else {
                    kept.clone()
                });
            }
            let len = slot_len(i);
            let mut bytes = delta.segments[cursor..cursor + len].to_vec();
            cursor += len;
            verifier.verify_block(i, &mut bytes)?;
            Ok::<_, HdeError>(Segment::owned(bytes))
        })
        .collect::<Result<_, _>>()?;
    let payload = Payload {
        segments,
        len: payload_len,
    };

    debug_assert!(
        verifier
            .finish(
                (0..)
                    .zip(payload.segments())
                    .map(|(i, bytes)| tree::leaf_digest(i, bytes))
                    .collect()
            )
            .is_ok(),
        "patched image does not re-hash to its signed root"
    );
    let (leaves, fingerprint) = verifier.into_table();
    Ok(InstalledImage {
        payload,
        text_len: delta.text_len as usize,
        text_base: delta.text_base,
        data_base: delta.data_base,
        entry: delta.entry,
        segment_len: delta.segment_len,
        leaves,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::device::Device;

    const BASE: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";
    const NEXT: &str = "main:\n li a0, 6\n li a1, 7\n mul a0, a0, a1\n li a7, 93\n ecall\n";

    fn prepared(src: &SoftwareSource, program: &str, cfg: &EncryptionConfig) -> PreparedImage {
        let image = src.compile(program, false).unwrap();
        src.prepare_image(&image, cfg).unwrap()
    }

    // Byte-wise comparison and printing, so tests can compare an
    // installed payload with another or with a plaintext `Vec`.
    impl PartialEq for Payload {
        fn eq(&self, other: &Payload) -> bool {
            self.segments().flatten().eq(other.segments().flatten())
        }
    }

    impl PartialEq<Vec<u8>> for Payload {
        fn eq(&self, other: &Vec<u8>) -> bool {
            self.segments().flatten().eq(other)
        }
    }

    impl fmt::Debug for Payload {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_list().entries(self.segments().flatten()).finish()
        }
    }

    /// `BASE` (exit code 42) with `data` as its data section.
    fn release(src: &SoftwareSource, data: Vec<u8>, cfg: &EncryptionConfig) -> PreparedImage {
        let mut image = src.compile(BASE, false).unwrap();
        image.data = data;
        src.prepare_image(&image, cfg).unwrap()
    }

    /// `len` counting bytes, with the byte at each of `edits` flipped.
    fn blob(len: usize, edits: &[usize]) -> Vec<u8> {
        let mut data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        for &at in edits {
            data[at] ^= 0xFF;
        }
        data
    }

    /// Bytes of the distinct buffers an image's segments keep alive.
    fn pinned(image: &InstalledImage) -> usize {
        let mut bufs: Vec<&Arc<Vec<u8>>> = image.payload.segments.iter().map(|s| &s.buf).collect();
        bufs.sort_by_key(|buf| Arc::as_ptr(buf));
        bufs.dedup_by(|a, b| Arc::ptr_eq(a, b));
        bufs.iter().map(|buf| buf.len()).sum()
    }

    #[test]
    fn patched_image_shares_kept_segments_and_outlives_its_base() {
        let mut device = Device::with_seed(10, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(16);
        let base = release(&src, blob(200, &[]), &cfg);
        let next = release(&src, blob(200, &[70]), &cfg);
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &next).unwrap();
        assert_eq!(delta.changed, [5], "byte 70 of the data is payload byte 86");
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();

        let base_segments = &installed.payload.segments;
        for (i, segment) in patched.payload.segments.iter().enumerate() {
            let shared = base_segments
                .iter()
                .any(|b| Arc::ptr_eq(&b.buf, &segment.buf));
            assert_eq!(shared, i != 5, "segment {i}");
        }

        let clean = device
            .install(&src.package_prepared(&next, &cred).unwrap().0)
            .unwrap();
        drop(installed);
        assert_eq!(patched.fingerprint(), clean.fingerprint());
        assert_eq!(patched.payload, clean.payload);
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);
    }

    #[test]
    fn delta_ring_pins_at_most_twice_the_payload() {
        let mut device = Device::with_seed(11, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(16);
        // 216-byte install; grow to 312, edit, shrink to 104 (below half
        // the install buffer), grow back.
        let ring = [
            release(&src, blob(200, &[]), &cfg),
            release(&src, blob(296, &[40]), &cfg),
            release(&src, blob(296, &[40, 150]), &cfg),
            release(&src, blob(88, &[8]), &cfg),
        ];
        let clean: Vec<Digest> = ring
            .iter()
            .map(|r| {
                let package = src.package_prepared(r, &cred).unwrap().0;
                device.install(&package).unwrap().fingerprint()
            })
            .collect();
        let mut image = device
            .install(&src.package_prepared(&ring[0], &cred).unwrap().0)
            .unwrap();
        for step in 0..16 {
            let (from, to) = (step % ring.len(), (step + 1) % ring.len());
            let delta = src.prepare_delta(&ring[from], &ring[to]).unwrap();
            let frame = src.package_delta(&delta, &cred).unwrap();
            image = device.apply_delta(&image, &frame).unwrap();
            assert_eq!(image.fingerprint(), clean[to], "step {step}");
            assert_eq!(image.payload, ring[to].payload, "step {step}");
            assert!(
                pinned(&image) <= 2 * image.payload_len(),
                "step {step}: {} bytes pinned for a {}-byte payload",
                pinned(&image),
                image.payload_len()
            );
        }
        assert_eq!(device.run_installed(&image).unwrap().exit_code, 42);
    }

    /// A table that keeps a segment whose slot changes length would
    /// leave an image longer than its payload: refused before anything
    /// is decrypted.
    #[test]
    fn kept_segment_that_changes_length_is_refused() {
        let mut device = Device::with_seed(13, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(16);
        let base = release(&src, blob(200, &[]), &cfg);
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        // A signed delta that keeps the base's whole table but trims
        // its 8-byte tail segment to 4 bytes.
        let mut delta = src.prepare_delta(&base, &base).unwrap();
        delta.payload_len -= 4;
        let frame = src.package_delta(&delta, &cred).unwrap();
        let err = device.apply_delta(&installed, &frame).unwrap_err();
        assert!(
            matches!(&err, EricError::Package(m) if m.contains("changes its length")),
            "{err:?}"
        );
    }

    /// The re-hash that release builds skip still runs in debug builds:
    /// a cached segment that no longer matches its leaf is caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-hash")]
    fn debug_oracle_catches_a_corrupted_cached_segment() {
        let mut device = Device::with_seed(12, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(16);
        let base = release(&src, blob(200, &[]), &cfg);
        let next = release(&src, blob(200, &[70]), &cfg);
        let mut installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let mut bytes = installed.payload.segments[2].bytes().to_vec();
        bytes[0] ^= 1;
        installed.payload.segments[2] = Segment::owned(bytes);
        let frame = src
            .package_delta(&src.prepare_delta(&base, &next).unwrap(), &cred)
            .unwrap();
        let _ = device.apply_delta(&installed, &frame);
    }

    #[test]
    fn delta_roundtrip_patches_and_runs() {
        let mut device = Device::with_seed(1, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);

        let pkg = src.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&pkg).unwrap();
        assert_eq!(device.run_installed(&installed).unwrap().exit_code, 42);

        let delta = src.prepare_delta(&base, &next).unwrap();
        assert!(delta.changed_segments() > 0);
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);

        // The patched image is fingerprint-identical to a clean full
        // install of the target.
        let full = src.package_prepared(&next, &cred).unwrap().0;
        let clean = device.install(&full).unwrap();
        assert_eq!(patched.fingerprint(), clean.fingerprint());
        assert_eq!(patched.payload, clean.payload);
    }

    #[test]
    fn delta_wire_roundtrip_and_truncations() {
        let mut device = Device::with_seed(2, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();

        let wire = frame.to_wire();
        assert_eq!(&wire[..6], b"ERIC2D");
        assert_eq!(wire.len(), frame.wire_len());
        let parsed = DeltaPackage::from_wire(&wire).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(&wire[..frame.aad().len()], &frame.aad()[..]);
        for len in 0..wire.len() {
            assert!(
                DeltaPackage::from_wire(&wire[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
    }

    #[test]
    fn zero_copy_delta_matches_parse_reserialize() {
        let mut device = Device::with_seed(3, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::partial(0.5, 7).with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let mut frame = vec![0xA5; 11]; // dirty reuse
        let info = src.package_delta_into(&delta, &cred, &mut frame).unwrap();
        assert_eq!(info.wire_len, frame.len());
        let parsed = DeltaPackage::from_wire(&frame).unwrap();
        assert_eq!(parsed.nonce, info.nonce);
        assert_eq!(parsed.to_wire(), frame);
        assert_eq!(&frame[..info.aad_len], &parsed.aad()[..]);
    }

    #[test]
    fn identical_images_produce_empty_delta_that_applies() {
        let mut device = Device::with_seed(4, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let same = prepared(&src, BASE, &cfg);
        let delta = src.prepare_delta(&base, &same).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.changed_bytes(), 0);

        let pkg = src.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&pkg).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.fingerprint(), installed.fingerprint());
    }

    #[test]
    fn image_growth_ships_tail_segments() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let grown = ".data\nbuf: .zero 200\n.text\nmain:\n li a0, 42\n li a7, 93\n ecall\n";
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, grown, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        // All-new tail segments must be in the changed set.
        let base_count = base.segments();
        let new_count = next.segments();
        assert!(new_count > base_count);
        for i in base_count..new_count {
            assert!(
                delta.changed.binary_search(&(i as u32)).is_ok(),
                "tail segment {i} not shipped"
            );
        }
        // And the patch applies end to end.
        let mut device = Device::with_seed(5, "node");
        let cred = device.enroll();
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.payload_len(), next.payload_len());
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);
    }

    #[test]
    fn wrong_base_image_rejected_by_fingerprint_gate() {
        let mut device = Device::with_seed(6, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        // Same geometry as `base` (one changed instruction), different
        // content: the structural checks pass, the fingerprint must
        // not.
        let imposter_program = "main:\n li a0, 40\n addi a0, a0, 2\n li a7, 93\n ecall\n";
        let imposter = prepared(&src, imposter_program, &cfg);
        assert_eq!(imposter.payload_len(), base.payload_len());

        let installed = device
            .install(&src.package_prepared(&imposter, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let err = device.apply_delta(&installed, &frame).unwrap_err();
        assert!(
            matches!(&err, EricError::Package(m) if m.contains("different base image")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_device_and_wrong_epoch_rejected() {
        let mut device = Device::with_seed(7, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();

        // A different device derives a different key: the base gate
        // fails closed (encrypted fingerprint decrypts to noise).
        let imposter = Device::with_seed(99, "imposter");
        assert!(imposter.apply_delta(&installed, &frame).is_err());

        // Epoch rotation invalidates outstanding deltas.
        device.rotate_epoch();
        let err = device.apply_delta(&installed, &frame).unwrap_err();
        assert!(
            matches!(
                &err,
                EricError::Rejected(HdeError::WrongEpoch {
                    package: 0,
                    device: 1
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn v1_builds_and_mismatched_geometry_rejected_at_prepare() {
        let src = SoftwareSource::new("vendor");
        let v1 = prepared(
            &src,
            BASE,
            &EncryptionConfig::full().with_legacy_signature(),
        );
        let v2 = prepared(&src, NEXT, &EncryptionConfig::full().with_segments(8));
        assert!(matches!(
            src.prepare_delta(&v1, &v2),
            Err(EricError::Config(_))
        ));
        let other = prepared(&src, NEXT, &EncryptionConfig::full().with_segments(16));
        assert!(matches!(
            src.prepare_delta(&v2, &other),
            Err(EricError::Config(_))
        ));
    }

    #[test]
    fn delta_is_much_smaller_than_full_frame_for_sparse_change() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        // Large data region; flip one byte of it.
        let base_prog = ".data\nbuf: .zero 4096\n.text\nmain:\n li a0, 42\n li a7, 93\n ecall\n";
        let base = prepared(&src, base_prog, &cfg);
        let mut target = base.clone();
        let len = target.payload.len();
        target.payload[len - 1] ^= 0xFF;
        let SignaturePlan::Segmented {
            segment_len,
            leaves,
        } = &mut target.signature_plan
        else {
            unreachable!()
        };
        *leaves = tree::leaf_digests_batch(0, &target.payload, *segment_len as usize);
        let delta = src.prepare_delta(&base, &target).unwrap();
        assert_eq!(delta.changed_segments(), 1);

        let mut device = Device::with_seed(8, "node");
        let cred = device.enroll();
        let full_frame = src.package_prepared(&base, &cred).unwrap().0.to_wire();
        let delta_frame = src.package_delta(&delta, &cred).unwrap().to_wire();
        assert!(
            delta_frame.len() * 10 < full_frame.len(),
            "delta {} vs full {}",
            delta_frame.len(),
            full_frame.len()
        );
        // And it still applies.
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.payload, target.payload);
    }

    #[test]
    fn epoch_mismatch_clears_buffer_and_burns_no_nonce() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let mut device = Device::with_seed(9, "node");
        let mut stale = device.enroll();
        stale.epoch = 3;
        let mut buf = vec![0xEE; 32];
        assert!(matches!(
            src.package_delta_into(&delta, &stale, &mut buf),
            Err(EricError::Config(_))
        ));
        assert!(buf.is_empty());
        let cred = device.enroll();
        let info = src.package_delta_into(&delta, &cred, &mut buf).unwrap();
        assert_eq!(info.nonce, 1, "rejected call must not draw a nonce");
    }
}
