//! Streaming secure loading: bounded-memory decrypt → verify → release.
//!
//! [`crate::loader::SecureLoader::process`] needs the whole encrypted
//! payload in memory before the first byte is verified — fine on a
//! workstation, a non-starter on a constrained device installing a
//! multi-hundred-megabyte image over a slow link. The segmented (v2)
//! scheme already gives every 64 KiB segment its own leaf digest;
//! [`StreamingLoader`] turns that into an actual streaming install:
//!
//! 1. **Incremental parse** — the `ERIC2` wire frame is consumed from
//!    any [`std::io::Read`] source: header, coverage map, encrypted
//!    root, and encrypted leaf table, in wire order. The raw header
//!    bytes double as the AAD, exactly as in the buffered path.
//! 2. **Manifest authentication first** — the shipped root and leaves
//!    are decrypted and the AAD-bound [`signed_root`] is checked
//!    *before any payload byte is processed*. A consistently forged
//!    manifest therefore fails closed up front: no plaintext is ever
//!    derived under an unauthenticated leaf table.
//! 3. **Segment-by-segment release** — each segment is read into a
//!    single reused segment-sized buffer, decrypted with
//!    [`transform_region`] at its absolute payload offset, leaf-hashed,
//!    and compared against the authenticated manifest. Only a verified
//!    segment is released to the sink; the first mismatch aborts the
//!    load with [`HdeError::SegmentMismatch`] naming the segment.
//! 4. **Root fold at the end** — the recomputed leaves are folded into
//!    the signed root once more after the last segment, mirroring the
//!    buffered loader's final validation.
//!
//! Peak *payload* working set is one segment buffer — O(segment_len),
//! independent of image size. Frame metadata (header, map, manifest) is
//! buffered for the whole load and reported separately in
//! [`StreamReport::metadata_bytes`]: the manifest costs 32 bytes per
//! segment and a partial map one bit per parcel, both ≪ payload.
//!
//! One deliberate divergence from the buffered oracle: a tampered
//! *shipped leaf* fails here as [`HdeError::SignatureMismatch`] (the
//! up-front root gate) where [`SecureLoader::process`] reports
//! [`HdeError::SegmentMismatch`] (it compares recomputed leaves first).
//! Both reject; the streaming order is the security-conservative one.

use crate::error::HdeError;
use crate::loader::{LoadedProgram, SecureLoader};
use crate::manifest::signed_root;
use crate::map::{CoverageMap, ParcelBitmap};
use crate::policy::FieldPolicy;
use crate::timing::HdeCycles;
use crate::transform::{transform_manifest_leaves, transform_region, transform_signature};
use crate::units::ValidationUnit;
use eric_crypto::cipher::CipherKind;
use eric_crypto::ct::ct_eq;
use eric_crypto::sha256::{tree, Digest};
use eric_puf::crp::Challenge;
use std::io::Read;

/// Wire magic of the streamable segmented frame (must match
/// `eric-core`'s `ERIC2` serialization; the conformance suite pins the
/// two against each other byte for byte).
const MAGIC_V2: &[u8; 5] = b"ERIC2";

/// Wire magic of the legacy single-digest frame — recognized only to
/// reject it with a precise error: a v1 frame has no per-segment
/// leaves, so it cannot be verified incrementally.
const MAGIC_V1: &[u8; 5] = b"ERIC1";

/// Accounting for one streaming load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamReport {
    /// Total payload bytes released (text ‖ data).
    pub payload_len: usize,
    /// Length of the text region within the payload.
    pub text_len: usize,
    /// Number of payload segments verified.
    pub segments: usize,
    /// Cycles the HDE spent (single-lane sequential model: streaming
    /// consumes the wire in order, so there is nothing to fan out).
    pub cycles: HdeCycles,
    /// Peak payload bytes resident at once: the one reused segment
    /// buffer, `min(segment_len, payload_len)`. This is the bound the
    /// streaming path exists for — O(segment), never O(image).
    pub peak_buffered: usize,
    /// Frame metadata buffered for the whole load: header/AAD, coverage
    /// map, encrypted root, and the leaf table (32 bytes per segment).
    pub metadata_bytes: usize,
}

/// A bounded-memory front end for a [`SecureLoader`].
///
/// Borrows the loader for its key unit, timing model, and validation
/// unit; the buffered [`SecureLoader::process`] stays available as the
/// byte-equality oracle.
#[derive(Debug)]
pub struct StreamingLoader<'l> {
    loader: &'l SecureLoader,
    validation: ValidationUnit,
}

impl<'l> StreamingLoader<'l> {
    /// Wrap a loader for streaming installs.
    pub fn new(loader: &'l SecureLoader) -> Self {
        StreamingLoader {
            loader,
            validation: ValidationUnit::new(),
        }
    }

    /// Stream a full `ERIC2` wire frame and collect the verified
    /// plaintext and leaf table — the drop-in replacement for parsing
    /// a frame and calling [`SecureLoader::process`], pinned
    /// byte-identical to it by the conformance suite.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`SecureLoader::process`]:
    /// [`HdeError::Malformed`] for structural problems (including
    /// truncated or non-`ERIC2` frames), [`HdeError::WrongEpoch`],
    /// [`HdeError::SegmentMismatch`] naming the first bad segment, and
    /// [`HdeError::SignatureMismatch`] for a root/manifest that fails
    /// authentication.
    pub fn process<R: Read>(&self, source: R) -> Result<LoadedProgram, HdeError> {
        let mut plaintext = Vec::new();
        let (report, leaves) = self.verify(source, |_, segment: &[u8]| {
            plaintext.extend_from_slice(segment);
        })?;
        Ok(LoadedProgram {
            plaintext,
            text_len: report.text_len,
            cycles: report.cycles,
            leaves,
        })
    }

    /// Stream a full `ERIC2` wire frame, releasing each verified
    /// plaintext segment to `sink(segment_index, plaintext)` — the
    /// bounded-memory entry point: the caller can write segments
    /// straight to their final location and nothing payload-sized is
    /// ever buffered.
    ///
    /// The sink is only invoked for segments whose recomputed leaf
    /// digest matched the *authenticated* manifest (the signed root is
    /// checked before the first segment is read), so a partially
    /// released image can only be a verified prefix of the real one —
    /// never attacker-controlled bytes.
    ///
    /// # Errors
    ///
    /// See [`StreamingLoader::process`].
    pub fn process_with<R: Read, F: FnMut(usize, &[u8])>(
        &self,
        source: R,
        sink: F,
    ) -> Result<StreamReport, HdeError> {
        self.verify(source, sink).map(|(report, _)| report)
    }

    /// The streaming verifier behind both entry points: also returns
    /// the recomputed leaf table, every entry of which matched the
    /// authenticated manifest.
    fn verify<R: Read, F: FnMut(usize, &[u8])>(
        &self,
        mut source: R,
        mut sink: F,
    ) -> Result<(StreamReport, Vec<Digest>), HdeError> {
        // ---- Incremental header parse (the raw bytes are the AAD). ----
        let mut aad = read_chunk(&mut source, HEADER_FIXED_LEN, "header")?;
        let header = Header::parse(&aad)?;
        let challenge_bytes = read_chunk(&mut source, header.challenge_len, "challenge")?;
        aad.extend_from_slice(&challenge_bytes);

        let payload_len = header.payload_len;
        let text_len = header.text_len;
        let mut metadata_bytes = aad.len();

        // ---- Coverage map. ----
        let (map, map_bytes) = read_map(&mut source, payload_len)?;
        metadata_bytes += map_bytes;

        // ---- Encrypted root + manifest geometry + leaf table. ----
        let root_bytes = read_chunk(&mut source, 32, "signed root")?;
        let mut root: [u8; 32] = root_bytes.as_slice().try_into().expect("len checked");
        let geom = read_chunk(&mut source, 8, "manifest geometry")?;
        let segment_len = u32::from_le_bytes(geom[..4].try_into().expect("len checked"));
        if segment_len == 0 || !segment_len.is_multiple_of(4) {
            return Err(HdeError::Malformed(format!(
                "bad segment length {segment_len}"
            )));
        }
        let leaf_count = u32::from_le_bytes(geom[4..].try_into().expect("len checked")) as usize;
        if leaf_count != payload_len.div_ceil(segment_len as usize) {
            return Err(HdeError::Malformed(format!(
                "manifest has {leaf_count} leaves of {segment_len}-byte segments \
                 for a {payload_len}-byte payload"
            )));
        }
        // `leaf_count` is unauthenticated: grow the table only as leaves
        // actually arrive, so a forged count costs what was sent.
        let mut shipped_leaves: Vec<[u8; 32]> = Vec::new();
        for _ in 0..leaf_count {
            let leaf = read_chunk(&mut source, 32, "manifest leaf")?;
            shipped_leaves.push(leaf.as_slice().try_into().expect("len checked"));
        }
        metadata_bytes += 32 + 8 + 32 * leaf_count;

        // ---- Structural checks, in the buffered loader's order. ----
        if text_len > payload_len {
            return Err(HdeError::Malformed(format!(
                "text length {text_len} exceeds payload {payload_len}"
            )));
        }
        if let CoverageMap::Partial(bm) = &map {
            let needed = payload_len.div_ceil(bm.granularity() as usize);
            if bm.parcels() < needed {
                return Err(HdeError::Malformed(format!(
                    "map covers {} parcels, payload has {needed}",
                    bm.parcels()
                )));
            }
        }
        if header.policy.is_some() && !text_len.is_multiple_of(4) {
            return Err(HdeError::Malformed(format!(
                "field-level package with misaligned text length {text_len}"
            )));
        }
        if header.epoch != self.loader.keys().epoch() {
            return Err(HdeError::WrongEpoch {
                package: header.epoch,
                device: self.loader.keys().epoch(),
            });
        }

        // ---- Key derivation (PKG + KMU). ----
        let challenge = Challenge::from_bytes(&challenge_bytes);
        let key = self
            .loader
            .keys()
            .package_key(&challenge, header.epoch, header.nonce);
        let cipher = header.cipher.instantiate(key.as_bytes());

        // ---- Authenticate the manifest BEFORE touching the payload:
        // decrypt root and leaves (keystream continuations after the
        // payload range) and check the AAD-bound signed root over the
        // shipped leaves. Only an authenticated leaf table may gate
        // plaintext release.
        transform_signature(&mut root, payload_len, cipher.as_ref());
        transform_manifest_leaves(&mut shipped_leaves, payload_len, cipher.as_ref());
        let shipped_digests: Vec<Digest> = shipped_leaves
            .iter()
            .map(|l| Digest::from_bytes(*l))
            .collect();
        let expected_root = signed_root(&aad, segment_len, &shipped_digests);
        if !self.validation.validate(&expected_root, &root) {
            return Err(HdeError::SignatureMismatch {
                computed: expected_root,
                shipped: Digest::from_bytes(root),
            });
        }

        // ---- Segment loop: read → decrypt → leaf-hash → compare →
        // release. One reused segment buffer is the entire payload
        // working set.
        let segment_len_usize = segment_len as usize;
        let peak_buffered = segment_len_usize.min(payload_len);
        let mut segment_buf = vec![0u8; peak_buffered];
        let mut recomputed: Vec<Digest> = Vec::with_capacity(leaf_count);
        for (index, shipped_leaf) in shipped_leaves.iter().enumerate() {
            let start = index * segment_len_usize;
            let len = segment_len_usize.min(payload_len - start);
            let segment = &mut segment_buf[..len];
            read_exact(&mut source, segment, "payload segment")?;
            // Absolute payload coordinates keep keystream positions,
            // map parcels, and the text/data split identical to the
            // buffered whole-payload transform. Segment boundaries are
            // 4-aligned (segment_len % 4 == 0), so a field policy never
            // sees a split instruction word.
            transform_region(
                segment,
                start,
                &map,
                header.policy,
                text_len,
                cipher.as_ref(),
            );
            let got = tree::leaf_digest(index as u64, segment);
            if !ct_eq(got.as_bytes(), shipped_leaf) {
                return Err(HdeError::SegmentMismatch { segment: index });
            }
            recomputed.push(got);
            sink(index, segment);
        }

        // ---- Final root fold over the *recomputed* leaves, mirroring
        // the buffered loader's last validation. With every leaf
        // already matched this is defense in depth, not a new gate.
        let final_root = signed_root(&aad, segment_len, &recomputed);
        if !self.validation.validate(&final_root, &root) {
            return Err(HdeError::SignatureMismatch {
                computed: final_root,
                shipped: Digest::from_bytes(root),
            });
        }

        let report = StreamReport {
            payload_len,
            text_len,
            segments: leaf_count,
            cycles: self.sequential_cycles(payload_len, leaf_count),
            peak_buffered,
            metadata_bytes,
        };
        Ok((report, recomputed))
    }

    /// Single-lane cycle model: the streaming pipeline decrypts and
    /// hashes the payload once, sequentially, plus the O(segments)
    /// Merkle fold — the `lanes = 1` case of the buffered loader's
    /// segmented model.
    fn sequential_cycles(&self, payload_len: usize, segments: usize) -> HdeCycles {
        let timing = self.loader.timing();
        let fold_nodes = segments.saturating_sub(1) as u64 + 1;
        HdeCycles {
            decrypt: timing.decrypt_cycles(payload_len),
            hash: timing.hash_cycles(payload_len) + fold_nodes * timing.sha_block_cycles,
            validate: timing.validate_cycles,
        }
    }
}

/// Fixed-width header prefix length: magic + cipher + policy + epoch +
/// nonce + text_base + data_base + entry + text_len + payload_len +
/// challenge_len. Must match `eric-core`'s wire header exactly.
const HEADER_FIXED_LEN: usize = 5 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 2;

/// The parsed fixed header fields the HDE actually consumes
/// (text_base / data_base / entry ride along inside the AAD bytes but
/// mean nothing to the decryption engine).
struct Header {
    cipher: CipherKind,
    policy: Option<FieldPolicy>,
    epoch: u64,
    nonce: u64,
    text_len: usize,
    payload_len: usize,
    challenge_len: usize,
}

impl Header {
    fn parse(buf: &[u8]) -> Result<Header, HdeError> {
        debug_assert_eq!(buf.len(), HEADER_FIXED_LEN);
        let err = |m: &str| HdeError::Malformed(m.to_string());
        match &buf[..5] {
            m if m == MAGIC_V2 => {}
            m if m == MAGIC_V1 => {
                return Err(err("streaming requires a segmented (ERIC2) frame; \
                     ERIC1 has no per-segment leaves to verify against"))
            }
            _ => return Err(err("bad magic")),
        }
        let cipher = CipherKind::from_wire_id(buf[5]).ok_or_else(|| err("unknown cipher"))?;
        let policy = if buf[6] == 0xFF {
            None
        } else {
            Some(FieldPolicy::from_wire_id(buf[6]).ok_or_else(|| err("unknown policy"))?)
        };
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("fixed"));
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("fixed"));
        Ok(Header {
            cipher,
            policy,
            epoch: u64_at(7),
            nonce: u64_at(15),
            // text_base (23), data_base (31), entry (39): AAD-only.
            text_len: u32_at(47) as usize,
            payload_len: u32_at(51) as usize,
            challenge_len: u16::from_le_bytes(buf[55..57].try_into().expect("fixed")) as usize,
        })
    }
}

/// Read the coverage-map wire block; returns the map and its serialized
/// size. `payload_len` bounds the parcel count *before* the bitmap is
/// allocated, so a forged count cannot drive a huge allocation from a
/// few attacker-controlled bytes.
fn read_map<R: Read>(source: &mut R, payload_len: usize) -> Result<(CoverageMap, usize), HdeError> {
    let tag = read_chunk(source, 1, "map tag")?[0];
    match tag {
        0 => Ok((CoverageMap::Full, 1)),
        1 => {
            let head = read_chunk(source, 5, "map geometry")?;
            let granularity = head[0] as u32;
            if granularity != 2 && granularity != 4 {
                return Err(HdeError::Malformed(format!(
                    "bad map granularity {granularity}"
                )));
            }
            let parcels = u32::from_le_bytes(head[1..].try_into().expect("len checked")) as usize;
            // The buffered path caps the map by what is physically on
            // the wire; here the stream is unbounded, so cap by what a
            // payload of the declared size could ever need (the loader
            // later requires at least ⌈payload/granularity⌉ parcels).
            let max_parcels = payload_len.div_ceil(granularity as usize).max(1);
            if parcels > max_parcels {
                return Err(HdeError::Malformed(format!(
                    "map claims {parcels} parcels for a {payload_len}-byte payload"
                )));
            }
            let bits = read_chunk(source, parcels.div_ceil(8), "map bits")?;
            Ok((
                CoverageMap::Partial(ParcelBitmap::from_bytes_with_granularity(
                    &bits,
                    parcels,
                    granularity,
                )),
                1 + 5 + bits.len(),
            ))
        }
        _ => Err(HdeError::Malformed(format!("unknown map tag {tag}"))),
    }
}

/// Read exactly `n` bytes into a fresh buffer (metadata-sized reads
/// only — payload segments reuse one buffer via [`read_exact`]).
///
/// `n` may come from an unauthenticated length field, so the buffer
/// grows with the bytes actually received rather than being sized
/// from `n` up front: a forged length on a short stream is a
/// truncation error, not a large allocation.
fn read_chunk<R: Read>(source: &mut R, n: usize, what: &str) -> Result<Vec<u8>, HdeError> {
    let mut buf = Vec::new();
    source
        .take(n as u64)
        .read_to_end(&mut buf)
        .map_err(|e| HdeError::Malformed(format!("stream error at {what}: {e}")))?;
    if buf.len() < n {
        return Err(HdeError::Malformed(format!("truncated at {what}")));
    }
    Ok(buf)
}

/// `Read::read_exact` with truncation reported in the loader's own
/// error taxonomy, naming the field where the stream ran dry.
fn read_exact<R: Read>(source: &mut R, buf: &mut [u8], what: &str) -> Result<(), HdeError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HdeError::Malformed(format!("truncated at {what}"))
        } else {
            HdeError::Malformed(format!("stream error at {what}: {e}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::SecureInput;
    use crate::manifest::{SegmentManifest, SignatureBlock};
    use crate::transform::transform_payload;
    use eric_puf::device::{PufDevice, PufDeviceConfig};

    fn loader(seed: u64) -> SecureLoader {
        SecureLoader::new(PufDevice::from_seed(seed, PufDeviceConfig::paper()))
    }

    fn challenge() -> Challenge {
        Challenge::from_bytes(&[0x42; 32])
    }

    /// Build a raw ERIC2 wire frame the way the compiler side does,
    /// without depending on eric-core (which depends on this crate):
    /// header ‖ full-map tag ‖ encrypted root ‖ geometry ‖ encrypted
    /// leaves ‖ encrypted payload.
    fn wire_frame(l: &SecureLoader, nonce: u64, payload: &[u8], segment_len: u32) -> Vec<u8> {
        let ch = challenge();
        let key = l.keys().package_key(&ch, 0, nonce);
        let cipher = CipherKind::Xor.instantiate(key.as_bytes());

        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC_V2);
        frame.push(CipherKind::Xor.wire_id());
        frame.push(0xFF); // no policy
        frame.extend_from_slice(&0u64.to_le_bytes()); // epoch
        frame.extend_from_slice(&nonce.to_le_bytes());
        frame.extend_from_slice(&0x8000_0000u64.to_le_bytes()); // text_base
        frame.extend_from_slice(&0x8010_0000u64.to_le_bytes()); // data_base
        frame.extend_from_slice(&0x8000_0000u64.to_le_bytes()); // entry
        frame.extend_from_slice(&(payload.len() as u32 / 2).to_le_bytes()); // text_len
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&32u16.to_le_bytes());
        frame.extend_from_slice(ch.as_bytes());
        let aad = frame.clone();

        let leaves: Vec<Digest> = payload
            .chunks(segment_len as usize)
            .enumerate()
            .map(|(i, seg)| tree::leaf_digest(i as u64, seg))
            .collect();
        let mut root = *signed_root(&aad, segment_len, &leaves).as_bytes();
        transform_signature(&mut root, payload.len(), cipher.as_ref());
        let mut enc_leaves: Vec<[u8; 32]> = leaves.iter().map(|d| *d.as_bytes()).collect();
        transform_manifest_leaves(&mut enc_leaves, payload.len(), cipher.as_ref());
        let mut enc = payload.to_vec();
        transform_payload(
            &mut enc,
            &CoverageMap::Full,
            None,
            payload.len() / 2,
            cipher.as_ref(),
        );

        frame.push(0); // full map
        frame.extend_from_slice(&root);
        frame.extend_from_slice(&segment_len.to_le_bytes());
        frame.extend_from_slice(&(leaves.len() as u32).to_le_bytes());
        for leaf in &enc_leaves {
            frame.extend_from_slice(leaf);
        }
        frame.extend_from_slice(&enc);
        frame
    }

    #[test]
    fn streams_and_matches_buffered_process() {
        let l = loader(31);
        let payload: Vec<u8> = (0..5 * 64 + 18).map(|i| (i * 13 % 251) as u8).collect();
        let frame = wire_frame(&l, 4, &payload, 64);
        let streamed = StreamingLoader::new(&l)
            .process(frame.as_slice())
            .expect("streams");
        assert_eq!(streamed.plaintext, payload);
        assert_eq!(streamed.text_len, payload.len() / 2);

        // Oracle: hand-parse the same frame into a SecureInput.
        let aad_len = HEADER_FIXED_LEN + 32;
        let leaves_at = aad_len + 1 + 32 + 8;
        let n_leaves = payload.len().div_ceil(64);
        let leaves: Vec<[u8; 32]> = (0..n_leaves)
            .map(|i| {
                frame[leaves_at + 32 * i..leaves_at + 32 * (i + 1)]
                    .try_into()
                    .unwrap()
            })
            .collect();
        let sig = SignatureBlock::Segmented {
            encrypted_root: frame[aad_len + 1..aad_len + 33].try_into().unwrap(),
            manifest: SegmentManifest::new(64, leaves),
        };
        let ch = challenge();
        let buffered = l
            .process(&SecureInput {
                payload: &frame[leaves_at + 32 * n_leaves..],
                aad: &frame[..aad_len],
                text_len: payload.len() / 2,
                map: &CoverageMap::Full,
                policy: None,
                signature: &sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 4,
            })
            .expect("oracle validates");
        assert_eq!(streamed.plaintext, buffered.plaintext);
        assert_eq!(streamed.cycles, buffered.cycles, "1-lane cycle model");
    }

    #[test]
    fn peak_buffer_is_one_segment() {
        let l = loader(32);
        let payload = vec![7u8; 16 * 64 + 5];
        let frame = wire_frame(&l, 9, &payload, 64);
        let mut out = Vec::new();
        let report = StreamingLoader::new(&l)
            .process_with(frame.as_slice(), |_, seg| out.extend_from_slice(seg))
            .expect("streams");
        assert_eq!(report.peak_buffered, 64);
        assert_eq!(report.segments, 17);
        assert_eq!(out, payload);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let l = loader(33);
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let frame = wire_frame(&l, 2, &payload, 64);
        let s = StreamingLoader::new(&l);
        for len in 0..frame.len() {
            assert!(s.process(&frame[..len]).is_err(), "truncation to {len}");
        }
        assert!(s.process(frame.as_slice()).is_ok());
    }

    #[test]
    fn tampered_segment_rejected_before_release() {
        let l = loader(34);
        let payload: Vec<u8> = (0..4 * 64).map(|i| i as u8).collect();
        let mut frame = wire_frame(&l, 3, &payload, 64);
        let payload_at = frame.len() - payload.len();
        frame[payload_at + 130] ^= 1; // inside segment 2
        let mut released = 0usize;
        let err = StreamingLoader::new(&l)
            .process_with(frame.as_slice(), |_, seg| released += seg.len())
            .unwrap_err();
        assert!(
            matches!(err, HdeError::SegmentMismatch { segment: 2 }),
            "{err}"
        );
        // Segments 0 and 1 were verified and released; 2 and 3 never were.
        assert_eq!(released, 2 * 64);
    }

    #[test]
    fn forged_manifest_fails_closed_without_any_release() {
        let l = loader(35);
        let payload = vec![9u8; 3 * 64];
        let mut frame = wire_frame(&l, 5, &payload, 64);
        let leaf0_at = HEADER_FIXED_LEN + 32 + 1 + 32 + 8;
        frame[leaf0_at] ^= 1;
        let mut released = 0usize;
        let err = StreamingLoader::new(&l)
            .process_with(frame.as_slice(), |_, seg| released += seg.len())
            .unwrap_err();
        assert!(matches!(err, HdeError::SignatureMismatch { .. }), "{err}");
        assert_eq!(
            released, 0,
            "no plaintext under an unauthenticated manifest"
        );
    }

    #[test]
    fn v1_frame_rejected_with_precise_error() {
        let l = loader(36);
        let payload = vec![1u8; 64];
        let mut frame = wire_frame(&l, 6, &payload, 64);
        frame[4] = b'1';
        let err = StreamingLoader::new(&l)
            .process(frame.as_slice())
            .unwrap_err();
        let HdeError::Malformed(m) = err else {
            panic!("expected Malformed, got {err}");
        };
        assert!(m.contains("ERIC2"), "{m}");
    }

    #[test]
    fn oversized_map_claim_rejected_before_allocation() {
        // A partial-map frame claiming ~2^32 parcels for a tiny payload
        // must be rejected from the geometry alone.
        let l = loader(37);
        let payload = vec![4u8; 64];
        let frame = wire_frame(&l, 7, &payload, 64);
        let mut forged = frame[..HEADER_FIXED_LEN + 32].to_vec();
        forged.push(1); // partial map tag
        forged.push(4); // granularity
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // parcel count
        forged.extend_from_slice(&frame[HEADER_FIXED_LEN + 32 + 1..]);
        let err = StreamingLoader::new(&l)
            .process(forged.as_slice())
            .unwrap_err();
        assert!(matches!(err, HdeError::Malformed(_)), "{err}");
    }

    #[test]
    fn forged_read_length_allocates_only_what_arrives() {
        // A 1 TiB claim over a 3-byte stream: sized up front, this
        // allocation would abort the process.
        let err = read_chunk(&mut &[1u8, 2, 3][..], 1 << 40, "map bits").unwrap_err();
        assert!(
            matches!(&err, HdeError::Malformed(m) if m.contains("map bits")),
            "{err}"
        );
        assert_eq!(read_chunk(&mut &[1u8, 2, 3][..], 2, "x").unwrap(), [1, 2]);
    }

    #[test]
    fn empty_payload_streams() {
        let l = loader(38);
        let frame = wire_frame(&l, 8, &[], 64);
        let out = StreamingLoader::new(&l)
            .process(frame.as_slice())
            .expect("empty ok");
        assert!(out.plaintext.is_empty());
    }
}
