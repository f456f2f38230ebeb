//! Streaming secure loading: bounded-memory decrypt → verify → release.
//!
//! [`SecureLoader::process`] needs the whole encrypted payload in
//! memory before the first byte is verified — fine on a workstation, a
//! non-starter on a constrained device installing a
//! multi-hundred-megabyte image over a slow link. The segmented (v2)
//! scheme already gives every 64 KiB segment its own leaf digest;
//! [`SecureLoader::process_stream`] and
//! [`SecureLoader::process_stream_with`] turn that into an actual
//! streaming install:
//!
//! 1. **Incremental parse** — the `ERIC2` wire frame is consumed from
//!    any [`std::io::Read`] source through the one frame parser,
//!    [`FrameReader::head`]: header, coverage map, encrypted root, and
//!    encrypted leaf table, in wire order.
//! 2. **Manifest authentication first** — the one
//!    [`SegmentVerifier`] decrypts the shipped root and leaves and
//!    checks the AAD-bound signed root *before any payload byte is
//!    read*. A consistently forged manifest therefore fails closed up
//!    front: no plaintext is ever derived under an unauthenticated
//!    leaf table.
//! 3. **Segment-by-segment release** — each segment is read into a
//!    single reused segment-sized buffer and handed to
//!    [`SegmentVerifier::verify_block`], which decrypts it at its
//!    absolute payload offset, leaf-hashes it, and compares it against
//!    the authenticated manifest. Only a verified segment is released
//!    to the sink; the first mismatch aborts the load with
//!    [`HdeError::SegmentMismatch`] naming the segment.
//! 4. **The authenticated table at the end** — once every segment has
//!    matched and the frame has ended, the load returns the table and
//!    root that step 2 authenticated ([`SegmentVerifier::into_table`]),
//!    exactly as the buffered loader does.
//!
//! Peak *payload* working set is one segment buffer — O(segment_len),
//! independent of image size. Frame metadata (header, map, manifest) is
//! buffered for the whole load: the manifest costs 32 bytes per segment
//! and a partial map one bit per parcel, both ≪ payload.

use crate::error::HdeError;
use crate::loader::{LoadedProgram, SecureLoader};
use crate::manifest::SignatureBlock;
use crate::timing::HdeCycles;
use crate::verify::{FrameParams, SegmentVerifier};
use crate::wire::FrameReader;
use eric_crypto::sha256::Digest;
use eric_puf::crp::Challenge;
use std::io::Read;

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
}

/// The bounded-memory entry points. They share the key unit and timing
/// model of the buffered [`SecureLoader::process`], which stays the
/// byte-equality oracle.
impl SecureLoader {
    /// Stream a full `ERIC2` wire frame and collect the verified
    /// plaintext and leaf table — the drop-in replacement for parsing
    /// a frame and calling [`SecureLoader::process`], pinned
    /// byte-identical to it by the conformance suite.
    ///
    /// # Errors
    ///
    /// The error order of [`SecureLoader::process`], from the same
    /// parser and verifier: [`HdeError::Malformed`] for structural
    /// problems (including a non-`ERIC2` frame), then
    /// [`HdeError::WrongEpoch`], then [`HdeError::SignatureMismatch`]
    /// for a manifest that fails authentication, then
    /// [`HdeError::SegmentMismatch`] naming the first bad segment. A
    /// stream that ends early is [`HdeError::Malformed`] when the read
    /// runs dry, after every complete segment before it has been
    /// checked; the frame must be the whole stream, so a byte after
    /// the last segment is [`HdeError::Malformed`] too.
    pub fn process_stream<R: Read>(&self, source: R) -> Result<LoadedProgram, HdeError> {
        let mut plaintext = Vec::new();
        let (report, (leaves, root)) = self.stream(source, |_, segment: &[u8]| {
            plaintext.extend_from_slice(segment);
        })?;
        Ok(LoadedProgram {
            plaintext,
            text_len: report.text_len,
            cycles: report.cycles,
            leaves,
            root,
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
    /// See [`SecureLoader::process_stream`].
    pub fn process_stream_with<R: Read, F: FnMut(usize, &[u8])>(
        &self,
        source: R,
        sink: F,
    ) -> Result<StreamReport, HdeError> {
        self.stream(source, sink).map(|(report, _)| report)
    }

    /// The streaming driver behind both entry points: also returns the
    /// authenticated leaf table, every entry of which matched its
    /// decrypted segment, and its Merkle root.
    fn stream<R: Read, F: FnMut(usize, &[u8])>(
        &self,
        source: R,
        mut sink: F,
    ) -> Result<(StreamReport, (Vec<Digest>, Digest)), HdeError> {
        let mut reader = FrameReader::new(source);
        let head = reader.head()?;
        let SignatureBlock::Segmented {
            encrypted_root,
            manifest,
        } = &head.signature
        else {
            return Err(HdeError::Malformed(
                "streaming requires a segmented (ERIC2) frame; \
                 ERIC1 has no per-segment leaves to verify against"
                    .into(),
            ));
        };
        let aad = head.aad();
        let challenge = Challenge::from_bytes(&head.challenge);
        let payload_len = head.header.payload_len as usize;
        let text_len = head.header.text_len as usize;
        let frame = FrameParams {
            aad: &aad,
            challenge: &challenge,
            cipher: head.header.cipher,
            epoch: head.header.epoch,
            nonce: head.header.nonce,
            map: &head.map,
            policy: head.header.policy,
            text_len,
            payload_len,
        };
        let verifier = SegmentVerifier::new(self, frame, *encrypted_root, manifest)?;

        // Read → verify → release. One reused segment buffer is the
        // entire payload working set, and the loop visits every
        // segment the manifest covers.
        let segment_len = manifest.segment_len() as usize;
        let mut segment_buf = vec![0u8; segment_len.min(payload_len)];
        for (index, start) in (0..payload_len).step_by(segment_len).enumerate() {
            let segment = &mut segment_buf[..segment_len.min(payload_len - start)];
            reader.fill(segment, "payload segment")?;
            verifier.verify_block(index, segment)?;
            sink(index, segment);
        }
        reader.end()?;

        let report = StreamReport {
            payload_len,
            text_len,
            segments: manifest.segments(),
            cycles: verifier.cycles(1),
            peak_buffered: segment_buf.len(),
        };
        Ok((report, verifier.into_table()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::SecureInput;
    use crate::manifest::{signed_root, SegmentManifest};
    use crate::map::CoverageMap;
    use crate::transform::{transform_manifest_leaves, transform_payload, transform_signature};
    use crate::wire::{HEADER_FIXED_LEN, MAGIC_V2};
    use eric_crypto::cipher::CipherKind;
    use eric_crypto::sha256::tree;
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
        let mut root =
            *signed_root(&aad, segment_len, leaves.len(), &tree::merkle_root(&leaves)).as_bytes();
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
        let streamed = l.process_stream(frame.as_slice()).expect("streams");
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
        let report = l
            .process_stream_with(frame.as_slice(), |_, seg| out.extend_from_slice(seg))
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
        for len in 0..frame.len() {
            assert!(
                l.process_stream(&frame[..len]).is_err(),
                "truncation to {len}"
            );
        }
        assert!(l.process_stream(frame.as_slice()).is_ok());
    }

    #[test]
    fn tampered_segment_rejected_before_release() {
        let l = loader(34);
        let payload: Vec<u8> = (0..4 * 64).map(|i| i as u8).collect();
        let mut frame = wire_frame(&l, 3, &payload, 64);
        let payload_at = frame.len() - payload.len();
        frame[payload_at + 130] ^= 1; // inside segment 2
        let mut released = 0usize;
        let err = l
            .process_stream_with(frame.as_slice(), |_, seg| released += seg.len())
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
        let err = l
            .process_stream_with(frame.as_slice(), |_, seg| released += seg.len())
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
        let err = l.process_stream(frame.as_slice()).unwrap_err();
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
        let err = l.process_stream(forged.as_slice()).unwrap_err();
        assert!(matches!(err, HdeError::Malformed(_)), "{err}");
    }

    #[test]
    fn forged_read_length_allocates_only_what_arrives() {
        // A 1 TiB claim over a 3-byte stream: sized up front, this
        // allocation would abort the process.
        let err = FrameReader::new(&[1u8, 2, 3][..])
            .bytes(1 << 40, "map bits")
            .unwrap_err();
        assert!(
            matches!(&err, HdeError::Malformed(m) if m.contains("map bits")),
            "{err}"
        );
        let mut reader = FrameReader::new(&[1u8, 2, 3][..]);
        assert_eq!(reader.bytes(2, "x").unwrap(), [1, 2]);
    }

    #[test]
    fn empty_payload_streams() {
        let l = loader(38);
        let frame = wire_frame(&l, 8, &[], 64);
        let out = l.process_stream(frame.as_slice()).expect("empty ok");
        assert!(out.plaintext.is_empty());
    }
}
