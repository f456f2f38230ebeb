//! The one segment verifier behind every segmented (v2) entry point.
//!
//! [`SecureLoader::process`], [`SecureLoader::process_stream`] and
//! `eric-core`'s delta patcher all drive [`SegmentVerifier`], so a v2
//! load runs the same checks in the same order wherever it enters:
//!
//! 1. structural checks, then the epoch check, then key derivation
//!    (`FrameParams::keystream`, shared with v1);
//! 2. manifest authentication: the full leaf table is folded once,
//!    bound to the AAD by [`signed_root`] and compared with the
//!    decrypted shipped root *before any payload byte is decrypted*;
//! 3. per block of whole segments: decrypt → one batched
//!    [`tree::leaf_digests_batch`] → constant-time compare against the
//!    authenticated table ([`SegmentVerifier::verify_block`]);
//! 4. every load ends with [`SegmentVerifier::into_table`]: the
//!    authenticated table and the root step 2 folded, with no second
//!    fold, since step 3 matched every decrypted segment against that
//!    table. One cycle model covers every entry point.
//!
//! The entry points differ only in how they feed step 3: the buffered
//! loader hands each decryption lane one block through
//! [`map_lane_blocks`](crate::parallel::map_lane_blocks), the streaming
//! loader one segment at a time as it arrives, and the delta patcher
//! only the segments it ships; it keeps the others from the installed
//! image, whose cached leaves fill the rest of the authenticated table.

use crate::error::HdeError;
use crate::loader::SecureLoader;
use crate::manifest::{signed_root, SegmentManifest};
use crate::map::CoverageMap;
use crate::policy::FieldPolicy;
use crate::timing::{HdeCycles, HdeTimingConfig};
use crate::transform::{transform_manifest_leaves, transform_region, transform_signature};
use crate::units::KeyUnit;
use eric_crypto::cipher::{CipherKind, KeystreamCipher};
use eric_crypto::sha256::{tree, Digest};
use eric_puf::crp::Challenge;

/// The cleartext parameters of one load: what the HDE checks, keys
/// and authenticates a payload against.
#[derive(Clone, Copy, Debug)]
pub struct FrameParams<'a> {
    /// Additional authenticated data: the frame's header prefix.
    pub aad: &'a [u8],
    /// PUF challenge selecting the key.
    pub challenge: &'a Challenge,
    /// Cipher the frame is encrypted with.
    pub cipher: CipherKind,
    /// Key epoch the frame targets.
    pub epoch: u64,
    /// Per-frame keystream nonce.
    pub nonce: u64,
    /// Encryption coverage map.
    pub map: &'a CoverageMap,
    /// Field-level policy, if the frame used field-level encryption.
    pub policy: Option<FieldPolicy>,
    /// Length of the text region within the payload.
    pub text_len: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl FrameParams<'_> {
    /// Step 1 of every load, v1 or v2: refuse a structurally invalid
    /// frame ([`HdeError::Malformed`]), then one for another key epoch
    /// ([`HdeError::WrongEpoch`]), then derive the frame's keystream.
    pub(crate) fn keystream(
        &self,
        keys: &KeyUnit,
    ) -> Result<Box<dyn KeystreamCipher + Send + Sync>, HdeError> {
        if self.text_len > self.payload_len {
            return Err(HdeError::Malformed(format!(
                "text length {} exceeds payload {}",
                self.text_len, self.payload_len
            )));
        }
        if let CoverageMap::Partial(bm) = self.map {
            let needed = self.payload_len.div_ceil(bm.granularity() as usize);
            if bm.parcels() < needed {
                return Err(HdeError::Malformed(format!(
                    "map covers {} parcels, payload has {needed}",
                    bm.parcels()
                )));
            }
        }
        if self.policy.is_some() && !self.text_len.is_multiple_of(4) {
            return Err(HdeError::Malformed(format!(
                "field-level package with misaligned text length {}",
                self.text_len
            )));
        }
        // The KMU only derives keys for the device's *current* epoch;
        // rotating the epoch therefore revokes every older package.
        if self.epoch != keys.epoch() {
            return Err(HdeError::WrongEpoch {
                package: self.epoch,
                device: keys.epoch(),
            });
        }
        let key = keys.package_key(self.challenge, self.epoch, self.nonce);
        Ok(self.cipher.instantiate(key.as_bytes()))
    }
}

/// A segmented load past manifest authentication, holding the
/// authenticated leaf table every payload block is checked against.
/// Both constructors authenticate first, so no payload byte can be
/// decrypted under an unauthenticated table.
pub struct SegmentVerifier<'a> {
    timing: HdeTimingConfig,
    frame: FrameParams<'a>,
    segment_len: u32,
    cipher: Box<dyn KeystreamCipher + Send + Sync>,
    leaves: Vec<Digest>,
    /// [`tree::merkle_root`] of `leaves`, folded once at authentication.
    tree_root: Digest,
}

impl<'a> SegmentVerifier<'a> {
    /// Steps 1–2 for a frame that ships its whole manifest: a full
    /// `ERIC2` frame, buffered or streamed. A manifest that does not
    /// cover the payload is [`HdeError::Malformed`].
    pub(crate) fn new(
        loader: &SecureLoader,
        frame: FrameParams<'a>,
        encrypted_root: [u8; 32],
        manifest: &SegmentManifest,
    ) -> Result<Self, HdeError> {
        if !manifest.covers_payload(frame.payload_len) {
            return Err(HdeError::Malformed(format!(
                "manifest has {} leaves of {}-byte segments for a {}-byte payload",
                manifest.segments(),
                manifest.segment_len(),
                frame.payload_len
            )));
        }
        let segment_len = manifest.segment_len();
        Self::authenticate(loader, frame, segment_len, encrypted_root, |cipher| {
            let mut leaves = manifest.leaves().to_vec();
            transform_manifest_leaves(&mut leaves, frame.payload_len, cipher);
            Ok::<_, HdeError>(leaves.into_iter().map(Digest::from_bytes).collect())
        })
    }

    /// Steps 1–2 for any leaf table: after step 1, `table` decrypts or
    /// rebuilds the full plaintext leaf table under the frame's
    /// keystream (a delta rebuilds it from the installed image's cache
    /// plus the shipped replacements, after checking its base), and
    /// the table must fold to the decrypted `encrypted_root`
    /// ([`HdeError::SignatureMismatch`] otherwise). This is the load's
    /// one fold; [`SegmentVerifier::into_table`] hands its root out.
    pub fn authenticate<E: From<HdeError>>(
        loader: &SecureLoader,
        frame: FrameParams<'a>,
        segment_len: u32,
        encrypted_root: [u8; 32],
        table: impl FnOnce(&dyn KeystreamCipher) -> Result<Vec<Digest>, E>,
    ) -> Result<Self, E> {
        let cipher = frame.keystream(loader.keys())?;
        let leaves = table(cipher.as_ref())?;
        let mut shipped = encrypted_root;
        transform_signature(&mut shipped, frame.payload_len, cipher.as_ref());
        let shipped = Digest::from_bytes(shipped);
        let tree_root = tree::merkle_root(&leaves);
        let computed = signed_root(frame.aad, segment_len, leaves.len(), &tree_root);
        if !computed.ct_eq(&shipped) {
            return Err(HdeError::SignatureMismatch { computed, shipped }.into());
        }
        Ok(SegmentVerifier {
            timing: *loader.timing(),
            frame,
            segment_len,
            cipher,
            leaves,
            tree_root,
        })
    }

    /// Step 3 for a block of whole segments starting at segment
    /// `first` (the payload's last segment may be short): decrypt
    /// `block` in place at its absolute payload offset, leaf-hash it in
    /// one batched call, and compare each leaf in constant time against
    /// the authenticated table. [`HdeError::SegmentMismatch`] names the
    /// block's first bad segment.
    pub fn verify_block(&self, first: usize, block: &mut [u8]) -> Result<(), HdeError> {
        let segment_len = self.segment_len as usize;
        // Segment boundaries are 4-aligned, so a field policy never
        // sees a split instruction word.
        transform_region(
            block,
            first * segment_len,
            self.frame.map,
            self.frame.policy,
            self.frame.text_len,
            self.cipher.as_ref(),
        );
        let leaves = tree::leaf_digests_batch(first as u64, block, segment_len);
        for (segment, leaf) in (first..).zip(&leaves) {
            if !self
                .leaves
                .get(segment)
                .is_some_and(|want| leaf.ct_eq(want))
            {
                return Err(HdeError::SegmentMismatch { segment });
            }
        }
        Ok(())
    }

    /// Step 4 of every load: the authenticated leaf table and the
    /// Merkle root it was folded to, with no further fold. The caller
    /// must have passed every segment it decrypted through
    /// [`SegmentVerifier::verify_block`]: a full load every segment of
    /// the payload, a delta the segments it ships. A delta supplied
    /// the leaves of the segments it did not decrypt to `table` from
    /// storage it already trusts.
    pub fn into_table(self) -> (Vec<Digest>, Digest) {
        (self.leaves, self.tree_root)
    }

    /// Modeled cycles of the load on `lanes` decryption lanes (a
    /// streaming load is the one-lane case). Lanes own whole segments,
    /// so the critical path is the busiest lane's bytes: one segment on
    /// eight lanes still costs a full segment. The Merkle fold (one
    /// compression per interior node plus the root binding) stays
    /// sequential but is O(segments), not O(bytes).
    pub(crate) fn cycles(&self, lanes: usize) -> HdeCycles {
        let segments = self.leaves.len();
        let per_lane = (segments.div_ceil(lanes.max(1)) * self.segment_len as usize)
            .min(self.frame.payload_len);
        let fold_nodes = segments.saturating_sub(1) as u64 + 1;
        HdeCycles {
            decrypt: self.timing.decrypt_cycles(per_lane),
            hash: self.timing.hash_cycles(per_lane) + fold_nodes * self.timing.sha_block_cycles,
            validate: self.timing.validate_cycles,
        }
    }
}
