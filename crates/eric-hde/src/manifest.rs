//! Segment manifests and versioned signature blocks.
//!
//! The paper validates a decrypted program against one SHA-256 digest
//! of the whole payload. That single Merkle–Damgård chain is the
//! sequential bottleneck of the HDE: decryption lanes scale nearly
//! linearly (see [`crate::parallel`]), but they all feed one hasher.
//!
//! The *segmented* scheme replaces the monolithic digest with a
//! [`SegmentManifest`]: the packager splits the payload into fixed-size
//! (4-byte-aligned) segments, computes a per-segment leaf digest
//! (`H(0x00 ‖ LE64(index) ‖ segment)`,
//! [`eric_crypto::sha256::tree::leaf_digest`]), and signs the Merkle
//! root *bound to the package context* — [`signed_root`] covers the
//! AAD (which already includes epoch, nonce, challenge, and load
//! addresses), the segment length, and the leaf count, so tampering
//! with the manifest geometry is caught exactly like payload
//! tampering. Segments become independently decryptable and
//! independently verifiable units: each HDE lane decrypts a segment,
//! recomputes its leaf, and compares it against the shipped manifest
//! without ever touching another lane's state.
//!
//! [`SignatureBlock`] is the loader-facing sum of both schemes, so
//! legacy (v1) single-digest packages keep validating byte-for-byte
//! while new (v2) packages carry the manifest.

use eric_crypto::sha256::tree;
use eric_crypto::sha256::{Digest, Sha256};

/// Default payload segment length for segmented signatures: 64 KiB,
/// matching the loader's streaming decrypt chunk, so one segment is
/// one decrypt→hash pipeline pass.
pub const DEFAULT_SEGMENT_LEN: u32 = 64 * 1024;

/// The per-segment digest table shipped with a segmented (v2) package.
///
/// Leaves are stored *encrypted* (a keystream continuation after the
/// encrypted root signature — see
/// [`crate::transform::manifest_stream_offset`]): a leaf is the digest
/// of a plaintext segment, and shipping it in the clear would hand an
/// attacker a dictionary-attack oracle on the program contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentManifest {
    segment_len: u32,
    leaves: Vec<[u8; 32]>,
}

impl SegmentManifest {
    /// Assemble a manifest from its segment length and (encrypted)
    /// leaf digests.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero or not a multiple of 4 — the
    /// packager validates the configuration before ever building one,
    /// and 4-alignment is what guarantees a segment boundary can never
    /// split an instruction word.
    pub fn new(segment_len: u32, leaves: Vec<[u8; 32]>) -> Self {
        assert!(
            segment_len > 0 && segment_len.is_multiple_of(4),
            "segment length {segment_len} must be a positive multiple of 4"
        );
        SegmentManifest {
            segment_len,
            leaves,
        }
    }

    /// Fixed segment length in bytes (the last segment may be shorter).
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// Number of segments (= number of leaves).
    pub fn segments(&self) -> usize {
        self.leaves.len()
    }

    /// The shipped (encrypted) leaf digests, one per segment.
    pub fn leaves(&self) -> &[[u8; 32]] {
        &self.leaves
    }

    /// Whether this manifest's geometry matches a payload of
    /// `payload_len` bytes: exactly `⌈payload_len / segment_len⌉`
    /// leaves.
    pub fn covers_payload(&self, payload_len: usize) -> bool {
        self.leaves.len() == payload_len.div_ceil(self.segment_len as usize)
    }

    /// Serialized size on the wire: segment length + leaf count +
    /// 32 bytes per leaf.
    pub fn wire_len(&self) -> usize {
        4 + 4 + 32 * self.leaves.len()
    }
}

/// The signature material of a package, by wire-format version.
///
/// This replaces the loader's former hardcoded
/// `encrypted_signature: [u8; 32]` field: the enum makes the scheme
/// explicit, so future signature material can grow without silently
/// truncating to 32 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignatureBlock {
    /// v1: one SHA-256 digest of `AAD ‖ plaintext payload`, encrypted
    /// as a keystream continuation of the payload (the paper's
    /// original scheme).
    Single {
        /// The encrypted 256-bit payload digest.
        encrypted_digest: [u8; 32],
    },
    /// v2: the encrypted AAD-bound Merkle root ([`signed_root`]) plus
    /// the segment manifest it commits to.
    Segmented {
        /// The encrypted 256-bit signed root.
        encrypted_root: [u8; 32],
        /// Per-segment (encrypted) leaf digests.
        manifest: SegmentManifest,
    },
}

impl SignatureBlock {
    /// Whether this block carries a segment manifest (v2).
    pub fn is_segmented(&self) -> bool {
        matches!(self, SignatureBlock::Segmented { .. })
    }

    /// Serialized size of the block on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            SignatureBlock::Single { .. } => 32,
            SignatureBlock::Segmented { manifest, .. } => 32 + manifest.wire_len(),
        }
    }
}

/// The digest a segmented package signs: the Merkle root of the
/// plaintext leaf digests, bound to the package context.
///
/// `H(0x02 ‖ LE64(aad.len) ‖ aad ‖ LE32(segment_len) ‖
/// LE64(leaf count) ‖ merkle_root(leaves))`
///
/// The AAD already carries epoch, nonce, challenge, load addresses,
/// and payload length; binding the segment length and leaf count on
/// top makes manifest-geometry tampering (growing, shrinking, or
/// re-chunking the segment table) change the signed value even when
/// the individual leaves are untouched. Both the packager and the HDE
/// compute exactly this function — they share this one implementation,
/// so the two sides cannot drift.
///
/// `root` is [`tree::merkle_root`] of the `leaf_count` leaves. Callers
/// fold a table once and keep its root, so binding it to a frame costs
/// one hash over the AAD, not another fold of the table.
pub fn signed_root(aad: &[u8], segment_len: u32, leaf_count: usize, root: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[tree::BIND_TAG]);
    h.update(&(aad.len() as u64).to_le_bytes());
    h.update(aad);
    h.update(&segment_len.to_le_bytes());
    h.update(&(leaf_count as u64).to_le_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| tree::leaf_digest(i as u64, &[i as u8; 8]))
            .collect()
    }

    #[test]
    fn manifest_geometry_checks() {
        let m = SegmentManifest::new(64, vec![[0u8; 32]; 3]);
        assert_eq!(m.segment_len(), 64);
        assert_eq!(m.segments(), 3);
        assert!(m.covers_payload(129)); // ⌈129/64⌉ = 3
        assert!(m.covers_payload(192));
        assert!(!m.covers_payload(193));
        assert!(!m.covers_payload(64));
        assert_eq!(m.wire_len(), 4 + 4 + 96);
    }

    #[test]
    fn empty_payload_manifest() {
        let m = SegmentManifest::new(4, vec![]);
        assert!(m.covers_payload(0));
        assert!(!m.covers_payload(1));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn misaligned_segment_len_panics() {
        let _ = SegmentManifest::new(6, vec![]);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn zero_segment_len_panics() {
        let _ = SegmentManifest::new(0, vec![]);
    }

    /// The signed root of a whole table, folded here.
    fn bind(aad: &[u8], segment_len: u32, leaves: &[Digest]) -> Digest {
        signed_root(aad, segment_len, leaves.len(), &tree::merkle_root(leaves))
    }

    #[test]
    fn signed_root_binds_everything() {
        let ls = leaves(3);
        let base = bind(b"aad", 64, &ls);
        assert_ne!(base, bind(b"aab", 64, &ls), "aad not bound");
        assert_ne!(base, bind(b"aad", 68, &ls), "segment_len not bound");
        assert_ne!(base, bind(b"aad", 64, &ls[..2]), "table not bound");
        let root = tree::merkle_root(&ls);
        assert_ne!(base, signed_root(b"aad", 64, 4, &root), "count not bound");
        let mut reordered = ls.clone();
        reordered.swap(0, 1);
        assert_ne!(base, bind(b"aad", 64, &reordered), "order not bound");
    }

    #[test]
    fn signature_block_wire_len() {
        let single = SignatureBlock::Single {
            encrypted_digest: [0; 32],
        };
        assert_eq!(single.wire_len(), 32);
        assert!(!single.is_segmented());
        let seg = SignatureBlock::Segmented {
            encrypted_root: [0; 32],
            manifest: SegmentManifest::new(4, vec![[0; 32]; 2]),
        };
        assert_eq!(seg.wire_len(), 32 + 4 + 4 + 64);
        assert!(seg.is_segmented());
    }
}
