//! The secure loader: the paper's steps 5–6.
//!
//! "The program and its signature that reaches the hardware are
//! decrypted in the Decryption Unit with the PUF Based Key ... the
//! decrypted program is used to generate signatures again in the
//! Signature Generator Unit ... In the case of a match ... the
//! decrypted program is sent to the Trusted Zone and becomes suitable
//! for executing on the processor."
//!
//! Two signature schemes share this one entry point
//! ([`SecureLoader::process`]):
//!
//! * **v1 (single digest)** — the paper's scheme: one SHA-256 over
//!   `AAD ‖ plaintext`, regenerated in a sequential streaming pass.
//!   That one chain cannot be widened, but it *can* be deepened: the
//!   streaming hasher rides `eric_crypto`'s single-stream dispatch, so
//!   on SHA-NI hosts the v1 chain runs on the dedicated hardware
//!   instructions.
//! * **v2 (segment manifest, the packager's default)** — the payload
//!   is tiled into fixed-size segments, each with its own leaf digest,
//!   and the signed value is the AAD-bound Merkle root
//!   ([`crate::manifest`]). The loader runs the one
//!   [`SegmentVerifier`] every v2 entry point shares. Segments are
//!   independent, so it fans blocks of them across
//!   [`crate::parallel::map_lane_blocks`] lanes that decrypt *and*
//!   leaf-hash in one pass — the hash work that v1 serializes scales
//!   with lane count. The sequential remainder (the Merkle node fold)
//!   and ragged-tail leaves ride the same single-stream dispatch as v1.

use crate::error::HdeError;
use crate::manifest::{SegmentManifest, SignatureBlock};
use crate::map::CoverageMap;
use crate::policy::FieldPolicy;
use crate::timing::{HdeCycles, HdeTimingConfig};
use crate::transform::{transform_region, transform_signature};
use crate::units::KeyUnit;
use crate::verify::{FrameParams, SegmentVerifier};
use eric_crypto::cipher::CipherKind;
use eric_crypto::sha256::{tree, Digest, Sha256};
use eric_puf::crp::Challenge;
use eric_puf::device::PufDevice;
use std::fmt;

/// Streaming decrypt granularity: how much ciphertext the Decryption
/// Unit processes before handing the chunk to the Signature Generator.
/// Must stay a multiple of 4 so field-level policies never see a split
/// instruction word.
const STREAM_CHUNK: usize = 64 * 1024;

/// Everything the HDE receives from the outside world for one program
/// (unpacked from the wire format by `eric-core`).
#[derive(Clone, Debug)]
pub struct SecureInput<'a> {
    /// Encrypted payload: text section followed by data section.
    pub payload: &'a [u8],
    /// Additional authenticated data: cleartext package metadata (load
    /// addresses, entry point) that the signature must also cover, so
    /// header tampering is caught exactly like payload tampering.
    pub aad: &'a [u8],
    /// Length of the text region within the payload.
    pub text_len: usize,
    /// Encryption coverage map.
    pub map: &'a CoverageMap,
    /// Field-level policy, if the package used field-level encryption.
    pub policy: Option<FieldPolicy>,
    /// The signature material, encrypted: a v1 single digest or a v2
    /// root + segment manifest. (This replaces the former hardcoded
    /// `encrypted_signature: [u8; 32]` field, which would have
    /// silently truncated anything larger than one digest.)
    pub signature: &'a SignatureBlock,
    /// Which cipher the package was encrypted with.
    pub cipher: CipherKind,
    /// PUF challenge selecting the key.
    pub challenge: &'a Challenge,
    /// Key epoch the package targets.
    pub epoch: u64,
    /// Per-package nonce (re-keys the keystream per package).
    pub nonce: u64,
}

/// A validated, decrypted program ready for the trusted zone.
#[derive(Clone)]
pub struct LoadedProgram {
    /// Decrypted payload (text ‖ data).
    pub plaintext: Vec<u8>,
    /// Length of the text region.
    pub text_len: usize,
    /// Cycles the HDE spent.
    pub cycles: HdeCycles,
    /// Per-segment leaf digests of `plaintext`, in segment order: the
    /// manifest table this load authenticated against the signed root
    /// and matched, in constant time, with the leaf it recomputed for
    /// every decrypted segment. Empty for a v1 single-digest package.
    pub leaves: Vec<Digest>,
    /// [`tree::merkle_root`] of `leaves`, the root the signed root
    /// binds, as manifest authentication folded it (the empty table's
    /// root for v1).
    pub root: Digest,
}

impl fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LoadedProgram {{ {} bytes ({} text), {} cycles }}",
            self.plaintext.len(),
            self.text_len,
            self.cycles.total()
        )
    }
}

/// The Hardware Decryption Engine, assembled.
pub struct SecureLoader {
    keys: KeyUnit,
    timing: HdeTimingConfig,
    lanes: usize,
}

impl fmt::Debug for SecureLoader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SecureLoader {{ keys: {:?}, lanes: {} }}",
            self.keys, self.lanes
        )
    }
}

impl SecureLoader {
    /// Build an HDE around a device's PUF bank (single decryption
    /// lane, the paper's configuration).
    pub fn new(puf: PufDevice) -> Self {
        SecureLoader {
            keys: KeyUnit::new(puf),
            timing: HdeTimingConfig::default(),
            lanes: 1,
        }
    }

    /// Set the decryption-lane count (builder style, clamped to ≥ 1).
    ///
    /// Lanes only engage for segmented (v2) packages — a v1 single
    /// digest is one sequential hash chain no matter how many lanes
    /// exist, which is exactly why the segmented scheme was added.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.set_lanes(lanes);
        self
    }

    /// Set the decryption-lane count in place (clamped to ≥ 1).
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes = lanes.max(1);
    }

    /// The key unit (for enrollment and epoch rotation).
    pub fn keys(&self) -> &KeyUnit {
        &self.keys
    }

    /// Mutable key unit access (epoch rotation).
    pub fn keys_mut(&mut self) -> &mut KeyUnit {
        &mut self.keys
    }

    /// The timing constants in use.
    pub fn timing(&self) -> &HdeTimingConfig {
        &self.timing
    }

    /// Decrypt, re-hash, and validate a program (paper steps 5–6).
    ///
    /// On success the plaintext is released for loading into the SoC's
    /// memory, together with the v2 leaf table this pass authenticated
    /// ([`LoadedProgram::leaves`]). On any failure the program is
    /// rejected and *no plaintext leaves the HDE* — exactly the
    /// property that defeats wrong-device and tampering attacks.
    ///
    /// A v2 load runs the [`SegmentVerifier`], with lanes as an
    /// accelerator over its per-block check; a v1 load decrypts and
    /// hashes the payload in one sequential pass.
    ///
    /// # Errors
    ///
    /// The first failing check, in this order, which
    /// [`SecureLoader::process_stream`] shares:
    ///
    /// 1. [`HdeError::Malformed`] for a structurally invalid input: a
    ///    manifest that does not cover the payload, a text length past
    ///    the payload, a map that does not span it, or a field-level
    ///    package with misaligned text;
    /// 2. [`HdeError::WrongEpoch`] for a package built for another key
    ///    epoch;
    /// 3. v2: [`HdeError::SignatureMismatch`] when the shipped manifest
    ///    fails authentication against the signed root — a tampered
    ///    root, leaf, nonce, challenge or AAD, or a package encrypted
    ///    for another device;
    /// 4. v2: [`HdeError::SegmentMismatch`] naming the first segment
    ///    whose recomputed leaf differs from the authenticated manifest;
    /// 5. v1: [`HdeError::SignatureMismatch`] when the regenerated
    ///    digest differs from the shipped one.
    pub fn process(&self, input: &SecureInput<'_>) -> Result<LoadedProgram, HdeError> {
        let frame = FrameParams {
            aad: input.aad,
            challenge: input.challenge,
            cipher: input.cipher,
            epoch: input.epoch,
            nonce: input.nonce,
            map: input.map,
            policy: input.policy,
            text_len: input.text_len,
            payload_len: input.payload.len(),
        };
        match input.signature {
            SignatureBlock::Single { encrypted_digest } => {
                self.process_single(frame, input.payload, *encrypted_digest)
            }
            SignatureBlock::Segmented {
                encrypted_root,
                manifest,
            } => self.process_segmented(frame, input.payload, *encrypted_root, manifest),
        }
    }

    /// v1: one sequential decrypt→hash pipeline over the whole payload.
    fn process_single(
        &self,
        frame: FrameParams<'_>,
        payload: &[u8],
        encrypted_digest: [u8; 32],
    ) -> Result<LoadedProgram, HdeError> {
        let cipher = frame.keystream(&self.keys)?;
        let cipher = cipher.as_ref();
        // Decryption Unit + Signature Generator, pipelined: decrypt the
        // payload in bounded chunks and stream each decrypted chunk
        // straight into the hash — one pass over the data, the software
        // shape of the HDE's decrypt→hash datapath. Chunks are 4-byte
        // aligned so field-level policies never split an instruction
        // word across a chunk boundary.
        let mut hasher = Sha256::new();
        hasher.update(frame.aad);
        let mut plaintext = payload.to_vec();
        let mut at = 0usize;
        while at < plaintext.len() {
            let end = (at + STREAM_CHUNK).min(plaintext.len());
            let chunk = &mut plaintext[at..end];
            transform_region(chunk, at, frame.map, frame.policy, frame.text_len, cipher);
            hasher.update(chunk);
            at = end;
        }
        let computed = hasher.finalize();

        // Signature continuation stream.
        let mut shipped = encrypted_digest;
        transform_signature(&mut shipped, payload.len(), cipher);
        let shipped = Digest::from_bytes(shipped);

        // Validation Unit.
        let cycles = HdeCycles {
            decrypt: self.timing.decrypt_cycles(plaintext.len()),
            hash: self.timing.hash_cycles(plaintext.len()),
            validate: self.timing.validate_cycles,
        };
        if !computed.ct_eq(&shipped) {
            return Err(HdeError::SignatureMismatch { computed, shipped });
        }
        Ok(LoadedProgram {
            plaintext,
            text_len: frame.text_len,
            cycles,
            leaves: Vec::new(),
            root: tree::merkle_root(&[]),
        })
    }

    /// v2: authenticate the manifest, then fan contiguous blocks of
    /// segments across decryption lanes. Each lane decrypts its block
    /// and leaf-hashes it through the multi-buffer SHA-256 engine in
    /// one batched call — no shared hash state between lanes (thread
    /// parallelism), up to 8 leaves per compress within a lane (width
    /// parallelism). This is what makes the signature check scale
    /// where v1's single Merkle–Damgård chain cannot. The lane blocks
    /// tile the payload, so every leaf of the authenticated table is
    /// matched before the table is released.
    fn process_segmented(
        &self,
        frame: FrameParams<'_>,
        payload: &[u8],
        encrypted_root: [u8; 32],
        manifest: &SegmentManifest,
    ) -> Result<LoadedProgram, HdeError> {
        let verifier = SegmentVerifier::new(self, frame, encrypted_root, manifest)?;
        let mut plaintext = payload.to_vec();
        // Lanes report in segment order, so the first error collected
        // names the first bad segment whatever the lane count.
        crate::parallel::map_lane_blocks(
            &mut plaintext,
            manifest.segment_len() as usize,
            self.lanes,
            |first, _, block| verifier.verify_block(first, block),
        )
        .into_iter()
        .collect::<Result<(), _>>()?;
        let cycles = verifier.cycles(self.lanes);
        let (leaves, root) = verifier.into_table();
        Ok(LoadedProgram {
            plaintext,
            text_len: frame.text_len,
            cycles,
            leaves,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::signed_root;
    use crate::transform::{transform_manifest_leaves, transform_payload};
    use eric_crypto::sha256::{sha256, tree};
    use eric_puf::device::PufDeviceConfig;

    /// Encrypt a payload+signature the way the compiler side does (v1),
    /// by reusing the shared transform with the device's own key.
    // Test helper mirroring the full package parameter surface.
    #[allow(clippy::too_many_arguments)]
    fn encrypt_for(
        loader: &SecureLoader,
        challenge: &Challenge,
        epoch: u64,
        nonce: u64,
        payload: &[u8],
        text_len: usize,
        map: &CoverageMap,
        policy: Option<FieldPolicy>,
    ) -> (Vec<u8>, SignatureBlock) {
        let key = loader.keys().package_key(challenge, epoch, nonce);
        let cipher = CipherKind::Xor.instantiate(key.as_bytes());
        let mut sig = *sha256(payload).as_bytes();
        let mut enc = payload.to_vec();
        transform_payload(&mut enc, map, policy, text_len, cipher.as_ref());
        transform_signature(&mut sig, payload.len(), cipher.as_ref());
        (
            enc,
            SignatureBlock::Single {
                encrypted_digest: sig,
            },
        )
    }

    /// Encrypt a payload + segment manifest the way the compiler side
    /// does for a v2 package.
    fn encrypt_segmented_for(
        loader: &SecureLoader,
        challenge: &Challenge,
        nonce: u64,
        payload: &[u8],
        text_len: usize,
        segment_len: u32,
    ) -> (Vec<u8>, SignatureBlock) {
        encrypt_segmented_mapped(
            loader,
            challenge,
            nonce,
            payload,
            text_len,
            segment_len,
            &CoverageMap::Full,
        )
    }

    /// [`encrypt_segmented_for`] with an explicit coverage map.
    #[allow(clippy::too_many_arguments)]
    fn encrypt_segmented_mapped(
        loader: &SecureLoader,
        challenge: &Challenge,
        nonce: u64,
        payload: &[u8],
        text_len: usize,
        segment_len: u32,
        map: &CoverageMap,
    ) -> (Vec<u8>, SignatureBlock) {
        let key = loader.keys().package_key(challenge, 0, nonce);
        let cipher = CipherKind::Xor.instantiate(key.as_bytes());
        let leaves: Vec<Digest> = payload
            .chunks(segment_len as usize)
            .enumerate()
            .map(|(i, seg)| tree::leaf_digest(i as u64, seg))
            .collect();
        let mut root =
            *signed_root(&[], segment_len, leaves.len(), &tree::merkle_root(&leaves)).as_bytes();
        let mut enc = payload.to_vec();
        transform_payload(&mut enc, map, None, text_len, cipher.as_ref());
        transform_signature(&mut root, payload.len(), cipher.as_ref());
        let mut enc_leaves: Vec<[u8; 32]> = leaves.iter().map(|d| *d.as_bytes()).collect();
        transform_manifest_leaves(&mut enc_leaves, payload.len(), cipher.as_ref());
        (
            enc,
            SignatureBlock::Segmented {
                encrypted_root: root,
                manifest: SegmentManifest::new(segment_len, enc_leaves),
            },
        )
    }

    fn loader(seed: u64) -> SecureLoader {
        SecureLoader::new(PufDevice::from_seed(seed, PufDeviceConfig::paper()))
    }

    fn challenge() -> Challenge {
        Challenge::from_bytes(&[0x42; 32])
    }

    #[test]
    fn roundtrip_full_encryption() {
        let l = loader(1);
        let ch = challenge();
        let payload: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        let (enc, sig) = encrypt_for(&l, &ch, 0, 9, &payload, 128, &CoverageMap::Full, None);
        assert_ne!(enc, payload);
        let out = l
            .process(&SecureInput {
                payload: &enc,
                aad: &[],
                text_len: 128,
                map: &CoverageMap::Full,
                policy: None,
                signature: &sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 9,
            })
            .expect("validates");
        assert_eq!(out.plaintext, payload);
        assert!(out.cycles.total() > 0);
        assert!(out.leaves.is_empty(), "a v1 digest has no leaf table");
    }

    #[test]
    fn wrong_device_rejected() {
        let l1 = loader(1);
        let l2 = loader(2);
        let ch = challenge();
        let payload = vec![7u8; 64];
        let (enc, sig) = encrypt_for(&l1, &ch, 0, 1, &payload, 64, &CoverageMap::Full, None);
        let input = SecureInput {
            payload: &enc,
            aad: &[],
            text_len: 64,
            map: &CoverageMap::Full,
            policy: None,
            signature: &sig,
            cipher: CipherKind::Xor,
            challenge: &ch,
            epoch: 0,
            nonce: 1,
        };
        assert!(l1.process(&input).is_ok());
        assert!(matches!(
            l2.process(&input),
            Err(HdeError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn every_single_bitflip_in_payload_rejected() {
        let l = loader(3);
        let ch = challenge();
        let payload: Vec<u8> = (0u8..32).collect();
        let (enc, sig) = encrypt_for(&l, &ch, 0, 5, &payload, 32, &CoverageMap::Full, None);
        for byte in 0..enc.len() {
            for bit in [0, 3, 7] {
                let mut tampered = enc.clone();
                tampered[byte] ^= 1 << bit;
                let r = l.process(&SecureInput {
                    payload: &tampered,
                    aad: &[],
                    text_len: 32,
                    map: &CoverageMap::Full,
                    policy: None,
                    signature: &sig,
                    cipher: CipherKind::Xor,
                    challenge: &ch,
                    epoch: 0,
                    nonce: 5,
                });
                assert!(r.is_err(), "flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn signature_tampering_rejected() {
        let l = loader(4);
        let ch = challenge();
        let payload = vec![1u8; 100];
        let (enc, sig) = encrypt_for(&l, &ch, 0, 2, &payload, 100, &CoverageMap::Full, None);
        let SignatureBlock::Single {
            encrypted_digest: mut raw,
        } = sig
        else {
            panic!("v1 helper built a v1 block");
        };
        raw[0] ^= 0x80;
        let sig = SignatureBlock::Single {
            encrypted_digest: raw,
        };
        assert!(l
            .process(&SecureInput {
                payload: &enc,
                aad: &[],
                text_len: 100,
                map: &CoverageMap::Full,
                policy: None,
                signature: &sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 2,
            })
            .is_err());
    }

    #[test]
    fn wrong_epoch_rejected() {
        let l = loader(5);
        let ch = challenge();
        let payload = vec![9u8; 48];
        let (enc, sig) = encrypt_for(&l, &ch, 0, 3, &payload, 48, &CoverageMap::Full, None);
        let mut input = SecureInput {
            payload: &enc,
            aad: &[],
            text_len: 48,
            map: &CoverageMap::Full,
            policy: None,
            signature: &sig,
            cipher: CipherKind::Xor,
            challenge: &ch,
            epoch: 1, // package was built for epoch 0
            nonce: 3,
        };
        assert!(l.process(&input).is_err());
        input.epoch = 0;
        assert!(l.process(&input).is_ok());
    }

    #[test]
    fn malformed_inputs_rejected() {
        let l = loader(6);
        let ch = challenge();
        let payload = vec![0u8; 16];
        let zero_sig = SignatureBlock::Single {
            encrypted_digest: [0; 32],
        };
        // text_len beyond payload.
        assert!(matches!(
            l.process(&SecureInput {
                payload: &payload,
                aad: &[],
                text_len: 32,
                map: &CoverageMap::Full,
                policy: None,
                signature: &zero_sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 0,
            }),
            Err(HdeError::Malformed(_))
        ));
        // Truncated map.
        let short_map = CoverageMap::Partial(crate::map::ParcelBitmap::new(2));
        assert!(matches!(
            l.process(&SecureInput {
                payload: &payload,
                aad: &[],
                text_len: 16,
                map: &short_map,
                policy: None,
                signature: &zero_sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 0,
            }),
            Err(HdeError::Malformed(_))
        ));
        // Manifest that does not cover the payload.
        let bad_manifest = SignatureBlock::Segmented {
            encrypted_root: [0; 32],
            manifest: SegmentManifest::new(4, vec![[0; 32]; 2]), // needs 4 leaves
        };
        assert!(matches!(
            l.process(&SecureInput {
                payload: &payload,
                aad: &[],
                text_len: 16,
                map: &CoverageMap::Full,
                policy: None,
                signature: &bad_manifest,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 0,
            }),
            Err(HdeError::Malformed(_))
        ));
    }

    #[test]
    fn streaming_decrypt_spans_chunk_boundaries() {
        // Payload bigger than STREAM_CHUNK with a partial map: the
        // chunked decrypt+hash pipeline must agree with the compiler
        // side's whole-payload transform.
        use crate::map::ParcelBitmap;
        let l = loader(8);
        let ch = challenge();
        let len = super::STREAM_CHUNK + 4096 + 37;
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let mut bm = ParcelBitmap::new(len.div_ceil(2));
        for p in 0..bm.parcels() {
            if p % 3 != 1 {
                bm.set(p);
            }
        }
        let map = CoverageMap::Partial(bm);
        let (enc, sig) = encrypt_for(&l, &ch, 0, 21, &payload, 1024, &map, None);
        let out = l
            .process(&SecureInput {
                payload: &enc,
                aad: &[],
                text_len: 1024,
                map: &map,
                policy: None,
                signature: &sig,
                cipher: CipherKind::Xor,
                challenge: &ch,
                epoch: 0,
                nonce: 21,
            })
            .expect("validates");
        assert_eq!(out.plaintext, payload);
    }

    #[test]
    fn field_policy_misaligned_text_is_malformed_not_panic() {
        let l = loader(9);
        let ch = challenge();
        let payload = vec![0u8; 16];
        let zero_sig = SignatureBlock::Single {
            encrypted_digest: [0; 32],
        };
        let r = l.process(&SecureInput {
            payload: &payload,
            aad: &[],
            text_len: 10, // not 4-byte aligned
            map: &CoverageMap::Full,
            policy: Some(FieldPolicy::AllButOpcode),
            signature: &zero_sig,
            cipher: CipherKind::Xor,
            challenge: &ch,
            epoch: 0,
            nonce: 0,
        });
        assert!(matches!(r, Err(HdeError::Malformed(_))));
    }

    #[test]
    fn sha_ctr_cipher_works_end_to_end() {
        let l = loader(7);
        let ch = challenge();
        let payload: Vec<u8> = (0u16..256).map(|i| (i * 3 % 256) as u8).collect();
        let key = l.keys().package_key(&ch, 0, 11);
        let cipher = CipherKind::ShaCtr.instantiate(key.as_bytes());
        let mut raw = *sha256(&payload).as_bytes();
        let mut enc = payload.clone();
        transform_payload(&mut enc, &CoverageMap::Full, None, 256, cipher.as_ref());
        transform_signature(&mut raw, payload.len(), cipher.as_ref());
        let sig = SignatureBlock::Single {
            encrypted_digest: raw,
        };
        let out = l
            .process(&SecureInput {
                payload: &enc,
                aad: &[],
                text_len: 256,
                map: &CoverageMap::Full,
                policy: None,
                signature: &sig,
                cipher: CipherKind::ShaCtr,
                challenge: &ch,
                epoch: 0,
                nonce: 11,
            })
            .expect("sha-ctr validates");
        assert_eq!(out.plaintext, payload);
    }

    // ----------------------------------------------------------------
    // Segmented (v2) scheme
    // ----------------------------------------------------------------

    fn segmented_input<'a>(
        enc: &'a [u8],
        sig: &'a SignatureBlock,
        ch: &'a Challenge,
        text_len: usize,
        nonce: u64,
    ) -> SecureInput<'a> {
        SecureInput {
            payload: enc,
            aad: &[],
            text_len,
            map: &CoverageMap::Full,
            policy: None,
            signature: sig,
            cipher: CipherKind::Xor,
            challenge: ch,
            epoch: 0,
            nonce,
        }
    }

    #[test]
    fn segmented_roundtrip_at_every_lane_count() {
        let ch = challenge();
        // Ragged tail: 5 full segments + 1 partial, segment < payload.
        let payload: Vec<u8> = (0..5 * 64 + 17).map(|i| (i * 13 % 251) as u8).collect();
        let base = loader(11);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 31, &payload, 128, 64);
        for lanes in [1usize, 2, 3, 4, 8, 16] {
            let l = loader(11).with_lanes(lanes);
            let out = l
                .process(&segmented_input(&enc, &sig, &ch, 128, 31))
                .unwrap_or_else(|e| panic!("{lanes} lanes: {e}"));
            assert_eq!(out.plaintext, payload, "{lanes} lanes");
            assert!(out.cycles.total() > 0);
            // The returned table is the one-at-a-time leaf hash of the
            // plaintext, whatever the lane split, ragged tail included.
            let want: Vec<Digest> = payload
                .chunks(64)
                .enumerate()
                .map(|(i, seg)| tree::leaf_digest(i as u64, seg))
                .collect();
            assert_eq!(out.leaves, want, "{lanes} lanes");
        }
    }

    #[test]
    fn segmented_lane_cycles_shrink_with_lanes() {
        let ch = challenge();
        let payload = vec![0x5Au8; 64 * 1024];
        let base = loader(12);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 5, &payload, 0, 4096);
        let one = loader(12)
            .with_lanes(1)
            .process(&segmented_input(&enc, &sig, &ch, 0, 5))
            .unwrap();
        let four = loader(12)
            .with_lanes(4)
            .process(&segmented_input(&enc, &sig, &ch, 0, 5))
            .unwrap();
        assert!(
            four.cycles.total() < one.cycles.total(),
            "4 lanes {} !< 1 lane {}",
            four.cycles.total(),
            one.cycles.total()
        );
    }

    #[test]
    fn segmented_partial_map_roundtrips_across_lanes() {
        // The lane closure must agree with the compiler side's
        // whole-payload transform when a partial map leaves holes that
        // straddle segment boundaries.
        use crate::map::ParcelBitmap;
        let ch = challenge();
        let len: usize = 5 * 64 + 23;
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
        let mut bm = ParcelBitmap::new(len.div_ceil(2));
        for p in 0..bm.parcels() {
            if p % 3 != 1 {
                bm.set(p);
            }
        }
        let map = CoverageMap::Partial(bm);
        let base = loader(19);
        let (enc, sig) = encrypt_segmented_mapped(&base, &ch, 13, &payload, 64, 64, &map);
        for lanes in [1usize, 2, 3, 8] {
            let l = loader(19).with_lanes(lanes);
            let out = l
                .process(&SecureInput {
                    payload: &enc,
                    aad: &[],
                    text_len: 64,
                    map: &map,
                    policy: None,
                    signature: &sig,
                    cipher: CipherKind::Xor,
                    challenge: &ch,
                    epoch: 0,
                    nonce: 13,
                })
                .unwrap_or_else(|e| panic!("{lanes} lanes: {e}"));
            assert_eq!(out.plaintext, payload, "{lanes} lanes");
        }
    }

    #[test]
    fn lane_cycles_floor_at_whole_segments() {
        // One 64 KiB segment cannot be split: eight lanes must charge
        // the same cycles as one (lanes own whole segments).
        let ch = challenge();
        let payload = vec![0x5Au8; 64 * 1024];
        let base = loader(18);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 6, &payload, 0, 64 * 1024);
        let one = loader(18)
            .with_lanes(1)
            .process(&segmented_input(&enc, &sig, &ch, 0, 6))
            .unwrap();
        let eight = loader(18)
            .with_lanes(8)
            .process(&segmented_input(&enc, &sig, &ch, 0, 6))
            .unwrap();
        assert_eq!(one.cycles, eight.cycles);
    }

    #[test]
    fn segmented_payload_tamper_names_the_segment() {
        let ch = challenge();
        let payload: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let base = loader(13);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 7, &payload, 0, 64);
        for (byte, want_segment) in [(0usize, 0usize), (70, 1), (150, 2), (255, 3)] {
            let mut tampered = enc.clone();
            tampered[byte] ^= 0x10;
            let l = loader(13).with_lanes(2);
            match l.process(&segmented_input(&tampered, &sig, &ch, 0, 7)) {
                Err(HdeError::SegmentMismatch { segment }) => {
                    assert_eq!(segment, want_segment, "byte {byte}");
                }
                other => panic!("byte {byte}: expected SegmentMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn segmented_manifest_and_root_tampering_rejected() {
        let ch = challenge();
        let payload: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        let base = loader(14);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 9, &payload, 0, 128);
        let SignatureBlock::Segmented {
            encrypted_root,
            manifest,
        } = &sig
        else {
            panic!("v2 helper built a v2 block");
        };
        // Flip a bit in one shipped leaf: the manifest is authenticated
        // before any segment is compared, so the root check fails first.
        let mut leaves = manifest.leaves().to_vec();
        leaves[1][0] ^= 1;
        let forged = SignatureBlock::Segmented {
            encrypted_root: *encrypted_root,
            manifest: SegmentManifest::new(manifest.segment_len(), leaves),
        };
        assert!(matches!(
            loader(14).process(&segmented_input(&enc, &forged, &ch, 0, 9)),
            Err(HdeError::SignatureMismatch { .. })
        ));
        // Flip a bit in the root.
        let mut root = *encrypted_root;
        root[31] ^= 0x80;
        let forged = SignatureBlock::Segmented {
            encrypted_root: root,
            manifest: manifest.clone(),
        };
        assert!(matches!(
            loader(14).process(&segmented_input(&enc, &forged, &ch, 0, 9)),
            Err(HdeError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn segmented_aad_is_bound_by_the_root() {
        let ch = challenge();
        let payload = vec![3u8; 200];
        let base = loader(15);
        // Sign with aad = [] (the helper's fixed AAD), then present a
        // different AAD: the signed root must not match.
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 3, &payload, 0, 64);
        let mut input = segmented_input(&enc, &sig, &ch, 0, 3);
        input.aad = b"forged metadata";
        assert!(matches!(
            loader(15).process(&input),
            Err(HdeError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn segmented_wrong_device_rejected_without_plaintext_release() {
        let ch = challenge();
        let payload: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let base = loader(16);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 2, &payload, 0, 64);
        assert!(loader(16)
            .process(&segmented_input(&enc, &sig, &ch, 0, 2))
            .is_ok());
        // A different PUF derives a different keystream: every segment
        // decrypts to garbage and the first one already mismatches.
        assert!(loader(99)
            .process(&segmented_input(&enc, &sig, &ch, 0, 2))
            .is_err());
    }

    #[test]
    fn segmented_empty_payload_validates() {
        let ch = challenge();
        let base = loader(17);
        let (enc, sig) = encrypt_segmented_for(&base, &ch, 1, &[], 0, 64);
        let out = loader(17)
            .with_lanes(4)
            .process(&segmented_input(&enc, &sig, &ch, 0, 1))
            .expect("empty payload validates");
        assert!(out.plaintext.is_empty());
    }
}
