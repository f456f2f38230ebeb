//! The one codec for the start of an `ERIC1`/`ERIC2` wire frame.
//!
//! ```text
//! magic ‖ cipher ‖ policy ‖ epoch ‖ nonce ‖ text_base ‖ data_base ‖
//! entry ‖ text_len ‖ payload_len ‖ challenge_len ‖ challenge   (the AAD)
//! map block ‖ signature block ‖ payload
//! ```
//!
//! Every device entry point parses through [`FrameReader`]:
//! `eric-core`'s `Package::from_wire` over a borrowed slice,
//! [`StreamingLoader`](crate::StreamingLoader) over any [`Read`]
//! source, and the `ERIC2D` delta parser through the same header,
//! challenge and map readers. The packagers write through
//! [`FrameHeader::write`], [`write_challenge`] and [`write_map`], so
//! the bytes a signature covers and the bytes a parser reads share one
//! layout.
//!
//! Every length is unauthenticated when it is read, so no buffer here
//! is sized from one: fixed-width fields land in stack arrays and
//! variable-length fields grow with the bytes that actually arrive. A
//! forged length over a short input is a truncation error, never a
//! large allocation. Every failure is an [`HdeError::Malformed`]
//! naming the field.

use crate::error::HdeError;
use crate::manifest::{SegmentManifest, SignatureBlock};
use crate::map::{CoverageMap, ParcelBitmap};
use crate::policy::FieldPolicy;
use eric_crypto::cipher::CipherKind;
use std::io::{ErrorKind, Read};

/// Wire magic: "ERIC" + format version 1 (single-digest signature).
pub const MAGIC_V1: &[u8; 5] = b"ERIC1";

/// Wire magic: "ERIC" + format version 2 (segment-manifest signature).
pub const MAGIC_V2: &[u8; 5] = b"ERIC2";

/// Serialized length of a full frame's fixed header fields: magic +
/// cipher + policy + epoch + nonce + text_base + data_base + entry +
/// text_len + payload_len + challenge_len (the challenge follows).
pub const HEADER_FIXED_LEN: usize = 5 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 2;

/// The cleartext fields every frame opens with: the magic, then the
/// fields a full frame and an `ERIC2D` delta frame share. They start
/// the frame's additional authenticated data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// [`MAGIC_V1`], [`MAGIC_V2`], or the delta frame's magic.
    pub magic: &'static [u8],
    /// Cipher the frame is encrypted with.
    pub cipher: CipherKind,
    /// Field-level policy, when field-level encryption was used.
    pub policy: Option<FieldPolicy>,
    /// Key epoch the frame targets.
    pub epoch: u64,
    /// Per-frame keystream nonce.
    pub nonce: u64,
    /// Load address of the text section.
    pub text_base: u64,
    /// Load address of the data section.
    pub data_base: u64,
    /// Entry point.
    pub entry: u64,
    /// Text length in bytes (prefix of the payload).
    pub text_len: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Append the magic and the fields to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.magic);
        out.push(self.cipher.wire_id());
        out.push(self.policy.map_or(0xFF, FieldPolicy::wire_id));
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.text_base.to_le_bytes());
        out.extend_from_slice(&self.data_base.to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&self.text_len.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
    }
}

/// Append the length-prefixed PUF challenge to `out`.
pub fn write_challenge(out: &mut Vec<u8>, challenge: &[u8]) {
    out.extend_from_slice(&(challenge.len() as u16).to_le_bytes());
    out.extend_from_slice(challenge);
}

/// Append the coverage-map block (tag, geometry, bits) to `out`.
pub fn write_map(out: &mut Vec<u8>, map: &CoverageMap) {
    match map {
        CoverageMap::Full => out.push(0),
        CoverageMap::Partial(bm) => {
            out.push(1);
            out.push(bm.granularity() as u8);
            out.extend_from_slice(&(bm.parcels() as u32).to_le_bytes());
            out.extend_from_slice(bm.to_bytes());
        }
    }
}

/// Serialized size of the coverage-map block.
pub fn map_wire_len(map: &CoverageMap) -> usize {
    match map {
        CoverageMap::Full => 1,
        CoverageMap::Partial(_) => 1 + 1 + 4 + map.wire_len(),
    }
}

/// Everything a full frame carries before its payload, as parsed by
/// [`FrameReader::head`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameHead {
    /// The fixed header fields.
    pub header: FrameHeader,
    /// The PUF challenge selecting the key.
    pub challenge: Vec<u8>,
    /// The encryption coverage map.
    pub map: CoverageMap,
    /// The encrypted signature material.
    pub signature: SignatureBlock,
}

impl FrameHead {
    /// The frame's AAD. The parser accepts only canonical encodings,
    /// so re-encoding gives exactly the bytes that were on the wire.
    pub(crate) fn aad(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_FIXED_LEN + self.challenge.len());
        self.header.write(&mut out);
        write_challenge(&mut out, &self.challenge);
        out
    }
}

fn malformed(message: impl Into<String>) -> HdeError {
    HdeError::Malformed(message.into())
}

/// An incremental reader over frame bytes from any [`Read`] source: a
/// `&[u8]` for a frame already in memory, a socket or a file for a
/// streaming install. Each read names its field in the
/// [`HdeError::Malformed`] it returns on truncation.
#[derive(Debug)]
pub struct FrameReader<R> {
    source: R,
}

impl<R: Read> FrameReader<R> {
    /// Read frame fields from `source`.
    pub fn new(source: R) -> Self {
        FrameReader { source }
    }

    /// Fill `buf` exactly (a payload segment, or a fixed-width field).
    pub(crate) fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), HdeError> {
        self.source.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => malformed(format!("truncated at {what}")),
            _ => malformed(format!("stream error at {what}: {e}")),
        })
    }

    /// A fixed-width field of `N` bytes.
    pub fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], HdeError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf, what)?;
        Ok(buf)
    }

    /// A little-endian `u32` field.
    pub fn u32(&mut self, what: &str) -> Result<u32, HdeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64` field.
    fn u64(&mut self, what: &str) -> Result<u64, HdeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A variable-length field of `n` bytes. `n` may come from an
    /// unauthenticated length field, so the buffer grows with the
    /// bytes received rather than being sized from `n` up front.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<Vec<u8>, HdeError> {
        let mut buf = Vec::new();
        (&mut self.source)
            .take(n as u64)
            .read_to_end(&mut buf)
            .map_err(|e| malformed(format!("stream error at {what}: {e}")))?;
        if buf.len() < n {
            return Err(malformed(format!("truncated at {what}")));
        }
        Ok(buf)
    }

    /// The fields after a `magic` the caller has already read and
    /// matched. Refuses unknown identifiers and a text length past the
    /// payload.
    pub fn header(&mut self, magic: &'static [u8]) -> Result<FrameHeader, HdeError> {
        let [cipher, policy] = self.array("cipher and policy")?;
        let header = FrameHeader {
            magic,
            cipher: CipherKind::from_wire_id(cipher).ok_or_else(|| malformed("unknown cipher"))?,
            policy: match policy {
                0xFF => None,
                id => {
                    Some(FieldPolicy::from_wire_id(id).ok_or_else(|| malformed("unknown policy"))?)
                }
            },
            epoch: self.u64("epoch")?,
            nonce: self.u64("nonce")?,
            text_base: self.u64("text base")?,
            data_base: self.u64("data base")?,
            entry: self.u64("entry")?,
            text_len: self.u32("text length")?,
            payload_len: self.u32("payload length")?,
        };
        if header.text_len > header.payload_len {
            return Err(malformed(format!(
                "text length {} exceeds payload {}",
                header.text_len, header.payload_len
            )));
        }
        Ok(header)
    }

    /// The length-prefixed PUF challenge.
    pub fn challenge(&mut self) -> Result<Vec<u8>, HdeError> {
        let len = u16::from_le_bytes(self.array("challenge length")?);
        self.bytes(len.into(), "challenge")
    }

    /// The coverage-map block of a frame whose payload is
    /// `payload_len` bytes. Only the canonical encoding is accepted:
    /// exactly ⌈payload_len / granularity⌉ parcels and no bit set past
    /// the last parcel, so every accepted map bit selects a parcel.
    pub fn map(&mut self, payload_len: usize) -> Result<CoverageMap, HdeError> {
        match self.array("map tag")? {
            [0] => Ok(CoverageMap::Full),
            [1] => {
                let [granularity] = self.array("map granularity")?;
                if granularity != 2 && granularity != 4 {
                    return Err(malformed(format!("bad map granularity {granularity}")));
                }
                let parcels = self.u32("map parcels")? as usize;
                let needed = payload_len.div_ceil(granularity.into());
                if parcels != needed {
                    return Err(malformed(format!(
                        "map covers {parcels} parcels, payload has {needed}"
                    )));
                }
                let bits = self.bytes(parcels.div_ceil(8), "map bits")?;
                let used = parcels % 8;
                if used != 0 && bits.last().is_some_and(|&last| last >> used != 0) {
                    return Err(malformed("map sets bits past its last parcel"));
                }
                let bitmap = ParcelBitmap::from_parts(bits, parcels, granularity.into());
                Ok(CoverageMap::Partial(bitmap))
            }
            [tag] => Err(malformed(format!("unknown map tag {tag}"))),
        }
    }

    /// A full `ERIC1`/`ERIC2` frame up to its payload, which is left
    /// unread in the source. The manifest geometry is checked against
    /// the payload length before any leaf is read, and the leaf table
    /// grows only as leaves arrive.
    pub fn head(&mut self) -> Result<FrameHead, HdeError> {
        let magic = match &self.array::<5>("magic")? {
            m if m == MAGIC_V1 => MAGIC_V1,
            m if m == MAGIC_V2 => MAGIC_V2,
            _ => return Err(malformed("bad magic")),
        };
        let header = self.header(magic)?;
        let challenge = self.challenge()?;
        let payload_len = header.payload_len as usize;
        let map = self.map(payload_len)?;
        let signature = if magic == MAGIC_V2 {
            let encrypted_root = self.array("signed root")?;
            let segment_len = self.u32("segment length")?;
            if segment_len == 0 || !segment_len.is_multiple_of(4) {
                return Err(malformed(format!("bad segment length {segment_len}")));
            }
            let leaf_count = self.u32("leaf count")? as usize;
            if leaf_count != payload_len.div_ceil(segment_len as usize) {
                return Err(malformed(format!(
                    "manifest has {leaf_count} leaves of {segment_len}-byte segments \
                     for a {payload_len}-byte payload"
                )));
            }
            let mut leaves = Vec::new();
            for _ in 0..leaf_count {
                leaves.push(self.array("manifest leaf")?);
            }
            SignatureBlock::Segmented {
                encrypted_root,
                manifest: SegmentManifest::new(segment_len, leaves),
            }
        } else {
            SignatureBlock::Single {
                encrypted_digest: self.array("signature")?,
            }
        };
        Ok(FrameHead {
            header,
            challenge,
            map,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A partial-map block with 4-byte parcels claiming `parcels`
    /// parcels, followed by `bits`.
    fn partial_map(parcels: u32, bits: &[u8]) -> Vec<u8> {
        let mut block = vec![1, 4];
        block.extend_from_slice(&parcels.to_le_bytes());
        block.extend_from_slice(bits);
        block
    }

    /// A 52-byte payload has exactly 13 four-byte parcels: two map
    /// bytes, the last with bits 5–7 unused.
    const PAYLOAD_LEN: usize = 52;

    fn read(block: &[u8]) -> Result<CoverageMap, HdeError> {
        FrameReader::new(block).map(PAYLOAD_LEN)
    }

    #[test]
    fn parcel_count_other_than_the_payload_needs_is_rejected() {
        assert!(read(&partial_map(13, &[0xA5, 0x1F])).is_ok());
        // 12, 14 and 15 parcels fit the same two map bytes as 13.
        for parcels in [12, 14, 15, 16, 0, u32::MAX] {
            let err = read(&partial_map(parcels, &[0xA5, 0x1F])).unwrap_err();
            assert!(
                matches!(&err, HdeError::Malformed(m) if m.contains("payload has 13")),
                "{parcels} parcels: {err}"
            );
        }
    }

    #[test]
    fn map_bit_past_the_last_parcel_is_rejected() {
        assert!(read(&partial_map(13, &[0xA5, 0x1F])).is_ok());
        for bit in 5..8 {
            let err = read(&partial_map(13, &[0xA5, 0x1F | 1 << bit])).unwrap_err();
            assert!(
                matches!(&err, HdeError::Malformed(m) if m.contains("last parcel")),
                "bit {bit}: {err}"
            );
        }
    }
}
