//! Keystream ciphers: the paper's XOR cipher and a pluggable alternative.
//!
//! ERIC "is compatible with different encryption methods. New encryption
//! algorithms can be easily implemented in the system" (§III-1). The
//! [`KeystreamCipher`] trait is that extension point: a cipher exposes a
//! position-addressable keystream, and encryption/decryption is the same
//! XOR operation (symmetric, an involution).
//!
//! Position addressing matters for *partial* encryption: when only a
//! subset of 16-bit instruction parcels is encrypted, the Decryption Unit
//! must derive the keystream byte for an arbitrary payload offset without
//! processing the bytes before it.

use crate::sha256::multibuffer::{self, Engine, MultiSha256, MAX_LANES};
use crate::sha256::{CompressEngine, Sha256};
use std::fmt;

/// Scratch size used by the default block implementations. One page:
/// large enough to amortize per-block costs, small enough to live on
/// the stack (the hardware analogue is the HDE's keystream FIFO depth).
pub const KEYSTREAM_CHUNK: usize = 4096;

/// A cipher that produces a deterministic keystream addressed by byte
/// position.
///
/// Encrypting and decrypting are both [`KeystreamCipher::apply`]: the
/// keystream byte at absolute position `p` is XORed into the buffer byte
/// that lives at position `p`. Applying twice restores the plaintext.
///
/// The trait is *block-oriented*: implementations materialize whole
/// keystream runs with [`KeystreamCipher::fill_keystream`], and the
/// XOR-in helper [`KeystreamCipher::apply`] is built on top of it. The
/// per-byte [`KeystreamCipher::keystream_byte`] remains as the
/// correctness *oracle*: tests check that block fills match it
/// byte-for-byte, but no hot path calls it.
pub trait KeystreamCipher {
    /// Keystream byte at absolute byte position `pos`.
    ///
    /// This is the reference definition of the stream — the slow,
    /// obviously-correct oracle. Hot paths use
    /// [`KeystreamCipher::fill_keystream`] instead.
    fn keystream_byte(&self, pos: u64) -> u8;

    /// Fill `out` with the keystream bytes for absolute positions
    /// `offset .. offset + out.len()`.
    ///
    /// Must produce exactly the bytes [`KeystreamCipher::keystream_byte`]
    /// would, but is free to generate them a block at a time.
    fn fill_keystream(&self, offset: u64, out: &mut [u8]);

    /// Human-readable cipher name (used in package headers and reports).
    fn name(&self) -> &'static str;

    /// XOR the keystream into `buf`, where `buf[0]` sits at absolute
    /// position `offset` in the payload.
    ///
    /// The default fills a stack scratch block with
    /// [`KeystreamCipher::fill_keystream`] and XORs it in slice-wide,
    /// so implementors only ever write one block routine.
    fn apply(&self, offset: u64, buf: &mut [u8]) {
        let mut ks = [0u8; KEYSTREAM_CHUNK];
        let mut done = 0usize;
        while done < buf.len() {
            let n = (buf.len() - done).min(KEYSTREAM_CHUNK);
            self.fill_keystream(offset + done as u64, &mut ks[..n]);
            for (b, k) in buf[done..done + n].iter_mut().zip(&ks[..n]) {
                *b ^= *k;
            }
            done += n;
        }
    }
}

/// The paper's XOR cipher (Table I: "Encryption Function: XOR Cipher").
///
/// The keystream is the PUF-based key repeated: byte `p` of the stream is
/// `key[p mod key_len]`. The paper describes it as "an encryption method
/// made by passing instructions through successive XOR gates", chosen
/// "for the simplicity of the design" — the hardware datapath is a row of
/// XOR gates keyed by the Key Management Unit output.
///
/// ```rust
/// use eric_crypto::cipher::{KeystreamCipher, XorCipher};
/// let cipher = XorCipher::new(&[0x01, 0x02, 0x03, 0x04]);
/// let mut data = *b"attack at dawn";
/// cipher.apply(0, &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// cipher.apply(0, &mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct XorCipher {
    key: Vec<u8>,
}

impl XorCipher {
    /// Create an XOR cipher from a key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty: an empty key would make the "cipher" the
    /// identity function, silently shipping plaintext.
    pub fn new(key: &[u8]) -> Self {
        assert!(!key.is_empty(), "XOR cipher key must not be empty");
        XorCipher { key: key.to_vec() }
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key.len()
    }
}

impl fmt::Debug for XorCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "XorCipher {{ key_len: {} }}", self.key.len())
    }
}

impl KeystreamCipher for XorCipher {
    fn keystream_byte(&self, pos: u64) -> u8 {
        self.key[(pos % self.key.len() as u64) as usize]
    }

    /// Rotate the key into the buffer with whole-slice copies: one
    /// partial copy to phase-align, then full-key `copy_from_slice`
    /// repeats (memcpy speed) instead of a modulo per byte.
    fn fill_keystream(&self, offset: u64, out: &mut [u8]) {
        let klen = self.key.len();
        let mut kpos = (offset % klen as u64) as usize;
        let mut i = 0usize;
        while i < out.len() {
            let n = (klen - kpos).min(out.len() - i);
            out[i..i + n].copy_from_slice(&self.key[kpos..kpos + n]);
            i += n;
            kpos = 0;
        }
    }

    fn name(&self) -> &'static str {
        "xor"
    }

    /// XOR the rotated key straight into the buffer — no scratch block,
    /// single pass (the software shape of the paper's row of XOR gates).
    fn apply(&self, offset: u64, buf: &mut [u8]) {
        let klen = self.key.len();
        let mut kpos = (offset % klen as u64) as usize;
        let mut i = 0usize;
        while i < buf.len() {
            let n = (klen - kpos).min(buf.len() - i);
            for (b, k) in buf[i..i + n].iter_mut().zip(&self.key[kpos..kpos + n]) {
                *b ^= *k;
            }
            i += n;
            kpos = 0;
        }
    }
}

/// A SHA-256 counter-mode keystream cipher.
///
/// Demonstrates the paper's claim that "the user has the freedom to upload
/// his own encryption method to the system": the keystream block `i` is
/// `SHA-256(key ‖ i)`, so the stream has no short period, unlike
/// [`XorCipher`]. Used by the cipher-choice ablation bench.
///
/// ```rust
/// use eric_crypto::cipher::{KeystreamCipher, ShaCtrCipher};
/// let cipher = ShaCtrCipher::new(&[7u8; 32]);
/// let mut data = vec![0u8; 100];
/// cipher.apply(0, &mut data);
/// let once = data.clone();
/// cipher.apply(0, &mut data);
/// assert_eq!(data, vec![0u8; 100]);
/// assert_ne!(once, vec![0u8; 100]);
/// ```
#[derive(Clone)]
pub struct ShaCtrCipher {
    key: Vec<u8>,
}

impl ShaCtrCipher {
    /// Keystream block size (one SHA-256 digest).
    pub const BLOCK: u64 = 32;

    /// Create a SHA-CTR cipher from a key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty.
    pub fn new(key: &[u8]) -> Self {
        assert!(!key.is_empty(), "SHA-CTR cipher key must not be empty");
        ShaCtrCipher { key: key.to_vec() }
    }

    fn block(&self, index: u64) -> [u8; 32] {
        self.block_with(crate::sha256::active_compress(), index)
    }

    /// The one place the single-stream counter message is defined:
    /// `SHA-256(key ‖ LE64(index))` on an explicit compress engine.
    /// [`ShaCtrCipher::blocks_into`] is the lockstep (multi-buffer)
    /// rendering of the same message.
    fn block_with(&self, engine: &'static CompressEngine, index: u64) -> [u8; 32] {
        let mut h = Sha256::with_engine(engine);
        h.update(&self.key);
        h.update(&index.to_le_bytes());
        h.finalize().0
    }

    /// Materialize one lockstep group of keystream blocks
    /// `first .. first + out.len()`: every counter message is
    /// `key ‖ LE64(counter)` — identical length across the group — so
    /// all of them compress through one wide kernel call instead of
    /// one scalar chain each. The caller batches the stream into
    /// groups of at most [`MAX_LANES`] blocks.
    fn blocks_into(&self, engine: &'static Engine, first: u64, out: &mut [[u8; 32]]) {
        let lanes = out.len();
        debug_assert!((1..=MAX_LANES).contains(&lanes));
        let mut hasher = MultiSha256::with_engine(lanes, engine);
        let key_refs = [self.key.as_slice(); MAX_LANES];
        hasher.update(&key_refs[..lanes]);
        let mut counters = [[0u8; 8]; MAX_LANES];
        for (l, counter) in counters[..lanes].iter_mut().enumerate() {
            *counter = (first + l as u64).to_le_bytes();
        }
        let mut counter_refs: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
        for (l, r) in counter_refs[..lanes].iter_mut().enumerate() {
            *r = &counters[l];
        }
        hasher.update(&counter_refs[..lanes]);
        hasher.finalize_into(out);
    }

    /// [`KeystreamCipher::fill_keystream`] pinned to a specific hash
    /// dispatch engine (equivalence tests and dispatch-path
    /// benchmarks; the trait method uses
    /// [`multibuffer::active`]).
    pub fn fill_keystream_with(&self, engine: &'static Engine, offset: u64, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let first_block = offset / Self::BLOCK;
        let last_block = (offset + out.len() as u64 - 1) / Self::BLOCK;
        let out_end = offset + out.len() as u64;
        let mut digests = [[0u8; 32]; MAX_LANES];
        let mut index = first_block;
        while index <= last_block {
            let batch = ((last_block - index + 1) as usize).min(MAX_LANES);
            self.blocks_into(engine, index, &mut digests[..batch]);
            for (j, digest) in digests[..batch].iter().enumerate() {
                // Copy the intersection of this 32-byte block with the
                // requested range (the first and last blocks may be
                // straddled by the request).
                let block_start = (index + j as u64) * Self::BLOCK;
                let copy_from = offset.max(block_start);
                let copy_to = out_end.min(block_start + Self::BLOCK);
                let src = (copy_from - block_start) as usize;
                let dst = (copy_from - offset) as usize;
                let len = (copy_to - copy_from) as usize;
                out[dst..dst + len].copy_from_slice(&digest[src..src + len]);
            }
            index += batch as u64;
        }
    }

    /// The pre-multibuffer fill: one single-stream [`Sha256`] chain
    /// per 32-byte counter block.
    ///
    /// Kept (and exported) as the single-block compress *oracle* — the
    /// analogue of `transform_payload_bytewise` for the hash engine:
    /// tests pin the batched fill byte-identical to it, and the
    /// `crypto_throughput` bench measures what the engine stack bought
    /// over it. Never call it on a hot path. The per-chain compress
    /// rides the dispatched [`Sha256::compress_block`];
    /// [`ShaCtrCipher::fill_keystream_scalar_with`] pins a specific
    /// single-stream engine (the bench pins `scalar` to measure the
    /// pure-software baseline).
    pub fn fill_keystream_scalar(&self, offset: u64, out: &mut [u8]) {
        self.fill_keystream_scalar_with(crate::sha256::active_compress(), offset, out);
    }

    /// [`ShaCtrCipher::fill_keystream_scalar`] pinned to a specific
    /// single-stream compress engine.
    pub fn fill_keystream_scalar_with(
        &self,
        engine: &'static CompressEngine,
        offset: u64,
        out: &mut [u8],
    ) {
        let mut i = 0usize;
        while i < out.len() {
            let pos = offset + i as u64;
            let block = self.block_with(engine, pos / Self::BLOCK);
            let start_in_block = (pos % Self::BLOCK) as usize;
            let take = (Self::BLOCK as usize - start_in_block).min(out.len() - i);
            out[i..i + take].copy_from_slice(&block[start_in_block..start_in_block + take]);
            i += take;
        }
    }
}

impl fmt::Debug for ShaCtrCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShaCtrCipher {{ key_len: {} }}", self.key.len())
    }
}

impl KeystreamCipher for ShaCtrCipher {
    fn keystream_byte(&self, pos: u64) -> u8 {
        let block = self.block(pos / Self::BLOCK);
        block[(pos % Self::BLOCK) as usize]
    }

    /// Counter blocks are fully independent, so the fill batches them
    /// through the multi-buffer SHA-256 engine: up to
    /// [`MAX_LANES`] counter messages per wide compress instead of one
    /// scalar chain per 32-byte block (the shape
    /// [`ShaCtrCipher::fill_keystream_scalar`] preserves as the
    /// oracle).
    fn fill_keystream(&self, offset: u64, out: &mut [u8]) {
        self.fill_keystream_with(multibuffer::active(), offset, out);
    }

    fn name(&self) -> &'static str {
        "sha-ctr"
    }
}

/// Enumerates the ciphers bundled with ERIC, for configuration surfaces
/// (the paper's GUI lets the operator pick the encryption function).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CipherKind {
    /// The paper's XOR cipher (default, matches Table I).
    #[default]
    Xor,
    /// SHA-256 counter-mode keystream.
    ShaCtr,
}

impl CipherKind {
    /// Instantiate the chosen cipher with `key`.
    pub fn instantiate(self, key: &[u8]) -> Box<dyn KeystreamCipher + Send + Sync> {
        match self {
            CipherKind::Xor => Box::new(XorCipher::new(key)),
            CipherKind::ShaCtr => Box::new(ShaCtrCipher::new(key)),
        }
    }

    /// Stable wire identifier for package headers.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherKind::Xor => 0,
            CipherKind::ShaCtr => 1,
        }
    }

    /// Inverse of [`CipherKind::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(CipherKind::Xor),
            1 => Some(CipherKind::ShaCtr),
            _ => None,
        }
    }
}

impl fmt::Display for CipherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CipherKind::Xor => f.write_str("xor"),
            CipherKind::ShaCtr => f.write_str("sha-ctr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let c = XorCipher::new(&[1, 2, 3]);
        let mut data = b"hello world, this is a test".to_vec();
        let orig = data.clone();
        c.apply(0, &mut data);
        assert_ne!(data, orig);
        c.apply(0, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn xor_keystream_period_is_key_length() {
        let c = XorCipher::new(&[0xAA, 0xBB, 0xCC]);
        for pos in 0..30u64 {
            assert_eq!(c.keystream_byte(pos), c.keystream_byte(pos + 3));
        }
    }

    #[test]
    fn xor_positional_decryption_of_fragment() {
        // Decrypting a fragment at its absolute offset must match the
        // fragment of a whole-buffer decryption: partial encryption
        // depends on this.
        let c = XorCipher::new(&[9, 8, 7, 6, 5]);
        let mut whole: Vec<u8> = (0..64).collect();
        c.apply(0, &mut whole);

        let mut fragment: Vec<u8> = (20..36).collect();
        c.apply(20, &mut fragment);
        assert_eq!(&whole[20..36], &fragment[..]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn xor_empty_key_panics() {
        let _ = XorCipher::new(&[]);
    }

    #[test]
    fn sha_ctr_roundtrip() {
        let c = ShaCtrCipher::new(b"puf-based key material");
        let mut data: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        c.apply(5, &mut data);
        assert_ne!(data, orig);
        c.apply(5, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn sha_ctr_apply_matches_per_byte_definition() {
        let c = ShaCtrCipher::new(b"k");
        let mut fast: Vec<u8> = vec![0; 100];
        c.apply(13, &mut fast);
        let slow: Vec<u8> = (0..100u64).map(|i| c.keystream_byte(13 + i)).collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn sha_ctr_has_no_short_period() {
        let c = ShaCtrCipher::new(b"key");
        let stream: Vec<u8> = (0..256u64).map(|p| c.keystream_byte(p)).collect();
        // No period <= 64 within the first 256 bytes.
        for period in 1..=64usize {
            let repeats = (0..(256 - period)).all(|i| stream[i] == stream[i + period]);
            assert!(!repeats, "unexpected period {period}");
        }
    }

    #[test]
    fn fill_keystream_matches_byte_oracle() {
        // The block path must be bit-identical to the per-byte oracle,
        // at awkward offsets and lengths straddling block boundaries.
        let xor = XorCipher::new(&[9, 8, 7, 6, 5, 4, 3]);
        let sha = ShaCtrCipher::new(b"oracle key");
        for cipher in [&xor as &dyn KeystreamCipher, &sha] {
            for offset in [0u64, 1, 6, 7, 31, 32, 33, 4095, 4096, 10_000] {
                for len in [0usize, 1, 2, 7, 31, 32, 33, 100, 5000] {
                    let mut fast = vec![0u8; len];
                    cipher.fill_keystream(offset, &mut fast);
                    let slow: Vec<u8> = (0..len as u64)
                        .map(|i| cipher.keystream_byte(offset + i))
                        .collect();
                    assert_eq!(fast, slow, "{} offset {offset} len {len}", cipher.name());
                }
            }
        }
    }

    #[test]
    fn sha_ctr_multibuffer_fill_matches_scalar_oracle_on_every_engine() {
        // Key lengths straddling the 64-byte block boundary exercise
        // 1- and 2-block counter messages; offsets/lengths exercise
        // head/tail straddling and whole-batch spans.
        for key_len in [1usize, 31, 32, 47, 48, 63, 64, 65, 100] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 37 + 11) as u8).collect();
            let c = ShaCtrCipher::new(&key);
            for engine in multibuffer::engines() {
                for offset in [0u64, 1, 31, 32, 33, 255, 256, 257, 8191] {
                    for len in [0usize, 1, 31, 32, 33, 255, 256, 300, 1000] {
                        let mut want = vec![0u8; len];
                        c.fill_keystream_scalar(offset, &mut want);
                        let mut got = vec![0u8; len];
                        c.fill_keystream_with(engine, offset, &mut got);
                        assert_eq!(
                            got,
                            want,
                            "{} key_len={key_len} offset={offset} len={len}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sha_ctr_scalar_fill_matches_byte_oracle() {
        let c = ShaCtrCipher::new(b"scalar oracle key");
        let mut fast = vec![0u8; 300];
        c.fill_keystream_scalar(13, &mut fast);
        let slow: Vec<u8> = (0..300u64).map(|i| c.keystream_byte(13 + i)).collect();
        assert_eq!(fast, slow);
        // The single-stream oracle is engine-independent: every
        // compress backend fills the identical keystream.
        for engine in crate::sha256::compress_engines() {
            let mut pinned = vec![0u8; 300];
            c.fill_keystream_scalar_with(engine, 13, &mut pinned);
            assert_eq!(pinned, slow, "{}", engine.name());
        }
    }

    #[test]
    fn xor_apply_matches_default_block_apply() {
        // XorCipher overrides apply() with a scratch-free XOR; it must
        // agree with the generic fill-then-XOR path.
        let c = XorCipher::new(&[0x11, 0x22, 0x33]);
        let mut direct: Vec<u8> = (0u16..6000).map(|i| (i % 251) as u8).collect();
        let mut via_fill = direct.clone();
        c.apply(5, &mut direct);
        let mut ks = vec![0u8; via_fill.len()];
        c.fill_keystream(5, &mut ks);
        for (b, k) in via_fill.iter_mut().zip(&ks) {
            *b ^= *k;
        }
        assert_eq!(direct, via_fill);
    }

    #[test]
    fn cipher_kind_wire_roundtrip() {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            assert_eq!(CipherKind::from_wire_id(kind.wire_id()), Some(kind));
        }
        assert_eq!(CipherKind::from_wire_id(0xFF), None);
    }

    #[test]
    fn cipher_kind_instantiate_roundtrip() {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let c = kind.instantiate(&[1, 2, 3, 4]);
            let mut data = b"sample".to_vec();
            c.apply(0, &mut data);
            c.apply(0, &mut data);
            assert_eq!(data, b"sample");
        }
    }

    #[test]
    fn debug_never_leaks_key() {
        let x = XorCipher::new(&[0xDE, 0xAD]);
        let s = ShaCtrCipher::new(&[0xBE, 0xEF]);
        assert!(!format!("{x:?}").contains("de"));
        assert!(!format!("{s:?}").contains("be"));
    }
}
