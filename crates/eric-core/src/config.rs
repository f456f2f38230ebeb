//! Encryption configuration: the paper's operator interface.
//!
//! "There are three different encryption methods that can be used ...
//! the complete encryption of the program, partial encryption of the
//! program, and the partial encryption of a select few instructions of
//! the program by specifying the target bits in the instruction
//! encoding" (§III-1). The paper drives these through a GUI; here the
//! same choices are a typed, validated builder.

use eric_crypto::cipher::CipherKind;
use eric_hde::{FieldPolicy, DEFAULT_SEGMENT_LEN};

/// Which of the paper's three encryption methods to apply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EncryptionMode {
    /// Encrypt every instruction and all data (no map shipped).
    Full,
    /// Encrypt a random fraction of instructions (the paper's partial
    /// configuration: "the instructions randomly determined are
    /// selected for encryption"), plus the whole data section. Ships a
    /// 1-bit-per-parcel map.
    PartialRandom {
        /// Fraction of instructions to encrypt, in `(0, 1]`.
        fraction: f64,
        /// Selection seed (deterministic builds).
        seed: u64,
    },
    /// Encrypt only chosen bit-fields inside each instruction,
    /// according to a [`FieldPolicy`]; data is fully encrypted.
    /// Requires an uncompressed build.
    FieldLevel(FieldPolicy),
}

/// How the package's integrity signature is computed and shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureScheme {
    /// v1 (the paper's scheme, wire magic `ERIC1`): one SHA-256 digest
    /// over `AAD ‖ plaintext payload`. The HDE must regenerate it in a
    /// single sequential hash chain. Pin it with
    /// [`EncryptionConfig::with_legacy_signature`] for paper-figure
    /// parity; existing `ERIC1` packages keep parsing and validating
    /// byte-for-byte regardless of the configured default.
    Single,
    /// v2 (the default, wire magic `ERIC2`): a per-segment leaf-digest
    /// manifest whose AAD-bound Merkle root is signed. Segments are
    /// independently decryptable and verifiable, so the HDE fans them
    /// across decryption lanes.
    Segmented {
        /// Payload bytes per segment (positive multiple of 4 so a
        /// segment boundary can never split an instruction word).
        segment_len: u32,
    },
}

impl SignatureScheme {
    /// Whether this scheme ships a segment manifest (v2).
    pub fn is_segmented(&self) -> bool {
        matches!(self, SignatureScheme::Segmented { .. })
    }
}

/// Full build/encryption configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct EncryptionConfig {
    /// The encryption method.
    pub mode: EncryptionMode,
    /// The keystream cipher (Table I uses the XOR cipher).
    pub cipher: CipherKind,
    /// Key epoch to build for.
    pub epoch: u64,
    /// Emit compressed (RVC) instructions.
    pub compress: bool,
    /// Signature scheme: the segmented hash-tree manifest (default,
    /// wire v2 — validation fans across HDE lanes) or the paper's
    /// single digest ([`EncryptionConfig::with_legacy_signature`]).
    pub signature: SignatureScheme,
}

impl EncryptionConfig {
    /// Complete encryption with the default configuration: XOR cipher
    /// (Table I), epoch 0, uncompressed, segmented (`ERIC2`) signature
    /// with [`DEFAULT_SEGMENT_LEN`]-byte segments.
    ///
    /// The segmented signature is the only departure from the paper's
    /// build — it makes HDE validation lane-parallel at a size cost
    /// tracked in Figure 5's v2 column. Pin the paper's exact scheme
    /// with [`EncryptionConfig::with_legacy_signature`].
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, EncryptionMode};
    ///
    /// let config = EncryptionConfig::full();
    /// assert_eq!(config.mode, EncryptionMode::Full);
    /// assert!(config.signature.is_segmented());
    /// assert!(config.validate().is_ok());
    /// ```
    pub fn full() -> Self {
        EncryptionConfig {
            mode: EncryptionMode::Full,
            cipher: CipherKind::Xor,
            epoch: 0,
            compress: false,
            signature: SignatureScheme::Segmented {
                segment_len: DEFAULT_SEGMENT_LEN,
            },
        }
    }

    /// Random partial encryption of `fraction` of instructions.
    pub fn partial(fraction: f64, seed: u64) -> Self {
        EncryptionConfig {
            mode: EncryptionMode::PartialRandom { fraction, seed },
            ..Self::full()
        }
    }

    /// Field-level encryption under `policy`.
    pub fn field_level(policy: FieldPolicy) -> Self {
        EncryptionConfig {
            mode: EncryptionMode::FieldLevel(policy),
            ..Self::full()
        }
    }

    /// Use a different cipher (builder style).
    pub fn with_cipher(mut self, cipher: CipherKind) -> Self {
        self.cipher = cipher;
        self
    }

    /// Build for a specific key epoch (builder style).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Enable RVC compression (builder style).
    pub fn with_compression(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Ship a segmented (v2) signature with an explicit
    /// `segment_len`-byte segment size (builder style). The default
    /// configuration is already segmented with
    /// [`DEFAULT_SEGMENT_LEN`]-byte segments; use this only when the
    /// payload calls for a different granularity.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, SignatureScheme};
    ///
    /// let config = EncryptionConfig::full().with_segments(4096);
    /// assert_eq!(
    ///     config.signature,
    ///     SignatureScheme::Segmented { segment_len: 4096 }
    /// );
    /// assert!(config.validate().is_ok());
    /// ```
    pub fn with_segments(mut self, segment_len: u32) -> Self {
        self.signature = SignatureScheme::Segmented { segment_len };
        self
    }

    /// Ship the paper's legacy (v1, `ERIC1`) single-digest signature
    /// instead of the segmented default (builder style).
    ///
    /// The v1 scheme is what the paper's figures measure: one SHA-256
    /// over `AAD ‖ payload`, no manifest bytes on the wire, and a
    /// strictly sequential regeneration in the HDE. The paper-parity
    /// benches (Figure 5's `full`/`partial` columns, Figure 7's v1
    /// column) pin it with this builder.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, SignatureScheme};
    ///
    /// let config = EncryptionConfig::full().with_legacy_signature();
    /// assert_eq!(config.signature, SignatureScheme::Single);
    /// assert!(config.validate().is_ok());
    /// ```
    pub fn with_legacy_signature(mut self) -> Self {
        self.signature = SignatureScheme::Single;
        self
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem: out-of-range partial
    /// fraction, or field-level encryption combined with compression
    /// (field masks are defined on 32-bit words only).
    pub fn validate(&self) -> Result<(), String> {
        match self.mode {
            EncryptionMode::PartialRandom { fraction, .. }
                if !(fraction > 0.0 && fraction <= 1.0) =>
            {
                return Err(format!("partial fraction {fraction} must be in (0, 1]"));
            }
            EncryptionMode::FieldLevel(_) if self.compress => {
                return Err("field-level encryption requires an uncompressed build".into());
            }
            _ => {}
        }
        if let SignatureScheme::Segmented { segment_len } = self.signature {
            if segment_len == 0 || segment_len % 4 != 0 {
                return Err(format!(
                    "segment length {segment_len} must be a positive multiple of 4"
                ));
            }
        }
        Ok(())
    }
}

impl Default for EncryptionConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1_plus_segmented_signature() {
        let c = EncryptionConfig::full();
        assert_eq!(c.cipher, CipherKind::Xor);
        assert_eq!(c.mode, EncryptionMode::Full);
        assert!(!c.compress);
        // The one departure from Table I: v2 segmented signatures by
        // default, at the loader's streaming-chunk granularity.
        assert_eq!(
            c.signature,
            SignatureScheme::Segmented {
                segment_len: DEFAULT_SEGMENT_LEN
            }
        );
        assert_eq!(EncryptionConfig::default(), c);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn legacy_signature_pins_v1() {
        let c = EncryptionConfig::full().with_legacy_signature();
        assert_eq!(c.signature, SignatureScheme::Single);
        assert!(!c.signature.is_segmented());
        assert!(c.validate().is_ok());
        // The pin survives other builder steps in either order.
        let c = EncryptionConfig::partial(0.5, 1)
            .with_epoch(2)
            .with_legacy_signature()
            .with_compression(true);
        assert_eq!(c.signature, SignatureScheme::Single);
    }

    #[test]
    fn partial_fraction_validated() {
        assert!(EncryptionConfig::partial(0.5, 1).validate().is_ok());
        assert!(EncryptionConfig::partial(1.0, 1).validate().is_ok());
        assert!(EncryptionConfig::partial(0.0, 1).validate().is_err());
        assert!(EncryptionConfig::partial(1.5, 1).validate().is_err());
        assert!(EncryptionConfig::partial(-0.1, 1).validate().is_err());
    }

    #[test]
    fn field_level_rejects_compression() {
        let c = EncryptionConfig::field_level(FieldPolicy::MemoryPointers).with_compression(true);
        assert!(c.validate().is_err());
        let c = EncryptionConfig::field_level(FieldPolicy::MemoryPointers);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = EncryptionConfig::full()
            .with_cipher(CipherKind::ShaCtr)
            .with_epoch(3)
            .with_compression(true);
        assert_eq!(c.cipher, CipherKind::ShaCtr);
        assert_eq!(c.epoch, 3);
        assert!(c.compress);
    }

    #[test]
    fn segment_length_validated() {
        assert!(EncryptionConfig::full().with_segments(4).validate().is_ok());
        assert!(EncryptionConfig::full()
            .with_segments(64 * 1024)
            .validate()
            .is_ok());
        assert!(EncryptionConfig::full()
            .with_segments(0)
            .validate()
            .is_err());
        assert!(EncryptionConfig::full()
            .with_segments(6)
            .validate()
            .is_err());
        assert!(EncryptionConfig::full()
            .with_legacy_signature()
            .with_segments(4)
            .signature
            .is_segmented());
    }
}
