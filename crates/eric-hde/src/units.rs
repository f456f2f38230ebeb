//! The HDE's key unit (paper §III-2): the PUF Key Generator and Key
//! Management Unit, which share the device's PUF bank and key epoch.

use eric_crypto::kdf::{DerivedKey, KeyManagementUnit};
use eric_puf::crp::{respond, Challenge};
use eric_puf::device::PufDevice;
use std::fmt;

/// The PUF Key Generator + Key Management Unit pair: owns the device's
/// arbiter-PUF bank and derives PUF-based keys on demand without ever
/// exposing the raw PUF key.
pub struct KeyUnit {
    puf: PufDevice,
    kmu: KeyManagementUnit,
    /// Current key epoch (rotating it re-keys the device; packages
    /// built for older epochs stop validating).
    epoch: u64,
}

impl fmt::Debug for KeyUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyUnit {{ epoch: {}, puf: {:?} }}",
            self.epoch, self.puf
        )
    }
}

impl KeyUnit {
    /// Wrap a fabricated PUF bank at epoch 0.
    pub fn new(puf: PufDevice) -> Self {
        KeyUnit {
            puf,
            kmu: KeyManagementUnit::new(),
            epoch: 0,
        }
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rotate to a new epoch (the paper's re-configurable PUF-based
    /// keys: "allowing to change the compatible software resources
    /// according to time or preferences").
    pub fn rotate_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The PUF-based key for `challenge` at a given epoch — identical
    /// to what [`eric_puf::crp::respond`] hands the vendor during
    /// enrollment.
    pub fn puf_based_key(&self, challenge: &Challenge, epoch: u64) -> DerivedKey {
        *respond(&self.puf, challenge, epoch).key()
    }

    /// Derive the per-package keystream key (current hardware side of
    /// the KMU function).
    pub fn package_key(&self, challenge: &Challenge, epoch: u64, nonce: u64) -> DerivedKey {
        let base = self.puf_based_key(challenge, epoch);
        self.kmu.package_key(&base, nonce)
    }

    /// Access the underlying PUF bank (for enrollment flows).
    pub fn puf(&self) -> &PufDevice {
        &self.puf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_puf::device::PufDeviceConfig;

    fn key_unit(seed: u64) -> KeyUnit {
        KeyUnit::new(PufDevice::from_seed(seed, PufDeviceConfig::paper()))
    }

    #[test]
    fn key_unit_matches_enrollment() {
        let unit = key_unit(7);
        let ch = Challenge::from_bytes(&[3; 32]);
        let enrolled = respond(unit.puf(), &ch, 0);
        assert!(unit.puf_based_key(&ch, 0).ct_eq(enrolled.key()));
    }

    #[test]
    fn epoch_rotation_changes_keys() {
        let mut unit = key_unit(8);
        let ch = Challenge::from_bytes(&[4; 32]);
        let k0 = unit.puf_based_key(&ch, unit.epoch());
        unit.rotate_epoch();
        let k1 = unit.puf_based_key(&ch, unit.epoch());
        assert!(!k0.ct_eq(&k1));
        assert_eq!(unit.epoch(), 1);
    }

    #[test]
    fn package_keys_differ_per_nonce() {
        let unit = key_unit(9);
        let ch = Challenge::from_bytes(&[5; 32]);
        let a = unit.package_key(&ch, 0, 1);
        let b = unit.package_key(&ch, 0, 2);
        assert!(!a.ct_eq(&b));
    }
}
