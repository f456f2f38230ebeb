//! The untrusted transport channel (paper step 4 + threat model §II-C).
//!
//! "We assume that the executable (program binaries) is transmitted
//! over an untrusted network. Malicious parties can retrieve the
//! executable to violate IP rights, make modifications to the
//! executable and send the modified version to the destination
//! hardware." The channel model serializes a package to wire bytes,
//! lets an [`Attacker`] act on them, and re-parses at the far end —
//! exactly what a network adversary can do.

use crate::delta::{DeltaPackage, DELTA_PAYLOAD_LEN_OFFSET};
use crate::error::EricError;
use crate::package::Package;
use eric_hde::wire::PAYLOAD_LEN_OFFSET;

/// Adversarial actions on in-flight packages.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Attacker {
    /// Faithful delivery (also models soft-error-free storage).
    Passive,
    /// Flip one bit (models both tampering and soft errors in
    /// transit/storage — threat (iv)).
    BitFlip {
        /// Byte index into the wire image.
        byte: usize,
        /// Bit index 0–7.
        bit: u8,
    },
    /// Truncate the wire image to `keep` bytes.
    ///
    /// `keep` at or beyond the wire length is passive (nothing to
    /// cut); `keep` below the fixed header length breaks framing and
    /// surfaces as a clear `truncated at …` parse error.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Replace the encrypted payload bytes with attacker-chosen bytes
    /// of the same length (threat (ii): unknown-origin code).
    SubstitutePayload {
        /// The replacement bytes (repeated/truncated to fit).
        filler: u8,
    },
    /// Deliver the frame at `index` twice during batch transmission
    /// (replay within one fan-out wave). Passive on a single-frame
    /// transmit — there is no second delivery slot.
    Duplicate {
        /// Batch position to replay (out of range: passive).
        index: usize,
    },
    /// Swap the delivery order of the frames at positions `a` and `b`
    /// during batch transmission. Passive on a single-frame transmit.
    Reorder {
        /// First batch position.
        a: usize,
        /// Second batch position.
        b: usize,
    },
}

/// A point-to-point untrusted channel.
#[derive(Clone, Debug)]
pub struct Channel {
    attacker: Attacker,
}

impl Channel {
    /// A clean channel.
    pub fn trusted_free() -> Self {
        Channel {
            attacker: Attacker::Passive,
        }
    }

    /// A channel with an active attacker.
    pub fn with_attacker(attacker: Attacker) -> Self {
        Channel { attacker }
    }

    /// What an eavesdropper sees: the raw wire bytes. Static-analysis
    /// resistance metrics run over this view.
    pub fn eavesdrop(&self, package: &Package) -> Vec<u8> {
        package.to_wire()
    }

    /// Transmit a package through the channel, applying the attacker's
    /// action, and re-parse it at the receiver.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] when the mutation breaks the framing
    /// itself (detected before the HDE even runs).
    pub fn transmit(&self, package: &Package) -> Result<Package, EricError> {
        self.transmit_wire(&package.to_wire())
    }

    /// Transmit an already-serialized wire frame through the channel —
    /// the zero-copy provisioning path
    /// ([`SoftwareSource::package_prepared_into`](crate::SoftwareSource::package_prepared_into),
    /// the daemon's [`WireFrame`](crate::WireFrame)) hands its bytes
    /// here without ever materializing a [`Package`] on the sender
    /// side.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] when the mutation breaks the framing
    /// itself (detected before the HDE even runs).
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Channel, Device, EncryptionConfig, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(77, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let image = source
    ///     .compile("main:\n li a0, 5\n li a7, 93\n ecall\n", false)
    ///     .unwrap();
    /// let prepared = source.prepare_image(&image, &EncryptionConfig::full()).unwrap();
    ///
    /// let mut frame = Vec::new();
    /// source.package_prepared_into(&prepared, &cred, &mut frame).unwrap();
    /// let received = Channel::trusted_free().transmit_wire(&frame).unwrap();
    /// assert_eq!(device.install_and_run(&received).unwrap().exit_code, 5);
    /// ```
    pub fn transmit_wire(&self, wire: &[u8]) -> Result<Package, EricError> {
        let mut wire = wire.to_vec();
        self.damage(&mut wire, PAYLOAD_LEN_OFFSET);
        Package::from_wire(&wire)
    }

    /// Apply the attacker's per-frame action to a wire image in place.
    ///
    /// Shared by the full-frame and delta-frame transmit paths so the
    /// two can never drift: only the header offset of the declared
    /// payload length differs between `ERIC2` and `ERIC2D` framing.
    fn damage(&self, wire: &mut Vec<u8>, payload_len_offset: usize) {
        match &self.attacker {
            Attacker::Passive => {}
            Attacker::BitFlip { byte, bit } => {
                if let Some(b) = wire.get_mut(*byte) {
                    *b ^= 1 << (bit % 8);
                }
            }
            Attacker::Truncate { keep } => {
                wire.truncate(*keep);
            }
            Attacker::SubstitutePayload { filler } => {
                // The payload occupies the wire tail; its length is
                // declared at a fixed header offset. A delta frame's
                // tail (changed segments) is usually *shorter* than
                // the declared target-image length, so the clamp means
                // the filler may also smear the leaf/root region —
                // strictly more damage, which the receiver must still
                // reject.
                let payload_len = wire
                    .get(payload_len_offset..payload_len_offset + 4)
                    .map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()) as usize);
                let start = wire.len().saturating_sub(payload_len);
                for b in &mut wire[start..] {
                    *b = *filler;
                }
            }
            // Batch-order attacks have no effect on a lone frame.
            Attacker::Duplicate { .. } | Attacker::Reorder { .. } => {}
        }
    }

    /// Transmit a delta frame ([`DeltaPackage`]) through the channel,
    /// applying the attacker's action, and re-parse it at the receiver.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] when the mutation breaks the `ERIC2D`
    /// framing itself.
    pub fn transmit_delta(&self, delta: &DeltaPackage) -> Result<DeltaPackage, EricError> {
        self.transmit_delta_wire(&delta.to_wire())
    }

    /// Transmit an already-serialized `ERIC2D` frame — the zero-copy
    /// delta path
    /// ([`SoftwareSource::package_delta_into`](crate::SoftwareSource::package_delta_into))
    /// hands its bytes here directly.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] when the mutation breaks the framing.
    pub fn transmit_delta_wire(&self, wire: &[u8]) -> Result<DeltaPackage, EricError> {
        let mut wire = wire.to_vec();
        self.damage(&mut wire, DELTA_PAYLOAD_LEN_OFFSET);
        DeltaPackage::from_wire(&wire)
    }

    /// Transmit a whole provisioning batch, applying the attacker's
    /// action to every package independently.
    ///
    /// Mirrors the fan-out deployment model: each device's package
    /// crosses the untrusted network on its own, so a corrupted
    /// delivery to one device never disturbs its siblings' results.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{
    ///     Channel, Device, EncryptionConfig, Package, ProvisioningDaemon, SoftwareSource,
    /// };
    ///
    /// let mut fleet: Vec<Device> = (0..3)
    ///     .map(|i| Device::with_seed(200 + i, &format!("unit-{i}")))
    ///     .collect();
    /// let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
    /// let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    /// let image = daemon
    ///     .source()
    ///     .compile("main:\n li a0, 7\n li a7, 93\n ecall\n", false)
    ///     .unwrap();
    /// let handle = daemon
    ///     .submit(&image, &EncryptionConfig::full(), creds)
    ///     .unwrap();
    /// let mut outcomes: Vec<_> = handle.iter().collect();
    /// outcomes.sort_by_key(|o| o.index);
    /// let packages: Vec<Package> = outcomes
    ///     .iter()
    ///     .map(|o| Package::from_wire(&o.result.as_ref().unwrap().bytes).unwrap())
    ///     .collect();
    ///
    /// let delivered = Channel::trusted_free().transmit_batch(&packages);
    /// for (device, received) in fleet.iter_mut().zip(&delivered) {
    ///     let received = received.as_ref().unwrap();
    ///     assert_eq!(device.install_and_run(received).unwrap().exit_code, 7);
    /// }
    /// ```
    /// Results come back in **delivery order**: [`Attacker::Reorder`]
    /// swaps two delivery slots, and [`Attacker::Duplicate`] appends a
    /// replayed delivery of one frame (the result vector grows to
    /// `packages.len() + 1`). Every other attacker — and a passive
    /// channel — delivers in submission order, one result per package.
    pub fn transmit_batch(&self, packages: &[Package]) -> Vec<Result<Package, EricError>> {
        // Batch-order attacks act on the delivery schedule, not the
        // bytes; everything else rides the per-frame wire path below.
        let mut order: Vec<usize> = (0..packages.len()).collect();
        match &self.attacker {
            Attacker::Reorder { a, b } if *a < order.len() && *b < order.len() => {
                order.swap(*a, *b);
            }
            Attacker::Duplicate { index } if *index < order.len() => {
                order.push(*index);
            }
            _ => {}
        }
        // One serialization buffer for the whole wave — the same
        // zero-alloc discipline as the daemon's wire path — funneled
        // through `transmit_wire` so batch and single-frame delivery
        // cannot drift apart.
        let mut wire = Vec::new();
        order
            .into_iter()
            .map(|i| {
                packages[i].serialize_into(&mut wire);
                self.transmit_wire(&wire)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::device::Device;
    use crate::source::SoftwareSource;

    const PROGRAM: &str = "main:\n li a0, 7\n li a7, 93\n ecall\n";

    fn setup() -> (Device, Package) {
        let mut device = Device::with_seed(10, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let pkg = source
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap();
        (device, pkg)
    }

    #[test]
    fn passive_channel_preserves_packages() {
        let (mut device, pkg) = setup();
        let received = Channel::trusted_free().transmit(&pkg).unwrap();
        assert_eq!(received, pkg);
        assert_eq!(device.install_and_run(&received).unwrap().exit_code, 7);
    }

    #[test]
    fn bit_flips_are_rejected_by_device_or_framing() {
        let (mut device, pkg) = setup();
        let wire_len = pkg.to_wire().len();
        let mut rejected = 0usize;
        let mut total = 0usize;
        // Sweep a sample of positions across the whole wire image.
        for byte in (0..wire_len).step_by(7) {
            total += 1;
            let ch = Channel::with_attacker(Attacker::BitFlip {
                byte,
                bit: (byte % 8) as u8,
            });
            match ch.transmit(&pkg) {
                Err(_) => rejected += 1, // framing caught it
                Ok(received) => {
                    if device.install_and_run(&received).is_err() {
                        rejected += 1; // HDE caught it
                    }
                }
            }
        }
        assert_eq!(rejected, total, "some bit flips went undetected");
    }

    #[test]
    fn batch_transmission_isolates_corruption() {
        use crate::provisioning::ProvisioningDaemon;
        let mut devices: Vec<Device> = (0..3)
            .map(|i| Device::with_seed(20 + i, &format!("unit-{i}")))
            .collect();
        let creds: Vec<_> = devices.iter_mut().map(Device::enroll).collect();
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap();
        let mut outcomes: Vec<_> = handle.iter().collect();
        outcomes.sort_by_key(|o| o.index);
        let packages: Vec<Package> = outcomes
            .iter()
            .map(|o| Package::from_wire(&o.result.as_ref().unwrap().bytes).unwrap())
            .collect();
        // An attacker substituting payloads hits every delivery, but
        // each device detects its own corrupted package independently.
        let ch = Channel::with_attacker(Attacker::SubstitutePayload { filler: 0xAA });
        for (device, received) in devices.iter_mut().zip(ch.transmit_batch(&packages)) {
            assert!(device.install_and_run(&received.unwrap()).is_err());
        }
        // A clean channel delivers the same batch intact.
        let clean = Channel::trusted_free().transmit_batch(&packages);
        for (device, received) in devices.iter_mut().zip(clean) {
            assert_eq!(
                device
                    .install_and_run(&received.unwrap())
                    .unwrap()
                    .exit_code,
                7
            );
        }
    }

    #[test]
    fn transmit_wire_matches_transmit_for_every_attacker() {
        let (mut device, pkg) = setup();
        let wire = pkg.to_wire();
        let attackers = [
            Attacker::Passive,
            Attacker::BitFlip { byte: 61, bit: 3 },
            Attacker::Truncate { keep: 40 },
            Attacker::SubstitutePayload { filler: 0xAA },
            Attacker::Duplicate { index: 0 },
            Attacker::Reorder { a: 0, b: 1 },
        ];
        for attacker in attackers {
            let ch = Channel::with_attacker(attacker.clone());
            let via_package = ch.transmit(&pkg);
            let via_wire = ch.transmit_wire(&wire);
            match (via_package, via_wire) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{attacker:?} diverged"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{attacker:?} diverged: {a:?} vs {b:?}"),
            }
        }
        // And the passive wire path round-trips onto the device.
        let received = Channel::trusted_free().transmit_wire(&wire).unwrap();
        assert_eq!(device.install_and_run(&received).unwrap().exit_code, 7);
    }

    #[test]
    fn truncation_detected() {
        let (_, pkg) = setup();
        let ch = Channel::with_attacker(Attacker::Truncate { keep: 40 });
        assert!(ch.transmit(&pkg).is_err());
    }

    /// Truncating to the full wire length or beyond cuts nothing: the
    /// package must arrive intact and runnable, not error or overread.
    #[test]
    fn truncate_at_or_beyond_wire_length_is_passive() {
        let (mut device, pkg) = setup();
        let wire_len = pkg.to_wire().len();
        for keep in [wire_len, wire_len + 1, usize::MAX] {
            let ch = Channel::with_attacker(Attacker::Truncate { keep });
            let received = ch.transmit(&pkg).unwrap_or_else(|e| {
                panic!("keep = {keep} (wire = {wire_len}) must be passive: {e}")
            });
            assert_eq!(received, pkg);
            assert_eq!(device.install_and_run(&received).unwrap().exit_code, 7);
        }
    }

    /// Truncating below the fixed header — even to zero bytes — is a
    /// clean `truncated at …` parse error, never a panic or overread.
    #[test]
    fn truncate_below_header_is_a_clear_parse_error() {
        let (_, pkg) = setup();
        for keep in [0usize, 1, 4, 5, 16] {
            let ch = Channel::with_attacker(Attacker::Truncate { keep });
            match ch.transmit(&pkg) {
                Err(EricError::Package(msg)) => assert!(
                    msg.contains("truncated at"),
                    "keep = {keep}: expected a truncation diagnostic, got {msg:?}"
                ),
                other => panic!("keep = {keep}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// `Duplicate` replays one frame: the batch grows by a delivery
    /// and both copies parse identically (the parse is idempotent).
    #[test]
    fn duplicate_replays_one_delivery_slot() {
        let (_, pkg) = setup();
        let mut other_device = Device::with_seed(11, "other");
        let other = SoftwareSource::new("vendor")
            .build(PROGRAM, &other_device.enroll(), &EncryptionConfig::full())
            .unwrap();
        let batch = [pkg.clone(), other];
        let ch = Channel::with_attacker(Attacker::Duplicate { index: 0 });
        let delivered = ch.transmit_batch(&batch);
        assert_eq!(delivered.len(), 3, "replay must add a delivery");
        assert_eq!(*delivered[0].as_ref().unwrap(), batch[0]);
        assert_eq!(*delivered[1].as_ref().unwrap(), batch[1]);
        assert_eq!(*delivered[2].as_ref().unwrap(), batch[0], "replayed copy");
        // Out-of-range replay target: passive.
        let ch = Channel::with_attacker(Attacker::Duplicate { index: 9 });
        assert_eq!(ch.transmit_batch(&batch).len(), 2);
    }

    /// `Reorder` swaps delivery order without touching bytes; both
    /// frames still arrive intact.
    #[test]
    fn reorder_swaps_delivery_order_intact() {
        let (_, pkg) = setup();
        let mut other_device = Device::with_seed(12, "other");
        let other = SoftwareSource::new("vendor")
            .build(PROGRAM, &other_device.enroll(), &EncryptionConfig::full())
            .unwrap();
        let batch = [pkg, other];
        let ch = Channel::with_attacker(Attacker::Reorder { a: 0, b: 1 });
        let delivered = ch.transmit_batch(&batch);
        assert_eq!(delivered.len(), 2);
        assert_eq!(*delivered[0].as_ref().unwrap(), batch[1]);
        assert_eq!(*delivered[1].as_ref().unwrap(), batch[0]);
        // Out-of-range positions: passive order.
        let ch = Channel::with_attacker(Attacker::Reorder { a: 0, b: 7 });
        let delivered = ch.transmit_batch(&batch);
        assert_eq!(*delivered[0].as_ref().unwrap(), batch[0]);
    }

    #[test]
    fn payload_substitution_rejected_by_hde() {
        let (mut device, pkg) = setup();
        let ch = Channel::with_attacker(Attacker::SubstitutePayload { filler: 0x00 });
        let received = ch.transmit(&pkg).unwrap();
        assert!(matches!(
            device.install_and_run(&received),
            Err(EricError::Rejected(_))
        ));
    }

    #[test]
    fn eavesdropper_sees_only_ciphertext() {
        let (_, pkg) = setup();
        let source = SoftwareSource::new("vendor");
        let image = source.compile(PROGRAM, false).unwrap();
        let wire = Channel::trusted_free().eavesdrop(&pkg);
        // The plaintext text section must not appear anywhere in the
        // wire image.
        assert!(
            !wire.windows(image.text.len()).any(|w| w == &image.text[..]),
            "plaintext visible on the wire"
        );
    }

    /// Build a device, an installed base image, and a delta frame
    /// taking it to a second program version.
    fn delta_setup() -> (Device, crate::delta::InstalledImage, crate::DeltaPackage) {
        let cfg = EncryptionConfig::full().with_segments(8);
        let mut device = Device::with_seed(30, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let base = source
            .prepare_image(&source.compile(PROGRAM, false).unwrap(), &cfg)
            .unwrap();
        let next_img = source
            .compile("main:\n li a0, 9\n li a7, 93\n ecall\n", false)
            .unwrap();
        let next = source.prepare_image(&next_img, &cfg).unwrap();
        let full = source.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&full).unwrap();
        let delta = source
            .package_delta(&source.prepare_delta(&base, &next).unwrap(), &cred)
            .unwrap();
        (device, installed, delta)
    }

    #[test]
    fn passive_channel_preserves_delta_frames() {
        let (mut device, installed, delta) = delta_setup();
        let received = Channel::trusted_free().transmit_delta(&delta).unwrap();
        assert_eq!(received, delta);
        let patched = device.apply_delta(&installed, &received).unwrap();
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 9);
    }

    #[test]
    fn delta_bit_flips_are_rejected_by_device_or_framing() {
        let (device, installed, delta) = delta_setup();
        let wire = delta.to_wire();
        let mut rejected = 0usize;
        let mut total = 0usize;
        for byte in (0..wire.len()).step_by(5) {
            total += 1;
            let ch = Channel::with_attacker(Attacker::BitFlip {
                byte,
                bit: (byte % 8) as u8,
            });
            match ch.transmit_delta_wire(&wire) {
                Err(_) => rejected += 1, // framing caught it
                Ok(received) => {
                    if device.apply_delta(&installed, &received).is_err() {
                        rejected += 1; // HDE caught it
                    }
                }
            }
        }
        assert_eq!(rejected, total, "some delta bit flips went undetected");
    }

    #[test]
    fn delta_truncation_is_a_clear_parse_error() {
        let (_, _, delta) = delta_setup();
        let wire = delta.to_wire();
        for keep in [0usize, 1, 6, 40, wire.len() - 1] {
            let ch = Channel::with_attacker(Attacker::Truncate { keep });
            match ch.transmit_delta_wire(&wire) {
                Err(EricError::Package(msg)) => assert!(
                    msg.contains("truncated at"),
                    "keep = {keep}: expected a truncation diagnostic, got {msg:?}"
                ),
                other => panic!("keep = {keep}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn delta_payload_substitution_rejected() {
        let (device, installed, delta) = delta_setup();
        let ch = Channel::with_attacker(Attacker::SubstitutePayload { filler: 0x5A });
        // The filler smears everything after the delta header — the
        // receiver must reject at parse or at apply, never accept.
        match ch.transmit_delta(&delta) {
            Err(_) => {}
            Ok(received) => assert!(device.apply_delta(&installed, &received).is_err()),
        }
    }
}
