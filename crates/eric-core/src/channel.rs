//! The untrusted transport channel (paper step 4 + threat model §II-C).
//!
//! "We assume that the executable (program binaries) is transmitted
//! over an untrusted network. Malicious parties can retrieve the
//! executable to violate IP rights, make modifications to the
//! executable and send the modified version to the destination
//! hardware." The channel model serializes a package to wire bytes,
//! lets an [`Attacker`] act on them, and re-parses at the far end —
//! exactly what a network adversary can do.
//!
//! Every transmit path is generic over [`Frame`], so full packages and
//! `ERIC2D` deltas meet the same attacker through the same code.

use crate::error::EricError;
use crate::package::{Frame, Package};

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

    /// Transmit a frame through the channel, applying the attacker's
    /// action, and re-parse it at the receiver.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] when the mutation breaks the framing
    /// itself (detected before the HDE even runs).
    pub fn transmit<F: Frame>(&self, frame: &F) -> Result<F, EricError> {
        let mut wire = Vec::new();
        frame.serialize_into(&mut wire);
        self.receive(wire)
    }

    /// Transmit an already-serialized wire frame and parse it as `F` —
    /// the zero-copy provisioning path
    /// ([`SoftwareSource::package_prepared_into`](crate::SoftwareSource::package_prepared_into),
    /// [`SoftwareSource::package_delta_into`](crate::SoftwareSource::package_delta_into),
    /// the daemon's [`WireFrame`](crate::WireFrame)) hands its bytes
    /// here without ever materializing a frame on the sender side.
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
    pub fn transmit_wire<F: Frame>(&self, wire: &[u8]) -> Result<F, EricError> {
        self.receive(wire.to_vec())
    }

    /// Apply the attacker's per-frame action to `wire` in place, then
    /// parse it as `F`. Every transmit path and every
    /// [`LossyChannel`](crate::LossyChannel) attempt ends here, so the
    /// full and delta paths cannot drift apart.
    pub(crate) fn receive<F: Frame>(&self, mut wire: Vec<u8>) -> Result<F, EricError> {
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
                // The payload is the frame's tail, so its length comes
                // from a parse of the frame as sent. A frame that does
                // not parse has no payload to find; it is refused below.
                let payload_len = F::from_wire(&wire).map_or(0, |f| f.payload().len());
                let start = wire.len() - payload_len;
                wire[start..].fill(*filler);
            }
            // Batch-order attacks have no effect on a lone frame.
            Attacker::Duplicate { .. } | Attacker::Reorder { .. } => {}
        }
        F::from_wire(&wire)
    }

    /// Transmit a whole provisioning batch, applying the attacker's
    /// action to every frame independently.
    ///
    /// Mirrors the fan-out deployment model: each device's frame
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
    /// `frames.len() + 1`). Every other attacker — and a passive
    /// channel — delivers in submission order, one result per frame.
    pub fn transmit_batch<F: Frame>(&self, frames: &[F]) -> Vec<Result<F, EricError>> {
        // Batch-order attacks act on the delivery schedule, not the
        // bytes; everything else rides the single-frame path, so batch
        // and single-frame delivery cannot drift apart.
        let mut order: Vec<usize> = (0..frames.len()).collect();
        match &self.attacker {
            Attacker::Reorder { a, b } if *a < order.len() && *b < order.len() => {
                order.swap(*a, *b);
            }
            Attacker::Duplicate { index } if *index < order.len() => {
                order.push(*index);
            }
            _ => {}
        }
        order
            .into_iter()
            .map(|i| self.transmit(&frames[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::delta::{DeltaPackage, InstalledImage};
    use crate::device::Device;
    use crate::source::SoftwareSource;
    use eric_hde::HdeError;
    use std::fmt::Debug;

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

    /// Build a device, an installed base image (`PROGRAM` after
    /// `prefix`, in `segment_len`-byte segments), and two delta frames
    /// (fresh nonces) taking it to the version that exits with 9.
    fn delta_setup_with(
        prefix: &str,
        segment_len: u32,
    ) -> (Device, InstalledImage, [DeltaPackage; 2]) {
        let cfg = EncryptionConfig::full().with_segments(segment_len);
        let mut device = Device::with_seed(30, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let prepare = |program: &str| {
            let image = source.compile(&format!("{prefix}{program}"), false);
            source.prepare_image(&image.unwrap(), &cfg).unwrap()
        };
        let base = prepare(PROGRAM);
        let next = prepare("main:\n li a0, 9\n li a7, 93\n ecall\n");
        let full = source.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&full).unwrap();
        let delta = source.prepare_delta(&base, &next).unwrap();
        let frames = [(); 2].map(|()| source.package_delta(&delta, &cred).unwrap());
        (device, installed, frames)
    }

    fn delta_setup() -> (Device, InstalledImage, DeltaPackage) {
        let (device, installed, [delta, _]) = delta_setup_with("", 8);
        (device, installed, delta)
    }

    /// Two distinct frames of each family: packages for two devices,
    /// and two delta frames for one device.
    fn pairs() -> ([Package; 2], [DeltaPackage; 2]) {
        let (_, pkg) = setup();
        let mut other_device = Device::with_seed(11, "other");
        let other = SoftwareSource::new("vendor")
            .build(PROGRAM, &other_device.enroll(), &EncryptionConfig::full())
            .unwrap();
        ([pkg, other], delta_setup_with("", 8).2)
    }

    #[test]
    fn passive_channel_preserves_packages() {
        let (mut device, pkg) = setup();
        let received = Channel::trusted_free().transmit(&pkg).unwrap();
        assert_eq!(received, pkg);
        assert_eq!(device.install_and_run(&received).unwrap().exit_code, 7);
    }

    #[test]
    fn passive_channel_preserves_delta_frames() {
        let (mut device, installed, delta) = delta_setup();
        let received = Channel::trusted_free().transmit(&delta).unwrap();
        assert_eq!(received, delta);
        let patched = device.apply_delta(&installed, &received).unwrap();
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 9);
    }

    /// Flip one bit in every `step`-th byte of `wire`: the framing or
    /// the device (`accepts`) must refuse every one.
    fn check_bit_flips<F: Frame>(wire: &[u8], step: usize, mut accepts: impl FnMut(&F) -> bool) {
        for byte in (0..wire.len()).step_by(step) {
            let ch = Channel::with_attacker(Attacker::BitFlip {
                byte,
                bit: (byte % 8) as u8,
            });
            if let Ok(received) = ch.transmit_wire::<F>(wire) {
                assert!(
                    !accepts(&received),
                    "bit flip at byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected_by_device_or_framing() {
        let (mut device, pkg) = setup();
        check_bit_flips(&pkg.to_wire(), 7, |p: &Package| {
            device.install_and_run(p).is_ok()
        });
    }

    #[test]
    fn delta_bit_flips_are_rejected_by_device_or_framing() {
        let (device, installed, delta) = delta_setup();
        check_bit_flips(&delta.to_wire(), 5, |d: &DeltaPackage| {
            device.apply_delta(&installed, d).is_ok()
        });
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
        fn check<F: Frame + PartialEq + Debug>(frame: &F) {
            let mut wire = Vec::new();
            frame.serialize_into(&mut wire);
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
                match (ch.transmit(frame), ch.transmit_wire::<F>(&wire)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{attacker:?} diverged"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{attacker:?} diverged: {a:?} vs {b:?}"),
                }
            }
        }
        let (mut device, pkg) = setup();
        check(&pkg);
        check(&delta_setup().2);
        // And the passive wire path round-trips onto the device.
        let received = Channel::trusted_free()
            .transmit_wire(&pkg.to_wire())
            .unwrap();
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

    /// Cut `wire` to each of `keeps` bytes: every cut must be a clean
    /// `truncated at …` parse error, never a panic or overread.
    fn check_truncation<F: Frame + Debug>(wire: &[u8], keeps: &[usize]) {
        for &keep in keeps {
            let ch = Channel::with_attacker(Attacker::Truncate { keep });
            match ch.transmit_wire::<F>(wire) {
                Err(EricError::Package(msg)) => assert!(
                    msg.contains("truncated at"),
                    "keep = {keep}: expected a truncation diagnostic, got {msg:?}"
                ),
                other => panic!("keep = {keep}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// Truncating below the fixed header — even to zero bytes — is a
    /// clean parse error.
    #[test]
    fn truncate_below_header_is_a_clear_parse_error() {
        check_truncation::<Package>(&setup().1.to_wire(), &[0, 1, 4, 5, 16]);
    }

    /// So is cutting a delta frame anywhere, even one byte short.
    #[test]
    fn delta_truncation_is_a_clear_parse_error() {
        let wire = delta_setup().2.to_wire();
        check_truncation::<DeltaPackage>(&wire, &[0, 1, 6, 40, wire.len() - 1]);
    }

    /// `Duplicate` replays one frame: the batch grows by a delivery
    /// and both copies parse identically (the parse is idempotent).
    #[test]
    fn duplicate_replays_one_delivery_slot() {
        fn check<F: Frame + PartialEq + Debug>(batch: &[F; 2]) {
            let ch = Channel::with_attacker(Attacker::Duplicate { index: 0 });
            let delivered = ch.transmit_batch(batch);
            assert_eq!(delivered.len(), 3, "replay must add a delivery");
            assert_eq!(*delivered[0].as_ref().unwrap(), batch[0]);
            assert_eq!(*delivered[1].as_ref().unwrap(), batch[1]);
            assert_eq!(*delivered[2].as_ref().unwrap(), batch[0], "replayed copy");
            // Out-of-range replay target: passive.
            let ch = Channel::with_attacker(Attacker::Duplicate { index: 9 });
            assert_eq!(ch.transmit_batch(batch).len(), 2);
        }
        let (full, delta) = pairs();
        check(&full);
        check(&delta);
    }

    /// `Reorder` swaps delivery order without touching bytes; both
    /// frames still arrive intact.
    #[test]
    fn reorder_swaps_delivery_order_intact() {
        fn check<F: Frame + PartialEq + Debug>(batch: &[F; 2]) {
            let ch = Channel::with_attacker(Attacker::Reorder { a: 0, b: 1 });
            let delivered = ch.transmit_batch(batch);
            assert_eq!(delivered.len(), 2);
            assert_eq!(*delivered[0].as_ref().unwrap(), batch[1]);
            assert_eq!(*delivered[1].as_ref().unwrap(), batch[0]);
            // Out-of-range positions: passive order.
            let ch = Channel::with_attacker(Attacker::Reorder { a: 0, b: 7 });
            let delivered = ch.transmit_batch(batch);
            assert_eq!(*delivered[0].as_ref().unwrap(), batch[0]);
        }
        let (full, delta) = pairs();
        check(&full);
        check(&delta);
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

    /// A delta declares the whole target image's payload length, which
    /// here is far longer than the frame: the filler must still land on
    /// the shipped segments only, so the frame parses and the HDE
    /// refuses the substituted segment.
    #[test]
    fn delta_payload_substitution_rejected() {
        // 64 KiB of data in 4 KiB segments with one instruction
        // changed: a ~4.3 KB frame for a ~64 KiB image.
        let data = ".data\nblob: .zero 65536\n.text\n";
        let (device, installed, [delta, _]) = delta_setup_with(data, 4096);
        assert!(delta.wire_len() < delta.payload_len as usize);
        let ch = Channel::with_attacker(Attacker::SubstitutePayload { filler: 0x5A });
        let received = ch.transmit(&delta).expect("substitution keeps the framing");
        assert!(received.segments.iter().all(|&b| b == 0x5A));
        assert!(matches!(
            device.apply_delta(&installed, &received),
            Err(EricError::Rejected(HdeError::SegmentMismatch { .. }))
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
}
