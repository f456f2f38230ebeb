//! A target device: PUF + HDE + SoC.

use crate::delta::{DeltaPackage, InstalledImage};
use crate::error::EricError;
use crate::package::Package;
use eric_asm::Image;
use eric_hde::loader::{LoadedProgram, SecureInput, SecureLoader};
use eric_hde::manifest::SignatureBlock;
use eric_hde::timing::HdeCycles;
use eric_hde::HdeError;
use eric_puf::crp::{respond, Challenge, EnrollmentRecord};
use eric_puf::device::{PufDevice, PufDeviceConfig};
use eric_sim::soc::{RunOutcome, Soc, SocConfig};
use std::fmt;

/// Default instruction budget per program run.
const DEFAULT_FUEL: u64 = 200_000_000;

/// End-to-end execution report: HDE load costs + SoC run costs.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The program's exit code.
    pub exit_code: i64,
    /// SoC execution outcome (instructions, cycles, cache stats).
    pub run: RunOutcome,
    /// HDE cycle breakdown (all zero for a plain, non-ERIC load).
    pub hde: HdeCycles,
    /// Cycles spent getting the program into memory (HDE total for
    /// secure loads; plain streaming for baseline loads).
    pub load_cycles: u64,
}

impl ExecutionReport {
    /// End-to-end cycles: load + execute (the Figure 7 metric).
    pub fn total_cycles(&self) -> u64 {
        self.load_cycles + self.run.cycles
    }
}

/// A fielded ERIC device: unique PUF, HDE, and RV64GC SoC.
pub struct Device {
    id: String,
    loader: SecureLoader,
    soc: Soc,
    challenge: Challenge,
    fuel: u64,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Device {{ id: {:?}, epoch: {} }}",
            self.id,
            self.loader.keys().epoch()
        )
    }
}

impl Device {
    /// Fabricate a device from a silicon-lottery seed, with the paper's
    /// PUF and SoC configurations.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::Device;
    ///
    /// let device = Device::with_seed(7, "edge-node-7");
    /// assert_eq!(device.id(), "edge-node-7");
    /// assert_eq!(device.epoch(), 0);
    /// ```
    pub fn with_seed(seed: u64, id: &str) -> Self {
        Self::with_configs(seed, id, PufDeviceConfig::paper(), SocConfig::default())
    }

    /// Fabricate with explicit PUF / SoC configurations.
    pub fn with_configs(seed: u64, id: &str, puf: PufDeviceConfig, soc: SocConfig) -> Self {
        Device {
            id: id.to_string(),
            loader: SecureLoader::new(PufDevice::from_seed(seed, puf)),
            soc: Soc::new(soc),
            challenge: Challenge::from_bytes(&[0x5A; 32]),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Device identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Replace the instruction budget for program runs.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// The HDE (for timing configuration and inspection).
    pub fn loader(&self) -> &SecureLoader {
        &self.loader
    }

    /// Configure the HDE's decryption-lane count. Lanes engage only
    /// for segmented (v2) packages; v1 validation is one sequential
    /// hash chain regardless.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.loader.set_lanes(lanes);
    }

    /// Rotate the device to the next key epoch: previously built
    /// packages stop validating.
    pub fn rotate_epoch(&mut self) {
        self.loader.keys_mut().rotate_epoch();
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u64 {
        self.loader.keys().epoch()
    }

    /// Enroll this device at its current epoch: the vendor-side
    /// handshake producing the PUF-based key record the software source
    /// compiles against. The raw PUF key never leaves the device.
    ///
    /// Batch provisioning enrolls a whole fleet this way and hands the
    /// records to
    /// [`ProvisioningDaemon::submit`](crate::ProvisioningDaemon::submit):
    ///
    /// ```
    /// use eric_core::Device;
    ///
    /// let mut fleet: Vec<Device> = (0..4)
    ///     .map(|i| Device::with_seed(i, &format!("unit-{i}")))
    ///     .collect();
    /// let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
    /// assert_eq!(creds.len(), 4);
    /// // PUFs are device-unique, so every enrolled key differs.
    /// assert_ne!(creds[0].key.as_bytes(), creds[1].key.as_bytes());
    /// ```
    pub fn enroll(&mut self) -> EnrollmentRecord {
        self.enroll_with_challenge(&Challenge::from_bytes(&[0x5A; 32]))
    }

    /// Enroll under a custom challenge.
    pub fn enroll_with_challenge(&mut self, challenge: &Challenge) -> EnrollmentRecord {
        self.challenge = challenge.clone();
        let epoch = self.loader.keys().epoch();
        let response = respond(self.loader.keys().puf(), challenge, epoch);
        EnrollmentRecord {
            device_id: self.id.clone(),
            challenge: challenge.clone(),
            epoch,
            key: *response.key(),
        }
    }

    /// Receive a package, decrypt + validate it in the HDE, load the
    /// plaintext into SoC memory, and run it (paper steps 5–6).
    ///
    /// # Errors
    ///
    /// [`EricError::Rejected`] when validation fails (tampering, wrong
    /// device, wrong epoch); [`EricError::Runtime`] for SoC faults.
    pub fn install_and_run(&mut self, package: &Package) -> Result<ExecutionReport, EricError> {
        let loaded = self.verify(package)?;
        let (text, data) = loaded.plaintext.split_at(loaded.text_len);
        self.soc.load_raw(
            package.text_base,
            text,
            package.data_base,
            data,
            package.entry,
        )?;
        let run = self.soc.run(self.fuel)?;
        Ok(ExecutionReport {
            exit_code: run.exit_code,
            load_cycles: loaded.cycles.total(),
            hde: loaded.cycles,
            run,
        })
    }

    /// Receive, verify, and *retain* a package: the full HDE pipeline
    /// of [`Device::install_and_run`] up to (but not including)
    /// execution, returning the verified plaintext together with its
    /// cached per-segment digests — the resident state that later
    /// delta updates patch against.
    ///
    /// The cached digests are the HDE's own leaf table
    /// ([`LoadedProgram::leaves`](eric_hde::LoadedProgram::leaves)):
    /// the leaves it recomputed, ct-compared against the manifest and
    /// folded into the validated root in its one verification pass.
    /// The plaintext is hashed once per install, not a second time
    /// here.
    ///
    /// Requires a segmented (`ERIC2`) package: the delta machinery is
    /// built on the per-segment leaf table, which a legacy `ERIC1`
    /// single-digest frame does not carry.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] for a v1 package; otherwise exactly the
    /// failures of [`Device::install_and_run`]'s verification phase.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{Device, EncryptionConfig, SoftwareSource};
    ///
    /// let mut device = Device::with_seed(1, "node");
    /// let cred = device.enroll();
    /// let source = SoftwareSource::new("vendor");
    /// let cfg = EncryptionConfig::full().with_segments(64);
    /// let pkg = source
    ///     .build("main:\n li a0, 9\n li a7, 93\n ecall\n", &cred, &cfg)
    ///     .unwrap();
    /// let installed = device.install(&pkg).unwrap();
    /// assert_eq!(device.run_installed(&installed).unwrap().exit_code, 9);
    /// ```
    pub fn install(&mut self, package: &Package) -> Result<InstalledImage, EricError> {
        let SignatureBlock::Segmented { manifest, .. } = &package.signature else {
            return Err(EricError::Config(
                "delta-capable install requires a segmented (ERIC2) package".into(),
            ));
        };
        let segment_len = manifest.segment_len();
        let loaded = self.verify(package)?;
        Ok(InstalledImage {
            payload: loaded.plaintext,
            text_len: loaded.text_len,
            text_base: package.text_base,
            data_base: package.data_base,
            entry: package.entry,
            segment_len,
            leaves: loaded.leaves,
        })
    }

    /// Decrypt and validate a package in the HDE (paper steps 5–6).
    fn verify(&self, package: &Package) -> Result<LoadedProgram, HdeError> {
        let challenge = Challenge::from_bytes(&package.challenge);
        self.loader.process(&SecureInput {
            payload: &package.payload,
            aad: &package.aad(),
            text_len: package.text_len as usize,
            map: &package.map,
            policy: package.policy,
            signature: &package.signature,
            cipher: package.cipher,
            challenge: &challenge,
            epoch: package.epoch,
            nonce: package.nonce,
        })
    }

    /// Apply a delta frame to an installed image, producing the patched
    /// image — or an error and an *untouched* installed image; there is
    /// no partially-patched state on any path.
    ///
    /// The device recomputes the Merkle root from its cached sibling
    /// digests plus the shipped replacement leaves, authenticates it
    /// against the frame's AAD-bound signed root before decrypting any
    /// payload, then re-verifies the entire patched image end to end.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] for geometry/base mismatches (wrong
    /// segment length, wrong base size, wrong base fingerprint, or a
    /// delta that omits a brand-new segment); [`EricError::Rejected`]
    /// for authentication failures (wrong epoch, wrong device, any
    /// tampering).
    pub fn apply_delta(
        &self,
        installed: &InstalledImage,
        delta: &DeltaPackage,
    ) -> Result<InstalledImage, EricError> {
        crate::delta::apply(&self.loader, installed, delta)
    }

    /// Load an already-verified installed image into SoC memory and run
    /// it. Verification happened at [`Device::install`] /
    /// [`Device::apply_delta`] time, so the load is charged at the
    /// plain streaming rate with no HDE cycles.
    ///
    /// # Errors
    ///
    /// [`EricError::Runtime`] for SoC faults.
    pub fn run_installed(&mut self, image: &InstalledImage) -> Result<ExecutionReport, EricError> {
        let (text, data) = image.payload.split_at(image.text_len);
        self.soc
            .load_raw(image.text_base, text, image.data_base, data, image.entry)?;
        let run = self.soc.run(self.fuel)?;
        let load_cycles = self.loader.timing().plain_load_cycles(image.payload.len());
        Ok(ExecutionReport {
            exit_code: run.exit_code,
            load_cycles,
            hde: HdeCycles::default(),
            run,
        })
    }

    /// Run a plaintext image without ERIC (the Figure 7 baseline): the
    /// program streams into memory at the plain-load rate and executes.
    ///
    /// # Errors
    ///
    /// [`EricError::Runtime`] for load or execution failures.
    pub fn run_plain(&mut self, image: &Image) -> Result<ExecutionReport, EricError> {
        self.soc.load_image(image)?;
        let run = self.soc.run(self.fuel)?;
        let load_cycles = self
            .loader
            .timing()
            .plain_load_cycles(image.text.len() + image.data.len());
        Ok(ExecutionReport {
            exit_code: run.exit_code,
            load_cycles,
            hde: HdeCycles::default(),
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::source::SoftwareSource;

    const PROGRAM: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";

    #[test]
    fn end_to_end_full_encryption() {
        let mut device = Device::with_seed(1, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let pkg = source
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap();
        let report = device.install_and_run(&pkg).unwrap();
        assert_eq!(report.exit_code, 42);
        assert!(report.load_cycles > 0);
        assert!(report.total_cycles() > report.run.cycles);
    }

    #[test]
    fn wrong_device_rejects_package() {
        let mut device = Device::with_seed(1, "node");
        let mut imposter = Device::with_seed(99, "imposter");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let pkg = source
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap();
        assert!(device.install_and_run(&pkg).is_ok());
        assert!(matches!(
            imposter.install_and_run(&pkg),
            Err(EricError::Rejected(_))
        ));
    }

    #[test]
    fn epoch_rotation_invalidates_old_packages() {
        let mut device = Device::with_seed(2, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let pkg = source
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap();
        assert!(device.install_and_run(&pkg).is_ok());
        device.rotate_epoch();
        assert!(device.install_and_run(&pkg).is_err());
        // Re-enrollment at the new epoch restores service.
        let cred2 = device.enroll();
        let cfg2 = EncryptionConfig::full().with_epoch(device.epoch());
        let pkg2 = source.build(PROGRAM, &cred2, &cfg2).unwrap();
        assert_eq!(device.install_and_run(&pkg2).unwrap().exit_code, 42);
    }

    #[test]
    fn plain_baseline_runs_and_reports_load_cycles() {
        let mut device = Device::with_seed(3, "node");
        let source = SoftwareSource::new("vendor");
        let image = source.compile(PROGRAM, false).unwrap();
        let report = device.run_plain(&image).unwrap();
        assert_eq!(report.exit_code, 42);
        assert!(report.load_cycles > 0);
        assert_eq!(report.hde, HdeCycles::default());
    }

    #[test]
    fn secure_load_costs_more_than_plain_load() {
        let mut device = Device::with_seed(4, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let image = source.compile(PROGRAM, false).unwrap();
        let pkg = source
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap();
        let secure = device.install_and_run(&pkg).unwrap();
        let plain = device.run_plain(&image).unwrap();
        assert!(secure.load_cycles > plain.load_cycles);
        assert_eq!(
            secure.run.cycles, plain.run.cycles,
            "execution itself is unchanged"
        );
    }

    #[test]
    fn partial_and_field_level_run_correctly() {
        let mut device = Device::with_seed(5, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        for cfg in [
            EncryptionConfig::partial(0.5, 11),
            EncryptionConfig::field_level(eric_hde::FieldPolicy::MemoryPointers),
            EncryptionConfig::field_level(eric_hde::FieldPolicy::AllButOpcode),
        ] {
            let pkg = source.build(PROGRAM, &cred, &cfg).unwrap();
            let report = device.install_and_run(&pkg).unwrap();
            assert_eq!(report.exit_code, 42, "{cfg:?}");
        }
    }

    #[test]
    fn segmented_package_runs_end_to_end_on_lanes() {
        let mut device = Device::with_seed(7, "node");
        device.set_lanes(4);
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let pkg = source.build(PROGRAM, &cred, &cfg).unwrap();
        let report = device.install_and_run(&pkg).unwrap();
        assert_eq!(report.exit_code, 42);
        assert!(report.load_cycles > 0);
        // Tampered v2 metadata is rejected exactly like v1.
        let mut forged = pkg.clone();
        forged.entry += 4;
        assert!(device.install_and_run(&forged).is_err());
        // And a different device rejects the package outright.
        let mut imposter = Device::with_seed(88, "imposter");
        assert!(imposter.install_and_run(&pkg).is_err());
    }

    #[test]
    fn compressed_build_roundtrips() {
        let mut device = Device::with_seed(6, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_compression(true);
        let pkg = source.build(PROGRAM, &cred, &cfg).unwrap();
        assert_eq!(device.install_and_run(&pkg).unwrap().exit_code, 42);
    }
}
