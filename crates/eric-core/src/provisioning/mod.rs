//! Fleet provisioning: one compile, many device-bound frames.
//!
//! Paper §III-1: "ERIC is suitable for compiling from a single
//! software source for multiple target hardware ... ERIC does not have
//! a scaling problem for multiple targets or sources." The
//! single-device path ([`SoftwareSource::build`]) re-does the whole
//! compile → map → sign → encrypt pipeline per call; at fleet scale
//! the compile and coverage-map construction are device-independent
//! and should be paid once.
//!
//! The resident [`ProvisioningDaemon`] splits the pipeline
//! accordingly. The device-independent half is served from the
//! epoch-keyed [`PreparedImageCache`], whose immutable
//! [`PreparedImage`]s (with their seed-deterministic coverage maps)
//! are shared across devices. The per-device half — nonce allocation,
//! signing over the device-bound AAD, encryption under the device's
//! PUF-derived key — fans out across a worker pool that stays alive
//! across waves and writes each wire frame into a recycled buffer.
//! Failures are isolated per device: one stale credential produces one
//! failed [`WireOutcome`], not an aborted batch.
//!
//! # Examples
//!
//! Provision a 16-device fleet in two waves (this is the README's
//! "Provisioning at scale" example, kept compile-tested here):
//!
//! ```
//! use eric_core::{Device, EncryptionConfig, Package, ProvisioningDaemon, SoftwareSource};
//!
//! // Enroll a 16-device fleet (each with a physically-unique PUF).
//! let mut fleet: Vec<Device> = (0..16)
//!     .map(|i| Device::with_seed(1000 + i, &format!("fleet/unit-{i}")))
//!     .collect();
//! let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
//!
//! // Compile once; 4 resident workers build the device-bound frames.
//! let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 4);
//! let image = daemon
//!     .source()
//!     .compile("main:\n li a0, 42\n li a7, 93\n ecall\n", false)
//!     .unwrap();
//!
//! // Wave 1 prepares and caches the image; wave 2 is a pure cache hit.
//! for wave in 0..2 {
//!     let handle = daemon
//!         .submit(&image, &EncryptionConfig::full(), creds.clone())
//!         .unwrap();
//!     assert_eq!(handle.cache_hit(), wave > 0);
//!     // Outcomes arrive in completion order; `index` names the device,
//!     // and every device accepts exactly its own frame.
//!     for outcome in handle.iter() {
//!         let frame = outcome.result.unwrap();
//!         let package = Package::from_wire(&frame.bytes).unwrap();
//!         let run = fleet[outcome.index].install_and_run(&package).unwrap();
//!         assert_eq!(run.exit_code, 42);
//!         handle.recycle(frame); // the buffer returns to the daemon pool
//!     }
//! }
//! assert_eq!(daemon.health().completed_devices, 32);
//! daemon.shutdown(); // finishes every accepted batch, then joins
//! ```
//!
//! [`SoftwareSource::build`]: crate::SoftwareSource::build
//! [`PreparedImage`]: crate::PreparedImage

pub mod cache;
pub mod daemon;

pub use cache::{CacheLookup, CacheStats, PreparedImageCache};
pub use daemon::{
    BatchHandle, BufferPool, DaemonHealth, PackagingHook, ProvisioningDaemon, RecvTimeout,
    SubmitError, WireFrame, WireOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::device::Device;
    use crate::package::Package;
    use crate::source::SoftwareSource;
    use eric_puf::crp::EnrollmentRecord;

    const PROGRAM: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";

    fn fleet(n: usize, base_seed: u64) -> (Vec<Device>, Vec<EnrollmentRecord>) {
        let mut devices: Vec<Device> = (0..n)
            .map(|i| Device::with_seed(base_seed + i as u64, &format!("unit-{i}")))
            .collect();
        let creds = devices.iter_mut().map(Device::enroll).collect();
        (devices, creds)
    }

    /// One batch through `daemon`, parsed back into packages and put
    /// in input order.
    fn packages_in_order(
        daemon: &ProvisioningDaemon,
        program: &str,
        creds: &[EnrollmentRecord],
        config: &EncryptionConfig,
    ) -> Vec<Package> {
        let image = daemon.source().compile(program, config.compress).unwrap();
        let handle = daemon.submit(&image, config, creds.to_vec()).unwrap();
        let mut slots: Vec<Option<Package>> = (0..creds.len()).map(|_| None).collect();
        for outcome in handle.iter() {
            assert_eq!(outcome.device_id, creds[outcome.index].device_id);
            let frame = outcome.result.unwrap();
            assert!(slots[outcome.index].is_none(), "index {}", outcome.index);
            slots[outcome.index] = Some(Package::from_wire(&frame.bytes).unwrap());
            handle.recycle(frame);
        }
        slots.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn batch_builds_one_package_per_device() {
        let (mut devices, creds) = fleet(6, 300);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 3);
        let packages = packages_in_order(&daemon, PROGRAM, &creds, &EncryptionConfig::full());
        assert_eq!(packages.len(), 6);
        for (device, package) in devices.iter_mut().zip(&packages) {
            assert_eq!(device.install_and_run(package).unwrap().exit_code, 42);
        }
        let health = daemon.health();
        assert_eq!((health.completed_devices, health.failed_devices), (6, 0));
        daemon.shutdown();
    }

    #[test]
    fn packages_are_device_bound_not_interchangeable() {
        let (mut devices, creds) = fleet(3, 400);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let packages = packages_in_order(&daemon, PROGRAM, &creds, &EncryptionConfig::full());
        // Swapped packages are rejected by the HDE.
        assert!(devices[0].install_and_run(&packages[1]).is_err());
        assert!(devices[1].install_and_run(&packages[1]).is_ok());
        daemon.shutdown();
    }

    /// One stale credential fails its own device in-stream; its
    /// siblings in the same batch still get working frames.
    #[test]
    fn one_bad_credential_does_not_abort_the_batch() {
        let (mut devices, mut creds) = fleet(4, 500);
        creds[2].epoch = 9; // stale record from a rotated-away epoch
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 4);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap();
        let mut ok = 0;
        for outcome in handle.iter() {
            match outcome.result {
                Ok(frame) => {
                    let package = Package::from_wire(&frame.bytes).unwrap();
                    let run = devices[outcome.index].install_and_run(&package).unwrap();
                    assert_eq!(run.exit_code, 42);
                    handle.recycle(frame);
                    ok += 1;
                }
                Err(e) => {
                    assert_eq!(outcome.index, 2);
                    assert!(matches!(e, crate::error::EricError::Config(_)), "{e}");
                }
            }
        }
        assert_eq!(ok, 3);
        let health = daemon.health();
        assert_eq!((health.completed_devices, health.failed_devices), (4, 1));
        daemon.shutdown();
    }

    #[test]
    fn prepared_artifact_is_reusable_across_waves() {
        let (mut devices, creds) = fleet(4, 700);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let config = EncryptionConfig::partial(0.5, 11);
        let image = daemon.source().compile(PROGRAM, config.compress).unwrap();
        let prepared = daemon.source().prepare_image(&image, &config).unwrap();
        // Two waves off one cached preparation.
        let wave1 = packages_in_order(&daemon, PROGRAM, &creds[..2], &config);
        let wave2 = packages_in_order(&daemon, PROGRAM, &creds[2..], &config);
        let stats = daemon.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        for (device, package) in devices.iter_mut().zip(wave1.iter().chain(&wave2)) {
            // Seed-deterministic map: shared across the whole fleet.
            assert_eq!(&package.map, prepared.map());
            assert_eq!(device.install_and_run(package).unwrap().exit_code, 42);
        }
        daemon.shutdown();
    }

    /// The batch handle streams outcomes in completion order; each
    /// index arrives exactly once and carries its device's frame.
    #[test]
    fn sink_streams_every_outcome_exactly_once() {
        let (mut devices, creds) = fleet(8, 1000);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 3);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap();
        let mut seen = vec![false; 8];
        for outcome in handle.iter() {
            assert!(!seen[outcome.index], "index {} twice", outcome.index);
            seen[outcome.index] = true;
            assert_eq!(outcome.device_id, format!("unit-{}", outcome.index));
            let frame = outcome.result.unwrap();
            let package = Package::from_wire(&frame.bytes).unwrap();
            // Streamed frames are the real thing: each device runs its own.
            let run = devices[outcome.index].install_and_run(&package).unwrap();
            assert_eq!(run.exit_code, 42);
            handle.recycle(frame);
        }
        assert!(seen.iter().all(|&s| s), "missing outcomes: {seen:?}");
        daemon.shutdown();
    }

    #[test]
    fn workers_clamped_to_at_least_one() {
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 0);
        assert_eq!(daemon.workers(), 1);
        let (_, creds) = fleet(2, 800);
        let packages = packages_in_order(&daemon, PROGRAM, &creds, &EncryptionConfig::full());
        assert_eq!(packages.len(), 2);
        daemon.shutdown();
    }

    #[test]
    fn batch_of_one_equals_single_device_path() {
        let (mut devices, creds) = fleet(1, 900);
        let source = SoftwareSource::new("vendor");
        let single = source
            .build(PROGRAM, &creds[0], &EncryptionConfig::full())
            .unwrap();
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let batched =
            packages_in_order(&daemon, PROGRAM, &creds, &EncryptionConfig::full()).remove(0);
        // Same nonce (fresh counters), same map, same ciphertext: the
        // single-device path is literally a batch of one.
        assert_eq!(single, batched);
        assert_eq!(devices[0].install_and_run(&batched).unwrap().exit_code, 42);
        daemon.shutdown();
    }
}
