//! Fleet provisioning: one source, many devices; one device, many
//! sources; key-epoch rotation; sustained provisioning through the
//! resident daemon (zero-copy frames + prepared-image cache).
//!
//! Reproduces §III-1's scaling claims: "ERIC is suitable for compiling
//! from a single software source for multiple target hardware or
//! creating multiple trusted software sources for single target
//! hardware ... ERIC does not have a scaling problem for multiple
//! targets or sources."
//!
//! Run with: `cargo run --example fleet_provisioning`

use eric::core::{
    DeliveryPolicy, DeltaPackage, Device, EncryptionConfig, FaultPlan, Frame, InstalledImage,
    LossyChannel, Package, ProvisioningDaemon, ResilientDelivery, SoftwareSource, SubmitError,
};
use eric::puf::crp::CrpDatabase;

const FIRMWARE: &str = r#"
    main:
        li   t0, 6
        li   t1, 7
        mul  a0, t0, t1
        li   a7, 93
        ecall
"#;

/// v1 of the OTA demo firmware: a data table plus text computing 6×7.
const OTA_BASE: &str = r#"
    .data
    table: .zero 600
    .text
    main:
        li   t0, 6
        li   t1, 7
        mul  a0, t0, t1
        li   a7, 93
        ecall
"#;

/// v2 differs in one constant (6×8): a one-segment diff.
const OTA_NEXT: &str = r#"
    .data
    table: .zero 600
    .text
    main:
        li   t0, 6
        li   t1, 8
        mul  a0, t0, t1
        li   a7, 93
        ecall
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- One source, a fleet of ten unique devices. ---
    let mut fleet: Vec<Device> = (0..10)
        .map(|i| Device::with_seed(1000 + i, &format!("fleet/unit-{i}")))
        .collect();

    let mut db = CrpDatabase::new();
    println!("enrolling {} devices...", fleet.len());
    for device in &mut fleet {
        let cred = device.enroll();
        db.enroll_as(
            &format!("record/{}", device.id()),
            device.id(),
            device.loader().keys().puf(),
            &cred.challenge,
            cred.epoch,
        );
    }
    println!("CRP database holds {} records", db.len());

    // Batch-provision the fleet: compile once, fan the per-device
    // sign/encrypt/package work across the daemon's resident pool — a
    // worker pool fed by a submission queue, where each worker claims
    // the next device of a batch from one shared cursor, serving
    // repeated preparations from the epoch-keyed cache and packaging
    // zero-copy into recycled transmit buffers.
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("fleet-vendor"), 4);
    let image = daemon.source().compile(FIRMWARE, false)?;
    let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
    let started = std::time::Instant::now();
    let handle = daemon.submit(&image, &EncryptionConfig::full(), creds)?;
    // Outcomes arrive in completion order; put them back in fleet order.
    let mut packages: Vec<Option<Package>> = (0..fleet.len()).map(|_| None).collect();
    for outcome in handle.iter() {
        let frame = outcome.result?;
        packages[outcome.index] = Some(Package::from_wire(&frame.bytes)?);
        handle.recycle(frame);
    }
    let packages: Vec<Package> = packages
        .into_iter()
        .map(|p| p.expect("the batch delivers one outcome per device"))
        .collect();
    println!(
        "batch of {} provisioned on {} workers in {:?} (compile and prepare paid once)",
        packages.len(),
        daemon.workers(),
        started.elapsed(),
    );

    // Every device runs its own package; no device runs a sibling's.
    let mut cross_rejections = 0;
    for (i, device) in fleet.iter_mut().enumerate() {
        let own = device.install_and_run(&packages[i])?;
        assert_eq!(own.exit_code, 42);
        let sibling = &packages[(i + 1) % 10];
        if device.install_and_run(sibling).is_err() {
            cross_rejections += 1;
        }
    }
    println!(
        "all 10 devices ran their own firmware; {cross_rejections}/10 sibling packages rejected"
    );

    // --- Two independent vendors serving the same device. ---
    let mut shared = Device::with_seed(5000, "multi-vendor-unit");
    let vendor_a = SoftwareSource::new("vendor-a");
    let vendor_b = SoftwareSource::new("vendor-b");
    let cred = shared.enroll();
    let pkg_a = vendor_a.build(FIRMWARE, &cred, &EncryptionConfig::full())?;
    let pkg_b = vendor_b.build(FIRMWARE, &cred, &EncryptionConfig::full())?;
    assert_eq!(shared.install_and_run(&pkg_a)?.exit_code, 42);
    assert_eq!(shared.install_and_run(&pkg_b)?.exit_code, 42);
    println!("one device accepted firmware from two independent sources");

    // --- Epoch rotation revokes the field population. ---
    let mut revoked = Device::with_seed(6000, "revocable-unit");
    let old_cred = revoked.enroll();
    let old_pkg = daemon
        .source()
        .build(FIRMWARE, &old_cred, &EncryptionConfig::full())?;
    assert_eq!(revoked.install_and_run(&old_pkg)?.exit_code, 42);
    revoked.rotate_epoch();
    assert!(revoked.install_and_run(&old_pkg).is_err());
    let new_cred = revoked.enroll();
    let new_pkg = daemon.source().build(
        FIRMWARE,
        &new_cred,
        &EncryptionConfig::full().with_epoch(revoked.epoch()),
    )?;
    assert_eq!(revoked.install_and_run(&new_pkg)?.exit_code, 42);
    println!("epoch rotation revoked the old package and re-keying restored service");

    // --- Sustained provisioning: repeated waves on the same daemon. ---
    // The first batch above prepared the image, so every wave here is
    // served from the prepared-image cache, and the transmit buffers
    // cycle through the daemon pool.
    let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
    for wave in 0..3 {
        let handle = daemon.submit(&image, &EncryptionConfig::full(), creds.clone())?;
        let mut delivered = 0;
        for outcome in handle.iter() {
            let frame = outcome.result?;
            let package = Package::from_wire(&frame.bytes)?;
            assert_eq!(
                fleet[outcome.index].install_and_run(&package)?.exit_code,
                42
            );
            handle.recycle(frame); // buffer returns to the daemon pool
            delivered += 1;
        }
        println!(
            "wave {wave}: {delivered} frames delivered ({})",
            if handle.cache_hit() {
                "prepared-image cache hit"
            } else {
                "cache miss: image prepared once"
            }
        );
    }
    let stats = daemon.cache().stats();
    println!(
        "daemon cache: {} hits / {} misses; {} transmit buffers ever allocated \
         for {} packages",
        stats.hits,
        stats.misses,
        daemon.pool().created(),
        4 * fleet.len(),
    );

    // --- Resilient delivery over a lossy field link. ---
    // Overload probe first: keep submitting without consuming outcomes
    // until the bounded queue sheds. `try_submit` refuses immediately
    // instead of parking the producer.
    let mut held = Vec::new();
    let mut shed = false;
    for _ in 0..32 {
        match daemon.try_submit(&image, &EncryptionConfig::full(), creds.clone()) {
            Ok(handle) => held.push(handle),
            Err(SubmitError::QueueFull) => {
                shed = true;
                break;
            }
            Err(err) => return Err(err.into()),
        }
    }
    assert!(shed, "bounded queue never shed under the overload probe");

    // Drain the held waves across a seeded stochastic channel: frames
    // drop, flip bits, or truncate in transit; a bounded retry policy
    // with exponential backoff recovers what it can. Acceptance is the
    // SecureLoader itself — a corrupted-but-parseable frame is a
    // retryable rejection, not a delivery.
    let chaos = ResilientDelivery::new(
        LossyChannel::with_plan(FaultPlan::uniform(20220627, 0.10)),
        DeliveryPolicy::default(),
    );
    let (mut delivered, mut exhausted, mut retries) = (0usize, 0usize, 0u64);
    for handle in &held {
        for outcome in handle.iter() {
            let frame = outcome.result?;
            let report = chaos.deliver_verified(outcome.index as u64, &frame.bytes, |package| {
                fleet[outcome.index].install_and_run(package).map(|_| ())
            });
            retries += u64::from(report.retries);
            if report.status.is_delivered() {
                delivered += 1;
            } else {
                exhausted += 1;
            }
            handle.recycle(frame);
        }
    }
    // --- Delta OTA: a v2 rollout ships only the segments that changed. ---
    // The v2 firmware differs from v1 in a single constant, so with
    // segmented manifests almost every segment of the prepared image is
    // unchanged. `prepare_delta` diffs the two prepared images once and
    // `submit_delta` fans per-device `ERIC2D` frames across the same
    // worker pool; each device re-derives the signed Merkle root from
    // its cached sibling digests plus the shipped diff, so a delta is
    // accepted or the base stays untouched — never half-patched.
    let cfg = EncryptionConfig::full().with_segments(64);
    let source = daemon.source();
    let base = source.prepare_image(&source.compile(OTA_BASE, false)?, &cfg)?;
    let next = source.prepare_image(&source.compile(OTA_NEXT, false)?, &cfg)?;
    let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();

    // Seed the fleet with the v1 base via ordinary full frames.
    let handle = daemon.submit(&source.compile(OTA_BASE, false)?, &cfg, creds.clone())?;
    let mut bases: Vec<Option<InstalledImage>> = (0..fleet.len()).map(|_| None).collect();
    for outcome in handle.iter() {
        let frame = outcome.result?;
        let package = Package::from_wire(&frame.bytes)?;
        bases[outcome.index] = Some(fleet[outcome.index].install(&package)?);
        handle.recycle(frame);
    }

    let delta = source.prepare_delta(&base, &next)?;
    println!(
        "v1 -> v2 delta: {}/{} segments changed ({} of {} payload bytes on the wire)",
        delta.changed_segments(),
        delta.total_segments(),
        delta.changed_bytes(),
        delta.payload_len(),
    );
    let handle = daemon.submit_delta(&delta, creds)?;
    for outcome in handle.iter() {
        let frame = outcome.result?;
        let patch = DeltaPackage::from_wire(&frame.bytes)?;
        let device = &mut fleet[outcome.index];
        let v2 = device.apply_delta(bases[outcome.index].as_ref().unwrap(), &patch)?;
        assert_eq!(device.run_installed(&v2)?.exit_code, 48);
        handle.recycle(frame);
    }
    println!(
        "delta wave: {} devices patched to v2 and verified end-to-end",
        fleet.len()
    );

    daemon.note_retries(retries);
    let health = daemon.health();
    let total = delivered + exhausted;
    println!(
        "lossy link at 10% fault rate: {delivered}/{total} frames delivered \
         (goodput {:.2}), {} retries, {} exhausted; daemon shed {} overload \
         submissions and completed {}/{} devices",
        delivered as f64 / total as f64,
        health.retries,
        exhausted,
        health.sheds,
        health.completed_devices,
        health.submitted_devices,
    );
    daemon.shutdown();
    Ok(())
}
