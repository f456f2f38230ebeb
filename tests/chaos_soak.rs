//! Chaos soak: seeded stochastic fault injection over the full
//! daemon → wire → device pipeline.
//!
//! The sweep drives a provisioned fleet through a [`LossyChannel`] at
//! fault rates {0, 1%, 5%, 20%} and pins the resilience contract:
//! every device reaches **exactly one** terminal outcome; delivered
//! frames verify byte-for-byte through the `SecureLoader`; exhausted
//! deliveries carry a classified retryable error; fatal errors are
//! never retried; nothing hangs (every wait is bounded) and the
//! buffer pool does not leak.
//!
//! Knobs: `ERIC_CHAOS_SEED` picks the fault seed (default 7; every
//! stochastic draw derives from it, so a failing run replays exactly),
//! and `ERIC_CHAOS_RATE` appends one extra fault rate to the sweep.

use eric::core::{
    DeliveryPolicy, DeliveryReport, DeliveryStatus, Device, EncryptionConfig, EricError, FaultPlan,
    LossyChannel, Package, ProvisioningDaemon, RecvTimeout, ResilientDelivery, SoftwareSource,
    WireFrame,
};
use std::sync::Arc;
use std::time::Duration;

const PROGRAM: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";
const FLEET: usize = 12;
/// Bound on every receive: a lost outcome is a visible failure, not a
/// hung test.
const RECV_BOUND: Duration = Duration::from_secs(10);

fn chaos_seed() -> u64 {
    std::env::var("ERIC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

fn sweep_rates() -> Vec<f64> {
    let mut rates = vec![0.0, 0.01, 0.05, 0.20];
    if let Some(extra) = std::env::var("ERIC_CHAOS_RATE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        rates.push(extra.clamp(0.0, 1.0));
    }
    rates
}

fn fleet(n: usize, base_seed: u64) -> (Vec<Device>, Vec<eric::puf::crp::EnrollmentRecord>) {
    let mut devices: Vec<Device> = (0..n)
        .map(|i| Device::with_seed(base_seed + i as u64, &format!("soak-{i}")))
        .collect();
    let creds = devices.iter_mut().map(Device::enroll).collect();
    (devices, creds)
}

/// Provision one wave through the daemon with bounded receives,
/// returning each device's wire frame in index order (and recycling
/// nothing — the caller owns the frames).
fn provision_wave(
    daemon: &ProvisioningDaemon,
    creds: Vec<eric::puf::crp::EnrollmentRecord>,
) -> Vec<WireFrame> {
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let handle = daemon
        .submit(&image, &EncryptionConfig::full(), creds)
        .unwrap();
    let mut frames: Vec<Option<WireFrame>> = (0..handle.devices()).map(|_| None).collect();
    loop {
        match handle.recv_timeout(RECV_BOUND) {
            RecvTimeout::Outcome(outcome) => {
                let frame = outcome.result.unwrap();
                assert!(
                    frames[outcome.index].replace(frame).is_none(),
                    "device {} produced two outcomes",
                    outcome.index
                );
            }
            RecvTimeout::Complete => break,
            RecvTimeout::TimedOut => panic!("provisioning outcome lost (bounded recv expired)"),
        }
    }
    frames.into_iter().map(Option::unwrap).collect()
}

/// Deliver every frame through a seeded lossy channel, verifying
/// delivered packages byte-for-byte and through the `SecureLoader`.
/// Returns the per-device reports (exactly one terminal status each).
fn deliver_fleet(
    devices: &mut [Device],
    frames: &[WireFrame],
    rate: f64,
    seed: u64,
) -> Vec<DeliveryReport> {
    let delivery = ResilientDelivery::new(
        LossyChannel::with_plan(FaultPlan::uniform(seed, rate)),
        DeliveryPolicy::default(),
    );
    let mut reports = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let device = &mut devices[i];
        // Acceptance is the SecureLoader itself: a corrupted frame that
        // still parses is rejected by the HDE (retryable), so
        // `Delivered` means cryptographically authentic.
        let report = delivery.deliver_verified(i as u64, &frame.bytes, |package| {
            let run = device.install_and_run(package)?;
            assert_eq!(run.exit_code, 42);
            Ok(())
        });
        match &report.status {
            DeliveryStatus::Delivered(package) => {
                // Byte-for-byte: what arrived is what was sent.
                assert_eq!(
                    package.to_wire(),
                    frame.bytes,
                    "device {i}: delivered frame not byte-identical"
                );
            }
            DeliveryStatus::Exhausted { last_error, .. } => {
                assert!(
                    last_error.is_retryable(),
                    "device {i}: exhausted on a non-retryable error: {last_error}"
                );
                assert_eq!(report.attempts, report.retries + 1);
            }
            DeliveryStatus::Fatal(error) => {
                panic!("device {i}: unexpected fatal error under pure transit chaos: {error}")
            }
        }
        reports.push(report);
    }
    reports
}

/// The core soak: at every swept fault rate, every device reaches
/// exactly one terminal outcome, delivered frames verify
/// byte-for-byte through the `SecureLoader`, exhausted ones carry a
/// classified retryable error, and the daemon's buffer pool does not
/// leak.
#[test]
fn soak_sweep_every_device_reaches_one_terminal_outcome() {
    let seed = chaos_seed();
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 3);
    for (wave, rate) in sweep_rates().into_iter().enumerate() {
        let (mut devices, creds) = fleet(FLEET, 9000 + 100 * wave as u64);
        let frames = provision_wave(&daemon, creds);
        let reports = deliver_fleet(&mut devices, &frames, rate, seed ^ wave as u64);
        assert_eq!(reports.len(), FLEET, "a device vanished from the soak");
        let delivered = reports.iter().filter(|r| r.status.is_delivered()).count();
        if rate == 0.0 {
            assert_eq!(delivered, FLEET, "clean channel must deliver everyone");
        }
        // Attempts are always within the policy budget.
        for report in &reports {
            assert!(report.attempts >= 1);
            assert!(report.attempts <= DeliveryPolicy::default().max_attempts);
        }
        // Frames go back to the pool: no leak across waves.
        let handle_pool = daemon.pool();
        for frame in frames {
            handle_pool.recycle(frame.bytes);
        }
        assert_eq!(
            daemon.pool().created(),
            daemon.pool().pooled(),
            "buffer pool leaked frames at rate {rate}"
        );
    }
    let health = daemon.health();
    assert_eq!(health.completed_devices, health.submitted_devices);
    assert_eq!(health.failed_devices, 0);
    daemon.shutdown();
}

/// Regression pin: the zero-fault-rate run is byte-identical to the
/// passive wire path — same parsed package, same bytes, one attempt,
/// no retries, no virtual latency beyond zero.
#[test]
fn zero_fault_rate_matches_the_passive_path_byte_for_byte() {
    let (mut devices, creds) = fleet(4, 9500);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    let frames = provision_wave(&daemon, creds);
    let delivery = ResilientDelivery::new(
        LossyChannel::with_plan(FaultPlan::none()),
        DeliveryPolicy::default(),
    );
    let passive = eric::core::Channel::trusted_free();
    for (i, frame) in frames.iter().enumerate() {
        let report = delivery.deliver_verified(i as u64, &frame.bytes, |_: &Package| Ok(()));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries, 0);
        assert_eq!(report.transit, Duration::ZERO);
        assert_eq!(report.backoff, Duration::ZERO);
        let DeliveryStatus::Delivered(via_chaos) = report.status else {
            panic!("zero-rate delivery failed");
        };
        let via_passive = passive.transmit_wire(&frame.bytes).unwrap();
        assert_eq!(via_chaos, via_passive, "device {i}: paths diverged");
        assert_eq!(via_chaos.to_wire(), frame.bytes);
        assert_eq!(
            devices[i].install_and_run(&via_chaos).unwrap().exit_code,
            42
        );
    }
    daemon.shutdown();
}

/// Determinism pin: two sweeps from the same `ERIC_CHAOS_SEED` produce
/// identical attempt counts, transit damage, and outcome kinds for
/// every device.
#[test]
fn chaos_runs_replay_identically_from_the_seed() {
    let seed = chaos_seed();
    let (_, creds) = fleet(FLEET, 9600);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    let frames = provision_wave(&daemon, creds);

    let fingerprint = |rate: f64| -> Vec<(u32, u32, u32, u32, bool, Duration)> {
        let (mut devices, _) = fleet(FLEET, 9600);
        deliver_fleet(&mut devices, &frames, rate, seed)
            .into_iter()
            .map(|r| {
                (
                    r.attempts,
                    r.dropped,
                    r.corrupted,
                    r.duplicated,
                    r.status.is_delivered(),
                    r.elapsed(),
                )
            })
            .collect()
    };
    for rate in [0.05, 0.20] {
        assert_eq!(
            fingerprint(rate),
            fingerprint(rate),
            "rate {rate}: two runs from seed {seed} disagreed"
        );
    }
    daemon.shutdown();
}

/// Fatal errors are terminal on first sight: a stale-epoch rejection
/// from verification ends delivery at attempt 1, never retried — even
/// though the retry budget is untouched.
#[test]
fn stale_epoch_is_fatal_and_never_retried() {
    let (mut devices, creds) = fleet(1, 9700);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 1);
    let frames = provision_wave(&daemon, creds);
    // The fleet rotated after packaging: the receiver refuses the
    // stale-epoch package. That refusal is a property of the package,
    // not the wire — resending cannot fix it.
    devices[0].rotate_epoch();
    let live_epoch = 1u64;
    let delivery = ResilientDelivery::new(
        LossyChannel::with_plan(FaultPlan::none()),
        DeliveryPolicy::default(),
    );
    let mut verify_calls = 0u32;
    let report = delivery.deliver_verified(0, &frames[0].bytes, |_: &Package| {
        verify_calls += 1;
        Err(EricError::Config(format!(
            "stale epoch: package epoch 0, device epoch {live_epoch}"
        )))
    });
    assert_eq!(verify_calls, 1, "fatal verification error was retried");
    assert_eq!(report.attempts, 1);
    assert_eq!(report.retries, 0);
    assert!(matches!(
        report.status,
        DeliveryStatus::Fatal(EricError::Config(_))
    ));
    daemon.shutdown();
}

/// A worker panic injected mid-batch fails exactly that device while
/// its siblings complete, the pool keeps its buffers, and the daemon
/// accepts (and completes) the next batch.
#[test]
fn injected_panic_fails_one_device_and_daemon_keeps_serving() {
    let (mut devices, creds) = fleet(8, 9800);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();
    daemon.set_packaging_hook(Some(Arc::new(|index| {
        if index == 5 {
            panic!("chaos: worker killed mid-batch");
        }
    })));
    let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
    let mut ok = 0;
    let mut contained = 0;
    loop {
        match handle.recv_timeout(RECV_BOUND) {
            RecvTimeout::Outcome(outcome) => match outcome.result {
                Ok(frame) => {
                    ok += 1;
                    handle.recycle(frame);
                }
                Err(EricError::Panic(msg)) => {
                    assert_eq!(outcome.index, 5, "panic leaked to a sibling");
                    assert!(msg.contains("worker killed mid-batch"));
                    contained += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            },
            RecvTimeout::Complete => break,
            RecvTimeout::TimedOut => panic!("a worker hung after the contained panic"),
        }
    }
    assert_eq!((ok, contained), (7, 1));
    daemon.set_packaging_hook(None);

    // The daemon is still healthy: the next batch completes in full
    // and its frames run on the devices.
    let frames = provision_wave(&daemon, creds);
    for (i, frame) in frames.iter().enumerate() {
        let package = Package::from_wire(&frame.bytes).unwrap();
        assert_eq!(devices[i].install_and_run(&package).unwrap().exit_code, 42);
    }
    let health = daemon.health();
    assert_eq!(health.panics, 1);
    assert_eq!(health.failed_devices, 1);
    assert_eq!(health.completed_devices, 16);
    assert_eq!(health.completed_devices, health.submitted_devices);
    daemon.shutdown();
}

/// A delta-update wave through the lossy wire: interrupted and retried
/// delta pushes converge every device to the *same* image fingerprint
/// a clean full push of the new version produces — never a
/// partially-patched survivor.
#[test]
fn interrupted_delta_pushes_converge_to_the_clean_fingerprint() {
    const NEXT_PROGRAM: &str = "main:\n li a0, 4\n li a1, 6\n mul a0, a0, a1\n li a7, 93\n ecall\n";
    let seed = chaos_seed();
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    let (mut devices, creds) = fleet(FLEET, 9950);
    let cfg = EncryptionConfig::full();
    let source = daemon.source();
    let base_image = source.compile(PROGRAM, false).unwrap();
    let next_image = source.compile(NEXT_PROGRAM, false).unwrap();
    let base = source.prepare_image(&base_image, &cfg).unwrap();
    let next = source.prepare_image(&next_image, &cfg).unwrap();

    // Fleet-wide base install over a clean wire.
    let frames = provision_wave(&daemon, creds.clone());
    let mut installed: Vec<eric::core::InstalledImage> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            devices[i]
                .install(&Package::from_wire(&f.bytes).unwrap())
                .unwrap()
        })
        .collect();

    // The convergence oracle: a clean *full* push of the new version.
    // Fingerprints are over verified plaintext, so every correctly
    // patched device must land on exactly this digest.
    let mut oracle = Device::with_seed(42424, "oracle");
    let oracle_cred = oracle.enroll();
    let full_next = source.package_prepared(&next, &oracle_cred).unwrap().0;
    let expected = oracle.install(&full_next).unwrap().fingerprint();

    // Push the delta through a 20%-fault wire. Devices whose delivery
    // exhausts are re-provisioned in the next round (fresh frames,
    // fresh nonces — an interrupted push retried later), until the
    // whole fleet converges.
    let delta = source.prepare_delta(&base, &next).unwrap();
    let mut pending: Vec<usize> = (0..FLEET).collect();
    for round in 0..8u64 {
        if pending.is_empty() {
            break;
        }
        let wave_creds: Vec<_> = pending.iter().map(|&i| creds[i].clone()).collect();
        let handle = daemon.submit_delta(&delta, wave_creds).unwrap();
        let mut wave_frames: Vec<Option<WireFrame>> = (0..pending.len()).map(|_| None).collect();
        loop {
            match handle.recv_timeout(RECV_BOUND) {
                RecvTimeout::Outcome(outcome) => {
                    let frame = outcome.result.unwrap();
                    assert!(wave_frames[outcome.index].replace(frame).is_none());
                }
                RecvTimeout::Complete => break,
                RecvTimeout::TimedOut => panic!("delta outcome lost (bounded recv expired)"),
            }
        }
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::uniform(seed ^ (round << 8), 0.20)),
            DeliveryPolicy::default(),
        );
        let mut still_pending = Vec::new();
        for (slot, frame) in wave_frames.into_iter().enumerate() {
            let i = pending[slot];
            let frame = frame.unwrap();
            let mut patched = None;
            let report = delivery.deliver_delta_verified(i as u64, &frame.bytes, |d| {
                patched = Some(devices[i].apply_delta(&installed[i], d)?);
                Ok(())
            });
            match report.status {
                DeliveryStatus::Delivered(_) => {
                    let image = patched.expect("verifier ran on the delivered frame");
                    assert_eq!(
                        image.fingerprint(),
                        expected,
                        "device {i}: converged to a different image"
                    );
                    installed[i] = image;
                }
                DeliveryStatus::Exhausted { last_error, .. } => {
                    assert!(last_error.is_retryable(), "device {i}: {last_error}");
                    // Interrupted: the base must be untouched so the
                    // retried push still applies.
                    assert_ne!(installed[i].fingerprint(), expected);
                    still_pending.push(i);
                }
                DeliveryStatus::Fatal(error) => {
                    panic!("device {i}: fatal error under pure transit chaos: {error}")
                }
            }
            daemon.pool().recycle(frame.bytes);
        }
        pending = still_pending;
    }
    assert!(
        pending.is_empty(),
        "devices never converged after 8 rounds: {pending:?}"
    );
    // Every device runs the new version.
    for (i, image) in installed.iter().enumerate() {
        assert_eq!(image.fingerprint(), expected);
        assert_eq!(
            devices[i].run_installed(image).unwrap().exit_code,
            24,
            "device {i} runs the wrong version"
        );
    }
    daemon.shutdown();
}

/// Goodput degrades with the fault rate but the exhausted remainder is
/// always fully classified — sanity for the bench's degradation curve.
#[test]
fn goodput_degrades_gracefully_not_catastrophically() {
    let seed = chaos_seed();
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
    let (_, creds) = fleet(FLEET, 9900);
    let frames = provision_wave(&daemon, creds);
    let mut last_delivered = FLEET;
    for rate in [0.0, 0.05, 0.20] {
        let (mut devices, _) = fleet(FLEET, 9900);
        let reports = deliver_fleet(&mut devices, &frames, rate, seed);
        let delivered = reports.iter().filter(|r| r.status.is_delivered()).count();
        let retries: u32 = reports.iter().map(|r| r.retries).sum();
        daemon.note_retries(retries as u64);
        // Retries only appear once faults do.
        if rate == 0.0 {
            assert_eq!(retries, 0);
            assert_eq!(delivered, FLEET);
        }
        assert!(
            delivered <= last_delivered || delivered == FLEET,
            "goodput rose with the fault rate beyond full delivery"
        );
        last_delivered = delivered;
        // With 5 attempts per device, even 20% faults should land most
        // of the fleet: catastrophic collapse means the retry loop is
        // broken, not unlucky.
        assert!(
            delivered >= FLEET / 2,
            "rate {rate}: only {delivered}/{FLEET} delivered — retries are not retrying"
        );
    }
    assert!(daemon.health().retries > 0, "no retries ever reported");
    daemon.shutdown();
}
