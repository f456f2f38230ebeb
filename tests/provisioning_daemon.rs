//! Lifecycle tests for the resident provisioning daemon: backpressure
//! bounds, a stalled device that holds back only itself, cache
//! invalidation across credential rotation, clean drain/shutdown, a submission racing
//! shutdown, ordered live health snapshots, and seeded schedule
//! perturbation.
//!
//! The worker count honors `ERIC_PROVISION_WORKERS` (CI runs a small
//! matrix over it); tests that need a specific shape clamp it locally.

use eric::core::{
    BatchHandle, Channel, Device, EncryptionConfig, EricError, Package, ProvisioningDaemon,
    RecvTimeout, SoftwareSource, SubmitError,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

const PROGRAM: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";

fn matrix_workers() -> usize {
    std::env::var("ERIC_PROVISION_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(2)
}

fn fleet(n: usize, base_seed: u64) -> (Vec<Device>, Vec<eric::puf::crp::EnrollmentRecord>) {
    let mut devices: Vec<Device> = (0..n)
        .map(|i| Device::with_seed(base_seed + i as u64, &format!("unit-{i}")))
        .collect();
    let creds = devices.iter_mut().map(Device::enroll).collect();
    (devices, creds)
}

/// A deliberately slow consumer never sees unbounded buffering: the
/// daemon's in-flight frames are capped by the worker count plus the
/// bounded outcome channel, regardless of batch size.
#[test]
fn backpressure_bounds_buffers_under_a_slow_consumer() {
    let workers = matrix_workers();
    let (_, creds) = fleet(24, 3000);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), workers);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let handle = daemon
        .submit(&image, &EncryptionConfig::full(), creds)
        .unwrap();
    let mut delivered = 0;
    while let Some(outcome) = handle.recv() {
        // Stall with frames still queued: workers must block on the
        // bounded channel, not race ahead allocating.
        std::thread::sleep(Duration::from_millis(2));
        handle.recycle(outcome.result.unwrap());
        delivered += 1;
        // In flight at once: ≤ workers packaging + `workers` channel
        // slots + the one the consumer holds.
        assert!(
            daemon.pool().created() <= 2 * workers + 2,
            "slow sink let {} buffers pile up (workers = {workers})",
            daemon.pool().created()
        );
    }
    assert_eq!(delivered, 24);
    daemon.shutdown();
}

/// A worker stalled on one device holds only that device: while the
/// packaging hook parks device 0, the other workers claim and deliver
/// every other device of the batch, and device 0 arrives once it is
/// released.
///
/// The hook waits for the release with a bound, so a failing run ends
/// instead of hanging the daemon's join.
#[test]
fn a_stalled_device_holds_back_only_itself() {
    const DEVICES: usize = 16;
    let (_, creds) = fleet(DEVICES, 3900);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), matrix_workers().max(2));
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    daemon.set_packaging_hook(Some(Arc::new(move |index| {
        if index == 0 {
            parked_tx.send(()).unwrap();
            let _ = release_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(30));
        }
    })));
    let handle = daemon
        .submit(&image, &EncryptionConfig::full(), creds)
        .unwrap();
    parked_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("device 0 never reached packaging");

    let mut seen = [false; DEVICES];
    for _ in 1..DEVICES {
        match handle.recv_timeout(Duration::from_secs(10)) {
            RecvTimeout::Outcome(outcome) => {
                assert_ne!(outcome.index, 0, "device 0 arrived while parked");
                assert!(!std::mem::replace(&mut seen[outcome.index], true));
                handle.recycle(outcome.result.unwrap());
            }
            other => panic!("a device waited behind parked device 0: {other:?}"),
        }
    }
    release_tx.send(()).unwrap();
    match handle.recv_timeout(Duration::from_secs(10)) {
        RecvTimeout::Outcome(outcome) => {
            assert_eq!(outcome.index, 0);
            handle.recycle(outcome.result.unwrap());
        }
        other => panic!("released device 0 never arrived: {other:?}"),
    }
    assert!(matches!(
        handle.recv_timeout(Duration::from_secs(10)),
        RecvTimeout::Complete
    ));
    daemon.shutdown();
}

/// Credential rotation end to end: the rotated config misses the
/// cache (epoch is part of the key), stale-epoch credentials are
/// rejected per device without poisoning the batch, and explicit
/// invalidation purges the dead entries.
#[test]
fn epoch_rotation_invalidates_cache_and_rejects_stale_creds() {
    let (mut devices, old_creds) = fleet(4, 3100);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), matrix_workers());
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();

    // Epoch-0 wave provisions and caches.
    let handle = daemon.submit(&image, &config, old_creds.clone()).unwrap();
    assert_eq!(handle.iter().filter(|o| o.result.is_ok()).count(), 4);
    assert!(!daemon.cache().is_empty());

    // Fleet-wide key rotation.
    for device in &mut devices {
        device.rotate_epoch();
    }
    let new_creds: Vec<_> = devices.iter_mut().map(Device::enroll).collect();
    let rotated = EncryptionConfig::full().with_epoch(1);

    // Stale-epoch credentials under the rotated config: every device
    // fails individually (packaging refuses the epoch mismatch), and
    // the preparation for epoch 1 is a fresh cache entry, not a hit.
    let handle = daemon.submit(&image, &rotated, old_creds).unwrap();
    assert!(!handle.cache_hit(), "rotated epoch must not hit the cache");
    for outcome in handle.iter() {
        assert!(matches!(outcome.result, Err(EricError::Config(_))));
    }

    // Rotation invalidation purges exactly the epoch-0 entry.
    assert_eq!(daemon.cache().invalidate_stale_epochs(1), 1);

    // Fresh credentials at the live epoch provision fine — and hit the
    // surviving epoch-1 preparation.
    let handle = daemon.submit(&image, &rotated, new_creds).unwrap();
    assert!(handle.cache_hit());
    for outcome in handle.iter() {
        let frame = outcome.result.unwrap();
        let package = Package::from_wire(&frame.bytes).unwrap();
        let run = devices[outcome.index].install_and_run(&package).unwrap();
        assert_eq!(run.exit_code, 42);
        handle.recycle(frame);
    }
    daemon.shutdown();
}

/// Source change invalidates by content: a rebuilt image misses even
/// though config and epoch are unchanged.
#[test]
fn source_change_misses_the_cache() {
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), matrix_workers());
    let (_, creds) = fleet(2, 3200);
    let config = EncryptionConfig::full();
    let v1 = daemon.source().compile(PROGRAM, false).unwrap();
    let v2 = daemon
        .source()
        .compile("main:\n li a0, 43\n li a7, 93\n ecall\n", false)
        .unwrap();
    let h = daemon.submit(&v1, &config, creds.clone()).unwrap();
    assert!(!h.cache_hit());
    h.iter().for_each(drop);
    let h = daemon.submit(&v2, &config, creds.clone()).unwrap();
    assert!(!h.cache_hit(), "rebuilt image must miss");
    h.iter().for_each(drop);
    let h = daemon.submit(&v1, &config, creds).unwrap();
    assert!(h.cache_hit(), "unchanged image must hit");
    h.iter().for_each(drop);
    daemon.shutdown();
}

/// Shutdown is a drain: batches already accepted complete in full,
/// new submissions are refused, and every worker joins.
#[test]
fn shutdown_drains_accepted_batches() {
    let workers = matrix_workers();
    let (mut devices, creds) = fleet(12, 3300);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), workers);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();
    // Queue three waves back to back, then shut down while they run.
    let handles: Vec<_> = (0..3)
        .map(|_| daemon.submit(&image, &config, creds.clone()).unwrap())
        .collect();
    let consumer = std::thread::spawn(move || {
        let mut total = 0usize;
        for handle in &handles {
            for outcome in handle.iter() {
                let frame = outcome.result.unwrap();
                let package = Package::from_wire(&frame.bytes).unwrap();
                assert_eq!(
                    devices[outcome.index]
                        .install_and_run(&package)
                        .unwrap()
                        .exit_code,
                    42
                );
                handle.recycle(frame);
                total += 1;
            }
        }
        total
    });
    daemon.drain();
    daemon.shutdown(); // joins workers; accepted waves already done
    assert_eq!(consumer.join().unwrap(), 36, "a drained wave lost outcomes");
}

/// A producer parked in `submit` backpressure observes shutdown and
/// returns an error instead of deadlocking.
#[test]
fn producer_blocked_in_submit_observes_shutdown() {
    let (_, creds) = fleet(4, 3500);
    // One worker, one queue slot: the first (unconsumed) batch stalls
    // the worker on the bounded outcome channel and occupies the slot,
    // so the next blocking submit parks in backpressure.
    let daemon = ProvisioningDaemon::start_with(SoftwareSource::new("vendor"), 1, 8, 1);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();
    let stalled = daemon.submit(&image, &config, creds.clone()).unwrap();

    std::thread::scope(|scope| {
        let producer = scope.spawn(|| daemon.submit(&image, &config, creds.clone()));
        // Give the producer time to reach the backpressure wait; it
        // must still be parked (nothing frees the queue slot).
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !producer.is_finished(),
            "producer returned without a free queue slot"
        );
        // Shutdown signalled from another thread wakes the parked
        // producer, which reports the refusal instead of hanging.
        daemon.begin_shutdown();
        let refused = producer.join().unwrap();
        assert!(
            matches!(refused, Err(EricError::Config(ref m)) if m.contains("shut down")),
            "expected a shutdown refusal, got {refused:?}"
        );
    });

    // Releasing the stalled handle lets the worker drain the accepted
    // batch; the join in `shutdown` then completes.
    drop(stalled);
    daemon.shutdown();
}

/// Daemon frames interoperate with the untrusted-channel model via
/// `transmit_wire` — no sender-side `Package` materialization.
#[test]
fn daemon_frames_cross_the_untrusted_channel() {
    let (mut devices, creds) = fleet(3, 3400);
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), matrix_workers());
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let handle = daemon
        .submit(&image, &EncryptionConfig::full(), creds)
        .unwrap();
    let channel = Channel::trusted_free();
    for outcome in handle.iter() {
        let frame = outcome.result.unwrap();
        let received = channel.transmit_wire(&frame.bytes).unwrap();
        let run = devices[outcome.index].install_and_run(&received).unwrap();
        assert_eq!(run.exit_code, 42);
        handle.recycle(frame);
    }
    daemon.shutdown();
}

/// A `submit` racing `begin_shutdown` on another thread is either
/// refused or fully delivered: an accepted batch must never be left
/// queued after every worker has exited.
///
/// Each iteration starts a one-worker daemon, warms its cache (so the
/// racing `submit` goes straight to the queue), and releases a
/// one-device `submit` and a `begin_shutdown` together, the latter
/// after a spin of 0–63 iterations. A stranded batch never delivers an
/// outcome, so the bounded wait fails the test instead of hanging it.
#[test]
fn submit_racing_shutdown_is_refused_or_delivered() {
    let (_, creds) = fleet(1, 3600);
    let config = EncryptionConfig::full();
    let image = SoftwareSource::new("vendor")
        .compile(PROGRAM, false)
        .unwrap();
    for iteration in 0..2000u32 {
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 1);
        let warm = daemon.submit(&image, &config, creds.clone()).unwrap();
        warm.iter().for_each(|o| warm.recycle(o.result.unwrap()));
        let start = Barrier::new(2);
        let accepted = std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..iteration % 64 {
                    std::hint::spin_loop();
                }
                daemon.begin_shutdown();
            });
            start.wait();
            daemon.submit(&image, &config, creds.clone())
        });
        match accepted {
            Ok(handle) => match handle.recv_timeout(Duration::from_secs(10)) {
                RecvTimeout::Outcome(outcome) => handle.recycle(outcome.result.unwrap()),
                other => panic!(
                    "iteration {iteration}: accepted batch stranded ({other:?}, {:?})",
                    daemon.health()
                ),
            },
            Err(EricError::Config(msg)) if msg.contains("shut down") => {}
            Err(other) => panic!("iteration {iteration}: unexpected refusal {other}"),
        }
    }
}

/// A live `health()` snapshot is always ordered:
/// `failed_devices <= completed_devices <= submitted_devices`.
///
/// One producer submits one-device batches into a warm cache as fast
/// as the workers drain them, so a worker often claims a job the
/// moment `submit` releases the queue lock, while a poller checks
/// every snapshot it can take. A device counted completed before it
/// was counted submitted shows up here as an out-of-order snapshot.
#[test]
fn live_health_snapshots_stay_ordered() {
    const BATCHES: usize = 3000;
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), matrix_workers());
    let (_, creds) = fleet(1, 3800);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();
    let warm = daemon.submit(&image, &config, creds.clone()).unwrap();
    warm.iter().for_each(|o| warm.recycle(o.result.unwrap()));
    let done = AtomicBool::new(false);
    let (snapshots, bad, first_bad) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let (mut snapshots, mut bad, mut first_bad) = (0u64, 0u64, None);
            while !done.load(Ordering::Relaxed) {
                let h = daemon.health();
                snapshots += 1;
                if h.failed_devices > h.completed_devices
                    || h.completed_devices > h.submitted_devices
                {
                    bad += 1;
                    first_bad.get_or_insert(h);
                }
            }
            (snapshots, bad, first_bad)
        });
        for _ in 0..BATCHES {
            // Dropping the handle abandons the outcome; the worker
            // still completes and counts the device.
            drop(daemon.submit(&image, &config, creds.clone()).unwrap());
        }
        done.store(true, Ordering::Relaxed);
        poller.join().unwrap()
    });
    assert_eq!(
        bad, 0,
        "{bad} of {snapshots} live snapshots out of order, first {first_bad:?}"
    );
    daemon.drain();
    let health = daemon.health();
    assert_eq!(health.submitted_devices, BATCHES as u64 + 1, "{health:?}");
    assert_eq!(health.completed_devices, health.submitted_devices);
    assert_eq!(health.failed_devices, 0);
}

/// Seeded schedule noise: a `yield_now` or a 0–200 µs sleep, fixed per
/// `(seed, point)`.
fn perturb(seed: u64, point: u64) {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(point.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z & 1 == 0 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros((z >> 1) % 201));
    }
}

/// What one producer saw: the batches it had accepted and the sheds
/// it was refused with.
#[derive(Default)]
struct ProducerLog {
    accepted: usize,
    sheds: u64,
}

/// One consumer: drain every handed-over batch through `recv_timeout`,
/// perturb between receipt and `recycle`, and check each batch
/// delivers every index exactly once.
fn consume(seed: u64, batches: mpsc::Receiver<(usize, BatchHandle)>) -> usize {
    let mut consumed = 0;
    for (batch, handle) in batches {
        let mut seen = vec![false; handle.devices()];
        loop {
            match handle.recv_timeout(Duration::from_secs(10)) {
                RecvTimeout::Outcome(outcome) => {
                    assert!(
                        !std::mem::replace(&mut seen[outcome.index], true),
                        "seed {seed}: batch {batch} delivered index {} twice",
                        outcome.index
                    );
                    let frame = outcome.result.unwrap_or_else(|e| {
                        panic!("seed {seed}: batch {batch} index {}: {e}", outcome.index)
                    });
                    perturb(seed, 1_000 + outcome.index as u64);
                    handle.recycle(frame);
                }
                RecvTimeout::Complete => break,
                RecvTimeout::TimedOut => panic!("seed {seed}: batch {batch} stranded"),
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "seed {seed}: batch {batch} missed indices: {seen:?}"
        );
        consumed += 1;
    }
    consumed
}

/// One seeded run: three producers mixing `submit`, `try_submit` and
/// `submit_deadline` into a depth-2 queue, a consumer per producer,
/// the packaging hook and the consumers injecting schedule noise, and
/// one seeded submission attempt in the second half calling
/// `begin_shutdown` first.
fn perturbed_run(seed: u64, workers: usize) {
    const PRODUCERS: u64 = 3;
    const ATTEMPTS: u64 = 8;
    let daemon = ProvisioningDaemon::start_with(SoftwareSource::new("vendor"), workers, 8, 2);
    let (_, creds) = fleet(6, 3700);
    let image = daemon.source().compile(PROGRAM, false).unwrap();
    let config = EncryptionConfig::full();
    daemon.set_packaging_hook(Some(Arc::new(move |index| perturb(seed, index as u64))));
    let half = PRODUCERS * ATTEMPTS / 2;
    let shutdown_at = half + seed % half;
    let attempt_no = AtomicUsize::new(0);
    let (logs, consumed): (Vec<ProducerLog>, usize) = std::thread::scope(|scope| {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for p in 0..PRODUCERS {
            let (tx, rx) = mpsc::channel();
            consumers.push(scope.spawn(move || consume(seed, rx)));
            let (daemon, image, config, creds, attempt_no) =
                (&daemon, &image, &config, &creds, &attempt_no);
            producers.push(scope.spawn(move || {
                let mut log = ProducerLog::default();
                for a in 0..ATTEMPTS {
                    let point = 10_000 + p * ATTEMPTS + a;
                    perturb(seed, point);
                    if attempt_no.fetch_add(1, Ordering::Relaxed) as u64 == shutdown_at {
                        daemon.begin_shutdown();
                    }
                    let batch = creds[..1 + (point as usize % creds.len())].to_vec();
                    let submitted = match (seed + point) % 3 {
                        0 => daemon.submit(image, config, batch).map_err(|e| match e {
                            EricError::Config(msg) if msg.contains("shut down") => {
                                SubmitError::ShutDown
                            }
                            other => SubmitError::Rejected(other),
                        }),
                        1 => daemon.try_submit(image, config, batch),
                        _ => daemon.submit_deadline(
                            image,
                            config,
                            batch,
                            Duration::from_micros((seed + point) % 2_000),
                        ),
                    };
                    match submitted {
                        Ok(handle) => {
                            tx.send((log.accepted, handle)).unwrap();
                            log.accepted += 1;
                        }
                        Err(SubmitError::QueueFull | SubmitError::Timeout) => log.sheds += 1,
                        Err(SubmitError::ShutDown) => {}
                        Err(SubmitError::Rejected(e)) => panic!("seed {seed}: rejected: {e}"),
                    }
                }
                log
            }));
        }
        let logs = producers.into_iter().map(|p| p.join().unwrap()).collect();
        (logs, consumers.into_iter().map(|c| c.join().unwrap()).sum())
    });
    assert_eq!(consumed, logs.iter().map(|l| l.accepted).sum::<usize>());
    daemon.drain();
    let health = daemon.health();
    assert_eq!(
        health.completed_devices, health.submitted_devices,
        "seed {seed}: {health:?}"
    );
    assert_eq!(health.failed_devices, 0, "seed {seed}: {health:?}");
    assert_eq!(
        health.sheds,
        logs.iter().map(|l| l.sheds).sum::<u64>(),
        "seed {seed}: sheds disagree with the refusals seen"
    );
    assert_eq!(
        daemon.pool().created(),
        daemon.pool().pooled(),
        "seed {seed}: a frame buffer never came back to the pool"
    );
    daemon.shutdown();
}

/// The one worker pool under perturbed schedules: over a fixed range
/// of seeds, every accepted batch delivers each index exactly once,
/// the health ledger balances (every submitted device completed, one
/// shed per `QueueFull`/`Timeout` refusal), and every frame buffer
/// returns to the pool.
#[test]
fn perturbed_schedules_deliver_every_accepted_batch_exactly_once() {
    let workers = matrix_workers();
    for seed in 0..48u64 {
        if std::panic::catch_unwind(|| perturbed_run(seed, workers)).is_err() {
            panic!("perturbed schedule failed at seed {seed} with {workers} workers");
        }
    }
}
