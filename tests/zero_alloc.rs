//! Steady-state allocation audit for the zero-copy provisioning path.
//!
//! The clone-per-device pipeline (`package_prepared`, then `to_wire`)
//! performs three payload-sized allocations per package: the frame
//! `package_prepared` writes, the payload its parse copies out of that
//! frame, and the serialized wire `Vec`. At fleet scale that allocator
//! traffic — not crypto — bounds throughput. The zero-copy path
//! (`package_prepared_into` over reused buffers, and the daemon's
//! recycling pool) must perform **zero** payload-sized allocations
//! once warm.
//!
//! Delivering a frame over the lossy channel must copy it once per
//! attempt: the attempt's own copy is the buffer the channel damages
//! and parses, so a clean delivery makes two payload-sized
//! allocations, that copy and the parsed payload.
//!
//! Applying a delta must allocate only the segments it ships: the
//! patched image shares every other segment with its base, and the
//! debug-build re-hash oracle hashes segment by segment without
//! gathering the image. Installing a full frame, by contrast, does make
//! a payload-sized allocation: the buffer the HDE decrypts into.
//!
//! A counting `#[global_allocator]` wraps `System` and, while armed,
//! counts every allocation/reallocation at or above half the payload
//! size. Warm-up runs unarmed (buffers legitimately grow once); the
//! armed steady-state waves must count zero. One `#[test]` only: the
//! counter is process-global.

use eric::core::{
    DeliveryPolicy, Device, EncryptionConfig, FaultPlan, LossyChannel, Package, PreparedImage,
    ProvisioningDaemon, ResilientDelivery, SoftwareSource,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) && size >= THRESHOLD.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DATA_BYTES: usize = 64 << 10;
const DEVICES: usize = 8;

fn armed<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BIG_ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, BIG_ALLOCS.load(Ordering::Relaxed))
}

#[test]
fn steady_state_packaging_performs_no_payload_sized_allocations() {
    let asm =
        format!(".data\nblob: .zero {DATA_BYTES}\n.text\nmain:\n li a0, 0\n li a7, 93\n ecall\n");
    let creds: Vec<_> = (0..DEVICES)
        .map(|i| Device::with_seed(5_000 + i as u64, &format!("unit-{i}")).enroll())
        .collect();
    let config = EncryptionConfig::full();

    // --- Phase 1: direct zero-copy packaging over reused buffers ---
    let source = SoftwareSource::new("vendor");
    let image = source.compile(&asm, config.compress).unwrap();
    let prepared = source.prepare_image(&image, &config).unwrap();
    THRESHOLD.store(prepared.payload_len() / 2, Ordering::Relaxed);

    let mut frames: Vec<Vec<u8>> = (0..DEVICES).map(|_| Vec::new()).collect();
    // Warm-up: buffers grow to frame size exactly once, unarmed.
    for (frame, cred) in frames.iter_mut().zip(&creds) {
        source
            .package_prepared_into(&prepared, cred, frame)
            .unwrap();
    }
    let ((), big) = armed(|| {
        for _ in 0..3 {
            for (frame, cred) in frames.iter_mut().zip(&creds) {
                source
                    .package_prepared_into(&prepared, cred, frame)
                    .unwrap();
            }
        }
    });
    assert_eq!(
        big, 0,
        "direct zero-copy path made {big} payload-sized allocations across \
         3 warm waves of {DEVICES} devices"
    );

    // Sanity: the clone-per-device oracle *does* allocate (the counter
    // actually measures what it claims to).
    let ((), big) = armed(|| {
        for cred in &creds {
            let (package, _) = source.package_prepared(&prepared, cred).unwrap();
            std::hint::black_box(package.to_wire());
        }
    });
    assert!(
        big >= 3 * DEVICES,
        "clone-per-device baseline should allocate ≥3 payload-sized blocks \
         per device, counted {big}"
    );

    // --- Phase 2: one delivery over a fault-free lossy channel ---
    let delivery = ResilientDelivery::new(
        LossyChannel::with_plan(FaultPlan::none()),
        DeliveryPolicy::default(),
    );
    let deliver = || delivery.deliver_verified(0, &frames[0], |_: &Package| Ok(()));
    assert!(deliver().status.is_delivered(), "warm-up delivery failed");
    let (report, big) = armed(deliver);
    assert!(report.status.is_delivered());
    assert!(
        big <= 2,
        "one clean delivery made {big} payload-sized allocations; expected at \
         most 2 (the attempt's copy of the frame and the parsed payload)"
    );

    // --- Phase 3: the daemon's recycling pool, end to end ---
    let workers = 2;
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), workers);
    let image = daemon.source().compile(&asm, config.compress).unwrap();
    // Warm-up wave: populates the cache and measures the frame size.
    let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
    let mut frame_len = 0;
    for outcome in handle.iter() {
        let frame = outcome.result.unwrap();
        frame_len = frame.bytes.len();
        handle.recycle(frame);
    }
    // Prime the pool to its in-flight cap (workers packaging + bounded
    // channel + consumer) at full capacity, so no armed-wave schedule
    // can force a fresh buffer into existence.
    let primers: Vec<Vec<u8>> = (0..2 * workers + 2)
        .map(|_| {
            let mut buf = daemon.pool().take();
            buf.reserve(frame_len);
            buf
        })
        .collect();
    for buf in primers {
        daemon.pool().recycle(buf);
    }
    let (delivered, big) = armed(|| {
        let mut delivered = 0usize;
        for _ in 0..3 {
            let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
            for outcome in handle.iter() {
                handle.recycle(outcome.result.unwrap());
                delivered += 1;
            }
        }
        delivered
    });
    assert_eq!(delivered, 3 * DEVICES);
    assert_eq!(
        big, 0,
        "warm daemon made {big} payload-sized allocations across 3 waves of \
         {DEVICES} devices"
    );
    daemon.shutdown();

    // --- Phase 4: a delta allocates its shipped segments only ---
    let mut device = Device::with_seed(6_000, "ota-unit");
    let cred = device.enroll();
    let source = SoftwareSource::new("vendor");
    let config = EncryptionConfig::full().with_segments(1024);
    let image = source.compile(&asm, config.compress).unwrap();
    let base = source.prepare_image(&image, &config).unwrap();
    assert!(base.payload_len() >= DATA_BYTES && base.segments() >= 64);
    THRESHOLD.store(base.payload_len() / 2, Ordering::Relaxed);
    let install = |device: &mut Device, prepared: &PreparedImage| {
        let (package, _) = source.package_prepared(prepared, &cred).unwrap();
        device.install(&package).unwrap()
    };
    // Sanity: an install does make a payload-sized allocation.
    let (installed, big) = armed(|| install(&mut device, &base));
    assert!(
        big >= 1,
        "install should allocate the payload it decrypts, counted {big}"
    );
    // Data offsets 100, 20 000 and 40 000 fall in three different
    // 1 KiB segments.
    for edits in [&[100][..], &[100, 20_000, 40_000]] {
        let mut next = image.clone();
        for &at in edits {
            next.data[at] ^= 0xFF;
        }
        let next = source.prepare_image(&next, &config).unwrap();
        let delta = source.prepare_delta(&base, &next).unwrap();
        assert_eq!(delta.changed_segments(), edits.len());
        let frame = source.package_delta(&delta, &cred).unwrap();
        let (patched, big) = armed(|| device.apply_delta(&installed, &frame).unwrap());
        assert_eq!(
            big,
            0,
            "a {}-segment delta made {big} payload-sized allocations",
            edits.len()
        );
        assert_eq!(
            patched.fingerprint(),
            install(&mut device, &next).fingerprint()
        );
    }
}
