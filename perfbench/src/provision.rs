//! `provision`: vendor-side packaging through the resident daemon.
//!
//! A two-worker `ProvisioningDaemon` serves a fleet of 1024 enrolled
//! devices. Four release images (a paper program padded with a seeded
//! asset blob to a 1 MiB + 1 KiB payload each, default
//! `EncryptionConfig::full()`) all fit in the daemon's 8-entry
//! prepared-image cache. Each closed-loop step submits
//! a wave of 64 devices, drawn round-robin from the fleet, rotating
//! over the images, and drains it; an item is one device frame, timed
//! from the wave's `submit` call to the frame's arrival. No device code
//! runs in the window: sampled frames are installed after it.

use crate::common::{self, stream};
use crate::stats::Rng;
use crate::trace::{Tracer, ITEM};
use crate::{resident_bytes, Bench, Counters, Phases, Window};
use eric_asm::Image;
use eric_core::{EncryptionConfig, Package, PackagingHook, ProvisioningDaemon, SoftwareSource};
use eric_crypto::sha256::Digest;
use eric_puf::crp::EnrollmentRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLEET: usize = 1024;
const WAVE: usize = 64;
const IMAGES: usize = 4;
const WORKERS: usize = 2;
/// Frames kept for the post-window install check.
const SAMPLES: usize = 4;
/// After the first wave, each wave is sampled with probability
/// 1 / `SAMPLE_ODDS` until `SAMPLES` frames are kept.
const SAMPLE_ODDS: u64 = 32;
/// Nonces reserved up front, so the uniqueness log never reallocates
/// (untouched reserved pages are not resident).
const NONCE_SLOTS: usize = 1 << 23;

struct Sample {
    device: usize,
    image: usize,
    nonce: u64,
    bytes: Vec<u8>,
}

pub struct Provision {
    seed: u64,
    daemon: ProvisioningDaemon,
    config: EncryptionConfig,
    images: Vec<Image>,
    payload: Vec<u8>,
    creds: Vec<EnrollmentRecord>,
    frame_len: Vec<usize>,
    fingerprints: Vec<Digest>,
    nonces: Vec<u64>,
    samples: Vec<Sample>,
    /// Frame-sized buffers, written during set-up so they are resident
    /// before the window; a sampled frame is copied into one.
    spare: Vec<Vec<u8>>,
    sampler: Rng,
    wave: u64,
    /// Worker pick-up time of each device of the current wave, in
    /// nanoseconds since `base`, written by the packaging probe while
    /// tracing.
    pickups: Arc<Vec<AtomicU64>>,
    base: Instant,
    probe: PackagingHook,
    probe_on: bool,
}

impl Provision {
    pub fn setup(seed: u64, ph: &mut Phases) -> Result<Self, String> {
        let creds: Vec<EnrollmentRecord> = ph.time("enroll", FLEET as u64, || {
            (0..FLEET)
                .map(|i| common::device(seed, i).enroll())
                .collect()
        });
        // Workers spawned by a rotating client thread would inherit its
        // single CPU.
        let daemon = crate::cpus::unpinned(|| {
            ProvisioningDaemon::start(SoftwareSource::new("perfbench"), WORKERS)
        });
        let config = EncryptionConfig::full();
        let images = ph.time("compile", IMAGES as u64, || {
            let programs = eric_workloads::all();
            let order = Rng::new(seed, stream::PROGRAM).permutation(programs.len());
            let mut blobs = Rng::new(seed, stream::BLOB);
            order[..IMAGES]
                .iter()
                .map(|&p| {
                    common::release_image(daemon.source(), &programs[p], &mut blobs)
                        .map(|(image, _)| image)
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        // Preparing through the daemon's own cache is what a cold
        // `submit` would do; the window then runs on cache hits.
        let prepared = ph
            .time("prepare", IMAGES as u64, || {
                images
                    .iter()
                    .map(|image| {
                        daemon
                            .cache()
                            .get_or_prepare(daemon.source(), image, &config)
                            .map(|lookup| lookup.prepared)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        // Expected frame lengths come from the reference `Package`
        // path, fingerprints from the reference hasher.
        let segment_len = common::segment_len(&config);
        let (frame_len, fingerprints) = ph.time("package", IMAGES as u64, || {
            let reference = SoftwareSource::new("perfbench-reference");
            let lens = prepared
                .iter()
                .map(|p| {
                    reference
                        .package_prepared(p, &creds[0])
                        .map(|(pkg, _)| pkg.wire_len())
                })
                .collect::<Result<Vec<_>, _>>();
            let fingerprints = images
                .iter()
                .map(|image| common::reference_fingerprint(&common::payload(image), segment_len))
                .collect();
            (lens, fingerprints)
        });
        let frame_len = frame_len.map_err(|e| e.to_string())?;
        let longest = frame_len.iter().copied().max().unwrap_or(0);
        let spare = (0..SAMPLES).map(|_| vec![0xA5; longest]).collect();
        let base = Instant::now();
        let pickups: Arc<Vec<AtomicU64>> = Arc::new((0..WAVE).map(|_| AtomicU64::new(0)).collect());
        let probe: PackagingHook = {
            let pickups = pickups.clone();
            Arc::new(move |index| {
                pickups[index].store(base.elapsed().as_nanos() as u64, Ordering::Relaxed);
            })
        };
        let mut bench = Provision {
            seed,
            daemon,
            config,
            payload: common::payload(&images[0]),
            images,
            creds,
            frame_len,
            fingerprints,
            nonces: Vec::with_capacity(NONCE_SLOTS),
            samples: Vec::with_capacity(SAMPLES),
            spare,
            sampler: Rng::new(seed, stream::SAMPLE),
            wave: 0,
            pickups,
            base,
            probe,
            probe_on: false,
        };
        // Warm-up: one checked wave per image fills the buffer pool.
        ph.time("warmup", (IMAGES * WAVE) as u64, || {
            let mut w = Window::default();
            let mut tr = Tracer::new();
            for _ in 0..IMAGES {
                bench.step(&mut w, &mut tr)?;
            }
            match w.failed {
                0 => Ok(()),
                n => Err(format!("{n} warm-up frames failed")),
            }
        })?;
        bench.wave = 0;
        bench.nonces.clear();
        let kept: Vec<Sample> = bench.samples.drain(..).collect();
        bench.spare.extend(kept.into_iter().map(|s| s.bytes));
        bench.sampler = Rng::new(seed, stream::SAMPLE);
        Ok(bench)
    }

    #[cfg(test)]
    pub fn corrupt_sample(&mut self, byte: usize) {
        let sample = &mut self.samples[0].bytes;
        let at = byte % sample.len();
        sample[at] ^= 0x01;
    }
}

impl Bench for Provision {
    fn step(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        let wave = self.wave;
        self.wave += 1;
        let image = (wave % IMAGES as u64) as usize;
        let first = (wave as usize * WAVE) % FLEET;
        let sampled = (self.samples.len() < SAMPLES
            && (wave == 0 || self.sampler.below(SAMPLE_ODDS) == 0))
            .then(|| self.sampler.below(WAVE as u64) as usize);
        if tr.is_on() != self.probe_on {
            self.probe_on = tr.is_on();
            self.daemon
                .set_packaging_hook(self.probe_on.then(|| self.probe.clone()));
        }
        let creds = self.creds[first..first + WAVE].to_vec();

        let t_submit = Instant::now();
        let handle = match self.daemon.submit(&self.images[image], &self.config, creds) {
            Ok(handle) => handle,
            Err(_) => {
                // A refused wave: every frame in it failed.
                w.attempted += WAVE as u64;
                w.failed += WAVE as u64;
                let t = t_submit.elapsed().as_nanos() as u64;
                w.latencies_ns.extend(std::iter::repeat_n(t, WAVE));
                return Ok(());
            }
        };
        let t_submitted = Instant::now();
        tr.count("provisioning.submits", 1);
        tr.count("provisioning.cache_hits", u64::from(handle.cache_hit()));
        for outcome in handle.iter() {
            let arrival = Instant::now();
            let item = wave * WAVE as u64 + outcome.index as u64;
            w.attempted += 1;
            w.latencies_ns.push((arrival - t_submit).as_nanos() as u64);
            if tr.is_on() {
                let pickup = self.base
                    + Duration::from_nanos(self.pickups[outcome.index].load(Ordering::Relaxed));
                let pickup = pickup.clamp(t_submit, arrival);
                let root = tr.record(ITEM, item, None, t_submit, arrival);
                tr.record(
                    "provisioning.submit",
                    item,
                    Some(root),
                    t_submit,
                    t_submitted,
                );
                tr.record(
                    "provisioning.queue_wait",
                    item,
                    Some(root),
                    t_submitted,
                    pickup.max(t_submitted),
                );
                // The worker's clock starts just before the probe runs,
                // so its end is clamped to the frame's arrival.
                tr.record(
                    "provisioning.worker",
                    item,
                    Some(root),
                    pickup,
                    (pickup + outcome.elapsed).min(arrival),
                );
            }
            let frame = match outcome.result {
                Ok(frame) => frame,
                Err(_) => {
                    w.failed += 1;
                    continue;
                }
            };
            let len = frame.bytes.len();
            if len != self.frame_len[image] || frame.info.wire_len != len {
                return Err(format!(
                    "wave {wave} device {}: frame of {len} bytes (reported {}), expected {}",
                    first + outcome.index,
                    frame.info.wire_len,
                    self.frame_len[image]
                ));
            }
            self.nonces.push(frame.info.nonce);
            w.wire_bytes += len as u64;
            tr.count("provisioning.frame_bytes", len as u64);
            if sampled == Some(outcome.index) {
                if let Some(mut bytes) = self.spare.pop() {
                    bytes.clear();
                    bytes.extend_from_slice(&frame.bytes);
                    self.samples.push(Sample {
                        device: first + outcome.index,
                        image,
                        nonce: frame.info.nonce,
                        bytes,
                    });
                }
            }
            handle.recycle(frame);
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let mut nonces = std::mem::take(&mut self.nonces);
        nonces.sort_unstable();
        if let Some(pair) = nonces.windows(2).find(|p| p[0] == p[1]) {
            return Err(format!("nonce {} was issued twice", pair[0]));
        }
        for s in &self.samples {
            let mut device = common::device(self.seed, s.device);
            let package = Package::from_wire(&s.bytes)
                .map_err(|e| format!("sampled frame for device {}: {e}", s.device))?;
            if package.nonce != s.nonce {
                return Err(format!(
                    "sampled frame for device {}: nonce changed",
                    s.device
                ));
            }
            let installed = device
                .install(&package)
                .map_err(|e| format!("sampled frame for device {}: {e}", s.device))?;
            if installed.fingerprint() != self.fingerprints[s.image] {
                return Err(format!(
                    "sampled frame for device {}: installed fingerprint differs from release {}",
                    s.device, s.image
                ));
            }
        }
        Ok(())
    }

    fn payload(&self) -> (&[u8], usize) {
        (&self.payload, common::segment_len(&self.config))
    }

    fn inputs_digest(&self) -> [u8; 32] {
        common::digest_of(self.fingerprints.iter().map(|f| f.as_bytes().as_slice()))
    }

    fn log_bytes(&self) -> u64 {
        resident_bytes(self.nonces.len() * std::mem::size_of::<u64>())
    }

    fn counters(&self) -> Counters {
        let health = self.daemon.health();
        Counters {
            workers: WORKERS as u64,
            buffers_created: self.daemon.pool().created() as u64,
            failed_items: health.failed_devices,
            sheds: health.sheds,
            panics: health.panics,
        }
    }
}
