//! `ota`: device-side delta updates over a lossy link.
//!
//! Eight devices each hold an installed 1 MiB release built with 4 KiB
//! segments. The releases form a ring: release `r` carries the
//! alternate content of segment set `j` exactly when bit `j` of the
//! Gray code of `r` is set, so every step of the ring, the wrap-around
//! included, changes one set of three segments (about 1 % of 257). An
//! item updates one device to the next release: `package_delta_into`
//! builds its frame, `deliver_delta_verified` sends it over a
//! `LossyChannel` with 1 % faults of each kind and uses
//! `Device::apply_delta` as the verifier, and the patched image's
//! fingerprint is checked against a clean install of the target.

use crate::common::{self, stream};
use crate::stats::Rng;
use crate::trace::{Tracer, ITEM};
use crate::{Bench, Phases, Window};
use eric_core::{
    DeliveryPolicy, DeliveryStatus, Device, EncryptionConfig, FaultPlan, InstalledImage,
    LossyChannel, Package, PreparedDelta, ResilientDelivery, SoftwareSource,
};
use eric_crypto::sha256::Digest;
use eric_puf::crp::EnrollmentRecord;
use eric_workloads::Workload;
use std::time::Instant;

const DEVICES: usize = 8;
const SEGMENT_LEN: usize = 4096;
/// Gray-code width: `1 << SETS` releases in the ring.
const SETS: usize = 3;
const SEGMENTS_PER_SET: usize = 3;
const RELEASES: usize = 1 << SETS;
/// Per-kind fault probability of the link (drop, bit flip, truncation,
/// duplication).
const FAULT_RATE: f64 = 0.01;

pub struct Ota {
    source: SoftwareSource,
    devices: Vec<Device>,
    creds: Vec<EnrollmentRecord>,
    deltas: Vec<PreparedDelta>,
    fingerprints: Vec<Digest>,
    installed: Vec<InstalledImage>,
    position: Vec<usize>,
    delivery: ResilientDelivery,
    program: Workload,
    base_payload: Vec<u8>,
    frame: Vec<u8>,
    next: u64,
}

fn gray(r: usize) -> usize {
    r ^ (r >> 1)
}

impl Ota {
    pub fn setup(seed: u64, ph: &mut Phases) -> Result<Self, String> {
        let (mut devices, creds) =
            ph.time("enroll", DEVICES as u64, || common::fleet(seed, DEVICES));
        let source = SoftwareSource::new("perfbench");
        let config = EncryptionConfig::full().with_segments(SEGMENT_LEN as u32);
        let programs = eric_workloads::all();
        let program =
            programs[Rng::new(seed, stream::PROGRAM).below(programs.len() as u64) as usize].clone();
        let releases = ph.time("compile", RELEASES as u64, || {
            let (base, blob_start) =
                common::release_image(&source, &program, &mut Rng::new(seed, stream::BLOB))?;
            // Segment sets lie wholly inside the blob, so the program
            // itself never changes between releases.
            let first = blob_start.div_ceil(SEGMENT_LEN);
            let last = (base.text.len() + base.data.len()) / SEGMENT_LEN;
            let mut rng = Rng::new(seed, stream::RING);
            let picks = rng.permutation(last - first);
            let alternate = {
                let mut bytes = vec![0u8; SEGMENT_LEN];
                rng.fill(&mut bytes);
                bytes
            };
            let releases: Vec<_> = (0..RELEASES)
                .map(|r| {
                    let mut image = base.clone();
                    for set in (0..SETS).filter(|j| gray(r) >> j & 1 == 1) {
                        for &pick in &picks[set * SEGMENTS_PER_SET..(set + 1) * SEGMENTS_PER_SET] {
                            let at = (first + pick) * SEGMENT_LEN - base.text.len();
                            image.data[at..at + SEGMENT_LEN].copy_from_slice(&alternate);
                        }
                    }
                    image
                })
                .collect();
            Ok::<_, String>(releases)
        })?;
        let prepared = ph
            .time("prepare", RELEASES as u64, || {
                releases
                    .iter()
                    .map(|image| source.prepare_image(image, &config))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let deltas = ph
            .time("prepare_delta", RELEASES as u64, || {
                (0..RELEASES)
                    .map(|r| source.prepare_delta(&prepared[r], &prepared[(r + 1) % RELEASES]))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let offset = Rng::new(seed, stream::RING).below(RELEASES as u64) as usize;
        let position: Vec<usize> = (0..DEVICES).map(|d| (offset + d) % RELEASES).collect();
        let mut frame = Vec::new();
        let mut install = |device: &mut Device, cred, r: usize| {
            source
                .package_prepared_into(&prepared[r], cred, &mut frame)
                .and_then(|_| Package::from_wire(&frame))
                .and_then(|package| device.install(&package))
                .map_err(|e| format!("clean install of release {r}: {e}"))
        };
        // Expected fingerprints come from clean installs, cross-checked
        // against the reference hasher over each release's payload.
        let (fingerprints, installed) = ph.time("package", (RELEASES + DEVICES) as u64, || {
            let mut fingerprints = Vec::with_capacity(RELEASES);
            for (r, image) in releases.iter().enumerate() {
                let clean = install(&mut devices[0], &creds[0], r)?.fingerprint();
                let reference = common::reference_fingerprint(&common::payload(image), SEGMENT_LEN);
                if clean != reference {
                    return Err(format!(
                        "release {r}: clean install disagrees with reference"
                    ));
                }
                fingerprints.push(clean);
            }
            let installed = (0..DEVICES)
                .map(|d| install(&mut devices[d], &creds[d], position[d]))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((fingerprints, installed))
        })?;
        let mut bench = Ota {
            source,
            devices,
            creds,
            deltas,
            fingerprints,
            installed,
            position,
            delivery: ResilientDelivery::new(
                LossyChannel::with_plan(FaultPlan::uniform(seed, FAULT_RATE)),
                DeliveryPolicy::default(),
            ),
            program,
            base_payload: common::payload(&releases[0]),
            frame,
            next: 0,
        };
        // Warm-up: one checked update per device. Item ids restart at 0
        // afterwards, so the window's fault draws depend on the seed
        // alone.
        ph.time("warmup", DEVICES as u64, || {
            let mut w = Window::default();
            let mut tr = Tracer::new();
            for _ in 0..DEVICES {
                bench.step(&mut w, &mut tr)?;
            }
            Ok::<_, String>(())
        })?;
        bench.next = 0;
        Ok(bench)
    }

    #[cfg(test)]
    pub fn set_expected(&mut self, release: usize, expected: Digest) {
        self.fingerprints[release] = expected;
    }
}

impl Bench for Ota {
    fn step(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        let item = self.next;
        self.next += 1;
        let d = (item % DEVICES as u64) as usize;
        let (from, to) = (self.position[d], (self.position[d] + 1) % RELEASES);
        w.attempted += 1;
        let t0 = Instant::now();
        let root = tr.open_at(ITEM, item, None, t0);

        let span = tr.open("source.package_delta", item, Some(root));
        let packaged =
            self.source
                .package_delta_into(&self.deltas[from], &self.creds[d], &mut self.frame);
        tr.close(span);
        if let Err(e) = packaged {
            return Err(format!("packaging delta {from}->{to} for device {d}: {e}"));
        }

        let span = tr.open("delivery.deliver", item, Some(root));
        let (device, base) = (&self.devices[d], &self.installed[d]);
        let mut patched = None;
        let mut rejected = 0;
        let report = self
            .delivery
            .deliver_delta_verified(item, &self.frame, |delta| {
                let apply = tr.open("hde.apply_delta", item, Some(span));
                let result = device.apply_delta(base, delta);
                tr.close(apply);
                match result {
                    Ok(image) => {
                        patched = Some(image);
                        Ok(())
                    }
                    Err(e) => {
                        rejected += 1;
                        Err(e)
                    }
                }
            });
        tr.close(span);
        tr.count("hde.rejected", rejected);
        tr.count("delivery.attempts", u64::from(report.attempts));
        tr.count("delivery.retries", u64::from(report.retries));
        tr.count("delivery.wire_bytes", report.wire_bytes);
        tr.count("delivery.frame_bytes", self.frame.len() as u64);
        tr.count("delivery.virtual_ns", report.elapsed().as_nanos() as u64);
        w.wire_bytes += report.wire_bytes;

        let delivered = match (&report.status, patched) {
            (DeliveryStatus::Delivered(_), Some(image)) => {
                let span = tr.open("check.fingerprint", item, Some(root));
                let fingerprint = image.fingerprint();
                tr.close(span);
                if fingerprint != self.fingerprints[to] {
                    return Err(format!(
                        "update {item} of device {d} to release {to}: fingerprint {} != clean install {}",
                        fingerprint.to_hex(),
                        self.fingerprints[to].to_hex()
                    ));
                }
                self.installed[d] = image;
                self.position[d] = to;
                true
            }
            (DeliveryStatus::Delivered(_), None) => {
                return Err(format!("update {item} delivered without a verified image"));
            }
            (DeliveryStatus::Exhausted { .. }, _) => {
                tr.count("delivery.exhausted", 1);
                false
            }
            (DeliveryStatus::Fatal(_), _) => false,
        };
        let t1 = Instant::now();
        tr.close_at(root, t1);
        w.latencies_ns.push((t1 - t0).as_nanos() as u64);
        w.failed += u64::from(!delivered);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let golden = (self.program.golden)(self.program.smoke_scale);
        for (d, (device, image)) in self.devices.iter_mut().zip(&self.installed).enumerate() {
            let run = device
                .run_installed(image)
                .map_err(|e| format!("device {d}: run failed: {e}"))?;
            if run.exit_code != golden {
                return Err(format!(
                    "device {d}: {} exited {} but its golden model says {golden}",
                    self.program.name, run.exit_code
                ));
            }
        }
        Ok(())
    }

    fn payload(&self) -> (&[u8], usize) {
        (&self.base_payload, SEGMENT_LEN)
    }

    fn inputs_digest(&self) -> [u8; 32] {
        let fingerprints = self.fingerprints.iter().map(|f| f.as_bytes().as_slice());
        common::digest_of(fingerprints.chain([self.base_payload.as_slice()]))
    }
}
