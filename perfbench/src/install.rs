//! `install`: device-side installs of full `ERIC2` frames.
//!
//! Eight enrolled devices each hold a pre-packaged frame of a 1 MiB
//! release image built with the default configuration (64 KiB
//! segments). An item is `Package::from_wire` → `Device::install` → a
//! fingerprint check against the release; devices take turns. No
//! program runs per item: `Device::run_installed` would zero 4 MiB of
//! SoC RAM on every load, and that memory-bound cost would swamp the
//! HDE work this workload exists to measure.

use crate::common::{self, stream};
use crate::stats::Rng;
use crate::trace::{Tracer, ITEM};
use crate::{Bench, Phases, Window};
use eric_core::{Device, EncryptionConfig, InstalledImage, Package, SoftwareSource};
use eric_crypto::sha256::Digest;
use eric_workloads::Workload;
use std::time::Instant;

const DEVICES: usize = 8;

pub struct Install {
    devices: Vec<Device>,
    frames: Vec<Vec<u8>>,
    installed: Vec<Option<InstalledImage>>,
    program: Workload,
    payload: Vec<u8>,
    segment_len: usize,
    expected: Digest,
    next: u64,
}

impl Install {
    pub fn setup(seed: u64, ph: &mut Phases) -> Result<Self, String> {
        let (devices, creds) = ph.time("enroll", DEVICES as u64, || common::fleet(seed, DEVICES));
        let source = SoftwareSource::new("perfbench");
        let config = EncryptionConfig::full();
        let segment_len = common::segment_len(&config);
        let programs = eric_workloads::all();
        let program =
            programs[Rng::new(seed, stream::PROGRAM).below(programs.len() as u64) as usize].clone();
        let (image, _) = ph.time("compile", 1, || {
            common::release_image(&source, &program, &mut Rng::new(seed, stream::BLOB))
        })?;
        let prepared = ph
            .time("prepare", 1, || source.prepare_image(&image, &config))
            .map_err(|e| e.to_string())?;
        let payload = common::payload(&image);
        let (frames, expected) = ph.time("package", DEVICES as u64, || {
            let frames = creds
                .iter()
                .map(|cred| {
                    let mut frame = Vec::new();
                    source
                        .package_prepared_into(&prepared, cred, &mut frame)
                        .map(|_| frame)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>();
            (frames, common::reference_fingerprint(&payload, segment_len))
        });
        let mut bench = Install {
            devices,
            frames: frames?,
            installed: vec![None; DEVICES],
            program,
            payload,
            segment_len,
            expected,
            next: 0,
        };
        // Warm-up: one checked install per device.
        ph.time("warmup", DEVICES as u64, || {
            let mut w = Window::default();
            let mut tr = Tracer::new();
            for _ in 0..DEVICES {
                bench.step(&mut w, &mut tr)?;
            }
            match w.failed {
                0 => Ok(()),
                n => Err(format!("{n} warm-up installs were refused")),
            }
        })?;
        bench.next = 0;
        Ok(bench)
    }

    #[cfg(test)]
    pub fn set_expected(&mut self, expected: Digest) {
        self.expected = expected;
    }
}

impl Bench for Install {
    fn step(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        let item = self.next;
        self.next += 1;
        let d = (item % DEVICES as u64) as usize;
        let frame = &self.frames[d];
        w.attempted += 1;
        let t0 = Instant::now();
        let root = tr.open_at(ITEM, item, None, t0);
        let span = tr.open("package.parse", item, Some(root));
        let parsed = Package::from_wire(frame);
        tr.close(span);
        let installed = parsed.and_then(|package| {
            let span = tr.open("hde.install", item, Some(root));
            let installed = self.devices[d].install(&package);
            tr.close(span);
            installed
        });
        w.wire_bytes += frame.len() as u64;
        let ok = match installed {
            Ok(image) => {
                tr.count("hde.install_bytes", image.payload_len() as u64);
                let span = tr.open("check.fingerprint", item, Some(root));
                let fingerprint = image.fingerprint();
                tr.close(span);
                if fingerprint != self.expected {
                    return Err(format!(
                        "install {item} on device {d}: fingerprint {} != release {}",
                        fingerprint.to_hex(),
                        self.expected.to_hex()
                    ));
                }
                self.installed[d] = Some(image);
                true
            }
            Err(_) => {
                tr.count("hde.rejected", 1);
                false
            }
        };
        let t1 = Instant::now();
        tr.close_at(root, t1);
        w.latencies_ns.push((t1 - t0).as_nanos() as u64);
        w.failed += u64::from(!ok);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let golden = (self.program.golden)(self.program.smoke_scale);
        for (d, (device, image)) in self.devices.iter_mut().zip(&self.installed).enumerate() {
            let image = image
                .as_ref()
                .ok_or_else(|| format!("device {d} holds no installed image"))?;
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
        (&self.payload, self.segment_len)
    }

    fn inputs_digest(&self) -> [u8; 32] {
        common::digest_of(self.frames.iter().map(Vec::as_slice))
    }
}
