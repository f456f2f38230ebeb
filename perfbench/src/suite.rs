//! `suite`: the paper's Figure 7 flow over its ten programs.
//!
//! One enrolled device; the ten `eric-workloads` programs at their
//! default scale are packaged in advance. An item is one pass over all
//! ten, in a seeded order: `Package::from_wire` → `Device::install` →
//! `Device::run_installed`, each exit code checked against its golden
//! model. Items are whole passes because per-program latencies differ
//! by 4×: with one item per program, p50 and p90 would fall between two
//! programs rather than measure either.

use crate::common::{self, stream};
use crate::stats::Rng;
use crate::trace::{Tracer, ITEM};
use crate::{Bench, Phases, Window};
use eric_core::{Device, EncryptionConfig, Package, SoftwareSource};
use eric_workloads::Workload;
use std::time::Instant;

pub struct Suite {
    device: Device,
    programs: Vec<Workload>,
    golden: Vec<i64>,
    frames: Vec<Vec<u8>>,
    payload: Vec<u8>,
    segment_len: usize,
    next: u64,
}

impl Suite {
    pub fn setup(seed: u64, ph: &mut Phases) -> Result<Self, String> {
        let (mut devices, creds) = ph.time("enroll", 1, || common::fleet(seed, 1));
        let source = SoftwareSource::new("perfbench");
        let config = EncryptionConfig::full();
        let all = eric_workloads::all();
        let order = Rng::new(seed, stream::ORDER).permutation(all.len());
        let programs: Vec<Workload> = order.iter().map(|&i| all[i].clone()).collect();
        let images = ph.time("compile", programs.len() as u64, || {
            programs
                .iter()
                .map(|p| source.compile(&(p.source)(p.default_scale), config.compress))
                .collect::<Result<Vec<_>, _>>()
        });
        let images = images.map_err(|e| e.to_string())?;
        let prepared = ph
            .time("prepare", images.len() as u64, || {
                images
                    .iter()
                    .map(|image| source.prepare_image(image, &config))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let frames = ph
            .time("package", prepared.len() as u64, || {
                prepared
                    .iter()
                    .map(|p| {
                        let mut frame = Vec::new();
                        source
                            .package_prepared_into(p, &creds[0], &mut frame)
                            .map(|_| frame)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let mut bench = Suite {
            device: devices.remove(0),
            golden: programs
                .iter()
                .map(|p| (p.golden)(p.default_scale))
                .collect(),
            programs,
            frames,
            payload: images.iter().flat_map(common::payload).collect(),
            segment_len: common::segment_len(&config),
            next: 0,
        };
        ph.time("warmup", 1, || {
            let mut w = Window::default();
            bench.step(&mut w, &mut Tracer::new())?;
            match w.failed {
                0 => Ok(()),
                _ => Err("the warm-up pass was refused".to_string()),
            }
        })?;
        bench.next = 0;
        Ok(bench)
    }

    #[cfg(test)]
    pub fn corrupt_golden(&mut self, program: usize) {
        self.golden[program] += 1;
    }
}

impl Bench for Suite {
    fn step(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        let item = self.next;
        self.next += 1;
        w.attempted += 1;
        let t0 = Instant::now();
        let root = tr.open_at(ITEM, item, None, t0);
        let mut refused = false;
        for (i, frame) in self.frames.iter().enumerate() {
            w.wire_bytes += frame.len() as u64;
            let span = tr.open("package.parse", item, Some(root));
            let parsed = Package::from_wire(frame);
            tr.close(span);
            let installed = parsed.and_then(|package| {
                let span = tr.open("hde.install", item, Some(root));
                let installed = self.device.install(&package);
                tr.close(span);
                installed
            });
            let installed = match installed {
                Ok(image) => image,
                Err(_) => {
                    tr.count("hde.rejected", 1);
                    refused = true;
                    break;
                }
            };
            tr.count("hde.install_bytes", installed.payload_len() as u64);
            let span = tr.open("sim.run", item, Some(root));
            let run = self.device.run_installed(&installed);
            tr.close(span);
            let Ok(run) = run else {
                refused = true;
                break;
            };
            tr.count("sim.instructions", run.run.instructions);
            tr.count("sim.cycles", run.run.cycles);
            if run.exit_code != self.golden[i] {
                return Err(format!(
                    "pass {item}: {} exited {} but its golden model says {}",
                    self.programs[i].name, run.exit_code, self.golden[i]
                ));
            }
        }
        let t1 = Instant::now();
        tr.close_at(root, t1);
        w.latencies_ns.push((t1 - t0).as_nanos() as u64);
        w.failed += u64::from(refused);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        // Every pass already checked every exit code.
        Ok(())
    }

    fn payload(&self) -> (&[u8], usize) {
        (&self.payload, self.segment_len)
    }

    fn inputs_digest(&self) -> [u8; 32] {
        common::digest_of(self.frames.iter().map(Vec::as_slice))
    }
}
