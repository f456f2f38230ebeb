//! Threaded fleet runner: execute many workload × [`SocConfig`] combos
//! across OS threads.
//!
//! The paper's evaluation sweeps 10+ workloads over several SoC/HDE
//! configurations; each simulation is independent, so the sweep is
//! embarrassingly parallel. [`BatchRunner`] fans a job list out over
//! `std::thread::scope` workers. Each worker keeps one [`Soc`] alive
//! and reloads it between jobs that share a configuration, so RAM,
//! cache and translation-cache allocations are paid once per worker
//! rather than once per job (see [`Soc::load_image`] for why a
//! reloaded `Soc` is indistinguishable from a fresh one).
//!
//! Results come back in job order, regardless of which worker ran
//! which job or in what order they finished.

use crate::soc::{RunError, RunOutcome, Soc, SocConfig};
use eric_asm::Image;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One simulation to run: a program image on a configured SoC.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Label echoed into the matching [`BatchResult`].
    pub name: String,
    /// The assembled program.
    pub image: Image,
    /// SoC configuration (including the execution engine).
    pub config: SocConfig,
    /// Instruction budget for the run.
    pub fuel: u64,
}

/// Outcome of one [`BatchJob`].
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The job's label.
    pub name: String,
    /// The simulation result (bit-identical to a sequential run).
    pub outcome: Result<RunOutcome, RunError>,
    /// Host wall time for load + run of this job alone.
    pub wall: Duration,
}

/// Runs batches of simulations on a pool of scoped threads.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    workers: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner sized to the host's available parallelism.
    pub fn new() -> Self {
        BatchRunner {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Use exactly `workers` threads (values below 1 are clamped to 1).
    pub fn with_workers(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every job; returns one result per job, in job order.
    ///
    /// Jobs are claimed work-stealing style off a shared counter, so a
    /// long simulation does not hold up the queue behind it.
    pub fn run(&self, jobs: &[BatchJob]) -> Vec<BatchResult> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchResult>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(jobs.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // One Soc per worker, rebuilt only when the config
                    // changes between claimed jobs.
                    let mut soc: Option<Soc> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let soc = match &mut soc {
                            Some(s) if *s.config() == job.config => s,
                            slot => slot.insert(Soc::new(job.config)),
                        };
                        let start = Instant::now();
                        let outcome = soc.load_image(&job.image).and_then(|()| soc.run(job.fuel));
                        let wall = start.elapsed();
                        *slots[i].lock().expect("result slot poisoned") = Some(BatchResult {
                            name: job.name.clone(),
                            outcome,
                            wall,
                        });
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job was claimed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::EngineKind;
    use eric_asm::{assemble, AsmOptions};

    fn job(name: &str, iters: u32, engine: EngineKind) -> BatchJob {
        let src = format!(
            "main:\n li t0, {iters}\n li a0, 0\nloop:\n add a0, a0, t0\n addi t0, t0, -1\n bnez t0, loop\n li a7, 93\necall"
        );
        BatchJob {
            name: name.to_string(),
            image: assemble(&src, &AsmOptions::default()).unwrap(),
            config: SocConfig {
                engine,
                ..SocConfig::default()
            },
            fuel: 10_000_000,
        }
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let jobs: Vec<BatchJob> = (1..=8)
            .map(|i| job(&format!("sum-{i}"), i * 100, EngineKind::Block))
            .collect();
        let sequential: Vec<RunOutcome> = jobs
            .iter()
            .map(|j| {
                let mut soc = Soc::new(j.config);
                soc.load_image(&j.image).unwrap();
                soc.run(j.fuel).unwrap()
            })
            .collect();
        let results = BatchRunner::with_workers(3).run(&jobs);
        assert_eq!(results.len(), jobs.len());
        for ((job, result), want) in jobs.iter().zip(&results).zip(&sequential) {
            assert_eq!(result.name, job.name, "order preserved");
            assert_eq!(result.outcome.as_ref().unwrap(), want);
        }
    }

    #[test]
    fn mixed_engines_in_one_batch_agree() {
        let jobs: Vec<BatchJob> = [EngineKind::Step, EngineKind::Block]
            .into_iter()
            .map(|e| job(e.name(), 500, e))
            .collect();
        let results = BatchRunner::new().run(&jobs);
        let outcomes: Vec<&RunOutcome> = results
            .iter()
            .map(|r| r.outcome.as_ref().unwrap())
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0].exit_code, (1..=500i64).sum::<i64>());
    }

    #[test]
    fn errors_are_reported_per_job() {
        let mut jobs = vec![job("ok", 10, EngineKind::Block)];
        jobs.push(BatchJob {
            name: "spins".to_string(),
            image: assemble("loop: j loop", &AsmOptions::default()).unwrap(),
            config: SocConfig::default(),
            fuel: 1_000,
        });
        let results = BatchRunner::with_workers(2).run(&jobs);
        assert!(results[0].outcome.is_ok());
        assert_eq!(
            results[1].outcome,
            Err(RunError::OutOfFuel { budget: 1_000 })
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(BatchRunner::new().run(&[]).is_empty());
    }
}
