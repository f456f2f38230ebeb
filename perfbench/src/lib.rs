//! The repository benchmark: four closed-loop workloads that drive the
//! ERIC layers from outside, through their public APIs, and report the
//! end-to-end metrics a user sees or, in a separate traced run, the
//! per-layer metrics behind them. `README.md` in this directory
//! describes the workloads, the metrics and the layer premises.

pub mod stats;
pub mod trace;

mod common;
mod cpus;
mod install;
mod ota;
mod provision;
#[cfg(test)]
mod selftest;
mod suite;

use stats::{median_secs, peak_rss_mib, quantile, quietest, reset_peak_rss, rss_mib, Slice};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["provision", "install", "ota", "suite"];

/// Set-ups a run performs at most. `setup_s` is the median of those it
/// performs: a 40 ms set-up runs about 41 times, a 300 ms one 7 times.
pub const SETUPS: usize = 41;

/// Set-ups a run performs at least, unless [`RunSpec::setups`] is
/// smaller.
const MIN_SETUPS: usize = 5;

/// Set-up time, in seconds, after which no further set-up starts once
/// [`MIN_SETUPS`] are done.
const SETUP_SECONDS: f64 = 2.0;

/// Resident size of the benchmark's own logs is counted in whole pages.
const PAGE: u64 = 4096;

/// Time the client thread spends on one CPU before moving to the next
/// (see `cpus`) during set-ups and `suite`'s window: a 40 ms set-up or
/// `suite` pass spans two or three slices, so each runs on every CPU.
/// In an interleaved check against a pinned and a free client, `suite`
/// ran as fast rotating every 20 ms (+2 % throughput, within the
/// check's noise) and 2–6 % slower rotating every 5 ms.
const CPU_SLICE: Duration = Duration::from_millis(20);

/// The slice during the window of the workloads whose items take
/// 2–9 ms, so few items are moved part-way through. In the same check
/// a 5 ms slice cost `install` and `ota` 5–8 % of their throughput; at
/// 100 ms the three workloads were within 3 % of the pinned and free
/// clients.
const SHORT_ITEM_SLICE: Duration = Duration::from_millis(100);

/// The CPU slice of `workload`'s window.
fn window_slice(workload: &str) -> Duration {
    if workload == "suite" {
        CPU_SLICE
    } else {
        SHORT_ITEM_SLICE
    }
}

/// Latency samples reserved per mode: far more items than any workload
/// completes in a minute.
const LATENCY_SLOTS: usize = 1 << 23;

/// The window is cut into slices this long; each step belongs to the
/// slice it starts in.
const SLICE: Duration = Duration::from_millis(100);

/// Share of the window's slices, the fastest, that `throughput_per_s`
/// and `latency_p50_ms` of `workload` are taken over (see
/// [`quietest`]).
///
/// `install` and `ota` items are SHA-bound, and another tenant's work
/// on the same physical core slows them by about a third for a second
/// or so at a time. How much of a window it covers changes from run to
/// run, and over the whole window these two figures moved with that
/// share rather than with the program. Their fastest tenth is the
/// program with the least interference, as long as at least a tenth of
/// the window had none. `provision` and `suite` keep the whole window:
/// over their fastest tenth the two figures spread more between runs
/// than over the whole window (README, "Quiet slices").
fn quiet_share(workload: &str) -> f64 {
    match workload {
        "install" | "ota" => 0.1,
        _ => 1.0,
    }
}

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window (a traced run gives half to each
    /// mode).
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Stop after this many closed-loop steps per mode instead of after
    /// `seconds` (the self-tests use it to get repeatable item counts).
    pub max_steps: Option<u64>,
    /// Set-ups per run at most (see [`SETUPS`]): the first runs before
    /// the window, the rest after it.
    pub setups: usize,
}

/// Items one mode of the closed loop attempted.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every attempted item, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Items issued.
    pub attempted: u64,
    /// Items that failed or were refused.
    pub failed: u64,
    /// Bytes put on the wire, retransmissions and duplicates included.
    pub wire_bytes: u64,
    /// Wall time spent inside steps.
    pub busy: Duration,
    /// Closed-loop steps run.
    pub steps: u64,
    /// The window's slices, in order.
    pub slices: Vec<Slice>,
}

impl Window {
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Run one step that starts `at` into the window and add it to its
    /// slice.
    fn step(
        &mut self,
        at: Duration,
        f: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let (completed, logged) = (self.completed(), self.latencies_ns.len());
        let t0 = Instant::now();
        let outcome = f(self);
        let took = t0.elapsed();
        self.busy += took;
        self.steps += 1;
        let index = (at.as_nanos() / SLICE.as_nanos()) as u64;
        if self.slices.last().is_none_or(|s| s.index != index) {
            self.slices.push(Slice {
                index,
                items: logged..logged,
                ..Slice::default()
            });
        }
        let end = self.latencies_ns.len();
        let completed = self.completed() - completed;
        if let Some(slice) = self.slices.last_mut() {
            slice.busy += took;
            slice.completed += completed;
            slice.items.end = end;
        }
        outcome
    }

    /// Resident bytes of the latency log.
    fn log_bytes(&self) -> u64 {
        resident_bytes(self.latencies_ns.len() * std::mem::size_of::<u64>())
    }
}

/// Resident size of `bytes` written from the start of a fresh mapping.
fn resident_bytes(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE) * PAGE
}

/// Durations of named set-up phases, plus how many calls each covers.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    times: BTreeMap<&'static str, (Duration, u64)>,
}

impl Phases {
    /// Run `f` as `calls` calls of phase `name`.
    pub fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let slot = self.times.entry(name).or_default();
        slot.0 += t0.elapsed();
        slot.1 += calls;
        out
    }

    fn get(&self, name: &str) -> (Duration, u64) {
        self.times.get(name).copied().unwrap_or_default()
    }
}

/// Numbers a workload reads from the program's own counters after the
/// window (the daemon's pool and health ledger).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Resident provisioning workers.
    pub workers: u64,
    /// Frame buffers the daemon's pool ever allocated.
    pub buffers_created: u64,
    /// Devices the daemon reported failed.
    pub failed_items: u64,
    /// Submissions the daemon shed.
    pub sheds: u64,
    /// Packaging panics the daemon contained.
    pub panics: u64,
}

/// One workload after set-up: a closed loop plus its output checks.
pub trait Bench {
    /// Issue the next item (a whole wave for `provision`), wait for it,
    /// and check its output. `Err` is a wrong output and fails the run;
    /// a failed or refused operation is counted in `w` instead.
    fn step(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String>;

    /// Output checks that run once, after the window.
    fn verify(&mut self) -> Result<(), String>;

    /// The payload and segment length the crypto yardsticks run over.
    fn payload(&self) -> (&[u8], usize);

    /// Digest of the generated inputs.
    fn inputs_digest(&self) -> [u8; 32];

    /// The program's own counters, where a layer keeps any.
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// Resident bytes of logs the workload's checks grew during the
    /// window; they are the benchmark's memory, not the program's.
    fn log_bytes(&self) -> u64 {
        0
    }
}

/// Build a workload's inputs and state (one set-up).
pub fn setup(workload: &str, seed: u64, phases: &mut Phases) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "provision" => Box::new(provision::Provision::setup(seed, phases)?),
        "install" => Box::new(install::Install::setup(seed, phases)?),
        "ota" => Box::new(ota::Ota::setup(seed, phases)?),
        "suite" => Box::new(suite::Suite::setup(seed, phases)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Report {
    /// `false` when an output check failed.
    pub correct: bool,
    /// What the failing check saw.
    pub failure: Option<String>,
    /// Items attempted over every window of the run.
    pub attempted: u64,
    /// Items failed or refused over every window of the run.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Run context: engines, host, seed, sample counts.
    pub context: Vec<(&'static str, String)>,
    /// The spans of the traced window (empty when untraced).
    pub tracer: Tracer,
    /// Digest of the generated inputs, hex.
    pub inputs_digest: String,
}

impl Report {
    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The run context as one JSON object.
    pub fn context_line(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Run one invocation: a set-up, the measured window, the output
/// checks, the remaining set-ups and (traced) the per-layer analysis.
///
/// # Errors
///
/// Set-up failures. A wrong output is not an error: it comes back as a
/// report with `correct == false`.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let rotation = cpus::Rotation::start(CPU_SLICE);
    let mut setup_times = Vec::with_capacity(spec.setups);
    let mut phase_runs = Vec::with_capacity(spec.setups);
    let timed_setup = || {
        let mut phases = Phases::default();
        let t0 = Instant::now();
        let bench = setup(&spec.workload, spec.seed, &mut phases)?;
        Ok::<_, String>((bench, t0.elapsed(), phases))
    };
    // The window follows the first set-up; the others run after it, so
    // the heap the window starts from is the same in every run.
    let (mut bench, took, phases) = timed_setup()?;
    setup_times.push(took);
    phase_runs.push(phases);

    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Window::default(), Window::default());
    // Reserved address space is not resident until written, so this
    // only keeps reallocation copies out of the peak-RSS figure.
    plain.latencies_ns.reserve(LATENCY_SLOTS);
    traced.latencies_ns.reserve(LATENCY_SLOTS);
    // A traced run splits its window between the two modes, so it
    // takes as long as an untraced one.
    let per_mode = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    // The peak RSS covers the window: what set-up left resident counts,
    // its transients (such as 1024 fabricated devices) do not.
    reset_peak_rss()?;
    let rss_start = rss_mib()?;
    let slice = window_slice(&spec.workload);
    rotation.set_slice(slice);
    let t_window = Instant::now();
    let mut failure = loop {
        // A traced run alternates untraced and traced steps, so both
        // modes see the same host conditions; their throughput gap is
        // the tracing overhead.
        let use_trace = spec.trace && traced.steps < plain.steps;
        let w = if use_trace { &mut traced } else { &mut plain };
        tracer.set_on(use_trace);
        let outcome = w.step(t_window.elapsed(), |w| bench.step(w, &mut tracer));
        tracer.set_on(false);
        if let Err(e) = outcome {
            break Some(e);
        }
        let done = |w: &Window| match spec.max_steps {
            Some(n) => w.steps >= n,
            None => w.busy.as_secs_f64() >= per_mode,
        };
        if done(&plain) && (!spec.trace || done(&traced)) {
            break None;
        }
    };
    let window = t_window.elapsed();
    rotation.set_slice(CPU_SLICE);
    // The latency and check logs grow with the items completed; left
    // in, a faster program would read as a larger one.
    let log_mib =
        (plain.log_bytes() + traced.log_bytes() + bench.log_bytes()) as f64 / f64::from(1 << 20);
    let rss = peak_rss_mib()? - log_mib;
    if failure.is_none() {
        failure = bench.verify().err();
    }
    let counters = bench.counters();
    let yardsticks = if spec.trace {
        common::yardsticks(bench.payload())
    } else {
        (0.0, 0.0)
    };
    let inputs_digest = hex(&bench.inputs_digest());
    drop(bench);
    let more = |times: &[Duration]| {
        times.len() < spec.setups
            && (times.len() < MIN_SETUPS
                || times.iter().sum::<Duration>().as_secs_f64() < SETUP_SECONDS)
    };
    while more(&setup_times) {
        let (bench, took, phases) = timed_setup()?;
        drop(bench);
        setup_times.push(took);
        phase_runs.push(phases);
    }
    let cpus_rotated = rotation.cpus();
    drop(rotation);

    let median_phase = |name: &str| {
        let times: Vec<Duration> = phase_runs.iter().map(|p| p.get(name).0).collect();
        median_secs(&times) * 1e3
    };
    let per_call = |name: &str| {
        let times: Vec<Duration> = phase_runs
            .iter()
            .map(|p| match p.get(name) {
                (_, 0) => Duration::ZERO,
                (d, n) => d / n as u32,
            })
            .collect();
        median_secs(&times) * 1e3
    };

    let mut sorted = plain.latencies_ns.clone();
    sorted.sort_unstable();
    let p90 = if sorted.is_empty() {
        0
    } else {
        quantile(&sorted, 0.9)
    };
    let beyond_p90 = sorted.iter().filter(|&&l| l > p90).count();
    let quiet = quietest(&plain.slices, quiet_share(&spec.workload));
    let mut quiet_latencies: Vec<u64> = quiet
        .iter()
        .flat_map(|s| &plain.latencies_ns[s.items.clone()])
        .copied()
        .collect();
    quiet_latencies.sort_unstable();
    let p50 = if quiet_latencies.is_empty() {
        0
    } else {
        quantile(&quiet_latencies, 0.5)
    };
    let quiet_busy: Duration = quiet.iter().map(|s| s.busy).sum();
    let quiet_completed: u64 = quiet.iter().map(|s| s.completed).sum();
    let completed = plain.completed();
    let metrics = if spec.trace {
        layer_metrics(
            counters,
            yardsticks,
            &tracer,
            &plain,
            &traced,
            [
                median_phase("enroll"),
                median_phase("compile"),
                median_phase("prepare") + median_phase("package"),
                median_phase("warmup"),
            ],
            [per_call("prepare"), per_call("prepare_delta")],
        )
    } else {
        vec![
            Metric {
                name: "throughput_per_s",
                value: ratio(quiet_completed as f64, quiet_busy.as_secs_f64()),
                unit: "items/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: p50 as f64 / 1e6,
                unit: "ms",
            },
            Metric {
                name: "latency_p90_ms",
                value: p90 as f64 / 1e6,
                unit: "ms",
            },
            Metric {
                name: "wire_bytes_per_item",
                value: ratio(plain.wire_bytes as f64, completed as f64),
                unit: "bytes",
            },
            Metric {
                name: "peak_rss_mib",
                value: rss,
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: median_secs(&setup_times),
                unit: "s",
            },
            Metric {
                name: "success_rate",
                value: ratio(completed as f64, plain.attempted as f64),
                unit: "ratio",
            },
        ]
    };

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let setup_list: Vec<String> = setup_times
        .iter()
        .map(|d| json_num(d.as_secs_f64()))
        .collect();
    let context = vec![
        ("workload", json_str(&spec.workload)),
        ("seed", spec.seed.to_string()),
        ("trace", spec.trace.to_string()),
        (
            "hash_engine",
            json_str(eric_crypto::sha256::multibuffer::active().name()),
        ),
        (
            "compress_engine",
            json_str(eric_crypto::sha256::active_compress().name()),
        ),
        (
            "sim_engine",
            json_str(eric_sim::soc::EngineKind::from_env().name()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        (
            "error_rate",
            json_num(ratio(failed as f64, attempted as f64)),
        ),
        ("window_s", json_num(window.as_secs_f64())),
        ("rss_at_window_start_mib", json_num(rss_start)),
        ("log_mib_excluded_from_rss", json_num(log_mib)),
        ("cpus_rotated", cpus_rotated.to_string()),
        ("setup_cpu_slice_ms", CPU_SLICE.as_millis().to_string()),
        ("window_cpu_slice_ms", slice.as_millis().to_string()),
        ("untraced_items", plain.attempted.to_string()),
        (
            "window_throughput_per_s",
            json_num(completed as f64 / window.as_secs_f64()),
        ),
        ("quiet_share", json_num(quiet_share(&spec.workload))),
        ("quiet_slice_ms", SLICE.as_millis().to_string()),
        ("quiet_slices", quiet.len().to_string()),
        ("window_slices", plain.slices.len().to_string()),
        ("p50_samples", quiet_latencies.len().to_string()),
        ("latency_samples", sorted.len().to_string()),
        ("samples_beyond_p90", beyond_p90.to_string()),
        ("traced_items", tracer.items().to_string()),
        (
            "traced_item_ms",
            json_num(ratio(ms(tracer.total(trace::ITEM)), tracer.items() as f64)),
        ),
        ("spans", tracer.spans().count().to_string()),
        ("setup_runs_s", format!("[{}]", setup_list.join(", "))),
        ("inputs_digest", json_str(&inputs_digest)),
    ];
    Ok(Report {
        correct: failure.is_none(),
        failure,
        attempted,
        failed,
        metrics,
        context,
        tracer,
        inputs_digest,
    })
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// A layer the workload bypasses reads 0.
fn layer_metrics(
    c: Counters,
    (leaf_hash_mib_s, xor_mib_s): (f64, f64),
    tr: &Tracer,
    plain: &Window,
    traced: &Window,
    setup_ms: [f64; 4],
    prepare_ms: [f64; 2],
) -> Vec<Metric> {
    let items = tr.items() as f64;
    let per_item_ms = |name: &str| ratio(ms(tr.total(name)), items);
    let per_call_ms = |name: &str| ratio(ms(tr.total(name)), tr.calls(name) as f64);
    let count = |name: &str| tr.counter(name) as f64;
    let mib_s = |bytes: f64, d: Duration| ratio(bytes / f64::from(1 << 20), d.as_secs_f64());
    let tput = |w: &Window| ratio(w.completed() as f64, w.busy.as_secs_f64());

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "provisioning.submit_ms",
            per_call_ms("provisioning.submit"),
            "ms",
        ),
        m(
            "provisioning.queue_wait_ms",
            per_call_ms("provisioning.queue_wait"),
            "ms",
        ),
        m(
            "provisioning.worker_busy_us_per_item",
            per_call_ms("provisioning.worker") * 1e3,
            "us",
        ),
        m(
            "provisioning.worker_utilization",
            ratio(
                tr.total("provisioning.worker").as_secs_f64(),
                c.workers as f64 * traced.busy.as_secs_f64(),
            ),
            "ratio",
        ),
        m(
            "provisioning.cache_hit_ratio",
            ratio(
                count("provisioning.cache_hits"),
                count("provisioning.submits"),
            ),
            "ratio",
        ),
        m(
            "provisioning.buffers_created",
            c.buffers_created as f64,
            "count",
        ),
        m("provisioning.failed_items", c.failed_items as f64, "count"),
        m("provisioning.sheds", c.sheds as f64, "count"),
        m("provisioning.panics", c.panics as f64, "count"),
        m(
            "source.package_mib_s",
            mib_s(
                count("provisioning.frame_bytes"),
                tr.total("provisioning.worker"),
            ),
            "MiB/s",
        ),
        m(
            "source.package_delta_us",
            per_item_ms("source.package_delta") * 1e3,
            "us",
        ),
        m("source.prepare_ms", prepare_ms[0], "ms"),
        m("source.prepare_delta_ms", prepare_ms[1], "ms"),
        m("package.parse_us", per_item_ms("package.parse") * 1e3, "us"),
        m(
            "delivery.self_us",
            ratio(ms(tr.self_time("delivery.deliver")) * 1e3, items),
            "us",
        ),
        m(
            "delivery.attempts_per_item",
            ratio(count("delivery.attempts"), items),
            "count",
        ),
        m(
            "delivery.retries_per_item",
            ratio(count("delivery.retries"), items),
            "count",
        ),
        m(
            "delivery.wire_overhead",
            ratio(count("delivery.wire_bytes"), count("delivery.frame_bytes")),
            "ratio",
        ),
        m(
            "delivery.virtual_ms_per_item",
            ratio(count("delivery.virtual_ns") / 1e6, items),
            "ms",
        ),
        m("delivery.exhausted", count("delivery.exhausted"), "count"),
        m("hde.install_ms", per_item_ms("hde.install"), "ms"),
        m(
            "hde.install_mib_s",
            mib_s(count("hde.install_bytes"), tr.total("hde.install")),
            "MiB/s",
        ),
        m("hde.apply_delta_ms", per_item_ms("hde.apply_delta"), "ms"),
        m("hde.rejected_attempts", count("hde.rejected"), "count"),
        m("sim.run_ms", per_item_ms("sim.run"), "ms"),
        m(
            "sim.mips",
            ratio(
                count("sim.instructions") / 1e6,
                tr.total("sim.run").as_secs_f64(),
            ),
            "MIPS",
        ),
        m(
            "sim.instructions_per_item",
            ratio(count("sim.instructions"), items),
            "count",
        ),
        m(
            "sim.modeled_cycles_per_item",
            ratio(count("sim.cycles"), items),
            "count",
        ),
        m("crypto.leaf_hash_mib_s", leaf_hash_mib_s, "MiB/s"),
        m("crypto.xor_mib_s", xor_mib_s, "MiB/s"),
        m("setup.enroll_ms", setup_ms[0], "ms"),
        m("setup.compile_ms", setup_ms[1], "ms"),
        m("setup.package_ms", setup_ms[2], "ms"),
        m("setup.warmup_ms", setup_ms[3], "ms"),
        m(
            "trace.overhead_pct",
            100.0 * ratio(tput(plain) - tput(traced), tput(plain)),
            "%",
        ),
        m("trace.unattributed_pct", tr.unattributed_pct(), "%"),
    ]
}
