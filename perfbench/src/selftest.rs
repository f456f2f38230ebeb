//! Self-tests: every workload prints its metrics, spans nest, seeds
//! behave, and each output check rejects a wrong output.

use crate::stats::median_secs;
use crate::trace::{Tracer, ITEM};
use crate::{install, ota, provision, run, setup, suite, Bench, Phases, Report, RunSpec, Window};
use crate::{MIN_SETUPS, SETUPS, WORKLOADS};
use std::time::Duration;

/// Closed-loop steps per mode that keep each test short.
fn short_steps(workload: &str) -> u64 {
    match workload {
        "provision" => 3,
        "suite" => 2,
        _ => 24,
    }
}

fn short_run(workload: &str, seed: u64, trace: bool) -> Report {
    let spec = RunSpec {
        workload: workload.into(),
        seed,
        seconds: 60.0,
        trace,
        max_steps: Some(short_steps(workload)),
        setups: 1,
    };
    run(&spec).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name closes");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .expect("unit present")
                .0;
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_the_end_to_end_metrics_with_units() {
    let expected = declared("end_to_end");
    assert_eq!(expected.len(), 7);
    for w in WORKLOADS {
        let report = short_run(w, 11, false);
        assert!(report.correct, "{w}: {:?}", report.failure);
        assert_eq!(report.failed, 0, "{w}");
        assert_eq!(printed(&report), expected, "{w}");
        let line = report.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for (name, unit) in &expected {
            let value = report.metric(name).unwrap();
            assert!(value.is_finite() && value > 0.0, "{w}: {name} = {value}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"}}")), "{line}");
        }
        let context = report.context_line();
        for key in [
            "hash_engine",
            "compress_engine",
            "sim_engine",
            "nproc",
            "seed",
            "attempted",
            "failed",
            "error_rate",
            "p50_samples",
            "latency_samples",
            "samples_beyond_p90",
            "window_throughput_per_s",
        ] {
            assert!(context.contains(&format!("\"{key}\": ")), "{w}: {key}");
        }
    }
}

/// Share of traced item time spent in spans named `name`.
fn share(tr: &Tracer, name: &str) -> f64 {
    tr.total(name).as_secs_f64() / tr.total(ITEM).as_secs_f64()
}

#[test]
fn traced_runs_print_every_layer_metric_and_their_spans_nest() {
    let expected = declared("per_layer");
    for w in WORKLOADS {
        let report = short_run(w, 12, true);
        assert!(report.correct, "{w}: {:?}", report.failure);
        assert_eq!(printed(&report), expected, "{w}");
        // Traced and untraced steps alternate, one each per pair.
        assert_eq!(report.tracer.items() * 2, report.attempted, "{w}");
        report.tracer.check_nesting().unwrap();
        let tr = &report.tracer;
        match w {
            "provision" => {
                let device = tr.spans().find(|s| {
                    s.name.starts_with("hde.")
                        || s.name.starts_with("sim.")
                        || s.name == "package.parse"
                });
                assert_eq!(device, None, "device code ran in the provision window");
                assert!(tr.calls("provisioning.worker") > 0);
            }
            "install" => assert!(share(tr, "hde.install") > 0.5, "hde share of install"),
            "ota" => assert!(share(tr, "hde.apply_delta") > 0.5, "hde share of ota"),
            "suite" => assert!(share(tr, "sim.run") > 0.5, "sim share of suite"),
            _ => unreachable!(),
        }
    }
}

#[test]
fn the_same_seed_reproduces_the_deterministic_numbers() {
    for w in WORKLOADS {
        let a = short_run(w, 13, false);
        let b = short_run(w, 13, false);
        assert_eq!(
            a.metric("wire_bytes_per_item"),
            b.metric("wire_bytes_per_item"),
            "{w}"
        );
        assert_eq!(a.inputs_digest, b.inputs_digest, "{w}");
    }
    let ota = [short_run("ota", 13, true), short_run("ota", 13, true)];
    assert_eq!(
        ota[0].metric("delivery.attempts_per_item"),
        ota[1].metric("delivery.attempts_per_item")
    );
    let suite = [short_run("suite", 13, true), short_run("suite", 13, true)];
    for name in ["sim.instructions_per_item", "sim.modeled_cycles_per_item"] {
        let value = suite[0].metric(name).unwrap();
        assert!(value > 0.0, "{name}");
        assert_eq!(Some(value), suite[1].metric(name), "{name}");
    }
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    for w in WORKLOADS {
        let digest = |seed| {
            setup(w, seed, &mut Phases::default())
                .unwrap_or_else(|e| panic!("{w}: {e}"))
                .inputs_digest()
        };
        assert_ne!(digest(21), digest(22), "{w}");
    }
}

/// Run `steps` untraced steps, failing on any wrong output.
fn drive(bench: &mut dyn Bench, steps: usize) -> Result<Window, String> {
    let mut w = Window::default();
    let mut tr = Tracer::new();
    for _ in 0..steps {
        bench.step(&mut w, &mut tr)?;
    }
    Ok(w)
}

#[test]
fn a_flipped_byte_in_a_sampled_frame_fails_the_check() {
    for byte in [0, 97, 1 << 19] {
        let mut bench = provision::Provision::setup(31, &mut Phases::default()).unwrap();
        drive(&mut bench, 2).unwrap();
        bench.verify().expect("the untouched samples pass");
        bench.corrupt_sample(byte);
        assert!(
            bench.verify().is_err(),
            "flip at byte {byte} went unnoticed"
        );
    }
}

#[test]
fn a_wrong_expected_fingerprint_fails_the_check() {
    let wrong = eric_crypto::sha256::sha256(b"not the release");
    let mut bench = install::Install::setup(32, &mut Phases::default()).unwrap();
    drive(&mut bench, 3).unwrap();
    bench.set_expected(wrong);
    assert!(drive(&mut bench, 1).is_err());

    let mut bench = ota::Ota::setup(32, &mut Phases::default()).unwrap();
    for release in 0..8 {
        bench.set_expected(release, wrong);
    }
    assert!(drive(&mut bench, 1).is_err());
}

#[test]
fn a_wrong_golden_exit_code_fails_the_check() {
    let mut bench = suite::Suite::setup(33, &mut Phases::default()).unwrap();
    drive(&mut bench, 1).unwrap();
    bench.corrupt_golden(4);
    assert!(drive(&mut bench, 1).is_err());
}

#[test]
fn setup_time_is_the_median_of_several_setups() {
    let spec = RunSpec {
        workload: "suite".into(),
        seed: 5,
        seconds: 60.0,
        trace: false,
        max_steps: Some(1),
        setups: SETUPS,
    };
    let report = run(&spec).unwrap();
    let (_, runs) = report
        .context
        .iter()
        .find(|(k, _)| *k == "setup_runs_s")
        .expect("set-up times in the context");
    let runs: Vec<Duration> = runs
        .trim_matches(['[', ']'])
        .split(", ")
        .map(|s| Duration::from_secs_f64(s.parse().unwrap()))
        .collect();
    assert!((MIN_SETUPS..=SETUPS).contains(&runs.len()), "{runs:?}");
    assert_eq!(report.metric("setup_s"), Some(median_secs(&runs)));
}
