//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! [--trace <0|1>]`. Every flag but `--trace` (default 0) is required.
//!
//! Prints the run context as one JSON line, then, as the last line,
//! the result object. Exits 0 when every output check passed, 1 when
//! one failed, 2 on bad arguments or a failed set-up.

use perfbench::{run, RunSpec, SETUPS, WORKLOADS};
use std::process::ExitCode;

/// Spans written to the trace file at most (the per-layer metrics use
/// every span; the file is for reading one run by eye).
const TRACE_FILE_SPANS: usize = 100_000;

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .ok_or_else(|| format!("--workload must be one of {WORKLOADS:?}"))?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds is required and must be positive")?;
    Ok(RunSpec {
        workload,
        seed,
        seconds,
        trace,
        max_steps: None,
        setups: SETUPS,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", spec.workload);
            return ExitCode::from(2);
        }
    };
    if spec.trace {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("perfbench-traces")))
            .map(|dir| dir.join(format!("{}.tsv", spec.workload)));
        if let Some(path) = path {
            match report.tracer.write_tsv(&path, TRACE_FILE_SPANS) {
                Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        }
    }
    if let Some(failure) = &report.failure {
        eprintln!("perfbench: output check failed: {failure}");
    }
    println!("{}", report.context_line());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
