//! Cross-engine cycle-model pin: every workload must produce a
//! bit-identical [`RunOutcome`] on both execution tiers (the step
//! oracle and the block engine), and the step oracle's counters are
//! pinned against a checked-in golden file so accidental timing-model
//! drift fails loudly.
//!
//! Regenerate the goldens (after an *intentional* model change) with:
//! `ERIC_UPDATE_GOLDENS=1 cargo test --test engine_tiers`.

use eric::asm::{assemble, AsmOptions};
use eric::sim::{BatchJob, BatchRunner, EngineKind, RunOutcome, Soc, SocConfig};
use eric::workloads::all;

const FUEL: u64 = 200_000_000;
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_cycles.tsv");

fn run_workload(src: &str, engine: EngineKind) -> RunOutcome {
    let image = assemble(src, &AsmOptions::default()).unwrap_or_else(|e| panic!("{e}"));
    let mut soc = Soc::new(SocConfig {
        engine,
        ..SocConfig::default()
    });
    soc.load_image(&image).unwrap();
    soc.run(FUEL).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn all_tiers_bit_identical_on_every_workload() {
    for w in all() {
        let src = (w.source)(w.smoke_scale);
        let step = run_workload(&src, EngineKind::Step);
        assert_eq!(
            step.exit_code,
            (w.golden)(w.smoke_scale),
            "{}: wrong result on the step oracle",
            w.name
        );
        let block = run_workload(&src, EngineKind::Block);
        assert_eq!(block, step, "{}: block engine diverged from step", w.name);
    }
}

#[test]
fn step_engine_matches_pinned_goldens() {
    let mut lines = vec![
        "# name\tscale\texit\tinstructions\tcycles\ticache_hits\ticache_misses\tdcache_hits\tdcache_misses".to_string(),
    ];
    for w in all() {
        let out = run_workload(&(w.source)(w.smoke_scale), EngineKind::Step);
        lines.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            w.name,
            w.smoke_scale,
            out.exit_code,
            out.instructions,
            out.cycles,
            out.icache.hits,
            out.icache.misses,
            out.dcache.hits,
            out.dcache.misses,
        ));
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("ERIC_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with ERIC_UPDATE_GOLDENS=1");
    assert_eq!(
        actual, golden,
        "cycle model drifted from {GOLDEN_PATH}; if intentional, \
         regenerate with ERIC_UPDATE_GOLDENS=1"
    );
}

#[test]
fn batch_runner_agrees_with_sequential_runs() {
    // The whole suite as one threaded batch, mixed engines: outcomes
    // must match per-workload sequential runs exactly, in job order.
    let workloads = all();
    let jobs: Vec<BatchJob> = workloads
        .iter()
        .zip([EngineKind::Step, EngineKind::Block].into_iter().cycle())
        .map(|(w, engine)| BatchJob {
            name: w.name.to_string(),
            image: assemble(&(w.source)(w.smoke_scale), &AsmOptions::default()).unwrap(),
            config: SocConfig {
                engine,
                ..SocConfig::default()
            },
            fuel: FUEL,
        })
        .collect();
    let results = BatchRunner::new().run(&jobs);
    for (w, result) in workloads.iter().zip(&results) {
        assert_eq!(result.name, w.name);
        let out = result.outcome.as_ref().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.exit_code, (w.golden)(w.smoke_scale), "{}", w.name);
    }
}
