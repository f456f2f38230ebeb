//! Simulator dispatch — host-side throughput of the two execution
//! engines (step interpreter, basic-block dispatch) over the full
//! workload suite, plus the threaded fleet runner.
//!
//! The modeled counts are asserted bit-identical across engines; only
//! host wall time may differ. Outside smoke mode the experiment
//! enforces the block-vs-step ≥5× floor.

use eric_bench::output::{banner, write_bench_json, write_json};
use eric_bench::sim_dispatch;

fn main() {
    banner("Simulator dispatch: step oracle vs block engine");
    let r = sim_dispatch();
    println!(
        "{:<8} {:>10} {:>9} {:>14} {:>15} {:>9}",
        "engine", "wall ms", "MIPS", "instructions", "cycles", "speedup"
    );
    for row in &r.rows {
        println!(
            "{:<8} {:>10.2} {:>9.2} {:>14} {:>15} {:>8.2}x",
            row.engine, row.wall_ms, row.mips, row.instructions, row.cycles, row.speedup
        );
    }
    println!(
        "\nfleet runner: {} workers, {:.2} ms ({:.2}x vs sequential block engine)",
        r.batch_workers, r.batch_wall_ms, r.batch_speedup
    );
    println!(
        "block vs step: {:.2}x across {} workloads (modeled counts identical)",
        r.block_speedup, r.workloads
    );
    write_json("sim_dispatch", &r);
    write_bench_json("sim_dispatch");
}
