//! Provisioning fan-out scaling: packages/sec vs worker count for a
//! 16-device batch off one cached compile (the ROADMAP's
//! multi-device batching milestone), plus the sustained-throughput
//! comparison of the resident daemon (zero-copy frames + prepared
//! image cache + buffer recycling) against the clone-per-device
//! baseline.
//!
//! Asserts three floors. The first two self-skip on hosts without the
//! hardware threads to scale onto:
//!
//! * fan-out: ≥ 2× packages/sec at 4 workers vs 1 worker;
//! * sustained: the daemon pipeline ≥ 2× the clone-per-device baseline
//!   at ≥ 4 workers (`ERIC_PROVISION_WORKERS` selects the worker
//!   count, default 4);
//! * warm submit: the fastest cache-hit `submit` takes at most ⅓ of
//!   the cold one that prepared the image, at any thread count.

use eric_bench::output::{banner, smoke_mode, write_bench_json, write_json};
use eric_bench::{provisioning_fanout, provisioning_sustained};

const DEVICES: usize = 16;
const DATA_BYTES: usize = 256 << 10;
const SMOKE_DATA_BYTES: usize = 16 << 10;
const WAVES: usize = 6;
const SMOKE_WAVES: usize = 2;

fn provision_workers() -> usize {
    std::env::var("ERIC_PROVISION_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(4)
}

fn main() {
    banner("Provisioning fan-out: packages/sec vs workers (16-device batch)");
    let data_bytes = if smoke_mode() {
        SMOKE_DATA_BYTES
    } else {
        DATA_BYTES
    };
    let report = provisioning_fanout(DEVICES, data_bytes, &[1, 2, 4, 8]);
    println!(
        "payload {} KiB/package, one-time compile+prepare {:.2} ms, {} host threads\n",
        report.payload_bytes >> 10,
        report.prepare_ms,
        report.host_threads
    );
    println!(
        "{:<8} {:>12} {:>16} {:>9}",
        "workers", "fanout (ms)", "packages/sec", "speedup"
    );
    for r in &report.rows {
        println!(
            "{:<8} {:>12.2} {:>16.1} {:>8.2}x",
            r.workers, r.fanout_ms, r.packages_per_sec, r.speedup
        );
    }

    let four = report
        .rows
        .iter()
        .find(|r| r.workers == 4)
        .expect("4-worker row present");
    if smoke_mode() {
        println!("\nsmoke mode: floor assertion skipped");
    } else if report.host_threads >= 4 {
        assert!(
            four.speedup >= 2.0,
            "4-worker fan-out must be >= 2x the 1-worker throughput on a \
             16-device batch, measured {:.2}x",
            four.speedup
        );
        println!(
            "\nfan-out scaling floor OK: {:.2}x at 4 workers >= 2x",
            four.speedup
        );
    } else {
        println!(
            "\nnote: host has {} thread(s); the >=2x @ 4-worker floor needs 4 \
             hardware threads, skipping the assertion (measured {:.2}x)",
            report.host_threads, four.speedup
        );
    }

    let workers = provision_workers();
    let waves = if smoke_mode() { SMOKE_WAVES } else { WAVES };
    banner(&format!(
        "Sustained provisioning: daemon vs clone-per-device ({workers} workers, {waves} waves)"
    ));
    let sustained = provisioning_sustained(DEVICES, data_bytes, waves, workers);
    println!(
        "frame {} KiB/package, {} cache hits, {} transmit buffers ever allocated\n",
        sustained.frame_bytes >> 10,
        sustained.cache_hits,
        sustained.buffers_created
    );
    println!(
        "{:<6} {:>10} {:>16} {:>14} {:>10} {:>6}",
        "wave", "wave (ms)", "packages/sec", "rolling pps", "MiB/s", "cache"
    );
    for r in &sustained.rows {
        println!(
            "{:<6} {:>10.2} {:>16.1} {:>14.1} {:>10.1} {:>6}",
            r.wave,
            r.wave_ms,
            r.packages_per_sec,
            r.rolling_pps,
            r.mib_s,
            if r.cache_hit { "hit" } else { "miss" }
        );
    }
    println!(
        "\nbaseline {:.1} packages/sec, sustained {:.1} packages/sec ({:.1} MiB/s): {:.2}x",
        sustained.baseline_pps,
        sustained.sustained_pps,
        sustained.sustained_mib_s,
        sustained.speedup
    );
    let submit_ratio = sustained.warm_submit_ms / sustained.cold_submit_ms;
    println!(
        "submit: cold {:.3} ms, best warm {:.3} ms ({:.3} of cold)",
        sustained.cold_submit_ms, sustained.warm_submit_ms, submit_ratio
    );

    if smoke_mode() {
        println!("smoke mode: sustained floor assertion skipped");
    } else if workers >= 4 && sustained.host_threads >= 4 {
        assert!(
            sustained.speedup >= 2.0,
            "sustained daemon throughput must be >= 2x the clone-per-device \
             baseline at {workers} workers, measured {:.2}x",
            sustained.speedup
        );
        println!(
            "sustained throughput floor OK: {:.2}x >= 2x at {workers} workers",
            sustained.speedup
        );
    } else {
        println!(
            "note: floor needs >= 4 workers on >= 4 host threads (have {} on {}), \
             skipping the assertion (measured {:.2}x)",
            workers, sustained.host_threads, sustained.speedup
        );
    }

    if smoke_mode() {
        println!("smoke mode: warm-submit floor assertion skipped");
    } else {
        assert!(
            submit_ratio <= 1.0 / 3.0,
            "a warm (cache-hit) submit must take at most 1/3 of the cold one, \
             measured {:.3} ms warm vs {:.3} ms cold",
            sustained.warm_submit_ms,
            sustained.cold_submit_ms
        );
        println!("warm-submit floor OK: {submit_ratio:.3} of cold <= 1/3");
    }

    write_json("provisioning_fanout", &report);
    write_json("provisioning_sustained", &sustained);
    write_bench_json("provisioning_fanout");
}
