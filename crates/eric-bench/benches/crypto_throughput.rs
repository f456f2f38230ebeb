//! Crypto-primitive microbenchmark (cipher-choice ablation: the
//! paper's pluggable encryption function), comparing the block
//! keystream path against the per-byte reference the decrypt hot loop
//! used before the run-based redesign, the multi-buffer SHA-CTR fill
//! against the single-block scalar compress it replaced, and batched
//! leaf hashing against one segment at a time.

use eric_bench::output::{banner, smoke_mode, write_bench_json, write_json};
use eric_bench::{crypto_throughput, CipherRow};

fn main() {
    banner("Crypto throughput: block keystream path vs per-byte oracle (1 MiB)");
    let report = crypto_throughput();
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "cipher", "block (MiB/s)", "per-byte (MiB/s)", "speedup"
    );
    for r in &report.rows {
        println!(
            "{:<10} {:>16.1} {:>16.1} {:>9.1}x",
            r.cipher, r.block_mib_s, r.bytewise_mib_s, r.speedup
        );
    }
    println!("{:<10} {:>16.1}", "sha-256", report.sha256_mib_s);
    println!("\nper-byte = one virtual keystream_byte call per payload byte (the");
    println!("pre-refactor decrypt shape); block = fill_keystream + slice XOR.");

    println!("\nsha-ctr fill, hash engine = {}:", report.hash_engine);
    println!(
        "{:<26} {:>16}",
        "multi-buffer fill (MiB/s)", "scalar fill (MiB/s)"
    );
    println!(
        "{:<26.1} {:>16.1}   ({:.1}x)",
        report.shactr_fill_mib_s, report.shactr_scalar_fill_mib_s, report.shactr_fill_speedup
    );
    println!("scalar = one software Sha256 chain per 32-byte counter block (the");
    println!("shape fill_keystream had before any hash-engine work).");

    println!(
        "\nsingle-stream compress (one 1 MiB Sha256 chain), active engine = {}:",
        report.compress_engine
    );
    match (
        report.singlestream_shani_mib_s,
        report.singlestream_shani_speedup,
    ) {
        (Some(shani), Some(speedup)) => {
            println!(
                "{:<26} {:>16}",
                "sha-ni chain (MiB/s)", "scalar chain (MiB/s)"
            );
            println!(
                "{:<26.1} {:>16.1}   ({:.1}x)",
                shani, report.singlestream_scalar_mib_s, speedup
            );
        }
        _ => println!(
            "no SHA-NI on this host; scalar chain {:.1} MiB/s",
            report.singlestream_scalar_mib_s
        ),
    }
    println!("this is the tier the v1 signature chain, the streaming hasher, and");
    println!("the Merkle fold ride — sequential work no multi-buffer width reaches.");

    println!(
        "\nleaf hashing (1 MiB in 64 KiB segments), hash engine = {}:",
        report.hash_engine
    );
    println!(
        "{:<26} {:>16}",
        "batch leaves (MiB/s)", "one at a time (MiB/s)"
    );
    println!(
        "{:<26.1} {:>16.1}   ({:.2}x, median of alternating rounds)",
        report.leaf_hash_batch_mib_s,
        report.leaf_hash_one_at_a_time_mib_s,
        report.leaf_hash_batch_speedup
    );
    println!("batch = leaf_digests_batch on the multi-buffer engine (on sha-ni, two");
    println!("blocks per kernel call); one at a time = leaf_digest per segment on the");
    println!("single-stream engine.");

    let xor: &CipherRow = report
        .rows
        .iter()
        .find(|r| r.cipher == "xor")
        .expect("xor row present");
    if smoke_mode() {
        println!("smoke mode: floor assertions skipped");
    } else {
        assert!(
            xor.speedup >= 5.0,
            "block path must be >= 5x the per-byte reference for the XOR cipher \
             on a 1 MiB payload, measured {:.1}x",
            xor.speedup
        );
        println!(
            "block-vs-byte floor OK: xor speedup {:.1}x >= 5x",
            xor.speedup
        );
        assert!(
            report.shactr_fill_speedup >= 2.0,
            "multi-buffer fill must be >= 2x the single-block scalar compress \
             path on a 1 MiB keystream, measured {:.1}x on the {} engine",
            report.shactr_fill_speedup,
            report.hash_engine
        );
        println!(
            "multi-buffer floor OK: sha-ctr fill speedup {:.1}x >= 2x ({} engine)",
            report.shactr_fill_speedup, report.hash_engine
        );
        match report.singlestream_shani_speedup {
            Some(speedup) => {
                assert!(
                    speedup >= 1.5,
                    "the SHA-NI single-stream compress must be >= 1.5x the scalar \
                     compress on a 1 MiB chain, measured {speedup:.1}x"
                );
                println!("single-stream floor OK: sha-ni speedup {speedup:.1}x >= 1.5x");
            }
            None => println!("single-stream floor skipped: no SHA-NI on this host"),
        }
        if report.hash_engine == "sha-ni" {
            assert!(
                report.leaf_hash_batch_speedup >= 1.1,
                "batched leaf hashing (two-way SHA-NI kernel) must be >= 1.1x one \
                 segment at a time on 1 MiB, measured {:.2}x (median of rounds)",
                report.leaf_hash_batch_speedup
            );
            println!(
                "two-way leaf-hash floor OK: batch {:.2}x >= 1.1x one at a time",
                report.leaf_hash_batch_speedup
            );
        } else {
            println!(
                "two-way leaf-hash floor skipped: active hash engine is {}, not sha-ni",
                report.hash_engine
            );
        }
    }

    write_json("crypto_throughput", &report);
    write_bench_json("crypto_throughput");
}
