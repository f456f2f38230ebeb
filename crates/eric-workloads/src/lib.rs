#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! MiBench-analog benchmark workloads for ERIC.
//!
//! The paper evaluates with MiBench programs "of different sizes ...
//! since the framework we proposed is based on iterations on the
//! program and is directly related to the program size in memory"
//! (§IV). MiBench itself is C code compiled with the authors' LLVM
//! port; this suite substitutes ten hand-written RISC-V assembly
//! programs covering the same categories (automotive, network,
//! security, office/string processing), each paired with a *golden
//! model* — the same computation in Rust — whose result the program's
//! exit code must reproduce exactly. That pairing makes every workload
//! double as an architectural correctness test of the simulator.
//!
//! Inputs are generated from a deterministic 31-bit LCG shared between
//! the assembly generator and the golden model, and embedded in the
//! program's `.data` section (MiBench ships input files; ERIC programs
//! carry their inputs, which is also what makes package size vary —
//! exactly what Figures 5–7 sweep).
//!
//! # Example
//!
//! ```rust
//! use eric_workloads::all;
//! use eric_asm::{assemble, AsmOptions};
//! use eric_sim::soc::{Soc, SocConfig};
//!
//! let workload = &all()[0];
//! let scale = workload.smoke_scale;
//! let image = assemble(&(workload.source)(scale), &AsmOptions::default()).unwrap();
//! let mut soc = Soc::new(SocConfig::default());
//! soc.load_image(&image).unwrap();
//! let out = soc.run(200_000_000).unwrap();
//! assert_eq!(out.exit_code, (workload.golden)(scale));
//! ```

pub mod lcg;
pub mod programs;

/// One benchmark workload: a program generator plus its golden model.
#[derive(Clone)]
pub struct Workload {
    /// Short name (matches the MiBench analog).
    pub name: &'static str,
    /// MiBench category this stands in for.
    pub category: &'static str,
    /// Generate the assembly source at a given scale.
    pub source: fn(u32) -> String,
    /// The expected exit code at that scale (Rust golden model).
    pub golden: fn(u32) -> i64,
    /// Scale used by the paper-figure benches (sized so the HDE load
    /// overhead lands in Figure 7's regime).
    pub default_scale: u32,
    /// Small scale for fast unit/integration tests.
    pub smoke_scale: u32,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload {{ {} ({}) }}", self.name, self.category)
    }
}

/// The full suite, in canonical order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "basicmath",
            category: "automotive",
            source: programs::basicmath::source,
            golden: programs::basicmath::golden,
            default_scale: 600,
            smoke_scale: 40,
        },
        Workload {
            name: "bitcount",
            category: "automotive",
            source: programs::bitcount::source,
            golden: programs::bitcount::golden,
            default_scale: 1800,
            smoke_scale: 64,
        },
        Workload {
            name: "qsort",
            category: "automotive",
            source: programs::qsort::source,
            golden: programs::qsort::golden,
            default_scale: 1400,
            smoke_scale: 48,
        },
        Workload {
            name: "susan",
            category: "automotive",
            source: programs::susan::source,
            golden: programs::susan::golden,
            default_scale: 72,
            smoke_scale: 12,
        },
        Workload {
            name: "dijkstra",
            category: "network",
            source: programs::dijkstra::source,
            golden: programs::dijkstra::golden,
            default_scale: 56,
            smoke_scale: 10,
        },
        Workload {
            name: "crc32",
            category: "telecomm",
            source: programs::crc32::source,
            golden: programs::crc32::golden,
            default_scale: 2600,
            smoke_scale: 96,
        },
        Workload {
            name: "fnv",
            category: "security (hash)",
            source: programs::fnv::source,
            golden: programs::fnv::golden,
            default_scale: 3000,
            smoke_scale: 128,
        },
        Workload {
            name: "stringsearch",
            category: "office",
            source: programs::stringsearch::source,
            golden: programs::stringsearch::golden,
            default_scale: 2200,
            smoke_scale: 120,
        },
        Workload {
            name: "adpcm",
            category: "telecomm",
            source: programs::adpcm::source,
            golden: programs::adpcm::golden,
            default_scale: 1600,
            smoke_scale: 64,
        },
        Workload {
            name: "xtea",
            category: "security (cipher)",
            source: programs::xtea::source,
            golden: programs::xtea::golden,
            default_scale: 900,
            smoke_scale: 24,
        },
    ]
}

/// Look up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_asm::{assemble, AsmOptions};
    use eric_sim::soc::{Soc, SocConfig};

    #[test]
    fn suite_has_nine_workloads_with_unique_names() {
        let suite = all();
        assert_eq!(suite.len(), 10);
        let mut names: Vec<_> = suite.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("qsort").is_some());
        assert!(by_name("doom").is_none());
    }

    /// Every workload must run on the SoC and reproduce its golden
    /// model at the smoke scale — this is the suite's core contract.
    #[test]
    fn all_workloads_match_golden_at_smoke_scale() {
        for w in all() {
            let src = (w.source)(w.smoke_scale);
            let image = assemble(&src, &AsmOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let mut soc = Soc::new(SocConfig::default());
            soc.load_image(&image).unwrap();
            let out = soc
                .run(200_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(
                out.exit_code,
                (w.golden)(w.smoke_scale),
                "{} diverged from golden model",
                w.name
            );
        }
    }

    /// Workloads must also be correct when built with RVC compression —
    /// the compressed build exercises the mixed-parcel path end to end.
    #[test]
    fn workloads_match_golden_when_compressed() {
        for w in all() {
            let src = (w.source)(w.smoke_scale);
            let image = assemble(&src, &AsmOptions::compressed())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(image.has_compressed(), "{}: nothing compressed", w.name);
            let mut soc = Soc::new(SocConfig::default());
            soc.load_image(&image).unwrap();
            let out = soc.run(200_000_000).unwrap();
            assert_eq!(out.exit_code, (w.golden)(w.smoke_scale), "{}", w.name);
        }
    }

    #[test]
    fn scales_change_results() {
        // Different scales must give different programs (and generally
        // different checksums) — guards against ignoring the scale.
        for w in all() {
            let a = (w.source)(w.smoke_scale);
            let b = (w.source)(w.smoke_scale + 7);
            assert_ne!(a, b, "{} ignores scale in source", w.name);
        }
    }
}
