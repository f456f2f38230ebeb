//! Small numeric helpers: the seeded input generator, order
//! statistics, the window's quietest slices and the process's peak
//! resident set.

use std::ops::Range;
use std::time::Duration;

/// SplitMix64: every generated input derives from the run's `--seed`
/// through this generator, so one seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fill `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The closed-loop steps that started within one slice of the window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slice {
    /// Which slice of the window (its start ÷ the slice length).
    pub index: u64,
    /// Wall time spent inside the steps.
    pub busy: Duration,
    /// Items the steps completed.
    pub completed: u64,
    /// The steps' entries in the window's latency log.
    pub items: Range<usize>,
}

impl Slice {
    /// Completed items per second of step time.
    pub fn rate(&self) -> f64 {
        if self.busy.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.busy.as_secs_f64()
        }
    }
}

/// The `share` of `slices` (at least one) with the highest throughput:
/// the stretches of the window in which other tenants of the host took
/// the least from the program.
pub fn quietest(slices: &[Slice], share: f64) -> Vec<&Slice> {
    let mut ranked: Vec<&Slice> = slices.iter().collect();
    ranked.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let keep = (ranked.len() as f64 * share).ceil() as usize;
    ranked.truncate(keep.max(1));
    ranked
}

/// Median of a set of durations, in seconds.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median_secs(samples: &[Duration]) -> f64 {
    let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    let n = secs.len();
    if n % 2 == 1 {
        secs[n / 2]
    } else {
        (secs[n / 2 - 1] + secs[n / 2]) / 2.0
    }
}

/// Restart the process's high-water resident set at its current
/// resident set, so a later [`peak_rss_mib`] covers only what ran in
/// between (Linux 4.0 and later).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))
}

/// The process's high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    status_mib("VmHWM:")
}

/// The process's current resident set (`VmRSS`), in MiB.
pub fn rss_mib() -> Result<f64, String> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.9), 7);
    }

    fn slice(index: u64, busy_ms: u64, completed: u64) -> Slice {
        Slice {
            index,
            busy: Duration::from_millis(busy_ms),
            completed,
            items: 0..completed as usize,
        }
    }

    #[test]
    fn the_quietest_slices_are_the_fastest_tenth() {
        // Twenty slices: a fast stretch of 40 items per 100 ms in
        // slices 3 and 4, the rest slowed to 25 or 30.
        let slices: Vec<Slice> = (0..20)
            .map(|i| match i {
                3 | 4 => slice(i, 100, 40),
                _ if i % 2 == 0 => slice(i, 100, 25),
                _ => slice(i, 100, 30),
            })
            .collect();
        let quiet: Vec<u64> = quietest(&slices, 0.1).iter().map(|s| s.index).collect();
        assert_eq!(quiet, [3, 4]);
        // However long the slow stretches, the figure stays put.
        let more_slow: Vec<Slice> = slices
            .iter()
            .cloned()
            .chain((20..60).map(|i| slice(i, 100, 25)))
            .collect();
        let rates: Vec<f64> = quietest(&more_slow, 0.05)
            .iter()
            .map(|s| s.rate())
            .collect();
        assert_eq!(rates, [400.0, 400.0, 300.0]);
        // A run too short for a tenth still keeps one slice.
        assert_eq!(quietest(&slices[..3], 0.1).len(), 1);
        assert!(quietest(&[], 0.1).is_empty());
    }

    #[test]
    fn streams_of_one_seed_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
        let mut p = Rng::new(3, 0).permutation(10);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }
}
