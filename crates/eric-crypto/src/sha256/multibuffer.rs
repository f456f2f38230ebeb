//! Multi-buffer SHA-256: compress N independent 64-byte blocks at once.
//!
//! A single SHA-256 message is a sequential Merkle–Damgård chain, but
//! ERIC's hash-heavy hot paths are *batches* of independent messages:
//! counter-mode keystream blocks ([`crate::cipher::ShaCtrCipher`]) and
//! hash-tree leaves ([`super::tree`]). Independent messages can be
//! compressed in lockstep — one round function evaluated over an
//! N-wide vector of working variables — which is how the throughput
//! floor of the scalar compress is lifted without any per-message
//! algorithm change.
//!
//! Three kernels implement [`Engine::compress_blocks`]:
//!
//! * **sha-ni** (`x86_64` only) — the dedicated SHA-256 instructions,
//!   two blocks per kernel call with their round chains interleaved
//!   (an odd last block runs alone). Even one hardware-assisted chain
//!   outruns eight software-vectorized ones, so where detected this is
//!   also the fastest *batch* backend;
//! * **avx2** (`x86_64` only) — an explicit `std::arch` 8-wide
//!   lockstep kernel behind `is_x86_feature_detected!` detection;
//! * **portable** — plain `u32`-array lanes with fixed widths 8 and 4,
//!   written so LLVM auto-vectorizes the lane loops on any target.
//!
//! The dispatch decision is resolved **once** per process into a
//! static table ([`active`]); `ERIC_FORCE_SCALAR=1` pins it to the
//! portable path and `ERIC_DISABLE_SHANI=1` rules out only the SHA-NI
//! tier (the benchmark escape hatches documented in
//! `docs/BENCHMARKS.md`). Every kernel is bit-identical to
//! [`super::Sha256::compress_block_scalar`] — the property suite in
//! `tests/props.rs` pins batch outputs to the scalar oracle across
//! widths and engines.

use super::{Digest, Sha256, H0, K};
use std::sync::OnceLock;

/// Maximum lockstep width: one AVX2 vector of 32-bit lanes. Batches
/// wider than this are processed in groups of `MAX_LANES`.
pub const MAX_LANES: usize = 8;

type CompressManyFn = fn(&mut [[u32; 8]], &[[u8; 64]]);

/// One resolved compression backend.
///
/// Obtained from [`active`] (the process-wide dispatch decision) or
/// [`engines`] (every backend usable on this host, for equivalence
/// tests and benchmarks that pin a specific path).
pub struct Engine {
    name: &'static str,
    compress: CompressManyFn,
}

impl Engine {
    /// Backend name (`"sha-ni"`, `"avx2"`, or `"portable"`), for
    /// reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Compress `blocks[i]` into `states[i]` for every `i`, batching
    /// lanes as wide as the backend allows.
    ///
    /// Equivalent to calling [`Sha256::compress_block`] once per
    /// state/block pair; any number of pairs is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `blocks` differ in length.
    pub fn compress_blocks(&self, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        assert_eq!(
            states.len(),
            blocks.len(),
            "one chaining state per message block"
        );
        (self.compress)(states, blocks);
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine({})", self.name)
    }
}

static PORTABLE: Engine = Engine {
    name: "portable",
    compress: compress_many_portable,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Engine = Engine {
    name: "avx2",
    compress: compress_many_avx2,
};

#[cfg(target_arch = "x86_64")]
static SHANI: Engine = Engine {
    name: "sha-ni",
    compress: compress_many_shani,
};

/// Every engine usable on this host, fastest first.
///
/// The portable engine is always present; the `sha-ni` and `avx2`
/// engines appear only on `x86_64` hosts whose CPU reports the
/// respective feature at runtime. Tests iterate this list to pin every
/// dispatch path against the scalar oracle regardless of which one
/// [`active`] picked.
pub fn engines() -> Vec<&'static Engine> {
    let mut found: Vec<&'static Engine> = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if super::shani_detected() {
            found.push(&SHANI);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push(&AVX2);
        }
    }
    found.push(&PORTABLE);
    found
}

/// `ERIC_FORCE_SCALAR=1`: pin both hash dispatchers (multi-buffer and
/// single-stream) to the portable software paths.
pub fn force_scalar() -> bool {
    truthy(std::env::var("ERIC_FORCE_SCALAR").ok().as_deref())
}

/// `ERIC_DISABLE_SHANI=1`: rule the SHA-NI tier out of both dispatch
/// decisions ([`active`] and [`super::active_compress`]) while leaving
/// the SIMD multi-buffer tiers eligible — the knob for measuring what
/// the dedicated instructions buy over AVX2 lockstep, or for
/// exercising the non-SHA-NI paths on hardware that has them.
/// [`engines`] and [`super::compress_engines`] still *list* a detected
/// SHA-NI backend so equivalence tests keep covering it.
pub fn disable_shani() -> bool {
    truthy(std::env::var("ERIC_DISABLE_SHANI").ok().as_deref())
}

/// Whether an override env-var value is set (unset, empty, and `"0"`
/// do not count). Split out so the parsing is testable without
/// mutating process environment — env mutation would race both the
/// one-shot [`active`] resolution and glibc's `getenv` in
/// parallel-test processes.
fn truthy(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// The process-wide dispatch decision, resolved exactly once.
///
/// Picks the fastest detected engine unless [`force_scalar`] pins the
/// portable path or [`disable_shani`] rules the SHA-NI tier out. The
/// result is cached in a static, so hot paths pay a single atomic
/// load, not a feature probe or an env lookup.
pub fn active() -> &'static Engine {
    static ACTIVE: OnceLock<&'static Engine> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if force_scalar() {
            &PORTABLE
        } else {
            let skip_shani = disable_shani();
            *engines()
                .iter()
                .find(|e| !(skip_shani && e.name() == "sha-ni"))
                .expect("portable engine is always listed")
        }
    })
}

/// SHA-NI dispatch target: the batch is walked in pairs through the
/// two-way interleaved kernel, whose two independent `sha256rnds2`
/// chains keep the SHA unit busy through each other's latency; an odd
/// last pair goes through the one-block kernel. The dedicated
/// instructions retire a block faster than eight software-vectorized
/// lanes amortize one, so no wider lockstep transposition pays for
/// itself here.
#[cfg(target_arch = "x86_64")]
fn compress_many_shani(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    let (state_pairs, state_tail) = states.as_chunks_mut::<2>();
    let (block_pairs, block_tail) = blocks.as_chunks::<2>();
    for ([s0, s1], [b0, b1]) in state_pairs.iter_mut().zip(block_pairs) {
        // SAFETY: this function is only reachable through the `SHANI`
        // engine, which `engines()` exposes only after
        // `shani_detected()` confirmed the sha/ssse3/sse4.1 features.
        unsafe { super::shani::compress_block_x2(s0, b0, s1, b1) };
    }
    for (state, block) in state_tail.iter_mut().zip(block_tail) {
        // SAFETY: as above — only reachable through the `SHANI` engine.
        unsafe { super::shani::compress_block(state, block) };
    }
}

/// Portable multi-buffer compress: fixed-width lane groups (8, then 4)
/// whose inner loops LLVM auto-vectorizes, scalar remainder via the
/// dispatched [`Sha256::compress_block`] (which itself rides SHA-NI
/// where detected, so ragged batch tails are never the slow path).
fn compress_many_portable(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    let (mut states, mut blocks) = (states, blocks);
    while states.len() >= 8 {
        let (s, rest_s) = states.split_at_mut(8);
        let (b, rest_b) = blocks.split_at(8);
        compress_wide::<8>(s, b);
        (states, blocks) = (rest_s, rest_b);
    }
    if states.len() >= 4 {
        let (s, rest_s) = states.split_at_mut(4);
        let (b, rest_b) = blocks.split_at(4);
        compress_wide::<4>(s, b);
        (states, blocks) = (rest_s, rest_b);
    }
    for (state, block) in states.iter_mut().zip(blocks) {
        Sha256::compress_block(state, block);
    }
}

/// N-wide lockstep compression over `[u32; N]` lane vectors. Every
/// operation is elementwise over the lanes, so with a fixed `N` the
/// compiler lowers the lane loops to SIMD on any target that has it.
// Index loops here deliberately mirror the FIPS round structure: the
// schedule reads four different rows of `w` per step, which an
// iterator chain would only obscure.
#[allow(clippy::needless_range_loop)]
fn compress_wide<const N: usize>(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    debug_assert!(states.len() == N && blocks.len() == N);
    // Message schedule: w[t] holds round-t words for all N lanes.
    let mut w = [[0u32; N]; 64];
    for (t, wt) in w.iter_mut().enumerate().take(16) {
        for (l, lane) in wt.iter_mut().enumerate() {
            let b = &blocks[l];
            *lane = u32::from_be_bytes([b[4 * t], b[4 * t + 1], b[4 * t + 2], b[4 * t + 3]]);
        }
    }
    for t in 16..64 {
        for l in 0..N {
            let x = w[t - 15][l];
            let y = w[t - 2][l];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w[t][l] = w[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][l])
                .wrapping_add(s1);
        }
    }
    // Working variables, transposed: v[r][l] = lane l's word r.
    let mut v = [[0u32; N]; 8];
    for (r, vr) in v.iter_mut().enumerate() {
        for (l, lane) in vr.iter_mut().enumerate() {
            *lane = states[l][r];
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
    for (wt, k) in w.iter().zip(&K) {
        let mut t1 = [0u32; N];
        let mut t2 = [0u32; N];
        for l in 0..N {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*k)
                .wrapping_add(wt[l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..N {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..N {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }
    let out = [a, b, c, d, e, f, g, h];
    for (l, state) in states.iter_mut().enumerate() {
        for (r, word) in state.iter_mut().enumerate() {
            *word = word.wrapping_add(out[r][l]);
        }
    }
}

/// AVX2 dispatch target: full 8-lane groups through the `std::arch`
/// kernel, remainder through the portable path.
#[cfg(target_arch = "x86_64")]
fn compress_many_avx2(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    let (mut states, mut blocks) = (states, blocks);
    while states.len() >= 8 {
        let (s, rest_s) = states.split_at_mut(8);
        let (b, rest_b) = blocks.split_at(8);
        // SAFETY: this function is only reachable through the `AVX2`
        // engine, which `engines()` exposes only after
        // `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::compress8(s, b) };
        (states, blocks) = (rest_s, rest_b);
    }
    compress_many_portable(states, blocks);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::K;
    use core::arch::x86_64::*;

    /// 32-bit lanewise rotate-right by a literal (the shift intrinsics
    /// demand constant immediates, which rules out a plain fn arg).
    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(_mm256_srli_epi32($x, $n), _mm256_slli_epi32($x, 32 - $n))
        };
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor3(a: __m256i, b: __m256i, c: __m256i) -> __m256i {
        _mm256_xor_si256(_mm256_xor_si256(a, b), c)
    }

    /// 8-wide SHA-256 compression: lane l of every vector belongs to
    /// message l, so the whole round function runs on `__m256i`
    /// vectors with no cross-lane traffic.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn compress8(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        debug_assert!(states.len() == 8 && blocks.len() == 8);
        // Message schedule: transpose 16 big-endian words per block
        // into one vector per round.
        let mut w = [_mm256_setzero_si256(); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            let mut lanes = [0u32; 8];
            for (l, lane) in lanes.iter_mut().enumerate() {
                let b = &blocks[l];
                *lane = u32::from_be_bytes([b[4 * t], b[4 * t + 1], b[4 * t + 2], b[4 * t + 3]]);
            }
            *wt = _mm256_loadu_si256(lanes.as_ptr().cast());
        }
        for t in 16..64 {
            let x = w[t - 15];
            let y = w[t - 2];
            let s0 = xor3(rotr!(x, 7), rotr!(x, 18), _mm256_srli_epi32(x, 3));
            let s1 = xor3(rotr!(y, 17), rotr!(y, 19), _mm256_srli_epi32(y, 10));
            w[t] = _mm256_add_epi32(
                _mm256_add_epi32(w[t - 16], s0),
                _mm256_add_epi32(w[t - 7], s1),
            );
        }
        // Transpose the 8 chaining states into one vector per word.
        let mut v = [_mm256_setzero_si256(); 8];
        for (r, vr) in v.iter_mut().enumerate() {
            let mut lanes = [0u32; 8];
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = states[l][r];
            }
            *vr = _mm256_loadu_si256(lanes.as_ptr().cast());
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
        for t in 0..64 {
            let k = _mm256_set1_epi32(K[t] as i32);
            let s1 = xor3(rotr!(e, 6), rotr!(e, 11), rotr!(e, 25));
            // ch = (e & f) ^ (!e & g); andnot computes !e & g directly.
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let t1 = _mm256_add_epi32(
                _mm256_add_epi32(h, s1),
                _mm256_add_epi32(ch, _mm256_add_epi32(k, w[t])),
            );
            let s0 = xor3(rotr!(a, 2), rotr!(a, 13), rotr!(a, 22));
            let maj = xor3(
                _mm256_and_si256(a, b),
                _mm256_and_si256(a, c),
                _mm256_and_si256(b, c),
            );
            let t2 = _mm256_add_epi32(s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm256_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm256_add_epi32(t1, t2);
        }
        let out = [a, b, c, d, e, f, g, h];
        for (r, vr) in out.iter().enumerate() {
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), *vr);
            for (l, state) in states.iter_mut().enumerate() {
                state[r] = state[r].wrapping_add(lanes[l]);
            }
        }
    }
}

/// Up to [`MAX_LANES`] independent SHA-256 streams advanced in
/// lockstep.
///
/// All lanes must absorb the *same number of bytes* per
/// [`MultiSha256::update`] call (and therefore in total), which keeps
/// one shared block buffer fill and one shared padding schedule — the
/// invariant that lets every compression run through the wide kernels.
/// That is exactly the shape of ERIC's batch workloads: counter blocks
/// of one cipher share a key length, hash-tree leaves share a segment
/// length.
///
/// ```rust
/// use eric_crypto::sha256::multibuffer::MultiSha256;
/// use eric_crypto::sha256::sha256;
///
/// let mut h = MultiSha256::new(2);
/// h.update(&[b"lane one", b"lane TWO"]);
/// let digests = h.finalize();
/// assert_eq!(digests[0], sha256(b"lane one"));
/// assert_eq!(digests[1], sha256(b"lane TWO"));
/// ```
pub struct MultiSha256 {
    engine: &'static Engine,
    lanes: usize,
    states: [[u32; 8]; MAX_LANES],
    bufs: [[u8; 64]; MAX_LANES],
    buf_len: usize,
    total_len: u64,
}

impl MultiSha256 {
    /// A fresh `lanes`-wide hasher on the [`active`] engine.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_LANES`].
    pub fn new(lanes: usize) -> Self {
        Self::with_engine(lanes, active())
    }

    /// A fresh `lanes`-wide hasher pinned to a specific engine (used by
    /// the equivalence tests and the dispatch-path benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_LANES`].
    pub fn with_engine(lanes: usize, engine: &'static Engine) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_LANES}"
        );
        MultiSha256 {
            engine,
            lanes,
            states: [H0; MAX_LANES],
            bufs: [[0u8; 64]; MAX_LANES],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Number of lockstep lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Absorb `chunks[l]` into lane `l`.
    ///
    /// # Panics
    ///
    /// Panics unless `chunks` has exactly one chunk per lane and all
    /// chunks share one length (the lockstep invariant).
    pub fn update(&mut self, chunks: &[&[u8]]) {
        assert_eq!(chunks.len(), self.lanes, "one chunk per lane");
        let len = chunks[0].len();
        assert!(
            chunks.iter().all(|c| c.len() == len),
            "lockstep lanes must absorb equal-length chunks"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
        let mut at = 0usize;
        if self.buf_len > 0 {
            let take = len.min(64 - self.buf_len);
            for (buf, chunk) in self.bufs[..self.lanes].iter_mut().zip(chunks) {
                buf[self.buf_len..self.buf_len + take].copy_from_slice(&chunk[..take]);
            }
            self.buf_len += take;
            at = take;
            if self.buf_len == 64 {
                self.engine
                    .compress_blocks(&mut self.states[..self.lanes], &self.bufs[..self.lanes]);
                self.buf_len = 0;
            }
        }
        while at + 64 <= len {
            for (buf, chunk) in self.bufs[..self.lanes].iter_mut().zip(chunks) {
                buf.copy_from_slice(&chunk[at..at + 64]);
            }
            self.engine
                .compress_blocks(&mut self.states[..self.lanes], &self.bufs[..self.lanes]);
            at += 64;
        }
        if at < len {
            for (buf, chunk) in self.bufs[..self.lanes].iter_mut().zip(chunks) {
                buf[..len - at].copy_from_slice(&chunk[at..]);
            }
            self.buf_len = len - at;
        }
    }

    /// Finish all lanes, writing lane `l`'s digest to `out[l]`.
    ///
    /// # Panics
    ///
    /// Panics unless `out` has exactly one slot per lane.
    pub fn finalize_into(mut self, out: &mut [[u8; 32]]) {
        assert_eq!(out.len(), self.lanes, "one digest slot per lane");
        let bit_len = self.total_len.wrapping_mul(8);
        let fill = self.buf_len;
        // Padding is identical across lanes: 0x80, zeros, then the
        // 64-bit big-endian bit length (all lanes absorbed the same
        // number of bytes).
        if fill + 9 <= 64 {
            for buf in self.bufs[..self.lanes].iter_mut() {
                buf[fill] = 0x80;
                buf[fill + 1..56].fill(0);
                buf[56..].copy_from_slice(&bit_len.to_be_bytes());
            }
            self.engine
                .compress_blocks(&mut self.states[..self.lanes], &self.bufs[..self.lanes]);
        } else {
            for buf in self.bufs[..self.lanes].iter_mut() {
                buf[fill] = 0x80;
                buf[fill + 1..].fill(0);
            }
            self.engine
                .compress_blocks(&mut self.states[..self.lanes], &self.bufs[..self.lanes]);
            for buf in self.bufs[..self.lanes].iter_mut() {
                *buf = [0u8; 64];
                buf[56..].copy_from_slice(&bit_len.to_be_bytes());
            }
            self.engine
                .compress_blocks(&mut self.states[..self.lanes], &self.bufs[..self.lanes]);
        }
        for (digest, state) in out.iter_mut().zip(&self.states[..self.lanes]) {
            for (i, word) in state.iter().enumerate() {
                digest[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Finish all lanes, returning one [`Digest`] per lane.
    pub fn finalize(self) -> Vec<Digest> {
        let lanes = self.lanes;
        let mut raw = [[0u8; 32]; MAX_LANES];
        self.finalize_into(&mut raw[..lanes]);
        raw[..lanes].iter().map(|d| Digest(*d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    /// Deterministic pseudo-random bytes for lane payloads; distinct
    /// seeds give distinct streams (xorshift needs a non-zero state,
    /// and `seed | 1` alone would give seeds 2k and 2k+1 one stream).
    fn lane_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = (seed << 1) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn portable_engine_always_listed() {
        let found = engines();
        assert!(found.iter().any(|e| e.name() == "portable"));
        // The active engine is one of the listed ones (or portable when
        // pinned by the env escape hatch).
        assert!(found.iter().any(|e| std::ptr::eq(*e, active())));
    }

    #[test]
    fn every_engine_matches_scalar_at_every_width() {
        for engine in engines() {
            for lanes in 1..=MAX_LANES {
                // Messages spanning the 0/1/2-padding-block regimes and
                // multi-update chunking.
                for len in [0usize, 1, 31, 55, 56, 63, 64, 65, 127, 128, 200] {
                    let messages: Vec<Vec<u8>> =
                        (0..lanes).map(|l| lane_bytes(l as u64 + 1, len)).collect();
                    let mut h = MultiSha256::with_engine(lanes, engine);
                    let split = len / 3;
                    let heads: Vec<&[u8]> = messages.iter().map(|m| &m[..split]).collect();
                    let tails: Vec<&[u8]> = messages.iter().map(|m| &m[split..]).collect();
                    h.update(&heads);
                    h.update(&tails);
                    for (lane, digest) in h.finalize().into_iter().enumerate() {
                        assert_eq!(
                            digest,
                            sha256(&messages[lane]),
                            "{} lanes={lanes} len={len} lane={lane}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compress_blocks_handles_any_batch_length() {
        // 0..=20 covers the 8-wide, 4-wide, and scalar remainders of
        // the lockstep kernels and every pair plus the odd remainder
        // of the paired SHA-NI kernel. Each lane gets its own state and
        // block, so a kernel that wrote one lane's result into another
        // (say, its partner in a pair) fails here.
        for engine in engines() {
            for n in 0..=20usize {
                let (starts, blocks): (Vec<[u32; 8]>, Vec<[u8; 64]>) = (0..n)
                    .map(|l| {
                        let bytes = lane_bytes(0x5EED_0000 + (n * 32 + l) as u64, 96);
                        let state: [u32; 8] = std::array::from_fn(|w| {
                            u32::from_le_bytes(bytes[4 * w..4 * w + 4].try_into().unwrap())
                        });
                        let block: [u8; 64] = bytes[32..].try_into().unwrap();
                        (state, block)
                    })
                    .unzip();
                let mut states = starts.clone();
                engine.compress_blocks(&mut states, &blocks);
                let lanes = starts.iter().zip(&blocks).zip(&states);
                for (i, ((start, block), got)) in lanes.enumerate() {
                    let mut want = *start;
                    Sha256::compress_block_scalar(&mut want, block);
                    assert_eq!(*got, want, "{} n={n} lane={i}", engine.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one chaining state per message block")]
    fn mismatched_batch_lengths_panic() {
        let mut states = [H0; 2];
        active().compress_blocks(&mut states, &[[0u8; 64]; 3]);
    }

    #[test]
    #[should_panic(expected = "equal-length chunks")]
    fn ragged_lockstep_update_panics() {
        let mut h = MultiSha256::new(2);
        h.update(&[b"abc" as &[u8], b"de"]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_lanes_panics() {
        let _ = MultiSha256::new(0);
    }

    #[test]
    fn force_scalar_parses_env_shapes() {
        // Only the *parser* is testable here: the dispatch table is
        // resolved once per process, so the CI matrix (which sets
        // ERIC_FORCE_SCALAR / ERIC_DISABLE_SHANI for a whole run)
        // covers the pinning itself.
        assert!(!truthy(None));
        assert!(!truthy(Some("")));
        assert!(!truthy(Some("0")));
        assert!(truthy(Some("1")));
        assert!(truthy(Some("yes")));
    }

    #[test]
    fn engine_listing_respects_overrides() {
        // Whatever the host, the active engines are drawn from the
        // listed ones, and the env overrides can only ever *remove*
        // hardware tiers from the active choice, never add one.
        let found = engines();
        assert!(found.iter().any(|e| std::ptr::eq(*e, active())));
        if force_scalar() {
            assert_eq!(active().name(), "portable");
            assert_eq!(crate::sha256::active_compress().name(), "scalar");
        }
        if disable_shani() {
            assert_ne!(active().name(), "sha-ni");
            assert_ne!(crate::sha256::active_compress().name(), "sha-ni");
        }
    }
}
