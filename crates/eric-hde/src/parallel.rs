//! Multi-lane parallel decryption (the paper's future work, §VI).
//!
//! "Our future work will focus on improving the parallelism,
//! performance, and scalability abilities of the architecture." The
//! keystream is position-addressable, so the payload splits into
//! independent chunks: `n` decryption lanes each process
//! `⌈len/n⌉` bytes at their own absolute offsets, and each lane fills
//! whole keystream blocks for its chunk via the block cipher API.
//!
//! [`map_lane_blocks`] is the lane pool itself: it tiles a payload
//! into fixed-size segments, groups contiguous segments into one block
//! per lane, and runs a caller-supplied per-block function on
//! `std::thread::scope` threads, returning one result per block in
//! segment order. The secure loader drives it with a
//! decrypt-and-verify closure for segmented (v2) packages, and the
//! parallel-decrypt ablation bench with a decrypt-only closure over one
//! block per lane.
//! [`parallel_cycles`] is the matching *cycle model* (what an n-lane
//! HDE would cost in hardware).

use crate::timing::HdeTimingConfig;

/// Modeled cycles for an `lanes`-wide decrypt of `bytes` under the
/// *monolithic* (v1) signature scheme.
///
/// Lanes split the payload evenly, but v1's SHA-256 signature
/// regeneration is one sequential Merkle–Damgård chain and does not
/// parallelize, so it becomes the bottleneck — exactly the motivation
/// for the segmented (v2) scheme, whose per-lane leaf hashing the
/// loader models separately.
///
/// # Panics
///
/// Panics if `lanes` is zero.
pub fn parallel_cycles(timing: &HdeTimingConfig, bytes: usize, lanes: usize) -> u64 {
    assert!(lanes > 0, "at least one decryption lane required");
    let per_lane = (bytes).div_ceil(lanes);
    let decrypt = timing.decrypt_cycles(per_lane);
    let hash = timing.hash_cycles(bytes);
    decrypt.max(hash) + timing.validate_cycles
}

/// Tile `payload` into `segment_len`-byte segments, group contiguous
/// segments into one *block* per lane, and run
/// `f(first_segment_index, absolute_offset, lane_block)` once per lane
/// block across up to `lanes` scoped OS threads, returning the
/// per-block results in segment order (none for an empty payload).
///
/// This is the lane pool's primitive shape: each lane sees its whole
/// contiguous span at once, so a lane can batch work *across* its
/// segments — the secure loader decrypts a lane block and then
/// leaf-hashes all of its full segments through the multi-buffer
/// SHA-256 engine in one call, which a per-segment closure could never
/// express. Every block sees its true absolute payload offset, which
/// is all a keystream cipher or a coverage map needs to produce output
/// bit-identical to a sequential pass. With one lane (or a single
/// segment) everything runs inline on the caller's thread: no spawn,
/// deterministic, and the natural baseline for scaling measurements.
///
/// # Panics
///
/// Panics if `lanes` or `segment_len` is zero, or if a lane's closure
/// panics.
pub fn map_lane_blocks<T, F>(payload: &mut [u8], segment_len: usize, lanes: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, &mut [u8]) -> T + Sync,
{
    assert!(lanes > 0, "at least one decryption lane required");
    assert!(segment_len > 0, "segment length must be positive");
    if payload.is_empty() {
        return Vec::new();
    }
    let segments = payload.len().div_ceil(segment_len);
    let per_lane = segments.div_ceil(lanes);
    if lanes == 1 || segments == 1 {
        return vec![f(0, 0, payload)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = payload
            .chunks_mut(per_lane * segment_len)
            .enumerate()
            .map(|(lane, block)| {
                let f = &f;
                scope.spawn(move || {
                    let first = lane * per_lane;
                    f(first, first * segment_len, block)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("decryption lane panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_crypto::cipher::{KeystreamCipher, ShaCtrCipher, XorCipher};

    /// Decrypt `payload` in place with one lane block per lane, each
    /// applying the keystream at its absolute offset (the shape the
    /// parallel-decrypt ablation drives).
    fn decrypt_on_lanes<C>(payload: &mut [u8], cipher: &C, lanes: usize)
    where
        C: KeystreamCipher + Sync + ?Sized,
    {
        let per_lane = payload.len().div_ceil(lanes).max(1);
        map_lane_blocks(payload, per_lane, lanes, |_, offset, block| {
            cipher.apply(offset as u64, block);
        });
    }

    /// `f(segment_index, absolute_offset, segment)` for every
    /// `segment_len`-byte segment, one result per segment in order.
    fn map_each_segment<T, F>(payload: &mut [u8], segment_len: usize, lanes: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize, &mut [u8]) -> T + Sync,
    {
        map_lane_blocks(payload, segment_len, lanes, |first, start, block| {
            block
                .chunks_mut(segment_len)
                .enumerate()
                .map(|(j, segment)| f(first + j, start + j * segment_len, segment))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn parallel_matches_sequential_xor() {
        let cipher = XorCipher::new(&[1, 2, 3, 4, 5, 6, 7]);
        let original: Vec<u8> = (0u16..1000).map(|i| (i % 256) as u8).collect();
        let mut sequential = original.clone();
        cipher.apply(0, &mut sequential);
        for lanes in 1..=16 {
            let mut parallel = original.clone();
            decrypt_on_lanes(&mut parallel, &cipher, lanes);
            assert_eq!(parallel, sequential, "{lanes} lanes");
        }
    }

    #[test]
    fn every_lane_count_matches_block_transform_at_awkward_lengths() {
        // Lane chunking at arbitrary lanes ∈ 1..=16 must match the
        // sequential block transform, including lengths that do not
        // divide evenly and lengths smaller than the lane count.
        let cipher = XorCipher::new(&[0xC3, 0x96, 0x5A, 0x2D, 0x71]);
        for len in [1usize, 2, 3, 5, 15, 16, 17, 255, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let mut sequential = original.clone();
            cipher.apply(0, &mut sequential);
            for lanes in 1..=16 {
                let mut parallel = original.clone();
                decrypt_on_lanes(&mut parallel, &cipher, lanes);
                assert_eq!(parallel, sequential, "len {len}, {lanes} lanes");
            }
        }
    }

    #[test]
    fn more_lanes_than_bytes_is_fine() {
        let cipher = XorCipher::new(&[0x0F, 0xF0]);
        let original = vec![1u8, 2, 3];
        let mut sequential = original.clone();
        cipher.apply(0, &mut sequential);
        let mut parallel = original.clone();
        decrypt_on_lanes(&mut parallel, &cipher, 16); // lanes > len
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn works_through_dyn_cipher() {
        let boxed: Box<dyn KeystreamCipher + Send + Sync> = Box::new(XorCipher::new(&[7, 11, 13]));
        let original: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        let mut sequential = original.clone();
        boxed.apply(0, &mut sequential);
        let mut parallel = original.clone();
        decrypt_on_lanes::<dyn KeystreamCipher + Send + Sync>(&mut parallel, boxed.as_ref(), 4);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn parallel_matches_sequential_sha_ctr() {
        let cipher = ShaCtrCipher::new(b"lane key");
        let original: Vec<u8> = (0u16..777).map(|i| (i * 7 % 256) as u8).collect();
        let mut sequential = original.clone();
        cipher.apply(0, &mut sequential);
        let mut parallel = original.clone();
        decrypt_on_lanes(&mut parallel, &cipher, 4);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn cycle_model_scales_decrypt_until_hash_bound() {
        let t = HdeTimingConfig::default();
        let bytes = 64 * 1024;
        let one = parallel_cycles(&t, bytes, 1);
        let two = parallel_cycles(&t, bytes, 2);
        let many = parallel_cycles(&t, bytes, 64);
        assert!(two <= one);
        // With default rates the SHA engine dominates: adding lanes
        // beyond a point cannot go below the hash floor.
        assert!(many >= t.hash_cycles(bytes));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_lanes_panics() {
        let _ = parallel_cycles(&HdeTimingConfig::default(), 100, 0);
    }

    #[test]
    fn empty_payload_is_noop() {
        let cipher = XorCipher::new(&[9]);
        let mut empty: Vec<u8> = vec![];
        decrypt_on_lanes(&mut empty, &cipher, 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_segments_orders_indices_and_offsets() {
        // Results must come back in segment order with true absolute
        // offsets regardless of lane count or ragged tail segments.
        for len in [1usize, 7, 8, 9, 64, 65, 100] {
            let mut buf: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for lanes in 1..=6 {
                let out = map_each_segment(&mut buf, 8, lanes, |index, offset, segment| {
                    (index, offset, segment.len(), segment[0])
                });
                assert_eq!(out.len(), len.div_ceil(8), "len {len}, {lanes} lanes");
                for (k, (index, offset, seg_len, first)) in out.iter().enumerate() {
                    assert_eq!(*index, k);
                    assert_eq!(*offset, k * 8);
                    assert_eq!(*seg_len, 8.min(len - k * 8));
                    assert_eq!(*first, (k * 8) as u8);
                }
            }
        }
    }

    #[test]
    fn map_lane_blocks_hands_out_contiguous_spans() {
        // Every lane block starts at a segment boundary, covers whole
        // segments (ragged tail excepted), and the per-block results
        // come back in segment order.
        for len in [1usize, 7, 8, 9, 64, 65, 100, 1000] {
            for lanes in [1usize, 2, 3, 4, 7, 16] {
                let mut buf = vec![0u8; len];
                let out: Vec<_> = map_lane_blocks(&mut buf, 8, lanes, |first, start, block| {
                    assert_eq!(start, first * 8, "block offset");
                    assert_eq!(start % 8, 0, "block must start on a segment boundary");
                    block
                        .chunks(8)
                        .enumerate()
                        .map(|(j, seg)| (first + j, seg.len()))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
                assert_eq!(out.len(), len.div_ceil(8), "len {len}, {lanes} lanes");
                for (k, (index, seg_len)) in out.iter().enumerate() {
                    assert_eq!(*index, k);
                    assert_eq!(*seg_len, 8.min(len - k * 8));
                }
            }
        }
    }

    #[test]
    fn map_segments_mutations_are_disjoint_and_complete() {
        // Every byte is visited exactly once whatever the lane count.
        let len = 1000;
        for lanes in [1usize, 2, 3, 4, 7, 16] {
            let mut buf = vec![0u8; len];
            map_each_segment(&mut buf, 96, lanes, |_, _, segment| {
                for b in segment.iter_mut() {
                    *b += 1;
                }
            });
            assert!(buf.iter().all(|&b| b == 1), "{lanes} lanes");
        }
    }
}
