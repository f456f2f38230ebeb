//! Encryption coverage maps.
//!
//! "For the target hardware to detect which instructions are encrypted,
//! the encryption map must be transmitted to the other party along with
//! the encrypted program" (§III-1). The map costs 1 bit per instruction
//! — per 16-bit *parcel* once compressed instructions are in play —
//! and fully-encrypted programs ship no map at all. That accounting is
//! exactly what Figure 5 measures, so the map's serialized size here
//! follows the paper bit-for-bit.

use std::fmt;

/// A bitmap with one bit per payload parcel.
///
/// The parcel size follows the paper: 4 bytes (one bit per instruction)
/// for uncompressed programs, 2 bytes (one bit per 16 bits) "if the
/// compressed instructions in the RISC-V ISA are included in the
/// program".
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ParcelBitmap {
    bits: Vec<u8>,
    parcels: usize,
    granularity: u32,
}

impl ParcelBitmap {
    /// An all-clear bitmap covering `parcels` 16-bit parcels.
    pub fn new(parcels: usize) -> Self {
        Self::with_granularity(parcels, 2)
    }

    /// An all-clear bitmap with an explicit parcel size in bytes
    /// (2 for RVC builds, 4 for uncompressed builds).
    ///
    /// # Panics
    ///
    /// Panics unless `granularity` is 2 or 4.
    pub fn with_granularity(parcels: usize, granularity: u32) -> Self {
        assert!(
            granularity == 2 || granularity == 4,
            "parcel granularity must be 2 or 4 bytes, got {granularity}"
        );
        ParcelBitmap {
            bits: vec![0; parcels.div_ceil(8)],
            parcels,
            granularity,
        }
    }

    /// Parcel size in bytes.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Number of parcels covered.
    pub fn parcels(&self) -> usize {
        self.parcels
    }

    /// Serialized size in bytes (what the package carries).
    pub(crate) fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Mark parcel `i` as encrypted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.parcels,
            "parcel {i} out of range ({})",
            self.parcels
        );
        self.bits[i / 8] |= 1 << (i % 8);
    }

    /// Is parcel `i` marked encrypted? Out-of-range reads are `false`.
    pub fn get(&self, i: usize) -> bool {
        i < self.parcels && (self.bits[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Number of marked parcels.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Serialize to raw bytes (LSB-first parcel order).
    pub fn to_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Rebuild from raw bytes (16-bit parcels).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `parcels` requires.
    pub fn from_bytes(bytes: &[u8], parcels: usize) -> Self {
        assert!(
            bytes.len() >= parcels.div_ceil(8),
            "map truncated: {} bytes for {parcels} parcels",
            bytes.len()
        );
        Self::from_parts(bytes[..parcels.div_ceil(8)].to_vec(), parcels, 2)
    }

    /// Assemble from bits already checked against the geometry:
    /// exactly `⌈parcels / 8⌉` bytes and a granularity of 2 or 4.
    pub(crate) fn from_parts(bits: Vec<u8>, parcels: usize, granularity: u32) -> Self {
        ParcelBitmap {
            bits,
            parcels,
            granularity,
        }
    }

    /// Index of the first marked parcel at or after `from`, skipping
    /// whole all-clear bitmap bytes (8 parcels per step).
    pub(crate) fn next_set(&self, from: usize) -> Option<usize> {
        let mut i = from;
        while i < self.parcels {
            let byte = self.bits[i / 8];
            if byte == 0 {
                i = (i / 8 + 1) * 8;
                continue;
            }
            let rest = byte >> (i % 8);
            if rest == 0 {
                i = (i / 8 + 1) * 8;
                continue;
            }
            let found = i + rest.trailing_zeros() as usize;
            return (found < self.parcels).then_some(found);
        }
        None
    }

    /// Index of the first *clear* parcel at or after `from` (which is
    /// `parcels` when the rest of the map is solid), skipping whole
    /// all-set bitmap bytes.
    pub(crate) fn next_clear(&self, from: usize) -> usize {
        let mut i = from;
        while i < self.parcels {
            let byte = self.bits[i / 8];
            if byte == 0xFF {
                i = (i / 8 + 1) * 8;
                continue;
            }
            let rest = !byte >> (i % 8);
            if rest == 0 {
                i = (i / 8 + 1) * 8;
                continue;
            }
            return (i + rest.trailing_zeros() as usize).min(self.parcels);
        }
        self.parcels
    }
}

impl fmt::Debug for ParcelBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParcelBitmap {{ {}/{} parcels marked }}",
            self.count_ones(),
            self.parcels
        )
    }
}

/// Which parts of the payload are encrypted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverageMap {
    /// The whole payload is encrypted; no map bits are shipped (the
    /// paper: "if the program is fully encrypted, only a 256-bit
    /// signature increase will be seen").
    Full,
    /// Only marked parcels are encrypted; the bitmap ships with the
    /// package at 1 bit per parcel.
    Partial(ParcelBitmap),
}

impl CoverageMap {
    /// Is the byte at `pos` inside an encrypted parcel?
    pub fn covers_byte(&self, pos: usize) -> bool {
        match self {
            CoverageMap::Full => true,
            CoverageMap::Partial(map) => map.get(pos / map.granularity() as usize),
        }
    }

    /// Iterate the maximal contiguous *covered* byte runs intersecting
    /// `range`, as `(start, len)` pairs in ascending order.
    ///
    /// This is the block-transform work list: consumers XOR whole runs
    /// with slice operations instead of testing
    /// [`CoverageMap::covers_byte`] once per byte. For
    /// [`CoverageMap::Full`] the iterator yields the single run
    /// `(range.start, range.len())`; for partial maps, consecutive
    /// marked parcels merge into one run and all-clear / all-set bitmap
    /// bytes are skipped 8 parcels at a time.
    pub fn covered_runs(&self, range: std::ops::Range<usize>) -> CoveredRuns<'_> {
        CoveredRuns {
            map: self,
            pos: range.start,
            end: range.end.max(range.start),
        }
    }

    /// Serialized map size in bytes (0 for full encryption).
    pub fn wire_len(&self) -> usize {
        match self {
            CoverageMap::Full => 0,
            CoverageMap::Partial(map) => map.byte_len(),
        }
    }
}

/// Iterator over contiguous covered byte runs; see
/// [`CoverageMap::covered_runs`].
#[derive(Clone, Debug)]
pub struct CoveredRuns<'a> {
    map: &'a CoverageMap,
    pos: usize,
    end: usize,
}

impl Iterator for CoveredRuns<'_> {
    /// `(start, len)` of one maximal covered byte run.
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.pos >= self.end {
            return None;
        }
        match self.map {
            CoverageMap::Full => {
                let run = (self.pos, self.end - self.pos);
                self.pos = self.end;
                Some(run)
            }
            CoverageMap::Partial(bm) => {
                let g = bm.granularity() as usize;
                let first = bm.next_set(self.pos / g)?;
                // Start mid-parcel when the range begins inside a
                // covered parcel; otherwise at the parcel boundary.
                let start = (first * g).max(self.pos);
                if start >= self.end {
                    self.pos = self.end;
                    return None;
                }
                let run_end = (bm.next_clear(first) * g).min(self.end);
                self.pos = run_end;
                Some((start, run_end - start))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference for the run iterator: per-byte covers_byte scan.
    fn runs_bytewise(map: &CoverageMap, range: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for pos in range {
            if map.covers_byte(pos) {
                match out.last_mut() {
                    Some((s, l)) if *s + *l == pos => *l += 1,
                    _ => out.push((pos, 1)),
                }
            }
        }
        out
    }

    #[test]
    fn bitmap_set_get() {
        let mut m = ParcelBitmap::new(20);
        assert!(!m.get(3));
        m.set(3);
        m.set(19);
        assert!(m.get(3));
        assert!(m.get(19));
        assert!(!m.get(4));
        assert!(!m.get(25), "out of range reads false");
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn bitmap_wire_size_is_one_bit_per_parcel() {
        assert_eq!(ParcelBitmap::new(8).byte_len(), 1);
        assert_eq!(ParcelBitmap::new(9).byte_len(), 2);
        assert_eq!(ParcelBitmap::new(1024).byte_len(), 128);
    }

    #[test]
    fn bitmap_roundtrip() {
        let mut m = ParcelBitmap::new(37);
        for i in [0usize, 5, 17, 36] {
            m.set(i);
        }
        let back = ParcelBitmap::from_bytes(m.to_bytes(), 37);
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_set_out_of_range_panics() {
        ParcelBitmap::new(4).set(4);
    }

    #[test]
    fn full_map_covers_everything_costs_nothing() {
        let m = CoverageMap::Full;
        assert!(m.covers_byte(0));
        assert!(m.covers_byte(12345));
        assert_eq!(m.wire_len(), 0);
    }

    #[test]
    fn covered_runs_full_is_one_run() {
        let m = CoverageMap::Full;
        assert_eq!(m.covered_runs(0..10).collect::<Vec<_>>(), vec![(0, 10)]);
        assert_eq!(m.covered_runs(3..7).collect::<Vec<_>>(), vec![(3, 4)]);
        assert_eq!(m.covered_runs(5..5).count(), 0);
    }

    #[test]
    fn covered_runs_merges_adjacent_parcels() {
        let mut bm = ParcelBitmap::new(8); // 2-byte parcels, 16 bytes
        bm.set(1);
        bm.set(2);
        bm.set(5);
        let m = CoverageMap::Partial(bm);
        // Parcels 1..=2 are bytes 2..6; parcel 5 is bytes 10..12.
        assert_eq!(
            m.covered_runs(0..16).collect::<Vec<_>>(),
            vec![(2, 4), (10, 2)]
        );
    }

    #[test]
    fn covered_runs_clamps_to_range() {
        let mut bm = ParcelBitmap::new(8);
        for p in 0..8 {
            bm.set(p);
        }
        let m = CoverageMap::Partial(bm);
        // Range starts and ends mid-parcel.
        assert_eq!(m.covered_runs(3..13).collect::<Vec<_>>(), vec![(3, 10)]);
        // Range beyond the bitmap: bytes past parcel 8 are uncovered.
        assert_eq!(m.covered_runs(0..100).collect::<Vec<_>>(), vec![(0, 16)]);
    }

    #[test]
    fn covered_runs_matches_bytewise_reference() {
        // Deterministic pseudo-random bitmaps at both granularities.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for granularity in [2u32, 4] {
            for parcels in [0usize, 1, 7, 8, 9, 64, 131] {
                let mut bm = ParcelBitmap::with_granularity(parcels, granularity);
                for p in 0..parcels {
                    if next() & 1 == 1 {
                        bm.set(p);
                    }
                }
                let m = CoverageMap::Partial(bm);
                let len = parcels * granularity as usize + 5;
                for start in [0usize, 1, 3, len / 2] {
                    let got: Vec<_> = m.covered_runs(start..len).collect();
                    assert_eq!(
                        got,
                        runs_bytewise(&m, start..len),
                        "granularity {granularity} parcels {parcels} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_set_and_clear_skip_bytes() {
        let mut bm = ParcelBitmap::new(40);
        bm.set(17);
        bm.set(18);
        bm.set(39);
        assert_eq!(bm.next_set(0), Some(17));
        assert_eq!(bm.next_set(18), Some(18));
        assert_eq!(bm.next_set(19), Some(39));
        assert_eq!(bm.next_set(40), None);
        assert_eq!(bm.next_clear(17), 19);
        assert_eq!(bm.next_clear(39), 40);
        let mut solid = ParcelBitmap::new(20);
        for p in 0..20 {
            solid.set(p);
        }
        assert_eq!(solid.next_clear(0), 20);
    }

    #[test]
    fn partial_map_byte_to_parcel_mapping() {
        let mut bm = ParcelBitmap::new(4);
        bm.set(1); // bytes 2..4
        let m = CoverageMap::Partial(bm);
        assert!(!m.covers_byte(0));
        assert!(!m.covers_byte(1));
        assert!(m.covers_byte(2));
        assert!(m.covers_byte(3));
        assert!(!m.covers_byte(4));
    }
}
