#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Structural FPGA resource model (Table II).
//!
//! The paper synthesizes Rocket Chip with and without the HDE on a
//! Xilinx Zedboard and reports slice LUT / flip-flop totals (Table II):
//!
//! | | Rocket Chip | + HDE | change |
//! |---|---|---|---|
//! | LUTs | 33 894 | 34 811 | +2.63 % |
//! | FFs  | 19 093 | 19 854 | +3.83 % |
//!
//! Without Vivado, area comes from a *structural estimator*: a design
//! is a [`Module`] tree whose leaves carry primitive resource counts
//! ([`prim`]) based on standard 7-series mapping rules (one 6-input
//! LUT per 1–2 logic bits, one FF per register bit, ~3 bits per LUT
//! for wide comparators, carry chains for adders). The Rocket baseline
//! ([`rocket`]) is calibrated to the published totals; the HDE
//! ([`hde`]) is built bottom-up from its five units. [`table2`]
//! rolls both up into the paper's table.

pub mod hde;
pub mod module;
pub mod prim;
pub mod rocket;

pub use module::{Module, Resources};

/// Table II reproduced: baseline, baseline+HDE, and percent changes.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2 {
    /// Rocket Chip alone.
    pub rocket: Resources,
    /// Rocket Chip with the HDE attached.
    pub with_hde: Resources,
}

impl Table2 {
    /// LUT overhead in percent.
    pub fn lut_change_pct(&self) -> f64 {
        100.0 * (self.with_hde.luts as f64 - self.rocket.luts as f64) / self.rocket.luts as f64
    }

    /// Flip-flop overhead in percent.
    pub fn ff_change_pct(&self) -> f64 {
        100.0 * (self.with_hde.ffs as f64 - self.rocket.ffs as f64) / self.rocket.ffs as f64
    }
}

/// Compute Table II from the structural models.
///
/// ```rust
/// let t = eric_rtl::table2();
/// assert_eq!(t.rocket.luts, 33_894);
/// assert!(t.lut_change_pct() < 5.0);
/// ```
pub fn table2() -> Table2 {
    let rocket = rocket::rocket_chip().total();
    let hde = hde::hde().total();
    Table2 {
        rocket,
        with_hde: Resources {
            luts: rocket.luts + hde.luts,
            ffs: rocket.ffs + hde.ffs,
            brams: rocket.brams + hde.brams,
            dsps: rocket.dsps + hde.dsps,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_published_totals() {
        let t = table2();
        assert_eq!(t.rocket.luts, 33_894);
        assert_eq!(t.rocket.ffs, 19_093);
    }

    #[test]
    fn overheads_match_paper_shape() {
        let t = table2();
        // Paper: +2.63 % LUTs, +3.83 % FFs. The structural estimate
        // must land in the same small-overhead regime (< 5 %), with FF
        // overhead exceeding LUT overhead as in the paper.
        let lut = t.lut_change_pct();
        let ff = t.ff_change_pct();
        assert!(lut > 1.0 && lut < 5.0, "LUT overhead {lut:.2}%");
        assert!(ff > 1.0 && ff < 6.0, "FF overhead {ff:.2}%");
        assert!(
            ff > lut,
            "paper shape: FF overhead ({ff:.2}) > LUT overhead ({lut:.2})"
        );
    }
}
