//! On-the-fly precision reduction primitives.
//!
//! These are the bit-level helpers used by the SySMT PE (§III-C, §IV-C): a
//! thread whose operands need more than 4 bits is "squeezed" by rounding the
//! 8-bit value to the nearest multiple of 16 and keeping its 4-bit MSBs; a
//! thread whose operands already fit in 4 bits can keep its LSBs and incurs no
//! error.

use serde::{Deserialize, Serialize};

/// Which nibble of the original 8-bit value a reduced operand carries, and
/// therefore whether the multiplier output must be shifted left by 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NibbleSelect {
    /// The operand kept its 4 LSBs (value was already narrow): no shift.
    Lsb,
    /// The operand was rounded and truncated to its 4 MSBs: the product must
    /// be shifted left by 4.
    Msb,
}

impl NibbleSelect {
    /// Post-multiplication shift amount implied by the selection.
    pub fn shift(self) -> u32 {
        match self {
            NibbleSelect::Lsb => 0,
            NibbleSelect::Msb => 4,
        }
    }
}

/// Returns `true` when an unsigned 8-bit activation is already representable
/// by its 4-bit LSBs (its 4 MSBs are zero).
pub fn fits_nibble_unsigned(v: u8) -> bool {
    v < 16
}

/// Returns `true` when a signed 8-bit weight is already representable by a
/// signed 4-bit nibble (`-8 ..= 7`).
pub fn fits_nibble_signed(v: i8) -> bool {
    (-8..=7).contains(&v)
}

/// Rounds an unsigned 8-bit value to the nearest multiple of 16 and returns
/// the resulting 4-bit MSB nibble (clamped to 15).
///
/// This is the paper's on-the-fly quantization: "before reducing the 8-bit
/// value to 4 bits, we round the number to the nearest integer that is a
/// whole multiple of 16".
pub fn round_to_nibble_unsigned(v: u8) -> u8 {
    let rounded = ((v as u32 + 8) / 16).min(15);
    rounded as u8
}

/// Rounds a signed 8-bit value to the nearest multiple of 16 and returns the
/// resulting signed 4-bit nibble (clamped to `-8 ..= 7`).
pub fn round_to_nibble_signed(v: i8) -> i8 {
    let x = v as f32 / 16.0;
    let rounded = x.round().clamp(-8.0, 7.0);
    rounded as i8
}

/// Extracts the 4-bit LSBs of an unsigned value (no rounding, no error when
/// the value already fits in 4 bits).
pub fn lsb_unsigned(v: u8) -> u8 {
    v & 0x0F
}

/// Extracts the signed value of a signed 8-bit weight that fits in a nibble.
///
/// For weights that fit in `-8 ..= 7` this is the identity; wider weights
/// are truncated to their low nibble interpreted as two's complement, which
/// matches what the hardware datapath would produce if fed un-reduced.
pub fn lsb_signed(v: i8) -> i8 {
    let nibble = (v as u8) & 0x0F;
    // Sign-extend the 4-bit two's complement nibble.
    if nibble & 0x8 != 0 {
        (nibble as i8) | !0x0F
    } else {
        nibble as i8
    }
}

/// A reduced unsigned operand: the nibble value plus which nibble it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducedUnsigned {
    /// 4-bit value (0..=15).
    pub nibble: u8,
    /// Whether a post-multiplication shift is required.
    pub select: NibbleSelect,
}

/// A reduced signed operand: the nibble value plus which nibble it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducedSigned {
    /// Signed 4-bit value (−8..=7).
    pub nibble: i8,
    /// Whether a post-multiplication shift is required.
    pub select: NibbleSelect,
}

/// Reduces an unsigned activation to 4 bits, preferring the error-free LSB
/// path when the value already fits.
pub fn reduce_unsigned(v: u8) -> ReducedUnsigned {
    if fits_nibble_unsigned(v) {
        ReducedUnsigned {
            nibble: lsb_unsigned(v),
            select: NibbleSelect::Lsb,
        }
    } else {
        ReducedUnsigned {
            nibble: round_to_nibble_unsigned(v),
            select: NibbleSelect::Msb,
        }
    }
}

/// Reduces a signed weight to 4 bits, preferring the error-free LSB path when
/// the value already fits.
pub fn reduce_signed(v: i8) -> ReducedSigned {
    if fits_nibble_signed(v) {
        ReducedSigned {
            nibble: v,
            select: NibbleSelect::Lsb,
        }
    } else {
        ReducedSigned {
            nibble: round_to_nibble_signed(v),
            select: NibbleSelect::Msb,
        }
    }
}

/// Reconstructs the approximate 8-bit unsigned value a reduced operand stands
/// for (nibble shifted back into place). Used in tests and error analysis.
pub fn reconstruct_unsigned(r: ReducedUnsigned) -> u8 {
    match r.select {
        NibbleSelect::Lsb => r.nibble,
        NibbleSelect::Msb => r.nibble.saturating_mul(16),
    }
}

/// Reconstructs the approximate signed value a reduced operand stands for.
pub fn reconstruct_signed(r: ReducedSigned) -> i16 {
    match r.select {
        NibbleSelect::Lsb => r.nibble as i16,
        NibbleSelect::Msb => r.nibble as i16 * 16,
    }
}

/// Worst-case absolute error introduced by reducing an unsigned value.
pub fn reduction_error_unsigned(v: u8) -> u32 {
    let r = reduce_unsigned(v);
    (v as i32 - reconstruct_unsigned(r) as i32).unsigned_abs()
}

/// Worst-case absolute error introduced by reducing a signed value.
pub fn reduction_error_signed(v: i8) -> u32 {
    let r = reduce_signed(v);
    (v as i32 - reconstruct_signed(r) as i32).unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's on-the-fly quantization written out: round `v` to the
    /// nearest whole multiple of 16 (ties away from zero) and keep the
    /// multiple's nibble, saturated to `lo ..= hi`.
    fn paper_nibble(v: i32, lo: i32, hi: i32) -> i32 {
        let nearest = (-8..=16)
            .map(|q| q * 16)
            .min_by_key(|&m: &i32| ((m - v).abs(), -m.abs()))
            .expect("non-empty range");
        (nearest / 16).clamp(lo, hi)
    }

    #[test]
    fn nibble_helpers_follow_the_paper_on_every_input() {
        for byte in 0..=255u8 {
            // Unsigned activations: 4-bit MSB nibble in 0..=15; fits iff the
            // 4 MSBs are zero.
            let u = i32::from(byte);
            assert_eq!(
                i32::from(round_to_nibble_unsigned(byte)),
                paper_nibble(u, 0, 15),
                "unsigned {byte}"
            );
            assert_eq!(
                fits_nibble_unsigned(byte),
                byte >> 4 == 0,
                "unsigned {byte}"
            );
            // Signed weights: signed nibble in -8..=7; fits iff the value
            // equals its own sign-extended low nibble.
            let v = byte as i8;
            assert_eq!(
                i32::from(round_to_nibble_signed(v)),
                paper_nibble(i32::from(v), -8, 7),
                "signed {v}"
            );
            assert_eq!(fits_nibble_signed(v), (v << 4) >> 4 == v, "signed {v}");
        }
    }

    #[test]
    fn nibble_fit_checks() {
        assert!(fits_nibble_unsigned(0));
        assert!(fits_nibble_unsigned(15));
        assert!(!fits_nibble_unsigned(16));
        assert!(fits_nibble_signed(7));
        assert!(fits_nibble_signed(-8));
        assert!(!fits_nibble_signed(8));
        assert!(!fits_nibble_signed(-9));
    }

    #[test]
    fn paper_example_fig2a() {
        // Fig. 2a: X values 46 and 178 are rounded+truncated to 3 and 11.
        assert_eq!(round_to_nibble_unsigned(46), 3);
        assert_eq!(round_to_nibble_unsigned(178), 11);
    }

    #[test]
    fn rounding_unsigned_properties() {
        assert_eq!(round_to_nibble_unsigned(0), 0);
        assert_eq!(round_to_nibble_unsigned(7), 0);
        assert_eq!(round_to_nibble_unsigned(8), 1);
        assert_eq!(round_to_nibble_unsigned(255), 15);
        assert_eq!(round_to_nibble_unsigned(248), 15);
        for v in 0..=255u8 {
            let n = round_to_nibble_unsigned(v);
            assert!(n <= 15);
            // Rounding error is at most 8 except when clamped at the top.
            if v < 248 {
                assert!((v as i32 - n as i32 * 16).abs() <= 8, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn rounding_signed_properties() {
        assert_eq!(round_to_nibble_signed(0), 0);
        assert_eq!(round_to_nibble_signed(127), 7);
        assert_eq!(round_to_nibble_signed(-128), -8);
        assert_eq!(round_to_nibble_signed(100), 6);
        for v in i8::MIN..=i8::MAX {
            let n = round_to_nibble_signed(v);
            assert!((-8..=7).contains(&n));
            if (-120..=112).contains(&v) {
                assert!((v as i32 - n as i32 * 16).abs() <= 8, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn lsb_extraction() {
        assert_eq!(lsb_unsigned(0x17), 0x7);
        assert_eq!(lsb_unsigned(0x0F), 0x0F);
        assert_eq!(lsb_signed(7), 7);
        assert_eq!(lsb_signed(-8), -8);
        assert_eq!(lsb_signed(-1), -1);
        // A wide weight truncates (with wraparound) — only used when the PE
        // logic has already decided no error-free path exists.
        assert_eq!(lsb_signed(0x17), 7);
    }

    #[test]
    fn reduce_prefers_error_free_path() {
        let r = reduce_unsigned(9);
        assert_eq!(r.select, NibbleSelect::Lsb);
        assert_eq!(r.nibble, 9);
        assert_eq!(reduction_error_unsigned(9), 0);

        let r = reduce_unsigned(46);
        assert_eq!(r.select, NibbleSelect::Msb);
        assert_eq!(r.nibble, 3);

        let r = reduce_signed(-5);
        assert_eq!(r.select, NibbleSelect::Lsb);
        assert_eq!(reduction_error_signed(-5), 0);

        let r = reduce_signed(100);
        assert_eq!(r.select, NibbleSelect::Msb);
        assert_eq!(r.nibble, 6);
    }

    #[test]
    fn reduction_error_is_bounded() {
        for v in 0..=255u8 {
            assert!(reduction_error_unsigned(v) <= 15, "v={v}");
        }
        for v in i8::MIN..=i8::MAX {
            assert!(reduction_error_signed(v) <= 16, "v={v}");
        }
    }

    #[test]
    fn nibble_select_shift() {
        assert_eq!(NibbleSelect::Lsb.shift(), 0);
        assert_eq!(NibbleSelect::Msb.shift(), 4);
    }
}
