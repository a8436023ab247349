//! MAC-utilization and data-width statistics.
//!
//! Figure 1 of the paper classifies every MAC operation of a quantized CNN
//! into three buckets: *idle* (at least one operand is zero), *partially
//! utilized* (both operands non-zero but at least one fits in 4 bits), and
//! *fully utilized* (both operands need the full 8 bits). This module
//! computes that breakdown for activation/weight matrix pairs, plus the
//! per-tensor sparsity and data-width histograms used elsewhere.

use serde::{Deserialize, Serialize};

use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::reduce::{fits_nibble_signed, fits_nibble_unsigned};

/// Classification of a single MAC operation by the effective data width of
/// its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MacClass {
    /// At least one operand is zero: the MAC unit is effectively idle.
    Idle,
    /// Both operands are non-zero and at least one fits in 4 bits
    /// (4b-8b, 8b-4b, or 4b-4b).
    PartiallyUtilized,
    /// Both operands need the full 8 bits.
    FullyUtilized,
}

/// Classifies one activation/weight operand pair.
pub fn classify_mac(x: u8, w: i8) -> MacClass {
    if x == 0 || w == 0 {
        MacClass::Idle
    } else if fits_nibble_unsigned(x) || fits_nibble_signed(w) {
        MacClass::PartiallyUtilized
    } else {
        MacClass::FullyUtilized
    }
}

/// Aggregate MAC-utilization breakdown (the three bars of Fig. 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationBreakdown {
    /// Number of idle MAC operations.
    pub idle: u64,
    /// Number of partially utilized MAC operations.
    pub partial: u64,
    /// Number of fully utilized MAC operations.
    pub full: u64,
}

impl UtilizationBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of classified MAC operations.
    pub fn total(&self) -> u64 {
        self.idle + self.partial + self.full
    }

    /// Records one MAC classification.
    pub fn record(&mut self, class: MacClass) {
        match class {
            MacClass::Idle => self.idle += 1,
            MacClass::PartiallyUtilized => self.partial += 1,
            MacClass::FullyUtilized => self.full += 1,
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &UtilizationBreakdown) {
        self.idle += other.idle;
        self.partial += other.partial;
        self.full += other.full;
    }

    /// Fraction of idle MACs.
    pub fn idle_fraction(&self) -> f64 {
        self.fraction(self.idle)
    }

    /// Fraction of partially utilized MACs.
    pub fn partial_fraction(&self) -> f64 {
        self.fraction(self.partial)
    }

    /// Fraction of fully utilized MACs.
    pub fn full_fraction(&self) -> f64 {
        self.fraction(self.full)
    }

    /// Fraction of MACs that keep the unit busy in any capacity
    /// (non-idle), i.e. the "utilization" used by the power model.
    pub fn busy_fraction(&self) -> f64 {
        self.fraction(self.partial + self.full)
    }

    fn fraction(&self, n: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            n as f64 / t as f64
        }
    }
}

/// Computes the MAC-utilization breakdown of a full `X (M×K) · W (K×N)`
/// layer: every output element visits every `(x, w)` pair along `K`.
///
/// For large layers an exact enumeration is `M·K·N` pairs; `col_stride`
/// subsamples output columns (weights) to keep the cost bounded while
/// remaining exact over the sampled columns. `col_stride = 1` is exact.
///
/// # Panics
///
/// Panics when the reduction dimensions of `x` and `w` differ or when
/// `col_stride == 0`.
pub fn layer_utilization(
    x: &QuantMatrix,
    w: &QuantWeightMatrix,
    col_stride: usize,
) -> UtilizationBreakdown {
    assert_eq!(x.cols(), w.rows(), "reduction dimensions must match");
    assert!(col_stride > 0, "column stride must be positive");
    let mut breakdown = UtilizationBreakdown::new();
    let k = x.cols();
    let xv = x.values().as_slice();
    let wv = w.values().as_slice();
    let n = w.cols();
    for i in 0..x.rows() {
        let xrow = &xv[i * k..(i + 1) * k];
        let mut j = 0;
        while j < n {
            for p in 0..k {
                breakdown.record(classify_mac(xrow[p], wv[p * n + j]));
            }
            j += col_stride;
        }
    }
    breakdown
}

/// Per-tensor statistics of a quantized activation matrix: sparsity and
/// effective data-width fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationStats {
    /// Fraction of exact zeros.
    pub sparsity: f64,
    /// Fraction of non-zero values that fit in 4 bits.
    pub narrow: f64,
    /// Fraction of values needing the full 8 bits.
    pub wide: f64,
}

/// Computes [`ActivationStats`] for a quantized activation matrix.
pub fn activation_stats(x: &QuantMatrix) -> ActivationStats {
    let total = x.values().as_slice().len();
    if total == 0 {
        return ActivationStats {
            sparsity: 0.0,
            narrow: 0.0,
            wide: 0.0,
        };
    }
    let mut zeros = 0usize;
    let mut narrow = 0usize;
    for &v in x.values().as_slice() {
        if v == 0 {
            zeros += 1;
        } else if fits_nibble_unsigned(v) {
            narrow += 1;
        }
    }
    let wide = total - zeros - narrow;
    ActivationStats {
        sparsity: zeros as f64 / total as f64,
        narrow: narrow as f64 / total as f64,
        wide: wide as f64 / total as f64,
    }
}

/// Per-column statistics of an activation matrix, used by the reordering
/// pass: the fraction of wide (8-bit) values in each column of `X`.
pub fn per_column_wide_fraction(x: &QuantMatrix) -> Vec<f64> {
    per_column_fraction(x, |v| v != 0 && !fits_nibble_unsigned(v))
}

/// Per-column zero fraction of an activation matrix.
pub fn per_column_zero_fraction(x: &QuantMatrix) -> Vec<f64> {
    per_column_fraction(x, |v| v == 0)
}

/// Fraction of rows whose value in each column satisfies `pred`. Counts go
/// row slice by row slice into `u32` lanes so the loop vectorises; blocks
/// of at most `u32::MAX` rows keep the lanes from wrapping.
fn per_column_fraction(x: &QuantMatrix, pred: impl Fn(u8) -> bool) -> Vec<f64> {
    let (rows, cols) = (x.rows(), x.cols());
    let mut counts = vec![0u64; cols];
    if cols > 0 {
        let mut lanes = vec![0u32; cols];
        let block = cols.saturating_mul(u32::MAX as usize);
        for rows_block in x.values().as_slice().chunks(block) {
            for row in rows_block.chunks_exact(cols) {
                for (lane, &v) in lanes.iter_mut().zip(row) {
                    *lane += u32::from(pred(v));
                }
            }
            for (count, lane) in counts.iter_mut().zip(lanes.iter_mut()) {
                *count += u64::from(std::mem::take(lane));
            }
        }
    }
    counts
        .iter()
        .map(|&n| {
            if rows == 0 {
                0.0
            } else {
                n as f64 / rows as f64
            }
        })
        .collect()
}

/// The per-column statistics as first written (a branchy `usize` count per
/// element), kept as test oracles for the vectorised versions.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    fn fractions(counts: Vec<usize>, rows: usize) -> Vec<f64> {
        counts
            .iter()
            .map(|&n| {
                if rows == 0 {
                    0.0
                } else {
                    n as f64 / rows as f64
                }
            })
            .collect()
    }

    pub(crate) fn per_column_wide_fraction(x: &QuantMatrix) -> Vec<f64> {
        let (rows, cols) = (x.rows(), x.cols());
        let mut wide = vec![0usize; cols];
        let xv = x.values().as_slice();
        for r in 0..rows {
            for c in 0..cols {
                let v = xv[r * cols + c];
                if v != 0 && !fits_nibble_unsigned(v) {
                    wide[c] += 1;
                }
            }
        }
        fractions(wide, rows)
    }

    pub(crate) fn per_column_zero_fraction(x: &QuantMatrix) -> Vec<f64> {
        let (rows, cols) = (x.rows(), x.cols());
        let mut zeros = vec![0usize; cols];
        let xv = x.values().as_slice();
        for r in 0..rows {
            for c in 0..cols {
                if xv[r * cols + c] == 0 {
                    zeros[c] += 1;
                }
            }
        }
        fractions(zeros, rows)
    }

    /// A seeded `rows × cols` activation matrix: a third zeros, the rest
    /// split between narrow and wide values.
    pub(crate) fn random_activations(rows: usize, cols: usize, seed: u64) -> QuantMatrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (state >> 33) as u8;
                match (state >> 60) % 3 {
                    0 => 0,
                    1 => v % 16,
                    _ => v,
                }
            })
            .collect();
        QuantMatrix::new(
            nbsmt_tensor::tensor::Matrix::from_vec(data, rows, cols).expect("dims"),
            1.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_tensor::tensor::Matrix;

    #[test]
    fn per_column_fractions_match_the_oracle() {
        let mut seed = 0;
        for rows in [0usize, 1, 3, 17, 64] {
            for cols in [0usize, 1, 5, 33] {
                seed += 1;
                let x = oracle::random_activations(rows, cols, seed);
                assert_eq!(
                    per_column_wide_fraction(&x),
                    oracle::per_column_wide_fraction(&x),
                    "{rows}x{cols}"
                );
                assert_eq!(
                    per_column_zero_fraction(&x),
                    oracle::per_column_zero_fraction(&x),
                    "{rows}x{cols}"
                );
            }
        }
    }

    fn qx(data: Vec<u8>, rows: usize, cols: usize) -> QuantMatrix {
        QuantMatrix::new(Matrix::from_vec(data, rows, cols).unwrap(), 1.0)
    }

    fn qw(data: Vec<i8>, rows: usize, cols: usize) -> QuantWeightMatrix {
        QuantWeightMatrix::with_uniform_scale(Matrix::from_vec(data, rows, cols).unwrap(), 1.0)
    }

    #[test]
    fn classify_mac_covers_all_cases() {
        assert_eq!(classify_mac(0, 100), MacClass::Idle);
        assert_eq!(classify_mac(100, 0), MacClass::Idle);
        assert_eq!(classify_mac(0, 0), MacClass::Idle);
        assert_eq!(classify_mac(5, 100), MacClass::PartiallyUtilized);
        assert_eq!(classify_mac(100, 5), MacClass::PartiallyUtilized);
        assert_eq!(classify_mac(5, 5), MacClass::PartiallyUtilized);
        assert_eq!(classify_mac(100, 100), MacClass::FullyUtilized);
        assert_eq!(classify_mac(16, 8), MacClass::FullyUtilized);
        assert_eq!(classify_mac(15, 8), MacClass::PartiallyUtilized);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = UtilizationBreakdown::new();
        for _ in 0..6 {
            b.record(MacClass::Idle);
        }
        for _ in 0..2 {
            b.record(MacClass::PartiallyUtilized);
        }
        for _ in 0..2 {
            b.record(MacClass::FullyUtilized);
        }
        assert_eq!(b.total(), 10);
        assert!((b.idle_fraction() - 0.6).abs() < 1e-12);
        assert!((b.partial_fraction() - 0.2).abs() < 1e-12);
        assert!((b.full_fraction() - 0.2).abs() < 1e-12);
        assert!((b.busy_fraction() - 0.4).abs() < 1e-12);
        let sum = b.idle_fraction() + b.partial_fraction() + b.full_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = UtilizationBreakdown::new();
        assert_eq!(b.total(), 0);
        assert_eq!(b.idle_fraction(), 0.0);
        assert_eq!(b.busy_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = UtilizationBreakdown {
            idle: 1,
            partial: 2,
            full: 3,
        };
        let b = UtilizationBreakdown {
            idle: 10,
            partial: 20,
            full: 30,
        };
        a.merge(&b);
        assert_eq!(a.idle, 11);
        assert_eq!(a.partial, 22);
        assert_eq!(a.full, 33);
    }

    #[test]
    fn layer_utilization_exact_small_case() {
        // X = [[0, 200], [5, 20]], W = [[100], [3]]
        let x = qx(vec![0, 200, 5, 20], 2, 2);
        let w = qw(vec![100, 3], 2, 1);
        let b = layer_utilization(&x, &w, 1);
        // Pairs: (0,100)=idle, (200,3)=partial, (5,100)=partial, (20,3)=partial
        assert_eq!(b.total(), 4);
        assert_eq!(b.idle, 1);
        assert_eq!(b.partial, 3);
        assert_eq!(b.full, 0);
    }

    #[test]
    fn layer_utilization_column_stride_subsamples() {
        let x = qx(vec![100; 8], 2, 4);
        let w = qw(vec![100; 16], 4, 4);
        let exact = layer_utilization(&x, &w, 1);
        let sampled = layer_utilization(&x, &w, 2);
        assert_eq!(exact.total(), 2 * 4 * 4);
        assert_eq!(sampled.total(), 2 * 4 * 2);
        assert!((exact.full_fraction() - sampled.full_fraction()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reduction dimensions must match")]
    fn layer_utilization_panics_on_mismatch() {
        let x = qx(vec![0; 4], 2, 2);
        let w = qw(vec![0; 3], 3, 1);
        layer_utilization(&x, &w, 1);
    }

    #[test]
    fn activation_stats_partitions() {
        let x = qx(vec![0, 0, 3, 15, 16, 200, 255, 1], 2, 4);
        let s = activation_stats(&x);
        assert!((s.sparsity - 0.25).abs() < 1e-12);
        assert!((s.narrow - 3.0 / 8.0).abs() < 1e-12);
        assert!((s.wide - 3.0 / 8.0).abs() < 1e-12);
        assert!((s.sparsity + s.narrow + s.wide - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_column_statistics() {
        // Column 0: [0, 0] zeros; column 1: [200, 100] wide; column 2: [5, 0] mixed.
        let x = qx(vec![0, 200, 5, 0, 100, 0], 2, 3);
        let wide = per_column_wide_fraction(&x);
        assert_eq!(wide, vec![0.0, 1.0, 0.0]);
        let zeros = per_column_zero_fraction(&x);
        assert_eq!(zeros, vec![1.0, 0.0, 0.5]);
    }
}
