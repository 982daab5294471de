//! Magnitude pruning: the first stage of Deep Compression.
//!
//! Pruning removes the connections with the smallest absolute weights.
//! Deep Compression then retrains the survivors; retraining is out of
//! scope here (the benchmark layers arrive pre-pruned from the zoo), but
//! pruning is still exercised by the quickstart path: dense layer →
//! [`prune_to_density`] → codebook → encode.

use eie_nn::{CsrMatrix, Matrix};

/// Prunes all weights with `|w| < threshold`.
///
/// # Example
///
/// ```
/// use eie_compress::prune::prune_threshold;
/// use eie_nn::Matrix;
///
/// let w = Matrix::from_rows(&[&[0.05, -2.0], &[0.9, -0.01]]);
/// let sparse = prune_threshold(&w, 0.1);
/// assert_eq!(sparse.nnz(), 2);
/// ```
pub fn prune_threshold(m: &Matrix, threshold: f32) -> CsrMatrix {
    let mut triplets = Vec::new();
    for r in 0..m.rows() {
        for (c, &v) in m.row(r).iter().enumerate() {
            if v.abs() >= threshold && v != 0.0 {
                triplets.push((r, c, v));
            }
        }
    }
    CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets)
}

/// Prunes the smallest-magnitude weights until at most `density` of the
/// elements survive.
///
/// The threshold is the `(1 - density)` quantile of `|w|`, so the exact
/// surviving count can differ slightly when many weights tie.
///
/// # Panics
///
/// Panics unless `0 < density <= 1`.
pub fn prune_to_density(m: &Matrix, density: f64) -> CsrMatrix {
    assert!(
        density > 0.0 && density <= 1.0,
        "density must be in (0, 1], got {density}"
    );
    let total = m.rows() * m.cols();
    let keep = ((total as f64) * density).round().max(1.0) as usize;
    if keep >= total {
        return prune_threshold(m, 0.0);
    }
    let mut magnitudes: Vec<f32> = m.as_slice().iter().map(|v| v.abs()).collect();
    let cut_index = total - keep;
    magnitudes.select_nth_unstable_by(cut_index, |a, b| a.partial_cmp(b).unwrap());
    let threshold = magnitudes[cut_index];
    // Threshold of 0 would keep explicit zeros out anyway (they are never
    // stored), but make sure we keep at least something.
    prune_threshold(m, threshold.max(f32::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Matrix {
        // Strictly increasing magnitudes, alternating signs.
        Matrix::from_fn(rows, cols, |r, c| {
            let i = (r * cols + c + 1) as f32;
            if (r + c) % 2 == 0 {
                i
            } else {
                -i
            }
        })
    }

    #[test]
    fn threshold_keeps_only_large_magnitudes() {
        let m = ramp(4, 4);
        let s = prune_threshold(&m, 9.0);
        assert_eq!(s.nnz(), 8); // magnitudes 9..=16
        for (_, _, v) in s.iter() {
            assert!(v.abs() >= 9.0);
        }
    }

    #[test]
    fn density_target_is_met() {
        let m = ramp(10, 10);
        for &d in &[0.04f64, 0.1, 0.25, 0.5, 1.0] {
            let s = prune_to_density(&m, d);
            let achieved = s.density();
            assert!(
                (achieved - d).abs() <= 0.02,
                "target {d} achieved {achieved}"
            );
        }
    }

    #[test]
    fn pruning_preserves_surviving_values() {
        let m = ramp(6, 6);
        let s = prune_to_density(&m, 0.25);
        for (r, c, v) in s.iter() {
            assert_eq!(v, m.get(r, c));
        }
    }

    #[test]
    fn full_density_keeps_all_nonzeros() {
        let mut m = ramp(3, 3);
        m.set(1, 1, 0.0);
        let s = prune_to_density(&m, 1.0);
        assert_eq!(s.nnz(), 8);
    }

    #[test]
    fn prune_smallest_first() {
        let m = ramp(4, 4);
        let s = prune_to_density(&m, 0.5);
        // Survivors must be the 8 largest magnitudes (9..=16).
        let mut mags: Vec<f32> = s.values().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(mags.first().copied(), Some(9.0));
        assert_eq!(mags.last().copied(), Some(16.0));
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_zero_density() {
        let _ = prune_to_density(&ramp(2, 2), 0.0);
    }
}
