//! The 16-entry shared-weight codebook (paper §III-A).

use std::fmt;

use eie_fixed::Fix16;

use crate::kmeans::{self, kmeans1d};

/// Number of codebook entries addressable by a 4-bit weight index.
pub const CODEBOOK_SIZE: usize = 16;

/// Bits per encoded weight (the paper's "extremely narrow weights").
pub const WEIGHT_BITS: u32 = 4;

/// The shared-weight table `S`: 16 values addressed by 4-bit indices.
///
/// Weight sharing replaces every surviving weight `W_ij` with a 4-bit index
/// `I_ij` into this table (paper Eq. 3). **Index 0 is reserved for the
/// value 0.0**: the relative-index encoding inserts explicit *padding
/// zeros* whenever more than 15 zeros separate two non-zeros (§III-B), and
/// those padded entries must decode to zero so they contribute nothing to
/// the accumulation. Real weights therefore quantize onto indices 1..16.
///
/// # Example
///
/// ```
/// use eie_compress::Codebook;
///
/// let cb = Codebook::fit(&[-1.0, -0.9, 0.5, 0.6, 1.4], 10);
/// let idx = cb.quantize(0.55);
/// assert!(idx > 0); // never the reserved zero entry
/// assert!((cb.lookup(idx) - 0.55).abs() < 0.1);
/// assert_eq!(cb.lookup(0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    /// `values[0] == 0.0`; real centroids at 1..len.
    values: Vec<f32>,
}

impl Codebook {
    /// Builds a codebook from explicit centroid values (entry 0 must not
    /// be supplied; it is added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty, longer than 15, contains a zero or
    /// a non-finite value.
    pub fn from_centroids(centroids: &[f32]) -> Self {
        assert!(
            !centroids.is_empty() && centroids.len() < CODEBOOK_SIZE,
            "need 1..=15 centroids, got {}",
            centroids.len()
        );
        assert!(
            centroids.iter().all(|c| c.is_finite() && *c != 0.0),
            "centroids must be finite and non-zero"
        );
        let mut values = Vec::with_capacity(centroids.len() + 1);
        values.push(0.0);
        values.extend_from_slice(centroids);
        Self { values }
    }

    /// Fits a codebook to a weight sample by 1-D k-means with at most 15
    /// clusters (entry 0 stays reserved for padding zeros).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains non-finite values.
    pub fn fit(weights: &[f32], kmeans_iters: usize) -> Self {
        let mut centroids = kmeans1d(weights, CODEBOOK_SIZE - 1, kmeans_iters);
        // k-means may return a (near-)zero centroid if the data includes
        // tiny weights; nudge exact zeros so entry 0 stays unique.
        for c in centroids.iter_mut() {
            if *c == 0.0 {
                *c = f32::MIN_POSITIVE;
            }
        }
        Self::from_centroids(&centroids)
    }

    /// Number of populated entries, including the reserved zero.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: a codebook has at least the reserved zero entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The decoded value of `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn lookup(&self, index: u8) -> f32 {
        self.values[index as usize]
    }

    /// All entries (entry 0 first).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Quantizes a non-zero weight to the nearest *non-zero* entry's index.
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero or non-finite (zeros are pruned, never
    /// quantized).
    pub fn quantize(&self, w: f32) -> u8 {
        assert!(w.is_finite() && w != 0.0, "cannot quantize a pruned weight");
        (1 + kmeans::nearest(&self.values[1..], w)) as u8
    }

    /// The quantized (decoded) value of a weight: `lookup(quantize(w))`.
    pub fn dequantize(&self, w: f32) -> f32 {
        self.lookup(self.quantize(w))
    }

    /// The codebook as the 16-bit fixed-point table the hardware stores
    /// (paper §IV: "expanded to a 16-bit fixed-point number via a table
    /// look up"). Unpopulated entries read as zero.
    pub fn to_fix16<const FRAC: u32>(&self) -> [Fix16<FRAC>; CODEBOOK_SIZE] {
        let mut table = [Fix16::ZERO; CODEBOOK_SIZE];
        for (i, &v) in self.values.iter().enumerate() {
            table[i] = Fix16::from_f32(v);
        }
        table
    }
}

impl fmt::Display for Codebook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Codebook[{} entries]", self.values.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_zero_is_reserved_zero() {
        let cb = Codebook::from_centroids(&[1.0, -1.0]);
        assert_eq!(cb.lookup(0), 0.0);
        assert_eq!(cb.len(), 3);
    }

    #[test]
    fn quantize_never_returns_zero_index() {
        let cb = Codebook::fit(&[-0.5, -0.4, 0.4, 0.5, 0.01, -0.01], 20);
        for &w in &[-0.5f32, 0.01, 0.45, -0.01] {
            assert!(cb.quantize(w) > 0, "weight {w} mapped to reserved zero");
        }
    }

    #[test]
    fn dequantize_error_bounded_by_cluster_spread() {
        let weights: Vec<f32> = (0..500)
            .map(|i| ((i as f32 * 0.77).sin()) * 1.5)
            .filter(|&w| w != 0.0)
            .collect();
        let cb = Codebook::fit(&weights, 50);
        // 15 clusters over range ±1.5 → worst error well under half the
        // range divided by cluster count.
        let err = weights
            .iter()
            .map(|&w| (cb.dequantize(w) - w).abs())
            .fold(0.0, f32::max);
        assert!(err < 3.0 / 15.0, "max quantization error {err}");
    }

    #[test]
    fn fix16_table_has_16_slots() {
        let cb = Codebook::from_centroids(&[0.5]);
        let table = cb.to_fix16::<8>();
        assert_eq!(table.len(), CODEBOOK_SIZE);
        assert_eq!(table[0], Fix16::ZERO);
        assert_eq!(table[1].to_f32(), 0.5);
        assert_eq!(table[15], Fix16::ZERO); // unpopulated
    }

    #[test]
    fn fit_handles_duplicate_heavy_data() {
        let mut data = vec![0.3f32; 100];
        data.extend(vec![-0.7f32; 100]);
        let cb = Codebook::fit(&data, 30);
        assert!((cb.dequantize(0.3) - 0.3).abs() < 1e-6);
        assert!((cb.dequantize(-0.7) + 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "pruned weight")]
    fn quantize_rejects_zero() {
        let cb = Codebook::from_centroids(&[1.0]);
        let _ = cb.quantize(0.0);
    }

    #[test]
    #[should_panic(expected = "1..=15 centroids")]
    fn rejects_too_many_centroids() {
        let centroids: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        let _ = Codebook::from_centroids(&centroids);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_centroid() {
        let _ = Codebook::from_centroids(&[1.0, 0.0]);
    }
}
