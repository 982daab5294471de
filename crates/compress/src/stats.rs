//! Encoding statistics: padding overhead, storage footprint, load spread.
//!
//! These statistics drive the paper's Fig. 12 (real work / total work vs.
//! PE count) and the compression-ratio accounting of §I/§VIII. What Deep
//! Compression's final Huffman stage would store is the
//! `huffman-packed` codec's exact length
//! ([`WeightCodec::encoded_bytes`](crate::WeightCodec::encoded_bytes)).

use std::fmt;

use crate::{EncodedLayer, PeSlice};

/// Statistics of an [`EncodedLayer`].
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingStats {
    /// Matrix rows (outputs).
    pub rows: usize,
    /// Matrix columns (inputs).
    pub cols: usize,
    /// PEs the layer is partitioned over.
    pub num_pes: usize,
    /// Real (non-padding) entries = matrix non-zeros.
    pub real_entries: usize,
    /// Inserted padding zeros (wasted work; paper Fig. 12).
    pub padding_entries: usize,
    /// Entries per PE (padding included), indexed by PE.
    pub entries_per_pe: Vec<usize>,
    /// Sparse-matrix SRAM bytes: one packed byte per entry at 4+4 bits.
    pub spmat_bytes: usize,
    /// Pointer SRAM bytes: `num_pes × (cols + 1)` 16-bit pointers.
    pub ptr_bytes: usize,
    /// Codebook bytes (16 × 16-bit).
    pub codebook_bytes: usize,
    /// The uncompressed dense layer footprint (f32).
    pub dense_bytes: usize,
}

impl EncodingStats {
    /// Computes statistics for a layer.
    pub fn from_layer(layer: &EncodedLayer) -> Self {
        let entries_per_pe: Vec<usize> = layer.slices().iter().map(PeSlice::num_entries).collect();
        let total: usize = entries_per_pe.iter().sum();
        let padding: usize = layer.slices().iter().map(PeSlice::padding_entries).sum();
        let entry_bits = (crate::WEIGHT_BITS + layer.index_bits()) as usize;
        Self {
            rows: layer.rows(),
            cols: layer.cols(),
            num_pes: layer.num_pes(),
            real_entries: total - padding,
            padding_entries: padding,
            entries_per_pe,
            spmat_bytes: (total * entry_bits).div_ceil(8),
            ptr_bytes: layer.num_pes() * (layer.cols() + 1) * 2,
            codebook_bytes: crate::CODEBOOK_SIZE * 2,
            dense_bytes: layer.rows() * layer.cols() * 4,
        }
    }

    /// Total entries, padding included.
    pub fn total_entries(&self) -> usize {
        self.real_entries + self.padding_entries
    }

    /// Real work divided by total work — the y-axis of paper Fig. 12.
    /// 1.0 means no padding overhead.
    pub fn real_work_ratio(&self) -> f64 {
        if self.total_entries() == 0 {
            return 1.0;
        }
        self.real_entries as f64 / self.total_entries() as f64
    }

    /// Total compressed bytes (spmat + pointers + codebook).
    pub fn compressed_bytes(&self) -> usize {
        self.spmat_bytes + self.ptr_bytes + self.codebook_bytes
    }

    /// Dense-f32 bytes divided by compressed bytes.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes as f64 / self.compressed_bytes() as f64
    }
}

impl fmt::Display for EncodingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} on {} PEs: {} real + {} padding entries, {:.1}x compression",
            self.rows,
            self.cols,
            self.num_pes,
            self.real_entries,
            self.padding_entries,
            self.compression_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{compress, CompressConfig};
    use eie_nn::zoo::random_sparse;

    #[test]
    fn real_entries_equal_matrix_nnz() {
        let m = random_sparse(100, 80, 0.1, 3);
        let enc = compress(&m, CompressConfig::with_pes(4));
        let stats = enc.stats();
        assert_eq!(stats.real_entries, m.nnz());
        assert_eq!(
            stats.total_entries(),
            stats.real_entries + stats.padding_entries
        );
    }

    #[test]
    fn storage_accounting() {
        let m = random_sparse(64, 32, 0.2, 1);
        let enc = compress(&m, CompressConfig::with_pes(2));
        let stats = enc.stats();
        assert_eq!(stats.spmat_bytes, stats.total_entries()); // 8 bits/entry
        assert_eq!(stats.ptr_bytes, 2 * 33 * 2);
        assert_eq!(stats.dense_bytes, 64 * 32 * 4);
        assert!(stats.compression_ratio() > 1.0);
    }

    #[test]
    fn compression_ratio_in_expected_range_for_table_iii_like_layer() {
        // 9% density at 8 bits/entry → ~5-10x smaller than dense f32
        // (the paper's AlexNet FC weights compress ~10x before Huffman).
        let m = random_sparse(1024, 1024, 0.09, 5);
        let enc = compress(&m, CompressConfig::with_pes(64));
        let ratio = enc.stats().compression_ratio();
        assert!(ratio > 5.0 && ratio < 50.0, "ratio {ratio}");
    }

    #[test]
    fn real_work_ratio_decreases_with_fewer_pes() {
        let m = random_sparse(2048, 32, 0.04, 9);
        let ratio = |pes| {
            compress(&m, CompressConfig::with_pes(pes))
                .stats()
                .real_work_ratio()
        };
        assert!(
            ratio(1) < ratio(16),
            "1PE {} vs 16PE {}",
            ratio(1),
            ratio(16)
        );
        assert!(ratio(16) <= ratio(64) + 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let m = random_sparse(16, 16, 0.5, 1);
        let enc = compress(&m, CompressConfig::with_pes(2));
        let s = enc.stats().to_string();
        assert!(s.contains("16x16"));
        assert!(s.contains("2 PEs"));
    }
}
