//! Property-based tests for the Deep Compression pipeline.

use eie_compress::{compress, encode_with_codebook, Codebook, CompressConfig};
use eie_nn::zoo::random_sparse;
use eie_nn::{CsrMatrix, Matrix};
use proptest::prelude::*;

/// Strategy: a random sparse matrix plus an arbitrary PE count.
fn arb_case() -> impl Strategy<Value = (CsrMatrix, usize)> {
    (
        2usize..48,
        2usize..48,
        0.05f64..0.6,
        any::<u64>(),
        1usize..12,
    )
        .prop_map(|(rows, cols, density, seed, pes)| {
            (random_sparse(rows, cols, density, seed), pes)
        })
}

/// The dense matrix with every non-zero replaced by its codebook value.
fn quantized_dense(m: &CsrMatrix, cb: &Codebook) -> Matrix {
    let mut d = m.to_dense();
    for v in d.as_mut_slice() {
        if *v != 0.0 {
            *v = cb.dequantize(*v);
        }
    }
    d
}

proptest! {
    /// Encode→decode reproduces the quantized matrix exactly, for any
    /// matrix and PE count.
    #[test]
    fn encode_decode_roundtrip((m, pes) in arb_case()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        prop_assert_eq!(enc.decode().to_dense(), quantized_dense(&m, enc.codebook()));
    }

    /// The number of real (non-padding) entries always equals nnz.
    #[test]
    fn real_entries_match_nnz((m, pes) in arb_case()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        prop_assert_eq!(enc.stats().real_entries, m.nnz());
    }

    /// Zero runs never exceed the configured maximum.
    #[test]
    fn zero_runs_bounded((m, pes) in arb_case(), bits in 1u32..=8) {
        prop_assume!(m.nnz() > 0);
        let cfg = CompressConfig { num_pes: pes, index_bits: bits, ..CompressConfig::default() };
        let cb = Codebook::fit(m.values(), 10);
        let enc = encode_with_codebook(&m, cb, cfg);
        let max_run = cfg.max_zero_run() as u8;
        for slice in enc.slices() {
            for j in 0..m.cols() {
                for e in slice.col_entries(j) {
                    prop_assert!(e.zrun <= max_run);
                }
            }
        }
    }

    /// Column pointers are monotone and span all entries.
    #[test]
    fn col_ptrs_monotone((m, pes) in arb_case()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        for slice in enc.slices() {
            let p = slice.col_ptr();
            prop_assert_eq!(p.len(), m.cols() + 1);
            prop_assert_eq!(p[0], 0);
            for w in p.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert_eq!(*p.last().unwrap() as usize, slice.num_entries());
        }
    }

    /// Encoded SpMV agrees with GEMV on the quantized dense matrix.
    #[test]
    fn spmv_agrees_with_quantized_gemv((m, pes) in arb_case(), seed in any::<u64>()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        let a = eie_nn::zoo::sample_activations(m.cols(), 0.5, true, seed);
        let got = enc.spmv_f32(&a);
        let want = quantized_dense(&m, enc.codebook()).gemv(&a);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    /// Local rows across PEs partition the global rows exactly.
    #[test]
    fn local_rows_partition((m, pes) in arb_case()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        let total: usize = enc.slices().iter().map(|s| s.local_rows()).sum();
        prop_assert_eq!(total, m.rows());
        // global_row is injective and in range over every (pe, local).
        let mut seen = vec![false; m.rows()];
        for (pe, slice) in enc.slices().iter().enumerate() {
            for local in 0..slice.local_rows() {
                let g = enc.global_row(pe, local);
                prop_assert!(g < m.rows());
                prop_assert!(!seen[g]);
                seen[g] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Codebook quantization error is within half the largest gap between
    /// adjacent centroids (1-D Voronoi property).
    #[test]
    fn codebook_error_bounded(values in prop::collection::vec(
        prop_oneof![(-2.0f32..-0.01), (0.01f32..2.0)], 1..256)) {
        let cb = Codebook::fit(&values, 30);
        let centroids = &cb.values()[1..];
        let max_gap = centroids
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f32, f32::max);
        let lo = centroids.first().copied().unwrap();
        let hi = centroids.last().copied().unwrap();
        for &v in &values {
            let err = (cb.dequantize(v) - v).abs();
            let bound = (max_gap / 2.0).max((v - hi).abs()).max((v - lo).abs()) + 1e-5;
            prop_assert!(err <= bound, "v={v} err={err} bound={bound}");
        }
    }

    /// Compression never loses entries: decoded nnz == original nnz.
    #[test]
    fn no_entry_loss((m, pes) in arb_case()) {
        prop_assume!(m.nnz() > 0);
        let enc = compress(&m, CompressConfig::with_pes(pes));
        prop_assert_eq!(enc.decode().nnz(), m.nnz());
    }

}
