//! A layer image whose entry count claims far more entries than its
//! bytes hold is refused, typed, by both decodes of every codec — and
//! before anything sized by the claim is allocated. The allocation bound
//! is read from the kernel (this process's `VmHWM`, Linux only), so this
//! file holds one test: no other test of the binary allocates beside it.

use eie_compress::{compress, CompressConfig, DecodeLayerError, WeightCodecKind};
use eie_nn::zoo::random_sparse;

/// This process's peak resident set, bytes (`None` off Linux).
fn peak_rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn a_count_past_the_image_allocates_nothing_sized_by_it() {
    // 16384 × 16384 allows 2^28 entries; the layer stores a few
    // thousand. One PE, so the first shape is the only one.
    let config = CompressConfig {
        index_bits: 8,
        ..CompressConfig::with_pes(1)
    };
    let layer = compress(&random_sparse(16_384, 16_384, 2e-6, 3), config);
    let claim: u32 = 50_000_000;
    for kind in WeightCodecKind::ALL {
        let mut image = kind.codec().encode(&layer);
        // Shared header (20 bytes and the codebook), then PE 0's
        // local_rows and n_entries.
        let at = 20 + 4 * layer.codebook().len() + 4;
        assert_eq!(
            image[at..at + 4],
            (layer.total_entries() as u32).to_le_bytes()
        );
        image[at..at + 4].copy_from_slice(&claim.to_le_bytes());

        let before = peak_rss();
        let decoded = kind.codec().decode(&image).unwrap_err();
        for cut in [1, 4] {
            let planned = kind.codec().decode_plan(&image, cut).unwrap_err();
            assert_eq!(planned, decoded, "{kind}, cut {cut}");
        }
        assert!(
            matches!(
                decoded,
                DecodeLayerError::Truncated { .. } | DecodeLayerError::BadStream { .. }
            ),
            "{kind}: {decoded:?}"
        );
        if let (Some(before), Some(after)) = (before, peak_rss()) {
            // What the claim would cost as decoded pairs alone: 100 MB.
            let grown = after.saturating_sub(before);
            assert!(
                grown <= 16 * image.len(),
                "{kind}: peak RSS grew {grown} B on a {} B image",
                image.len()
            );
        }
    }
}
