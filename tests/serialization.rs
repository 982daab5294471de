//! Layer-image serialization through the public API: the I/O-mode path
//! (DMA payload → validate → simulate).

use eie::compress::{CscNibble, DecodeLayerError, EncodedLayer, WeightCodec};
use eie::prelude::*;

fn sample_layer() -> (EncodedLayer, Vec<f32>) {
    let layer = Benchmark::Alex7.generate_scaled(DEFAULT_SEED, 32);
    let config = EieConfig::default().with_num_pes(4);
    let enc = config.pipeline().compile_matrix(&layer.weights);
    (enc, layer.sample_activations(DEFAULT_SEED))
}

#[test]
fn serialized_layer_simulates_identically() {
    let (enc, acts) = sample_layer();
    let bytes = CscNibble.encode(&enc);
    let loaded = CscNibble.decode(&bytes).expect("valid image");

    let cfg = SimConfig::default();
    let a = simulate(&enc, &acts, &cfg);
    let b = simulate(&loaded, &acts, &cfg);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn image_is_deterministic() {
    let (enc, _) = sample_layer();
    assert_eq!(CscNibble.encode(&enc), CscNibble.encode(&enc));
}

#[test]
fn image_is_much_smaller_than_dense() {
    let (enc, _) = sample_layer();
    let dense_bytes = enc.rows() * enc.cols() * 4;
    let image = CscNibble.encode(&enc);
    assert!(
        image.len() * 4 < dense_bytes,
        "image {} vs dense {}",
        image.len(),
        dense_bytes
    );
}

#[test]
fn bitflips_never_panic_and_mostly_get_caught() {
    // Failure injection over the wire format: flip bytes across the image
    // and require a clean Err or a still-valid layer — never a panic.
    let (enc, _) = sample_layer();
    let bytes = CscNibble.encode(&enc);
    let mut caught = 0usize;
    let mut survived = 0usize;
    let stride = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xA5;
        match CscNibble.decode(&corrupt) {
            Err(_) => caught += 1,
            Ok(layer) => {
                // A flip in codebook values or entry codes can produce a
                // different-but-valid layer; it must still validate.
                layer.validate().expect("decoded layer must be valid");
                survived += 1;
            }
        }
    }
    assert!(caught > 0, "no corruption was ever caught");
    // Most flips land in structural fields and must be rejected.
    assert!(
        caught + survived > 0 && caught * 3 >= survived,
        "caught {caught}, silently survived {survived}"
    );
}

#[test]
fn truncation_reports_offset() {
    let (enc, _) = sample_layer();
    let bytes = CscNibble.encode(&enc);
    match CscNibble.decode(&bytes[..bytes.len() / 3]) {
        Err(DecodeLayerError::Truncated { offset, .. }) => {
            assert!(offset <= bytes.len() / 3);
        }
        other => panic!("expected truncation error, got {other:?}"),
    }
}
