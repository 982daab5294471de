//! The model-lifecycle acceptance test: a zoo model compiled to a
//! `.eie` file and reloaded must produce **bit-exact** outputs versus
//! the in-process compile on all three backends, and corrupt /
//! truncated / version-mismatched files must be rejected with typed
//! errors. (Runs in CI as part of the tier-1 suite.)

use eie::compress::{DecodeLayerError, ValidateLayerError};
use eie::prelude::*;
use eie::serve::{ModelRegistry, RegistryError, ServerConfig};
use eie::{MODEL_MAGIC, MODEL_VERSION};

fn zoo_model() -> CompiledModel {
    zoo_model_with_codec(WeightCodecKind::CscNibble)
}

fn zoo_model_with_codec(codec: WeightCodecKind) -> CompiledModel {
    CompiledModel::from_zoo(
        Benchmark::Alex7,
        EieConfig::default().with_num_pes(8).with_codec(codec),
        DEFAULT_SEED,
        32,
    )
}

#[test]
fn saved_zoo_model_runs_bit_exactly_on_all_three_backends() {
    let model = zoo_model();
    let path = std::env::temp_dir().join("eie_model_artifact_acceptance.eie");
    model.save(&path).expect("save");
    let loaded = CompiledModel::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, model, "save → load must be the identity");
    assert_eq!(loaded.name(), "Alex-7 1/32");

    let layer = Benchmark::Alex7.generate_scaled(DEFAULT_SEED, 32);
    let batch = layer.sample_activation_batch(DEFAULT_SEED, 3);
    let golden = model.infer(BackendKind::Functional).submit(&batch);
    for kind in [
        BackendKind::CycleAccurate,
        BackendKind::Functional,
        BackendKind::NativeCpu(2),
    ] {
        let result = loaded.infer(kind).submit(&batch);
        for i in 0..batch.len() {
            assert_eq!(
                result.outputs(i),
                golden.outputs(i),
                "{kind} diverged from the in-process compile at item {i}"
            );
        }
    }
}

#[test]
fn container_starts_with_magic_and_version() {
    // The default codec keeps the historical version-1 container, byte
    // for byte; non-default codecs bump to the current version.
    let bytes = zoo_model().to_bytes();
    assert_eq!(&bytes[..4], &MODEL_MAGIC);
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 1);

    let bytes = zoo_model_with_codec(WeightCodecKind::HuffmanPacked).to_bytes();
    assert_eq!(&bytes[..4], &MODEL_MAGIC);
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), MODEL_VERSION);
}

#[test]
fn version_1_artifacts_load_as_csc_nibble() {
    let model = zoo_model();
    let loaded = CompiledModel::from_bytes(&model.to_bytes()).expect("v1 loads");
    assert_eq!(loaded.config().codec, WeightCodecKind::CscNibble);
    assert_eq!(loaded, model);
}

#[test]
fn every_codec_roundtrips_the_zoo_model_bit_exactly() {
    let golden_model = zoo_model();
    let layer = Benchmark::Alex7.generate_scaled(DEFAULT_SEED, 32);
    let batch = layer.sample_activation_batch(DEFAULT_SEED, 3);
    let golden = golden_model.infer(BackendKind::Functional).submit(&batch);
    for codec in WeightCodecKind::ALL {
        let model = zoo_model_with_codec(codec);
        let loaded = CompiledModel::from_bytes(&model.to_bytes()).expect("roundtrip");
        assert_eq!(loaded, model, "{codec}");
        assert_eq!(loaded.config().codec, codec);
        for kind in [
            BackendKind::CycleAccurate,
            BackendKind::Functional,
            BackendKind::NativeCpu(2),
        ] {
            let result = loaded.infer(kind).submit(&batch);
            for i in 0..batch.len() {
                assert_eq!(
                    result.outputs(i),
                    golden.outputs(i),
                    "{codec} on {kind} diverged from golden at item {i}"
                );
            }
        }
    }
}

#[test]
fn unknown_codec_id_is_a_typed_error_not_a_panic() {
    let model = zoo_model_with_codec(WeightCodecKind::BitPlane);
    let mut bytes = model.to_bytes();
    // First layer record: preamble (16) + config (28) + name_len (2) +
    // name + num_layers (4); its first byte is the codec id.
    let pos = 16 + 28 + 2 + model.name().len() + 4;
    assert_eq!(bytes[pos], WeightCodecKind::BitPlane.id());
    bytes[pos] = 0xEE;
    // Re-seal the payload CRC so the codec check itself is reached.
    let crc = crc32(&bytes[16..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    match CompiledModel::from_bytes(&bytes) {
        Err(ModelArtifactError::UnknownCodec { index, id }) => {
            assert_eq!((index, id), (0, 0xEE));
        }
        other => panic!("expected UnknownCodec, got {other:?}"),
    }
}

/// CRC-32/IEEE, duplicated from the artifact module so tests can re-seal
/// deliberately patched payloads.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[test]
fn corrupt_files_are_rejected_with_typed_errors() {
    let bytes = zoo_model().to_bytes();

    // Bit flip in the payload → checksum mismatch.
    let mut corrupt = bytes.clone();
    let mid = 16 + (corrupt.len() - 16) / 2;
    corrupt[mid] ^= 0x40;
    assert!(matches!(
        CompiledModel::from_bytes(&corrupt),
        Err(ModelArtifactError::ChecksumMismatch { .. })
    ));

    // Wrong magic.
    let mut wrong = bytes.clone();
    wrong[0] = b'Z';
    assert!(matches!(
        CompiledModel::from_bytes(&wrong),
        Err(ModelArtifactError::BadMagic)
    ));

    // Future version.
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(MODEL_VERSION + 7).to_le_bytes());
    match CompiledModel::from_bytes(&future) {
        Err(ModelArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, MODEL_VERSION + 7);
            assert_eq!(supported, MODEL_VERSION);
        }
        other => panic!("expected version error, got {other:?}"),
    }

    // Truncation at many prefix lengths → typed truncation, never a panic.
    for frac in [1usize, 3, 10, 30, 95] {
        let cut = bytes.len() * frac / 100;
        assert!(
            matches!(
                CompiledModel::from_bytes(&bytes[..cut]),
                Err(ModelArtifactError::Truncated { .. })
            ),
            "prefix of {cut} bytes not rejected as truncated"
        );
    }
}

#[test]
fn error_messages_are_actionable() {
    let err = CompiledModel::from_bytes(b"EIEMxx").unwrap_err();
    let msg = err.to_string();
    assert!(!msg.is_empty());

    let mut bytes = zoo_model().to_bytes();
    bytes[20] ^= 0xFF; // payload corruption
    let msg = CompiledModel::from_bytes(&bytes).unwrap_err().to_string();
    assert!(msg.contains("CRC") || msg.contains("corrupt"), "{msg}");
}

#[test]
fn multi_layer_and_shared_codebook_artifacts_roundtrip() {
    let w1 = random_sparse(48, 32, 0.2, 11);
    let w2 = random_sparse(24, 48, 0.2, 12);
    let config = EieConfig::default().with_num_pes(4);
    for shared in [false, true] {
        let model = if shared {
            CompiledModel::compile_shared_codebook(config, &[&w1, &w2])
        } else {
            CompiledModel::compile(config, &[&w1, &w2])
        };
        assert_eq!(model.has_shared_codebook(), shared);
        let loaded = CompiledModel::from_bytes(&model.to_bytes()).expect("roundtrip");
        assert_eq!(loaded, model);
        let batch = vec![vec![0.25f32; 32]; 2];
        let a = model.infer(BackendKind::NativeCpu(1)).submit(&batch);
        let b = loaded.infer(BackendKind::NativeCpu(1)).submit(&batch);
        for i in 0..batch.len() {
            assert_eq!(a.outputs(i), b.outputs(i), "shared={shared}");
        }
    }
}

/// Reads a little-endian `u32` at `at`.
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// An artifact whose PEs do not hold their interleaved row shares — an
/// 8 × 4 layer on 2 PEs claiming 5 + 3 rows instead of 4 + 4, the
/// payload CRC resealed — is refused with a typed error by the decoded
/// load, by the served load under every backend form, and by a registry,
/// which then serves a good model as before instead of poisoning.
#[test]
fn an_uneven_pe_row_share_is_a_typed_load_error_and_the_registry_serves_on() {
    let cells = [(0, 0, 1.0), (3, 1, -0.5), (6, 2, 0.75), (5, 3, 0.25)];
    let w = CsrMatrix::from_triplets(8, 4, &cells);
    let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(2), &w);
    let layer = model.layer(0);
    let mut bytes = model.to_bytes();
    // Version 1: preamble, config, topology, then the layer record's
    // length and its image — header (20) and codebook, then per PE
    // local_rows | n_entries | col_ptr | entries.
    let image = 16 + 28 + 2 + model.name().len() + 4 + 4;
    let pe0 = image + 20 + 4 * layer.codebook().len();
    let pe1 = pe0 + 8 + 4 * (layer.cols() + 1) + 2 * layer.slice(0).num_entries();
    assert_eq!((word(&bytes, pe0), word(&bytes, pe1)), (4, 4));
    bytes[pe0..pe0 + 4].copy_from_slice(&5u32.to_le_bytes());
    bytes[pe1..pe1 + 4].copy_from_slice(&3u32.to_le_bytes());
    let crc = crc32(&bytes[16..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());

    let uneven = |e: &ModelArtifactError| {
        matches!(
            e,
            ModelArtifactError::Layer {
                index: 0,
                source: DecodeLayerError::Invalid(ValidateLayerError::RowShare {
                    pe: 0,
                    expected: 4,
                    actual: 5
                })
            }
        )
    };
    let err = CompiledModel::from_bytes(&bytes).unwrap_err();
    assert!(uneven(&err), "{err:?}");
    for backend in [
        BackendKind::NativeCpu(1),
        BackendKind::NativeCpu(2),
        BackendKind::Functional,
    ] {
        let err = CompiledModel::load_served(&bytes, backend).unwrap_err();
        assert!(uneven(&err), "{backend}: {err:?}");
    }

    let path = std::env::temp_dir().join(format!("eie_uneven_share_{}.eie", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let registry =
        ModelRegistry::new(ServerConfig::default().with_backend(BackendKind::NativeCpu(2)));
    registry.register_file("uneven", &path).unwrap();
    registry.register_model("good", &model).unwrap();
    match registry.acquire("uneven") {
        Err(RegistryError::Load { name, source }) => {
            assert_eq!(name, "uneven");
            assert!(uneven(&source), "{source:?}");
        }
        other => panic!("expected a typed load error, got {other:?}"),
    }
    let input = vec![0.5f32; 4];
    let golden = model.infer(BackendKind::Functional).submit_one(&input);
    let server = registry.acquire("good").expect("the registry still serves");
    let result = server.submit(&input).unwrap().wait().unwrap();
    assert_eq!(&result.outputs[..], golden.outputs(0));
    assert_eq!(registry.names(), ["uneven", "good"]);
    let _ = std::fs::remove_file(&path);
}
