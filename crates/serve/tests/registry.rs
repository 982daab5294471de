//! Registry residency tests: LRU-by-bytes eviction order, pinning of
//! in-flight models, and bit-exact reload after eviction. The byte
//! budget is the knob that lets many compressed models share one box —
//! these tests pin exactly what it may and may not evict.

use eie_core::compress::WeightCodecKind;
use eie_core::nn::zoo::{random_sparse, sample_activations};
use eie_core::{BackendKind, CompiledModel, EieConfig};
use eie_serve::{ModelRegistry, RegistryError, ServerConfig};

/// A small model whose artifact size is deterministic for a seed.
fn toy_model(rows: usize, cols: usize, seed: u64) -> CompiledModel {
    let w = random_sparse(rows, cols, 0.3, seed);
    CompiledModel::compile_layer(EieConfig::default().with_num_pes(4), &w)
}

fn quick_config() -> ServerConfig {
    ServerConfig::default()
        .with_workers(1)
        .with_max_wait_us(200)
}

/// Three same-shape models behind a budget that fits exactly two:
/// every admission past capacity evicts the least recently *used*
/// model, not the least recently loaded one.
#[test]
fn eviction_follows_lru_order_by_last_use() {
    let a = toy_model(24, 16, 1);
    let b = toy_model(24, 16, 2);
    let c = toy_model(24, 16, 3);
    // Any two models fit; all three never do: total minus half the
    // smallest is above every pairwise sum and below the full sum.
    let sizes = [a.artifact_bytes(), b.artifact_bytes(), c.artifact_bytes()];
    let budget = sizes.iter().sum::<usize>() - sizes.iter().min().unwrap() / 2;
    let registry = ModelRegistry::new(quick_config()).with_budget_bytes(budget);
    registry.register_model("a", &a).unwrap();
    registry.register_model("b", &b).unwrap();
    registry.register_model("c", &c).unwrap();

    // Load a then b; drop both leases so neither is pinned.
    drop(registry.acquire("a").unwrap());
    drop(registry.acquire("b").unwrap());
    assert!(registry.is_resident("a") && registry.is_resident("b"));
    assert_eq!(registry.stats().evictions, 0);

    // c does not fit: a is the least recently used and must go.
    drop(registry.acquire("c").unwrap());
    assert!(!registry.is_resident("a"), "LRU victim was not evicted");
    assert!(registry.is_resident("b") && registry.is_resident("c"));
    assert_eq!(registry.stats().evictions, 1);

    // Touch b (a *use*, not a load) — now c is least recently used, so
    // re-admitting a must evict c, not b.
    drop(registry.acquire("b").unwrap());
    drop(registry.acquire("a").unwrap());
    assert!(!registry.is_resident("c"), "LRU order ignored the b touch");
    assert!(registry.is_resident("a") && registry.is_resident("b"));

    let stats = registry.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.loads, 4, "a, b, c cold + a reload");
    assert_eq!(stats.hits, 1, "only the b touch was answered warm");
    assert!(stats.resident_bytes <= stats.budget_bytes);
}

/// A model with an outstanding lease (requests possibly in flight) is
/// pinned: admission pressure may exceed the budget but never severs
/// it.
#[test]
fn pinned_models_are_never_evicted() {
    let a = toy_model(24, 16, 10);
    let bytes = a.artifact_bytes();
    // Budget fits exactly one model.
    let registry = ModelRegistry::new(quick_config()).with_budget_bytes(bytes + bytes / 2);
    registry.register_model("a", &a).unwrap();
    registry
        .register_model("b", &toy_model(24, 16, 11))
        .unwrap();

    let lease = registry.acquire("a").unwrap();
    let pending = lease.submit(&[0.5; 16]).unwrap();

    // b does not fit next to a, and a is pinned: the registry admits b
    // anyway (the budget bounds cold residency, not a pinned burst).
    drop(registry.acquire("b").unwrap());
    assert!(registry.is_resident("a"), "pinned model was evicted");
    assert!(registry.is_resident("b"));
    assert_eq!(registry.stats().evictions, 0);
    assert!(
        registry.stats().resident_bytes > registry.stats().budget_bytes,
        "a pinned burst exceeds the budget rather than severing leases"
    );

    // The in-flight request on the pinned model completes normally.
    assert_eq!(pending.wait().unwrap().outputs.len(), 24);
    drop(lease);

    // Once unpinned, the next admission can evict a again.
    registry
        .register_model("c", &toy_model(24, 16, 12))
        .unwrap();
    drop(registry.acquire("c").unwrap());
    assert!(!registry.is_resident("a") || !registry.is_resident("b"));
    assert!(registry.stats().evictions >= 1);
}

/// Evict → re-acquire reloads from the stored artifact and serves
/// outputs bit-identical to the first residency — eviction is a memory
/// decision, never a numerical one.
#[test]
fn reload_after_eviction_is_bit_exact() {
    let a = toy_model(32, 20, 21);
    let bytes = a.artifact_bytes();
    let registry = ModelRegistry::new(quick_config()).with_budget_bytes(bytes + bytes / 2);
    registry.register_model("a", &a).unwrap();
    registry
        .register_model("filler", &toy_model(32, 20, 22))
        .unwrap();

    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|i| sample_activations(20, 0.5, true, 100 + i))
        .collect();

    let first: Vec<_> = {
        let server = registry.acquire("a").unwrap();
        inputs
            .iter()
            .map(|input| server.submit(input).unwrap().wait().unwrap().outputs)
            .collect()
    };

    // Force a out by loading the filler.
    drop(registry.acquire("filler").unwrap());
    assert!(!registry.is_resident("a"), "eviction did not happen");

    let second: Vec<_> = {
        let server = registry.acquire("a").unwrap();
        inputs
            .iter()
            .map(|input| server.submit(input).unwrap().wait().unwrap().outputs)
            .collect()
    };
    assert_eq!(first, second, "reload after eviction changed outputs");
    assert_eq!(registry.stats().loads, 3, "a cold, filler cold, a reload");
}

/// Eviction retires a server's final tallies into the registry's
/// lifetime statistics instead of losing them: the STATS a network
/// client sees counts every request ever served, not just the requests
/// of currently-resident models.
#[test]
fn lifetime_stats_survive_eviction() {
    let a = toy_model(24, 16, 50);
    let bytes = a.artifact_bytes();
    let registry = ModelRegistry::new(quick_config()).with_budget_bytes(bytes + bytes / 2);
    registry.register_model("a", &a).unwrap();
    registry
        .register_model("filler", &toy_model(24, 16, 51))
        .unwrap();

    let before_eviction = {
        let server = registry.acquire("a").unwrap();
        for i in 0..5 {
            server
                .submit(&sample_activations(16, 0.5, false, i))
                .unwrap()
                .wait()
                .unwrap();
        }
        server.stats_snapshot()
    };
    drop(registry.acquire("filler").unwrap());
    assert!(!registry.is_resident("a"));

    let (stats, _) = registry.serving_snapshot();
    assert_eq!(
        stats.requests, 5,
        "evicted model's requests vanished from the snapshot"
    );
    // The retired roll-up keeps the latency record exactly, not just
    // the counts.
    assert_eq!(stats.p50(), before_eviction.p50());
    assert_eq!(stats.p99(), before_eviction.p99());
    assert_eq!(
        registry.drain().requests,
        5,
        "evicted model's requests vanished from drain"
    );
    // Drain resets the lifetime tallies.
    assert_eq!(registry.serving_snapshot().0.requests, 0);
}

/// The registry's error surface: unknown names, duplicate registration,
/// and artifacts that fail to load (typed, with the model named).
#[test]
fn registry_errors_are_typed() {
    let registry = ModelRegistry::new(quick_config());
    assert!(matches!(
        registry.acquire("ghost"),
        Err(RegistryError::UnknownModel { name }) if name == "ghost"
    ));

    registry
        .register_model("a", &toy_model(16, 12, 30))
        .unwrap();
    assert!(matches!(
        registry.register_model("a", &toy_model(16, 12, 31)),
        Err(RegistryError::DuplicateName { name }) if name == "a"
    ));

    // Registration is lazy: a bad path only fails on first acquire, and
    // the registry stays usable afterwards.
    registry
        .register_file("broken", "/nonexistent/model.eie")
        .unwrap();
    assert!(matches!(
        registry.acquire("broken"),
        Err(RegistryError::Load { name, .. }) if name == "broken"
    ));
    assert!(!registry.is_resident("broken"));
    assert!(registry.acquire("a").is_ok());
    assert_eq!(
        registry.names(),
        vec!["a".to_string(), "broken".to_string()]
    );
}

/// Draining answers every queued request, resets residency but not
/// registration, and a later acquire re-loads cleanly.
#[test]
fn drain_resets_residency_not_registration() {
    let registry = ModelRegistry::new(quick_config());
    registry
        .register_model("a", &toy_model(24, 16, 40))
        .unwrap();

    let server = registry.acquire("a").unwrap();
    let pending: Vec<_> = (0..8)
        .map(|i| {
            server
                .submit(&sample_activations(16, 0.5, false, 40 + i))
                .unwrap()
        })
        .collect();
    drop(server);

    let stats = registry.drain();
    assert_eq!(stats.requests, 8, "drain lost accepted requests");
    for p in pending {
        assert_eq!(p.wait().unwrap().outputs.len(), 24);
    }
    assert!(!registry.is_resident("a"));
    assert_eq!(registry.stats().registered, 1);
    drop(registry.acquire("a").unwrap());
    assert_eq!(registry.stats().loads, 2);
}

/// A two-layer model stored under `codec`.
fn codec_model(codec: WeightCodecKind, seed: u64) -> CompiledModel {
    let w1 = random_sparse(32, 20, 0.3, seed);
    let w2 = random_sparse(12, 32, 0.3, seed + 1);
    CompiledModel::compile(
        EieConfig::default().with_num_pes(4).with_codec(codec),
        &[&w1, &w2],
    )
}

/// The residency contract: when `acquire` returns, the model is resident
/// in full. Under a plan-walking backend every layer's plan is already
/// built — the first request pays a dispatch, not a decode — and under
/// a backend that streams the layers no plan is built at all.
#[test]
fn acquire_returns_a_fully_resident_model() {
    let model = codec_model(WeightCodecKind::CscNibble, 70);
    for (backend, want) in [
        (BackendKind::NativeCpu(1), model.num_layers()),
        (BackendKind::Functional, 0),
    ] {
        let registry = ModelRegistry::new(quick_config().with_backend(backend));
        registry.register_model("m", &model).unwrap();
        let server = registry.acquire("m").unwrap();
        assert_eq!(
            server.plans().len(),
            want,
            "{backend}: plans built when acquire returned"
        );
        // Serving builds nothing further, and answers.
        let outputs = server.submit(&[0.5; 20]).unwrap().wait().unwrap().outputs;
        assert_eq!(outputs.len(), 12);
        assert_eq!(server.plans().len(), want, "{backend}: after a request");
    }
}

/// The registry charges the bytes it read and checksummed — which are
/// the model's `artifact_bytes()` and `to_bytes().len()` for every codec
/// (the container admits no slack) — for file-backed and in-memory
/// models alike.
#[test]
fn residency_charge_is_the_stored_image_length_for_every_codec() {
    let dir = std::env::temp_dir().join(format!("eie_registry_charge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for codec in WeightCodecKind::ALL {
        let model = codec_model(codec, 80);
        let stored = model.to_bytes().len();
        assert_eq!(model.artifact_bytes(), stored, "{codec}");

        let path = dir.join(format!("{codec}.eie"));
        model.save(&path).unwrap();
        let registry = ModelRegistry::new(quick_config());
        registry.register_file("file", &path).unwrap();
        registry.register_model("memory", &model).unwrap();
        drop(registry.acquire("file").unwrap());
        assert_eq!(registry.stats().resident_bytes, stored, "{codec}: file");
        drop(registry.acquire("memory").unwrap());
        assert_eq!(registry.stats().resident_bytes, 2 * stored, "{codec}: both");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt artifact fails `acquire` with a typed load error *before*
/// anything is evicted to make room for it.
#[test]
fn corrupt_artifact_fails_acquire_and_evicts_nothing() {
    let good = toy_model(24, 16, 90);
    let bytes = good.artifact_bytes();
    let dir = std::env::temp_dir().join(format!("eie_registry_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.eie");
    let mut image = toy_model(24, 16, 91).to_bytes();
    let last = image.len() - 1;
    image[last] ^= 0x40;
    std::fs::write(&path, &image).unwrap();

    // The budget fits one model: a successful load would evict `good`.
    let registry = ModelRegistry::new(quick_config()).with_budget_bytes(bytes + bytes / 2);
    registry.register_model("good", &good).unwrap();
    registry.register_file("corrupt", &path).unwrap();
    drop(registry.acquire("good").unwrap());

    assert!(matches!(
        registry.acquire("corrupt"),
        Err(RegistryError::Load { name, .. }) if name == "corrupt"
    ));
    assert!(
        registry.is_resident("good"),
        "a failed load evicted a model"
    );
    assert!(!registry.is_resident("corrupt"));
    let stats = registry.stats();
    assert_eq!((stats.loads, stats.evictions), (1, 0));
    assert_eq!(stats.resident_bytes, bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
