//! Workloads, their models and inputs, and one set-up of the serving
//! stack: compile → save → register → listen.

use std::path::{Path, PathBuf};
use std::time::Instant;

use eie_core::compress::WeightCodecKind;
use eie_core::nn::zoo::{BenchLayer, Benchmark, DEFAULT_SEED};
use eie_core::{BackendKind, CompiledModel, EieConfig};
use eie_serve::{ModelRegistry, NetServer, ServerConfig};

/// Inputs in the seeded pool every request draws from.
pub const POOL: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetAlexfcC1,
    SrvAlexfcW16,
    NetTiny,
    Cold(WeightCodecKind),
}

impl Workload {
    pub fn all() -> Vec<Workload> {
        let mut all = vec![
            Workload::NetAlexfcC1,
            Workload::SrvAlexfcW16,
            Workload::NetTiny,
        ];
        all.extend(WeightCodecKind::ALL.map(Workload::Cold));
        all
    }

    pub fn name(self) -> String {
        match self {
            Workload::NetAlexfcC1 => "net_alexfc_c1".into(),
            Workload::SrvAlexfcW16 => "srv_alexfc_w16".into(),
            Workload::NetTiny => "net_tiny".into(),
            Workload::Cold(codec) => format!("net_alex7_cold.{}", codec.name()),
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name() == name)
    }

    /// Requests answered before timing starts. A cold request costs up
    /// to half a second, so the cold workloads warm each model once.
    pub fn warm_up_requests(self) -> usize {
        match self {
            Workload::Cold(_) => 2,
            _ => 16,
        }
    }

    pub fn server_config(self) -> ServerConfig {
        match self {
            // One worker: with two, identical runs of these two
            // workloads swung by ±25 % on a 2-vCPU host (README,
            // "Sizing").
            Workload::NetAlexfcC1 | Workload::SrvAlexfcW16 => {
                ServerConfig::default().with_workers(1)
            }
            Workload::NetTiny | Workload::Cold(_) => ServerConfig::default(),
        }
    }

    fn specs(self, quick: bool) -> Vec<ModelSpec> {
        let divisor = if quick { 8 } else { 1 };
        let spec = |name: &str, layers: &[Benchmark], divisor, pes, weight_seed, codec| ModelSpec {
            name: name.into(),
            layers: layers.to_vec(),
            divisor,
            pes,
            weight_seed,
            codec,
        };
        let csc = WeightCodecKind::CscNibble;
        match self {
            Workload::NetAlexfcC1 | Workload::SrvAlexfcW16 => vec![spec(
                "alexfc",
                &[Benchmark::Alex6, Benchmark::Alex7, Benchmark::Alex8],
                divisor,
                64,
                DEFAULT_SEED,
                csc,
            )],
            Workload::NetTiny => vec![spec("ntwe", &[Benchmark::NtWe], 8, 16, DEFAULT_SEED, csc)],
            // Two distinct artifacts under a budget that fits one, so
            // alternating between them makes every request cold.
            Workload::Cold(codec) => vec![
                spec(
                    "alex7-a",
                    &[Benchmark::Alex7],
                    divisor,
                    64,
                    DEFAULT_SEED,
                    codec,
                ),
                spec(
                    "alex7-b",
                    &[Benchmark::Alex7],
                    divisor,
                    64,
                    DEFAULT_SEED + 1,
                    codec,
                ),
            ],
        }
    }
}

#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub name: String,
    pub layers: Vec<Benchmark>,
    pub divisor: usize,
    pub pes: usize,
    /// Weights stay at the zoo's seed: `--seed` drives the inputs, their
    /// order and the arrival schedule, never the model.
    pub weight_seed: u64,
    pub codec: WeightCodecKind,
}

impl ModelSpec {
    pub fn config(&self) -> EieConfig {
        EieConfig::default()
            .with_num_pes(self.pes)
            .with_codec(self.codec)
    }

    fn generate(&self) -> Vec<BenchLayer> {
        self.layers
            .iter()
            .map(|b| {
                if self.divisor == 1 {
                    b.generate(self.weight_seed)
                } else {
                    b.generate_scaled(self.weight_seed, self.divisor)
                }
            })
            .collect()
    }

    pub fn compile(&self, weights: &[BenchLayer]) -> CompiledModel {
        let refs: Vec<_> = weights.iter().map(|l| &l.weights).collect();
        CompiledModel::compile(self.config(), &refs).with_name(self.name.clone())
    }
}

/// What the harness generates before the system is set up and keeps
/// for the whole run: the seeded input pool and the golden outputs
/// every response is compared against.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    /// `workload.name()`, kept for the failure lines.
    pub name: String,
    pub specs: Vec<ModelSpec>,
    pub inputs: Vec<Vec<f32>>,
    /// `goldens[model][input]`: raw Q8.8 words from the functional
    /// backend.
    pub goldens: Vec<Vec<Vec<i16>>>,
    pub prepare_s: f64,
}

/// What the models are built from. Kept apart from [`Prepared`] so a
/// run can release it once the last set-up has compiled: `rss_mb`
/// should read the serving stack, not the harness's generator.
#[derive(Debug)]
pub struct Sources {
    /// Per model, per layer.
    pub weights: Vec<Vec<BenchLayer>>,
    /// Per model, compiled once for the goldens; the layer probes of a
    /// traced run measure on these.
    pub reference: Vec<CompiledModel>,
}

/// The weights of every model, per model and layer: a function of the
/// specs alone, so a run can drop them while it measures and generate
/// them again for its later set-ups.
pub fn generate(specs: &[ModelSpec]) -> Vec<Vec<BenchLayer>> {
    specs.iter().map(ModelSpec::generate).collect()
}

pub fn prepare(workload: Workload, seed: u64, quick: bool) -> (Prepared, Sources) {
    let started = Instant::now();
    let specs = workload.specs(quick);
    let weights = generate(&specs);
    // All models of a workload share the input dimension, so one pool
    // at the first layer's Table III activation density serves both.
    let inputs = weights[0][0].sample_activation_batch(seed, POOL);
    let reference: Vec<CompiledModel> = specs
        .iter()
        .zip(&weights)
        .map(|(spec, w)| spec.compile(w))
        .collect();
    let goldens = reference
        .iter()
        .map(|model| {
            let result = model.infer(BackendKind::Functional).submit(&inputs);
            (0..POOL)
                .map(|i| result.outputs(i).iter().map(|v| v.raw()).collect())
                .collect()
        })
        .collect();
    let prepared = Prepared {
        workload,
        name: workload.name(),
        specs,
        inputs,
        goldens,
        prepare_s: started.elapsed().as_secs_f64(),
    };
    (prepared, Sources { weights, reference })
}

/// One running set-up of the system under test.
pub struct Stack {
    pub net: NetServer,
    /// Artifact file per model, in spec order.
    pub paths: Vec<PathBuf>,
    pub compile_ms: f64,
}

/// Compiles every model from its weights, saves the artifacts under
/// `dir`, registers them by file and starts listening on loopback.
pub fn set_up(prepared: &Prepared, weights: &[Vec<BenchLayer>], dir: &Path) -> Stack {
    std::fs::create_dir_all(dir).expect("create the benchmark's output directory");
    let started = Instant::now();
    let models: Vec<CompiledModel> = prepared
        .specs
        .iter()
        .zip(weights)
        .map(|(spec, w)| spec.compile(w))
        .collect();
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;

    let paths: Vec<PathBuf> = prepared
        .specs
        .iter()
        .map(|spec| dir.join(format!("{}.eie", spec.name)))
        .collect();
    for (model, path) in models.iter().zip(&paths) {
        model.save(path).expect("save the artifact");
    }

    let mut registry = ModelRegistry::new(prepared.workload.server_config());
    if matches!(prepared.workload, Workload::Cold(_)) {
        let one = models.iter().map(CompiledModel::artifact_bytes).max();
        registry = registry.with_budget_bytes(one.expect("cold workloads have models"));
    }
    for (spec, path) in prepared.specs.iter().zip(&paths) {
        registry
            .register_file(spec.name.clone(), path)
            .expect("model names are distinct");
    }
    let net = NetServer::bind("127.0.0.1:0", registry).expect("bind a loopback listener");
    Stack {
        net,
        paths,
        compile_ms,
    }
}

/// `VmRSS` of this process in MB, from the text of `/proc/self/status`.
pub fn parse_vm_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let mut fields = line["VmRSS:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_rss_mb(&status).expect("VmRSS line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_rss_is_parsed_from_proc_status() {
        let status =
            "Name:\teie-benchmark\nVmPeak:\t  300000 kB\nVmRSS:\t  123904 kB\nThreads:\t5\n";
        assert_eq!(parse_vm_rss_mb(status), Some(121.0));
        assert_eq!(parse_vm_rss_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_rss_mb("VmRSS:\t12 MB\n"), None);
        assert_eq!(parse_vm_rss_mb("VmRSS:\tmany kB\n"), None);
        assert!(rss_mb() > 1.0);
    }

    #[test]
    fn workload_names_roundtrip_and_are_distinct() {
        let all = Workload::all();
        assert_eq!(all.len(), 3 + WeightCodecKind::ALL.len());
        for w in &all {
            assert_eq!(Workload::from_name(&w.name()), Some(*w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn preparation_is_a_function_of_the_seed() {
        let (a, a_src) = prepare(Workload::NetTiny, 5, true);
        let (b, _) = prepare(Workload::NetTiny, 5, true);
        let (c, c_src) = prepare(Workload::NetTiny, 6, true);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.goldens, b.goldens);
        assert_ne!(a.inputs, c.inputs);
        // The model does not depend on the seed.
        assert_eq!(a_src.reference, c_src.reference);
        assert_eq!(a.goldens[0].len(), POOL);
        assert_eq!(a.goldens[0][0].len(), a_src.reference[0].output_dim());
    }
}
