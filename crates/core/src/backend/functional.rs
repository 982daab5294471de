//! The functional backend: the untimed golden model behind the trait.

use std::time::Instant;

use eie_fixed::Q8p8;
use eie_sim::functional;

use super::{check_activation_batch, Backend, BackendRun, PlannedLayer};

/// Executes layers on the bit-exact functional golden model.
///
/// This is the reference the other two backends are verified against
/// (the role the golden Caffe model plays for the paper's RTL). It
/// models no time: the reported latency is the host wall-clock of the
/// straightforward single-threaded interpretation, useful only as a
/// bookkeeping denominator — for real host-speed serving use
/// [`NativeCpu`](super::NativeCpu).
#[derive(Debug, Clone, Copy, Default)]
pub struct Functional;

impl Functional {
    /// The functional golden-model backend.
    pub fn new() -> Self {
        Self
    }
}

impl Backend for Functional {
    fn name(&self) -> &'static str {
        "functional"
    }

    fn run_layer_batch_planned(
        &self,
        planned: PlannedLayer<'_>,
        batch: &[Vec<Q8p8>],
        relu: bool,
    ) -> Vec<BackendRun> {
        let layer = planned.encoded();
        check_activation_batch(layer.cols(), batch);
        let run = |acts: &Vec<Q8p8>| {
            let start = Instant::now();
            let outputs = functional::execute(layer, acts, relu);
            BackendRun::solo(outputs, start.elapsed().as_secs_f64(), None)
        };
        batch.iter().map(run).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_compress::{compress, CompressConfig};
    use eie_nn::zoo::Benchmark;

    #[test]
    fn matches_the_free_function_and_measures_host_time() {
        let layer = Benchmark::Vgg7.generate_scaled(2, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(4));
        let acts: Vec<Q8p8> = layer
            .sample_activations(3)
            .iter()
            .map(|&a| Q8p8::from_f32(a))
            .collect();
        let backend = Functional::new();
        let run = backend
            .run_layer_batch_planned(
                PlannedLayer::Encoded(&enc),
                std::slice::from_ref(&acts),
                false,
            )
            .remove(0);
        assert_eq!(run.outputs, functional::execute(&enc, &acts, false));
        assert!(run.latency_s >= 0.0);
        assert!(run.stats.is_none(), "the golden model has no cycle stats");
    }
}
