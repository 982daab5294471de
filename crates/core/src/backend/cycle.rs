//! The cycle-accurate backend: `eie-sim` behind the [`Backend`] trait.

use eie_fixed::Q8p8;
use eie_sim::{simulate_fixed, SimConfig};

use super::{check_activation_batch, Backend, BackendRun, PlannedLayer};

/// Executes layers on the cycle-accurate simulator (paper §V).
///
/// Latency is *modelled* hardware time — `total_cycles` at the
/// configured clock — and every run carries the full
/// [`SimStats`](eie_sim::SimStats) for energy pricing. This is the
/// backend behind a [`BackendKind::CycleAccurate`](crate::BackendKind)
/// inference job; use it directly when you need trait-object dispatch.
#[derive(Debug, Clone)]
pub struct CycleAccurate {
    sim: SimConfig,
}

impl CycleAccurate {
    /// A cycle-accurate backend with the given simulator configuration.
    pub fn new(sim: SimConfig) -> Self {
        Self { sim }
    }

    /// The simulator configuration runs use.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }
}

impl Backend for CycleAccurate {
    fn name(&self) -> &'static str {
        "cycle-accurate"
    }

    // Items run one after another: the hardware has no batch dimension,
    // so there is nothing to fuse (`eie_sim`'s own `simulate_batch`
    // serves direct simulator users the same way).
    fn run_layer_batch_planned(
        &self,
        planned: PlannedLayer<'_>,
        batch: &[Vec<Q8p8>],
        relu: bool,
    ) -> Vec<BackendRun> {
        let layer = planned.encoded();
        check_activation_batch(layer.cols(), batch);
        batch
            .iter()
            .map(|acts| {
                let run = simulate_fixed(layer, acts, &self.sim, relu);
                let latency_s = run.stats.seconds_at(self.sim.clock_hz);
                BackendRun::solo(run.outputs, latency_s, Some(run.stats))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_compress::{compress, CompressConfig};
    use eie_nn::zoo::Benchmark;

    #[test]
    fn latency_is_cycles_over_clock() {
        let layer = Benchmark::Alex7.generate_scaled(1, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(2));
        let acts: Vec<Q8p8> = layer
            .sample_activations(1)
            .iter()
            .map(|&a| Q8p8::from_f32(a))
            .collect();
        let backend = CycleAccurate::new(SimConfig::default());
        let planned = PlannedLayer::Encoded(&enc);
        let run = backend
            .run_layer_batch_planned(planned, std::slice::from_ref(&acts), false)
            .remove(0);
        let stats = run.stats.as_ref().expect("cycle backend keeps stats");
        assert!(stats.total_cycles > 0);
        assert!((run.latency_s - stats.total_cycles as f64 / 800e6).abs() < 1e-15);
        // Batched entry agrees with the per-item path.
        let batch = vec![acts.clone(), acts];
        let runs = backend.run_layer_batch_planned(planned, &batch, false);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].outputs, run.outputs);
        assert_eq!(runs[1].stats, run.stats);
    }
}
