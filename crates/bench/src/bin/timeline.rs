//! Utilization timelines: when (not just how much) the PE array stalls.
//!
//! Complements Fig. 8/13's aggregate load-balance numbers with a
//! per-window view of ALU utilization over each benchmark's execution:
//! LNZD fill and pipeline warm-up at the start, batch-boundary drains
//! (VGG-6's 25088-long input runs in 7 batches), and the tail where early
//! finishers starve. Rendered as sparklines, one column per window.
//!
//! The last column is the simulator's own speed — simulated cycles per
//! wall-clock second of the plain `simulate` run that sizes the windows
//! — the quantity that bounds every cycle-accurate sweep (Figs. 8/11/13).

use std::time::Instant;

use eie_bench::*;
use eie_core::sim::simulate_with_timeline;

fn main() {
    let config = paper_config();
    let mut out = String::new();
    out.push_str(&format!(
        "## Utilization timelines ({config}, 48 windows per run)\n\n"
    ));
    for benchmark in Benchmark::ALL {
        let layer = layer_at_scale(benchmark);
        let model = model_at_scale(benchmark, config);
        let encoded = model.layer(0);
        let acts = layer.sample_activations(DEFAULT_SEED);
        // Pick a window so each run renders to ~48 columns.
        let started = Instant::now();
        let probe_run = simulate(encoded, &acts, &config.sim_config());
        let cycles_per_s = probe_run.stats.total_cycles as f64 / started.elapsed().as_secs_f64();
        let window = (probe_run.stats.total_cycles / 48).max(1);
        let (run, timeline) = simulate_with_timeline(encoded, &acts, &config.sim_config(), window);
        out.push_str(&format!(
            "{:<8} |{}| {:5.1}% mean busy, {} cycles, {} batches, {:.2} M sim cycles/s\n",
            benchmark.name(),
            timeline.sparkline(),
            timeline.mean_busy() * 100.0,
            run.stats.total_cycles,
            run.stats.batches,
            cycles_per_s / 1e6,
        ));
        eprintln!("[{}] traced", benchmark.name());
    }
    out.push_str(
        "\nReading: each column is one window's mean ALU busy fraction across PEs\n\
         (█ = 100%). Dips at the start are LNZD fill + FIFO warm-up; interior\n\
         dips are batch-boundary register drains; trailing dips are the load\n\
         imbalance tail that Fig. 8's FIFO sweep quantifies. The last column is\n\
         wall-clock simulator speed on this host (not a property of EIE).\n",
    );
    emit("timeline", &out);
}
