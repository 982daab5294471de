//! The measured CPU grid of Table IV: dense/sparse × batch {1, 64}.

use std::fmt;

use crate::{MvWorkload, TimingHarness};

/// One measured CPU batch run: the baseline-side mirror of the engine's
/// `JobResult` accounting, so EIE-vs-CPU comparisons report the same
/// quantities (per-frame latency and aggregate frames/s) on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineBatchRun {
    /// Which kernel ran (`"dense"` or `"sparse"`).
    pub kernel: &'static str,
    /// Number of frames in the batch.
    pub batch: usize,
    /// Median wall-clock for the whole batch, µs.
    pub wall_us: f64,
}

impl BaselineBatchRun {
    /// Per-frame latency, µs (the paper's Table IV convention).
    pub fn per_frame_us(&self) -> f64 {
        self.wall_us / self.batch as f64
    }

    /// Aggregate inference throughput, frames/s.
    pub fn frames_per_second(&self) -> f64 {
        self.batch as f64 / (self.wall_us * 1e-6)
    }
}

impl fmt::Display for BaselineBatchRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batch {}: {:.1} µs/frame, {:.0} frames/s",
            self.kernel,
            self.batch,
            self.per_frame_us(),
            self.frames_per_second()
        )
    }
}

/// Measured per-frame CPU times for one benchmark layer, µs.
///
/// Mirrors one CPU block of the paper's Table IV. Batched times are
/// reported *per frame* (total batch time divided by batch size), matching
/// the paper's convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuMeasurement {
    /// Dense GEMV, batch 1.
    pub dense_b1_us: f64,
    /// Sparse CSRMV, batch 1.
    pub sparse_b1_us: f64,
    /// Dense GEMM, batch 64, per frame.
    pub dense_b64_us: f64,
    /// Sparse CSRMM, batch 64, per frame.
    pub sparse_b64_us: f64,
}

impl CpuMeasurement {
    /// Measures all four kernels on a workload.
    pub fn measure(workload: &MvWorkload, harness: &TimingHarness) -> Self {
        let dense_b1_us = harness.measure_us(|| workload.run_dense(1));
        let sparse_b1_us = harness.measure_us(|| workload.run_sparse(1));
        let dense_b64_us = harness.measure_us(|| workload.run_dense(64)) / 64.0;
        let sparse_b64_us = harness.measure_us(|| workload.run_sparse(64)) / 64.0;
        Self {
            dense_b1_us,
            sparse_b1_us,
            dense_b64_us,
            sparse_b64_us,
        }
    }

    /// Measures the dense kernel (`GEMV`/`GEMM`) at an arbitrary batch
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is 0 or exceeds [`crate::MAX_BATCH`].
    pub fn measure_dense_batch(
        workload: &MvWorkload,
        batch: usize,
        harness: &TimingHarness,
    ) -> BaselineBatchRun {
        BaselineBatchRun {
            kernel: "dense",
            batch,
            wall_us: harness.measure_us(|| workload.run_dense(batch)),
        }
    }

    /// Measures the sparse kernel (`CSRMV`/`CSRMM`) at an arbitrary batch
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is 0 or exceeds [`crate::MAX_BATCH`].
    pub fn measure_sparse_batch(
        workload: &MvWorkload,
        batch: usize,
        harness: &TimingHarness,
    ) -> BaselineBatchRun {
        BaselineBatchRun {
            kernel: "sparse",
            batch,
            wall_us: harness.measure_us(|| workload.run_sparse(batch)),
        }
    }

    /// Speed-up of the compressed (sparse) kernel at batch 1 — the
    /// paper's "model compression by itself applied on a CPU" factor
    /// (§VI-A reports only ~3× on average).
    pub fn sparse_speedup_b1(&self) -> f64 {
        self.dense_b1_us / self.sparse_b1_us
    }
}

impl fmt::Display for CpuMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense {:.1}/{:.1} µs, sparse {:.1}/{:.1} µs (batch 1/64 per frame)",
            self.dense_b1_us, self.dense_b64_us, self.sparse_b1_us, self.sparse_b64_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_wins_at_batch_1_on_a_sparse_layer() {
        // 9%-dense layer: CSRMV touches ~9% of the bytes GEMV streams, so
        // the sparse kernel must be clearly faster at batch 1.
        let w = MvWorkload::synthesize(512, 512, 0.09, 11);
        let m = CpuMeasurement::measure(&w, &TimingHarness::quick());
        assert!(
            m.sparse_speedup_b1() > 1.5,
            "sparse speedup only {:.2} ({m})",
            m.sparse_speedup_b1()
        );
    }

    #[test]
    fn all_measurements_positive() {
        let w = MvWorkload::synthesize(128, 128, 0.2, 3);
        let m = CpuMeasurement::measure(&w, &TimingHarness::quick());
        for t in [
            m.dense_b1_us,
            m.sparse_b1_us,
            m.dense_b64_us,
            m.sparse_b64_us,
        ] {
            assert!(t > 0.0);
        }
    }

    #[test]
    fn batch_runs_report_consistent_rates() {
        let w = MvWorkload::synthesize(96, 96, 0.15, 9);
        let h = TimingHarness::quick();
        let b1 = CpuMeasurement::measure_sparse_batch(&w, 1, &h);
        let b16 = CpuMeasurement::measure_sparse_batch(&w, 16, &h);
        assert_eq!(b1.batch, 1);
        assert_eq!(b1.per_frame_us(), b1.wall_us);
        assert!(b16.wall_us > b1.wall_us, "16 frames must cost more than 1");
        assert!(b16.frames_per_second() > 0.0);
        let d = CpuMeasurement::measure_dense_batch(&w, 4, &h);
        assert_eq!(d.kernel, "dense");
        assert!(d.to_string().contains("frames/s"));
    }

    #[test]
    fn display_reports_all_four_cells() {
        let m = CpuMeasurement {
            dense_b1_us: 1.0,
            sparse_b1_us: 2.0,
            dense_b64_us: 3.0,
            sparse_b64_us: 4.0,
        };
        let s = m.to_string();
        assert!(s.contains("1.0") && s.contains("4.0"));
    }
}
