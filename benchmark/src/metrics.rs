//! The metric names this benchmark emits, and the result line.
//!
//! `BENCHMARK.json` lists the same names; a unit test fails if the two
//! disagree in either direction.

use std::fmt::Write as _;

use crate::drive::Tally;
use crate::estimators::Better::{self, Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What an operator serving `.eie` artifacts sees. Every workload
/// reports every one of these (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p90_us", "us", Lower, 0.25),
    e2e("rss_mb", "MB", Lower, 0.25),
];

/// What a builder changing one layer sees; layer = module path. Every
/// workload reports every one of these on its own model and traffic
/// (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("compress.compile_ms", "ms", Lower),
    layer("compress.codec_decode_ms", "ms", Lower),
    layer("compress.codec_bytes", "B", Lower),
    layer("compress.plan_build_ms", "ms", Lower),
    layer("compress.plan_bytes", "B", Lower),
    layer("compress.plan_entries", "count", Lower),
    layer("core.artifact.read_ms", "ms", Lower),
    layer("core.artifact.from_bytes_ms", "ms", Lower),
    layer("core.artifact.validate_self_ms", "ms", Lower),
    layer("core.native.stack_us.b1", "us", Lower),
    layer("core.native.stack_us.b8", "us", Lower),
    layer("core.native.gbps.b1", "GB/s", Higher),
    layer("core.native.gmacs.b8", "GMAC/s", Higher),
    layer("core.native.macs_per_req", "count", Lower),
    layer("core.native.live_cols_share", "share", Lower),
    layer("core.native.first_dispatch_ms", "ms", Lower),
    layer("core.native.stack_share", "share", Lower),
    layer("core.infer.chain_self_us.b1", "us", Lower),
    layer("core.infer.chain_self_us.b8", "us", Lower),
    layer("serve.protocol.encode_req_us", "us", Lower),
    layer("serve.protocol.decode_req_us", "us", Lower),
    layer("serve.protocol.encode_resp_us", "us", Lower),
    layer("serve.protocol.decode_resp_us", "us", Lower),
    layer("serve.protocol.req_bytes", "B", Lower),
    layer("serve.protocol.resp_bytes", "B", Lower),
    layer("serve.server.submit_us", "us", Lower),
    layer("serve.server.queue_us", "us", Lower),
    layer("serve.server.service_us", "us", Lower),
    layer("serve.server.coalesced_mean", "count", Higher),
    layer("serve.server.lane_fill", "share", Higher),
    layer("serve.server.overhead_us", "us", Lower),
    layer("serve.server.start_ms", "ms", Lower),
    layer("serve.server.first_request_ms", "ms", Lower),
    layer("serve.server.shutdown_ms", "ms", Lower),
    layer("serve.registry.acquire_hit_us", "us", Lower),
    layer("serve.registry.loads", "count", Lower),
    layer("serve.registry.evictions", "count", Lower),
    layer("serve.registry.cold_ms", "ms", Lower),
    layer("serve.registry.cold_unattributed_ms", "ms", Lower),
    layer("serve.net.self_us", "us", Lower),
    layer("serve.net.connect_us", "us", Lower),
    layer("serve.faults.shed", "count", Lower),
    layer("serve.faults.expired", "count", Lower),
    layer("serve.faults.failed", "count", Lower),
    layer("serve.faults.worker_restarts", "count", Lower),
    layer("harness.latency_p99_us", "us", Lower),
    layer("harness.arrival_p50_us", "us", Lower),
    layer("harness.arrival_p90_us", "us", Lower),
    layer("harness.gen_late_p99_us", "us", Lower),
    layer("harness.samples", "count", Higher),
    layer("harness.unattributed_share", "share", Lower),
    layer("harness.trace_overhead_share", "share", Lower),
];

/// Measured values, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    /// Records a value with a remark printed beside it (segment
    /// extremes, sample counts).
    pub fn note(&mut self, name: &'static str, value: f64, remark: String) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        assert!(
            !self.values.iter().any(|(n, _, _)| *n == name),
            "{name} was recorded twice"
        );
        self.values.push((name, value, remark));
    }

    /// Prints every metric by name with its unit, then the result line
    /// the driver reads: one JSON object, last on standard output.
    ///
    /// # Panics
    ///
    /// Panics if the recorded names are not exactly `defs`' names: a
    /// metric that is declared but not measured (or the reverse) is a
    /// harness bug the run must not paper over.
    pub fn emit(&self, defs: &[MetricDef], tally: Tally, correct: bool) {
        for (name, _, _) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "{name} is not a declared metric"
            );
        }
        let mut json = String::new();
        for def in defs {
            let (_, value, remark) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == def.name)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            println!(
                "{:<40} {:>16.4} {:<7} {}",
                def.name, value, def.unit, remark
            );
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct, tally.attempted, tally.failed, json
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::stack::Workload;

    fn names_in(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|entry| entry.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_and_the_harness_agree_on_every_name() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<String> = Workload::all().iter().map(|w| w.name()).collect();
        assert_eq!(names_in(&doc, "workloads"), workloads);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names_in(&doc, key), declared, "{key} names differ");
            for (entry, def) in doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .zip(defs)
            {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.name())
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let mut all: Vec<String> = workloads;
        all.extend(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .map(|d| d.name.to_owned()),
        );
        for name in &all {
            assert!(valid_name(name), "{name:?} breaks [A-Za-z0-9_.-]+");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn a_report_refuses_unfinished_or_undeclared_metrics() {
        assert!(std::panic::catch_unwind(|| {
            let mut r = Report::default();
            r.set("setup_s", 1.0);
            r.emit(END_TO_END, Tally::default(), true);
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            let mut r = Report::default();
            r.set("setup_s", f64::NAN);
        })
        .is_err());
    }
}
