//! The native kernel's plans over the oracle's generator (`support`):
//! every lane-remainder batch class on 1–5 threads, and a model's cached
//! 1-thread plans walked by a wider engine. The fixed corner cases and
//! the proof's exact bounds are `crates/core/tests/plan_prop.rs`.

mod support;

use support::{assert_paths_agree, cases};

#[test]
fn plan_and_golden_bit_exact() {
    for (n, case) in cases("plan", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| path.starts_with("native:"));
    }
}

#[test]
fn model_plan_cache_path_bit_exact() {
    for (n, case) in cases("plan cache", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| {
            matches!(path, "native:1" | "native:3/cut:1")
        });
    }
}
