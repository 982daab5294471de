//! Backend agreement over the oracle's generator (`support`): the
//! cycle-accurate simulator and the native kernel on 1–5 threads return
//! the functional golden's words, unbatched and batched, and batching
//! changes no backend's outputs. `tests/oracle.rs` runs every path on
//! every case; these run the paths they are named for on cases of their
//! own.

mod support;

use support::{assert_paths_agree, cases};

fn cycle_or_native(path: &str) -> bool {
    path == "cycle" || path.starts_with("native:")
}

#[test]
fn backends_bit_exact_unbatched() {
    for (n, case) in cases("prop unbatched", 48, |_| true).enumerate() {
        assert_paths_agree(&case.solo(), n, cycle_or_native);
    }
}

#[test]
fn backends_bit_exact_batched() {
    for (n, case) in cases("prop batched", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, cycle_or_native);
    }
}

/// The golden runs one item at a time, so a whole batch that matches it
/// on each backend is the batch run item by item.
#[test]
fn batching_never_changes_outputs() {
    let one_per_backend = |path: &str| matches!(path, "functional" | "cycle" | "native:2");
    for (n, case) in cases("prop batching", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, one_per_backend);
    }
}
