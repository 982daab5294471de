//! Multi-layer stacks over the oracle's generator (`support`): drawn
//! stacks of 2–3 layers run bit-exactly on the native kernel at every
//! thread count, and near-rail stacks clamp in the golden's add order.
//! The fixed two-stripe stack is `crates/core/tests/topology_prop.rs`.

mod support;

use support::{assert_paths_agree, cases, Mode};

fn native(path: &str) -> bool {
    path.starts_with("native:")
}

#[test]
fn threaded_stacks_are_bit_exact() {
    for (n, case) in cases("topology", 24, |d| d.dims.len() > 2).enumerate() {
        assert_paths_agree(&case, n, native);
    }
}

#[test]
fn saturating_stacks_pin_the_add_order() {
    let keep = |d: &support::Draw| d.dims.len() > 2 && d.mode == Mode::Saturating;
    for (n, case) in cases("topology saturating", 24, keep).enumerate() {
        assert_paths_agree(&case, n, native);
    }
}
