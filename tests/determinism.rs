//! Serving never changes outputs, over the oracle's generator
//! (`support`): under the drawn policy (backend, workers 1–3,
//! `max_batch` 1–6, a 0, 100 or 2000 µs window, 1–4 submitters or
//! clients, 1–2 models), coalescing, submission order and the loopback
//! wire leave every item's words the functional golden's.

mod support;

use support::{assert_paths_agree, cases};

#[test]
fn coalescing_and_submission_order_never_change_outputs() {
    for (n, case) in cases("determinism server", 12, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| path == "server");
    }
}

#[test]
fn network_serving_never_changes_outputs() {
    for (n, case) in cases("determinism net", 6, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| path == "net");
    }
}
