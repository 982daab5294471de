//! The `.eie` container over the oracle's generator (`support`): the
//! `artifact:csc-nibble` path saves, loads (a version-1 container, the
//! identity, byte for byte) and runs every drawn stack, shared codebook
//! or not, bit-exactly with the never-serialized model.

mod support;

use support::{assert_paths_agree, cases};

#[test]
fn container_roundtrip_is_bit_exact_on_all_backends() {
    for (n, case) in cases("artifact", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| path == "artifact:csc-nibble");
    }
}
