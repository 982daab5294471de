//! Every weight codec over the oracle's generator (`support`): each
//! `artifact:<codec>` path predicts its size, roundtrips to the identity
//! byte for byte and runs bit-exactly with the in-process compile.

mod support;

use support::{assert_paths_agree, cases};

#[test]
fn every_codec_roundtrips_bit_exactly_on_all_backends() {
    for (n, case) in cases("codec", 24, |_| true).enumerate() {
        assert_paths_agree(&case, n, |path| path.starts_with("artifact:"));
    }
}
