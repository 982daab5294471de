//! Property tests for the wire-protocol codec: encode → decode is the
//! identity for arbitrary requests and responses, and every malformed
//! byte stream — truncation at *every* byte boundary, oversized length
//! prefixes, bad magic, unknown kinds, corrupt payload fields — maps to
//! a typed [`FrameError`] without ever panicking. The codec faces
//! untrusted network bytes, so totality is the property, not a nicety.

use eie_serve::protocol::{
    read_frame, ErrorCode, FrameError, OutputReport, Request, Response, StatsReport, FRAME_MAGIC,
    MAX_BODY, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Model names over a charset that exercises multi-byte UTF-8 (the
/// name length field counts bytes, not chars).
fn arb_model_name() -> impl Strategy<Value = String> {
    const CHARSET: &[char] = &[
        'a', 'z', 'A', '0', '9', '_', '-', '.', '/', ' ', 'µ', 'λ', '模',
    ];
    prop::collection::vec(0usize..CHARSET.len(), 0..=12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARSET[i]).collect())
}

fn arb_request() -> impl Strategy<Value = Request> {
    // Half the INFER frames carry no deadline/attempt (and therefore
    // encode as version 1 on the wire), half exercise the v2 fields.
    let deadline = prop_oneof![2 => Just(0u64), 1 => 1u64..=30_000_000];
    let attempt = prop_oneof![2 => Just(0u8), 1 => 1u8..=7];
    prop_oneof![
        3 => (
            arb_model_name(),
            prop::collection::vec(-8.0f32..8.0, 0..=48),
            deadline,
            attempt,
        )
            .prop_map(|(model, input, deadline_us, attempt)| Request::Infer {
                model,
                input,
                deadline_us,
                attempt,
            }),
        1 => Just(Request::Stats),
        1 => Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let output = (
        prop::collection::vec(any::<i16>(), 0..=48),
        0.0f64..1e6,
        0.0f64..1e6,
        1u32..=64,
        0u32..8,
    )
        .prop_map(|(outputs, queue_us, latency_us, coalesced, worker)| {
            Response::Output(OutputReport {
                outputs,
                queue_us,
                latency_us,
                coalesced,
                worker,
            })
        });
    let error = (
        prop_oneof![
            Just(ErrorCode::UnknownModel),
            Just(ErrorCode::BadInput),
            Just(ErrorCode::ShuttingDown),
            Just(ErrorCode::LoadFailed),
            Just(ErrorCode::Malformed),
        ],
        arb_model_name(),
    )
        .prop_map(|(code, message)| Response::Error { code, message });
    let stats = (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9),
    )
        .prop_map(
            |(requests, batches, max_coalesced, queue_depth, (a, b, c), (p50, p95, p99, fps))| {
                Response::Stats(StatsReport {
                    requests,
                    batches,
                    max_coalesced,
                    queue_depth,
                    models_registered: (requests % 7) as u32,
                    models_resident: (batches % 5) as u32,
                    resident_bytes: a,
                    budget_bytes: b,
                    loads: c,
                    evictions: c / 2,
                    p50_us: p50,
                    p95_us: p95,
                    p99_us: p99,
                    mean_queue_us: p50 / 2.0,
                    frames_per_second: fps,
                    accepted: requests.wrapping_add(c),
                    shed: c % 11,
                    expired: c % 13,
                    failed: c % 17,
                    retries_upstream: c % 19,
                    worker_restarts: c % 23,
                    degraded: (requests % 2) as u32,
                    slow_client_evictions: c % 29,
                })
            },
        );
    prop_oneof![
        3 => output,
        1 => (1u32..=4096).prop_map(|depth| Response::Overloaded { depth }),
        2 => error,
        2 => stats,
        1 => Just(Response::Ok),
    ]
}

fn strip_prefix(wire: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
    assert_eq!(len, wire.len() - 4, "length prefix disagrees with body");
    &wire[4..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for every request shape.
    #[test]
    fn request_roundtrips(request in arb_request()) {
        let wire = request.to_frame();
        prop_assert_eq!(Request::from_body(strip_prefix(&wire)).unwrap(), request);
    }

    /// encode → decode is the identity for every response shape.
    #[test]
    fn response_roundtrips(response in arb_response()) {
        let wire = response.to_frame();
        prop_assert_eq!(Response::from_body(strip_prefix(&wire)).unwrap(), response);
    }

    /// Truncating a valid request body at ANY byte boundary yields a
    /// typed error, never a panic and never a silent success: every
    /// field's length is declared before its content, so a strict
    /// prefix always runs out of declared bytes.
    #[test]
    fn every_truncation_of_a_request_is_a_typed_error(request in arb_request()) {
        let body = strip_prefix(&request.to_frame()).to_vec();
        for cut in 0..body.len() {
            match Request::from_body(&body[..cut]) {
                Err(
                    FrameError::Truncated { .. }
                    | FrameError::BadMagic
                    | FrameError::BadPayload { .. },
                ) => {}
                Ok(decoded) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes decoded as {decoded:?}", body.len()
                ))),
                Err(other) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes gave unexpected error {other:?}", body.len()
                ))),
            }
        }
        // And the framed stream cut mid-wire is Truncated at the stream
        // level (mid-prefix or mid-body), not a hang or a panic.
        let wire = request.to_frame();
        for cut in 1..wire.len() {
            let mut stream: &[u8] = &wire[..cut];
            prop_assert!(
                matches!(read_frame(&mut stream), Err(FrameError::Truncated { .. })),
                "wire cut at {cut}/{} was not Truncated", wire.len()
            );
        }
    }

    /// Same totality property for response bodies — except the STATS
    /// append-only tail, where a cut at/past the mandatory region is
    /// *by design* a valid shorter frame (what an older server would
    /// have written); such a cut must decode cleanly, never panic.
    #[test]
    fn every_truncation_of_a_response_is_a_typed_error(response in arb_response()) {
        let body = strip_prefix(&response.to_frame()).to_vec();
        // The fault-tolerance tail appended to STATS in protocol v2:
        // six u64 counters, a u32 flag, a final u64.
        const STATS_TAIL: usize = 6 * 8 + 4 + 8;
        let mandatory = matches!(response, Response::Stats(_))
            .then(|| body.len() - STATS_TAIL);
        for cut in 0..body.len() {
            match Response::from_body(&body[..cut]) {
                Err(
                    FrameError::Truncated { .. }
                    | FrameError::BadMagic
                    | FrameError::BadPayload { .. },
                ) => {}
                Ok(_) if mandatory.is_some_and(|m| cut >= m) => {
                    // An old-server STATS frame: tail fields read as 0.
                }
                Ok(decoded) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes decoded as {decoded:?}", body.len()
                ))),
                Err(other) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes gave unexpected error {other:?}", body.len()
                ))),
            }
        }
    }

    /// Single-byte corruption anywhere in the body: in the 6-byte header
    /// it maps to the right typed error class, past it to `Ok` or a
    /// typed error — never a panic.
    #[test]
    fn header_corruption_is_classified(request in arb_request(), flip in any::<usize>(), xor in 1u8..=255) {
        let mut body = strip_prefix(&request.to_frame()).to_vec();
        let flip = flip % body.len();
        body[flip] ^= xor;
        let decoded = Request::from_body(&body);
        match flip {
            0..=3 => prop_assert!(
                matches!(decoded, Err(FrameError::BadMagic)),
                "corrupt magic byte {flip} gave {decoded:?}"
            ),
            // A flipped version byte usually lands outside the
            // supported 1..=2 range (UnsupportedVersion), but may land
            // on the *other* supported version — the payload then
            // parses under the wrong field layout, which must fail
            // typed or decode as something else; it can never decode
            // back to the original. Same property for the kind byte
            // (Stats ↔ Shutdown share a payload shape).
            4..=5 => prop_assert!(
                !matches!(&decoded, Ok(d) if *d == request),
                "corrupt header byte {flip} decoded back to the original {decoded:?}"
            ),
            // Past the header a flipped payload byte may still decode
            // (another name, another activation, even `-0.0 == 0.0`) or
            // fail typed — a length field pointing past the body, a
            // non-finite activation, trailing bytes. Decoding is pure,
            // so an I/O error here would be a misclassification.
            _ => prop_assert!(
                !matches!(decoded, Err(FrameError::Io(_))),
                "corrupt payload byte {flip} gave {decoded:?}"
            ),
        }
    }
}

/// The deterministic malformed-input sweep: each named hostile shape
/// maps to its documented error variant.
#[test]
fn malformed_sweep_hits_every_error_variant() {
    let mut valid = Vec::from(FRAME_MAGIC);
    valid.push(PROTOCOL_VERSION);

    // Bad magic.
    let body = b"NOPE\x01\x02".to_vec();
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::BadMagic)
    ));

    // Unsupported version.
    let mut body = Vec::from(FRAME_MAGIC);
    body.push(PROTOCOL_VERSION + 1);
    body.push(0x02);
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::UnsupportedVersion { found, supported })
            if found == PROTOCOL_VERSION + 1 && supported == PROTOCOL_VERSION
    ));

    // Unknown request kind — including response kinds sent as requests.
    for kind in [0x00u8, 0x42, 0x7F, 0x81, 0xFF] {
        let mut body = valid.clone();
        body.push(kind);
        assert!(
            matches!(Request::from_body(&body), Err(FrameError::UnknownKind(k)) if k == kind),
            "request kind {kind:#04x} was not rejected as unknown"
        );
    }
    // ...and request kinds sent as responses.
    for kind in [0x01u8, 0x02, 0x03, 0x80] {
        let mut body = valid.clone();
        body.push(kind);
        assert!(
            matches!(Response::from_body(&body), Err(FrameError::UnknownKind(k)) if k == kind),
            "response kind {kind:#04x} was not rejected as unknown"
        );
    }

    // Oversized length prefix: rejected before any allocation.
    let mut wire: &[u8] = &((MAX_BODY as u32) + 1).to_le_bytes();
    assert!(matches!(
        read_frame(&mut wire),
        Err(FrameError::Oversized { len, max }) if len == MAX_BODY + 1 && max == MAX_BODY
    ));
    // The bound itself is accepted at the framing layer (would read the
    // body next) — only the excess is hostile.
    let at_bound = (MAX_BODY as u32).to_le_bytes();
    let mut wire: &[u8] = &at_bound;
    assert!(matches!(
        read_frame(&mut wire),
        Err(FrameError::Truncated { .. })
    ));

    // Trailing bytes after a complete payload.
    let mut body = strip_prefix(&Request::Stats.to_frame()).to_vec();
    body.push(0);
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::BadPayload {
            field: "trailing bytes"
        })
    ));

    // Invalid UTF-8 in a model name.
    let mut body = valid.clone();
    body.push(0x01); // INFER
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(&[0xFF, 0xFE]);
    body.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::BadPayload {
            field: "model name"
        })
    ));

    // Non-finite input activation. Hand-built at version 1 — the v1
    // INFER layout has no deadline/attempt fields, and the reader must
    // still speak it.
    let mut v1 = Vec::from(FRAME_MAGIC);
    v1.push(MIN_PROTOCOL_VERSION);
    let mut body = v1.clone();
    body.push(0x01);
    body.extend_from_slice(&1u16.to_le_bytes());
    body.push(b'm');
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&f32::NAN.to_le_bytes());
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::BadPayload {
            field: "input activation"
        })
    ));

    // Same hostile activation under the v2 layout (deadline + attempt
    // precede the input count).
    let mut body = valid.clone();
    body.push(0x01);
    body.extend_from_slice(&1u16.to_le_bytes());
    body.push(b'm');
    body.extend_from_slice(&0u64.to_le_bytes()); // deadline_us
    body.push(0); // attempt
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&f32::NAN.to_le_bytes());
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::BadPayload {
            field: "input activation"
        })
    ));

    // Unknown error code in a response.
    let mut body = valid.clone();
    body.push(0x84); // ERROR
    body.push(200);
    body.extend_from_slice(&0u16.to_le_bytes());
    assert!(matches!(
        Response::from_body(&body),
        Err(FrameError::BadPayload {
            field: "error code"
        })
    ));

    // A declared input count far past the body: typed truncation, and
    // the block is bounds-checked before anything is reserved.
    let mut body = v1;
    body.push(0x01);
    body.extend_from_slice(&0u16.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::from_body(&body),
        Err(FrameError::Truncated {
            section: "input",
            ..
        })
    ));
}
