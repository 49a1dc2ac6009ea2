//! Property tests for the wire codec: every frame survives an
//! encode→decode round trip, and no byte string — random, truncated or
//! one byte off a valid frame — makes a decoder panic. A payload that
//! does decode is the exact encoding of the frame it decodes to, so the
//! codec has one byte form per frame.

use proptest::prelude::*;
use session_serve::wire::{undatagram, MAX_PAYLOAD};
use session_serve::{ClientFrame, ConformanceVerdict, RejectCode, ServerFrame};
use session_types::TimingModel;

fn model() -> impl Strategy<Value = TimingModel> {
    (0..TimingModel::ALL.len()).prop_map(|i| TimingModel::ALL[i])
}

fn reject_code() -> impl Strategy<Value = RejectCode> {
    (1u8..=6).prop_map(|b| RejectCode::from_u8(b).expect("codes 1..=6 exist"))
}

fn verdict() -> impl Strategy<Value = ConformanceVerdict> {
    (0u8..=3).prop_map(|b| ConformanceVerdict::from_u8(b).expect("verdicts 0..=3 exist"))
}

/// Every `ClientFrame` variant, with arbitrary field values.
fn client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        any::<u64>().prop_map(|token| ClientFrame::Hello { token }),
        (
            (any::<u64>(), model(), any::<u32>()),
            (any::<u32>(), any::<u32>(), any::<u64>()),
        )
            .prop_map(|((req, model, s), (n, unit_us, seed))| ClientFrame::Open {
                req,
                model,
                s,
                n,
                unit_us,
                seed,
            }),
        any::<u64>().prop_map(|nonce| ClientFrame::Ping { nonce }),
    ]
}

/// Every `ServerFrame` variant, with arbitrary field values.
fn server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        any::<u64>().prop_map(|capacity| ServerFrame::HelloOk { capacity }),
        (any::<u64>(), reject_code()).prop_map(|(req, code)| ServerFrame::Reject { req, code }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(req, session)| ServerFrame::Opened { req, session }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            verdict()
        )
            .prop_map(
                |(session, sessions, nominal_close_us, elapsed_us, conformance)| {
                    ServerFrame::Closed {
                        session,
                        sessions,
                        nominal_close_us,
                        elapsed_us,
                        conformance,
                    }
                }
            ),
        any::<u64>().prop_map(|nonce| ServerFrame::Pong { nonce }),
        reject_code().prop_map(|code| ServerFrame::Bye { code }),
    ]
}

/// Arbitrary bytes up to a little past the payload cap.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD + 8)
}

/// A valid encoding of either side's frame, then damaged: truncated,
/// extended, or with one byte replaced. Random bytes seldom carry a
/// known tag; these reach every field decoder.
fn damaged_frame() -> impl Strategy<Value = Vec<u8>> {
    let valid = prop_oneof![
        client_frame().prop_map(|f| f.encode()),
        server_frame().prop_map(|f| f.encode()),
    ];
    (valid, 0u8..3, any::<usize>(), any::<u8>()).prop_map(|(mut bytes, how, at, byte)| {
        match how {
            0 => bytes.truncate(at % (bytes.len() + 1)),
            1 => bytes.push(byte),
            _ => {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
        }
        bytes
    })
}

/// The decoders' contract on any input: no panic, and a successful
/// decode re-encodes to the input exactly.
fn check_decoders(payload: &[u8]) {
    if let Ok(frame) = ClientFrame::decode(payload) {
        prop_assert_eq!(frame.encode(), payload.to_vec());
    }
    if let Ok(frame) = ServerFrame::decode(payload) {
        prop_assert_eq!(frame.encode(), payload.to_vec());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn client_frames_round_trip(frame in client_frame()) {
        let payload = frame.encode();
        prop_assert!(payload.len() <= MAX_PAYLOAD);
        prop_assert_eq!(ClientFrame::decode(&payload), Ok(frame));
        // Client and server tags are disjoint.
        prop_assert!(ServerFrame::decode(&payload).is_err());
    }

    #[test]
    fn server_frames_round_trip(frame in server_frame()) {
        let payload = frame.encode();
        prop_assert!(payload.len() <= MAX_PAYLOAD);
        prop_assert_eq!(ServerFrame::decode(&payload), Ok(frame));
        prop_assert!(ClientFrame::decode(&payload).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(payload in bytes()) {
        check_decoders(&payload);
        // The datagram splitter is the UDP path's first decoder.
        if let Ok(inner) = undatagram(&payload) {
            prop_assert!(!inner.is_empty() && inner.len() <= MAX_PAYLOAD);
            check_decoders(inner);
        }
    }

    #[test]
    fn damaged_frames_never_panic_a_decoder(payload in damaged_frame()) {
        check_decoders(&payload);
    }
}
