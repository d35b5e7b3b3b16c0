//! Property tests for the wire protocol: encode/decode is a bijection on
//! valid messages, and NO byte mangling can cause a panic or a silently
//! wrong decode — corruption is always surfaced as a `WireError`.

use bytes::BytesMut;
use byz_wire::{Message, WireError};
use proptest::prelude::*;

fn arbitrary_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec(-1e6f32..1e6, 0..64),
            prop::collection::vec(prop::collection::vec(any::<u32>(), 0..8), 0..6),
        )
            .prop_map(|(iteration, params, files)| Message::ModelBroadcast {
                iteration,
                params,
                files,
            }),
        Just(Message::Shutdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip(msg in arbitrary_message()) {
        let frame = msg.encode();
        prop_assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn single_byte_corruption_is_detected(
        msg in arbitrary_message(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // The one intended copy: corruption must not mutate the shared frame.
        let mut bytes = BytesMut::from_bytes(&msg.encode());
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        match Message::decode(&bytes) {
            // Every corruption must be *detected* — never a silent wrong
            // message equal to a valid decode of different content.
            Err(_) => {}
            Ok(decoded) => {
                // The only acceptable Ok is when the flip landed in the
                // checksum field itself AND... no: checksum covers kind +
                // body, so flipping header length/magic/checksum or any
                // body byte must error. Flipping a checksum byte makes the
                // stored checksum wrong → error. So Ok means the decode
                // equals the original (impossible after a real flip) —
                // fail loudly either way.
                prop_assert_eq!(decoded, msg, "corrupted frame decoded differently");
                prop_assert!(false, "corruption went undetected");
            }
        }
    }

    #[test]
    fn truncation_never_panics(msg in arbitrary_message(), keep_frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        let out = Message::decode(&bytes[..keep]);
        if keep < bytes.len() {
            prop_assert!(out.is_err(), "truncated frame decoded successfully");
        }
    }

    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Random bytes must decode to Err, not panic (magic/checksum
        // gauntlet). Probability of forging FNV + magic by chance is
        // negligible.
        let _ = Message::decode(&bytes);
    }
}

#[test]
fn truncated_error_kinds() {
    let frame = Message::Shutdown.encode();
    assert!(matches!(
        Message::decode(&frame[..3]),
        Err(WireError::Truncated { .. })
    ));
}
