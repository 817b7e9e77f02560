//! Hostile-input fuzzing for the two wire decoders that parse bytes from
//! outside the process: the shard protocol's [`Message::decode_frame`]
//! and the WAL's [`WalRecord::decode`].
//!
//! Three byte diets, per decoder:
//!
//! * **random garbage** — decoding must return a typed error or a valid
//!   value, never panic, never over-read, and a replay-style decode loop
//!   must always terminate;
//! * **truncations** — every strict prefix of a valid encoding must
//!   report `Truncated` (the torn-tail signal recovery relies on);
//! * **bit flips** — any single flipped payload bit must be caught (the
//!   CRC-32 guarantee), and header flips must at worst produce a typed
//!   error.

use proptest::prelude::*;
use repose_distance::Measure;
use repose_durability::{DecodeError, WalRecord};
use repose_model::Point;
use repose_shard::{Message, ProtocolError, RefusalReason};

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    // Bit patterns straight from u64 so NaNs, infinities, negative zero
    // and subnormals all travel through the encoders.
    proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12).prop_map(|bits| {
        bits.iter()
            .map(|&(x, y)| Point::new(f64::from_bits(x), f64::from_bits(y)))
            .collect()
    })
}

/// A trajectory the protocol accepts in a `Query` or `Upsert`: any finite
/// bit pattern (clearing the top exponent bit rules out NaN and ±∞ and
/// keeps subnormals, negative zero and both signs).
fn arb_finite_points() -> impl Strategy<Value = Vec<Point>> {
    arb_points().prop_map(|pts| {
        let finite = |v: f64| f64::from_bits(v.to_bits() & !(1 << 62));
        pts.iter().map(|p| Point::new(finite(p.x), finite(p.y))).collect()
    })
}

/// A distance or bound the protocol accepts: any non-negative non-NaN
/// bit pattern, zero through subnormals to infinity.
fn arb_dist() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|b| f64::from_bits(b % (f64::INFINITY.to_bits() + 1)))
}

/// One the protocol refuses: a NaN or anything with the sign bit set
/// (bar negative zero, which compares equal to zero and is accepted).
fn arb_bad_dist() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|b| {
        let d = f64::from_bits(b);
        if d >= 0.0 { -1.0 - d } else { d }
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_points())
            .prop_map(|(seq, id, points)| WalRecord::Upsert { seq, id, points }),
        (any::<u64>(), any::<u64>()).prop_map(|(seq, id)| WalRecord::Delete { seq, id }),
        any::<u64>().prop_map(|seq| WalRecord::Checkpoint { seq }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let measure = (0..Measure::ALL.len()).prop_map(|i| Measure::ALL[i]);
    let reason = prop_oneof![
        Just(RefusalReason::NotLeader),
        Just(RefusalReason::ReplicationUnavailable),
        Just(RefusalReason::Durability),
    ];
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<u32>(), measure, arb_dist(), arb_finite_points()).prop_map(
            |(qid, attempt, k, measure, seed_dk, points)| Message::Query {
                qid,
                attempt,
                k,
                measure,
                seed_dk,
                points,
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u64>(), arb_dist())
            .prop_map(|(qid, attempt, id, dist)| Message::Hit { qid, attempt, id, dist }),
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec((any::<u64>(), arb_dist()), 0..24)
        )
            .prop_map(|(qid, attempt, hits)| Message::Hits { qid, attempt, hits }),
        proptest::collection::vec(arb_record(), 0..4)
            .prop_map(|records| Message::Replicate { records }),
        any::<u64>().prop_map(|seq| Message::Ack { seq }),
        any::<u64>().prop_map(|seq| Message::Heartbeat { seq }),
        (any::<u64>(), any::<u64>(), arb_finite_points())
            .prop_map(|(wid, id, points)| Message::Upsert { wid, id, points }),
        (any::<u64>(), any::<u64>()).prop_map(|(wid, id)| Message::Delete { wid, id }),
        (any::<u64>(), any::<u64>()).prop_map(|(wid, seq)| Message::WriteOk { wid, seq }),
        (any::<u64>(), reason).prop_map(|(wid, reason)| Message::WriteRefused { wid, reason }),
        Just(Message::Shutdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ---- random garbage ----

    #[test]
    fn protocol_decode_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut cur = bytes.as_slice();
        // Drain like the transports do: decode until clean end or error.
        // Must terminate (every Ok(Some) consumes at least the 8-byte
        // header) and must never read past the buffer.
        loop {
            let before = cur.len();
            match Message::decode_frame(&mut cur) {
                Ok(None) => break,
                Ok(Some(_)) => prop_assert!(cur.len() <= before.saturating_sub(8)),
                Err(_) => break, // typed error, fine
            }
        }
    }

    #[test]
    fn wal_decode_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut cur = bytes.as_slice();
        loop {
            let before = cur.len();
            match WalRecord::decode(&mut cur) {
                Ok(None) => break,
                Ok(Some(_)) => prop_assert!(cur.len() <= before.saturating_sub(8)),
                Err(_) => break,
            }
        }
    }

    // ---- valid encodings roundtrip bit-exactly ----

    #[test]
    fn protocol_roundtrips_bit_exactly(msg in arb_message()) {
        let frame = msg.encode_frame();
        let mut cur = frame.as_slice();
        let back = Message::decode_frame(&mut cur).unwrap().unwrap();
        prop_assert!(cur.is_empty());
        // Compare re-encoded bytes, not values: NaN points are legal
        // inside a replicated WAL record and `PartialEq` would reject them
        // even when the bit patterns survived perfectly.
        prop_assert_eq!(back.encode_frame(), frame);
    }

    #[test]
    fn wal_record_roundtrips_bit_exactly(rec in arb_record()) {
        let bytes = rec.to_bytes();
        let mut cur = bytes.as_slice();
        let back = WalRecord::decode(&mut cur).unwrap().unwrap();
        prop_assert!(cur.is_empty());
        // Byte comparison for the same NaN reason as the protocol test.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    // ---- distances that would corrupt a SharedTopK bound are refused ----

    #[test]
    fn protocol_refuses_nan_and_negative_distances(
        bad in arb_bad_dist(),
        good in proptest::collection::vec((any::<u64>(), arb_dist()), 0..8),
        at in any::<usize>(),
    ) {
        let mut hits = good;
        hits.insert(at % (hits.len() + 1), (1, bad));
        for msg in [
            Message::Hit { qid: 1, attempt: 0, id: 1, dist: bad },
            Message::Hits { qid: 1, attempt: 0, hits },
            Message::Query {
                qid: 1,
                attempt: 0,
                k: 3,
                measure: Measure::Frechet,
                seed_dk: bad,
                points: vec![Point::new(0.0, 0.0)],
            },
        ] {
            let frame = msg.encode_frame();
            prop_assert_eq!(
                Message::decode_frame(&mut frame.as_slice()),
                Err(ProtocolError::BadPayload)
            );
        }
    }

    // ---- coordinates the distance kernels cannot take are refused ----

    #[test]
    fn protocol_refuses_non_finite_coordinates(
        good in arb_finite_points(),
        bad_bits in any::<u64>(),
        at in any::<usize>(),
        in_y in any::<bool>(),
    ) {
        // Exponent all ones: ±∞ or a NaN, whatever the other bits say.
        let bad = f64::from_bits(bad_bits | (0x7ff << 52));
        let mut points = good;
        let p = if in_y { Point::new(1.0, bad) } else { Point::new(bad, 1.0) };
        points.insert(at % (points.len() + 1), p);
        for msg in [
            Message::Query {
                qid: 1,
                attempt: 0,
                k: 3,
                measure: Measure::Frechet,
                seed_dk: f64::INFINITY,
                points: points.clone(),
            },
            Message::Upsert { wid: 1, id: 1, points },
        ] {
            let frame = msg.encode_frame();
            prop_assert_eq!(
                Message::decode_frame(&mut frame.as_slice()),
                Err(ProtocolError::BadPayload)
            );
        }
    }

    // ---- truncation: every strict prefix is a torn tail ----

    #[test]
    fn protocol_truncation_is_typed(msg in arb_message(), frac in 0.0f64..1.0) {
        let frame = msg.encode_frame();
        let cut = ((frame.len() as f64) * frac) as usize; // < len: strict prefix
        let mut cur = &frame[..cut];
        match Message::decode_frame(&mut cur) {
            Ok(None) => prop_assert_eq!(cut, 0, "only empty input may decode to None"),
            Err(ProtocolError::Truncated) => {}
            other => prop_assert!(false, "prefix of {cut}/{} gave {other:?}", frame.len()),
        }
    }

    #[test]
    fn wal_truncation_is_typed(rec in arb_record(), frac in 0.0f64..1.0) {
        let bytes = rec.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let mut cur = &bytes[..cut];
        match WalRecord::decode(&mut cur) {
            Ok(None) => prop_assert_eq!(cut, 0, "only empty input may decode to None"),
            Err(DecodeError::Truncated) => {}
            other => prop_assert!(false, "prefix of {cut}/{} gave {other:?}", bytes.len()),
        }
    }

    // ---- bit flips ----

    #[test]
    fn protocol_payload_bit_flip_is_caught(msg in arb_message(), pick in any::<u64>()) {
        let mut frame = msg.encode_frame();
        // Flip one bit inside the CRC-protected payload (bytes 8..): the
        // checksum detects every single-bit error, so decode must fail.
        let payload_bits = (frame.len() - 8) * 8;
        let bit = 64 + (pick as usize % payload_bits);
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut cur = frame.as_slice();
        prop_assert!(Message::decode_frame(&mut cur).is_err());
    }

    #[test]
    fn wal_payload_bit_flip_is_caught(rec in arb_record(), pick in any::<u64>()) {
        let mut bytes = rec.to_bytes();
        let payload_bits = (bytes.len() - 8) * 8;
        let bit = 64 + (pick as usize % payload_bits);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut cur = bytes.as_slice();
        prop_assert!(WalRecord::decode(&mut cur).is_err());
    }

    #[test]
    fn protocol_header_bit_flip_never_panics(msg in arb_message(), pick in any::<u64>()) {
        let mut frame = msg.encode_frame();
        let bit = pick as usize % 64; // somewhere in [len][crc]
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut cur = frame.as_slice();
        let _ = Message::decode_frame(&mut cur); // typed error or miss, no panic
    }

    #[test]
    fn wal_header_bit_flip_never_panics(rec in arb_record(), pick in any::<u64>()) {
        let mut bytes = rec.to_bytes();
        let bit = pick as usize % 64;
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut cur = bytes.as_slice();
        let _ = WalRecord::decode(&mut cur);
    }
}
