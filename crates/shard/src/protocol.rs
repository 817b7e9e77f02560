//! The binary shard protocol: every byte that crosses the [`crate::Transport`]
//! is one [`Message`] framed exactly like a WAL record —
//! `[len u32][crc u32][payload]` with the payload starting at a tag byte —
//! built on the same [`repose_model::wire`] primitives the durability
//! layer persists with, so the encoder and decoder can never disagree on
//! widths, byte order, or float bit patterns.
//!
//! Distances and points travel as IEEE-754 bit patterns
//! ([`repose_model::wire::put_f64`]), which is what lets the fault-matrix
//! suite demand *bitwise* identity between sharded and single-node
//! answers: serialization is exact, never a rounding step.
//!
//! A query costs one frame each way per shard attempt: the coordinator's
//! [`Message::Query`] and the shard's one [`Message::Hits`] reply, which
//! carries the attempt's whole local top-k. The per-frame costs — encode,
//! CRC, fault-site consult, queue push, wake-up, decode — are paid once
//! per attempt, not once per hit or per partition.
//!
//! Decoding is hostile-input safe: underruns, bad checksums, impossible
//! counts, and unknown tags (the retired 3 and 4 among them) all surface
//! as a typed [`ProtocolError`] — never a panic, never a silently skipped
//! field. Hit distances and a `Query`'s `seed_dk`, which feed a
//! [`repose_distance::SharedTopK`], are checked here too: its `fetch_min`
//! on `f64::to_bits` is only ordered for non-negative non-NaN values, so a
//! NaN or negative one is refused at the wire (+∞, a seed's "none", is
//! legal). So is a non-finite coordinate in a `Query` or
//! `Upsert` trajectory: the distance kernels' bitwise contract holds for
//! finite input only.

use repose_distance::Measure;
use repose_durability::{crc32, DecodeError, WalRecord};
use repose_model::wire::{
    put_f64, put_points, put_u32, put_u64, read_f64, read_points, read_u32, read_u64,
};
use repose_model::{Point, TrajId};

/// Why a shard write was refused (carried by [`Message::WriteRefused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The receiving node is a follower that has not been promoted; the
    /// client should retry against the leader (or wait for promotion).
    NotLeader,
    /// The leader logged the write but could not confirm replication to
    /// its follower within its retry budget; the write is **not**
    /// acknowledged (it will be re-replicated before any later ack).
    ReplicationUnavailable,
    /// The node's local durability layer failed; the write was not
    /// acknowledged.
    Durability,
}

impl RefusalReason {
    fn to_u8(self) -> u8 {
        match self {
            RefusalReason::NotLeader => 0,
            RefusalReason::ReplicationUnavailable => 1,
            RefusalReason::Durability => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RefusalReason::NotLeader),
            1 => Some(RefusalReason::ReplicationUnavailable),
            2 => Some(RefusalReason::Durability),
            _ => None,
        }
    }
}

/// Encodes a [`Measure`] as its index in [`Measure::ALL`].
pub fn measure_to_u8(m: Measure) -> u8 {
    Measure::ALL
        .iter()
        .position(|&x| x == m)
        .expect("every measure is in ALL") as u8
}

/// Decodes a [`Measure`] from its [`Measure::ALL`] index.
pub fn measure_from_u8(v: u8) -> Option<Measure> {
    Measure::ALL.get(v as usize).copied()
}

/// One shard-protocol message (see module docs for framing).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → shard: execute attempt `attempt` of query `qid`.
    /// `seed_dk` pre-bounds the shard's collector (`INFINITY` = none —
    /// retries carry the coordinator's current global bound).
    Query {
        /// Coordinator-assigned query id.
        qid: u64,
        /// Attempt number within the query (each retry takes the next).
        attempt: u32,
        /// Results requested.
        k: u32,
        /// The deployment measure (sanity-checked by the worker).
        measure: Measure,
        /// Initial threshold bound (`INFINITY` encodes as its bit pattern).
        seed_dk: f64,
        /// The query trajectory.
        points: Vec<Point>,
    },
    /// Shard → coordinator: one accepted local hit. Workers reply with
    /// [`Message::Hits`] and never send this; a coordinator ignores one
    /// like any other stray frame.
    Hit {
        /// The query this hit answers.
        qid: u64,
        /// The attempt that produced it.
        attempt: u32,
        /// The trajectory found.
        id: TrajId,
        /// Its exact distance (bit-exact over the wire).
        dist: f64,
    },
    /// Shard → coordinator: the whole answer of one attempt — the shard's
    /// local top-k as `(id, exact distance)` pairs, possibly empty. The
    /// attempt is complete when this frame arrives.
    Hits {
        /// The query these hits answer.
        qid: u64,
        /// The attempt that produced them.
        attempt: u32,
        /// The trajectories found, distances bit-exact over the wire.
        hits: Vec<(TrajId, f64)>,
    },
    /// Leader → follower: the leader's unacknowledged WAL suffix, oldest
    /// first. Records the follower already holds are skipped idempotently.
    Replicate {
        /// The records, exactly as the leader logged them.
        records: Vec<WalRecord>,
    },
    /// Follower → leader: every record with sequence `<= seq` is durably
    /// applied on the follower.
    Ack {
        /// The follower's highest contiguous operation sequence.
        seq: u64,
    },
    /// Leader → follower: liveness (and the leader's current sequence, so
    /// a follower can observe how far behind it is). A follower that
    /// misses these past its timeout promotes itself.
    Heartbeat {
        /// The leader's current operation sequence.
        seq: u64,
    },
    /// Coordinator → leader: durably upsert, replicate, then acknowledge.
    Upsert {
        /// Coordinator-assigned write id (acks echo it).
        wid: u64,
        /// The trajectory id to upsert.
        id: TrajId,
        /// Its points.
        points: Vec<Point>,
    },
    /// Coordinator → leader: durably delete, replicate, then acknowledge.
    Delete {
        /// Coordinator-assigned write id.
        wid: u64,
        /// The trajectory id to delete.
        id: TrajId,
    },
    /// Leader → coordinator: write `wid` is durable *and* replicated
    /// (log-before-ack: this is the only message that acknowledges a
    /// write, and it is sent strictly after the follower's `Ack`).
    WriteOk {
        /// The acknowledged write.
        wid: u64,
        /// The operation sequence it was logged under.
        seq: u64,
    },
    /// Leader/follower → coordinator: write `wid` was **not** applied
    /// in an acknowledged way; the coordinator may retry elsewhere.
    WriteRefused {
        /// The refused write.
        wid: u64,
        /// Why.
        reason: RefusalReason,
    },
    /// Coordinator → everyone: exit the worker loop (clean teardown).
    Shutdown,
}

const TAG_QUERY: u8 = 1;
const TAG_HIT: u8 = 2;
// Tags 3 and 4 are retired (a mid-query bound broadcast and an
// attempt-closing frame). Never reuse them: a frame from a peer that
// still sends either must decode to `BadTag`, not to some other message.
const TAG_REPLICATE: u8 = 5;
const TAG_ACK: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_UPSERT: u8 = 8;
const TAG_DELETE: u8 = 9;
const TAG_WRITE_OK: u8 = 10;
const TAG_WRITE_REFUSED: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;
const TAG_HITS: u8 = 13;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer ended mid-frame or mid-field.
    Truncated,
    /// The frame length field exceeds sanity bounds.
    BadLength,
    /// The payload does not match its checksum.
    BadChecksum,
    /// The payload tag names no known message.
    BadTag(u8),
    /// The measure byte names no known measure.
    BadMeasure(u8),
    /// An embedded WAL record failed to decode.
    BadRecord(DecodeError),
    /// A payload field was malformed (e.g. an impossible count).
    BadPayload,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::BadLength => write!(f, "frame length exceeds bounds"),
            ProtocolError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtocolError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::BadMeasure(m) => write!(f, "unknown measure byte {m}"),
            ProtocolError::BadRecord(e) => write!(f, "embedded WAL record: {e:?}"),
            ProtocolError::BadPayload => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Frames larger than this are rejected before allocation (the largest
/// legitimate message is a `Replicate` burst; 64 MiB is far above it).
const MAX_FRAME: u32 = 64 << 20;

/// Bytes of the `[len u32][crc u32]` frame header.
const HEADER: usize = 8;

/// Reads a distance or bound destined for a `SharedTopK`: NaN and negative
/// values are malformed (see module docs).
fn read_dist(cur: &mut &[u8]) -> Result<f64, ProtocolError> {
    let d = read_f64(cur).ok_or(ProtocolError::Truncated)?;
    if d >= 0.0 {
        Ok(d)
    } else {
        Err(ProtocolError::BadPayload)
    }
}

/// Reads the trajectory of a `Query` or `Upsert`: a NaN or infinite
/// coordinate is malformed (see module docs).
fn read_trajectory(cur: &mut &[u8]) -> Result<Vec<Point>, ProtocolError> {
    let points = read_points(cur).ok_or(ProtocolError::BadPayload)?;
    if points.iter().all(Point::is_finite) {
        Ok(points)
    } else {
        Err(ProtocolError::BadPayload)
    }
}

impl Message {
    /// Appends this message's payload (tag + fields, no frame header).
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Query { qid, attempt, k, measure, seed_dk, points } => {
                buf.push(TAG_QUERY);
                put_u64(buf, *qid);
                put_u32(buf, *attempt);
                put_u32(buf, *k);
                buf.push(measure_to_u8(*measure));
                put_f64(buf, *seed_dk);
                put_points(buf, points);
            }
            Message::Hit { qid, attempt, id, dist } => {
                buf.push(TAG_HIT);
                put_u64(buf, *qid);
                put_u32(buf, *attempt);
                put_u64(buf, *id);
                put_f64(buf, *dist);
            }
            Message::Hits { qid, attempt, hits } => {
                buf.push(TAG_HITS);
                put_u64(buf, *qid);
                put_u32(buf, *attempt);
                put_u32(buf, hits.len() as u32);
                for &(id, dist) in hits {
                    put_u64(buf, id);
                    put_f64(buf, dist);
                }
            }
            Message::Replicate { records } => {
                buf.push(TAG_REPLICATE);
                put_u32(buf, records.len() as u32);
                for r in records {
                    r.encode(buf);
                }
            }
            Message::Ack { seq } => {
                buf.push(TAG_ACK);
                put_u64(buf, *seq);
            }
            Message::Heartbeat { seq } => {
                buf.push(TAG_HEARTBEAT);
                put_u64(buf, *seq);
            }
            Message::Upsert { wid, id, points } => {
                buf.push(TAG_UPSERT);
                put_u64(buf, *wid);
                put_u64(buf, *id);
                put_points(buf, points);
            }
            Message::Delete { wid, id } => {
                buf.push(TAG_DELETE);
                put_u64(buf, *wid);
                put_u64(buf, *id);
            }
            Message::WriteOk { wid, seq } => {
                buf.push(TAG_WRITE_OK);
                put_u64(buf, *wid);
                put_u64(buf, *seq);
            }
            Message::WriteRefused { wid, reason } => {
                buf.push(TAG_WRITE_REFUSED);
                put_u64(buf, *wid);
                buf.push(reason.to_u8());
            }
            Message::Shutdown => buf.push(TAG_SHUTDOWN),
        }
    }

    /// Encodes the full frame: `[len][crc][payload]`, in one buffer — the
    /// header is reserved up front and patched once the payload is known.
    pub fn encode_frame(&self) -> Vec<u8> {
        // 64 bytes hold every fixed-size message without a regrow.
        let mut frame = Vec::with_capacity(64);
        frame.extend_from_slice(&[0u8; HEADER]);
        self.encode_payload(&mut frame);
        let (header, payload) = frame.split_at_mut(HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        frame
    }

    /// Decodes one frame from the front of `cur`, advancing it.
    /// `Ok(None)` means a clean end of input (no bytes left).
    pub fn decode_frame(cur: &mut &[u8]) -> Result<Option<Message>, ProtocolError> {
        if cur.is_empty() {
            return Ok(None);
        }
        let len = read_u32(cur).ok_or(ProtocolError::Truncated)?;
        if len == 0 || len > MAX_FRAME {
            return Err(ProtocolError::BadLength);
        }
        let crc = read_u32(cur).ok_or(ProtocolError::Truncated)?;
        if cur.len() < len as usize {
            return Err(ProtocolError::Truncated);
        }
        let (payload, rest) = cur.split_at(len as usize);
        *cur = rest;
        if crc32(payload) != crc {
            return Err(ProtocolError::BadChecksum);
        }
        Ok(Some(Message::decode_payload(payload)?))
    }

    fn decode_payload(mut payload: &[u8]) -> Result<Message, ProtocolError> {
        let cur = &mut payload;
        let (&tag, rest) = cur.split_first().ok_or(ProtocolError::Truncated)?;
        *cur = rest;
        let t = || ProtocolError::Truncated;
        let msg = match tag {
            TAG_QUERY => {
                let qid = read_u64(cur).ok_or_else(t)?;
                let attempt = read_u32(cur).ok_or_else(t)?;
                let k = read_u32(cur).ok_or_else(t)?;
                let (&mb, rest) = cur.split_first().ok_or_else(t)?;
                *cur = rest;
                let measure = measure_from_u8(mb).ok_or(ProtocolError::BadMeasure(mb))?;
                let seed_dk = read_dist(cur)?;
                let points = read_trajectory(cur)?;
                Message::Query { qid, attempt, k, measure, seed_dk, points }
            }
            TAG_HIT => Message::Hit {
                qid: read_u64(cur).ok_or_else(t)?,
                attempt: read_u32(cur).ok_or_else(t)?,
                id: read_u64(cur).ok_or_else(t)?,
                dist: read_dist(cur)?,
            },
            TAG_HITS => {
                let qid = read_u64(cur).ok_or_else(t)?;
                let attempt = read_u32(cur).ok_or_else(t)?;
                let n = read_u32(cur).ok_or_else(t)? as usize;
                // The pairs are the rest of the payload, exactly: a count
                // that disagrees with the bytes present is refused before
                // any allocation.
                if n.checked_mul(16) != Some(cur.len()) {
                    return Err(ProtocolError::BadPayload);
                }
                let mut hits = Vec::with_capacity(n);
                for _ in 0..n {
                    hits.push((read_u64(cur).ok_or_else(t)?, read_dist(cur)?));
                }
                Message::Hits { qid, attempt, hits }
            }
            TAG_REPLICATE => {
                let n = read_u32(cur).ok_or_else(t)? as usize;
                // Each record frame is at least 8 bytes of header.
                if cur.len() < n.checked_mul(8).ok_or(ProtocolError::BadPayload)? {
                    return Err(ProtocolError::BadPayload);
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    match WalRecord::decode(cur) {
                        Ok(Some(r)) => records.push(r),
                        Ok(None) => return Err(ProtocolError::Truncated),
                        Err(e) => return Err(ProtocolError::BadRecord(e)),
                    }
                }
                Message::Replicate { records }
            }
            TAG_ACK => Message::Ack { seq: read_u64(cur).ok_or_else(t)? },
            TAG_HEARTBEAT => Message::Heartbeat { seq: read_u64(cur).ok_or_else(t)? },
            TAG_UPSERT => Message::Upsert {
                wid: read_u64(cur).ok_or_else(t)?,
                id: read_u64(cur).ok_or_else(t)?,
                points: read_trajectory(cur)?,
            },
            TAG_DELETE => Message::Delete {
                wid: read_u64(cur).ok_or_else(t)?,
                id: read_u64(cur).ok_or_else(t)?,
            },
            TAG_WRITE_OK => Message::WriteOk {
                wid: read_u64(cur).ok_or_else(t)?,
                seq: read_u64(cur).ok_or_else(t)?,
            },
            TAG_WRITE_REFUSED => {
                let wid = read_u64(cur).ok_or_else(t)?;
                let (&rb, rest) = cur.split_first().ok_or_else(t)?;
                *cur = rest;
                let reason = RefusalReason::from_u8(rb).ok_or(ProtocolError::BadPayload)?;
                Message::WriteRefused { wid, reason }
            }
            TAG_SHUTDOWN => Message::Shutdown,
            other => return Err(ProtocolError::BadTag(other)),
        };
        if !cur.is_empty() {
            // Trailing garbage inside a checksummed payload is a protocol
            // bug, not line noise — refuse it.
            return Err(ProtocolError::BadPayload);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(frame: &[u8]) -> Result<Option<Message>, ProtocolError> {
        let mut cur = frame;
        let out = Message::decode_frame(&mut cur);
        if let Ok(Some(_)) = out {
            assert!(cur.is_empty(), "one frame, fully consumed");
        }
        out
    }

    /// `[len][crc][payload]` assembled from a separately built payload —
    /// how `encode_frame` worked before it went single-buffer, and how a
    /// hostile sender frames a payload of its own making.
    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(payload));
        frame.extend_from_slice(payload);
        frame
    }

    /// A `Hits` payload with a free-standing `count` field.
    fn hits_payload(count: u32, pairs: &[(u64, f64)], extra: &[u8]) -> Vec<u8> {
        let mut p = vec![TAG_HITS];
        put_u64(&mut p, 7);
        put_u32(&mut p, 2);
        put_u32(&mut p, count);
        for &(id, dist) in pairs {
            put_u64(&mut p, id);
            put_f64(&mut p, dist);
        }
        p.extend_from_slice(extra);
        p
    }

    /// At least one message of every variant.
    fn one_of_each() -> Vec<Message> {
        let mut all = vec![
            Message::Query {
                qid: 7,
                attempt: 2,
                k: 10,
                measure: Measure::Erp,
                seed_dk: f64::INFINITY,
                points: vec![Point::new(1.5, -2.5), Point::new(0.0, 64.0)],
            },
            Message::Hit { qid: 7, attempt: 2, id: 99, dist: 0.125 },
            Message::Hits { qid: 7, attempt: 2, hits: vec![] },
            Message::Hits { qid: 7, attempt: 2, hits: vec![(99, 0.125)] },
            Message::Hits {
                qid: 7,
                attempt: 2,
                hits: (0..100).map(|i| (i * 3, i as f64 * 0.1)).collect(),
            },
            Message::Replicate {
                records: vec![
                    WalRecord::Upsert { seq: 1, id: 4, points: vec![Point::new(2.0, 3.0)] },
                    WalRecord::Delete { seq: 2, id: 4 },
                ],
            },
            Message::Ack { seq: 9 },
            Message::Heartbeat { seq: 11 },
            Message::Upsert { wid: 1, id: 2, points: vec![Point::new(0.5, 0.5)] },
            Message::Delete { wid: 3, id: 2 },
            Message::WriteOk { wid: 1, seq: 8 },
            Message::Shutdown,
        ];
        for reason in [
            RefusalReason::NotLeader,
            RefusalReason::ReplicationUnavailable,
            RefusalReason::Durability,
        ] {
            all.push(Message::WriteRefused { wid: 2, reason });
        }
        all
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in one_of_each() {
            assert_eq!(decode(&msg.encode_frame()), Ok(Some(msg)));
        }
    }

    #[test]
    fn single_buffer_frame_is_byte_equal_to_header_plus_payload() {
        for msg in one_of_each() {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            assert_eq!(msg.encode_frame(), frame_of(&payload), "{msg:?}");
        }
    }

    #[test]
    fn distances_roundtrip_bitwise() {
        let dists = [0.0, f64::MIN_POSITIVE / 2.0, 1.000_000_000_000_000_2, f64::INFINITY];
        for dist in dists {
            let frame = Message::Hit { qid: 0, attempt: 0, id: 1, dist }.encode_frame();
            match decode(&frame).unwrap().unwrap() {
                Message::Hit { dist: d, .. } => assert_eq!(d.to_bits(), dist.to_bits()),
                other => panic!("wrong message {other:?}"),
            }
        }
        let hits: Vec<(u64, f64)> = dists.iter().map(|&d| (1, d)).collect();
        let frame = Message::Hits { qid: 0, attempt: 0, hits: hits.clone() }.encode_frame();
        match decode(&frame).unwrap().unwrap() {
            Message::Hits { hits: back, .. } => {
                let bits = |h: &[(u64, f64)]| h.iter().map(|p| p.1.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&back), bits(&hits));
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let frame = Message::Query {
            qid: 1,
            attempt: 0,
            k: 5,
            measure: Measure::Dtw,
            seed_dk: 2.0,
            points: vec![Point::new(1.0, 2.0); 3],
        }
        .encode_frame();
        for cut in 1..frame.len() {
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut} must be a typed error");
        }
    }

    #[test]
    fn hostile_hits_batches_are_typed_errors() {
        let pairs = [(1u64, 0.5), (2, 0.75), (3, 1.0)];
        // The honest payload decodes.
        assert!(matches!(
            decode(&frame_of(&hits_payload(3, &pairs, &[]))),
            Ok(Some(Message::Hits { hits, .. })) if hits == pairs
        ));
        let bad = |payload: Vec<u8>, why: &str| {
            assert_eq!(decode(&frame_of(&payload)), Err(ProtocolError::BadPayload), "{why}");
        };
        bad(hits_payload(4, &pairs, &[]), "count above the pairs present");
        bad(hits_payload(2, &pairs, &[]), "count below the pairs present");
        bad(hits_payload(0, &pairs, &[]), "empty count over a non-empty body");
        bad(hits_payload(u32::MAX, &pairs, &[]), "count whose byte size overflows or dwarfs the frame");
        bad(hits_payload(3, &pairs, &[0xAB]), "one trailing byte");
        bad(hits_payload(3, &pairs, &[0; 16]), "a whole trailing pair");
        // A checksummed payload that ends mid-pair, for every cut.
        let full = hits_payload(3, &pairs, &[]);
        let header = 1 + 8 + 4 + 4;
        for cut in header + 1..full.len() {
            if (cut - header) % 16 != 0 {
                bad(full[..cut].to_vec(), "payload ends mid-pair");
            }
        }
        // A payload that ends inside the fixed fields is an underrun.
        for cut in 1..header {
            assert_eq!(decode(&frame_of(&full[..cut])), Err(ProtocolError::Truncated));
        }
    }

    #[test]
    fn nan_and_negative_distances_are_refused_per_variant() {
        for bad in [f64::NAN, -f64::NAN, -1.0, -f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            let frames = [
                Message::Hit { qid: 1, attempt: 0, id: 5, dist: bad },
                Message::Hits { qid: 1, attempt: 0, hits: vec![(5, 0.5), (6, bad)] },
                query_seeded(bad),
            ];
            for msg in frames {
                assert_eq!(
                    decode(&msg.encode_frame()),
                    Err(ProtocolError::BadPayload),
                    "{msg:?}"
                );
            }
        }
        // The boundary values a healthy cluster does send stay legal.
        for ok in [0.0, f64::INFINITY] {
            assert!(decode(&Message::Hit { qid: 1, attempt: 0, id: 5, dist: ok }.encode_frame())
                .is_ok());
            let hits = vec![(5, ok)];
            assert!(decode(&Message::Hits { qid: 1, attempt: 0, hits }.encode_frame()).is_ok());
            assert!(decode(&query_seeded(ok).encode_frame()).is_ok());
        }
    }

    fn query_seeded(seed_dk: f64) -> Message {
        let points = vec![Point::new(0.0, 0.0)];
        Message::Query { qid: 1, attempt: 0, k: 3, measure: Measure::Dtw, seed_dk, points }
    }

    #[test]
    fn non_finite_coordinates_are_refused_in_query_and_upsert() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for points in [vec![Point::new(bad, 0.0)], vec![Point::new(1.0, 2.0), Point::new(0.0, bad)]] {
                let frames = [
                    Message::Query {
                        qid: 1,
                        attempt: 0,
                        k: 5,
                        measure: Measure::Dtw,
                        seed_dk: f64::INFINITY,
                        points: points.clone(),
                    },
                    Message::Upsert { wid: 1, id: 2, points },
                ];
                for msg in frames {
                    assert_eq!(
                        decode(&msg.encode_frame()),
                        Err(ProtocolError::BadPayload),
                        "{msg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut frame = Message::Ack { seq: 1234 }.encode_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert_eq!(decode(&frame), Err(ProtocolError::BadChecksum));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&frame_of(&[200])), Err(ProtocolError::BadTag(200)));
    }

    /// The retired tags 3 and 4 stay unknown, bare or followed by the
    /// fields they once carried (qid + bound; qid + attempt + count).
    #[test]
    fn retired_tags_are_unknown() {
        for tag in [3u8, 4] {
            let mut payload = vec![tag];
            assert_eq!(decode(&frame_of(&payload)), Err(ProtocolError::BadTag(tag)));
            put_u64(&mut payload, 7);
            if tag == 3 {
                put_f64(&mut payload, 3.5);
            } else {
                put_u32(&mut payload, 2);
                put_u32(&mut payload, 5);
            }
            assert_eq!(decode(&frame_of(&payload)), Err(ProtocolError::BadTag(tag)));
        }
    }

    #[test]
    fn measure_codes_cover_all() {
        for m in Measure::ALL {
            assert_eq!(measure_from_u8(measure_to_u8(m)), Some(m));
        }
        assert_eq!(measure_from_u8(6), None);
    }
}
