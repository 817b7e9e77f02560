//! The on-disk record format of WAL segments.
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = [tag: u8] [seq: u64 LE] [tag-specific fields]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE 802.3 polynomial) of the payload. The
//! length prefix gives framing; the checksum turns any torn or bit-flipped
//! write into a *detected* decode failure instead of silently corrupted
//! state (CRC-32 detects all single-bit and all burst errors up to 32
//! bits). Sequence numbers are the service's global operation sequence —
//! strictly increasing across upserts and deletes — so recovery can skip
//! everything its base archive generation already covers and restore the
//! exact pre-crash operation counter.

use repose_model::{wire, Point, TrajId};

/// Maximum accepted payload length when decoding (64 MiB). A corrupt
/// length prefix claiming more than this is rejected immediately instead
/// of waiting for a gigabyte-sized read to fail.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// One durable operation of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An insert/replace of trajectory `id` with `points`, acknowledged as
    /// operation `seq`.
    Upsert {
        /// Global operation sequence of this write.
        seq: u64,
        /// The written trajectory's id.
        id: TrajId,
        /// Its sample points (bit-exact through encode/decode).
        points: Vec<Point>,
    },
    /// A delete of trajectory `id`, acknowledged as operation `seq`.
    Delete {
        /// Global operation sequence of this write.
        seq: u64,
        /// The deleted trajectory's id.
        id: TrajId,
    },
    /// A compaction checkpoint: every operation with sequence `<= seq` is
    /// fully reflected in the oldest archive generation the service
    /// keeps, so log records at or below it are dead and their segments
    /// can be pruned.
    Checkpoint {
        /// That generation's operation sequence.
        seq: u64,
    },
}

const TAG_UPSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
// Tag 3 is retired (a segment seal marker nothing read): it decodes as
// `DecodeError::BadPayload`.
const TAG_CHECKPOINT: u8 = 4;

impl WalRecord {
    /// The record's operation sequence.
    pub fn seq(&self) -> u64 {
        match *self {
            WalRecord::Upsert { seq, .. }
            | WalRecord::Delete { seq, .. }
            | WalRecord::Checkpoint { seq } => seq,
        }
    }

    /// Appends the framed record (length, checksum, payload) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut payload = Vec::new();
        match self {
            WalRecord::Upsert { seq, id, points } => {
                payload.push(TAG_UPSERT);
                wire::put_u64(&mut payload, *seq);
                wire::put_u64(&mut payload, *id);
                wire::put_points(&mut payload, points);
            }
            WalRecord::Delete { seq, id } => {
                payload.push(TAG_DELETE);
                wire::put_u64(&mut payload, *seq);
                wire::put_u64(&mut payload, *id);
            }
            WalRecord::Checkpoint { seq } => {
                payload.push(TAG_CHECKPOINT);
                wire::put_u64(&mut payload, *seq);
            }
        }
        wire::put_u32(buf, payload.len() as u32);
        wire::put_u32(buf, crc32(&payload));
        buf.extend_from_slice(&payload);
    }

    /// The framed record as a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes one framed record from the front of `cur`, advancing it
    /// past the record on success. Failures distinguish a clean
    /// end-of-input from a torn or corrupt frame so the replayer can apply
    /// its torn-tail policy.
    pub fn decode(cur: &mut &[u8]) -> Result<Option<WalRecord>, DecodeError> {
        if cur.is_empty() {
            return Ok(None);
        }
        let mut probe = *cur;
        let Some(len) = wire::read_u32(&mut probe) else {
            return Err(DecodeError::Truncated);
        };
        if len > MAX_PAYLOAD {
            return Err(DecodeError::BadLength(len));
        }
        let Some(crc) = wire::read_u32(&mut probe) else {
            return Err(DecodeError::Truncated);
        };
        if probe.len() < len as usize {
            return Err(DecodeError::Truncated);
        }
        let payload = &probe[..len as usize];
        if crc32(payload) != crc {
            return Err(DecodeError::BadChecksum);
        }
        let record = Self::decode_payload(payload).ok_or(DecodeError::BadPayload)?;
        *cur = &probe[len as usize..];
        Ok(Some(record))
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, mut cur) = payload.split_first()?;
        let record = match tag {
            TAG_UPSERT => WalRecord::Upsert {
                seq: wire::read_u64(&mut cur)?,
                id: wire::read_u64(&mut cur)?,
                points: wire::read_points(&mut cur)?,
            },
            TAG_DELETE => WalRecord::Delete {
                seq: wire::read_u64(&mut cur)?,
                id: wire::read_u64(&mut cur)?,
            },
            TAG_CHECKPOINT => WalRecord::Checkpoint { seq: wire::read_u64(&mut cur)? },
            _ => return None,
        };
        // Trailing payload bytes mean the frame does not describe this
        // record: reject rather than ignore (a checksum collision on a
        // longer buffer must not slip through as a valid shorter record).
        cur.is_empty().then_some(record)
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remain than the frame header or its declared payload
    /// needs — the classic torn tail.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`] (corrupt header).
    BadLength(u32),
    /// The payload's CRC-32 does not match the header.
    BadChecksum,
    /// The checksum held but the payload structure is invalid (unknown
    /// tag, underrun inside a field, or trailing garbage).
    BadPayload,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated (torn write)"),
            DecodeError::BadLength(len) => write!(f, "record length {len} exceeds the format maximum"),
            DecodeError::BadChecksum => write!(f, "record checksum mismatch"),
            DecodeError::BadPayload => write!(f, "record payload is structurally invalid"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial used by zip/png/ethernet. Slice-by-8: eight compile-time
/// tables consume 8 input bytes per step instead of 1, which matters
/// because archive attach and scrub checksum whole mapped files, not just
/// WAL records. Bit-identical to the byte-at-a-time definition (the
/// standard test vector below pins it); no external dependency.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Table `t` maps a byte processed `t` positions early: shifting a
    // prior table's entry through table 0 composes the per-byte steps.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_model::Point;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Upsert {
                seq: 1,
                id: 42,
                points: vec![Point::new(1.25, -3.5), Point::new(f64::MIN_POSITIVE, 0.0)],
            },
            WalRecord::Upsert { seq: 2, id: 7, points: vec![] },
            WalRecord::Delete { seq: 3, id: 42 },
            WalRecord::Checkpoint { seq: 3 },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_all_record_types() {
        let mut buf = Vec::new();
        for r in samples() {
            r.encode(&mut buf);
        }
        let mut cur = buf.as_slice();
        let mut back = Vec::new();
        while let Some(r) = WalRecord::decode(&mut cur).expect("valid stream") {
            back.push(r);
        }
        assert_eq!(back, samples());
    }

    #[test]
    fn truncation_at_every_byte_is_truncated_error() {
        let buf = samples()[0].to_bytes();
        for cut in 1..buf.len() {
            let mut cur = &buf[..cut];
            let got = WalRecord::decode(&mut cur);
            assert!(
                matches!(got, Err(DecodeError::Truncated | DecodeError::BadChecksum)),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let buf = samples()[0].to_bytes();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                let mut cur = bad.as_slice();
                let got = WalRecord::decode(&mut cur);
                match got {
                    Err(_) => {}
                    Ok(rec) => panic!(
                        "flip byte {byte} bit {bit} decoded silently: {rec:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn empty_input_is_clean_end() {
        let mut cur: &[u8] = &[];
        assert_eq!(WalRecord::decode(&mut cur).unwrap(), None);
    }

    /// A well-framed, correctly checksummed payload under a tag no record
    /// uses — the retired seal tag 3 among them — is structurally invalid.
    #[test]
    fn unknown_and_retired_tags_are_bad_payloads() {
        for tag in [0u8, 3, 5, u8::MAX] {
            let mut payload = vec![tag];
            repose_model::wire::put_u64(&mut payload, 7);
            let mut buf = Vec::new();
            repose_model::wire::put_u32(&mut buf, payload.len() as u32);
            repose_model::wire::put_u32(&mut buf, crc32(&payload));
            buf.extend_from_slice(&payload);
            let mut cur = buf.as_slice();
            assert_eq!(WalRecord::decode(&mut cur), Err(DecodeError::BadPayload), "tag {tag}");
        }
    }

    #[test]
    fn hostile_length_is_rejected() {
        let mut buf = Vec::new();
        repose_model::wire::put_u32(&mut buf, MAX_PAYLOAD + 1);
        repose_model::wire::put_u32(&mut buf, 0);
        let mut cur = buf.as_slice();
        assert_eq!(
            WalRecord::decode(&mut cur),
            Err(DecodeError::BadLength(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn point_bits_survive_roundtrip() {
        let r = WalRecord::Upsert {
            seq: 9,
            id: 1,
            points: vec![Point::new(-0.0, f64::from_bits(0x7FF8_0000_0000_0001))],
        };
        let buf = r.to_bytes();
        let mut cur = buf.as_slice();
        let back = WalRecord::decode(&mut cur).unwrap().unwrap();
        let WalRecord::Upsert { points, .. } = back else { panic!() };
        let WalRecord::Upsert { points: orig, .. } = r else { panic!() };
        assert_eq!(points[0].x.to_bits(), orig[0].x.to_bits());
        assert_eq!(points[0].y.to_bits(), orig[0].y.to_bits());
    }
}
