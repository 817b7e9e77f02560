//! LEB128 variable-length integer coding for the byte-serialized lower trie
//! levels.

use bytes::{Buf, BufMut};

/// Appends `v` to `buf` as a LEB128 varint (1–10 bytes).
pub fn write_u64<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf`.
///
/// # Panics
/// On truncated or over-long (> 10 byte) input.
pub fn read_u64<B: Buf>(buf: &mut B) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        assert!(buf.has_remaining(), "truncated varint");
        let byte = buf.get_u8();
        assert!(shift < 64, "varint too long");
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 2);
        let mut r = &buf[..];
        assert_eq!(read_u64(&mut r), 0);
        assert_eq!(read_u64(&mut r), 127);
    }

    #[test]
    fn boundary_values() {
        for v in [127u64, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut r = &buf[..];
            assert_eq!(read_u64(&mut r), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "truncated varint")]
    fn truncated_input_panics() {
        let buf = [0x80u8];
        let mut r = &buf[..];
        read_u64(&mut r);
    }

    proptest! {
        #[test]
        fn u64_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            let mut r = &buf[..];
            prop_assert_eq!(read_u64(&mut r), v);
        }

        #[test]
        fn sequences_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut buf = Vec::new();
            for &v in &vs {
                write_u64(&mut buf, v);
            }
            let mut r = &buf[..];
            for &v in &vs {
                prop_assert_eq!(read_u64(&mut r), v);
            }
            prop_assert!(r.is_empty());
        }
    }
}
