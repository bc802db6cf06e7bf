//! Versioned, checksummed binary container: the one file format of the
//! stack, shared by the adaptation artifacts (`ICDS` datasets, `ICWT`
//! weight generations) and the serving stack's `ICSN` session snapshots.
//!
//! A container is the serde [`Value`] tree encoded directly to bytes
//! (floats as raw IEEE-754 bit patterns, so NaN payloads and `-0.0`
//! survive; integers little-endian; length-prefixed strings and
//! sequences) behind a 24-byte header:
//!
//! ```text
//! magic   [u8; 4]          4 bytes   (artifact kind, e.g. "ICDS")
//! version u32 LE           4 bytes
//! length  u64 LE           8 bytes   (payload byte count)
//! checksum u64 LE          8 bytes   (FNV-1a over the payload)
//! payload                  `length` bytes
//! ```
//!
//! The FNV-1a step `h' = (h ^ b) * prime` is a bijection of the running
//! hash for every input byte (xor with a constant is invertible, and
//! the odd prime has a multiplicative inverse mod 2^64), so **any**
//! single-bit payload flip changes the checksum and is rejected; flips
//! inside the header map to `BadMagic` / `UnsupportedVersion` /
//! `Truncated` / `Corrupted` instead. Truncation at any byte is caught
//! by the length field or the header-size check. Every malformed input
//! is a typed [`ContainerError`], never a panic.

use serde::{Deserialize, Serialize, Value};

/// Header size in bytes (magic + version + length + checksum).
const HEADER: usize = 24;
/// Maximum Seq/Map nesting accepted while decoding — far above any
/// legitimate artifact and low enough that hostile deeply-nested input
/// errors out instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// Why a container failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The container version differs from what this build understands.
    UnsupportedVersion(u32),
    /// The buffer ends before the declared payload does.
    Truncated,
    /// The payload is internally inconsistent (checksum mismatch, bad
    /// tag, invalid UTF-8, trailing bytes, or excessive nesting).
    Corrupted(String),
    /// The payload decoded to a well-formed tree of the wrong shape for
    /// the requested type.
    Decode(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "bad magic bytes"),
            ContainerError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            ContainerError::Truncated => write!(f, "truncated input"),
            ContainerError::Corrupted(msg) => write!(f, "corrupted payload: {msg}"),
            ContainerError::Decode(msg) => write!(f, "payload has the wrong shape: {msg}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Encodes any serializable value under the given magic and version.
pub fn encode_container<T: Serialize>(magic: [u8; 4], version: u32, value: &T) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    encode_value(&value.to_value(), &mut payload);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes an artifact produced by [`encode_container`] with the same
/// magic and version.
///
/// # Errors
///
/// Returns a [`ContainerError`] for any malformed input; never panics.
pub fn decode_container<T: Deserialize>(
    magic: [u8; 4],
    version: u32,
    bytes: &[u8],
) -> Result<T, ContainerError> {
    if bytes.len() < HEADER {
        return if bytes.len() >= 4 && bytes[..4] != magic {
            Err(ContainerError::BadMagic)
        } else {
            Err(ContainerError::Truncated)
        };
    }
    if bytes[..4] != magic {
        return Err(ContainerError::BadMagic);
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if got_version != version {
        return Err(ContainerError::UnsupportedVersion(got_version));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let len = usize::try_from(len)
        .map_err(|_| ContainerError::Corrupted("payload length overflow".into()))?;
    // a hostile length near `usize::MAX` must not overflow the sum
    let payload = HEADER
        .checked_add(len)
        .and_then(|end| bytes.get(HEADER..end))
        .ok_or(ContainerError::Truncated)?;
    if bytes.len() != HEADER + len {
        return Err(ContainerError::Corrupted("trailing bytes".into()));
    }
    if fnv1a(payload) != checksum {
        return Err(ContainerError::Corrupted("checksum mismatch".into()));
    }
    let mut cursor = Cursor { buf: payload, pos: 0 };
    let value = decode_value(&mut cursor, 0)?;
    if cursor.pos != payload.len() {
        return Err(ContainerError::Corrupted("payload trailing bytes".into()));
    }
    T::from_value(&value).map_err(|e| ContainerError::Decode(e.to_string()))
}

/// FNV-1a 64-bit hash — also used to fingerprint published weight
/// generations.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// Payload tag bytes, one per Value variant.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_F32: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::F32(x) => {
            out.push(TAG_F32);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (key, val) in entries {
                out.extend_from_slice(&(key.len() as u64).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ContainerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn len(&mut self) -> Result<usize, ContainerError> {
        let n = self.u64()?;
        // a declared length beyond the remaining bytes can't be honest;
        // rejecting it here also stops huge preallocations
        let n = usize::try_from(n).map_err(|_| ContainerError::Truncated)?;
        if n > self.buf.len() - self.pos {
            return Err(ContainerError::Truncated);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ContainerError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ContainerError::Corrupted("invalid UTF-8".into()))
    }
}

fn decode_value(c: &mut Cursor<'_>, depth: usize) -> Result<Value, ContainerError> {
    if depth > MAX_DEPTH {
        return Err(ContainerError::Corrupted("nesting too deep".into()));
    }
    match c.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match c.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(ContainerError::Corrupted(format!("bad bool byte {b}"))),
        },
        TAG_I64 => Ok(Value::I64(c.u64()? as i64)),
        TAG_U64 => Ok(Value::U64(c.u64()?)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(c.u64()?))),
        TAG_F32 => Ok(Value::F32(f32::from_bits(u32::from_le_bytes(
            c.take(4)?.try_into().expect("4 bytes"),
        )))),
        TAG_STR => Ok(Value::Str(c.string()?)),
        TAG_SEQ => {
            let n = c.len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(c, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let n = c.len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = c.string()?;
                entries.push((key, decode_value(c, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(ContainerError::Corrupted(format!("unknown tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    #[test]
    fn roundtrip_preserves_float_bits() {
        let doubles: Vec<f64> = vec![
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::MIN_POSITIVE / 2.0,               // subnormal
        ];
        let bytes = encode_container(MAGIC, 1, &doubles);
        let back: Vec<f64> = decode_container(MAGIC, 1, &bytes).expect("decode");
        assert_eq!(doubles.len(), back.len());
        for (a, b) in doubles.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        let values: Vec<f32> = vec![
            0.0,
            -0.0,
            1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        let bytes = encode_container(MAGIC, 1, &values);
        let back: Vec<f32> = decode_container(MAGIC, 1, &bytes).expect("decode");
        assert_eq!(values.len(), back.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn header_violations_are_typed_errors() {
        let bytes = encode_container(MAGIC, 1, &vec![1.0f64, 2.0]);
        assert_eq!(
            decode_container::<Vec<f64>>(MAGIC, 1, &[]),
            Err(ContainerError::Truncated)
        );
        assert_eq!(
            decode_container::<Vec<f64>>(MAGIC, 1, b"XXXX123456789012345678901234"),
            Err(ContainerError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            decode_container::<Vec<f64>>(MAGIC, 1, &wrong_version),
            Err(ContainerError::UnsupportedVersion(99))
        );
        let truncated = &bytes[..bytes.len() - 1];
        assert_eq!(
            decode_container::<Vec<f64>>(MAGIC, 1, truncated),
            Err(ContainerError::Truncated)
        );
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            decode_container::<Vec<f64>>(MAGIC, 1, &corrupt),
            Err(ContainerError::Corrupted(_))
        ));
    }

    /// A 24-byte header with the right magic and version whose declared
    /// payload length is `len`.
    fn header_declaring(len: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_payload_lengths_are_truncation_not_overflow() {
        // lengths at the top of the range must not overflow the
        // header-plus-length sum
        for len in [u64::MAX, u64::MAX - 23, u64::MAX / 2, 1] {
            assert_eq!(
                decode_container::<Value>(MAGIC, 1, &header_declaring(len)),
                Err(ContainerError::Truncated),
                "length {len}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        // hand-build a payload of 80 nested single-element sequences
        let mut payload = Vec::new();
        for _ in 0..80 {
            payload.push(TAG_SEQ);
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        payload.push(TAG_NULL);
        let mut bytes = header_declaring(payload.len() as u64);
        bytes[16..24].copy_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_container::<Value>(MAGIC, 1, &bytes),
            Err(ContainerError::Corrupted(_))
        ));
    }

    #[test]
    fn magics_do_not_cross_decode() {
        let bytes = encode_container(MAGIC, 1, &7u64);
        assert_eq!(
            decode_container::<u64>(*b"ICDS", 1, &bytes),
            Err(ContainerError::BadMagic)
        );
    }

    #[test]
    fn wrong_shape_is_a_decode_error() {
        let bytes = encode_container(MAGIC, 1, &42u64);
        assert!(matches!(
            decode_container::<Vec<f64>>(MAGIC, 1, &bytes),
            Err(ContainerError::Decode(_))
        ));
    }
}
