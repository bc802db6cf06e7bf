//! Versioned binary codec for session checkpoints.
//!
//! A snapshot is the serde `Value` tree of a
//! [`SessionSnapshot`](crate::SessionSnapshot) in the stack's one
//! checksummed container format ([`icoil_adapt::container`]) under the
//! `ICSN` magic, version 1. Bumping the version covers any
//! payload-encoding change; decoders reject unknown versions rather than
//! guessing. Every malformed input — short buffer, bad magic, hostile
//! length, checksum mismatch, type-shape mismatch — is a typed
//! [`ContainerError`], never a panic.

use icoil_adapt::container::{decode_container, encode_container, ContainerError};
use serde::{Deserialize, Serialize};

/// Snapshot container magic bytes.
const MAGIC: [u8; 4] = *b"ICSN";
/// Current container version.
const VERSION: u32 = 1;

/// Encodes any serializable value into the versioned snapshot format.
pub fn encode_snapshot<T: Serialize>(value: &T) -> Vec<u8> {
    encode_container(MAGIC, VERSION, value)
}

/// Decodes a snapshot produced by [`encode_snapshot`].
///
/// # Errors
///
/// Returns a [`ContainerError`] for any malformed input; never panics.
pub fn decode_snapshot<T: Deserialize>(bytes: &[u8]) -> Result<T, ContainerError> {
    decode_container(MAGIC, VERSION, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        // one value of every payload tag; the bytes were captured from
        // the snapshot codec before it moved onto the shared container,
        // so snapshots written by either decode with the other
        let value = Value::Map(vec![
            ("null".to_string(), Value::Null),
            ("bool".to_string(), Value::Bool(true)),
            ("i64".to_string(), Value::I64(-3)),
            ("u64".to_string(), Value::U64(7)),
            ("f64".to_string(), Value::F64(-0.0)),
            ("f32".to_string(), Value::F32(1.5)),
            ("str".to_string(), Value::Str("ICSN".to_string())),
            (
                "seq".to_string(),
                Value::Seq(vec![
                    Value::F64(f64::from_bits(0x7ff8_0000_dead_beef)),
                    Value::U64(1),
                ]),
            ),
        ]);
        const PINNED: &str = "4943534e01000000ae000000000000005c8aca5a0c49077f0808000000000000\
            0004000000000000006e756c6c000400000000000000626f6f6c01010300000000000000693634\
            02fdffffffffffffff030000000000000075363403070000000000000003000000000000006636\
            340400000000000000800300000000000000663332050000c03f03000000000000007374720604\
            000000000000004943534e030000000000000073657107020000000000000004efbeadde0000f8\
            7f030100000000000000";
        let hex: String = encode_snapshot(&value)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PINNED);
        let back: Value = decode_snapshot(&encode_snapshot(&value)).expect("decode");
        assert_eq!(encode_snapshot(&back), encode_snapshot(&value));
    }

    #[test]
    fn hostile_payload_length_is_a_typed_error() {
        // the right magic and version declaring a `u64::MAX`-byte payload:
        // a typed error, never an overflow of the header-plus-length sum
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_snapshot::<Value>(&bytes),
            Err(ContainerError::Truncated)
        );
    }

    #[test]
    fn other_magics_are_refused() {
        let bytes = encode_container(*b"ICDS", VERSION, &7u64);
        assert_eq!(
            decode_snapshot::<u64>(&bytes),
            Err(ContainerError::BadMagic)
        );
    }
}
