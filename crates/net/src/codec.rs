//! Binary codec for the vendored serde [`Value`] tree.
//!
//! JSON text would lose float precision (and NaN) on the wire; this codec
//! instead stores every number exactly — `f64` as its raw IEEE-754 bits —
//! so a `PolicySnapshot` or `Rollout` round-trips *bitwise*, which is what
//! the sync-mode bit-identity contract requires of a socket transport.
//!
//! One byte of tag per node:
//!
//! | tag | node                                          |
//! |-----|-----------------------------------------------|
//! | 0   | `Null`                                        |
//! | 1   | `Bool(false)`                                 |
//! | 2   | `Bool(true)`                                  |
//! | 3   | `Int` (i64 LE)                                |
//! | 4   | `UInt` (u64 LE)                               |
//! | 5   | `Float` (f64 bits LE, NaN preserved)          |
//! | 6   | `Str` (u32 LE length + UTF-8 bytes)           |
//! | 7   | `Array` (u32 LE count + elements)             |
//! | 8   | `Object` (u32 LE count + (key, value) pairs)  |
//!
//! Decoding is recursive with a hard depth cap so corrupt input yields
//! [`CodecError::TooDeep`] instead of a stack overflow.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// Maximum nesting depth a decoded tree may have. The real wire messages
/// nest a handful of levels; 512 is far above any legitimate payload and
/// far below stack exhaustion.
pub const MAX_DEPTH: usize = 512;

/// Why a payload could not be decoded into a typed message.
#[derive(Debug)]
pub enum CodecError {
    /// The payload ended before the tree was complete.
    Truncated,
    /// An unknown node tag byte.
    BadTag(u8),
    /// A string node held invalid UTF-8.
    BadUtf8,
    /// The tree nests deeper than [`MAX_DEPTH`] (corrupt or hostile input).
    TooDeep,
    /// Bytes remained after the root node was fully decoded.
    TrailingBytes(usize),
    /// The tree decoded, but did not match the target type's shape.
    Shape(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload ended before the value tree was complete"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string node holds invalid utf-8"),
            CodecError::TooDeep => write!(f, "value tree nests deeper than {MAX_DEPTH}"),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the root value")
            }
            CodecError::Shape(msg) => write!(f, "decoded tree does not match message shape: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a tree into `out` (appended; `out` is not cleared).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::Int(i) => {
            out.push(3);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(4);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(5);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(6);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(7);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(entries) => {
            out.push(8);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, val) in entries {
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Deserializes a tree from `bytes`, requiring every byte to be consumed.
///
/// # Errors
///
/// Any [`CodecError`] variant except [`CodecError::Shape`].
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut pos = 0usize;
    let v = decode_node(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - pos));
    }
    Ok(v)
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos.checked_add(n).ok_or(CodecError::Truncated)?;
    if end > bytes.len() {
        return Err(CodecError::Truncated);
    }
    let s = &bytes[*pos..end];
    *pos = end;
    Ok(s)
}

fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], CodecError> {
    let (head, _) = bytes
        .get(*pos..)
        .and_then(<[u8]>::split_first_chunk::<N>)
        .ok_or(CodecError::Truncated)?;
    *pos += N;
    Ok(*head)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    take_array(bytes, pos).map(u32::from_le_bytes)
}

fn decode_node(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let tag = take(bytes, pos, 1)?[0];
    match tag {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(false)),
        2 => Ok(Value::Bool(true)),
        3 => Ok(Value::Int(i64::from_le_bytes(take_array(bytes, pos)?))),
        4 => Ok(Value::UInt(u64::from_le_bytes(take_array(bytes, pos)?))),
        5 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
            take_array(bytes, pos)?,
        )))),
        6 => {
            let len = take_u32(bytes, pos)? as usize;
            let s = take(bytes, pos, len)?;
            let text = std::str::from_utf8(s).map_err(|_| CodecError::BadUtf8)?;
            Ok(Value::Str(text.to_owned()))
        }
        7 => {
            let n = take_u32(bytes, pos)? as usize;
            // Cap the pre-allocation by what the remaining bytes could hold
            // (1 byte per element minimum) so a hostile count cannot OOM.
            let mut items = Vec::with_capacity(n.min(bytes.len() - *pos));
            for _ in 0..n {
                items.push(decode_node(bytes, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        8 => {
            let n = take_u32(bytes, pos)? as usize;
            let mut entries = Vec::with_capacity(n.min(bytes.len() - *pos));
            for _ in 0..n {
                let klen = take_u32(bytes, pos)? as usize;
                let ks = take(bytes, pos, klen)?;
                let key = std::str::from_utf8(ks)
                    .map_err(|_| CodecError::BadUtf8)?
                    .to_owned();
                entries.push((key, decode_node(bytes, pos, depth + 1)?));
            }
            Ok(Value::Object(entries))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Serializes a typed message to its wire payload (timed as a `NetEncode`
/// span when spans are enabled).
#[must_use]
pub fn encode_msg<T: Serialize>(msg: &T) -> Vec<u8> {
    let _span = dosco_obs::span(dosco_obs::SpanKind::NetEncode);
    let mut out = Vec::new();
    encode_value(&msg.to_value(), &mut out);
    out
}

/// Deserializes a typed message from its wire payload (timed as a
/// `NetDecode` span when spans are enabled).
///
/// # Errors
///
/// Any [`CodecError`]; shape mismatches from the typed layer surface as
/// [`CodecError::Shape`].
pub fn decode_msg<T: Deserialize>(payload: &[u8]) -> Result<T, CodecError> {
    let _span = dosco_obs::span(dosco_obs::SpanKind::NetDecode);
    let tree = decode_value(payload)?;
    T::from_value(&tree).map_err(|e| CodecError::Shape(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        decode_value(&buf).expect("decode")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::UInt(u64::MAX),
            Value::Float(0.1),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("héllo".to_owned()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn float_bits_survive_exactly() {
        // NaN payloads and signed zero are preserved — a JSON text codec
        // cannot do either.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = Vec::new();
        encode_value(&Value::Float(nan), &mut buf);
        match decode_value(&buf).expect("decode") {
            Value::Float(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        match round_trip(&Value::Float(-0.0)) {
            Value::Float(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn nested_containers_round_trip() {
        let v = Value::Object(vec![
            ("version".to_owned(), Value::UInt(7)),
            (
                "weights".to_owned(),
                // f32 weights travel widened to f64, the path every Mlp
                // parameter takes through the serde tree.
                Value::Array(vec![
                    Value::Float(1.5),
                    Value::Float(f64::from(-3.402_823_5e38_f32)),
                ]),
            ),
            ("tag".to_owned(), Value::Null),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn truncated_and_bad_tag_are_named() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(9), &mut buf);
        assert!(matches!(
            decode_value(&buf[..buf.len() - 1]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            decode_value(&[0xff]),
            Err(CodecError::BadTag(0xff))
        ));
        assert!(matches!(
            decode_value(&[6, 2, 0, 0, 0, 0xc3]),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_value(&Value::Bool(true), &mut buf);
        buf.push(0);
        assert!(matches!(
            decode_value(&buf),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn hostile_depth_errors_instead_of_overflowing() {
        // A chain of one-element arrays deeper than MAX_DEPTH.
        let depth = MAX_DEPTH + 8;
        let mut buf = Vec::new();
        for _ in 0..depth {
            buf.push(7);
            buf.extend_from_slice(&1u32.to_le_bytes());
        }
        buf.push(0); // innermost Null
        assert!(matches!(decode_value(&buf), Err(CodecError::TooDeep)));
    }

    #[test]
    fn hostile_count_does_not_preallocate() {
        // Array claims u32::MAX elements but carries none: must error, not OOM.
        let mut buf = vec![7];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_value(&buf), Err(CodecError::Truncated)));
    }

    #[test]
    fn typed_round_trip_through_derive() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Probe {
            id: u64,
            xs: Vec<f32>,
            label: String,
        }
        let probe = Probe {
            id: 17,
            xs: vec![0.25, -1.5e-8, 3.0],
            label: "shard".to_owned(),
        };
        let payload = encode_msg(&probe);
        let back: Probe = decode_msg(&payload).expect("decode");
        assert_eq!(back, probe);
    }

    #[test]
    fn shape_mismatch_is_named() {
        let payload = encode_msg(&42u64);
        let err = decode_msg::<String>(&payload).expect_err("shape mismatch");
        assert!(matches!(err, CodecError::Shape(_)));
    }
}
