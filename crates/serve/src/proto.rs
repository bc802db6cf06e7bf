//! The NDJSON wire protocol: one JSON object per line, request then
//! response, mirroring the telemetry `FrameEvent` convention of flat,
//! line-oriented JSON.
//!
//! Requests and responses are plain structs with optional fields rather
//! than tagged enums, so the vendored `serde_derive` subset covers them
//! and clients in any language can build them by hand.

use crate::session::{ServeError, SessionConfig, StepResponse};
use icoil_telemetry::Metrics;
use icoil_world::Difficulty;
use serde::{Deserialize, Serialize};

/// One client request line.
///
/// `op` selects the operation; the other fields are its arguments:
///
/// | `op`         | required fields        |
/// |--------------|------------------------|
/// | `"create"`   | `difficulty`, `seed`   |
/// | `"step"`     | `session`              |
/// | `"close"`    | `session`              |
/// | `"snapshot"` | `session`              |
/// | `"evict"`    | `session`              |
/// | `"restore"`  | `snapshot`             |
/// | `"metrics"`  | —                      |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Operation name: `"create"`, `"step"`, `"close"`, `"snapshot"`,
    /// `"evict"`, `"restore"` or `"metrics"`.
    pub op: String,
    /// Scenario difficulty for `"create"`.
    #[serde(default)]
    pub difficulty: Option<Difficulty>,
    /// Scenario seed for `"create"`.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Target session id for `"step"` / `"close"` / `"snapshot"` /
    /// `"evict"`.
    #[serde(default)]
    pub session: Option<u64>,
    /// Hex-encoded snapshot bytes for `"restore"` (the binary snapshot
    /// container can't ride NDJSON raw).
    #[serde(default)]
    pub snapshot: Option<String>,
}

impl Request {
    fn blank(op: &str) -> Self {
        Request {
            op: op.to_string(),
            difficulty: None,
            seed: None,
            session: None,
            snapshot: None,
        }
    }

    /// A `"create"` request.
    pub fn create(difficulty: Difficulty, seed: u64) -> Self {
        Request {
            difficulty: Some(difficulty),
            seed: Some(seed),
            ..Request::blank("create")
        }
    }

    /// A `"step"` request.
    pub fn step(session: u64) -> Self {
        Request {
            session: Some(session),
            ..Request::blank("step")
        }
    }

    /// A `"close"` request.
    pub fn close(session: u64) -> Self {
        Request {
            session: Some(session),
            ..Request::blank("close")
        }
    }

    /// A `"snapshot"` request (serialize a session without removing it).
    pub fn snapshot(session: u64) -> Self {
        Request {
            session: Some(session),
            ..Request::blank("snapshot")
        }
    }

    /// An `"evict"` request (serialize and remove a session).
    pub fn evict(session: u64) -> Self {
        Request {
            session: Some(session),
            ..Request::blank("evict")
        }
    }

    /// A `"restore"` request from raw snapshot bytes.
    pub fn restore(snapshot_bytes: &[u8]) -> Self {
        Request {
            snapshot: Some(hex_encode(snapshot_bytes)),
            ..Request::blank("restore")
        }
    }

    /// A `"metrics"` request.
    pub fn metrics() -> Self {
        Request::blank("metrics")
    }

    /// The session spec a `"create"` request describes, if complete.
    pub fn session_config(&self) -> Option<SessionConfig> {
        Some(SessionConfig {
            difficulty: self.difficulty?,
            seed: self.seed?,
        })
    }

    /// The snapshot bytes a `"restore"` request carries, if present and
    /// well-formed hex.
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        hex_decode(self.snapshot.as_deref()?)
    }
}

/// Lowercase-hex encoding of arbitrary bytes (the snapshot transport on
/// the NDJSON wire).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` for odd length or non-hex digits.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u8> = s
        .chars()
        .map(|c| c.to_digit(16).map(|d| d as u8))
        .collect::<Option<_>>()?;
    Some(digits.chunks_exact(2).map(|p| (p[0] << 4) | p[1]).collect())
}

/// One server response line. Exactly one of the payload fields is set on
/// success, matching the request's `op`; on failure `ok` is `false` and
/// `error` holds the reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Failure reason when `ok` is `false`.
    #[serde(default)]
    pub error: Option<String>,
    /// The new session id (`"create"` responses).
    #[serde(default)]
    pub session: Option<u64>,
    /// The served frame (`"step"` responses).
    #[serde(default)]
    pub frame: Option<StepResponse>,
    /// The telemetry snapshot (`"metrics"` responses).
    #[serde(default)]
    pub metrics: Option<Metrics>,
    /// Hex-encoded session snapshot bytes (`"snapshot"` / `"evict"`
    /// responses).
    #[serde(default)]
    pub snapshot: Option<String>,
    /// The SIMD kernel backend the IL lane dispatches to: `"avx512"`,
    /// `"avx2"` or `"scalar"` (`"metrics"` responses).
    #[serde(default)]
    pub kernel_backend: Option<String>,
}

impl Response {
    fn empty_ok() -> Self {
        Response {
            ok: true,
            error: None,
            session: None,
            frame: None,
            metrics: None,
            snapshot: None,
            kernel_backend: None,
        }
    }

    /// A successful `"create"` response.
    pub fn created(session: u64) -> Self {
        Response {
            session: Some(session),
            ..Response::empty_ok()
        }
    }

    /// A successful `"step"` response.
    pub fn stepped(frame: StepResponse) -> Self {
        Response {
            frame: Some(frame),
            ..Response::empty_ok()
        }
    }

    /// A successful `"close"` response.
    pub fn closed() -> Self {
        Response::empty_ok()
    }

    /// A successful `"metrics"` response, stamped with the active SIMD
    /// kernel backend so a remote client can tell which kernels its
    /// numbers came from.
    pub fn with_metrics(metrics: Metrics, kernel_backend: &str) -> Self {
        Response {
            metrics: Some(metrics),
            kernel_backend: Some(kernel_backend.to_string()),
            ..Response::empty_ok()
        }
    }

    /// A successful `"snapshot"` / `"evict"` response.
    pub fn with_snapshot(bytes: &[u8]) -> Self {
        Response {
            snapshot: Some(hex_encode(bytes)),
            ..Response::empty_ok()
        }
    }

    /// A successful `"restore"` response (the restored session's id).
    pub fn restored(session: u64) -> Self {
        Response {
            session: Some(session),
            ..Response::empty_ok()
        }
    }

    /// A failure response.
    pub fn failure(message: impl Into<String>) -> Self {
        Response {
            ok: false,
            error: Some(message.into()),
            ..Response::empty_ok()
        }
    }
}

impl From<ServeError> for Response {
    fn from(err: ServeError) -> Self {
        Response::failure(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        for req in [
            Request::create(Difficulty::Hard, 42),
            Request::step(7),
            Request::close(7),
            Request::snapshot(7),
            Request::evict(7),
            Request::restore(&[0x49, 0x43, 0x00, 0xff]),
            Request::metrics(),
        ] {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
        let req = Request::restore(&[0xde, 0xad]);
        assert_eq!(req.snapshot_bytes(), Some(vec![0xde, 0xad]));
    }

    #[test]
    fn hand_written_requests_may_omit_unused_fields() {
        let req: Request =
            serde_json::from_str(r#"{"op":"create","difficulty":"Easy","seed":42}"#).unwrap();
        assert_eq!(req, Request::create(Difficulty::Easy, 42));
        let req: Request = serde_json::from_str(r#"{"op":"step","session":7}"#).unwrap();
        assert_eq!(req, Request::step(7));
        let req: Request = serde_json::from_str(r#"{"op":"metrics"}"#).unwrap();
        assert_eq!(req, Request::metrics());
    }

    #[test]
    fn create_spec_requires_both_fields() {
        let req = Request::create(Difficulty::Easy, 9);
        assert_eq!(
            req.session_config(),
            Some(SessionConfig {
                difficulty: Difficulty::Easy,
                seed: 9
            })
        );
        let partial = Request { seed: None, ..req };
        assert_eq!(partial.session_config(), None);
    }

    #[test]
    fn failure_response_carries_the_error() {
        let resp = Response::from(ServeError::UnknownSession(3));
        assert!(!resp.ok);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.error.as_deref(), Some("unknown session 3"));
    }
}
