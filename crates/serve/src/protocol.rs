//! The wire protocol: framing, request/response types and error codes.
//!
//! This module is the *implementation* of the protocol; the normative specification lives
//! in [`docs/PROTOCOL.md`](https://example.invalid/rdms) (repository path
//! `docs/PROTOCOL.md`) and every change here must keep that document true.
//!
//! # Framing
//!
//! Every message — in both directions — is one **frame**: a 4-byte big-endian unsigned
//! length `n`, followed by exactly `n` bytes of UTF-8 JSON. There is no alignment, padding
//! or trailing delimiter; frames abut directly. A frame whose announced length exceeds the
//! receiver's limit ([`ServerConfig::max_frame_len`](crate::ServerConfig::max_frame_len)
//! on the server side) is **oversized**: the server replies `Rejected` with code
//! `oversized-frame` and closes the connection, since the stream cannot be resynchronised
//! without trusting the hostile length. A frame whose payload is not valid UTF-8, not
//! valid JSON, or not one of the request shapes below is **malformed**: the server replies
//! `Rejected` with code `malformed-frame` and *keeps the connection* (framing is still in
//! sync). Neither ever terminates the server process.
//!
//! # JSON shape
//!
//! Requests and responses are Rust enums in serde's externally-tagged form:
//!
//! * a **unit** variant is the bare JSON string of its name — `"Ping"`;
//! * a **struct** variant is a one-key object — `{"Check": {"action": "alpha", …}}`.
//!
//! [`PROTOCOL_VERSION`] names the protocol spoken here; `Open` carries the client's
//! version and the server rejects mismatches with code `protocol-version`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version this build speaks. Bumped on any wire-visible change; see the
/// versioning rules in `docs/PROTOCOL.md`. Version 2 added the `session` id to
/// [`Response::Opened`] and the [`Request::Resume`] crash-recovery handshake.
pub const PROTOCOL_VERSION: u32 = 2;

/// Default cap on a single frame's payload length (16 MiB). `Open` frames carry a whole
/// serialized DMS, so the default is generous; operators serving untrusted networks should
/// lower it (`--max-frame-len`).
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// A client → server message. One frame each; see the module docs for the JSON encoding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open this connection's session: the system to verify, the recency bound, and the
    /// invariant (in the FOL(R) concrete syntax of `rdms_db::parse_query`, e.g.
    /// `"!exists u. Q(u)"`). Exactly one `Open` per connection, before anything else.
    Open {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// The DMS, in `rdms_core::Dms`'s serde JSON form.
        dms: rdms_core::Dms,
        /// The recency bound `b`.
        bound: usize,
        /// The invariant φ, checked after every transaction.
        invariant: String,
        /// Ask for a replayable `Violation` certificate with each violating verdict.
        emit_certificates: bool,
    },
    /// Check one transaction: apply `action` (by name) under the given bindings
    /// (variable name → data-value index, covering the action's parameters *and* fresh
    /// variables) and evaluate the invariant in the reached configuration.
    Check {
        /// The action's declared name.
        action: String,
        /// `σ`: variable name → data value index.
        bindings: BTreeMap<String, u64>,
    },
    /// Re-attach to a session restored from the server's crash journal (see the Recovery
    /// section of `docs/PROTOCOL.md`): `session` is the id a previous `Opened` reply
    /// carried, on a server started with `--journal-dir`. Succeeds at most once per
    /// recovered session; rejected with code `unknown-session` when the id was never
    /// journaled, was already resumed, or the server does not journal.
    Resume {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// The session id to re-attach, from the `Opened` reply of the original `Open`.
        session: u64,
    },
    /// Revise the open session's inputs **in place**, keeping its accepted run (the wire
    /// form of `IncrementalChecker::revise`). Every field is optional and omitted fields
    /// keep their current value, so `{"Revise":{}}` is a legal no-op. Added in a minor
    /// revision of protocol version 2 — servers that predate it reject the frame with
    /// code `malformed-frame`, which clients must treat as "revision unsupported".
    ///
    /// Semantics (all-or-nothing; on rejection the session is unchanged): a changed
    /// invariant is re-evaluated over the whole accepted run; a bound increase is O(1); a
    /// bound decrease re-validates the run under the smaller window and is rejected with
    /// code `bad-revision` if the run needs the larger one; a changed DMS replays the
    /// accepted run against it with actions matched **by name** (a missing name or a step
    /// the revised semantics rejects ⇒ `bad-revision`).
    Revise {
        /// Replacement DMS, in `rdms_core::Dms`'s serde JSON form.
        #[serde(default)]
        dms: Option<rdms_core::Dms>,
        /// Replacement recency bound `b`.
        #[serde(default)]
        bound: Option<usize>,
        /// Replacement invariant φ (same concrete syntax as `Open.invariant`).
        #[serde(default)]
        invariant: Option<String>,
    },
    /// Ask for the session's counters (see [`Response::Stats`]).
    Status,
    /// Liveness probe; answered with [`Response::Pong`] even before `Open`.
    Ping,
    /// End the session; the server replies [`Response::Bye`] and closes.
    Close,
    /// Ask the whole server to drain and exit. Only honoured when the server was started
    /// with remote shutdown enabled; rejected with code `shutdown-disabled` otherwise.
    Shutdown,
}

/// One transition of a violating run, in wire form: the action by name and the values its
/// parameters and fresh variables were bound to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireStep {
    /// The action's declared name.
    pub action: String,
    /// Variable name → data value index.
    pub bindings: BTreeMap<String, u64>,
}

/// A server → client message. Every request gets exactly one response, in request order;
/// [`Response::Busy`] and [`Response::Evicted`] can additionally arrive at any time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The session is open (reply to `Open` and to `Resume`); `protocol` echoes the
    /// server's [`PROTOCOL_VERSION`] and `session` is the server-assigned session id —
    /// quote it in a [`Request::Resume`] to re-attach after a server crash when the
    /// server journals sessions (`--journal-dir`).
    Opened { protocol: u32, session: u64 },
    /// The transaction was a valid `b`-bounded transition and the invariant holds in the
    /// reached configuration.
    Ok {
        /// Session-scoped id of the canonical abstract state reached.
        state_id: u64,
        /// Whether that abstract state was new to this session.
        new_state: bool,
        /// The session's run length after this transaction.
        run_len: usize,
    },
    /// The transaction was a valid transition but the reached configuration violates the
    /// invariant. The step **was applied** and the session stays open.
    Violation {
        /// The session's run length after this transaction (= the witness length).
        run_len: usize,
        /// The violating run: every transaction from the initial configuration here.
        witness: Vec<WireStep>,
        /// A `Violation` certificate as a JSON document (the `rdms-cert` wire format),
        /// present when the session was opened with `emit_certificates: true` and the
        /// invariant is certifiable. Feed it to `rdms_cert::Certificate::from_json`.
        certificate: Option<String>,
    },
    /// The request was refused; the session state is unchanged (for `Check`: the
    /// transaction was **not** applied). `code` is one of the stable [`ErrorCode`]
    /// strings; `message` is human-readable detail and not stable.
    Rejected { code: String, message: String },
    /// The session's inputs were revised (reply to [`Request::Revise`]); the accepted run
    /// is intact and subsequent `Check`s run against the revised inputs.
    Revised {
        /// The session's run length (unchanged by revision).
        run_len: usize,
        /// The session's violation count after revision (recomputed when the DMS or
        /// invariant changed).
        violations: usize,
        /// Accepted transactions replayed against a revised DMS (0 otherwise).
        replayed_steps: usize,
        /// Spine configurations the invariant was (re)evaluated on.
        rechecked_configs: usize,
    },
    /// Session counters at the time the `Status` request was processed.
    Stats {
        /// Transactions accepted (valid transitions applied, violating or not).
        transactions: usize,
        /// Distinct abstract states visited, including the initial configuration.
        distinct_states: usize,
        /// Accepted transactions that landed in an invariant-violating state.
        violations: usize,
        /// Current run length.
        run_len: usize,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The request was dropped without being processed: the session's inbound queue was
    /// full. Back off and resend; the session state is unchanged.
    Busy,
    /// The session sat idle past the server's eviction deadline; the server closes the
    /// connection after sending this.
    Evicted,
    /// The connection is done (reply to `Close`, or the drain notice on shutdown).
    Bye,
}

/// Stable machine-readable reasons carried by [`Response::Rejected`]. The wire form is the
/// kebab-case string from [`ErrorCode::as_str`]; new codes may be added in minor protocol
/// revisions, so clients must treat unknown codes as generic failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame's payload was not valid UTF-8 JSON of a known request shape.
    MalformedFrame,
    /// The frame's announced length exceeded the server's limit; the connection closes.
    OversizedFrame,
    /// `Open.version` did not match the server's [`PROTOCOL_VERSION`].
    ProtocolVersion,
    /// A `Check`/`Status`/`Close` request arrived before `Open`.
    NoSession,
    /// A second `Open` arrived on an already-open session.
    SessionAlreadyOpen,
    /// The invariant string did not parse, or is not a closed formula.
    BadInvariant,
    /// `Check.action` names no action of the session's DMS.
    UnknownAction,
    /// The bindings do not instantiate the action (missing/extra variables, guard false,
    /// non-fresh value for a fresh variable, …).
    NotInstantiating,
    /// A parameter was bound outside the `Recent_b` window.
    RecencyViolation,
    /// The step tripped a database-level error (e.g. the submitted DMS used a relation at
    /// the wrong arity — the DMS itself is untrusted input too).
    DatabaseError,
    /// The session reached the server's per-session transaction cap.
    TransactionLimit,
    /// The server is at its concurrent-session cap; the connection closes.
    SessionLimit,
    /// The server's memory governor refused the `Open` up front: admitting another
    /// session would exceed `--memory-budget-mb`. Distinct from [`Response::Busy`]
    /// (a full queue **mid-session**): overload is shed before any work is queued, the
    /// connection stays open, and the client should back off and retry — the server
    /// evicts its largest idle session under pressure, so capacity returns.
    Overloaded,
    /// A `Shutdown` request arrived but the server does not allow remote shutdown.
    ShutdownDisabled,
    /// The server is draining; no new sessions or transactions are accepted.
    ShuttingDown,
    /// The per-request time budget (`--check-deadline-ms`) expired before the transaction
    /// finished checking. The transaction was **not** applied; the session stays open.
    DeadlineExceeded,
    /// A handler panicked while processing this session's request. The session is
    /// poisoned: it is evicted and the connection closes, but the server — and every
    /// other session — keeps running. With journaling on, the session's journal survives
    /// for recovery at next boot.
    SessionPoisoned,
    /// The connection spent longer than the i/o timeout (`--io-timeout-ms`) mid-frame —
    /// a slow-loris-style partial frame. The connection closes.
    Timeout,
    /// A `Resume` named a session id with no recovered journal (never journaled, already
    /// resumed, or the server does not journal).
    UnknownSession,
    /// The server could not create or append the session's crash journal (`--journal-dir`
    /// misconfigured, disk full, …). For `Open`/`Resume`: the session was not attached.
    JournalError,
    /// A `Revise` the session cannot honour: the bound was lowered below what the
    /// accepted run requires, the revised DMS lacks an action the run uses, or a replayed
    /// step is invalid under the revised semantics. The session is unchanged.
    BadRevision,
}

impl ErrorCode {
    /// The stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::ProtocolVersion => "protocol-version",
            ErrorCode::NoSession => "no-session",
            ErrorCode::SessionAlreadyOpen => "session-already-open",
            ErrorCode::BadInvariant => "bad-invariant",
            ErrorCode::UnknownAction => "unknown-action",
            ErrorCode::NotInstantiating => "not-instantiating",
            ErrorCode::RecencyViolation => "recency-violation",
            ErrorCode::DatabaseError => "database-error",
            ErrorCode::TransactionLimit => "transaction-limit",
            ErrorCode::SessionLimit => "session-limit",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShutdownDisabled => "shutdown-disabled",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::SessionPoisoned => "session-poisoned",
            ErrorCode::Timeout => "timeout",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::JournalError => "journal-error",
            ErrorCode::BadRevision => "bad-revision",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Response {
    /// Build a [`Response::Rejected`] from a code and message.
    pub fn rejected(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Rejected {
            code: code.as_str().to_string(),
            message: message.into(),
        }
    }
}

/// Serialize a message and write it as one frame.
pub fn write_message<W: Write, T: Serialize>(writer: &mut W, message: &T) -> io::Result<()> {
    let json = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(writer, json.as_bytes())
}

/// Write one frame: 4-byte big-endian length, then the payload, then flush. Both go out
/// in one `write_all`, so a frame on a `TCP_NODELAY` socket leaves as one segment.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "frame payload exceeds the u32 length prefix",
        )
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Decode one frame's payload into a [`Request`]. The error string is suitable as the
/// `message` of a `malformed-frame` rejection.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload is not a request: {e}"))
}

/// Decode one frame's payload into a [`Response`] (the client side of
/// [`decode_request`]).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload is not a response: {e}"))
}

/// Why [`FrameReader::poll_frame`] returned without a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read timed out, would block or was interrupted, with the frame
    /// boundary state preserved — poll again. This is how a reader with a read timeout
    /// regains control to check its deadlines without losing partial frames.
    Idle,
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// The announced payload length exceeds the reader's limit, and every later poll says
    /// so again without reading: the stream cannot be resynchronised, so close it.
    Oversized {
        /// The announced length.
        len: usize,
        /// The reader's limit.
        max: usize,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Idle => write!(f, "read timed out mid-poll"),
            FrameError::Truncated => write!(f, "stream closed mid-frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// An incremental frame decoder over any [`Read`].
///
/// Reads may return short counts, time out ([`FrameError::Idle`]) or be interrupted at any
/// byte position; the reader keeps the partial header/payload across polls, so a frame
/// split across arbitrarily many reads is reassembled intact. This is the only place the
/// server touches raw socket bytes, and it is fuzzed (proptest) with garbage, truncated
/// and oversized inputs — none of which may panic.
pub struct FrameReader<R> {
    inner: R,
    max_len: usize,
    header: [u8; 4],
    header_filled: usize,
    body: Vec<u8>,
    body_filled: usize,
    in_body: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream with a payload-length limit.
    pub fn new(inner: R, max_len: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            max_len,
            header: [0; 4],
            header_filled: 0,
            body: Vec::new(),
            body_filled: 0,
            in_body: false,
        }
    }

    /// Whether the reader is mid-frame (some bytes of the next frame already consumed).
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.in_body
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The wrapped stream, mutably. Reading from it directly desynchronises the decoder.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Drive the decoder: `Ok(Some(payload))` on a complete frame, `Ok(None)` on a clean
    /// end-of-stream at a frame boundary, [`FrameError::Idle`] on a read timeout (state
    /// preserved — poll again), and the other [`FrameError`]s on unrecoverable conditions.
    pub fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if !self.in_body {
            while self.header_filled < 4 {
                match self.inner.read(&mut self.header[self.header_filled..]) {
                    Ok(0) if self.header_filled == 0 => return Ok(None),
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(n) => self.header_filled += n,
                    Err(e) => return Err(classify_io(e)),
                }
            }
            let len = u32::from_be_bytes(self.header) as usize;
            if len > self.max_len {
                return Err(FrameError::Oversized {
                    len,
                    max: self.max_len,
                });
            }
            self.in_body = true;
            self.body = vec![0; len];
            self.body_filled = 0;
        }
        while self.body_filled < self.body.len() {
            match self.inner.read(&mut self.body[self.body_filled..]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.body_filled += n,
                Err(e) => return Err(classify_io(e)),
            }
        }
        self.in_body = false;
        self.header_filled = 0;
        Ok(Some(std::mem::take(&mut self.body)))
    }
}

fn classify_io(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted => {
            FrameError::Idle
        }
        _ => FrameError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping).unwrap();
        write_message(
            &mut buf,
            &Request::Check {
                action: "alpha".into(),
                bindings: BTreeMap::from([("u".to_string(), 3u64)]),
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(Cursor::new(buf), DEFAULT_MAX_FRAME_LEN);
        let first = reader.poll_frame().unwrap().unwrap();
        assert_eq!(decode_request(&first).unwrap(), Request::Ping);
        let second = reader.poll_frame().unwrap().unwrap();
        assert!(matches!(
            decode_request(&second).unwrap(),
            Request::Check { .. }
        ));
        assert!(reader.poll_frame().unwrap().is_none());
    }

    #[test]
    fn unit_variants_are_bare_strings_and_struct_variants_one_key_objects() {
        // the shapes documented in docs/PROTOCOL.md
        assert_eq!(serde_json::to_string(&Request::Ping).unwrap(), "\"Ping\"");
        let check = Request::Check {
            action: "alpha".into(),
            bindings: BTreeMap::new(),
        };
        let json = serde_json::to_string(&check).unwrap();
        assert!(json.starts_with("{\"Check\":{"), "got {json}");
    }

    #[test]
    fn revise_omitted_fields_deserialize_as_none() {
        // v2-additive: every field is optional, so `{"Revise":{}}` is a legal
        // (no-op) request and older clients' encoders need no changes.
        let revised: Request = serde_json::from_str("{\"Revise\":{}}").unwrap();
        assert_eq!(
            revised,
            Request::Revise {
                dms: None,
                bound: None,
                invariant: None,
            }
        );
        let partial: Request =
            serde_json::from_str("{\"Revise\":{\"bound\":3,\"invariant\":\"true\"}}").unwrap();
        assert_eq!(
            partial,
            Request::Revise {
                dms: None,
                bound: Some(3),
                invariant: Some("true".to_string()),
            }
        );
    }

    #[test]
    fn revised_response_round_trips() {
        let response = Response::Revised {
            run_len: 4,
            violations: 1,
            replayed_steps: 4,
            rechecked_configs: 5,
        };
        let json = serde_json::to_string(&response).unwrap();
        assert!(json.starts_with("{\"Revised\":{"), "got {json}");
        assert_eq!(decode_response(json.as_bytes()).unwrap(), response);
    }

    #[test]
    fn oversized_length_prefix_is_reported_not_allocated() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut reader = FrameReader::new(Cursor::new(buf), 1024);
        match reader.poll_frame() {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // and again on every later poll, without reading past the length prefix
        assert!(matches!(
            reader.poll_frame(),
            Err(FrameError::Oversized { .. })
        ));
        assert_eq!(reader.get_ref().position(), 4);
    }

    #[test]
    fn truncation_mid_header_and_mid_body_is_detected() {
        let mut reader = FrameReader::new(Cursor::new(vec![0, 0]), 1024);
        assert!(matches!(reader.poll_frame(), Err(FrameError::Truncated)));

        let mut frame = Vec::new();
        write_frame(&mut frame, b"hello").unwrap();
        frame.truncate(frame.len() - 2);
        let mut reader = FrameReader::new(Cursor::new(frame), 1024);
        assert!(matches!(reader.poll_frame(), Err(FrameError::Truncated)));
    }

    /// A reader that yields one byte per call, interleaved with timeouts: the decoder must
    /// reassemble across both.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        tick: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.tick = !self.tick;
            if self.tick {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frames_survive_byte_at_a_time_reads_with_timeouts() {
        let mut data = Vec::new();
        write_message(&mut data, &Response::Pong).unwrap();
        write_frame(&mut data, b"{}").unwrap();
        let mut reader = FrameReader::new(
            Trickle {
                data,
                pos: 0,
                tick: false,
            },
            1024,
        );
        let mut frames = Vec::new();
        loop {
            match reader.poll_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(FrameError::Idle) => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(decode_response(&frames[0]).unwrap(), Response::Pong);
        assert_eq!(frames[1], b"{}");
    }

    /// A writer that counts `write` calls.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_written_in_one_write() {
        let mut writer = CountingWriter {
            bytes: Vec::new(),
            writes: 0,
        };
        let reply = Response::Ok {
            state_id: 7,
            new_state: true,
            run_len: 3,
        };
        write_message(&mut writer, &reply).unwrap();
        assert_eq!(writer.writes, 1, "length prefix and payload in one write");
        let mut reader = FrameReader::new(Cursor::new(writer.bytes), 1024);
        let frame = reader.poll_frame().unwrap().unwrap();
        assert_eq!(decode_response(&frame).unwrap(), reply);
    }

    #[test]
    fn empty_payload_frames_are_legal_at_the_framing_layer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = FrameReader::new(Cursor::new(buf), 1024);
        assert_eq!(reader.poll_frame().unwrap().unwrap(), Vec::<u8>::new());
        // ...and rejected at the decoding layer, not panicked on
        assert!(decode_request(&[]).is_err());
    }
}
