//! # rdms-serve — the online incremental verification service
//!
//! The engines in `rdms-checker` answer one-shot questions; this crate turns the
//! incremental engine ([`rdms_checker::incremental`]) into a **long-running service**: a
//! client opens a session by submitting a DMS, an invariant and a recency bound once, then
//! streams transactions; the server pins the session's run spine and answers each
//! transaction in time independent of how many came before — `Ok`, `Violation` (with a
//! witness run and optionally a replayable certificate for the engine-free `rdms-cert`
//! verifier), or `Rejected` with a stable error code.
//!
//! Three layers, separable on purpose:
//!
//! * [`protocol`] — the wire format: length-prefixed JSON frames, request/response types,
//!   error codes. The normative spec is `docs/PROTOCOL.md` in the repository; the module
//!   implements it and its tests pin the documented shapes.
//! * [`session`] — a [`Session`]: one client's verification state, no transport. This is
//!   the **embedding API** — use it directly for in-process online checking.
//! * [`server`] — the TCP layer: accept loop, one thread per connection, bounded
//!   inbound queues with explicit `Busy` backpressure, idle eviction, panic containment
//!   (a poisoned session never takes the server down), mid-frame i/o timeouts, and
//!   graceful drain on shutdown. It is event-driven: the accept loop blocks until a
//!   connection arrives (a drain wakes it with a connection of its own), and a
//!   connection sleeps until its idle or mid-frame deadline unless a drain or a memory
//!   eviction wakes it first. `docs/OPERATIONS.md` is the operator guide.
//!
//! Two robustness layers ride on top: [`journal`] gives sessions crash-safe append-only
//! logs and boot-time recovery (clients re-attach with `Resume`), and [`faults`] is the
//! deterministic fault-injection harness the chaos suite drives them with.
//!
//! The `rdms-serve` binary wraps [`Server`] with flags; `examples/serve_client.rs` (at the
//! workspace root) is a complete protocol-conformant client.
//!
//! # Embedding example
//!
//! In-process checking needs no sockets at all:
//!
//! ```
//! use rdms_serve::{CheckOutcome, Session};
//! use rdms_core::dms::example_3_1;
//! use std::collections::BTreeMap;
//!
//! // Figure 1's DMS at recency bound 2; forbid Q-facts and ask for certificates.
//! let mut session = Session::open(example_3_1(), 2, "!exists u. Q(u)", true).unwrap();
//!
//! // alpha's first firing creates Q(e3) — a genuine violation, with a certificate
//! // anyone can re-verify without trusting this engine.
//! let bindings = BTreeMap::from([
//!     ("v1".to_string(), 1u64),
//!     ("v2".to_string(), 2u64),
//!     ("v3".to_string(), 3u64),
//! ]);
//! match session.check("alpha", &bindings) {
//!     CheckOutcome::Violation { witness, certificate } => {
//!         assert_eq!(witness.len(), 1);
//!         assert!(certificate.unwrap().verify().is_ok());
//!     }
//!     other => panic!("expected a violation, got {other:?}"),
//! }
//! ```
//!
//! # Serving example
//!
//! The full client flow over TCP — open, check, status, close — in a dozen lines; see
//! [`Server`] for the minimal bind/ping/shutdown round trip.
//!
//! ```
//! use rdms_serve::protocol::{self, Request, Response, PROTOCOL_VERSION};
//! use rdms_serve::{Server, ServerConfig};
//! use rdms_core::dms::example_3_1;
//! use std::collections::BTreeMap;
//! use std::net::TcpStream;
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
//!
//! let mut stream = TcpStream::connect(handle.addr()).unwrap();
//! let mut replies = protocol::FrameReader::new(stream.try_clone().unwrap(), 1 << 20);
//! let mut turn = |request: &Request| -> Response {
//!     protocol::write_message(&mut stream, request).unwrap();
//!     loop {
//!         match replies.poll_frame() {
//!             Ok(Some(frame)) => return protocol::decode_response(&frame).unwrap(),
//!             Ok(None) => panic!("server closed early"),
//!             Err(protocol::FrameError::Idle) => continue,
//!             Err(e) => panic!("transport error: {e}"),
//!         }
//!     }
//! };
//!
//! let opened = turn(&Request::Open {
//!     version: PROTOCOL_VERSION,
//!     dms: example_3_1(),
//!     bound: 2,
//!     invariant: "true".to_string(),
//!     emit_certificates: false,
//! });
//! assert!(matches!(opened, Response::Opened { protocol: PROTOCOL_VERSION, .. }));
//!
//! let verdict = turn(&Request::Check {
//!     action: "alpha".to_string(),
//!     bindings: BTreeMap::from([
//!         ("v1".to_string(), 1), ("v2".to_string(), 2), ("v3".to_string(), 3),
//!     ]),
//! });
//! assert!(matches!(verdict, Response::Ok { run_len: 1, .. }));
//!
//! assert_eq!(turn(&Request::Close), Response::Bye);
//! handle.shutdown().unwrap();
//! ```

pub mod faults;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod session;

pub use journal::{Journal, JournalRecord, RecoveredSession};
pub use protocol::{Request, Response, WireStep, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{CheckOutcome, OpenError, Session};
