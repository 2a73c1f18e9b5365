//! Hostile-bytes robustness: nothing a client can put on the wire kills the server.
//!
//! One server instance is shared by every test and every proptest case — precisely so
//! that a panic, crashed connection thread or poisoned accept loop caused by *any* input
//! here would surface as a failure in the *other* cases. Each probe finishes by opening a
//! fresh connection and completing a documented `Ping`/`Pong` turn: the liveness oracle
//! from `docs/PROTOCOL.md` §errors ("malformed input costs the client its connection at
//! worst — never the server").

use proptest::prelude::*;
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;

/// Small frame cap so the oversized-frame path is cheap to hit.
const MAX_FRAME_LEN: usize = 1 << 16;

fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_frame_len: MAX_FRAME_LEN,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port")
        .spawn()
    })
}

fn connect() -> (TcpStream, protocol::FrameReader<TcpStream>) {
    let stream = TcpStream::connect(server().addr()).expect("connect");
    let replies = protocol::FrameReader::new(stream.try_clone().expect("clone"), MAX_FRAME_LEN);
    (stream, replies)
}

/// Block until the server's next frame, decoded as a [`Response`]; `None` = closed.
fn next_response(replies: &mut protocol::FrameReader<TcpStream>) -> Option<Response> {
    loop {
        match replies.poll_frame() {
            Ok(Some(frame)) => {
                return Some(protocol::decode_response(&frame).expect("server frames decode"))
            }
            Ok(None) => return None,
            Err(FrameError::Idle) => continue,
            Err(e) => panic!("client-side transport error: {e}"),
        }
    }
}

/// The liveness oracle: a brand-new connection must still complete a full turn.
fn assert_server_alive() {
    let (mut stream, mut replies) = connect();
    protocol::write_message(&mut stream, &Request::Ping).expect("write");
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes — random headers, random bodies, random truncation points — never
    /// take the server down.
    #[test]
    fn arbitrary_bytes_never_kill_the_server(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let (mut stream, _replies) = connect();
        // the write half may fail if the server already rejected and closed — also fine
        let _ = stream.write_all(&bytes);
        let _ = stream.flush();
        drop(stream);
        assert_server_alive();
    }

    /// Valid frames with arbitrary (non-JSON, wrong-JSON, truncated-JSON) payloads get a
    /// `malformed-frame` rejection and the connection keeps working.
    #[test]
    fn garbage_payloads_in_valid_frames_are_rejected_not_fatal(
        payload in proptest::collection::vec(0u8..=255, 0..128)
    ) {
        let (mut stream, mut replies) = connect();
        protocol::write_frame(&mut stream, &payload).expect("framed write");
        match next_response(&mut replies) {
            Some(Response::Rejected { code, .. }) => prop_assert_eq!(code, "malformed-frame"),
            // astronomically unlikely: the random payload happened to be a valid request
            Some(_) => {}
            None => prop_assert!(false, "server closed on a merely-malformed frame"),
        }
        // same connection, next frame: still in business
        protocol::write_message(&mut stream, &Request::Ping).expect("write");
        prop_assert_eq!(next_response(&mut replies), Some(Response::Pong));
        assert_server_alive();
    }
}

/// A length prefix beyond `max_frame_len` cannot be resynchronised (the payload boundary
/// is unknowable), so the documented behaviour is: explicit `oversized-frame` rejection,
/// then close — without ever allocating the claimed length.
#[test]
fn oversized_frames_are_rejected_then_closed() {
    let (mut stream, mut replies) = connect();
    let len = u32::try_from(MAX_FRAME_LEN + 1).unwrap();
    stream.write_all(&len.to_be_bytes()).expect("header write");
    stream.flush().expect("flush");
    match next_response(&mut replies) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "oversized-frame"),
        other => panic!("expected an oversized-frame rejection, got {other:?}"),
    }
    assert_eq!(next_response(&mut replies), None, "connection is closed");
    assert_server_alive();
}

/// A client that vanishes mid-frame (header claims more body than ever arrives) just
/// loses its connection.
#[test]
fn truncated_frames_only_cost_the_client_its_connection() {
    let (mut stream, _replies) = connect();
    stream.write_all(&100u32.to_be_bytes()).expect("header");
    stream.write_all(b"only ten b").expect("partial body");
    stream.flush().expect("flush");
    drop(stream);
    assert_server_alive();
}

/// A well-formed JSON frame that is a *response* (or any non-request shape) is malformed
/// as a request — rejected with the stable code, connection preserved.
#[test]
fn wrong_shape_json_is_malformed_not_fatal() {
    let (mut stream, mut replies) = connect();
    protocol::write_message(&mut stream, &Response::Pong).expect("write a response shape");
    match next_response(&mut replies) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "malformed-frame"),
        other => panic!("expected malformed-frame, got {other:?}"),
    }
    protocol::write_message(&mut stream, &Request::Ping).expect("write");
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
}

/// An `Open` frame for a one-proposition system with one action, `a`, that changes
/// nothing: `guard` is the action's guard as DMS JSON, `invariant` the concrete syntax
/// (inserted as is, so it must need no JSON escaping).
fn open_frame(guard: &str, invariant: &str) -> Vec<u8> {
    format!(
        r#"{{"Open":{{"version":{PROTOCOL_VERSION},"dms":{{"schema":{{"arities":{{"p":0}}}},
        "initial":{{"relations":{{"p":[[]]}}}},"actions":[{{"name":"a","params":[],
        "fresh":[],"guard":{guard},"del":{{"facts":{{}}}},"add":{{"facts":{{}}}}}}],
        "constants":[]}},"bound":1,"invariant":"{invariant}","emit_certificates":false}}}}"#
    )
    .into_bytes()
}

/// `negations` nested `Not`s around `True`, as DMS JSON.
fn nested_not(negations: usize) -> String {
    format!(
        "{}\"True\"{}",
        "{\"Not\":".repeat(negations),
        "}".repeat(negations)
    )
}

/// Send one raw frame and read the reply.
fn raw_turn(
    stream: &mut TcpStream,
    replies: &mut protocol::FrameReader<TcpStream>,
    payload: &[u8],
) -> Option<Response> {
    protocol::write_frame(stream, payload).expect("framed write");
    next_response(replies)
}

/// JSON nested past the parser's recursion limit (128 levels, as in upstream serde_json)
/// is `malformed-frame`: the connection thread must not overflow its stack, which would
/// abort the server and every session with it.
#[test]
fn deeply_nested_json_is_malformed_not_fatal() {
    let depth = MAX_FRAME_LEN / 2 - 1;
    let brackets = format!("{}{}", "[".repeat(depth), "]".repeat(depth)).into_bytes();
    for payload in [brackets, open_frame(&nested_not(5_000), "true")] {
        let (mut stream, mut replies) = connect();
        match raw_turn(&mut stream, &mut replies, &payload) {
            Some(Response::Rejected { code, .. }) => assert_eq!(code, "malformed-frame"),
            other => panic!("expected malformed-frame, got {other:?}"),
        }
        protocol::write_message(&mut stream, &Request::Ping).expect("write");
        assert_eq!(next_response(&mut replies), Some(Response::Pong));
    }
    // the same `Open` with a guard inside the limit is a well-formed request
    let (mut stream, mut replies) = connect();
    let shallow = open_frame(&nested_not(100), "true");
    assert!(matches!(
        raw_turn(&mut stream, &mut replies, &shallow),
        Some(Response::Opened { .. })
    ));
}

/// An `Open` whose DMS fails validation is `malformed-frame`, naming the failure, and the
/// connection goes on: here `R/1` with `I₀ = {R(initial)}`, the declared `constants` and an
/// action adding `R(v)` for a fresh `v`. A constant at the canonical rank base would let a
/// fresh value's canonical name collide with it and merge two distinct states.
#[test]
fn invalid_systems_are_malformed_not_fatal() {
    let open = |constants: &[u64], initial: u64| {
        format!(
            r#"{{"Open":{{"version":{PROTOCOL_VERSION},"dms":{{"schema":{{"arities":{{"R":1}}}},
            "initial":{{"relations":{{"R":[[{initial}]]}}}},"actions":[{{"name":"add",
            "params":[],"fresh":["v"],"guard":"True","del":{{"facts":{{}}}},
            "add":{{"facts":{{"R":[[{{"Var":"v"}}]]}}}}}}],"constants":{constants:?}}},
            "bound":2,"invariant":"true","emit_certificates":false}}}}"#
        )
        .into_bytes()
    };
    let base = u64::MAX / 2;
    for (payload, why) in [
        (open(&[base], base), "canonical states"),
        (open(&[], 7), "not a declared constant"),
    ] {
        let (mut stream, mut replies) = connect();
        match raw_turn(&mut stream, &mut replies, &payload) {
            Some(Response::Rejected { code, message }) => {
                assert_eq!(code, "malformed-frame");
                assert!(message.contains(why), "{message}");
            }
            other => panic!("expected malformed-frame, got {other:?}"),
        }
        protocol::write_message(&mut stream, &Request::Ping).expect("write");
        assert_eq!(next_response(&mut replies), Some(Response::Pong));
    }
    // one below the rank base is a valid constant
    let (mut stream, mut replies) = connect();
    assert!(matches!(
        raw_turn(&mut stream, &mut replies, &open(&[base - 1], base - 1)),
        Some(Response::Opened { .. })
    ));
}

/// An invariant nested past the query parser's bound is `bad-invariant`, and the
/// connection goes on; one at the bound opens a session that checks transactions.
#[test]
fn deeply_nested_invariants_are_rejected_not_fatal() {
    let (mut stream, mut replies) = connect();
    let too_deep = format!("{}true{}", "(".repeat(5_000), ")".repeat(5_000));
    match raw_turn(
        &mut stream,
        &mut replies,
        &open_frame("\"True\"", &too_deep),
    ) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "bad-invariant"),
        other => panic!("expected bad-invariant, got {other:?}"),
    }
    protocol::write_message(&mut stream, &Request::Ping).expect("write");
    assert_eq!(next_response(&mut replies), Some(Response::Pong));

    // 128 negations of `p`, the deepest invariant the parser accepts
    let (mut stream, mut replies) = connect();
    let at_bound = format!("{}p", "!".repeat(128));
    assert!(matches!(
        raw_turn(
            &mut stream,
            &mut replies,
            &open_frame("\"True\"", &at_bound)
        ),
        Some(Response::Opened { .. })
    ));
    let check = Request::Check {
        action: "a".to_string(),
        bindings: BTreeMap::new(),
    };
    protocol::write_message(&mut stream, &check).expect("write");
    assert!(matches!(
        next_response(&mut replies),
        Some(Response::Ok { run_len: 1, .. })
    ));
    assert_server_alive();
}
