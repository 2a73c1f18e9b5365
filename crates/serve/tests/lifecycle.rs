//! Session-lifecycle behaviour of the server: idle eviction, `Busy` backpressure,
//! capacity refusal, the order of replies and connection-ending notices, and the
//! independence of concurrent sessions — each one a documented guarantee of
//! `docs/PROTOCOL.md` / `docs/OPERATIONS.md`, pinned here over real sockets.

use rdms_core::dms::example_3_1;
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
}

fn connect(handle: &ServerHandle) -> (TcpStream, protocol::FrameReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let replies = protocol::FrameReader::new(
        stream.try_clone().expect("clone"),
        protocol::DEFAULT_MAX_FRAME_LEN,
    );
    (stream, replies)
}

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

fn turn(
    stream: &mut TcpStream,
    replies: &mut protocol::FrameReader<TcpStream>,
    request: &Request,
) -> Response {
    protocol::write_message(stream, request).expect("request written");
    next_response(replies).expect("server replied")
}

fn open_request() -> Request {
    Request::Open {
        version: PROTOCOL_VERSION,
        dms: example_3_1(),
        bound: 2,
        invariant: "true".to_string(),
        emit_certificates: false,
    }
}

fn alpha_check() -> Request {
    Request::Check {
        action: "alpha".to_string(),
        bindings: BTreeMap::from([
            ("v1".to_string(), 1u64),
            ("v2".to_string(), 2),
            ("v3".to_string(), 3),
        ]),
    }
}

/// A connection with no complete frame for `idle_timeout` gets an explicit `Evicted`
/// notice and is closed — sessions cannot leak forever behind silent clients.
#[test]
fn idle_sessions_are_evicted_with_notice() {
    let handle = spawn_server(ServerConfig {
        idle_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let (mut stream, mut replies) = connect(&handle);
    // a live turn first: eviction is measured from the last *completed* frame
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Ping),
        Response::Pong
    );
    // now go silent and just listen
    assert_eq!(next_response(&mut replies), Some(Response::Evicted));
    assert_eq!(
        next_response(&mut replies),
        None,
        "evicted connection is closed"
    );
    handle.shutdown().expect("drain");
}

/// Frames arriving faster than the worker drains them are answered `Busy` and dropped —
/// the queue is bounded, so a blasting client cannot grow server memory without bound.
#[test]
fn overload_is_answered_with_busy_not_buffered_forever() {
    const BLAST: usize = 8;
    let handle = spawn_server(ServerConfig {
        queue_depth: 1,
        // slow the worker enough that a burst must overflow the depth-1 queue
        handler_delay: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let (mut stream, mut replies) = connect(&handle);
    for _ in 0..BLAST {
        protocol::write_message(&mut stream, &Request::Ping).expect("blast write");
    }
    let mut pongs = 0;
    let mut busys = 0;
    for _ in 0..BLAST {
        match next_response(&mut replies).expect("one reply per frame") {
            Response::Pong => pongs += 1,
            Response::Busy => busys += 1,
            other => panic!("unexpected reply under load: {other:?}"),
        }
    }
    assert!(pongs >= 1, "the queue still drains under load");
    assert!(busys >= 1, "overflow is reported, not silently buffered");
    assert_eq!(pongs + busys, BLAST);
    handle.shutdown().expect("drain");
}

/// A request still running when the idle deadline would pass defers idle eviction: the
/// reply comes first, and `Evicted` only after a whole idle period with nothing in flight.
#[test]
fn a_request_in_flight_defers_idle_eviction() {
    let handle = spawn_server(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        handler_delay: Duration::from_millis(600),
        ..ServerConfig::default()
    });
    let (mut stream, mut replies) = connect(&handle);
    protocol::write_message(&mut stream, &Request::Ping).expect("request written");
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
    assert_eq!(next_response(&mut replies), Some(Response::Evicted));
    assert_eq!(next_response(&mut replies), None, "nothing follows Evicted");
    handle.shutdown().expect("drain");
}

/// A connection-ending notice is the last frame: frames read before an oversized length
/// prefix are answered in order, and the `oversized-frame` rejection follows them.
#[test]
fn a_connection_ending_notice_follows_every_earlier_reply() {
    let handle = spawn_server(ServerConfig {
        handler_delay: Duration::from_millis(200),
        max_frame_len: 1024,
        ..ServerConfig::default()
    });
    let (mut stream, mut replies) = connect(&handle);
    protocol::write_message(&mut stream, &Request::Ping).expect("first ping");
    protocol::write_message(&mut stream, &Request::Ping).expect("second ping");
    std::thread::sleep(Duration::from_millis(50));
    stream
        .write_all(&(1u32 << 20).to_be_bytes())
        .expect("length prefix written");
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
    match next_response(&mut replies) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "oversized-frame"),
        other => panic!("expected an oversized-frame rejection, got {other:?}"),
    }
    assert_eq!(
        next_response(&mut replies),
        None,
        "nothing follows the rejection"
    );
    handle.shutdown().expect("drain");
}

/// Frames that arrive while a request is held by `handler_delay` still get their `Busy`
/// replies: each frame is answered exactly once, and at most `queue_depth` of them wait
/// behind the one being answered.
#[test]
fn frames_arriving_while_a_request_is_held_are_answered_busy() {
    const QUEUE_DEPTH: usize = 1;
    const BURST: usize = 6;
    let handle = spawn_server(ServerConfig {
        queue_depth: QUEUE_DEPTH,
        handler_delay: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let (mut stream, mut replies) = connect(&handle);
    // the first Ping finds the connection idle, so it is always run
    protocol::write_message(&mut stream, &Request::Ping).expect("held ping");
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..BURST {
        protocol::write_message(&mut stream, &Request::Ping).expect("burst write");
    }
    let (mut pongs, mut busys) = (0, 0);
    for _ in 0..=BURST {
        match next_response(&mut replies).expect("one reply per frame") {
            Response::Pong => pongs += 1,
            Response::Busy => busys += 1,
            other => panic!("unexpected reply while a request is held: {other:?}"),
        }
    }
    assert_eq!(pongs + busys, BURST + 1);
    assert!(
        pongs >= 1,
        "the held Ping found the connection idle and is run"
    );
    assert!(busys >= 1, "frames arriving meanwhile overflow the queue");
    assert!(
        pongs - 1 <= QUEUE_DEPTH + 1,
        "{} of the burst were run; the queue holds {QUEUE_DEPTH} behind the frame in hand",
        pongs - 1
    );
    // the connection is still served normally
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Ping),
        Response::Pong
    );
    handle.shutdown().expect("drain");
}

/// Past `max_sessions` concurrent connections, new ones are refused with the stable
/// `session-limit` code instead of queueing invisibly.
#[test]
fn connections_past_the_cap_are_refused() {
    let handle = spawn_server(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let (mut first, mut first_replies) = connect(&handle);
    // make sure the first connection is fully registered before the second arrives
    assert_eq!(
        turn(&mut first, &mut first_replies, &Request::Ping),
        Response::Pong
    );
    let (_second, mut second_replies) = connect(&handle);
    match next_response(&mut second_replies) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "session-limit"),
        other => panic!("expected session-limit, got {other:?}"),
    }
    assert_eq!(
        next_response(&mut second_replies),
        None,
        "refused and closed"
    );
    // the admitted connection is unaffected
    assert_eq!(
        turn(&mut first, &mut first_replies, &Request::Ping),
        Response::Pong
    );
    handle.shutdown().expect("drain");
}

/// Concurrent sessions are fully independent: same DMS, same transaction — each session
/// sees it as a *new* abstract state, because interners are session-scoped, never shared.
#[test]
fn concurrent_sessions_have_disjoint_interners() {
    let handle = spawn_server(ServerConfig::default());
    let (mut a, mut a_replies) = connect(&handle);
    let (mut b, mut b_replies) = connect(&handle);
    for (stream, replies) in [(&mut a, &mut a_replies), (&mut b, &mut b_replies)] {
        assert!(matches!(
            turn(stream, replies, &open_request()),
            Response::Opened {
                protocol: PROTOCOL_VERSION,
                ..
            }
        ));
    }
    // identical transaction on both sessions: each must report a fresh state
    let verdict_a = turn(&mut a, &mut a_replies, &alpha_check());
    let verdict_b = turn(&mut b, &mut b_replies, &alpha_check());
    for verdict in [&verdict_a, &verdict_b] {
        match verdict {
            Response::Ok {
                new_state, run_len, ..
            } => {
                assert!(
                    new_state,
                    "a shared interner would make the second session see a stale state"
                );
                assert_eq!(*run_len, 1);
            }
            other => panic!("valid transaction refused: {other:?}"),
        }
    }
    assert_eq!(
        verdict_a, verdict_b,
        "independent sessions agree bit-for-bit"
    );
    handle.shutdown().expect("drain");
}

/// Re-opening on a live session is an error; closing and the `no-session` paths hold too.
#[test]
fn session_state_machine_is_enforced_over_the_wire() {
    let handle = spawn_server(ServerConfig::default());
    let (mut stream, mut replies) = connect(&handle);
    // Check before Open: no-session
    match turn(&mut stream, &mut replies, &alpha_check()) {
        Response::Rejected { code, .. } => assert_eq!(code, "no-session"),
        other => panic!("expected no-session, got {other:?}"),
    }
    assert!(matches!(
        turn(&mut stream, &mut replies, &open_request()),
        Response::Opened {
            protocol: PROTOCOL_VERSION,
            ..
        }
    ));
    // second Open on the same connection: session-already-open
    match turn(&mut stream, &mut replies, &open_request()) {
        Response::Rejected { code, .. } => assert_eq!(code, "session-already-open"),
        other => panic!("expected session-already-open, got {other:?}"),
    }
    // Close ends the conversation
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Close),
        Response::Bye
    );
    assert_eq!(next_response(&mut replies), None);
    handle.shutdown().expect("drain");
}

/// A drain wakes every reader at once, including a connection accepted while the drain
/// begins: a connection registers its socket before it checks the shutdown flag, so it
/// is either woken by the drain or sees the flag itself. Idle eviction is 600 s away, so
/// a lost wake-up shows as a `shutdown()` that does not return within 2 s.
#[test]
fn drain_wakes_idle_and_just_accepted_connections() {
    for round in 0..20 {
        let handle = spawn_server(ServerConfig {
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        });
        let addr = handle.addr();
        let start = Arc::new(Barrier::new(5));
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    // refused: the listener had already closed
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        return;
                    };
                    stream
                        .set_read_timeout(Some(Duration::from_secs(2)))
                        .expect("set read timeout");
                    let mut replies = protocol::FrameReader::new(
                        stream.try_clone().expect("clone"),
                        protocol::DEFAULT_MAX_FRAME_LEN,
                    );
                    if client % 2 == 1 {
                        // mid-Ping; the write fails if the drain already closed us
                        let _ = protocol::write_message(&mut stream, &Request::Ping);
                    }
                    let (mut answered, mut probed) = (false, false);
                    loop {
                        match replies.poll_frame() {
                            Ok(Some(frame)) => match protocol::decode_response(&frame) {
                                Ok(Response::Bye) => return,
                                // the Ping was queued before the drain; its Bye follows
                                Ok(Response::Pong) if client % 2 == 1 && !answered => {
                                    answered = true
                                }
                                other => panic!("round {round}, client {client}: {other:?}"),
                            },
                            Ok(None) => return,
                            // never accepted: reset when the listener closed
                            Err(FrameError::Io(e))
                                if e.kind() == ErrorKind::ConnectionReset && !answered =>
                            {
                                return
                            }
                            // Silent for 2 s, by when `shutdown()` has returned: the server
                            // leaked this connection or never accepted it. A handshake that
                            // races the listener's close can leave the client half-open,
                            // neither accepted nor reset; data sent on it draws the reset,
                            // while a leaked server socket would take it silently.
                            Err(FrameError::Idle) if !answered && !probed => {
                                probed = true;
                                let _ = protocol::write_message(&mut stream, &Request::Ping);
                            }
                            Err(e) => panic!("round {round}, client {client}: no Bye or EOF: {e}"),
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let (stopped, stop) = mpsc::channel();
        std::thread::spawn(move || stopped.send(handle.shutdown()));
        match stop.recv_timeout(Duration::from_secs(2)) {
            Ok(drained) => drained.expect("drain"),
            Err(_) => panic!("round {round}: shutdown did not return within 2 s"),
        }
        for client in clients {
            client.join().expect("client thread");
        }
    }
}
