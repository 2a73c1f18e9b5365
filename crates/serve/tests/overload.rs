//! The memory governor over real sockets: admission shedding with `overloaded`,
//! pressure eviction of the largest session, and a drain feeding a reboot-then-`Resume`
//! continuation through journal replay. Companion to the in-process unit tests in
//! `server.rs` (ledger arithmetic) and `journal.rs` (recovery).

use rdms_core::dms::example_3_1;
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// The next response, which must arrive within `limit`: a missing wake-up fails here
/// instead of blocking until some other deadline delivers it.
fn response_within(
    replies: &mut protocol::FrameReader<TcpStream>,
    limit: Duration,
) -> Option<Response> {
    let deadline = Instant::now() + limit;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "no response within {limit:?}");
        replies
            .get_ref()
            .set_read_timeout(Some(left))
            .expect("set read timeout");
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

fn alpha_check(base: u64) -> Request {
    Request::Check {
        action: "alpha".to_string(),
        bindings: BTreeMap::from([
            ("v1".to_string(), base),
            ("v2".to_string(), base + 1),
            ("v3".to_string(), base + 2),
        ]),
    }
}

/// With the budget spent, a new `Open` is shed with the `overloaded` code — but the
/// connection stays usable (unlike `session-limit`, which closes it), and the largest
/// live session is evicted to make room for a retry. The eviction wakes the victim's
/// reader at once: idle eviction is 600 s away, so it cannot be what delivers `Evicted`.
#[test]
fn an_overloaded_server_sheds_new_opens_and_evicts_the_largest_session() {
    let handle = spawn_server(ServerConfig {
        // one byte: the first session is admitted into an empty ledger, every later
        // Open finds the budget spent
        memory_budget_bytes: Some(1),
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    });

    // the first session is admitted and does real work
    let (mut first, mut first_replies) = connect(&handle);
    assert!(matches!(
        turn(&mut first, &mut first_replies, &open_request()),
        Response::Opened { .. }
    ));
    assert!(matches!(
        turn(&mut first, &mut first_replies, &alpha_check(1)),
        Response::Ok { run_len: 1, .. }
    ));

    // the second Open is shed before any session work happens …
    let (mut second, mut second_replies) = connect(&handle);
    match turn(&mut second, &mut second_replies, &open_request()) {
        Response::Rejected { code, .. } => assert_eq!(code, "overloaded"),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // … and the connection it arrived on is still being served
    assert_eq!(
        turn(&mut second, &mut second_replies, &Request::Ping),
        Response::Pong
    );

    // shedding flagged the largest (only) session and woke its reader: the notice
    // arrives promptly
    let wait = Duration::from_secs(2);
    assert_eq!(
        response_within(&mut first_replies, wait),
        Some(Response::Evicted)
    );
    assert_eq!(
        response_within(&mut first_replies, wait),
        None,
        "evicted and closed"
    );

    // with the seat released, the freed budget admits the retry
    match turn(&mut second, &mut second_replies, &open_request()) {
        Response::Opened { .. } => {}
        other => panic!("retry after eviction refused: {other:?}"),
    }
    handle.shutdown().expect("drain");
}

/// A budget generous enough for the workload never trips: concurrent sessions open and
/// check as if the governor were off.
#[test]
fn a_generous_budget_never_sheds() {
    let handle = spawn_server(ServerConfig {
        memory_budget_bytes: Some(64 * 1024 * 1024),
        ..ServerConfig::default()
    });
    let (mut a, mut a_replies) = connect(&handle);
    let (mut b, mut b_replies) = connect(&handle);
    for (stream, replies) in [(&mut a, &mut a_replies), (&mut b, &mut b_replies)] {
        assert!(matches!(
            turn(stream, replies, &open_request()),
            Response::Opened { .. }
        ));
        assert!(matches!(
            turn(stream, replies, &alpha_check(1)),
            Response::Ok { .. }
        ));
    }
    handle.shutdown().expect("drain");
}

/// A server drain leaves only the journal behind; the next boot replays it and a
/// reconnecting client picks up exactly where it left off.
#[test]
fn a_drain_leaves_no_checkpoint_and_a_rebooted_server_resumes_the_session() {
    let dir = std::env::temp_dir().join(format!("rdms-overload-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        journal_fsync_every: 1,
        ..ServerConfig::default()
    };

    let handle = spawn_server(config());
    let (mut stream, mut replies) = connect(&handle);
    let session_id = match turn(&mut stream, &mut replies, &open_request()) {
        Response::Opened { session, .. } => session,
        other => panic!("expected Opened, got {other:?}"),
    };
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(1)),
        Response::Ok { run_len: 1, .. }
    ));
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(4)),
        Response::Ok { run_len: 2, .. }
    ));
    handle.shutdown().expect("drain");

    // the drain left the journal and nothing beside it
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .map(|entry| entry.expect("dir entry").file_name().into_string())
        .collect();
    assert_eq!(
        files,
        [Ok(rdms_serve::journal::journal_file_name(session_id))],
        "a drain writes no checkpoint"
    );

    // reboot: the new server recovers the session by journal replay and a Resume
    // continues it with all counters intact
    let handle = spawn_server(config());
    let (mut stream, mut replies) = connect(&handle);
    match turn(
        &mut stream,
        &mut replies,
        &Request::Resume {
            version: PROTOCOL_VERSION,
            session: session_id,
        },
    ) {
        Response::Opened { session, .. } => assert_eq!(session, session_id),
        other => panic!("expected Opened on resume, got {other:?}"),
    }
    match turn(&mut stream, &mut replies, &Request::Status) {
        Response::Stats {
            transactions,
            run_len,
            ..
        } => {
            assert_eq!(transactions, 2, "resumed session kept its history");
            assert_eq!(run_len, 2);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    // and the verification continues from there, not from scratch
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(7)),
        Response::Ok { run_len: 3, .. }
    ));
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Close),
        Response::Bye
    );
    handle.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}
