//! The mid-frame i/o timeout (`--io-timeout-ms`): slow-loris-style partial frames must be
//! rejected with code `timeout` and closed, without disturbing concurrent healthy
//! sessions. Two attack shapes are pinned — a client that sends the 4-byte length and
//! stalls, and one that dribbles a frame byte by byte, which must be cut off at the
//! frame's deadline even while it keeps sending — plus the positive control that a
//! slow-but-finite frame still completes.

use rdms_core::dms::example_3_1;
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_server(io_timeout: Duration) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            // idle eviction must NOT be what saves us: only the io-timeout may fire
            idle_timeout: Duration::from_secs(600),
            io_timeout: Some(io_timeout),
            ..ServerConfig::default()
        },
    )
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

fn assert_timed_out_and_closed(replies: &mut protocol::FrameReader<TcpStream>) {
    match next_response(replies) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "timeout"),
        other => panic!("expected a timeout rejection, got {other:?}"),
    }
    assert_eq!(next_response(replies), None, "connection is closed");
}

/// The classic slow loris: announce a frame, never deliver it.
#[test]
fn length_then_stall_is_timed_out() {
    let handle = spawn_server(Duration::from_millis(80));
    let (mut stream, mut replies) = connect(&handle);
    // a healthy turn first: the timeout clock must start with the partial frame, not
    // the connection
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Ping),
        Response::Pong
    );
    stream
        .write_all(&64u32.to_be_bytes())
        .expect("length prefix written");
    stream.flush().expect("flush");
    assert_timed_out_and_closed(&mut replies);
    handle.shutdown().expect("drain");
}

/// Dribbling one byte at a time makes progress, but never completes the frame: the
/// io-timeout is measured from the frame's start, so progress must not reset it (that is
/// exactly the hole slow loris exploits in idle-based eviction).
#[test]
fn byte_by_byte_dribbler_is_timed_out() {
    let handle = spawn_server(Duration::from_millis(80));
    let (mut stream, mut replies) = connect(&handle);
    let mut frame = Vec::new();
    protocol::write_message(&mut frame, &Request::Ping).expect("encode");
    for &byte in frame.iter().cycle().take(200) {
        // stop dribbling when the server has already hung up on us
        if stream
            .write_all(&[byte])
            .and_then(|()| stream.flush())
            .is_err()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_timed_out_and_closed(&mut replies);
    handle.shutdown().expect("drain");
}

/// The io-timeout is a deadline per frame, not per read: a client that keeps every read
/// short by sending one byte every 10 ms must still be cut off once the frame has been
/// open for `io_timeout`, while it is still dribbling.
#[test]
fn fast_dribbler_is_timed_out_while_still_sending() {
    let handle = spawn_server(Duration::from_millis(100));
    let (mut stream, mut replies) = connect(&handle);
    let started = Instant::now();
    let dribbler = std::thread::spawn(move || {
        // announce 256 bytes, then deliver them one at a time for 2 s
        if stream.write_all(&256u32.to_be_bytes()).is_err() {
            return;
        }
        while started.elapsed() < Duration::from_secs(2) {
            // stop dribbling when the server has already hung up on us
            if stream
                .write_all(b"x")
                .and_then(|()| stream.flush())
                .is_err()
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    assert_timed_out_and_closed(&mut replies);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "timeout rejection took {waited:?}; the dribbler was never cut off"
    );
    dribbler.join().expect("dribbler thread");
    handle.shutdown().expect("drain");
}

/// The positive control: a frame delivered slowly but inside the budget is served.
#[test]
fn slow_but_finite_frames_still_complete() {
    let handle = spawn_server(Duration::from_millis(500));
    let (mut stream, mut replies) = connect(&handle);
    let mut frame = Vec::new();
    protocol::write_message(&mut frame, &Request::Ping).expect("encode");
    for &byte in &frame {
        stream.write_all(&[byte]).expect("dribble");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(next_response(&mut replies), Some(Response::Pong));
    handle.shutdown().expect("drain");
}

/// A stalling client must cost exactly one connection: a concurrent healthy session on
/// the same server completes its whole lifecycle while the staller is being timed out.
#[test]
fn stallers_do_not_affect_concurrent_healthy_sessions() {
    let handle = spawn_server(Duration::from_millis(150));

    // the staller: announce a frame and go silent
    let (mut staller, mut staller_replies) = connect(&handle);
    staller
        .write_all(&1024u32.to_be_bytes())
        .expect("length prefix written");
    staller.flush().expect("flush");

    // meanwhile, a healthy session does real work
    let (mut healthy, mut healthy_replies) = connect(&handle);
    let opened = turn(
        &mut healthy,
        &mut healthy_replies,
        &Request::Open {
            version: PROTOCOL_VERSION,
            dms: example_3_1(),
            bound: 2,
            invariant: "true".to_string(),
            emit_certificates: false,
        },
    );
    assert!(matches!(opened, Response::Opened { .. }));
    let verdict = turn(
        &mut healthy,
        &mut healthy_replies,
        &Request::Check {
            action: "alpha".to_string(),
            bindings: BTreeMap::from([
                ("v1".to_string(), 1u64),
                ("v2".to_string(), 2),
                ("v3".to_string(), 3),
            ]),
        },
    );
    assert!(matches!(verdict, Response::Ok { run_len: 1, .. }));
    assert_eq!(
        turn(&mut healthy, &mut healthy_replies, &Request::Close),
        Response::Bye
    );

    // and the staller got exactly the timeout treatment
    assert_timed_out_and_closed(&mut staller_replies);
    handle.shutdown().expect("drain");
}
