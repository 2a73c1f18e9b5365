//! Wire-level behaviour of the v2-additive `Revise` request: in-place edits of a live
//! session's invariant and bound, rejection semantics (`bad-invariant`, `bad-revision`,
//! `no-session`), and crash recovery of a journal that contains `Revise` records. Every
//! guarantee pinned here is documented in `docs/PROTOCOL.md`.

use rdms_core::dms::example_3_1;
use rdms_serve::journal;
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
}

fn fast_config() -> ServerConfig {
    ServerConfig {
        io_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    }
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

fn open_request(invariant: &str) -> Request {
    Request::Open {
        version: PROTOCOL_VERSION,
        dms: example_3_1(),
        bound: 2,
        invariant: invariant.to_string(),
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

fn revise_invariant(invariant: &str) -> Request {
    Request::Revise {
        dms: None,
        bound: None,
        invariant: Some(invariant.to_string()),
    }
}

/// Changing the invariant mid-session re-checks the accepted run in place: the spine is
/// kept, the violation record is rebuilt under the new φ, and later transactions are
/// judged by it.
#[test]
fn revise_swaps_the_invariant_without_losing_the_run() {
    let handle = spawn_server(fast_config());
    let (mut stream, mut replies) = connect(&handle);
    assert!(matches!(
        turn(&mut stream, &mut replies, &open_request("true")),
        Response::Opened { .. }
    ));
    // under `true` the transaction lands in a non-violating state
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(1)),
        Response::Ok { run_len: 1, .. }
    ));

    // `alpha` populated Q, so the revised invariant is violated at the tip — the
    // revision reports it without replaying (invariant edits only re-evaluate φ)
    match turn(
        &mut stream,
        &mut replies,
        &revise_invariant("!exists u. Q(u)"),
    ) {
        Response::Revised {
            run_len,
            violations,
            replayed_steps,
            rechecked_configs,
        } => {
            assert_eq!(run_len, 1, "the accepted run is kept");
            assert_eq!(violations, 1, "the tip violates the new invariant");
            assert_eq!(replayed_steps, 0, "invariant edits do not replay");
            assert_eq!(
                rechecked_configs, 2,
                "every spine configuration is re-checked"
            );
        }
        other => panic!("expected Revised, got {other:?}"),
    }

    // counters visible through Status agree with the revision's report
    match turn(&mut stream, &mut replies, &Request::Status) {
        Response::Stats {
            transactions,
            violations,
            run_len,
            ..
        } => assert_eq!((transactions, violations, run_len), (1, 1, 1)),
        other => panic!("expected Stats, got {other:?}"),
    }

    // a no-op revision is accepted and changes nothing
    match turn(
        &mut stream,
        &mut replies,
        &Request::Revise {
            dms: None,
            bound: None,
            invariant: None,
        },
    ) {
        Response::Revised {
            run_len,
            violations,
            replayed_steps,
            rechecked_configs,
        } => assert_eq!(
            (run_len, violations, replayed_steps, rechecked_configs),
            (1, 1, 0, 0)
        ),
        other => panic!("expected Revised, got {other:?}"),
    }
    handle.shutdown().expect("drain");
}

/// Bad revisions are refused with stable codes and leave the session exactly as it was.
#[test]
fn bad_revisions_are_rejected_and_change_nothing() {
    let handle = spawn_server(fast_config());

    // Revise before Open: no-session
    {
        let (mut stream, mut replies) = connect(&handle);
        match turn(&mut stream, &mut replies, &revise_invariant("true")) {
            Response::Rejected { code, .. } => assert_eq!(code, "no-session"),
            other => panic!("expected no-session, got {other:?}"),
        }
    }

    let (mut stream, mut replies) = connect(&handle);
    assert!(matches!(
        turn(&mut stream, &mut replies, &open_request("true")),
        Response::Opened { .. }
    ));
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(1)),
        Response::Ok { .. }
    ));

    // an unparsable invariant and an open (free-variable) invariant are both
    // `bad-invariant`; a DMS missing an action the accepted run uses is `bad-revision`
    let no_alpha = {
        use rdms_core::{ActionBuilder, DmsBuilder};
        DmsBuilder::new()
            .proposition("p")
            .relation("R", 1)
            .relation("Q", 1)
            .initially_true("p")
            .action(ActionBuilder::new("other").guard(rdms_db::Query::True))
            .build()
            .expect("valid DMS")
    };
    for (request, expected) in [
        (revise_invariant("exists u."), "bad-invariant"),
        (revise_invariant("Q(u)"), "bad-invariant"),
        (
            Request::Revise {
                dms: Some(no_alpha),
                bound: None,
                invariant: None,
            },
            "bad-revision",
        ),
    ] {
        match turn(&mut stream, &mut replies, &request) {
            Response::Rejected { code, .. } => assert_eq!(code, expected, "for {request:?}"),
            other => panic!("expected {expected}, got {other:?}"),
        }
    }

    // the session still serves, untouched, under the original inputs
    match turn(&mut stream, &mut replies, &Request::Status) {
        Response::Stats {
            transactions,
            violations,
            run_len,
            ..
        } => assert_eq!((transactions, violations, run_len), (1, 0, 1)),
        other => panic!("expected Stats, got {other:?}"),
    }
    assert!(matches!(
        turn(&mut stream, &mut replies, &alpha_check(4)),
        Response::Ok { run_len: 2, .. }
    ));
    handle.shutdown().expect("drain");
}

/// A journaled session that revised its invariant recovers across a crash: the `Revise`
/// record replays in order, so the resumed session judges transactions by the revised
/// invariant, not the one it was opened with.
#[test]
fn revisions_survive_crash_recovery() {
    let dir = std::env::temp_dir().join(format!("rdms-revise-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journaled_config = || ServerConfig {
        journal_dir: Some(PathBuf::from(&dir)),
        journal_fsync_every: 1,
        ..fast_config()
    };

    // life 1: open under `true`, accept one transaction, revise, then vanish (crash)
    let handle = spawn_server(journaled_config());
    let id;
    {
        let (mut stream, mut replies) = connect(&handle);
        id = match turn(&mut stream, &mut replies, &open_request("true")) {
            Response::Opened { session, .. } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        assert!(matches!(
            turn(&mut stream, &mut replies, &alpha_check(1)),
            Response::Ok { run_len: 1, .. }
        ));
        assert!(matches!(
            turn(
                &mut stream,
                &mut replies,
                &revise_invariant("!exists u. Q(u)")
            ),
            Response::Revised { violations: 1, .. }
        ));
        // no Close: the journal survives the crash
    }
    handle.shutdown().expect("drain");
    assert!(
        dir.join(journal::journal_file_name(id)).exists(),
        "the crashed session left its journal behind"
    );

    // life 2: boot recovery replays Open + Check + Revise, Resume re-attaches
    let handle = spawn_server(journaled_config());
    let (mut stream, mut replies) = connect(&handle);
    assert!(matches!(
        turn(
            &mut stream,
            &mut replies,
            &Request::Resume {
                version: PROTOCOL_VERSION,
                session: id,
            },
        ),
        Response::Opened { session, .. } if session == id
    ));
    match turn(&mut stream, &mut replies, &Request::Status) {
        Response::Stats {
            transactions,
            violations,
            run_len,
            ..
        } => assert_eq!(
            (transactions, violations, run_len),
            (1, 1, 1),
            "the revised violation record was restored"
        ),
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Close),
        Response::Bye
    );
    handle.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}
