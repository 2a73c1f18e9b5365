//! The chaos suite: deterministic fault injection against the full service stack.
//!
//! Every test here drives one of the robustness guarantees under a **seeded** fault
//! schedule (`rdms_serve::faults`), so a failure reproduces from its seed alone. When the
//! `CHAOS_SEED_LOG` environment variable names a file, the seed of any failing schedule
//! is appended there — the CI chaos leg uploads that file as an artifact.
//!
//! The two oracles:
//!
//! * **liveness** — after any schedule of fragmented/delayed/interrupted client i/o, the
//!   server still answers a fresh, healthy connection;
//! * **recovery equivalence** — verdicts after a crash + journal recovery are
//!   bit-for-bit the verdicts of the uninterrupted run (the `tests/incremental.rs`
//!   equivalence style, lifted to the service layer).

use proptest::prelude::*;
use rdms_core::dms::example_3_1;
use rdms_serve::faults::{self, FaultSchedule, FaultyStream};
use rdms_serve::journal::{self, Journal, JournalRecord, SharedBuffer};
use rdms_serve::protocol::{self, FrameError, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{CheckOutcome, Server, ServerConfig, ServerHandle, Session};
use rdms_workloads::random::{random_dms, RandomDmsConfig};
use rdms_workloads::streams::{wire_transaction, TransactionStream};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The fixed schedules the CI chaos leg replays in release mode.
const CHAOS_SEEDS: [u64; 8] = [1, 7, 13, 42, 99, 1234, 86028157, 424242];

/// Transactions per stream in the recovery-equivalence runs.
const STREAM_LEN: usize = 12;

/// Run one seeded case; on failure, append the seed to `$CHAOS_SEED_LOG` (when set) so
/// CI can upload the failing schedule, then let the panic propagate.
fn with_seed<R>(seed: u64, case: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(result) => result,
        Err(panic) => {
            if let Ok(path) = std::env::var("CHAOS_SEED_LOG") {
                if let Ok(mut file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = writeln!(file, "{seed}");
                }
            }
            resume_unwind(panic)
        }
    }
}

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

/// The liveness oracle: a fresh, healthy connection gets a prompt `Pong`.
fn assert_server_alive(handle: &ServerHandle) {
    let mut stream = TcpStream::connect(handle.addr()).expect("liveness connect");
    let mut replies = protocol::FrameReader::new(
        stream.try_clone().expect("clone"),
        protocol::DEFAULT_MAX_FRAME_LEN,
    );
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Ping),
        Response::Pong,
        "liveness oracle: the server must answer after the schedule"
    );
}

fn alpha_bindings(base: u64) -> BTreeMap<String, u64> {
    BTreeMap::from([
        ("v1".to_string(), base),
        ("v2".to_string(), base + 1),
        ("v3".to_string(), base + 2),
    ])
}

/// Drive one full session through a faulty writer: every frame reaches the server
/// fragmented, delayed and interrupted per the seed's schedule, and every reply must
/// still be protocol-perfect.
fn faulty_session(handle: &ServerHandle, seed: u64) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut replies = protocol::FrameReader::new(
        stream.try_clone().expect("clone"),
        protocol::DEFAULT_MAX_FRAME_LEN,
    );
    let mut writer = FaultyStream::new(stream, FaultSchedule::new(seed));
    let mut faulty_turn = |request: &Request| -> Response {
        protocol::write_message(&mut writer, request).expect("faulty write completes");
        next_response(&mut replies).expect("server replied")
    };

    assert_eq!(faulty_turn(&Request::Ping), Response::Pong);
    let opened = faulty_turn(&Request::Open {
        version: PROTOCOL_VERSION,
        dms: example_3_1(),
        bound: 2,
        invariant: "true".to_string(),
        emit_certificates: false,
    });
    assert!(matches!(opened, Response::Opened { .. }), "got {opened:?}");
    for (i, base) in [1u64, 4, 7].into_iter().enumerate() {
        let verdict = faulty_turn(&Request::Check {
            action: "alpha".to_string(),
            bindings: alpha_bindings(base),
        });
        match verdict {
            Response::Ok { run_len, .. } => assert_eq!(run_len, i + 1),
            other => panic!("transaction {i} refused under seed {seed}: {other:?}"),
        }
    }
    match faulty_turn(&Request::Status) {
        Response::Stats { transactions, .. } => assert_eq!(transactions, 3),
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_eq!(faulty_turn(&Request::Close), Response::Bye);
}

/// The CI leg's fixed schedules: every seed's faulty session completes and the server
/// answers afterwards.
#[test]
fn liveness_under_the_fixed_fault_schedules() {
    let handle = spawn_server(fast_config());
    for seed in CHAOS_SEEDS {
        with_seed(seed, || faulty_session(&handle, seed));
    }
    assert_server_alive(&handle);
    handle.shutdown().expect("drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Beyond the fixed seeds: arbitrary schedules, same liveness oracle.
    #[test]
    fn liveness_under_arbitrary_fault_schedules(seed in 0u64..u64::MAX) {
        let handle = spawn_server(fast_config());
        with_seed(seed, || faulty_session(&handle, seed));
        assert_server_alive(&handle);
        handle.shutdown().expect("drain");
    }
}

/// A comparable summary of one [`CheckOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Summary {
    Ok(u64, bool, usize),
    Violation(usize),
    Rejected(String),
}

fn summarize(outcome: &CheckOutcome) -> Summary {
    match outcome {
        CheckOutcome::Ok {
            state_id,
            new_state,
            run_len,
        } => Summary::Ok(*state_id, *new_state, *run_len),
        CheckOutcome::Violation { witness, .. } => Summary::Violation(witness.len()),
        CheckOutcome::Rejected { code, .. } => Summary::Rejected(code.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recovery oracle, at every byte-level crash point: run a random stream through
    /// a journaled session, cut the journal bytes anywhere past the `Open` record (a
    /// crash tears mid-frame as often as at a boundary), recover, replay the rest of the
    /// stream — verdict for verdict, the crashed-and-recovered trajectory must equal the
    /// uninterrupted one.
    #[test]
    fn recovery_is_equivalent_to_the_uninterrupted_run(
        dms_seed in 0u64..1024,
        stream_seed in 0u64..1024,
        cut_per_mille in 0u32..=1000,
    ) {
        let config = RandomDmsConfig { max_arity: 1, seed: dms_seed, ..Default::default() };
        let dms = Arc::new(random_dms(&config));
        let bound = 2;
        let invariant = "!exists u. (R0(u) & R1(u))";
        let steps: Vec<(String, BTreeMap<String, u64>)> =
            TransactionStream::new(Arc::clone(&dms), bound, stream_seed)
                .take(STREAM_LEN)
                .map(|step| wire_transaction(&dms, &step))
                .collect();

        // the uninterrupted run
        let mut baseline = Session::open((*dms).clone(), bound, invariant, false).unwrap();
        let expected: Vec<Summary> = steps
            .iter()
            .map(|(action, bindings)| summarize(&baseline.check(action, bindings)))
            .collect();

        // the journaled run, crashed at an arbitrary byte
        let buffer = SharedBuffer::default();
        let open = journal::open_record(&dms, bound, invariant, false);
        let journaled = Journal::with_sink(Box::new(buffer.clone()), &open, 1).unwrap();
        let mut session = Session::open((*dms).clone(), bound, invariant, false)
            .unwrap()
            .with_journal(Arc::new(std::sync::Mutex::new(journaled)));
        for (action, bindings) in &steps {
            session.check(action, bindings);
        }
        drop(session);

        let bytes = buffer.contents();
        let open_len = 4 + journal::encode_record(&open).len();
        let cut = open_len + (bytes.len() - open_len) * cut_per_mille as usize / 1000;
        let parsed = journal::parse_journal(&bytes[..cut]).expect("intact magic");
        let (mut recovered, replayed) =
            journal::replay(&parsed.records).expect("the Open record survives every cut");

        // the journal may only ever lag the session, never diverge from it
        prop_assert!(replayed <= STREAM_LEN);
        prop_assert_eq!(recovered.transactions(), replayed);

        // resume the stream where the journal left off: every remaining verdict must
        // match the uninterrupted run, and so must the final counters
        for (i, (action, bindings)) in steps.iter().enumerate().skip(replayed) {
            let summary = summarize(&recovered.check(action, bindings));
            prop_assert_eq!(&summary, &expected[i], "verdict {} diverged after recovery", i);
        }
        prop_assert_eq!(recovered.transactions(), baseline.transactions());
        prop_assert_eq!(recovered.violations(), baseline.violations());
        prop_assert_eq!(recovered.stats(), baseline.stats());
    }
}

/// A crashed server's journal directory boots the next server into the same sessions:
/// the client re-attaches with `Resume` and continues exactly where it left off — even
/// with a torn tail scribbled onto the journal in between. A second `Resume` of the same
/// id is refused, and a clean `Close` retires the journal for good.
#[test]
fn boot_recovery_and_resume_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("rdms-chaos-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journaled_config = || ServerConfig {
        journal_dir: Some(PathBuf::from(&dir)),
        journal_fsync_every: 1,
        ..fast_config()
    };

    // life 1: open, check, then vanish without Close (the crash)
    let handle = spawn_server(journaled_config());
    let id;
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut replies = protocol::FrameReader::new(
            stream.try_clone().expect("clone"),
            protocol::DEFAULT_MAX_FRAME_LEN,
        );
        let opened = turn(
            &mut stream,
            &mut replies,
            &Request::Open {
                version: PROTOCOL_VERSION,
                dms: example_3_1(),
                bound: 2,
                invariant: "true".to_string(),
                emit_certificates: false,
            },
        );
        id = match opened {
            Response::Opened { session, .. } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        let verdict = turn(
            &mut stream,
            &mut replies,
            &Request::Check {
                action: "alpha".to_string(),
                bindings: alpha_bindings(1),
            },
        );
        assert!(matches!(verdict, Response::Ok { run_len: 1, .. }));
        // connection dropped here without Close: the journal survives
    }
    handle.shutdown().expect("drain");

    // the crash also tore the journal's tail
    let journal_path = dir.join(journal::journal_file_name(id));
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .expect("journal file exists after the crash");
        file.write_all(&[0xBA, 0xD0]).expect("scribble a torn tail");
    }

    // life 2: recover at boot, Resume over the wire, continue the run
    let handle = spawn_server(journaled_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut replies = protocol::FrameReader::new(
        stream.try_clone().expect("clone"),
        protocol::DEFAULT_MAX_FRAME_LEN,
    );
    let resumed = turn(
        &mut stream,
        &mut replies,
        &Request::Resume {
            version: PROTOCOL_VERSION,
            session: id,
        },
    );
    assert!(
        matches!(resumed, Response::Opened { session, .. } if session == id),
        "got {resumed:?}"
    );
    match turn(&mut stream, &mut replies, &Request::Status) {
        Response::Stats {
            transactions,
            run_len,
            ..
        } => assert_eq!(
            (transactions, run_len),
            (1, 1),
            "the crashed run was restored"
        ),
        other => panic!("expected Stats, got {other:?}"),
    }
    let verdict = turn(
        &mut stream,
        &mut replies,
        &Request::Check {
            action: "alpha".to_string(),
            bindings: alpha_bindings(4),
        },
    );
    assert!(matches!(verdict, Response::Ok { run_len: 2, .. }));

    // the same id cannot be resumed twice
    {
        let mut other = TcpStream::connect(handle.addr()).expect("connect");
        let mut other_replies = protocol::FrameReader::new(
            other.try_clone().expect("clone"),
            protocol::DEFAULT_MAX_FRAME_LEN,
        );
        match turn(
            &mut other,
            &mut other_replies,
            &Request::Resume {
                version: PROTOCOL_VERSION,
                session: id,
            },
        ) {
            Response::Rejected { code, .. } => assert_eq!(code, "unknown-session"),
            other => panic!("expected unknown-session, got {other:?}"),
        }
    }

    // clean Close retires the journal: nothing to recover at the next boot
    assert_eq!(
        turn(&mut stream, &mut replies, &Request::Close),
        Response::Bye
    );
    handle.shutdown().expect("drain");
    assert!(
        !journal_path.exists(),
        "a cleanly closed session leaves no journal behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Panic containment: a failpoint-induced panic inside one session's handler yields
/// `session-poisoned` on that connection only; a concurrent healthy session completes
/// its entire lifecycle and the server stays up.
#[test]
fn a_panicking_session_is_poisoned_alone() {
    let handle = spawn_server(fast_config());

    // the healthy session only ever fires `alpha`; the failpoint is keyed to `beta`
    faults::arm("check:beta", 1);

    let (mut healthy, mut healthy_replies) = {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let replies = protocol::FrameReader::new(
            stream.try_clone().expect("clone"),
            protocol::DEFAULT_MAX_FRAME_LEN,
        );
        (stream, replies)
    };
    let (mut doomed, mut doomed_replies) = {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let replies = protocol::FrameReader::new(
            stream.try_clone().expect("clone"),
            protocol::DEFAULT_MAX_FRAME_LEN,
        );
        (stream, replies)
    };
    for (stream, replies) in [
        (&mut healthy, &mut healthy_replies),
        (&mut doomed, &mut doomed_replies),
    ] {
        let opened = turn(
            stream,
            replies,
            &Request::Open {
                version: PROTOCOL_VERSION,
                dms: example_3_1(),
                bound: 2,
                invariant: "true".to_string(),
                emit_certificates: false,
            },
        );
        assert!(matches!(opened, Response::Opened { .. }));
    }

    // the doomed session trips the failpoint
    match turn(
        &mut doomed,
        &mut doomed_replies,
        &Request::Check {
            action: "beta".to_string(),
            bindings: BTreeMap::from([
                ("u".to_string(), 2u64),
                ("v1".to_string(), 4),
                ("v2".to_string(), 5),
            ]),
        },
    ) {
        Response::Rejected { code, .. } => assert_eq!(code, "session-poisoned"),
        other => panic!("expected session-poisoned, got {other:?}"),
    }
    assert_eq!(
        next_response(&mut doomed_replies),
        None,
        "the poisoned connection is closed"
    );

    // the healthy session never noticed
    let verdict = turn(
        &mut healthy,
        &mut healthy_replies,
        &Request::Check {
            action: "alpha".to_string(),
            bindings: alpha_bindings(1),
        },
    );
    assert!(matches!(verdict, Response::Ok { run_len: 1, .. }));
    assert_eq!(
        turn(&mut healthy, &mut healthy_replies, &Request::Close),
        Response::Bye
    );
    assert_server_alive(&handle);

    faults::disarm_all();
    handle.shutdown().expect("drain");
}

/// Journal degradation: when the journal's sink starts failing mid-session, the session
/// keeps accepting transactions (availability over durability) and the journal reports
/// itself broken exactly once.
#[test]
fn a_failing_journal_degrades_without_losing_the_session() {
    let open = journal::open_record(&example_3_1(), 2, "true", false);
    let buffer = SharedBuffer::default();
    // enough budget for the Open record plus one Check frame, then everything fails
    let budget = 4 + journal::encode_record(&open).len() + 120;
    let sink = faults::FailingSink::new(buffer.clone(), budget);
    let journal_handle = Arc::new(std::sync::Mutex::new(
        Journal::with_sink(Box::new(sink), &open, 1).unwrap(),
    ));
    let mut session = Session::open(example_3_1(), 2, "true", false)
        .unwrap()
        .with_journal(Arc::clone(&journal_handle));

    for base in [1u64, 4, 7, 10] {
        assert!(matches!(
            session.check("alpha", &alpha_bindings(base)),
            CheckOutcome::Ok { .. }
        ));
    }
    assert_eq!(session.transactions(), 4, "every transaction was accepted");
    assert!(
        journal_handle.lock().unwrap().broken().is_some(),
        "the journal noticed its sink failing"
    );

    // what did land parses back as a clean prefix of the run
    let parsed = journal::parse_journal(&buffer.contents()).expect("intact magic");
    assert!(!parsed.records.is_empty(), "the Open record is durable");
    assert!(matches!(parsed.records[0], JournalRecord::Open { .. }));
}
