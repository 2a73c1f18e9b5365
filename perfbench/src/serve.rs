//! The `serve-audit` workload: `Check` round trips to the real `rdms-serve` binary.
//!
//! One *cycle* is: spawn the server on an ephemeral loopback port with a fresh journal
//! directory and remote shutdown allowed; open two audit sessions on two connections
//! (set-up ends when both answered `Opened`); stream `session_len` seeded transactions on
//! each connection from its own thread, then `Status`; send `Shutdown`, wait for the
//! process to exit, restart the binary on the same journal directory and `Resume` both
//! sessions; check one more transaction on each and `Close`. The measured time of a cycle
//! runs from the first `Check` to the last `Bye`, so it includes the drain and the
//! restart; the run repeats cycles until `--seconds` of measured time have passed.

use crate::answers::{Answers, AuditAnswers};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Args, Report};
use rdms_checker::IncrementalChecker;
use rdms_db::parser::parse_query;
use rdms_serve::journal::{self, Journal, DEFAULT_FSYNC_EVERY};
use rdms_serve::protocol::{self, FrameError, FrameReader, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{CheckOutcome, Session};
use rdms_workloads::audit;
use rdms_workloads::streams::{wire_transaction, TransactionStream};
use std::collections::BTreeMap;
use std::fs::File;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent client connections (one thread each).
const CONNECTIONS: usize = 2;

/// A run gives up after this many cycles broke (each counts as a failed operation).
const MAX_BROKEN_CYCLES: usize = 3;

/// How long a reply, a port file or a process exit may take before the request counts as
/// failed with a timeout.
const PATIENCE: Duration = Duration::from_secs(60);

// -----------------------------------------------------------------------------------------
// the server process and a protocol client
// -----------------------------------------------------------------------------------------

/// A running `rdms-serve` child. Dropping it kills and reaps the process if it is still
/// running, so no server outlives the benchmark.
struct ServerProcess {
    child: Option<Child>,
}

impl ServerProcess {
    /// Start the binary on an ephemeral port and wait until it has published the port.
    fn spawn(
        bin: &Path,
        dir: &Path,
        journal: &Path,
        boot: usize,
    ) -> Result<(ServerProcess, SocketAddr), String> {
        let port_file = dir.join(format!("port-{boot}"));
        let log = File::create(dir.join(format!("server-{boot}.log")))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--journal-dir")
            .arg(journal)
            .arg("--allow-remote-shutdown")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = ServerProcess { child: Some(child) };
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse::<u16>().ok())
            {
                return Ok((server, SocketAddr::from(([127, 0, 0, 1], port))));
            }
            if let Some(status) = server.try_wait()? {
                return Err(format!("server exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                return Err("timeout waiting for the server's port file".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn try_wait(&mut self) -> Result<Option<std::process::ExitStatus>, String> {
        match self.child.as_mut() {
            Some(child) => child
                .try_wait()
                .map_err(|e| format!("waiting for server: {e}")),
            None => Ok(None),
        }
    }

    /// Wait for the process to exit on its own; an unclean exit is an error.
    fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.try_wait()? {
                self.child = None;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("timeout waiting for the server to exit".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One connection speaking the length-prefixed JSON protocol.
struct Client {
    stream: TcpStream,
    replies: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Client {
            stream,
            replies: FrameReader::new(reader, protocol::DEFAULT_MAX_FRAME_LEN),
        })
    }

    /// Write one already-encoded frame.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), String> {
        use std::io::Write;
        self.stream
            .write_all(frame)
            .map_err(|e| format!("write frame: {e}"))
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        protocol::write_message(&mut self.stream, request).map_err(|e| format!("write frame: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.replies.poll_frame() {
                Ok(Some(frame)) => return protocol::decode_response(&frame),
                Ok(None) => return Err("server closed the connection".to_string()),
                Err(FrameError::Idle) if Instant::now() < deadline => continue,
                Err(FrameError::Idle) => return Err("timeout waiting for a reply".to_string()),
                Err(e) => return Err(format!("transport error: {e}")),
            }
        }
    }

    fn turn(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        self.recv()
    }
}

fn expect_bye(response: Result<Response, String>, what: &str) -> Result<(), String> {
    match response? {
        Response::Bye => Ok(()),
        other => Err(format!("{what}: expected Bye, got {other:?}")),
    }
}

fn expect_opened(response: Result<Response, String>, what: &str) -> Result<u64, String> {
    match response? {
        Response::Opened {
            protocol: PROTOCOL_VERSION,
            session,
        } => Ok(session),
        other => Err(format!("{what}: expected Opened, got {other:?}")),
    }
}

/// Peak resident set size, in MB, of the largest child process this benchmark has
/// waited for (`getrusage(RUSAGE_CHILDREN)`): every server boot of the run.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, the first of
    /// which is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of `struct rusage` on this
    // target, and getrusage writes exactly one such struct through the pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_mb() -> f64 {
    f64::NAN
}

// -----------------------------------------------------------------------------------------
// inputs
// -----------------------------------------------------------------------------------------

/// One connection's transactions: wire form plus the pre-encoded `Check` frames.
struct Stream {
    transactions: Vec<(String, BTreeMap<String, u64>)>,
    frames: Vec<Vec<u8>>,
}

fn build_stream(dms: &Arc<rdms_core::Dms>, answers: &AuditAnswers, seed: u64) -> Stream {
    let steps =
        TransactionStream::new(Arc::clone(dms), answers.bound, seed).take(answers.session_len + 1);
    let transactions: Vec<_> = steps.map(|step| wire_transaction(dms, &step)).collect();
    let frames = transactions
        .iter()
        .map(|(action, bindings)| {
            let mut frame = Vec::new();
            protocol::write_message(
                &mut frame,
                &Request::Check {
                    action: action.clone(),
                    bindings: bindings.clone(),
                },
            )
            .expect("encoding into a Vec cannot fail");
            frame
        })
        .collect();
    Stream {
        transactions,
        frames,
    }
}

fn stream_seed(seed: u64, connection: usize) -> u64 {
    seed.wrapping_mul(CONNECTIONS as u64)
        .wrapping_add(connection as u64)
}

// -----------------------------------------------------------------------------------------
// one cycle
// -----------------------------------------------------------------------------------------

#[derive(Default)]
struct CycleResult {
    setup_s: f64,
    measured: Duration,
    latencies_us: Vec<f64>,
    drain_ms: f64,
    boot_ms: f64,
    downtime_s: f64,
    checkpoint_bytes: f64,
}

struct Ctx<'a> {
    args: &'a Args,
    answers: &'a AuditAnswers,
    dms: Arc<rdms_core::Dms>,
}

/// What one connection's session loop observed.
struct SessionRun {
    latencies_us: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
    tracer: Tracer,
}

/// The session loop of one connection: `session_len` checks, then `Status`.
fn stream_session(
    client: &mut Client,
    stream: &Stream,
    answers: &AuditAnswers,
    mut tracer: Tracer,
) -> SessionRun {
    let mut latencies_us = Vec::with_capacity(answers.session_len);
    let mut outcomes = Vec::with_capacity(answers.session_len + 1);
    for (i, frame) in stream.frames[..answers.session_len].iter().enumerate() {
        tracer.set_request(i as u64);
        let span = tracer.begin("serve.round_trip");
        let start = Instant::now();
        let reply = client.send_frame(frame).and_then(|()| client.recv());
        let elapsed = start.elapsed();
        tracer.end(span);
        latencies_us.push(elapsed.as_secs_f64() * 1e6);
        match reply {
            Ok(Response::Ok { run_len, .. }) if run_len == i + 1 => outcomes.push(Ok(())),
            Ok(other) => outcomes.push(Err(format!("check {}: {other:?}", i + 1))),
            Err(e) => {
                // the connection is unusable after a transport error
                outcomes.push(Err(format!("check {}: {e}", i + 1)));
                return SessionRun {
                    latencies_us,
                    outcomes,
                    tracer,
                };
            }
        }
    }
    outcomes.push(match client.turn(&Request::Status) {
        Ok(Response::Stats {
            transactions,
            distinct_states,
            violations,
            run_len,
        }) if transactions == answers.status_transactions
            && distinct_states == answers.status_distinct_states
            && violations == answers.status_violations
            && run_len == answers.status_run_len =>
        {
            Ok(())
        }
        other => Err(format!("status: {other:?}")),
    });
    SessionRun {
        latencies_us,
        outcomes,
        tracer,
    }
}

/// One cycle in `dir` (journals, port files, server logs), which the caller removes.
fn cycle(
    ctx: &Ctx,
    dir: &Path,
    index: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<CycleResult, String> {
    let answers = ctx.answers;
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut result = CycleResult::default();

    // set-up: inputs, server, both sessions opened
    let setup = Instant::now();
    let streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|c| build_stream(&ctx.dms, answers, stream_seed(ctx.args.seed, c)))
        .collect();
    let (server, addr) = ServerProcess::spawn(&ctx.args.server_bin, dir, &journal_dir, 0)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let open = Request::Open {
        version: PROTOCOL_VERSION,
        dms: (*ctx.dms).clone(),
        bound: answers.bound,
        invariant: answers.invariant.clone(),
        emit_certificates: false,
    };
    for client in &mut clients {
        client.send(&open)?;
    }
    let mut ids = Vec::new();
    for client in &mut clients {
        ids.push(expect_opened(client.recv(), "open")?);
    }
    result.setup_s = setup.elapsed().as_secs_f64();

    // measured: the sessions, one thread per connection
    let measured = Instant::now();
    let traced = ctx.args.trace && index % 2 == 1;
    let runs: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&streams)
            .map(|(client, stream)| {
                let local = if traced {
                    Tracer::new(tracer.epoch())
                } else {
                    Tracer::disabled()
                };
                scope.spawn(move || stream_session(client, stream, answers, local))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for run in runs {
        result.latencies_us.extend(run.latencies_us);
        for outcome in run.outcomes {
            report.outcome(outcome);
        }
        if traced {
            tracer.absorb(run.tracer);
        }
    }

    // drain: Shutdown on the first connection, the drain notice on the other
    let restart = Instant::now();
    let drain_span = tracer.begin("serve.drain");
    clients[0].send(&Request::Shutdown)?;
    expect_bye(clients[0].recv(), "shutdown")?;
    for client in &mut clients[1..] {
        expect_bye(client.recv(), "drain notice")?;
    }
    server.wait()?;
    tracer.end(drain_span);
    result.drain_ms = restart.elapsed().as_secs_f64() * 1e3;
    drop(clients);
    result.checkpoint_bytes = checkpoint_bytes(&journal_dir);

    // boot on the same journal directory and resume both sessions
    let boot = Instant::now();
    let boot_span = tracer.begin("serve.boot");
    let (server, addr) = ServerProcess::spawn(&ctx.args.server_bin, dir, &journal_dir, 1)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    for (client, &id) in clients.iter_mut().zip(&ids) {
        client.send(&Request::Resume {
            version: PROTOCOL_VERSION,
            session: id,
        })?;
    }
    for (client, &id) in clients.iter_mut().zip(&ids) {
        let resumed = expect_opened(client.recv(), "resume")?;
        report.outcome(if resumed == id {
            Ok(())
        } else {
            Err(format!("resume of session {id} answered session {resumed}"))
        });
    }
    tracer.end(boot_span);
    result.boot_ms = boot.elapsed().as_secs_f64() * 1e3;
    result.downtime_s = restart.elapsed().as_secs_f64();

    // one more transaction on each resumed session, then Close
    for (client, stream) in clients.iter_mut().zip(&streams) {
        let start = Instant::now();
        let reply = client
            .send_frame(&stream.frames[answers.session_len])
            .and_then(|()| client.recv());
        result
            .latencies_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        report.outcome(match reply {
            Ok(Response::Ok { run_len, .. }) if run_len == answers.session_len + 1 => Ok(()),
            other => Err(format!("check after resume: {other:?}")),
        });
    }
    for client in &mut clients {
        report.outcome(expect_bye(client.turn(&Request::Close), "close"));
    }
    result.measured = measured.elapsed();

    // teardown, outside the measured time
    drop(clients);
    let mut last = Client::connect(addr)?;
    expect_bye(last.turn(&Request::Shutdown), "final shutdown")?;
    server.wait()?;
    Ok(result)
}

/// Total size of the drain checkpoints in the journal directory.
fn checkpoint_bytes(journal_dir: &Path) -> f64 {
    std::fs::read_dir(journal_dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "checkpoint"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

// -----------------------------------------------------------------------------------------
// the workload
// -----------------------------------------------------------------------------------------

pub fn audit(args: &Args, answers: &Answers, report: &mut Report) -> Result<(), String> {
    let answers = &answers.serve_audit;
    let ctx = Ctx {
        args,
        answers,
        dms: Arc::new(audit::dms(answers.streams)),
    };
    let mut tracer = Tracer::new(Instant::now());
    let in_process = if args.trace {
        Some(in_process_layers(&ctx, report, &mut tracer)?)
    } else {
        None
    };

    let window = Duration::from_secs_f64(args.seconds);
    let mut cycles = Vec::new();
    let mut broken_cycles = 0;
    let mut measured = Duration::ZERO;
    while measured < window {
        let dir = args.run_dir.join(format!(
            "serve-{}-cycle-{}",
            std::process::id(),
            cycles.len() + broken_cycles
        ));
        let result = cycle(&ctx, &dir, cycles.len(), &mut tracer, report);
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(result) => {
                measured += result.measured;
                cycles.push(result);
            }
            Err(e) => {
                // a broken cycle is one failed operation; the run goes on with the next
                report.outcome(Err(e));
                broken_cycles += 1;
                if broken_cycles >= MAX_BROKEN_CYCLES {
                    return Err(format!("{broken_cycles} cycles broke"));
                }
            }
        }
    }
    let _ = std::fs::remove_dir(&args.run_dir);

    let all_us: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.latencies_us.iter().copied())
        .collect();
    let n = all_us.len();
    let per_cycle = |f: fn(&CycleResult) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let nc = cycles.len();
    report.note(format!(
        "latency_p99_ms = {} ms (n={n})",
        quantile(&all_us, 0.99) / 1e3
    ));
    report.note(format!(
        "restart_downtime_s = {} s (n={nc}; Shutdown sent -> both sessions Opened on the restarted server)",
        median(&per_cycle(|c| c.downtime_s))
    ));
    if !args.trace {
        // each statistic is the median over cycles of its value within the cycle, so load
        // from outside the benchmark that covers less than half the run does not move it
        report.end_to_end("setup_s", median(&per_cycle(|c| c.setup_s)), nc);
        report.end_to_end(
            "latency_p50_ms",
            median(&per_cycle(|c| median(&c.latencies_us) / 1e3)),
            n,
        );
        report.note(format!(
            "latency_p90_ms = {} ms (n={n})",
            median(&per_cycle(|c| quantile(&c.latencies_us, 0.9) / 1e3))
        ));
        report.end_to_end(
            "throughput_per_s",
            median(&per_cycle(|c| {
                c.latencies_us.len() as f64 / c.measured.as_secs_f64()
            })),
            n,
        );
        report.end_to_end("peak_rss_mb", children_peak_rss_mb(), nc * 2);
        report.note(format!("latency statistics are medians over {nc} cycles"));
        report.note(format!(
            "per cycle: round-trip p50 us {:?}, restart downtime s {:?}",
            per_cycle(|c| median(&c.latencies_us)),
            per_cycle(|c| c.downtime_s)
        ));
        return Ok(());
    }

    let in_process = in_process.expect("traced runs measure in process");
    report.layer("serve.drain_ms", median(&per_cycle(|c| c.drain_ms)), nc);
    report.layer("serve.boot_ms", median(&per_cycle(|c| c.boot_ms)), nc);
    report.layer(
        "serve.checkpoint_bytes",
        median(&per_cycle(|c| c.checkpoint_bytes)) / CONNECTIONS as f64,
        nc,
    );
    let traced_us: Vec<f64> = tracer
        .durations_ms("serve.round_trip")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let untraced_us: Vec<f64> = cycles
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .flat_map(|(_, c)| c.latencies_us.iter().copied())
        .collect();
    report.layer("serve.socket_us", median(&all_us) - in_process, n);
    report.note(format!(
        "socket split: client round-trip p50 {} us - in-process decode+session+journal+encode {in_process} us",
        median(&all_us)
    ));
    let overhead_ms = (median(&traced_us) - median(&untraced_us)) / 1e3;
    report.layer(
        "trace.overhead_ms",
        overhead_ms,
        traced_us.len() + untraced_us.len(),
    );
    report.note(format!(
        "tracing overhead: traced round-trip p50 {} us (n={}) - untraced p50 {} us (n={})",
        median(&traced_us),
        traced_us.len(),
        median(&untraced_us),
        untraced_us.len()
    ));
    let path = args.run_dir.join("spans-serve-audit.jsonl");
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
    Ok(())
}

/// The server's per-request work measured in process on the same transaction stream:
/// decode, session check with and without a file journal, encode, the drain checkpoint
/// round trip and journal replay, and the bare incremental checker. Returns the sum of
/// the decode, session, journal and encode medians in microseconds (the in-process share
/// of a round trip).
fn in_process_layers(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<f64, String> {
    let answers = ctx.answers;
    let len = answers.session_len;
    let stream = build_stream(&ctx.dms, answers, stream_seed(ctx.args.seed, 0));
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let dir = ctx
        .args
        .run_dir
        .join(format!("serve-{}-in-process", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // decode: the server's view of each Check frame
    let mut decode = Vec::with_capacity(len);
    for frame in &stream.frames[..len] {
        let payload = &frame[4..];
        let start = Instant::now();
        let decoded = tracer.time("serve.decode", || protocol::decode_request(payload));
        decode.push(us(start.elapsed()));
        report.outcome(decoded.map(|_| ()));
    }
    let frame_bytes: Vec<f64> = stream.frames.iter().map(|f| f.len() as f64).collect();

    // session checks, without and with a file journal
    let open = |journaled: bool| -> Result<Session, String> {
        let session = Session::open((*ctx.dms).clone(), answers.bound, &answers.invariant, false)
            .map_err(|e| format!("session open: {e}"))?;
        if !journaled {
            return Ok(session);
        }
        let record = journal::open_record(&ctx.dms, answers.bound, &answers.invariant, false);
        let journal = Journal::create(&dir, 1, &record, DEFAULT_FSYNC_EVERY)
            .map_err(|e| format!("journal create: {e}"))?;
        Ok(session.with_journal(Arc::new(Mutex::new(journal))))
    };
    let mut plain = open(false)?;
    let mut journaled = open(true)?;
    let (mut session_us, mut journaled_us, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    for (action, bindings) in &stream.transactions[..len] {
        let start = Instant::now();
        let outcome = tracer.time("serve.session", || plain.check(action, bindings));
        session_us.push(us(start.elapsed()));
        let start = Instant::now();
        let journaled_outcome = tracer.time("serve.session_journaled", || {
            journaled.check(action, bindings)
        });
        journaled_us.push(us(start.elapsed()));
        report.outcome(match (&outcome, &journaled_outcome) {
            (CheckOutcome::Ok { .. }, CheckOutcome::Ok { .. }) => Ok(()),
            other => Err(format!("in-process check: {other:?}")),
        });
        let response = plain.respond(&outcome);
        let mut buffer = Vec::new();
        let start = Instant::now();
        tracer
            .time("serve.encode", || {
                protocol::write_message(&mut buffer, &response)
            })
            .map_err(|e| format!("encode: {e}"))?;
        encode.push(us(start.elapsed()));
    }
    let journal_path = journaled
        .take_journal()
        .and_then(|j| j.lock().ok().and_then(|j| j.path().map(Path::to_path_buf)))
        .ok_or("journaled session lost its journal")?;
    drop(journaled);

    let (d, s, j, e) = (
        median(&decode),
        median(&session_us),
        median(&journaled_us) - median(&session_us),
        median(&encode),
    );
    report.layer("serve.decode_us", d, decode.len());
    report.layer("serve.encode_us", e, encode.len());
    report.layer("serve.frame_bytes", median(&frame_bytes), frame_bytes.len());
    report.layer("serve.session_us", s, session_us.len());
    report.layer("serve.journal_us", j, journaled_us.len());
    // fsyncs cannot be counted from outside the process: derived from the policy, one at
    // creation plus one per DEFAULT_FSYNC_EVERY appended records
    report.layer("serve.fsyncs", (1 + len / DEFAULT_FSYNC_EVERY) as f64, 1);
    report.note(format!(
        "serve.fsyncs is derived from the fsync-every-{DEFAULT_FSYNC_EVERY} policy (1 at Open + 1 per {DEFAULT_FSYNC_EVERY} checks), not observed"
    ));

    // the drain checkpoint round trip on the same session, and replay of the same journal
    let start = Instant::now();
    tracer
        .time("serve.snapshot_write", || {
            journal::write_snapshot(&dir, 2, &plain.snapshot())
        })
        .map_err(|e| format!("write_snapshot: {e}"))?;
    let write_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let snapshot = tracer
        .time("serve.snapshot_read", || {
            journal::read_snapshot(&dir.join(journal::checkpoint_file_name(2)))
        })
        .ok_or("read_snapshot returned nothing")?;
    let read_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let resumed = tracer
        .time("serve.resume", || Session::resume(snapshot))
        .map_err(|e| format!("resume: {e}"))?;
    let resume_ms = start.elapsed().as_secs_f64() * 1e3;
    report.outcome(if resumed.stats() == plain.stats() {
        Ok(())
    } else {
        Err(format!(
            "resumed session stats {:?} != {:?}",
            resumed.stats(),
            plain.stats()
        ))
    });
    let bytes = std::fs::read(&journal_path).map_err(|e| format!("read journal: {e}"))?;
    let records = journal::parse_journal(&bytes)
        .ok_or("journal has no magic")?
        .records;
    let start = Instant::now();
    let replayed = tracer.time("serve.replay", || journal::replay(&records));
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    report.outcome(match replayed {
        Some((_, n)) if n == len => Ok(()),
        other => Err(format!(
            "journal replay replayed {:?} of {len}",
            other.map(|(_, n)| n)
        )),
    });
    report.layer("serve.snapshot_write_ms", write_ms, 1);
    report.layer("serve.snapshot_read_ms", read_ms, 1);
    report.layer("serve.resume_ms", resume_ms, 1);
    report.layer("serve.replay_ms", replay_ms, 1);

    // the bare incremental checker on the same stream
    let invariant = parse_query(&answers.invariant).map_err(|e| format!("invariant: {e}"))?;
    let mut checker = IncrementalChecker::new(Arc::clone(&ctx.dms), answers.bound, invariant)
        .map_err(|e| format!("incremental checker: {e}"))?;
    let steps: Vec<_> = TransactionStream::new(
        Arc::clone(&ctx.dms),
        answers.bound,
        stream_seed(ctx.args.seed, 0),
    )
    .take(len)
    .collect();
    let mut incremental = Vec::with_capacity(len);
    for step in &steps {
        let start = Instant::now();
        let verdict = tracer.time("checker.incremental", || checker.check(step));
        incremental.push(us(start.elapsed()));
        report.outcome(
            verdict
                .map(|_| ())
                .map_err(|e| format!("incremental check: {e}")),
        );
    }
    report.layer(
        "checker.incremental.us",
        median(&incremental),
        incremental.len(),
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(d + s + j + e)
}
